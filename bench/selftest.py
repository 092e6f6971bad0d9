"""Self-tests of the benchmark: oracles on hand and closed-form cases, and
one pass over every workload.

    python3 bench/selftest.py

Run from the root of a source checkout.
"""

import random
import shutil
import sys
import unittest
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import docs  # noqa: E402
import oracles  # noqa: E402


class RingStates(unittest.TestCase):
    def test_one_colour_rings_reach_every_distribution(self):
        for n, k in ((2, 2), (3, 2), (4, 3), (5, 4), (10, 4)):
            _, dist, _, _ = oracles.bfs(docs.ring("r", n, [k]))
            self.assertEqual(len(dist), comb(n + k - 1, k), (n, k))

    def test_colours_travel_independently(self):
        _, dist, _, _ = oracles.bfs(docs.ring("r", 4, [2, 3]))
        self.assertEqual(len(dist), comb(5, 2) * comb(6, 3))

    def test_state_machines_are_strongly_connected(self):
        net = docs.state_machine("sm", 6, 3, 2, random.Random(1))
        self.assertEqual(len(oracles.bfs(net)[1]), comb(8, 3))

    def test_depth_cut_of_a_two_place_ring(self):
        ring = docs.ring("r2", 2, [2])
        _, dist, radius, cut_open = oracles.bfs(ring)
        self.assertEqual((len(dist), radius, cut_open), (3, 2, False))
        # at the exact radius nothing is left unseen; one step short, something is
        self.assertFalse(oracles.bfs(ring, 2)[3])
        self.assertTrue(oracles.bfs(ring, 1)[3])
        self.assertEqual(len(oracles.bfs(ring, 1)[1]), 2)


class ModularRanks(unittest.TestCase):
    @staticmethod
    def unimodular(n, rng):
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        return m

    def test_ranks_mod_p_count_factors_prime_to_p(self):
        rng = random.Random(3)
        diagonal = [1, 2, 6, 30, 0]
        d = [[diagonal[i] if i == j else 0 for j in range(6)] for i in range(5)]
        u, v = self.unimodular(5, rng), self.unimodular(6, rng)
        mul = lambda a, b: [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]
        m = mul(mul(u, d), v)
        self.assertEqual(oracles.rank_q(m), 4)
        for p, want in ((2, 1), (3, 2), (5, 3), (7, 4)):
            self.assertEqual(oracles.rank_mod(m, p), want, p)


class BasicCovers(unittest.TestCase):
    def test_readme_ring(self):
        ring = docs.Net(
            "ring",
            [("busy", ("job",)), ("idle", ("job",))],
            [("finish", ("go",)), ("start", ("go",))],
            {("finish", "go", "busy", "job"): 1, ("start", "go", "idle", "job"): 1},
            {("finish", "go", "idle", "job"): 1, ("start", "go", "busy", "job"): 1},
        )
        # each place is its own basic open (1 cover) and each transition's
        # basic open is covered with or without either place singleton (4)
        self.assertEqual(oracles.covering_counts(ring), (2 * 1 + 2 * 4, 2 * 1 + 2 * 4))

    def test_isolated_transition(self):
        net = docs.Net(
            "n",
            [("p", ("c",)), ("q", ("c",))],
            [("t", ("g",)), ("u", ("g",))],
            {("t", "g", "p", "c"): 1},
            {},
        )
        # opens: p, q, u alone (1 each), t with p (2); closeds: t, u (1 each),
        # p with t (2), q alone (1)
        self.assertEqual(oracles.covering_counts(net), (5, 5))


class HilbertBox(unittest.TestCase):
    def test_fibre_cone_of_the_running_example(self):
        # incidence of t1..t4 on the places p1, p2 of the closed fibre
        m = [[-1, 1, 1, 0], [-1, 0, 1, 1]]
        bound = oracles.hilbert_bound(m)
        self.assertGreaterEqual(bound, 1)
        self.assertEqual(oracles.hilbert_in_box(m, 4, bound), [(1, 0, 1, 0), (1, 1, 0, 1)])

    def test_bound_covers_a_large_generator(self):
        # ker [3, -5] is spanned by (5, 3), a generator above every entry of M
        bound = oracles.hilbert_bound([[3, -5]])
        self.assertGreaterEqual(bound, 5)
        self.assertEqual(oracles.hilbert_in_box([[3, -5]], 2, bound), [(5, 3)])


class Smoke(unittest.TestCase):
    """One round of every workload, checked like a run checks it.  The only
    failures are the two exact-radius ``reach`` operations, each with the
    one mismatch of the ``truncated`` fault."""

    def test_every_workload_round(self):
        import run
        import workloads

        package = run.load_program()
        for name in workloads.GROUPS:
            workdir = run.OUT / f"selftest-{name}"
            known = []
            try:
                for op in next(workloads.rounds(name, 7, workdir)):
                    rc, _elapsed, out, err = run.invoke(package, op.argv)
                    kind, what = run.verdict(op, rc, out, err)
                    self.assertNotEqual(kind, "wrong", f"{name}: {' '.join(op.argv)}: {what}")
                    if kind == "known":
                        self.assertEqual(what, workloads.TRUNCATED_AT_RADIUS)
                        known.append(op.argv)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            self.assertEqual(len(known), 2 if name == "reach" else 0, name)


if __name__ == "__main__":
    unittest.main()

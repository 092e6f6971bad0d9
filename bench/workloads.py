"""The four workloads: seeded documents, the CLI operations on them, and
the check of each operation's JSON output.

Round ``r`` of a workload is one group of operations on documents drawn
from ``random.Random("<workload>:<seed>:<r>")``, plus the workload's fixed
operations.  Every group holds the same list of commands, so every round
attempts the same operations in the same proportions whatever the seed,
and no round repeats the documents of another.

Every round also holds a few fixed tiny probes: one operation for each
command a workload's own operations lack and that it needs, so that
``coverings_per_s`` (``axioms``) and ``states_per_s`` (``reach``) are
measured on every workload and every layer has a traced time on every
workload.  Probes are checked and counted like any operation, but their
times stay out of the pooled call times (``ops_per_s``, ``verdict_ms``).

A check computes its oracle when it is called, so the oracle's cost stays
out of set-up and out of every timed call.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import docs
import oracles


class Mismatch(Exception):
    """An output that disagrees with the oracle."""


class KnownFault(Exception):
    """An output that disagrees with the oracle in exactly the way a known
    fault of the program makes it: the operation counts as failed, and the
    run stays correct."""


def need(condition, message):
    if not condition:
        raise Mismatch(message)


class Op:
    """One CLI invocation: ``argv`` (``--json`` is appended) and its check.

    ``check(rc, payload)`` raises ``Mismatch`` on a wrong output, and
    ``KnownFault`` on the one output a known fault of the program gives.
    The time of a ``probe`` is left out of the pooled call times.
    """

    def __init__(self, argv, check, probe=False):
        self.argv = [str(a) for a in argv] + ["--json"]
        self.command = self.argv[0]
        self.check = check
        self.probe = probe


def marking_payload(axis, vector):
    return {f"{p}.{c}": v for (p, c), v in zip(axis, vector) if v}


def writer(root):
    """A function that writes a document under ``root`` and returns its path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)

    def write(name, text):
        path = root / name
        path.write_text(text)
        return path

    return write


# ---------------------------------------------------------------------------
# checks


def axioms_check(net, random_nets=None, random_seed=None):
    def check(rc, out):
        opens, closeds = oracles.covering_counts(net)
        want = {"token-sheaf": opens, "binding-cosheaf": closeds, "flow-gluing": closeds}
        need(rc == 0, f"axioms exit {rc}")
        need(out["failures"] == [], f"gluing failures {out['failures'][:2]}")
        need(out["checks"] == want, f"covers {out['checks']} != {want}")
        if random_nets is None:
            need(out["random"] is None, "unexpected random sweep")
            return
        rng = random.Random(random_seed)
        swept = 0
        for _ in range(random_nets):
            o, c = oracles.covering_counts(docs.program_random_net(rng))
            swept += o + 2 * c
        want = {"nets": random_nets, "checks": swept, "seed": random_seed}
        need(out["random"] == want, f"random sweep {out['random']} != {want}")

    return check


TRUNCATED_AT_RADIUS = "truncated True, unseen successor at the cut False"


def reach_check(net, depth=None, known_truncation=False):
    """``known_truncation``: the depth is the exact radius, where
    ``behaviour.reachable`` reports a cut that leaves nothing unseen.  Only
    that mismatch raises ``KnownFault``; every other check stays exact."""

    def check(rc, out):
        axis, dist, radius, cut_open = oracles.bfs(net, depth)
        key = lambda d: sorted(d.items())  # noqa: E731
        want = sorted((marking_payload(axis, m) for m in dist), key=key)
        need(rc == 0, f"reach exit {rc}")
        need(out["count"] == len(dist), f"count {out['count']} != {len(dist)}")
        need(sorted(out["markings"], key=key) == want, "marking set differs from the oracle")
        need(out["depth_reached"] == radius, f"depth {out['depth_reached']} != {radius}")
        need(out["budget_exhausted"] is False, "state budget exhausted")
        mismatch = f"truncated {out['truncated']}, unseen successor at the cut {cut_open}"
        if known_truncation and mismatch == TRUNCATED_AT_RADIUS:
            raise KnownFault(mismatch)
        need(out["truncated"] == cut_open, mismatch)

    return check


def simulate_check(net, walk):
    def check(rc, out):
        axis = net.token_axis()
        effects = {name: (pre, post) for name, pre, post in oracles.events(net, axis)}
        m = tuple(net.marking.get(lab, 0) for lab in axis)
        trace = [marking_payload(axis, m)]
        for name in walk:
            pre, post = effects[name]
            m = tuple(x - a + b for x, a, b in zip(m, pre, post))
            trace.append(marking_payload(axis, m))
        need(rc == 0 and out["status"] == "ok", f"simulate exit {rc}")
        need(out["trace"] == trace, "simulated trace differs from the oracle")
        need(out["final"] == trace[-1], "final marking differs from the oracle")

    return check


def flows_check(net, ring):
    def check(rc, out):
        need(rc == 0, f"flows exit {rc}")
        cols = [tuple(x.split(".")) for x in out["axis"]]
        need(sorted(cols) == sorted(net.binding_axis()), "flow axis differs")
        m = oracles.matrix(net, net.token_axis(), cols)
        basis = [[Fraction(x) for x in v] for v in out["basis"]]
        rank = oracles.rank_q(m)
        need(out["ring"] == ring, f"ring {out['ring']}")
        need(out["rank"] == len(basis) == len(cols) - rank, "flow rank != cols - rank(M)")
        need(all(not any(oracles.apply(m, v)) for v in basis), "basis vector outside ker M")
        need(not basis or oracles.rank_q(basis) == len(basis), "basis vectors dependent")
        if ring == "Z" and basis:
            need(all(x.denominator == 1 for v in basis for x in v), "Z basis not integral")
            ints = [[int(x) for x in v] for v in basis]
            for p in (2, 3, 5, 7):
                need(oracles.rank_mod(ints, p) == len(ints), f"Z basis not saturated mod {p}")

    return check


def classes_check(net, ring):
    def check(rc, out):
        need(rc == 0, f"classes exit {rc}")
        rows = [tuple(x.split(".")) for x in out["axis"]]
        need(sorted(rows) == sorted(net.token_axis()), "class axis differs")
        m = oracles.matrix(net, rows, net.binding_axis())
        rank = oracles.rank_q(m)
        factors = out["invariant_factors"]
        need(out["ring"] == ring, f"ring {out['ring']}")
        need(out["rank"] == len(rows) - rank, "class rank != rows - rank(M)")
        if ring == "Z":
            need(len(factors) == rank, "invariant factor count != rank(M)")
            for p in (2, 3, 5, 7):
                prime_to_p = sum(1 for f in factors if f % p)
                need(prime_to_p == oracles.rank_mod(m, p), f"factors vs rank(M mod {p})")
            need(out["torsion"] == [f for f in factors if f > 1], "torsion != factors > 1")
        else:
            need(factors == [] and out["torsion"] == [], "torsion over Q")
        # each unit minus its class representative lies in the column space of M
        diffs = []
        for i, lab in enumerate(out["axis"]):
            rep = [Fraction(x) for x in out["classes"][lab]]
            diffs.append([(1 if j == i else 0) - r for j, r in enumerate(rep)])
        widened = [row + [d[k] for d in diffs] for k, row in enumerate(m)]
        need(oracles.rank_q(widened) == rank, "a unit is not equivalent to its class")

    return check


def hilbert_check(net):
    def check(rc, out):
        need(rc == 0 and out["ring"] == "N", f"flows --ring n exit {rc}")
        cols = [tuple(x.split(".")) for x in out["axis"]]
        m = oracles.matrix(net, net.token_axis(), cols)
        gens = sorted(tuple(g) for g in out["generators"])
        need(all(x >= 0 for g in gens for x in g), "negative Hilbert generator")
        need(all(not any(oracles.apply(m, g)) for g in gens), "generator outside ker M")
        bound = oracles.hilbert_bound(m)
        need(all(x <= bound for g in gens for x in g), f"generator entry above {bound}")
        need(gens == oracles.hilbert_in_box(m, len(cols), bound), "Hilbert basis differs")

    return check


def morphism_check(all_yes=False):
    def check(rc, out):
        need(rc == 0 and out["status"] == "ok", f"check-morphism {rc} {out.get('status')}")
        bad = [c["clause"] for c in out["clauses"] if c["status"] != "ok"]
        need(not bad and len(out["clauses"]) == 7, f"clauses not ok: {bad}")
        if all_yes:
            cls = out["classification"]
            need(len(cls) == 6 and all(v is True for v in cls.values()), f"identity {cls}")

    return check


def morphism_data(text):
    """Node map, flow data (a set of basis/image pairs) and mark data of a
    ``.pmor`` text, whatever the names of its basis vectors."""
    nodes, bases, images, marks = {}, {}, {}, {}
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head == "node":
            x, _, y = rest.partition(" -> ")
            nodes[x] = y
        elif head in ("flowbasis", "flowmap"):
            a, _, body = rest.partition(": ")
            name, _, combo = body.partition(" = " if head == "flowbasis" else " -> ")
            (bases if head == "flowbasis" else images)[(a, name)] = combo
        elif head == "markmap":
            u, _, body = rest.partition(": ")
            lab, _, combo = body.partition(" -> ")
            marks[(u, lab)] = combo
    flows = {(a, combo, images.get((a, name))) for (a, name), combo in bases.items()}
    return nodes, flows, marks


def compose_check(first_doc):
    def check(rc, out):
        need(rc == 0 and out["status"] == "ok", f"compose {rc} {out.get('status')}")
        need(morphism_data(out["document"]) == morphism_data(first_doc), "compose(f, id) != f")

    return check


def product_reach_check(first, second, depth):
    def check(rc, out):
        n1, n2 = len(oracles.bfs(first, depth)[1]), len(oracles.bfs(second, depth)[1])
        need(rc == 0 and out["status"] == "ok", f"check-product-reach {rc} {out.get('detail')}")
        got = (out["first_count"], out["second_count"], out["product_count"])
        need(got == (n1, n2, n1 * n2), f"counts {got} != {(n1, n2, n1 * n2)}")

    return check


def product_check(a, b):
    def check(rc, out):
        from petrisheaf.formats import parse_net, serialize_net

        need(rc == 0, f"product exit {rc}")
        need(out["places"] == len(a.places) * len(b.places), "product place count")
        need(out["transitions"] == len(a.transitions) * len(b.transitions), "transition count")
        # a document the tool wrote re-parses and re-serializes to its own bytes
        text = out["document"]
        body = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
        doc = parse_net(text)
        need(serialize_net(doc.to_net(), marking=doc.marking) == body, "product does not re-parse")
        # product place (p, q) carries p's tokens on side 1 and q's on side 2
        total = len(b.places) * sum(a.marking.values()) + len(a.places) * sum(b.marking.values())
        need(sum(map(Fraction, out["marking"].values())) == total, "product marking total")

    return check


def behaviour_check(tokens):
    def check(rc, out):
        need(rc == 0 and out["status"] == "ok", f"map-behaviour {rc} {out.get('detail')}")
        need(sum(out["source_post"].values()) == tokens, "source tokens not conserved")
        need(out["target_post"] == {"cell.job": tokens}, f"target post {out['target_post']}")

    return check


def winskel_check(rc, out):
    need(rc == 0, f"winskel exit {rc}")
    need(out["domain_closed"] and out["image_open"], "domain not closed or image not open")
    need(out["projection"]["status"] == "ok", "projection does not verify")
    need(out["fold"]["status"] == "ok", "fold does not verify")


# ---------------------------------------------------------------------------
# fixed operations
#
# Probes: fixed tiny operations, one per command that a workload's own
# operations lack and that the workload needs for a rate metric or to reach
# a layer.  Each takes a writer and returns one Op.


def probe_ring(write, name="probe", n=3, k=2):
    net = docs.ring(name, n, [k])
    return net, write(f"{name}.pnet", net.text())


def probe_squash(write):
    """The squash of the 3-place probe ring onto the loop, and the loop's
    identity: (squash text, squash path, identity path)."""
    probe_ring(write)
    write("loop.pnet", docs.loop().text())
    squash = docs.squash_doc(3, "probe.pnet", "loop.pnet")
    f_id = write("idloop.pmor", docs.identity_doc(docs.loop(), "loop.pnet"))
    return squash, write("squash.pmor", squash), f_id


def axioms_probe(write):
    net, f = probe_ring(write, "axprobe", 5)
    return Op(["axioms", f], axioms_check(net), probe=True)


def reach_probe(write):
    # 126 states: large enough that the rate it gives is not the call's
    # fixed cost, on workloads where it is the only ``reach``
    net, f = probe_ring(write, "reachprobe", 6, 4)
    return Op(["reach", f], reach_check(net), probe=True)


def classes_probe(write):
    net, f = probe_ring(write)
    return Op(["classes", f], classes_check(net, "Z"), probe=True)


def hilbert_probe(write):
    net = docs.dense("hprobe", 2, 4, random.Random("hilbert probe"), weight=2)
    return Op(
        ["flows", write("hprobe.pnet", net.text()), "--ring", "n"], hilbert_check(net), probe=True
    )


def morphism_probe(write):
    _, f_sq, _ = probe_squash(write)
    return Op(["check-morphism", f_sq], morphism_check(), probe=True)


def compose_probe(write):
    squash, f_sq, f_id = probe_squash(write)
    return Op(["compose", f_sq, f_id], compose_check(squash), probe=True)


def product_reach_probe(write):
    a, f_a = probe_ring(write, "pra", 1, 1)
    b, f_b = probe_ring(write, "prb", 2, 1)
    return Op(
        ["check-product-reach", f_a, f_b, "--depth", 2], product_reach_check(a, b, 2), probe=True
    )


def exact_radius_ops(write):
    """``reach --depth R`` at the exact radius R of two fixed rings.  Every
    marking is found, yet ``behaviour.reachable`` reports a cut because some
    event is enabled at depth R; the oracle sees no unseen successor."""
    ops = []
    for n, k in ((2, 2), (4, 3)):
        net = docs.ring(f"exact{n}", n, [k])
        radius = oracles.bfs(net)[2]
        ops.append(
            Op(
                ["reach", write(f"exact{n}.pnet", net.text()), "--depth", radius],
                reach_check(net, radius, known_truncation=True),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# seeded groups


# (places, transitions) of the eight nets of a sweep round: every size from
# 2 to 5 twice on each side, so that a round's cost does not hang on how
# many large nets the seed drew; the seed draws the arcs and the marking
SWEEP_SIZES = ((2, 5), (3, 3), (3, 4), (4, 2), (4, 4), (5, 3), (5, 5), (2, 3))


def sweep_group(rng, write):
    nets = [
        docs.small_strict(f"s{i}", rng, i % 4 == 0, *size) for i, size in enumerate(SWEEP_SIZES)
    ]
    paths = [write(f"s{i}.pnet", net.text()) for i, net in enumerate(nets)]
    seed = rng.randrange(10**6)
    # the random sweep comes first: set-up warms ``axioms`` on the last
    # operation of the round, which is then the 2x3 net, not the sweep,
    # whose cost ranges over an order of magnitude with its seed
    return [
        Op(["axioms", paths[0], "--random", 3, "--seed", seed], axioms_check(nets[0], 3, seed))
    ] + [Op(["axioms", f], axioms_check(net)) for f, net in zip(paths, nets)]


def algebra_group(rng, write):
    ops = []
    for rows, cols in ((12, 16), (15, 19), (18, 23)):
        net = docs.dense(f"m{rows}", rows, cols, rng)
        f = write(f"m{rows}.pnet", net.text())
        ops += [
            Op(["flows", f], flows_check(net, "Z")),
            Op(["flows", f, "--ring", "q"], flows_check(net, "Q")),
            Op(["classes", f], classes_check(net, "Z")),
            Op(["classes", f, "--ring", "q"], classes_check(net, "Q")),
        ]
    # three, so that the median call falls inside the cluster of the 18x23
    # flows and classes over Z, not at its edge with the 12x16 ones over Q
    for i in range(3):
        net = docs.dense(f"h{i}", 2, 4, rng, weight=2)
        ops.append(Op(["flows", write(f"h{i}.pnet", net.text()), "--ring", "n"], hilbert_check(net)))
    return ops


CUT_STATES = 200


def reach_group(rng, write):
    # two machines of the same shape head the cost of a round, so the 90th
    # percentile falls inside their cluster of call times, not at its edge
    machines = [docs.state_machine(f"sm{i}", 10, 4, 3, rng) for i in range(2)]
    coloured = docs.scatter(docs.ring("cr", 5, [3, 2]), rng)
    cut = docs.state_machine("cut", 8, 4, 2, rng)
    # cut at the depth within which the number of markings is closest to
    # CUT_STATES of the 330: half the radius held from 141 to 272 of them
    # with the seed, and this call is the median call of a round
    dist = oracles.bfs(cut)[1].values()
    depth = min(range(max(dist)), key=lambda d: abs(sum(x <= d for x in dist) - CUT_STATES))
    walk, _ = oracles.fireable_walk(machines[0], 25, rng)
    paths = [write(f"sm{i}.pnet", m.text()) for i, m in enumerate(machines)]
    return [Op(["reach", f], reach_check(m)) for f, m in zip(paths, machines)] + [
        Op(["reach", write("cr.pnet", coloured.text())], reach_check(coloured)),
        Op(["reach", write("cut.pnet", cut.text()), "--depth", depth], reach_check(cut, depth)),
        Op(
            ["simulate", paths[0], "--sequence", ",".join(t for t, _ in walk)],
            simulate_check(machines[0], walk),
        ),
    ]


def maps_group(rng, write):
    net = docs.small_strict("n", rng, False, rng.randint(2, 5), rng.randint(2, 5))
    f_net = write("n.pnet", net.text())
    f_id = write("idn.pmor", docs.identity_doc(net, "n.pnet"))
    n, k = rng.choice((3, 4, 5)), rng.choice((2, 3))
    ring = docs.scatter(docs.ring("r", n, [k]), rng)
    write("r.pnet", ring.text())
    write("loop.pnet", docs.loop().text())
    squash = docs.squash_doc(n, "r.pnet", "loop.pnet")
    f_sq = write("squash.pmor", squash)
    f_idl = write("idloop.pmor", docs.identity_doc(docs.loop(), "loop.pnet"))
    walk, _ = oracles.fireable_walk(ring, 6, rng)
    m, w = rng.choice((2, 3, 4)), rng.choice((1, 2))
    src, tgt = docs.winskel_pair(m, w)
    write("wsrc.pnet", src.text())
    write("wtgt.pnet", tgt.text())
    f_win = write("w.pwin", docs.winskel_doc(m, "wsrc.pnet", "wtgt.pnet"))
    # the product pair is fixed: the cost of check-product-reach ranges from
    # 0.17 to 0.36 s with the start markings, which would put the 90th
    # percentile wherever the seed's mix of markings does.  Two calls of it
    # head the cost of a round, so that percentile falls inside their cluster
    a, b = docs.ring("pa", 3, [2]), docs.ring("pb", 4, [2])
    f_a, f_b = write("pa.pnet", a.text()), write("pb.pnet", b.text())
    return [
        Op(["check-morphism", f_id], morphism_check(all_yes=True)),
        Op(["check-morphism", f_sq], morphism_check()),
        Op(["map-behaviour", f_sq, "--sequence", ",".join(t for t, _ in walk)], behaviour_check(k)),
        Op(["compose", f_sq, f_idl], compose_check(squash)),
        Op(["winskel", f_win], winskel_check),
        Op(["product", f_a, f_b, "--marked"], product_check(a, b)),
        *[Op(["check-product-reach", f_a, f_b, "--depth", 8], product_reach_check(a, b, 8))] * 2,
    ]


GROUPS = {"sweep": sweep_group, "algebra": algebra_group, "reach": reach_group, "maps": maps_group}
_UNMAPPED = (morphism_probe, compose_probe, product_reach_probe)
PROBES = {
    "sweep": (reach_probe, classes_probe, hilbert_probe, *_UNMAPPED),
    "algebra": (axioms_probe, reach_probe, *_UNMAPPED),
    "reach": (axioms_probe, classes_probe, hilbert_probe, *_UNMAPPED),
    "maps": (axioms_probe, reach_probe, classes_probe),
}


def rounds(name, seed, workdir):
    """Endless rounds of a workload, each a list of Ops.  A round's documents
    are written when the round is drawn, over those of the round before."""
    fixed_write = writer(Path(workdir) / "fixed")
    fixed = [probe(fixed_write) for probe in PROBES[name]]
    if name == "reach":
        fixed += exact_radius_ops(fixed_write)
    write = writer(Path(workdir) / "group")
    for r in itertools.count():
        yield GROUPS[name](random.Random(f"{name}:{seed}:{r}"), write) + fixed

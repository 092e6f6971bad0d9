"""Exact linear algebra: frozen examples plus defining-property checks.

The expected values below were derived by hand (gcds of minors for the
Smith form, explicit kernel combinations) so the tests are independent of
the implementation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrisheaf import intlinalg as la


def is_column_hnf(h, rows, cols):
    """Defining shape of the column Hermite form, restated independently."""
    pivots = []
    seen_zero = False
    for j in range(cols):
        col = [h[i][j] for i in range(rows)]
        nz = [i for i in range(rows) if col[i]]
        if not nz:
            seen_zero = True
            continue
        if seen_zero:
            return False  # zero columns must come last
        p = nz[0]
        if pivots and p <= pivots[-1][0]:
            return False  # pivot rows strictly increase
        if col[p] <= 0:
            return False
        for prev_row, prev_col in pivots:
            # entries of earlier columns in this pivot row already reduced
            if not (0 <= h[p][prev_col] < col[p]):
                return False
        pivots.append((p, j))
    return True


matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def det_fraction(m):
    # plain Gaussian elimination over Q, as an independent determinant oracle
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    out = Fraction(sign)
    for k in range(n):
        out *= a[k][k]
    assert out.denominator == 1
    return int(out)


# ---------------------------------------------------------------------------
# Hermite form


@given(matrices)
def test_hnf_properties(m):
    rows, cols = len(m), len(m[0])
    h, u = la.hnf(m)
    assert la.mat_equal(h, la.matmul(m, u))
    assert abs(det_fraction(u)) == 1
    assert is_column_hnf(h, rows, cols)


def test_hnf_idempotent_on_canonical():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    h, _ = la.hnf(m)
    h2, _ = la.hnf(h)
    assert la.mat_equal(h, h2)


def test_hnf_zero_rows():
    h, u = la.hnf([], cols=3)
    assert h == []
    assert la.mat_equal(u, la.identity(3))


# ---------------------------------------------------------------------------
# kernels and lattices


def test_kernel_two_row_fixture():
    # rows index two places, columns four transitions; kernel spanned by
    # the two circuits (1,0,1,0) and (1,1,0,1), worked out by hand
    m = [[-1, 1, 1, 0], [-1, 0, 1, 1]]
    ker = la.kernel_lattice(m)
    assert ker.rank == 2
    assert ker == la.Lattice(4, [(1, 0, 1, 0), (1, 1, 0, 1)])
    assert [1, 0, 1, 0] in ker
    assert [2, 1, 1, 1] in ker  # sum of the two
    assert [1, 0, 0, 0] not in ker


@given(matrices)
def test_kernel_annihilates_and_is_complete(m):
    rows, cols = len(m), len(m[0])
    ker = la.kernel_lattice(m)
    for b in ker.basis:
        assert la.is_zero_vector(la.matvec(m, list(b)))
    assert ker.rank == cols - la.rat_rank(m)


@given(matrices, st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_lattice_membership_and_coordinates(m, coeffs):
    ker = la.kernel_lattice(m)
    if not ker.basis:
        return
    coeffs = (coeffs * len(ker.basis))[: len(ker.basis)]
    v = [0] * ker.ambient_dim
    for c, b in zip(coeffs, ker.basis):
        v = la.vec_add(v, la.vec_scale(c, list(b)))
    assert v in ker
    got = ker.coordinates(v)
    assert got is not None
    rebuilt = [0] * ker.ambient_dim
    for c, b in zip(got, ker.basis):
        rebuilt = la.vec_add(rebuilt, la.vec_scale(c, list(b)))
    assert rebuilt == v


def test_lattice_reduce_is_canonical():
    lat = la.Lattice(2, [(1, -1)])
    assert lat.reduce((1, 0)) == lat.reduce((0, 1))
    assert lat.reduce((5, -2)) == lat.reduce((0, 3))
    assert lat.reduce(lat.reduce((7, 4))) == lat.reduce((7, 4))


def test_preimage_lattice():
    # x mapsto (x1+x2) mod lattice 3Z: preimage of 3Z under the sum map
    m = [[1, 1]]
    lat = la.Lattice(1, [(3,)])
    pre = la.preimage_lattice(m, lat)
    assert [1, 2] in pre
    assert [3, 0] in pre
    assert [1, 1] not in pre
    assert pre.rank == 2


def test_solve_columns():
    m = [[2, 0], [0, 3]]
    assert la.solve_columns(m, [4, 9]) == [2, 3]
    assert la.solve_columns(m, [1, 0]) is None
    m2 = [[1, 1], [0, 2]]
    x = la.solve_columns(m2, [3, 4])
    assert la.matvec(m2, x) == [3, 4]


# ---------------------------------------------------------------------------
# Smith form and quotients


def test_snf_classic_example():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    s, u, v = la.snf(m)
    assert la.mat_equal(s, la.matmul(la.matmul(u, m), v))
    assert [s[i][i] for i in range(3)] == [2, 6, 12]
    assert abs(det_fraction(u)) == 1
    assert abs(det_fraction(v)) == 1


@given(matrices)
@settings(max_examples=60)
def test_snf_properties(m):
    rows, cols = len(m), len(m[0])
    s, u, v = la.snf(m)
    assert la.mat_equal(s, la.matmul(la.matmul(u, m), v))
    assert abs(det_fraction(u)) == 1
    assert abs(det_fraction(v)) == 1
    diag = [s[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a:
            assert b % a == 0
        else:
            assert b == 0


def test_quotient_module():
    q = la.QuotientModule(2, [(1, -1)])
    assert q.rank == 1
    assert q.invariant_factors == (1,)
    assert q.torsion == ()
    assert q.class_equal((1, 0), (0, 1))
    assert not q.class_equal((1, 0), (0, 2))
    torsion = la.QuotientModule(1, [(4,)])
    assert torsion.rank == 0
    assert torsion.torsion == (4,)
    assert torsion.class_equal((5,), (1,))


# ---------------------------------------------------------------------------
# Hilbert bases


def test_hilbert_basis_known_cone():
    # x + y = 2z over N: generators (0,2,1), (1,1,1), (2,0,1)
    gens = la.hilbert_basis([[1, 1, -2]])
    assert gens == [(0, 2, 1), (1, 1, 1), (2, 0, 1)]


def test_hilbert_basis_two_row_fixture():
    m = [[-1, 1, 1, 0], [-1, 0, 1, 1]]
    gens = la.hilbert_basis(m)
    assert gens == [(1, 0, 1, 0), (1, 1, 0, 1)]


def test_hilbert_guard_raises():
    with pytest.raises(la.ResourceLimitExceeded):
        la.hilbert_basis([[1, 1, -2]], guard=2)


def test_hilbert_basis_exhaustive_cross_check():
    # every small non-negative kernel point must be an N-combination of the
    # generators, and no generator may be one of the others
    from itertools import product

    m = [[1, 2, -2, -1]]
    gens = la.hilbert_basis(m)
    for x in product(range(5), repeat=4):
        if any(x) and la.is_zero_vector(la.matvec(m, list(x))):
            assert _is_nonneg_combination(x, gens), x
    for i, g in enumerate(gens):
        rest = gens[:i] + gens[i + 1 :]
        assert not _is_nonneg_combination(g, rest), g


def _is_nonneg_combination(x, gens):
    x = tuple(x)
    if not any(x):
        return True
    stack = [x]
    seen = {x}
    while stack:
        cur = stack.pop()
        if not any(cur):
            return True
        for g in gens:
            if all(a >= b for a, b in zip(cur, g)):
                nxt = tuple(a - b for a, b in zip(cur, g))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return False


# ---------------------------------------------------------------------------
# rational layer


def test_rref_and_rank():
    r, pivots = la.rref([[1, 2], [2, 4]])
    assert pivots == [0]
    assert r[0] == [Fraction(1), Fraction(2)]
    assert la.rat_rank([[1, 2], [2, 4]]) == 1


@given(matrices)
def test_rat_kernel(m):
    rows, cols = len(m), len(m[0])
    basis = la.rat_kernel_basis(m)
    assert len(basis) == cols - la.rat_rank(m)
    for v in basis:
        assert all(x == 0 for x in la.matvec(m, v))


def test_rat_solve():
    x = la.rat_solve_columns([[2, 0], [0, 4]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 4)]
    assert la.rat_solve_columns([[1, 1], [1, 1]], [0, 1]) is None


def test_subspace():
    s = la.Subspace(3, [(1, 0, 1), (0, 1, 1)])
    assert s.rank == 2
    assert [1, 1, 2] in s
    assert [1, 1, 1] not in s
    assert s == la.Subspace(3, [(1, 1, 2), (1, -1, 0)])


def test_det_bareiss_matches_fraction_oracle():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert la.det(m) == det_fraction(m) == -144


@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=4, max_size=4))
def test_det_random(m):
    assert la.det(m) == det_fraction(m)


# ---------------------------------------------------------------------------
# signed representatives


def test_nonneg_representative_status():
    # (-1, 1) + k*(1, 1): never non-negative in both slots with k chosen
    # freely?  (-1+k, 1+k) >= 0 iff k >= 1, so "yes".
    assert la.nonneg_representative_status([(1, 1)], (-1, 1)) == "yes"
    # (-1, -1) + k*(1, -1): k >= 1 breaks slot 2, k <= -1 breaks slot 1
    assert la.nonneg_representative_status([(1, -1)], (-1, -1)) == "no"
    assert la.nonneg_representative_status([], (-1, 0)) == "no"
    assert la.nonneg_representative_status([], (0, 2)) == "yes"


# ---------------------------------------------------------------------------
# the two coefficient rings against each other


@given(matrices)
@settings(max_examples=80)
def test_z_and_q_kernels_and_quotients_agree(m):
    rows, cols = len(m), len(m[0])
    z_kernel, q_kernel = la.Z.kernel(m, cols), la.Q.kernel(m, cols)
    assert z_kernel.rank == q_kernel.rank == cols - la.rat_rank(m)
    assert all(list(v) in q_kernel for v in la.Z.kernel_basis(m, cols))
    relations = [[m[i][j] for i in range(rows)] for j in range(cols)]
    assert la.Z.quotient(rows, relations).rank == la.Q.quotient(rows, relations).rank


small_preimage_cases = st.integers(1, 3).flatmap(
    lambda r: st.integers(1, 3).flatmap(
        lambda c: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=r, max_size=r),
            st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), max_size=2),
        )
    )
)


@pytest.mark.parametrize("ring", [la.Z, la.Q], ids=["Z", "Q"])
@given(case=small_preimage_cases)
@settings(max_examples=40)
def test_preimage_membership_by_brute_force(ring, case):
    from itertools import product

    m, generators = case
    rows, cols = len(m), len(m[0])
    target = ring.module(rows, generators)
    pre = ring.preimage(m, target, cols)
    for x in product(range(-2, 3), repeat=cols):
        assert (list(x) in pre) == (la.matvec(m, x) in target)

"""Exact linear algebra: frozen examples plus defining-property checks.

The expected values below were derived by hand (gcds of minors for the
Smith form, explicit kernel combinations) so the tests are independent of
the implementation.  The plain helpers below (vector sums, matrix equality,
a Bareiss determinant, rank and the rref over ``Fraction``, the
back-substitution solves) are the slow reference paths that the library's
fast paths are checked against; other test modules import them.
"""

import math
import random
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


def integer_matrices(size, bound):
    """Matrices of 1 to ``size`` rows and columns, entries within ``bound``."""
    return st.integers(1, size).flatmap(
        lambda r: st.integers(1, size).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


matrices = integer_matrices(5, 6)


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_scale(k, a):
    return [k * x for x in a]


def mat_equal(a, b):
    return [list(r) for r in a] == [list(r) for r in b]


def det(m):
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reference_rref(m, cols=None):
    """Reduced row echelon form by Gauss-Jordan elimination over ``Fraction``."""
    rows, cols = la.shape(m, cols) if (m or cols is not None) else (0, 0)
    r = [[Fraction(x) for x in row] for row in m]
    pivots = []
    lead = 0
    for i in range(rows):
        while lead < cols:
            piv = next((k for k in range(i, rows) if r[k][lead] != 0), None)
            if piv is None:
                lead += 1
                continue
            r[i], r[piv] = r[piv], r[i]
            inv = Fraction(1) / r[i][lead]
            r[i] = [x * inv for x in r[i]]
            for k in range(rows):
                if k != i and r[k][lead] != 0:
                    f = r[k][lead]
                    r[k] = [a - f * b for a, b in zip(r[k], r[i])]
            pivots.append(lead)
            lead += 1
            break
    return r, pivots


def rat_rank(m, cols=None):
    if not m:
        return 0
    return len(reference_rref(m, cols)[1])


def preimage_lattice(m, lat, cols=None):
    """``{x in Z^cols : m @ x in lat}`` as a Lattice."""
    return la.Z.preimage(m, lat, cols)


def reference_solve_columns(m, v, cols=None):
    """Integer solve by back-substitution through a fresh column HNF."""
    rows, cols = la.shape(m, cols) if (m or cols is not None) else (0, 0)
    if rows != len(v):
        raise ValueError("dimension mismatch")
    h, u = la.hnf(m, cols)
    rem = list(v)
    y = [0] * cols
    for j in range(cols):
        p = next((i for i in range(rows) if h[i][j]), None)
        if p is None:
            break
        q, r = divmod(rem[p], h[p][j])
        if r:
            return None
        if q:
            for i in range(rows):
                rem[i] -= q * h[i][j]
        y[j] = q
    if not la.is_zero_vector(rem):
        return None
    return [sum(u[i][j] * y[j] for j in range(cols)) for i in range(cols)]


def reference_rat_solve_columns(m, v, cols=None):
    """Rational solve read off the rref of ``[m | v]``; ``v`` must fit ``m``."""
    rows, cols = la.shape(m, cols) if (m or cols is not None) else (0, 0)
    aug = [[Fraction(m[i][j]) for j in range(cols)] + [Fraction(v[i])] for i in range(rows)]
    r, pivots = reference_rref(aug, cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row_idx, p in enumerate(pivots):
        x[p] = r[row_idx][cols]
    return x


REFERENCE_SOLVES = {"Z": reference_solve_columns, "Q": reference_rat_solve_columns}


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
    assert mat_equal(h, la.matmul(m, u))
    assert abs(det_fraction(u)) == 1
    assert is_column_hnf(h, rows, cols)


def test_hnf_idempotent_on_canonical():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    h, _ = la.hnf(m)
    h2, _ = la.hnf(h)
    assert mat_equal(h, h2)


def test_hnf_zero_rows():
    h, u = la.hnf([], cols=3)
    assert h == []
    assert mat_equal(u, la.identity(3))


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
    assert ker.rank == cols - rat_rank(m)


@given(matrices, st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_lattice_membership_and_coordinates(m, coeffs):
    ker = la.kernel_lattice(m)
    if not ker.basis:
        return
    coeffs = (coeffs * len(ker.basis))[: len(ker.basis)]
    v = [0] * ker.ambient_dim
    for c, b in zip(coeffs, ker.basis):
        v = vec_add(v, vec_scale(c, list(b)))
    assert v in ker
    got = ker.coordinates(v)
    assert got is not None
    rebuilt = [0] * ker.ambient_dim
    for c, b in zip(got, ker.basis):
        rebuilt = vec_add(rebuilt, vec_scale(c, list(b)))
    assert rebuilt == v


@given(matrices)
def test_a_lattice_read_off_an_hnf_equals_the_lattice_of_the_columns(m):
    rows, cols = len(m), len(m[0])
    read = la.Lattice._of_hnf(rows, la.transpose(la.hnf(m)[0], cols))
    built = la.Lattice(rows, la.transpose(m, cols))
    assert read == built
    assert read.pivots == built.pivots
    assert la.kernel_lattice([], cols) == la.Lattice(cols, la.identity(cols))


def test_lattice_reduce_is_canonical():
    lat = la.Lattice(2, [(1, -1)])
    assert lat.reduce((1, 0)) == lat.reduce((0, 1))
    assert lat.reduce((5, -2)) == lat.reduce((0, 3))
    assert lat.reduce(lat.reduce((7, 4))) == lat.reduce((7, 4))


def test_preimage_lattice():
    # x mapsto (x1+x2) mod lattice 3Z: preimage of 3Z under the sum map
    m = [[1, 1]]
    lat = la.Lattice(1, [(3,)])
    pre = preimage_lattice(m, lat)
    assert [1, 2] in pre
    assert [3, 0] in pre
    assert [1, 1] not in pre
    assert pre.rank == 2


def test_solve_columns():
    m = [[2, 0], [0, 3]]
    assert la.Z.solver(m)([4, 9]) == [2, 3]
    assert la.Z.solver(m)([1, 0]) is None
    m2 = [[1, 1], [0, 2]]
    x = la.Z.solver(m2)([3, 4])
    assert la.matvec(m2, x) == [3, 4]


# ---------------------------------------------------------------------------
# Smith form and quotients


def test_snf_classic_example():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    s, u, v = la.snf(m)
    assert mat_equal(s, la.matmul(la.matmul(u, m), v))
    assert [s[i][i] for i in range(3)] == [2, 6, 12]
    assert abs(det_fraction(u)) == 1
    assert abs(det_fraction(v)) == 1


@given(matrices)
@settings(max_examples=60)
def test_snf_properties(m):
    rows, cols = len(m), len(m[0])
    s, u, v = la.snf(m)
    assert mat_equal(s, la.matmul(la.matmul(u, m), v))
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


def smith_form(m, cols):
    """``snf(m)``, checked: ``s = u @ m @ v``, unimodular transforms, ``s``
    diagonal with a divisibility chain of non-negative entries."""
    rows = len(m)
    s, u, v = la.snf(m, cols)
    assert (len(s), len(u), len(v)) == (rows, rows, cols)
    assert mat_equal(s, la.matmul(la.matmul(u, m), v))
    assert abs(det_fraction(u)) == 1
    assert abs(det_fraction(v)) == 1
    assert all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = [s[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        assert b % a == 0 if a else b == 0
    return s


@pytest.mark.parametrize(
    "m, cols, diagonal",
    [
        ([[2, 0], [0, 3]], 2, [1, 6]),
        ([[4, 0], [0, 6]], 2, [2, 12]),
        ([[6, 4], [4, 6]], 2, [2, 10]),
        ([[-3]], 1, [3]),
        ([[0, 0], [0, 0]], 2, [0, 0]),
        ([], 3, []),
        ([[], []], 0, []),
    ],
    ids=["2-3", "4-6", "6-4-4-6", "negative", "zero", "no-rows", "no-columns"],
)
def test_snf_edge_cases(m, cols, diagonal):
    # diag(2, 3) needs the divisibility step: its Smith form is diag(1, 6)
    s = smith_form(m, cols)
    assert s == [[diagonal[i] if i == j else 0 for j in range(cols)] for i in range(len(m))]


@given(integer_matrices(9, 1000))
@settings(max_examples=40, deadline=None)
def test_snf_properties_on_large_coefficients(m):
    smith_form(m, len(m[0]))


def test_quotient_module():
    q = la.Lattice(2, [(1, -1)])
    assert q.ambient_dim - q.rank == 1
    assert la.invariant_factors(q) == (1,)
    assert q.reduce((1, 0)) == q.reduce((0, 1))
    assert q.reduce((1, 0)) != q.reduce((0, 2))
    torsion = la.Lattice(1, [(4,)])
    assert torsion.ambient_dim - torsion.rank == 0
    assert la.invariant_factors(torsion) == (4,)
    assert torsion.reduce((5,)) == torsion.reduce((1,))


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
# the simplex and the cone test, against the Hilbert enumeration


def test_minimize_known_programs():
    # min -x - y with x + 2y = 4, 3x + y = 6: the one point (8/5, 6/5)
    assert la.minimize([-1, -1, 0], [[1, 2, 0], [3, 1, 0]], [4, 6]) == (
        Fraction(-14, 5),
        [Fraction(8, 5), Fraction(6, 5), 0],
    )
    # min x over x + y = 1: the vertex (0, 1)
    assert la.minimize([1, 0], [[1, 1]], [1]) == (0, [0, 1])
    assert la.minimize([1, 1], [[1, 1]], [-1]) is None
    with pytest.raises(ValueError):
        la.minimize([-1, 0], [[1, -1]], [0])


def test_minimize_drops_the_redundant_rows_phase_1_leaves():
    # one equation three times: two artificials end phase 1 basic at zero on
    # rows with nothing left in them, and phase 2 runs without those rows
    row = [1, -1, 2]
    a = [row, [-x for x in row], [2 * x for x in row], [1, 1, 1]]
    assert la.minimize([1, -1, 0], a, [0, 0, 0, 1]) == (
        Fraction(-2, 3),
        [0, Fraction(2, 3), Fraction(1, 3)],
    )


def is_extreme_ray(m, g):
    """``g`` spans an extreme ray of ``{x >= 0, m @ x = 0}``: the columns on
    its support have a one-dimensional kernel."""
    support = [j for j, x in enumerate(g) if x]
    sub = [[row[j] for j in support] for row in m]
    return la.Q.kernel(sub, len(support)).rank == 1


def random_fibre(rng, rows, cols):
    """A ``rows x cols`` matrix with entries in -2..2 and functionals on its
    columns: random ones, or ones that are non-negative on the kernel cone
    (``y @ m + p`` with ``p >= 0``) but may have negative entries."""
    m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
    if m and rng.random() < 0.3:
        m.append([a + b for a, b in zip(m[0], m[-1])])  # rank deficient
    count = rng.randint(1, 3)
    if m and rng.random() < 0.5:
        ys = [[rng.randint(-2, 2) for _ in m] for _ in range(count)]
        functionals = [
            [sum(yi * row[j] for yi, row in zip(y, m)) + rng.randint(0, 1) for j in range(cols)]
            for y in ys
        ]
    else:
        functionals = [[rng.randint(-2, 3) for _ in range(cols)] for _ in range(count)]
    return m, functionals


def negative_on(functionals, g):
    return any(sum(a * b for a, b in zip(f, g)) < 0 for f in functionals)


def test_cone_witness_equals_the_hilbert_enumeration():
    rng = random.Random("cone witness")
    compared = {True: 0, False: 0}
    while sum(compared.values()) < 240:
        cols = rng.randint(1, 6)
        m, functionals = random_fibre(rng, rng.randint(0, 3), cols)
        try:
            basis = la.hilbert_basis(m, cols, guard=2_000)
        except la.ResourceLimitExceeded:
            continue
        g = la.cone_witness(m, functionals, cols)
        want = any(negative_on(functionals, h) for h in basis)
        assert (g is not None) == want, (m, functionals)
        if g is not None:
            assert g in basis and negative_on(functionals, g)
        compared[want] += 1
    assert min(compared.values()) >= 60


@pytest.mark.parametrize("rows, cols", [(3, 8), (3, 10), (4, 12)])
def test_cone_witness_decides_where_the_hilbert_guard_trips(rows, cols):
    # the enumeration exceeds its default guard of 10,000 expansions on 8,
    # 17 and 20 of these 20 matrices; the cone test decides each one
    for seed in range(20):
        rng = random.Random(seed)
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        functionals = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(2)]
        g = la.cone_witness(m, functionals, cols)
        if g is not None:
            assert min(g) >= 0 and math.gcd(*g) == 1
            assert la.is_zero_vector(la.matvec(m, list(g)))
            assert negative_on(functionals, g) and is_extreme_ray(m, g)
        # y @ m + 1 is positive on every nonzero point of the cone
        y = [rng.randint(-2, 2) for _ in range(rows)]
        positive = [sum(yi * row[j] for yi, row in zip(y, m)) + 1 for j in range(cols)]
        assert la.cone_witness(m, [positive], cols) is None


# ---------------------------------------------------------------------------
# rational layer


def test_rref_and_rank():
    r, pivots = la.rref([[1, 2], [2, 4]])
    assert pivots == [0]
    assert r[0] == [Fraction(1), Fraction(2)]
    assert rat_rank([[1, 2], [2, 4]]) == 1


@given(matrices)
def test_rat_kernel(m):
    rows, cols = len(m), len(m[0])
    basis = la.rat_kernel_basis(m)
    assert len(basis) == cols - rat_rank(m)
    for v in basis:
        assert all(x == 0 for x in la.matvec(m, v))


def test_rat_solve():
    x = la.Q.solver([[2, 0], [0, 4]])([1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 4)]
    assert la.Q.solver([[1, 1], [1, 1]])([0, 1]) is None


def test_solve_checks_the_length_of_the_right_hand_side():
    # a longer v used to lose its last equation over Q, a shorter one
    # raised IndexError; both rings now refuse either
    m = [[1, 0], [0, 1]]
    for v in ([1, 2, 3], [1]):
        for ring in (la.Q, la.Z):
            with pytest.raises(ValueError, match="dimension mismatch"):
                ring.solver(m, 2)(v)


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
entries = st.one_of(st.integers(-6, 6), fractions, st.just(0))


@st.composite
def rational_matrices(draw, max_rows=5, max_cols=5, entries=entries):
    """Matrices with int and Fraction entries, some rows and columns zero,
    possibly no rows or no columns; returns ``(m, cols)``."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if i < rows:
            m[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        if j < cols:
            for row in m:
                row[j] = 0
    return m, cols


@given(rational_matrices())
@settings(max_examples=300)
def test_rref_matches_the_fraction_reference(case):
    m, cols = case
    got, pivots = la.rref(m, cols)
    want, want_pivots = reference_rref(m, cols)
    assert pivots == want_pivots
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)
    if m and cols:
        assert la.rref(m) == (want, want_pivots)


@given(rational_matrices(max_cols=6), st.data())
@settings(max_examples=150)
def test_rref_on_leading_columns_matches_the_reference_on_pivot_rows(case, data):
    # with cols short of the row width, trailing rows may keep nonzero
    # entries beyond cols; they are multiples of the reference rows
    m, width = case
    cols = data.draw(st.integers(0, width))
    got, pivots = la.rref(m, cols)
    want, want_pivots = reference_rref(m, cols)
    assert pivots == want_pivots
    rank = len(pivots)
    assert got[:rank] == want[:rank]
    for g, w in zip(got[rank:], want[rank:]):
        assert not any(g[:cols]) and not any(w[:cols])
        assert reference_rref([g, w])[1] == reference_rref([w])[1]


def _consistent_or_not(draw, m, rows, cols, ring):
    values = st.integers(-4, 4) if ring == "Z" else entries
    if draw(st.booleans()) or not cols:
        return draw(st.lists(values, min_size=rows, max_size=rows))
    x = draw(st.lists(values, min_size=cols, max_size=cols))
    return la.matvec(m, x)


@st.composite
def solve_cases(draw, ring):
    if ring == "Z":
        m, cols = draw(rational_matrices(max_rows=4, max_cols=4, entries=st.integers(-4, 4)))
    else:
        m, cols = draw(rational_matrices(max_rows=4, max_cols=4))
    vs = [_consistent_or_not(draw, m, len(m), cols, ring) for _ in range(draw(st.integers(1, 4)))]
    return m, cols, vs


@pytest.mark.parametrize("ring", ["Z", "Q"])
@given(data=st.data())
@settings(max_examples=200)
def test_solver_matches_the_reference_solve(ring, data):
    m, cols, vs = data.draw(solve_cases(ring))
    solve = la.RINGS[ring].solver(m, cols)
    for v in vs:
        want = REFERENCE_SOLVES[ring](m, v, cols)
        got = solve(v)
        assert got == want
        if want is not None:
            assert [type(x) for x in got] == [type(x) for x in want]
            assert la.matvec(m, got) == list(v)


@pytest.mark.parametrize("ring", ["Z", "Q"])
@given(data=st.data())
@settings(max_examples=100)
def test_a_reused_solver_equals_fresh_solvers(ring, data):
    m, cols, vs = data.draw(solve_cases(ring))
    solve = la.RINGS[ring].solver(m, cols)
    first = [solve(v) for v in vs]
    again = [solve(v) for v in reversed(vs)][::-1]
    fresh = [la.RINGS[ring].solver(m, cols)(v) for v in vs]
    assert first == again == fresh


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_solver_on_empty_matrices(ring):
    solve = la.RINGS[ring].solver([], 3)
    assert solve([]) == REFERENCE_SOLVES[ring]([], [], 3) == [0, 0, 0]
    assert la.RINGS[ring].solver([], 0)([]) == []
    no_columns = la.RINGS[ring].solver([[], []], 0)
    assert no_columns([0, 0]) == []
    assert no_columns([0, 1]) is None is REFERENCE_SOLVES[ring]([[], []], [0, 1], 0)


def reference_reduce(subspace, v):
    """Subtract each basis vector times the entry at its pivot, over Fraction."""
    rem = [Fraction(x) for x in v]
    for b, p in zip(subspace.basis, subspace.pivots):
        f = rem[p]
        if f:
            rem = [a - f * bb for a, bb in zip(rem, b)]
    return tuple(rem)


@given(rational_matrices(), st.data())
@settings(max_examples=150)
def test_subspace_reduce_matches_the_fraction_reference(case, data):
    gens, dim = case
    space = la.Subspace(dim, gens)
    assert space.basis == tuple(map(tuple, reference_rref(gens, dim)[0][: space.rank]))
    for _ in range(3):
        v = data.draw(st.lists(entries, min_size=dim, max_size=dim))
        if gens and data.draw(st.booleans()):
            coeffs = data.draw(st.lists(entries, min_size=len(gens), max_size=len(gens)))
            v = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)]
            assert v in space
        got = space.reduce(v)
        assert got == reference_reduce(space, v)
        assert all(type(x) is Fraction for x in got)
        assert (v in space) == (not any(got))


def test_subspace():
    s = la.Subspace(3, [(1, 0, 1), (0, 1, 1)])
    assert s.rank == 2
    assert [1, 1, 2] in s
    assert [1, 1, 1] not in s
    assert s == la.Subspace(3, [(1, 1, 2), (1, -1, 0)])


def test_det_bareiss_matches_fraction_oracle():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert det(m) == det_fraction(m) == -144


@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=4, max_size=4))
def test_det_random(m):
    assert det(m) == det_fraction(m)


# ---------------------------------------------------------------------------
# the two coefficient rings against each other


@given(matrices)
@settings(max_examples=80)
def test_z_and_q_kernels_and_quotients_agree(m):
    rows, cols = len(m), len(m[0])
    z_kernel, q_kernel = la.Z.kernel(m, cols), la.Q.kernel(m, cols)
    assert z_kernel.rank == q_kernel.rank == cols - rat_rank(m)
    assert all(list(v) in q_kernel for v in la.Z.kernel_basis(m, cols))
    relations = [[m[i][j] for i in range(rows)] for j in range(cols)]
    assert la.Z.module(rows, relations).rank == la.Q.module(rows, relations).rank


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


# ---------------------------------------------------------------------------
# the dense-vector vocabulary


def reference_combine(coeffs, vectors, dim):
    """The combination loop the morphism and product code used to write out."""
    out = [0] * dim
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                out[i] += c * x
    return out


@given(rational_matrices(max_rows=6), st.data())
@settings(max_examples=300)
def test_combine_matches_the_reference_loop_in_value_and_type(case, data):
    vectors, dim = case
    coeffs = data.draw(st.lists(entries, min_size=len(vectors), max_size=len(vectors)))
    got = la.combine(coeffs, vectors, dim)
    want = reference_combine(coeffs, vectors, dim)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


@given(rational_matrices())
@settings(max_examples=200)
def test_transpose_matches_the_comprehension(case):
    m, cols = case
    assert la.transpose(m, cols) == [[m[i][j] for i in range(len(m))] for j in range(cols)]


def test_shape_of_an_empty_matrix():
    assert la.shape([]) == (0, 0)
    assert la.shape([], 3) == (0, 3)
    assert la.shape([[1, 2]]) == (1, 2)
    assert la.hnf([]) == ([], [])
    assert la.kernel_lattice([]).ambient_dim == 0
    assert la.rref([]) == ([], [])
    assert la.hilbert_basis([]) == []

"""Exact linear algebra: frozen examples plus defining-property checks.

The expected values below were derived by hand (gcds of minors for the
Smith form, explicit kernel combinations) so the tests are independent of
the implementation.  The plain helpers below (vector sums, matrix equality
and product, a Bareiss determinant, rank, the rref and the kernel over
``Fraction``, the back-substitution solves, and the column HNF and Smith form
as the library computed them with the transform stored apart and multiplied
in) are the slow reference paths that the library's fast paths are checked
against; other test modules import them.
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


def matmul(a, b):
    """``a @ b`` for matrices given by rows; with no rows in ``b`` the
    product has no columns."""
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def reference_hnf(m, cols=None):
    """Column HNF ``(h, u)`` on two matrices: each column operation is
    written out on ``h`` and again on ``u``, in the library's order."""
    rows, cols = la.shape(m, cols)
    h = [list(row) for row in m]
    u = la.identity(cols)

    def col_swap(i, j):
        for mat in (h, u):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def col_axpy(dst, src, k):
        for mat in (h, u):
            for row in mat:
                row[dst] += k * row[src]

    c = 0
    for r in range(rows):
        if c == cols:
            break
        piv = next((j for j in range(c, cols) if h[r][j]), None)
        if piv is None:
            continue
        if piv != c:
            col_swap(c, piv)
        for j in range(c + 1, cols):
            if not h[r][j]:
                continue
            if h[r][j] % h[r][c] == 0:
                col_axpy(j, c, -(h[r][j] // h[r][c]))
                continue
            g, x, y = la.xgcd(h[r][c], h[r][j])
            a, b = h[r][c] // g, h[r][j] // g
            for mat in (h, u):
                for row in mat:
                    vc, vj = row[c], row[j]
                    row[c] = x * vc + y * vj
                    row[j] = a * vj - b * vc
        if h[r][c] < 0:
            for mat in (h, u):
                for row in mat:
                    row[c] = -row[c]
        d = h[r][c]
        for j in range(c):
            q = h[r][j] // d
            if q:
                col_axpy(j, c, -q)
        c += 1
    return h, u


def reference_snf(m, cols=None):
    """Smith form ``(s, u, v)`` by alternating ``reference_hnf`` of ``s`` and
    of its transpose, each transform multiplied into ``u`` or ``v``."""
    rows, cols = la.shape(m, cols)
    s, u, v = m, la.identity(rows), la.identity(cols)
    while True:
        s, w = reference_hnf(s, cols)
        v = matmul(v, w)
        t, x = reference_hnf(la.transpose(s, cols), rows)
        u = matmul(la.transpose(x, rows), u)
        s = la.transpose(t, rows)
        if any(s[i][j] for i in range(rows) for j in range(cols) if i != j):
            continue
        diag = [s[i][i] for i in range(min(rows, cols))]
        k = next((k for k, d in enumerate(diag[1:]) if diag[k] and d % diag[k]), None)
        if k is None:
            return s, u, v
        s[k] = [a + b for a, b in zip(s[k], s[k + 1])]
        u[k] = [a + b for a, b in zip(u[k], u[k + 1])]


def reference_lattice_basis(dim, vectors):
    """The nonzero columns of ``reference_hnf`` of the generators."""
    h, _ = reference_hnf(la.transpose(vectors, dim), len(vectors))
    return tuple(tuple(col) for col in la.transpose(h, len(vectors)) if any(col))


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


def reference_solve_columns(m, v, cols=None):
    """Integer solve by back-substitution through a fresh column HNF."""
    rows, cols = la.shape(m, cols) if (m or cols is not None) else (0, 0)
    if rows != len(v):
        raise ValueError("dimension mismatch")
    h, u = reference_hnf(m, cols)
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
    assert mat_equal(h, matmul(m, u))
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


def dense_matrices(bound, max_rows=10, max_cols=14):
    """Matrices of 1 to ``max_rows`` rows and 1 to ``max_cols`` columns, with
    every entry drawn within ``bound``."""
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-bound, bound), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


def hadamard_bound(m):
    """The product over the rows of ``m`` of the ceiling of their Euclidean
    norms, each at least 1: no minor of ``m`` exceeds it."""
    bound = 1
    for row in m:
        square = sum(x * x for x in row)
        root = math.isqrt(square)
        bound *= max(1, root + (root * root != square))
    return bound


@given(st.one_of(dense_matrices(6), dense_matrices(10**6), dense_matrices(10**12)))
@settings(max_examples=150, deadline=None)
def test_smallest_remainder_keeps_the_carried_entries_within_the_hadamard_bound(m):
    rows, cols = len(m), len(m[0])
    vs = la._stacked(m, cols)
    rank = la._smallest_remainder(vs, rows)
    assert rank == rat_rank(m)
    assert all(not any(v[:rows]) for v in vs[rank:])
    assert max(abs(x) for v in vs for x in v[rows:]) <= hadamard_bound(m)


@given(st.one_of(dense_matrices(10**6), dense_matrices(10**12)))
@settings(max_examples=80, deadline=None)
def test_the_kernel_equals_the_stacked_hnf_route_on_dense_shapes(m):
    cols = len(m[0])
    h, u = reference_hnf(m, cols)
    rank = sum(1 for col in la.transpose(h, cols) if any(col))
    assert la.kernel_lattice(m, cols).basis == reference_lattice_basis(
        cols, la.transpose(u, cols)[rank:]
    )


def test_a_seeded_30_by_40_kernel():
    rng = random.Random(1)
    m = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(30)]
    ker = la.kernel_lattice(m, 40)
    assert ker.rank == 10 == la.Q.kernel(m, 40).rank
    assert all(not any(la.matvec(m, b)) for b in ker.basis)


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
    assert mat_equal(s, matmul(matmul(u, m), v))
    assert [s[i][i] for i in range(3)] == [2, 6, 12]
    assert abs(det_fraction(u)) == 1
    assert abs(det_fraction(v)) == 1


@given(matrices)
@settings(max_examples=60)
def test_snf_properties(m):
    rows, cols = len(m), len(m[0])
    s, u, v = la.snf(m)
    assert mat_equal(s, matmul(matmul(u, m), v))
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
    assert mat_equal(s, matmul(matmul(u, m), v))
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


@given(matrices)
def test_rat_kernel(m):
    rows, cols = len(m), len(m[0])
    basis = la.Q.kernel(m).basis
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


def reference_kernel(m, cols):
    """The rref basis of the kernel: one vector per free column ``f`` of
    ``reference_rref(m)``, 1 at ``f`` and ``-r[f]`` at each pivot, echeloned
    again over ``Fraction``."""
    r, pivots = reference_rref(m, cols)
    free = [f for f in range(cols) if f not in pivots]
    vectors = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for row, p in zip(r, pivots):
            vec[p] = -row[f]
        vectors.append(vec)
    return tuple(map(tuple, reference_rref(vectors, cols)[0][: len(free)]))


@given(rational_matrices(max_rows=6, max_cols=8))
@settings(max_examples=300)
def test_q_kernel_is_the_rref_of_the_free_column_kernel(case):
    m, cols = case
    kernel = la.Q.kernel(m, cols)
    assert kernel.basis == reference_kernel(m, cols)
    assert all(type(x) is Fraction for b in kernel.basis for x in b)
    assert kernel == la.Subspace(cols, kernel.basis)
    assert kernel.pivots == tuple(next(j for j, x in enumerate(b) if x) for b in kernel.basis)


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


big_entries = st.one_of(st.integers(-4, 4), st.integers(-(10**12), 10**12))


@given(rational_matrices(max_rows=6, max_cols=6, entries=big_entries), st.data())
@settings(max_examples=200, deadline=None)
def test_every_z_elimination_equals_the_two_matrix_reference(case, data):
    m, cols = case
    rows = len(m)
    h, u = reference_hnf(m, cols)
    assert la.hnf(m, cols) == (h, u)
    assert la.snf(m, cols) == reference_snf(m, cols)
    rank = len(reference_lattice_basis(rows, la.transpose(m, cols)))
    assert la.kernel_lattice(m, cols).basis == reference_lattice_basis(
        cols, la.transpose(u, cols)[rank:]
    )
    assert la.Lattice(cols, m).basis == reference_lattice_basis(cols, m)
    solve = la.Z.solver(m, cols)
    for _ in range(3):
        if cols and data.draw(st.booleans()):
            v = la.matvec(m, data.draw(st.lists(big_entries, min_size=cols, max_size=cols)))
        else:
            v = data.draw(st.lists(big_entries, min_size=rows, max_size=rows))
        assert solve(v) == reference_solve_columns(m, v, cols)


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
    assert all(list(v) in q_kernel for v in z_kernel.basis)
    relations = [[m[i][j] for i in range(rows)] for j in range(cols)]
    assert la.Z.module(rows, relations).rank == la.Q.module(rows, relations).rank


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
    assert la.hilbert_basis([]) == []

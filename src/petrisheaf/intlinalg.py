"""Exact linear algebra over the integers and the rationals.

Matrices are plain lists of rows, rows are lists of Python ints (or
`fractions.Fraction` in the rational inputs and results), so everything is
exact at any magnitude.  Sizes here are tiny (axes are token/binding sets of
small nets), dense row-major storage is fine.

Conventions:

* column Hermite normal form (``_hnf_columns``): the pivots (topmost
  nonzero entries) of the nonzero columns are positive and move strictly
  down, entries left of a pivot lie in ``[0, pivot)``, zero columns come
  last; unique for the column lattice, so a canonical lattice basis,
* ``snf(m)`` is the Smith diagonal, each entry dividing the next,
* kernels are modules of column vectors with canonical bases,
* a matrix with zero rows still needs a column count, hence the ``cols``
  argument on the functions that cannot infer it.

Code that works over a net's coefficient ring goes through ``RINGS[name]``,
the ``Ring`` instance ``Z`` or ``Q``: each builds its module type (``Lattice``
or ``Subspace``), kernels and solvers; ``Ring.solver(m, cols)``
factors ``m`` once and returns a ``solve(v)`` for many right-hand sides.
``Z`` runs on the column HNF (``_hnf_columns``, on whole column vectors,
so a transform stacked under them rides along), whose transform only the
Z solver reads: ``Lattice._read_hnf`` reads the HNF into a lattice basis
and a solve by coordinates, and ``snf`` alternates it on the columns and
on the rows with nothing stacked.  ``kernel_lattice`` instead
eliminates by smallest remainder (``_smallest_remainder``), whose stacked
transform stays small where the HNF lets it grow (within the Hadamard
bound of the matrix on every matrix the tests draw), and ``Lattice`` takes
the canonical basis of the columns it clears.  On a 2-core Xeon VM a seeded
30 x 40 kernel with entries in -3..3 takes about 0.02 s (2 s on the HNF
route) and 40 x 50 about 0.05 s (no result in 300 s on the HNF route).
``Q`` runs on one fraction-free integer echelon (``_echelon``), whose rows
stay integers: ``Subspace`` divides each pivot row by its pivot, a kernel
is read off one echelon of the matrix with its columns reversed, and the
solver off one echelon of the matrix beside an identity block.  Either
module type eliminates once in ``__init__``, and ``Lattice._of_hnf`` or
``Subspace._of_rref`` takes a basis that is already canonical.
``invariant_factors`` reads the Smith diagonal of a lattice basis.

``minimize`` is an exact two-phase simplex on integer rows, and
``cone_witness`` uses it to decide whether functionals are non-negative on
a non-negative kernel cone, naming a Hilbert generator where one is not.

Two small helpers serve the other modules as well: ``_integer_row`` and
``_integer_rows`` scale a rational row, or a table of rows, to integers over
one denominator, and ``_format_scalar``/``_format_vector`` render scalars and
vectors as the CLI prints them (``-7/3``, ``[2, -1/2]``).
"""

from __future__ import annotations

import math
from fractions import Fraction


class ResourceLimitExceeded(Exception):
    """A bounded search ran out of its step budget: no answer either way."""


# ---------------------------------------------------------------------------
# vectors and matrices


def identity(n):
    """The n x n identity; its rows are the unit vectors of length n."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def shape(m, cols=None):
    """``(rows, cols)``; a matrix with no rows and no ``cols`` is 0 x 0."""
    if cols is None:
        cols = len(m[0]) if m else 0
    return len(m), cols


def transpose(m, cols):
    """The transpose of ``m``, a matrix with ``cols`` columns: the columns of
    a matrix whose rows are given, or the matrix whose columns are given."""
    if not m:
        return [[] for _ in range(cols)]
    return [list(col) for col in zip(*m)]


def combine(coeffs, vectors, dim):
    """``sum(c * v)`` over the nonzero ``coeffs``, as a list of length ``dim``.

    Entries start as int zeros, so an entry is a Fraction exactly when a
    Fraction product was added to it.
    """
    out = [0] * dim
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                out[i] += c * x
    return out


def matvec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def is_zero_vector(v):
    return all(x == 0 for x in v)


def _format_scalar(value):
    """An int or a rational as ``7`` or ``-7/3``."""
    if type(value) is int:
        return str(value)
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _format_vector(values, denominator=1):
    """``[2, -1/2]``: each entry, over ``denominator``, rendered as a scalar."""
    if denominator != 1:
        values = [Fraction(x, denominator) for x in values]
    return "[" + ", ".join(map(_format_scalar, values)) + "]"


def xgcd(a, b):
    """Return ``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``g = a*x + b*y``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# ---------------------------------------------------------------------------
# Hermite normal form (column style) and friends


def _hnf_columns(vs, k):
    """Bring the first ``k`` coordinates of the column vectors ``vs`` to
    column HNF in place and return the rank.  Each operation acts on whole
    vectors, so coordinates past ``k`` ride along: unit vectors stacked
    under the columns of ``m`` end as the columns of ``u``, ``h = m @ u``."""
    n = len(vs)
    c = 0
    for r in range(k):
        if c == n:
            break
        piv = next((j for j in range(c, n) if vs[j][r]), None)
        if piv is None:
            continue
        vs[c], vs[piv] = vs[piv], vs[c]
        col = vs[c]
        for j in range(c + 1, n):
            other = vs[j]
            if not other[r]:
                continue
            if other[r] % col[r] == 0:
                q = other[r] // col[r]
                vs[j] = [e - q * f for e, f in zip(other, col)]
                continue
            g, x, y = xgcd(col[r], other[r])
            a, b = col[r] // g, other[r] // g
            # [[x, -b], [y, a]] has determinant x*a + y*b = 1
            vs[j] = [a * vj - b * vc for vc, vj in zip(col, other)]
            col = vs[c] = [x * vc + y * vj for vc, vj in zip(col, other)]
        if col[r] < 0:
            col = vs[c] = [-e for e in col]
        d = col[r]
        for j in range(c):
            q = vs[j][r] // d
            if q:
                vs[j] = [e - q * f for e, f in zip(vs[j], col)]
        c += 1
    return c


def _stacked(m, cols):
    """The columns of ``m``, each with a unit vector of length ``cols``
    stacked under it, for ``_hnf_columns`` to carry the transform."""
    return [[*col, *unit] for col, unit in zip(transpose(m, cols), identity(cols))]


def _hnf_solver(m, cols=None):
    """``solve(v)``: an integer ``x`` with ``m @ x = v``, or None.

    The column HNF ``h = m @ u`` is taken once; ``x`` is the coordinates of
    ``v`` over the lattice of ``h`` combined with the matching columns of
    ``u``.  Any solution returned is exact, and None is a proof that ``v``
    is outside the column lattice.
    """
    rows, cols = shape(m, cols)
    vs = _stacked(m, cols)
    rank = _hnf_columns(vs, rows)
    image = Lattice._of_hnf(rows, [v[:rows] for v in vs[:rank]])
    u_columns = [v[rows:] for v in vs[:rank]]

    def solve(v):
        if len(v) != rows:
            raise ValueError("dimension mismatch")
        y = image.coordinates(v)
        return None if y is None else combine(y, u_columns, cols)

    return solve


# ---------------------------------------------------------------------------
# lattices (subgroups of Z^n)


class _Module:
    """Lattice or Subspace: a canonical basis, so equal modules have equal
    bases, and a ``reduce`` that is zero exactly on members."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    @property
    def rank(self):
        return len(self.basis)

    def __contains__(self, v):
        return all(x == 0 for x in self.reduce(v))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))


class Lattice(_Module):
    """A subgroup of Z^n, stored by its canonical column-HNF basis.

    ``basis`` is a tuple of tuples (each of length ``ambient_dim``), ordered
    by pivot row; two Lattice objects are equal iff they are the same
    subgroup.
    """

    __slots__ = ()

    def __init__(self, ambient_dim, vectors=()):
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("generator has wrong length")
        _hnf_columns(vectors, ambient_dim)
        self._read_hnf(ambient_dim, vectors)

    @classmethod
    def _of_hnf(cls, ambient_dim, columns):
        """The lattice spanned by ``columns``, which must already be in column
        HNF (as ``_hnf_columns`` leaves them); no second HNF is taken."""
        lattice = cls.__new__(cls)
        lattice._read_hnf(ambient_dim, columns)
        return lattice

    def _read_hnf(self, ambient_dim, columns):
        self.ambient_dim = ambient_dim
        basis = []
        pivots = []
        p = -1
        for col in columns:
            # pivot rows strictly increase, so each search starts past the last
            p = next(filter(col.__getitem__, range(p + 1, ambient_dim)), None)
            if p is None:
                break
            basis.append(tuple(col))
            pivots.append(p)
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)

    def is_full(self):
        # full rank with unit pivots means every unit vector reduces to zero
        return self.rank == self.ambient_dim and all(
            b[p] == 1 for b, p in zip(self.basis, self.pivots)
        )

    def reduce(self, v):
        """Canonical representative of ``v`` modulo the lattice.

        Entries at pivot rows are brought into ``[0, pivot)`` by floor
        division; the result depends only on the residue class.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong length")
        rem = list(v)
        for b, p in zip(self.basis, self.pivots):
            q = rem[p] // b[p]
            if q:
                for i in range(p, self.ambient_dim):
                    rem[i] -= q * b[i]
        return tuple(rem)

    def coordinates(self, v):
        """Coefficients of ``v`` over ``self.basis``, or None if outside."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong length")
        rem = list(v)
        coeffs = []
        for b, p in zip(self.basis, self.pivots):
            q, r = divmod(rem[p], b[p])
            if r:
                return None
            coeffs.append(q)
            if q:
                for i in range(p, self.ambient_dim):
                    rem[i] -= q * b[i]
        if not is_zero_vector(rem):
            return None
        return tuple(coeffs)

    def __repr__(self):
        return f"Lattice(dim={self.ambient_dim}, basis={list(self.basis)!r})"


def _smallest_remainder(vs, k):
    """Clear the first ``k`` coordinates of the column vectors ``vs`` in
    place, row by row, and return the rank: ``vs[:rank]`` are the pivot
    columns, each the last nonzero one in its row, and ``vs[rank:]`` are zero
    on the first ``k`` coordinates.  In each row the column with the
    smallest nonzero entry is the pivot, and every other column subtracts
    the multiple of it that leaves the remainder of least absolute value,
    at most half the pivot; each pass lowers the smallest entry, so the row
    ends with one nonzero entry.  Whole vectors are combined, so a transform
    stacked under the columns rides along as in ``_hnf_columns``, but it
    stays small: a pivot is never larger than the entries it reduces (H.
    Cohen, *A Course in Computational Algebraic Number Theory*, 1993,
    section 2.4)."""
    n = len(vs)
    c = 0
    for r in range(k):
        live = [j for j in range(c, n) if vs[j][r]]
        while len(live) > 1:
            p = min(live, key=lambda j: abs(vs[j][r]))
            col = vs[p]
            d = col[r]
            for j in live:
                if j == p:
                    continue
                other = vs[j]
                q, rem = divmod(other[r], d)
                if 2 * abs(rem) > abs(d):
                    q += 1
                vs[j] = [e - q * f for e, f in zip(other, col)]
            live = [j for j in live if vs[j][r]]
        if live:
            vs[c], vs[live[0]] = vs[live[0]], vs[c]
            c += 1
    return c


def kernel_lattice(m, cols=None):
    """``{x in Z^cols : m @ x = 0}``: the transforms of the columns that
    smallest-remainder elimination of ``m`` clears, in the canonical basis
    that ``Lattice`` takes (with no rows, the identity, already an HNF)."""
    rows, cols = shape(m, cols)
    if rows == 0:
        return Lattice._of_hnf(cols, identity(cols))
    vs = _stacked(m, cols)
    rank = _smallest_remainder(vs, rows)
    return Lattice(cols, [v[rows:] for v in vs[rank:]])


# ---------------------------------------------------------------------------
# Smith normal form and invariant factors


def snf(m, cols=None):
    """The Smith diagonal of ``m``, read off column Hermite forms of the
    matrix and of its transpose taken in turn (Kannan and Bachem, SIAM J.
    Comput. 8, 1979): a tuple of ``min(rows, cols)`` non-negative entries,
    each dividing the next.  No transform is carried.
    """
    rows, cols = shape(m, cols)
    s = m
    # Why this ends: each HNF leaves the gcd of the first row (column) not
    # yet clear at its lead, so that entry can only shrink, and a cleared
    # row or column stays cleared.  Adding row k + 1 to row k turns
    # (a_k, a_k+1) into (gcd, lcm), a lexicographic decrease; a column added
    # instead is undone, as the column HNF reduces entries left of a pivot.
    while True:
        vs = transpose(s, cols)
        _hnf_columns(vs, rows)
        s = transpose(vs, rows)
        _hnf_columns(s, cols)
        if any(s[i][j] for i in range(rows) for j in range(cols) if i != j):
            continue
        diag = [s[i][i] for i in range(min(rows, cols))]
        k = next((k for k, d in enumerate(diag[1:]) if diag[k] and d % diag[k]), None)
        if k is None:
            return tuple(diag)
        s[k] = [a + b for a, b in zip(s[k], s[k + 1])]


def invariant_factors(module):
    """Invariant factors of the ambient module modulo ``module``: for a
    Lattice the Smith diagonal of its (independent) basis columns; a quotient
    of Q^n is free, so a Subspace has none."""
    if not isinstance(module, Lattice):
        return ()
    return snf(transpose(module.basis, module.ambient_dim), cols=module.rank)


# ---------------------------------------------------------------------------
# Hilbert bases (non-negative integer kernels)


def hilbert_basis(m, cols=None, guard=10_000):
    """Minimal generating set of ``{x in N^cols : m @ x = 0}``.

    Contejean-Devie completion: grow candidate vectors one unit coordinate
    at a time, only in directions whose matrix column has negative scalar
    product with the current image, pruning anything that dominates a found
    generator.  ``guard`` bounds the number of candidate expansions; hitting
    it raises ResourceLimitExceeded (the enumeration is complete only if it
    finishes).  Returns generators sorted lexicographically.
    """
    _, cols = shape(m, cols)
    columns = transpose(m, cols)
    basis = []

    def dominated(x):
        return any(all(bi <= xi for bi, xi in zip(b, x)) for b in basis)

    frontier = []
    seen = set()
    for unit, column in zip(identity(cols), columns):
        x = tuple(unit)
        frontier.append((x, tuple(column)))
        seen.add(x)
    steps = 0
    while frontier:
        next_frontier = []
        for x, val in frontier:
            if all(c == 0 for c in val):
                if not dominated(x):
                    basis.append(x)
                continue
            if dominated(x):
                continue
            for j in range(cols):
                # move only against the residual: <val, column j> < 0
                if sum(a * b for a, b in zip(val, columns[j])) >= 0:
                    continue
                steps += 1
                if steps > guard:
                    raise ResourceLimitExceeded(f"hilbert basis search exceeded {guard} expansions")
                y = tuple(xi + (1 if i == j else 0) for i, xi in enumerate(x))
                if y in seen or dominated(y):
                    continue
                seen.add(y)
                next_frontier.append((y, tuple(a + b for a, b in zip(val, columns[j]))))
        frontier = next_frontier
    minimal = []
    for b in sorted(basis):
        rest = [c for c in basis if c != b]
        if not any(all(ci <= bi for ci, bi in zip(c, b)) for c in rest):
            minimal.append(b)
    return minimal


# ---------------------------------------------------------------------------
# rational layer


_ZERO = Fraction(0)


def _integer_row(row):
    """``row`` scaled to integers by the lcm of its denominators: ``(ints, lcm)``."""
    if all(type(x) is int for x in row):
        return list(row), 1
    d = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def _integer_rows(rows):
    """Rows scaled to integers by the lcm of all their denominators, one
    denominator for the table: ``(int rows, lcm)``."""
    d = math.lcm(*(x.denominator for row in rows for x in row if type(x) is not int))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _pivot(rows, i, q):
    """Clear column ``q`` outside row ``i`` by its pivot ``p = rows[i][q]``:
    a row with entry ``x`` there becomes ``(p*row - x*rows[i]) / g``, with
    ``p`` and ``x`` over their gcd and ``g`` the content.  With ``p``
    positive, each row stays a positive multiple of the exact row."""
    top = rows[i]
    p = top[q]
    for k, row in enumerate(rows):
        x = row[q]
        if x and k != i:
            g = math.gcd(p, x)
            a, b = p // g, x // g
            row = [a * y - b * z for y, z in zip(row, top)]
            c = math.gcd(*row)
            rows[k] = [y // c for y in row] if c > 1 else row


def _echelon(m, cols):
    """Fraction-free Gauss-Jordan elimination on the first ``cols`` columns.

    Each row is scaled once to integers.  Column by column, the pivot is the
    first row at or below the current one that is nonzero there, and
    ``_pivot`` clears the column in every other row.  Returns ``(rows,
    pivots)``: integer rows, pivot rows first, each a nonzero multiple of
    the row that elimination over Q with the same pivots gives, so dividing
    a pivot row by its pivot yields the reduced row echelon form.
    """
    r = [_integer_row(row)[0] for row in m]
    rows = len(r)
    pivots = []
    lead = 0
    for i in range(rows):
        while lead < cols:
            piv = next((k for k in range(i, rows) if r[k][lead]), None)
            if piv is None:
                lead += 1
                continue
            r[i], r[piv] = r[piv], r[i]
            _pivot(r, i, lead)
            pivots.append(lead)
            lead += 1
            break
    return r, pivots


def _echelon_solver(m, cols=None):
    """``solve(v)``: a rational ``x`` with ``m @ x = v``, or None.

    ``[m | I]`` is echeloned once on the columns of ``m``; the identity
    block records each integer row as a combination of the equations.  A
    ``v`` is consistent when the combinations of the zero rows vanish on
    it, and each pivot unknown is its row's combination of ``v`` over the
    pivot.  Free unknowns are 0, so the solution is the one read off the
    reduced row echelon form of ``[m | v]``.
    """
    rows, cols = shape(m, cols)
    aug = [list(row[:cols]) + unit for row, unit in zip(m, identity(rows))]
    e, pivots = _echelon(aug, cols)

    def combination(row):
        return [(k, t) for k, t in enumerate(row[cols:]) if t]

    solved = [(p, row[p], combination(row)) for row, p in zip(e, pivots)]
    checks = [combination(row) for row in e[len(pivots) :]]

    def solve(v):
        if len(v) != rows:
            raise ValueError("dimension mismatch")
        w, d = _integer_row(v)
        for comb in checks:
            if sum(t * w[k] for k, t in comb):
                return None
        x = [_ZERO] * cols
        for p, pivot, comb in solved:
            x[p] = Fraction(sum(t * w[k] for k, t in comb), pivot * d)
        return x

    return solve


class Subspace(_Module):
    """A Q-linear subspace of Q^n with a canonical (rref) basis.

    ``basis`` is a tuple of Fraction tuples, the nonzero rows of the reduced
    row echelon form of any spanning set: the first nonzero entry of each
    row is a 1 (at its pivot), and no other row is nonzero there.

    ``reduce`` runs on integers.  With ``L`` the lcm of the basis
    denominators, ``L * reduce(v)[j]`` is ``L*v[j] - sum_p v[p]*L*b_p[j]``
    on each free column ``j`` (``b_p`` the basis vector with pivot ``p``)
    and 0 on the pivot columns.
    """

    __slots__ = ("_free",)

    def __init__(self, ambient_dim, vectors=()):
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("generator has wrong length")
        # the integer echelon with each pivot row divided by its pivot
        e, pivots = _echelon(vectors, ambient_dim)
        self._read_rref(
            ambient_dim,
            [[Fraction(x, row[p]) if x else _ZERO for x in row] for row, p in zip(e, pivots)],
        )

    @classmethod
    def _of_rref(cls, ambient_dim, basis):
        """The subspace spanned by ``basis``, which must already be the
        nonzero rows of a reduced row echelon form with Fraction entries;
        no echelon is taken."""
        space = cls.__new__(cls)
        space._read_rref(ambient_dim, basis)
        return space

    def _read_rref(self, ambient_dim, basis):
        self.ambient_dim = ambient_dim
        self.basis = tuple(map(tuple, basis))
        self.pivots = tuple(next(filter(b.__getitem__, range(ambient_dim))) for b in self.basis)
        self._free = None

    def is_full(self):
        return self.rank == self.ambient_dim

    def _free_columns(self):
        """``(L, [(j, [(p, L*b_p[j]), ...]), ...])`` over the free columns."""
        if self._free is None:
            lcm = math.lcm(*(x.denominator for b in self.basis for x in b))
            pivots = set(self.pivots)
            self._free = lcm, [
                (
                    j,
                    [
                        (p, b[j].numerator * (lcm // b[j].denominator))
                        for b, p in zip(self.basis, self.pivots)
                        if b[j]
                    ],
                )
                for j in range(self.ambient_dim)
                if j not in pivots
            ]
        return self._free

    def reduce(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong length")
        w, d = _integer_row(v)
        lcm, free = self._free_columns()
        rem = [_ZERO] * self.ambient_dim
        for j, terms in free:
            s = lcm * w[j] - sum(w[p] * c for p, c in terms)
            if s:
                rem[j] = Fraction(s, lcm * d)
        return tuple(rem)

    def __repr__(self):
        return f"Subspace(dim={self.ambient_dim}, rank={self.rank})"


# ---------------------------------------------------------------------------
# coefficient rings


class Ring:
    """Coefficients ``Z`` (column HNF, Lattice) or ``Q`` (integer echelon,
    Subspace).

    ``module(dim, vectors)``, ``kernel(m, cols)``, a module whose ``basis``
    is canonical, and ``solver(m, cols)``, which factors ``m`` once and
    returns ``solve(v)``: an ``x`` with ``m @ x = v``, or None; a ``v``
    whose length is not the row count raises ValueError.
    """

    def __init__(self, name, module, kernel, solver):
        self.name = name
        self.module = module
        self.kernel = kernel
        self.solver = solver


def _kernel_subspace(m, cols=None):
    """``{x in Q^cols : m @ x = 0}``, read off one echelon of ``m`` with its
    columns reversed (H. Cohen, *A Course in Computational Algebraic Number
    Theory*, 1993, section 2.3).  A reversed pivot row is zero before its
    pivot and at the other pivots, so in the original order a column ``f``
    without a pivot leads one kernel vector: 1 at ``f``, 0 at the other
    free columns and ``-row[f] / row[p]`` at each pivot ``p``, all of them
    right of ``f``.  Ordered by ``f``, these vectors are the rref basis."""
    _, cols = shape(m, cols)
    last = cols - 1
    e, pivots = _echelon([row[:cols][::-1] for row in m], cols)
    # each pivot row with its pivot column in the original order
    pivot_rows = [(last - q, row[q], row) for row, q in zip(e, pivots)]
    is_pivot = {p for p, _, _ in pivot_rows}
    basis = []
    for f in range(cols):
        if f in is_pivot:
            continue
        vec = [_ZERO] * cols
        vec[f] = Fraction(1)
        for p, pivot, row in pivot_rows:
            x = row[last - f]
            if x:
                vec[p] = Fraction(-x, pivot)
        basis.append(vec)
    return Subspace._of_rref(cols, basis)


Z = Ring("Z", Lattice, kernel_lattice, _hnf_solver)
Q = Ring("Q", Subspace, _kernel_subspace, _echelon_solver)
RINGS = {"Z": Z, "Q": Q}


# ---------------------------------------------------------------------------
# linear programming and the non-negative kernel cone


def _bland(rows, basis, cols):
    """Simplex pivots under the objective row ``rows[-1]`` until no reduced
    cost is negative, by Bland's rule: the first column with a negative
    reduced cost enters, and of the rows of least ratio the one whose basic
    column comes first leaves.  False when the objective is unbounded."""
    while True:
        q = next((j for j in range(cols) if rows[-1][j] < 0), None)
        if q is None:
            return True
        candidates = [i for i, row in enumerate(rows[:-1]) if row[q] > 0]
        if not candidates:
            return False
        r = min(candidates, key=lambda i: (Fraction(rows[i][-1], rows[i][q]), basis[i]))
        _pivot(rows, r, q)
        basis[r] = q


def minimize(c, a, b):
    """``min c @ x`` over ``{x : a @ x = b, x >= 0}``: ``(value, x)`` at an
    optimal vertex, ``x`` as Fractions, or None when the set is empty.  An
    objective unbounded below raises ValueError.

    Two simplex phases under Bland's rule, which ends on every input (R. G.
    Bland, *Math. Oper. Res.* 2, 1977), on integer rows, each a positive
    multiple of the exact row.  Phase 1 starts from an artificial unit per
    row, whose column is never stored as it never re-enters.  An artificial
    still basic after it, at zero, is pivoted out on a nonzero entry of its
    row; a row with none is a redundant equation and is dropped.
    """
    cols = len(c)
    rows = []
    for row, rhs in zip(a, b):
        ints, _ = _integer_row([*row, rhs])
        rows.append([-x for x in ints] if ints[-1] < 0 else ints)
    basis = [cols + i for i in range(len(rows))]  # the artificials
    rows.append([-sum(col) for col in zip(*rows)] if rows else [0] * (cols + 1))
    _bland(rows, basis, cols)
    for i in reversed(range(len(basis))):
        row = rows[i]
        if basis[i] < cols:
            continue
        if row[-1]:
            return None
        q = next((j for j in range(cols) if row[j]), None)
        if q is None:
            del rows[i], basis[i]
            continue
        if row[q] < 0:
            rows[i] = [-x for x in row]
        _pivot(rows, i, q)
        basis[i] = q
    rows[-1], _ = _integer_row([*c, 0])
    for i, j in enumerate(basis):
        _pivot(rows, i, j)
    if not _bland(rows, basis, cols):
        raise ValueError("the objective is unbounded below")
    x = [_ZERO] * cols
    for row, j in zip(rows, basis):
        x[j] = Fraction(row[-1], row[j])
    return sum(ci * xi for ci, xi in zip(c, x)), x


def cone_witness(m, functionals, cols=None):
    """A Hilbert generator of ``{x in N^cols : m @ x = 0}`` on which some
    row of ``functionals`` is negative, or None if all are non-negative on
    the cone, which holds exactly when they are on its extreme rays (Farkas'
    lemma; A. Schrijver, *Theory of Linear and Integer Programming*, 1986,
    section 7).  The cone is the orthant on the zero columns of ``m`` times
    the cone of the others.  The zero columns' units are generators, tried
    last column first as ``hilbert_basis`` lists them.  On the others each
    functional with a negative entry is minimised over ``{m @ x = 0,
    sum(x) = 1, x >= 0}``; a negative minimum sits at a normalised extreme
    ray, whose primitive integer vector is a generator.
    """
    _, cols = shape(m, cols)
    columns = transpose(m, cols)
    for j in reversed(range(cols)):
        if not any(columns[j]) and any(f[j] < 0 for f in functionals):
            return tuple(int(i == j) for i in range(cols))
    rest = [j for j in range(cols) if any(columns[j])]
    a = [*transpose([columns[j] for j in rest], len(m)), [1] * len(rest)]
    b = [0] * len(m) + [1]
    for f in functionals:
        c = [f[j] for j in rest]
        if min(c, default=0) >= 0:
            continue
        optimum = minimize(c, a, b)
        if optimum is None:
            return None
        if optimum[0] < 0:
            ints, _ = _integer_row(optimum[1])
            g = math.gcd(*ints)
            ray = dict(zip(rest, ints))
            return tuple(ray.get(j, 0) // g for j in range(cols))
    return None

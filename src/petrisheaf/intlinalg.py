"""Exact linear algebra over the integers and the rationals.

Matrices are plain lists of rows, rows are lists of Python ints (or
`fractions.Fraction` in the rational helpers), so everything is exact at any
magnitude.  Sizes here are tiny (axes are token/binding sets of small nets),
dense row-major storage is fine.

Conventions:

* column Hermite normal form: ``hnf(m)`` returns ``(h, u)`` with
  ``h = m @ u`` and ``u`` unimodular,
* Smith normal form: ``snf(m)`` returns ``(s, u, v)`` with ``s = u @ m @ v``,
* kernels are lattices of column vectors, canonicalised via HNF,
* a matrix with zero rows still needs a column count, hence the ``cols``
  argument on the functions that cannot infer it.

Code that works over a net's coefficient ring goes through ``RINGS[name]``,
the ``Ring`` instance ``Z`` or ``Q``: each builds its module type (``Lattice``
or ``Subspace``), kernels, solutions, quotients (``QuotientModule``, with
invariant factors over Z only) and preimages.  ``Z`` runs on the HNF, ``Q``
on rref.
"""

from __future__ import annotations

from fractions import Fraction


class ResourceLimitExceeded(Exception):
    """A bounded search ran out of its step budget before finishing.

    Distinct from a negative answer: the caller learns nothing about the
    property being decided.  ``partial`` holds whatever was found so far.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# vectors and matrices


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def shape(m, cols=None):
    rows = len(m)
    if cols is None:
        if rows == 0:
            raise ValueError("cannot infer column count of an empty matrix")
        cols = len(m[0])
    return rows, cols


def matmul(a, b):
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            for j in range(cols):
                oi[j] += aik * bk[j]
    return out

def matvec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_scale(k, a):
    return [k * x for x in a]


def is_zero_vector(v):
    return all(x == 0 for x in v)


def mat_equal(a, b):
    return [list(r) for r in a] == [list(r) for r in b]


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


def _col_swap(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _col_axpy(m, dst, src, k):
    # column dst += k * column src
    for row in m:
        row[dst] += k * row[src]


def _col_negate(m, j):
    for row in m:
        row[j] = -row[j]


def hnf(m, cols=None):
    """Column Hermite normal form.

    Returns ``(h, u)`` with ``h = m @ u`` and ``u`` unimodular.  ``h`` is in
    column echelon form: the topmost nonzero entry (pivot) of each nonzero
    column sits strictly below the pivot of the previous column, pivots are
    positive, entries to the left of a pivot in its row lie in
    ``[0, pivot)``, and zero columns come last.  This form is unique for the
    column lattice, so it doubles as a canonical lattice basis.
    """
    rows, cols = shape(m, cols) if (m or cols is not None) else (0, 0)
    h = [list(row) for row in m]
    u = identity(cols)
    c = 0
    for r in range(rows):
        if c == cols:
            break
        piv = next((j for j in range(c, cols) if h[r][j]), None)
        if piv is None:
            continue
        if piv != c:
            _col_swap(h, c, piv)
            _col_swap(u, c, piv)
        for j in range(c + 1, cols):
            if not h[r][j]:
                continue
            if h[r][j] % h[r][c] == 0:
                q = h[r][j] // h[r][c]
                _col_axpy(h, j, c, -q)
                _col_axpy(u, j, c, -q)
                continue
            g, x, y = xgcd(h[r][c], h[r][j])
            a, b = h[r][c] // g, h[r][j] // g
            # [[x, -b], [y, a]] has determinant x*a + y*b = 1
            for mat in (h, u):
                for row in mat:
                    vc, vj = row[c], row[j]
                    row[c] = x * vc + y * vj
                    row[j] = a * vj - b * vc
        if h[r][c] < 0:
            _col_negate(h, c)
            _col_negate(u, c)
        d = h[r][c]
        for j in range(c):
            q = h[r][j] // d
            if q:
                _col_axpy(h, j, c, -q)
                _col_axpy(u, j, c, -q)
        c += 1
    return h, u


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


def solve_columns(m, v, cols=None):
    """An integer ``x`` with ``m @ x = v``, or None.

    Back-substitution through the column HNF; any solution returned is exact,
    and None is a proof that ``v`` is outside the column lattice.
    """
    rows, cols = shape(m, cols) if (m or cols is not None) else (0, 0)
    if rows != len(v):
        raise ValueError("dimension mismatch")
    h, u = hnf(m, cols)
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
    if not is_zero_vector(rem):
        return None
    return [sum(u[i][j] * y[j] for j in range(cols)) for i in range(cols)]


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

    def __le__(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return all(list(b) in other for b in self.basis)

    def sum(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return type(self)(self.ambient_dim, list(self.basis) + list(other.basis))


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
        self.ambient_dim = ambient_dim
        if not vectors:
            self.basis = ()
            self.pivots = ()
            return
        cols = [[v[i] for v in vectors] for i in range(ambient_dim)]
        h, _ = hnf(cols, cols=len(vectors))
        basis = []
        pivots = []
        for j in range(len(vectors)):
            col = [h[i][j] for i in range(ambient_dim)]
            p = next((i for i in range(ambient_dim) if col[i]), None)
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


def kernel_lattice(m, cols=None):
    """``{x in Z^cols : m @ x = 0}`` as a canonical Lattice."""
    rows, cols = shape(m, cols) if (m or cols is not None) else (0, 0)
    if rows == 0:
        return Lattice(cols, identity(cols))
    h, u = hnf(m, cols)
    gens = []
    for j in range(cols):
        if all(h[i][j] == 0 for i in range(rows)):
            gens.append([u[i][j] for i in range(cols)])
    return Lattice(cols, gens)


def preimage_lattice(m, lat, cols=None):
    """``{x in Z^cols : m @ x in lat}`` as a Lattice."""
    return Z.preimage(m, lat, cols)


# ---------------------------------------------------------------------------
# Smith normal form and quotient modules


def snf(m, cols=None):
    """Smith normal form.

    Returns ``(s, u, v)`` with ``s = u @ m @ v``, both transforms
    unimodular, ``s`` diagonal with non-negative entries and each diagonal
    entry dividing the next.
    """
    rows, cols = shape(m, cols) if (m or cols is not None) else (0, 0)
    s = [list(row) for row in m]
    u = identity(rows)
    v = identity(cols)

    def row_combine(i0, i1):
        # zero s[i1][k] using rows i0 (pivot) and i1; keep row i0 intact
        # whenever the pivot already divides, so the sweep terminates
        a, b = s[i0][k], s[i1][k]
        if b % a == 0:
            q = b // a
            for mat in (s, u):
                r0, r1 = mat[i0], mat[i1]
                for j in range(len(r0)):
                    r1[j] -= q * r0[j]
            return
        g, x, y = xgcd(a, b)
        aa, bb = a // g, b // g
        for mat in (s, u):
            r0, r1 = mat[i0], mat[i1]
            for j in range(len(r0)):
                w0, w1 = r0[j], r1[j]
                r0[j] = x * w0 + y * w1
                r1[j] = aa * w1 - bb * w0

    def col_combine(j0, j1):
        a, b = s[k][j0], s[k][j1]
        if b % a == 0:
            q = b // a
            for mat in (s, v):
                for row in mat:
                    row[j1] -= q * row[j0]
            return
        g, x, y = xgcd(a, b)
        aa, bb = a // g, b // g
        for mat in (s, v):
            for row in mat:
                w0, w1 = row[j0], row[j1]
                row[j0] = x * w0 + y * w1
                row[j1] = aa * w1 - bb * w0

    n = min(rows, cols)
    for k in range(n):
        while True:
            # choose a pivot of least magnitude for gentler growth
            best = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if s[i][j] and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != k:
                s[k], s[bi] = s[bi], s[k]
                u[k], u[bi] = u[bi], u[k]
            if bj != k:
                _col_swap(s, k, bj)
                _col_swap(v, k, bj)
            for i in range(k + 1, rows):
                if s[i][k]:
                    row_combine(k, i)
            for j in range(k + 1, cols):
                if s[k][j]:
                    col_combine(k, j)
            if any(s[i][k] for i in range(k + 1, rows)) or any(
                s[k][j] for j in range(k + 1, cols)
            ):
                continue
            if s[k][k] < 0:
                for j in range(cols):
                    s[k][j] = -s[k][j]
                for j in range(rows):
                    u[k][j] = -u[k][j]
            # enforce divisibility of the remaining block
            offender = None
            d = s[k][k]
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if s[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(cols):
                s[k][j] += s[offender][j]
            for j in range(rows):
                u[k][j] += u[offender][j]
    return s, u, v


class QuotientModule:
    """Z^n or Q^n modulo a relation Lattice or Subspace (or generators of
    a Lattice), with canonical representatives.  Only a lattice quotient
    has torsion, so invariant factors are computed for lattices only."""

    __slots__ = ("ambient_dim", "relations", "invariant_factors")

    def __init__(self, ambient_dim, relation_vectors=()):
        if isinstance(relation_vectors, _Module):
            self.relations = relation_vectors
        else:
            self.relations = Lattice(ambient_dim, relation_vectors)
        if self.relations.ambient_dim != ambient_dim:
            raise ValueError("relations live in the wrong space")
        self.ambient_dim = ambient_dim
        if isinstance(self.relations, Lattice) and self.relations.rank:
            cols = [[b[i] for b in self.relations.basis] for i in range(ambient_dim)]
            s, _, _ = snf(cols, cols=self.relations.rank)
            diag = [s[i][i] for i in range(min(ambient_dim, self.relations.rank))]
            self.invariant_factors = tuple(d for d in diag if d)
        else:
            self.invariant_factors = ()

    @property
    def rank(self):
        # free rank of the quotient
        return self.ambient_dim - self.relations.rank

    @property
    def torsion(self):
        return tuple(d for d in self.invariant_factors if d != 1)

    def reduce(self, v):
        return self.relations.reduce(v)

    def class_equal(self, v, w):
        return self.reduce(v) == self.reduce(w)

    def is_zero_class(self, v):
        return list(v) in self.relations

    def __repr__(self):
        return (
            f"QuotientModule(dim={self.ambient_dim}, rank={self.rank}, "
            f"torsion={self.torsion!r})"
        )


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
    rows, cols = shape(m, cols) if (m or cols is not None) else (0, 0)
    columns = [[m[i][j] for i in range(rows)] for j in range(cols)]
    basis = []

    def dominated(x):
        return any(all(bi <= xi for bi, xi in zip(b, x)) for b in basis)

    frontier = []
    seen = set()
    for j in range(cols):
        x = tuple(1 if i == j else 0 for i in range(cols))
        val = tuple(columns[j])
        frontier.append((x, val))
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
                    raise ResourceLimitExceeded(
                        f"hilbert basis search exceeded {guard} expansions",
                        partial=sorted(basis),
                    )
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


def _to_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def rref(m, cols=None):
    """Reduced row echelon form over Q.  Returns ``(r, pivot_cols)``."""
    rows, cols = shape(m, cols) if (m or cols is not None) else (0, 0)
    r = _to_fractions(m)
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
    return len(rref(m, cols)[1])


def rat_kernel_basis(m, cols=None):
    """Basis of the rational nullspace, one vector per free column."""
    rows, cols = shape(m, cols) if (m or cols is not None) else (0, 0)
    if rows == 0:
        return [[Fraction(int(i == j)) for i in range(cols)] for j in range(cols)]
    r, pivots = rref(m, cols)
    free = [j for j in range(cols) if j not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            vec[p] = -r[row_idx][f]
        basis.append(vec)
    return basis


def rat_solve_columns(m, v, cols=None):
    """Rational ``x`` with ``m @ x = v``, or None if inconsistent."""
    rows, cols = shape(m, cols) if (m or cols is not None) else (0, 0)
    aug = [[Fraction(m[i][j]) for j in range(cols)] + [Fraction(v[i])] for i in range(rows)]
    r, pivots = rref(aug, cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row_idx, p in enumerate(pivots):
        x[p] = r[row_idx][cols]
    return x


class Subspace(_Module):
    """A Q-linear subspace of Q^n with a canonical (rref) basis."""

    __slots__ = ()

    def __init__(self, ambient_dim, vectors=()):
        vectors = [[Fraction(x) for x in v] for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("generator has wrong length")
        self.ambient_dim = ambient_dim
        if not vectors:
            self.basis = ()
            self.pivots = ()
            return
        r, pivots = rref(vectors, ambient_dim)
        self.basis = tuple(tuple(r[i]) for i in range(len(pivots)))
        self.pivots = tuple(pivots)

    def is_full(self):
        return self.rank == self.ambient_dim

    def reduce(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong length")
        rem = [Fraction(x) for x in v]
        for b, p in zip(self.basis, self.pivots):
            f = rem[p]
            if f:
                rem = [a - f * bb for a, bb in zip(rem, b)]
        return tuple(rem)

    def __repr__(self):
        return f"Subspace(dim={self.ambient_dim}, rank={self.rank})"


# ---------------------------------------------------------------------------
# coefficient rings


class Ring:
    """Coefficients ``Z`` (column HNF, Lattice) or ``Q`` (rref, Subspace).

    ``module(dim, vectors)``, ``kernel(m, cols)``, ``kernel_basis(m, cols)``
    and ``solve(m, v, cols)`` (an ``x`` with ``m @ x = v``, or None).
    """

    def __init__(self, name, module, kernel, kernel_basis, solve):
        self.name = name
        self.module = module
        self.kernel = kernel
        self.kernel_basis = kernel_basis
        self.solve = solve

    def quotient(self, ambient_dim, relation_vectors=()):
        return QuotientModule(ambient_dim, self.module(ambient_dim, relation_vectors))

    def preimage(self, m, target, cols=None):
        """``{x : m @ x in target}`` as a module of this ring.

        ``target`` lives in dimension ``len(m)``.  Solved by taking the
        kernel of the block matrix ``[m | -B]`` (B a basis of ``target``)
        and projecting away the auxiliary coordinates.
        """
        rows, cols = shape(m, cols) if (m or cols is not None) else (0, 0)
        if target.ambient_dim != rows:
            raise ValueError("target module lives in the wrong space")
        k = target.rank
        block = [list(m[i]) + [-target.basis[j][i] for j in range(k)] for i in range(rows)]
        return self.module(cols, [list(v)[:cols] for v in self.kernel_basis(block, cols + k)])


def _kernel_subspace(m, cols=None):
    rows, cols = shape(m, cols) if (m or cols is not None) else (0, 0)
    return Subspace(cols, rat_kernel_basis(m, cols))


Z = Ring(
    "Z", Lattice, kernel_lattice, lambda m, cols=None: kernel_lattice(m, cols).basis, solve_columns
)
Q = Ring("Q", Subspace, _kernel_subspace, rat_kernel_basis, rat_solve_columns)
RINGS = {"Z": Z, "Q": Q}


def _fourier_motzkin_feasible(inequalities, nvars):
    """Feasibility of ``coeffs . c + const >= 0`` systems over Q.

    ``inequalities`` is a list of ``(coeffs, const)`` pairs.  Exact for
    rationals; used as a definite "no" certificate below.
    """
    ineqs = [([Fraction(c) for c in coeffs], Fraction(const)) for coeffs, const in inequalities]
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, const in ineqs:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, const))
            elif c < 0:
                neg.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        new = rest
        for pc, pk in pos:
            for nc, nk in neg:
                # scale so the var cancels: |nc[var]|*p + pc[var]*n
                a, b = -nc[var], pc[var]
                coeffs = [a * x + b * y for x, y in zip(pc, nc)]
                new.append((coeffs, a * pk + b * nk))
        ineqs = new
    return all(const >= 0 for _, const in ineqs)


def nonneg_representative_status(vectors, target, bound=6):
    """Does ``target + span_Z(vectors)`` meet the non-negative orthant?

    Returns "yes", "no" or "unknown".  "no" is exact (Fourier-Motzkin shows
    even the rational affine space misses N^n); "yes" comes from a bounded
    search over integer coefficient boxes; rationally feasible systems with
    no witness inside the box stay "unknown".
    """
    tgt = list(target)
    if all(x >= 0 for x in tgt):
        return "yes"
    k = len(vectors)
    dim = len(tgt)
    ineqs = [([vectors[j][i] for j in range(k)], tgt[i]) for i in range(dim)]
    if not _fourier_motzkin_feasible(ineqs, k):
        return "no"
    if k == 0:
        return "no"
    from itertools import product as iproduct

    for radius in range(1, bound + 1):
        for coeffs in iproduct(range(-radius, radius + 1), repeat=k):
            if max(abs(c) for c in coeffs) != radius:
                continue
            cand = list(tgt)
            for c, vec in zip(coeffs, vectors):
                if c:
                    cand = [a + c * b for a, b in zip(cand, vec)]
            if all(x >= 0 for x in cand):
                return "yes"
    return "unknown"

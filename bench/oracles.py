"""Computations made apart from the program, used to check its outputs.

Everything here works on the ``docs.Net`` models and plain lists, with its
own exact arithmetic; nothing imports ``petrisheaf``.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, product


def matrix(net, row_labels, col_labels):
    """Incidence matrix (post minus pre) with rows and columns in the given
    label orders: rows are ``(place, token)``, columns ``(transition, binding)``."""
    rows = {lab: i for i, lab in enumerate(row_labels)}
    m = [[0] * len(col_labels) for _ in row_labels]
    for j, (t, b) in enumerate(col_labels):
        for (tt, bb, p, c), w in net.post.items():
            if (tt, bb) == (t, b):
                m[rows[(p, c)]][j] += w
        for (tt, bb, p, c), w in net.pre.items():
            if (tt, bb) == (t, b):
                m[rows[(p, c)]][j] -= w
    return m


def apply(m, v):
    return [sum(a * x for a, x in zip(row, v)) for row in m]


def rank_q(m):
    """Rank over Q by fraction-free Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in m if any(row)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][j]:
                f = rows[i][j] / rows[rank][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_mod(m, p):
    """Rank of the reduction of an integer matrix modulo a prime ``p``."""
    rows = [[x % p for x in row] for row in m]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def det(m):
    """Determinant of a square integer matrix, by elimination over Q."""
    rows = [[Fraction(x) for x in row] for row in m]
    out = Fraction(1)
    for j in range(len(rows)):
        piv = next((i for i in range(j, len(rows)) if rows[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            rows[j], rows[piv] = rows[piv], rows[j]
            out = -out
        out *= rows[j][j]
        for i in range(j + 1, len(rows)):
            f = rows[i][j] / rows[j][j]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[j])]
    return int(out)


def hilbert_bound(m):
    """A bound on every entry of every Hilbert basis element of the cone
    ``{v >= 0 : M v = 0}``, from ``M`` alone.

    An extreme ray has a minimal support S, on which M has rank |S| - 1; by
    Cramer's rule its primitive vector has entries of at most the largest
    k-by-k minor of M, k <= rank(M).  A Hilbert basis element is an extreme
    ray, or lies in the half-open parallelepiped of at most
    d = cols - rank(M) extreme rays of a simplicial subcone, so each entry
    is below d times that minor.
    """
    rank, cols = rank_q(m), len(m[0])
    minor = max(
        [1]
        + [
            abs(det([[m[i][j] for j in cs] for i in rs]))
            for k in range(1, rank + 1)
            for rs in combinations(range(len(m)), k)
            for cs in combinations(range(cols), k)
        ]
    )
    return max(1, cols - rank) * minor


def hilbert_in_box(m, cols, bound):
    """Pointwise-minimal nonzero nonnegative kernel vectors with every entry
    at most ``bound``, by enumerating the whole box.  A vector below a box
    vector lies in the box, so these are exactly the Hilbert basis elements
    whose entries do not exceed ``bound``."""
    solutions = [
        v for v in product(range(bound + 1), repeat=cols) if any(v) and not any(apply(m, v))
    ]
    return sorted(
        v
        for v in solutions
        if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in solutions)
    )


# ---------------------------------------------------------------------------
# topology


def basic_sets(net):
    """Basic open and basic closed set of every node, from the arc support."""
    adj = net.adjacency()
    places = [p for p, _ in net.places]
    transitions = [t for t, _ in net.transitions]
    opens, closeds = {}, {}
    for p in places:
        opens[p] = frozenset([p])
        closeds[p] = frozenset([p] + [t for t in transitions if (p, t) in adj])
    for t in transitions:
        opens[t] = frozenset([t] + [p for p in places if (p, t) in adj])
        closeds[t] = frozenset([t])
    return opens, closeds


def covering_counts(net):
    """Covers of each basic set by subfamilies of the basic sets inside it,
    summed over all nodes: ``(open covers, closed covers)``.

    Every subfamily of ``{B(y) : y in B(x)}`` is tried and kept when its
    union is ``B(x)``; ``axioms`` checks the token sheaf on the open covers
    and both the binding cosheaf and flow gluing on the closed ones.
    """
    out = []
    for basic in basic_sets(net):
        total = 0
        for x, region in basic.items():
            members = sorted(region)
            for mask in range(1, 1 << len(members)):
                chosen = [basic[y] for i, y in enumerate(members) if mask >> i & 1]
                if frozenset().union(*chosen) == region:
                    total += 1
        out.append(total)
    return tuple(out)


# ---------------------------------------------------------------------------
# reachability


def events(net, axis):
    """``(name, pre, post)`` of every single-binding event over ``axis``."""
    out = []
    for t, bindings in net.transitions:
        for b in bindings:
            pre = tuple(net.pre.get((t, b, p, c), 0) for p, c in axis)
            post = tuple(net.post.get((t, b, p, c), 0) for p, c in axis)
            out.append(((t, b), pre, post))
    return out


def successors(evs, m):
    for name, pre, post in evs:
        if all(x >= n for x, n in zip(m, pre)):
            yield name, tuple(x - n + g for x, n, g in zip(m, pre, post))


def bfs(net, depth=None):
    """Markings within ``depth`` steps of the net's marking, the largest
    distance among them, and whether a marking at the cut has a successor
    outside the set found."""
    axis = net.token_axis()
    evs = events(net, axis)
    start = tuple(net.marking.get(lab, 0) for lab in axis)
    dist = {start: 0}
    queue = deque([start])
    cut_open = False
    while queue:
        m = queue.popleft()
        d = dist[m]
        for _name, nxt in successors(evs, m):
            if nxt in dist:
                continue
            if depth is not None and d >= depth:
                cut_open = True
                continue
            dist[nxt] = d + 1
            queue.append(nxt)
    return axis, dist, max(dist.values()), cut_open


def fireable_walk(net, steps, rng):
    """A random firing sequence of up to ``steps`` events from the marking."""
    axis = net.token_axis()
    evs = events(net, axis)
    m = tuple(net.marking.get(lab, 0) for lab in axis)
    walk = []
    for _ in range(steps):
        options = list(successors(evs, m))
        if not options:
            break
        name, m = rng.choice(options)
        walk.append(name)
    return walk, dict(zip(axis, m))

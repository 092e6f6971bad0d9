"""``NetMorphism.classify``'s modification test against the solves it replaced.

``reference_is_modification`` is the test as it ran before the monomial
lemma: a surjective discrete node map, and per component the kernel of the
data for injectivity, then one solve per target unit for fullness and a
non-negative preimage.  The property draws verified discrete morphisms over
Z and Q by construction: a random strict source net, a random surjective
sort-preserving node map onto target nodes in shuffled order (sometimes
with an isolated target node left out of the image), flow and mark tables
with entries from {0, 1, 2, 1/2} (monomial or not), and target weights
solved from the incidence-compat equations.  Some morphisms are rewritten
over a non-unit flow basis and loaded back from their ``.pmor`` text.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from petrisheaf import intlinalg as la
from petrisheaf.formats import parse_morphism, serialize_morphism
from petrisheaf.morphism import NetMorphism
from petrisheaf.net import ColouredNet
from petrisheaf.topology import PetriSpace, Sort

VALUES = {"Z": (0, 1, 2), "Q": (0, 1, 2, Fraction(1, 2))}


def reference_is_modification(f):
    """Surjective discrete map whose components are signed isomorphisms,
    decided by kernels and one solve per target unit."""
    ring = la.RINGS[f.ring]
    src, tgt, sm = f.source, f.target, f.space_map

    def kernel(vectors, dim):
        return ring.kernel(la.transpose(vectors, dim), len(vectors)).basis

    def solver(vectors, dim):
        return ring.solver(la.transpose(vectors, dim), len(vectors))

    if not (sm.is_surjective() and sm.is_discrete()):
        return False
    for a in f.image_transitions():
        basis, images = f.flow_maps[a]
        dim = len(tgt.bindings[a])
        if basis and kernel(images, dim):
            return False
        # fullness and inverse signedness: each unit binding must have a
        # preimage, and it must be a non-negative fibre flow
        fibre_dim = len(src.binding_axis(sm.fibre(a)))
        solve = solver(images, dim)
        for unit in la.identity(dim):
            coords = solve(unit)
            if coords is None or any(x < 0 for x in la.combine(coords, basis, fibre_dim)):
                return False
    for u in f.image_places():
        # injective on classes: the kernel of the mark data lies in the relations
        fibre = sm.fibre(u)
        rel_cols = [src.binding_effect(t, b, fibre) for t, b in src.binding_axis(fibre)]
        relations = ring.module(len(src.token_axis(fibre)), rel_cols)
        marks = list(f.mark_maps[u].values())
        dim = len(tgt.tokens[u])
        if not all(list(k) in relations for k in kernel(marks, dim)):
            return False
        # fullness and inverse signedness on classes: each target token must
        # have a preimage class, one vector as a discrete place fibre has no
        # relations, and it must be non-negative
        solve = solver(marks, dim)
        for unit in la.identity(dim):
            x = solve(unit)
            if x is None or any(v < 0 for v in x):
                return False
    return True


def table(rng, rows, cols, ring):
    """A ``rows`` x ``cols`` table: where the shape allows and a coin says
    so, one nonzero entry per row (mostly 1), in distinct columns or not,
    else dense from ``VALUES``."""
    values = VALUES[ring]
    if rows == cols and rng.random() < 0.7:
        if rng.random() < 0.8:
            order = rng.sample(range(cols), cols)
        else:
            order = [rng.randrange(cols) for _ in range(rows)]
        out = [[0] * cols for _ in range(rows)]
        for i, j in enumerate(order):
            out[i][j] = 1 if rng.random() < 0.8 else rng.choice(values[1:])
        return out
    return [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]


def weights_through(fibre_side, solve, rows, width):
    """The target weights ``X`` with ``F X = fibre_side`` column by column,
    or None when some column has no natural-number solution."""
    columns = []
    for col in la.transpose(fibre_side, width):
        x = solve(col)
        if x is None or any(v < 0 or v != int(v) for v in x):
            return None
        columns.append([int(v) for v in x])
    return la.transpose(columns, rows)


def draw_discrete(rng, ring):
    """One discrete morphism built so that incidence-compat holds, or None
    when the drawn tables admit no natural target weights."""
    places = [f"p{i}" for i in range(rng.randint(1, 3))]
    transitions = [f"t{i}" for i in range(rng.randint(1, 3))]
    tokens = {p: tuple(f"c{k}" for k in range(rng.randint(1, 2))) for p in places}
    bindings = {t: tuple(f"b{k}" for k in range(rng.randint(1, 2))) for t in transitions}
    adjacency = {(p, t) for p in places for t in transitions if rng.random() < 0.6}
    wm, wp = {}, {}
    for p, t in adjacency:
        cells = [(t, b, p, c) for b in bindings[t] for c in tokens[p]]
        for cell in cells:
            wm[cell], wp[cell] = rng.choice((0, 0, 1, 2)), rng.choice((0, 0, 1, 2))
        if not any(wm[c] or wp[c] for c in cells):
            wm[rng.choice(cells)] = 1
    space = PetriSpace(
        [(p, Sort.PLACE) for p in places] + [(t, Sort.TRANSITION) for t in transitions], adjacency
    )
    source = ColouredNet(space, bindings, tokens, wm, wp, ring=ring, name="src")

    # a surjective sort-preserving node map onto fewer or as many nodes
    node_map = {}
    for nodes, prefix in ((places, "u"), (transitions, "a")):
        images = [f"{prefix}{k}" for k in range(rng.randint(1, len(nodes)))]
        order = rng.sample(nodes, len(nodes))
        for k, x in enumerate(order):
            node_map[x] = images[k] if k < len(images) else rng.choice(images)
    fibres = {}
    for x in source.space.nodes:
        fibres.setdefault(node_map[x], []).append(x)
    sizes = {y: len(source.token_axis(fs) or source.binding_axis(fs)) for y, fs in fibres.items()}
    width = {y: max(1, n + rng.choice((0, 0, 0, -1, 1))) for y, n in sizes.items()}
    names = {y: tuple(f"{'c' if y[0] == 'u' else 'b'}{k}" for k in range(width[y])) for y in fibres}
    data = {y: table(rng, sizes[y], width[y], ring) for y in fibres}

    target_adjacency = {(node_map[p], node_map[t]) for p, t in adjacency}
    tw = ({}, {})
    for a in (y for y in fibres if y[0] == "a"):
        fibre_axis = source.binding_axis(fibres[a])
        solve = la.Q.solver(data[a], width[a])
        for u in (y for y in fibres if y[0] == "u"):
            token_axis = source.token_axis(fibres[u])
            for side, given in zip(tw, (wm, wp)):
                pushed = [
                    [given.get((t, b, p, c), 0) for p, c in token_axis] for t, b in fibre_axis
                ]
                fibre_side = [la.combine(row, data[u], width[u]) for row in pushed]
                x = weights_through(fibre_side, solve, width[a], width[u])
                if x is None:
                    return None
                for j, b in enumerate(names[a]):
                    for k, c in enumerate(names[u]):
                        if x[j][k]:
                            side[a, b, u, c] = x[j][k]
            if ((u, a) in target_adjacency) != any(
                key[0] == a and key[2] == u for side in tw for key in side
            ):
                return None

    target_nodes = list(fibres)
    if rng.random() < 0.2:
        # an isolated node outside the image: the map is not surjective
        target_nodes.append(rng.choice(("uz", "az")))
        names[target_nodes[-1]] = ("c0",) if target_nodes[-1][0] == "u" else ("b0",)
    rng.shuffle(target_nodes)
    target_space = PetriSpace(
        [(y, Sort.PLACE if y[0] == "u" else Sort.TRANSITION) for y in target_nodes],
        target_adjacency,
    )
    target = ColouredNet(
        target_space,
        {y: names[y] for y in target_nodes if y[0] == "a"},
        {y: names[y] for y in target_nodes if y[0] == "u"},
        *tw,
        ring=ring,
        name="tgt",
    )
    rows = {
        y: dict(zip(source.token_axis(fs) or source.binding_axis(fs), data[y]))
        for y, fs in fibres.items()
    }
    f = NetMorphism.discrete(source, target, node_map, lambda x, e: rows[node_map[x]][x, e])
    if rng.random() < 0.3:
        f = reloaded_over_a_shifted_basis(f)
    return f


def reloaded_over_a_shifted_basis(f):
    """``f`` with each flow basis ``e_1 + e_2, ..., e_{n-1} + e_n, e_n``,
    written to ``.pmor`` text and loaded back."""
    flow_maps = {}
    for a, (basis, images) in f.flow_maps.items():
        n = len(basis)
        pairs = []
        for i in range(n):
            span = range(i, min(i + 2, n))
            pairs.append(
                (
                    [int(j in span) for j in range(n)],
                    la.combine([1] * len(span), [images[j] for j in span], len(images[0])),
                )
            )
        flow_maps[a] = pairs
    g = NetMorphism(f.source, f.target, f.space_map, flow_maps, f.mark_maps, name="shifted")
    text = serialize_morphism(g, "src.pnet", "tgt.pnet")
    return parse_morphism(text).to_morphism(f.source, f.target)


def verified(seed, ring):
    """The first verified morphism drawn from ``seed``, or None."""
    rng = random.Random(seed)
    for _ in range(40):
        f = draw_discrete(rng, ring)
        if f is not None and f.verify():
            return f
    return None


def test_classify_matches_the_solving_reference():
    seen = {"Z": set(), "Q": set()}

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), ring=st.sampled_from(["Z", "Q"]))
    def compare(seed, ring):
        f = verified(seed, ring)
        if f is None:
            return
        want = reference_is_modification(f)
        assert f.classify().modification == want
        seen[ring].add(want)

    compare()
    assert seen == {"Z": {True, False}, "Q": {True, False}}

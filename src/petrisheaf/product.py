"""Products of coloured nets and the constructions that ride on them.

The binary product pairs up nodes (places with places, transitions with
transitions) under the AND adjacency.  A transition pair takes the disjoint
union of its factors' bindings and a place pair the disjoint union of the
factors' tokens, labelled with side tags ``1:`` and ``2:``.  A side-1
binding keeps its side-1 weights against every place pair, whatever the
second coordinate is, and touches no side-2 token; this usually puts
weights on non-adjacent pairs, so the product is a relaxed net, kept over
the rationals because the projections need fractional mark images.

On top of the product live the projection morphisms, the mediating
morphism of a compatible pair, the diagonal embedding, inverse images
along discrete embeddings, and fibre products (pullbacks) built from all of
these.  Every morphism here is discrete (sort-preserving), so each is built
with ``NetMorphism.discrete`` and read with ``NetMorphism.element_image``,
one binding or token at a time; one loop per node covers places and
transitions alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intlinalg as la
from .behaviour import marking_vector, reachable
from .morphism import NetMorphism, morphisms_equal
from .net import ColouredNet, same_net
from .topology import PetriSpace, Sort


class ProductError(ValueError):
    """Ill-matched factors or data with no product counterpart."""


def pair_name(x, y):
    return f"({x},{y})"


def _tag(side, label):
    return f"{side}:{label}"


def _side_of(tagged):
    side, _, label = tagged.partition(":")
    return int(side), label


def _elements(net, x):
    """The bindings of a transition or the tokens of a place."""
    return net.bindings[x] if net.space.is_transition(x) else net.tokens[x]


def _require_discrete(g, what):
    """Refuse a morphism that is not discrete or fails verification."""
    if not g.space_map.is_discrete():
        raise ProductError(
            f"{what} needs discrete (sort-preserving) morphisms, {g.name!r} is not"
        )
    g.require_verified()


@dataclass(frozen=True)
class ProductResult:
    """A product net with its two projection morphisms.

    ``pairs`` sends each product node name to the pair of factor nodes it
    stands for.
    """

    net: ColouredNet
    left: NetMorphism
    right: NetMorphism
    pairs: dict

    @property
    def factors(self):
        return (self.left.target, self.right.target)


def kronecker(first, second, name=None):
    """The binary product of two nets, with projections over Q."""
    s1, s2 = first.space, second.space
    nodes = []
    pairs = {}
    for p in s1.places:
        for q in s2.places:
            n = pair_name(p, q)
            nodes.append((n, Sort.PLACE))
            pairs[n] = (p, q)
    for s in s1.transitions:
        for t in s2.transitions:
            n = pair_name(s, t)
            nodes.append((n, Sort.TRANSITION))
            pairs[n] = (s, t)
    adjacency = [
        (pair_name(p, q), pair_name(s, t))
        for (p, s) in s1.adjacency
        for (q, t) in s2.adjacency
    ]
    space = PetriSpace(nodes, adjacency)

    bindings = {
        pair_name(s, t): tuple(
            [_tag(1, b) for b in first.bindings[s]]
            + [_tag(2, b) for b in second.bindings[t]]
        )
        for s in s1.transitions
        for t in s2.transitions
    }
    tokens = {
        pair_name(p, q): tuple(
            [_tag(1, c) for c in first.tokens[p]]
            + [_tag(2, c) for c in second.tokens[q]]
        )
        for p in s1.places
        for q in s2.places
    }

    def fill(kind):
        table = {}
        for (s, b, p, c), v in first.arcs(kind):
            for t in s2.transitions:
                for q in s2.places:
                    table[(pair_name(s, t), _tag(1, b), pair_name(p, q), _tag(1, c))] = v
        for (t, b, q, c), v in second.arcs(kind):
            for s in s1.transitions:
                for p in s1.places:
                    table[(pair_name(s, t), _tag(2, b), pair_name(p, q), _tag(2, c))] = v
        return table

    net = ColouredNet(
        space,
        bindings,
        tokens,
        fill("minus"),
        fill("plus"),
        strict=False,
        ring="Q",
        name=name or f"{first.name}*{second.name}",
    )
    left = _projection(net, pairs, first, second, 1)
    right = _projection(net, pairs, first, second, 2)
    return ProductResult(net, left, right, pairs)


def _projection(prod, pairs, first, second, side):
    """Projection morphism onto one factor.

    Side-tagged unit bindings map to their untagged original, the other
    side's bindings to zero.  Mark images are scaled by the number of
    places of the other factor, so that summing over a place's fibre
    reproduces that place's weights and markings exactly once.
    """
    factor = first if side == 1 else second
    other = second if side == 1 else first
    scale = Fraction(1, len(other.space.places))

    def image(n, tagged):
        tag_side, label = _side_of(tagged)
        if tag_side != side:
            return {}
        return {label: 1 if prod.space.is_transition(n) else scale}

    return NetMorphism.discrete(
        prod,
        factor,
        {n: xy[side - 1] for n, xy in pairs.items()},
        image,
        ring="Q",
        name=f"proj{side}",
    )


# ---------------------------------------------------------------------------
# markings on a product


def _slices(result):
    """For each product token, the side it copies and its position on that
    factor's token axis."""
    first, second = result.factors
    i1 = {lab: i for i, lab in enumerate(first.token_axis())}
    i2 = {lab: i for i, lab in enumerate(second.token_axis())}
    out = []
    for node, tagged in result.net.token_axis():
        p, q = result.pairs[node]
        side, label = _side_of(tagged)
        out.append((True, i1[(p, label)]) if side == 1 else (False, i2[(q, label)]))
    return out


def _pairing(slices, v1, v2):
    """``product_marking`` of two checked factor markings, over ``_slices``."""
    return tuple(v1[i] if first else v2[i] for first, i in slices)


def product_marking(result, first_marking, second_marking):
    """The marking whose side-1 slice copies the first component and
    side-2 slice the second, at every pairing of the other coordinate."""
    first, second = result.factors
    v1 = marking_vector(first, first_marking)
    v2 = marking_vector(second, second_marking)
    return _pairing(_slices(result), v1, v2)


def trace_markings(result, marking):
    """Component markings recovered through the two projections."""
    m = marking_vector(result.net, marking)
    return tuple(result.left.map_marking(m)), tuple(result.right.map_marking(m))


@dataclass(frozen=True)
class ReachCorrespondence:
    status: str  # "ok" | "failed" | "inconclusive"
    detail: str
    first_count: int
    second_count: int
    product_count: int

    @property
    def ok(self):
        return self.status == "ok"


def check_reachability_correspondence(
    result, first_marking, second_marking, depth=5, max_states=10_000
):
    """Compare product reachability against the two component explorations.

    The components are explored ``depth`` steps and the product twice as
    far, which is enough to interleave any two component runs.  The product
    must reach every pairing of component states, and every reached product
    state must be saturated and trace to component-reachable markings.
    Exhausting the state budget anywhere makes the outcome inconclusive; a
    depth cut does not, the claims are checked on what was explored.

    Each reached marking is read by the product's token layout, through
    no morphism.  ``kronecker`` gives a side-1 binding the same weight at
    ``(p, q)`` for every place ``q`` of the second factor and no side-2
    weight, and dually for side 2.  So every marking reached from a pairing
    is a pairing, and its trace (its image under the projections) is its
    value at any one copy of each factor token; the saturation test is what
    makes that copy the trace.  Nor does integrality need a check:
    ``ColouredNet`` takes natural weights only, so an integral start stays
    integral on every net.

    Two counts need no check.  ``_pairing`` copies each first-factor token
    at ``(p, q)`` for every place ``q``, and each second-factor token at
    ``(p, q)`` for every place ``p``; a net has at least one place, so the
    pairing is injective and the ``n1 * n2`` component pairs give ``n1 *
    n2`` distinct pairings.  After the loop every reached ``m`` has
    passed the saturation test, so ``m`` is the pairing of its traces, and
    by injectivity the traces of the pairing of ``a`` and ``b`` are ``a``
    and ``b``.  The markings counted in ``matched`` are then exactly the
    pairings, all of which were reached, and ``matched == n1 * n2``.
    """
    first, second = result.factors
    r1 = reachable(first, first_marking, depth=depth, max_states=max_states)
    r2 = reachable(second, second_marking, depth=depth, max_states=max_states)
    n1, n2 = len(r1.markings), len(r2.markings)
    if r1.budget_exhausted or r2.budget_exhausted:
        return ReachCorrespondence(
            "inconclusive", "component exploration hit the state budget", n1, n2, 0
        )
    start = product_marking(result, first_marking, second_marking)
    wide = None if depth is None else 2 * depth
    rp = reachable(result.net, start, depth=wide, max_states=max_states)
    if rp.budget_exhausted:
        return ReachCorrespondence(
            "inconclusive",
            "product exploration hit the state budget",
            n1,
            n2,
            len(rp.markings),
        )
    # every marking below is a checked tuple: pair and read them directly
    slices = _slices(result)
    pairings = {_pairing(slices, a, b) for a in r1.markings for b in r2.markings}
    if not pairings <= rp.markings:
        return ReachCorrespondence(
            "failed",
            "a pairing of component markings was not reached in the product",
            n1,
            n2,
            len(pairings & rp.markings),
        )
    if wide == depth:
        w1, w2 = r1, r2
    else:
        w1 = reachable(first, first_marking, depth=wide, max_states=max_states)
        w2 = reachable(second, second_marking, depth=wide, max_states=max_states)
    # the product position of one copy of each factor token
    copy = {key: pos for pos, key in enumerate(slices)}
    copies1 = [copy[True, i] for i in range(len(first.token_axis()))]
    copies2 = [copy[False, i] for i in range(len(second.token_axis()))]
    matched = 0
    for m in rp.markings:
        t1 = tuple(m[pos] for pos in copies1)
        t2 = tuple(m[pos] for pos in copies2)
        if _pairing(slices, t1, t2) != m:
            return ReachCorrespondence(
                "failed", "unsaturated marking reached in the product", n1, n2, matched
            )
        if t1 not in w1.markings or t2 not in w2.markings:
            if w1.budget_exhausted or w2.budget_exhausted:
                return ReachCorrespondence(
                    "inconclusive",
                    "component exploration hit the state budget",
                    n1,
                    n2,
                    matched,
                )
            return ReachCorrespondence(
                "failed", "a product state traces outside the component reach", n1, n2, matched
            )
        if t1 in r1.markings and t2 in r2.markings:
            matched += 1
    return ReachCorrespondence("ok", "", n1, n2, matched)


# ---------------------------------------------------------------------------
# mediating morphisms and the diagonal


def mediate(result, to_first, to_second, name=None):
    """The pairing morphism into the product induced by two morphisms.

    Both arguments must be discrete, verified, share their source net and
    land in the two factors.  A binding or token goes to the tagged pairing
    of its two element images.
    """
    first, second = result.factors
    if not same_net(to_first.source, to_second.source):
        raise ProductError("mediating morphisms must share their source")
    for g, factor, side in ((to_first, first, 1), (to_second, second, 2)):
        if not same_net(g.target, factor):
            raise ProductError(f"{g.name!r} does not land in factor {side}")
        _require_discrete(g, "mediate")

    src = to_first.source
    node_map = {}
    for x in src.space.nodes:
        n = pair_name(to_first.space_map(x), to_second.space_map(x))
        if n not in result.pairs:
            raise ProductError(f"images of {x!r} differ in sort, no product node")
        node_map[x] = n
    return NetMorphism.discrete(
        src,
        result.net,
        node_map,
        lambda x, e: (*to_first.element_image(x, e), *to_second.element_image(x, e)),
        ring="Q",
        name=name or f"<{to_first.name},{to_second.name}>",
    )


@dataclass(frozen=True)
class DiagonalResult:
    """The diagonal subnet of a square product.

    ``net`` lives on the nodes ``(x,x)``; its binding and token modules are
    the diagonals of the product modules, written over the original axis
    labels, so it is a renamed copy of the base net.  ``iso`` renames the
    base net onto it, ``embedding`` includes it into the square by sending
    each axis to the sum of its two tagged copies.
    """

    product: ProductResult
    net: ColouredNet
    iso: NetMorphism
    embedding: NetMorphism

    def iso_inverse(self):
        """The renaming back from the diagonal subnet onto the base net."""
        base = self.iso.source
        return NetMorphism.discrete(
            self.net,
            base,
            {pair_name(x, x): x for x in base.space.nodes},
            lambda n, e: {e: 1},
            ring=base.ring,
            name="delta-inv",
        )


def diagonal(net, name=None):
    """The diagonal subnet of the square of a net, with iso and embedding.

    The subnet keeps the nodes ``(x,x)`` under the subspace topology, and
    each binding or token module is the diagonal submodule of the product
    module, which the original axis labels parametrize; the weights carry
    over unchanged.  Both returned morphisms come with their verification
    reports attached.  The renaming iso always verifies; the embedding's
    marking-class transport genuinely fails on a transition that touches
    two or more places with an unbalanced weight column, because the
    diagonal relation has no counterpart among the product relations, and
    the report then says so.
    """
    result = kronecker(net, net, name=name)
    space = PetriSpace(
        [(pair_name(x, x), net.space.sort_of(x)) for x in net.space.nodes],
        [(pair_name(p, p), pair_name(t, t)) for (p, t) in net.space.adjacency],
    )
    tables = [
        {(pair_name(a, a), b, pair_name(u, u), c): v for (a, b, u, c), v in net.arcs(kind)}
        for kind in ("minus", "plus")
    ]
    delta = ColouredNet(
        space,
        {pair_name(a, a): net.bindings[a] for a in net.space.transitions},
        {pair_name(u, u): net.tokens[u] for u in net.space.places},
        tables[0],
        tables[1],
        strict=net.strict,
        ring=net.ring,
        name=f"diag({net.name})",
    )

    iso = NetMorphism.discrete(
        net,
        delta,
        {x: pair_name(x, x) for x in net.space.nodes},
        lambda x, e: {e: 1},
        ring=net.ring,
        name="delta",
    )
    emb = NetMorphism.discrete(
        delta,
        result.net,
        {n: n for n in delta.space.nodes},
        lambda n, e: {_tag(1, e): 1, _tag(2, e): 1},
        ring="Q",
        name="diag-include",
    )
    iso.verify()
    emb.verify()
    return DiagonalResult(result, delta, iso, emb)


# ---------------------------------------------------------------------------
# inverse images and fibre products


def _integer_preimage(cols, normals):
    """The lattice of integer ``v`` whose image ``sum(v[i] * cols[i])`` lies in
    the common kernel of the integer rows ``normals``: the kernel lattice of
    ``N . cols``, each row scaled to integers.  Its basis is canonical."""
    rows = [la._integer_row(la.matvec(cols, n))[0] for n in normals]
    return la.kernel_lattice(rows, len(cols))


def _name_basis(names, lattice):
    """Keep original axis names on unit basis vectors, invent the rest."""
    used = set(names)
    out = []
    counter = 0
    for vec in lattice.basis:
        support = [i for i, v in enumerate(vec) if v]
        if len(support) == 1 and vec[support[0]] == 1:
            out.append((names[support[0]], tuple(vec)))
            continue
        counter += 1
        candidate = f"g{counter}"
        while candidate in used:
            counter += 1
            candidate = f"g{counter}"
        used.add(candidate)
        out.append((candidate, tuple(vec)))
    return tuple(out)


@dataclass(frozen=True)
class InverseImageResult:
    """A pulled-back subnet with its Cartesian square of morphisms.

    ``into_source`` includes the subnet into the source of the pulled-back
    map; ``to_subnet`` restricts that map onto the embedded subnet;
    ``square_commutes`` holds when the two composites into the common
    target are equal, node map and data (``morphisms_equal``).  ``bases``
    gives, for every node over the embedded subnet, its refined axis as
    ``(name, vector)`` pairs over the original bindings or tokens; a node
    whose refined module vanishes has the empty basis and is dropped from
    the subnet.
    """

    net: ColouredNet
    into_source: NetMorphism
    to_subnet: NetMorphism
    bases: dict
    square_commutes: bool


def inverse_image(f, j, name=None):
    """Pull the subnet picked out by an embedding back along a map.

    ``f`` must be discrete (sort-preserving) and verified, ``j`` a verified
    discrete topological embedding into the same target.  The result keeps
    the nodes whose ``f``-image lies in the image of ``j``, and refines each
    binding and token module to the integer vectors that ``f`` sends into
    the span of the embedded node's element images; the canonical basis of
    each refined module becomes the new axis, and nodes whose refined module
    vanishes carry no elements and are dropped.  Weights are rewritten over
    the new bases; a rewritten weight that is negative, fractional, or
    outside the refined token modules has no net counterpart and raises.
    The result also carries the inclusion into the source and the
    restriction onto the subnet, and checks on the data that the square over
    the target commutes.
    """
    _require_discrete(f, "inverse image")
    if not (j.space_map.is_embedding() and j.space_map.is_discrete()):
        raise ProductError("inverse image needs a discrete topological embedding")
    j.require_verified()
    if not same_net(f.target, j.target):
        raise ProductError("inverse image needs a common target net")

    src = f.source
    sub = j.source
    back = {j.space_map(z): z for z in sub.space.nodes}
    # per embedded node: its dimension, the normals of the span of its element
    # images (integer rows whose common kernel is that span) and a solver over
    # those images, factored once
    embedded = {}
    for y, z in back.items():
        dim = len(_elements(f.target, y))
        jcols = [j.element_image(z, e) for e in _elements(sub, z)]
        solve = la.Q.solver(la.transpose(jcols, dim), len(jcols))
        normals = [la._integer_row(n)[0] for n in la.Q.kernel(jcols, dim).basis]
        embedded[y] = (dim, normals, solve)
    node_level = [x for x in src.space.nodes if f.space_map(x) in back]

    bases = {}
    columns = {}
    for x in node_level:
        _, normals, _ = embedded[f.space_map(x)]
        cols = [[Fraction(v) for v in f.element_image(x, e)] for e in _elements(src, x)]
        bases[x] = _name_basis(_elements(src, x), _integer_preimage(cols, normals))
        columns[x] = cols

    kept = [x for x in node_level if bases[x]]
    kept_places = [x for x in kept if src.space.is_place(x)]
    kept_transitions = [x for x in kept if src.space.is_transition(x)]
    if not kept_places or not kept_transitions:
        raise ProductError("inverse image keeps no place or no transition")
    kept_set = set(kept)
    level_places = [x for x in node_level if src.space.is_place(x)]

    # each refined token module is factored once, for every weight rebased onto it
    token_solvers = {
        y: la.Z.solver(
            la.transpose([vec for _nm, vec in bases[y]], len(src.tokens[y])), len(bases[y])
        )
        for y in kept_places
    }
    w_minus, w_plus = {}, {}
    for x in kept_transitions:
        for bn, bvec in bases[x]:
            for y in level_places:
                for store, kind in ((w_minus, "minus"), (w_plus, "plus")):
                    cols = [src.binding_effect(x, b, (y,), kind) for b in src.bindings[x]]
                    combo = la.combine(bvec, cols, len(src.tokens[y]))
                    if not any(combo):
                        continue
                    solve = token_solvers.get(y)
                    coords = solve(combo) if solve else None
                    if coords is None:
                        raise ProductError(
                            f"weights of {x!r} at {y!r} leave the refined token module"
                        )
                    for (tn, _vec), wgt in zip(bases[y], coords):
                        if wgt < 0:
                            raise ProductError(
                                f"negative rebased weight on {x}.{bn} at {y}.{tn}"
                            )
                        if wgt:
                            store[(x, bn, y, tn)] = wgt

    space = PetriSpace(
        [(x, src.space.sort_of(x)) for x in kept],
        [(p, t) for (p, t) in src.space.adjacency if p in kept_set and t in kept_set],
    )
    names = {x: tuple(nm for nm, _ in bases[x]) for x in kept}
    net = ColouredNet(
        space,
        {x: names[x] for x in kept_transitions},
        {x: names[x] for x in kept_places},
        w_minus,
        w_plus,
        strict=False,
        ring=src.ring,
        name=name or f"{src.name}|{sub.name}",
    )
    vectors = {(x, nm): vec for x in kept for nm, vec in bases[x]}
    into_source = NetMorphism.discrete(
        net,
        src,
        {x: x for x in kept},
        lambda x, e: vectors[(x, e)],
        ring=src.ring,
        name=f"include-{net.name}",
    )

    # each refined vector's image lies in the embedded span, so the solve
    # against the embedded element images is exact
    def restrict(x, e):
        dim, _, solve = embedded[f.space_map(x)]
        return solve(la.combine(vectors[(x, e)], columns[x], dim))

    to_subnet = NetMorphism.discrete(
        net,
        sub,
        {x: back[f.space_map(x)] for x in kept},
        restrict,
        ring="Q",
        name=f"restrict-{net.name}",
    )
    commutes = morphisms_equal(into_source.then(f), to_subnet.then(j))
    return InverseImageResult(net, into_source, to_subnet, bases, commutes)


def factor_cone(inverse, to_source, to_subnet, name=None):
    """Factor a commuting cone through an inverse image.

    ``to_source`` and ``to_subnet`` must be discrete verified morphisms
    from a common net into the source and the subnet of the square; when
    the underlying square relation holds their pairing factors uniquely
    through the pulled-back subnet, and the factorization is returned after
    checking both triangle identities.  Each element image of
    ``to_source`` is solved through the refined basis of its image node.
    """
    apex = to_source.source
    if not same_net(to_subnet.source, apex):
        raise ProductError("cone legs must share their source")
    if not same_net(to_source.target, inverse.into_source.target):
        raise ProductError("the first cone leg must land in the pulled-back source")
    if not same_net(to_subnet.target, inverse.to_subnet.target):
        raise ProductError("the second cone leg must land in the subnet")
    for g in (to_source, to_subnet):
        _require_discrete(g, "cone factorization")

    vnodes = set(inverse.net.space.nodes)
    node_map = {}
    for w in apex.space.nodes:
        x = to_source.space_map(w)
        if x not in vnodes:
            raise ProductError(f"cone image {x!r} is not in the inverse image")
        node_map[w] = x

    # one solver per image node, over its refined basis
    solvers = {}
    for x in set(node_map.values()):
        refined = [vec for _nm, vec in inverse.bases[x]]
        dim = len(_elements(to_source.target, x))
        solvers[x] = la.Q.solver(la.transpose(refined, dim), len(refined))

    def image(w, e):
        x = node_map[w]
        lam = solvers[x](list(to_source.element_image(w, e)))
        if lam is None:
            raise ProductError(f"cone data over {x!r} misses its refined module")
        return lam

    factored = NetMorphism.discrete(
        apex, inverse.net, node_map, image, ring="Q", name=name or "cone-factor"
    )
    if not morphisms_equal(factored.then(inverse.into_source), to_source):
        raise ProductError("cone does not factor through the inverse image")
    if not morphisms_equal(factored.then(inverse.to_subnet), to_subnet):
        raise ProductError("cone legs do not agree over the target square")
    return factored


@dataclass(frozen=True)
class FibreProductResult:
    """A pullback net with its projections and structure morphism.

    ``left``/``right`` project onto the two sources and ``basis`` is the
    common composite down to the shared target.  The intermediate pieces
    stay accessible: the plain product, the pairing into the target's
    square, the target diagonal, and the inverse image that carved the
    pullback out of the product.
    """

    net: ColouredNet
    left: NetMorphism
    right: NetMorphism
    basis: NetMorphism
    product: ProductResult
    mediating: NetMorphism
    diagonal: DiagonalResult
    inverse: InverseImageResult
    cone_factorizations: tuple = ()


def fibre_product(to_target_first, to_target_second, name=None, cones=()):
    """The pullback of two discrete morphisms with a common target.

    Built as the inverse image, along the target's diagonal, of the pairing
    of the two composites with the product projections.  Each supplied cone
    ``(q1, q2)`` with equal composites into the target is factored through
    the pullback; the factorizations come back in order, and a cone that
    does not factor raises.
    """
    g1, g2 = to_target_first, to_target_second
    if not same_net(g1.target, g2.target):
        raise ProductError("fibre product needs a common target")
    for g in (g1, g2):
        _require_discrete(g, "fibre product")
    prod = kronecker(g1.source, g2.source)
    diag = diagonal(g1.target)
    h = mediate(
        diag.product,
        prod.left.then(g1),
        prod.right.then(g2),
        name=f"<{g1.name},{g2.name}>",
    )
    report = h.verify()
    if report.status == "failed":
        raise ProductError(f"pairing does not verify: {report.first_failure.clause}")
    inv = inverse_image(h, diag.embedding, name=name)
    left = inv.into_source.then(prod.left)
    left.name = "fib-proj1"
    right = inv.into_source.then(prod.right)
    right.name = "fib-proj2"
    basis = inv.to_subnet.then(diag.iso_inverse())
    basis.name = "fib-basis"
    factored = []
    for q1, q2 in cones:
        u = factor_cone(inv, mediate(prod, q1, q2), q1.then(g1).then(diag.iso))
        if not morphisms_equal(u.then(left), q1) or not morphisms_equal(u.then(right), q2):
            raise ProductError("cone does not factor through the fibre product")
        factored.append(u)
    return FibreProductResult(
        inv.net, left, right, basis, prod, h, diag, inv, tuple(factored)
    )

"""The integer clause code of ``NetMorphism.verify`` against the code it replaced.

``Reference`` is the verification as it ran on ``Fraction`` arithmetic: dense
``binding_effect`` columns, flow images solved over the supplied basis, class
transport on exact targets, and signedness read off the enumerated Hilbert
basis of each fibre, naming the first failing generator.  Only its clause
details changed, to render vectors with ``intlinalg._format_vector`` as the
integer code does.  The property runs both on verified discrete morphisms
(identities, product projections, Winskel folds and projections, composites,
mediating maps, diagonal embeddings), on the non-discrete fixture morphisms,
and on copies with one mark or flow-image entry moved, over Z and over Q.
One moved entry makes at most one Hilbert generator fail on these fibres, so
the exact cone test of ``verify`` names the generator the enumeration names.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from petrisheaf import intlinalg as la
from petrisheaf.cli import random_strict_net
from petrisheaf.morphism import (
    CLAUSE_CLASS_TRANSPORT,
    CLAUSE_CONTINUITY,
    CLAUSE_FLOW_BASIS,
    CLAUSE_FLOW_EXTENDS,
    CLAUSE_INCIDENCE,
    CLAUSE_MARK_DEFINED,
    CLAUSE_SIGNEDNESS,
    ClauseResult,
    MorphismError,
    NetMorphism,
    VerificationReport,
    WinskelMorphism,
    from_winskel,
    identity_morphism,
)
from petrisheaf.net import NetError, place_transition_net
from petrisheaf.product import diagonal, kronecker, mediate
from petrisheaf.topology import Sort

from fixtures import fold_morphism, squash_morphism, unfolding_morphism


class Reference:
    """The Fraction-arithmetic clause code, one instance per morphism."""

    def __init__(self, f):
        self.f = f
        self.ring = la.RINGS[f.ring]
        self.solvers = {}
        self.rewrites = None

    def solver(self, vectors, dim):
        return self.ring.solver(la.transpose(vectors, dim), len(vectors))

    def flow_image(self, a, vector):
        f = self.f
        basis, images = f.flow_maps[a]
        if a not in self.solvers:
            dim = len(f.source.binding_axis(f.space_map.fibre(a)))
            self.solvers[a] = (dim, self.solver(basis, dim) if basis else None)
        dim, solve = self.solvers[a]
        if len(vector) != dim:
            raise MorphismError("fibre flow vector has the wrong length")
        if not basis:
            if any(vector):
                raise MorphismError("nonzero flow over an empty basis")
            return tuple(0 for _ in f.target.bindings[a])
        coords = solve(list(vector))
        if coords is None:
            raise MorphismError(f"vector is not in the span of the flow basis over {a!r}")
        return tuple(la.combine(coords, images, len(f.target.bindings[a])))

    def mapper(self, region):
        f = self.f
        pre_axis = f.source.binding_axis(f.space_map.preimage(region))
        pre_index = {lab: i for i, lab in enumerate(pre_axis)}
        out_axis = f.target.binding_axis(region)
        fibre_data = [
            (
                a,
                f.source.binding_axis(f.space_map.fibre(a)),
                f.source.flows(f.space_map.fibre(a), ring=f.ring),
            )
            for a in f.target.space.transitions_in(region)
            if a in f.flow_maps
        ]

        def mapper(vector):
            out = {}
            for a, fibre_axis, flows in fibre_data:
                restricted = [vector[pre_index[lab]] for lab in fibre_axis]
                if not flows.contains(restricted):
                    raise NetError(f"restriction to the fibre over {a!r} is not a flow")
                img = self.flow_image(a, restricted)
                for b_name, val in zip(f.target.bindings[a], img):
                    out[(a, b_name)] = val
            return tuple(out.get(lab, 0) for lab in out_axis)

        return mapper

    def verify(self):
        f = self.f
        report = VerificationReport(f.name)

        def fail(clause, detail):
            report.clauses.append(ClauseResult(clause, "failed", detail))

        def passed(clause, detail=""):
            report.clauses.append(ClauseResult(clause, "ok", detail))

        if not f.space_map.is_continuous():
            fail(CLAUSE_CONTINUITY, "node map is not continuous")
            return report
        passed(CLAUSE_CONTINUITY)
        src, tgt = f.source, f.target
        show = la._format_vector

        for a in f.image_transitions():
            flows = src.flows(f.space_map.fibre(a), ring=f.ring)
            basis, _ = f.flow_maps[a]
            for vec in basis:
                if not flows.contains(list(vec)):
                    fail(
                        CLAUSE_FLOW_BASIS,
                        f"vector {show(vec)} is not a flow of the fibre over {a!r}",
                    )
                    return report
            if len(basis) != flows.rank:
                fail(
                    CLAUSE_FLOW_BASIS,
                    f"fibre over {a!r} has flow rank {flows.rank}, got {len(basis)} basis vectors",
                )
                return report
            if basis and not flows.same_module([list(v) for v in basis]):
                fail(CLAUSE_FLOW_BASIS, f"vectors do not span the fibre flows over {a!r}")
                return report
        passed(CLAUSE_FLOW_BASIS)

        for u in f.image_places():
            region = tgt.space.ordered(tgt.space.basic_closed(u))
            pre = f.space_map.preimage(region)
            try:
                mapper = self.mapper(region)
                target_flows = tgt.flows(region, ring=f.ring)
                for phi in src.flows(pre, ring=f.ring).basis:
                    if not target_flows.contains(list(mapper(list(phi)))):
                        fail(
                            CLAUSE_FLOW_EXTENDS,
                            f"image family of {show(phi)} violates the balance at {u!r}",
                        )
                        return report
            except (MorphismError, NetError) as exc:
                fail(CLAUSE_FLOW_EXTENDS, f"over {u!r}: {exc}")
                return report
        passed(CLAUSE_FLOW_EXTENDS)

        for u in f.image_places():
            fibre = f.space_map.fibre(u)
            images = [f.mark_maps[u][lab] for lab in src.token_axis(fibre)]
            for t, b in src.binding_axis(fibre):
                out = la.combine(src.binding_effect(t, b, fibre), images, len(tgt.tokens[u]))
                if any(out):
                    fail(
                        CLAUSE_MARK_DEFINED,
                        f"binding {t}.{b} has nonzero image {show(out)} in the tokens of {u!r}",
                    )
                    return report
        passed(CLAUSE_MARK_DEFINED)

        rewrites = {}
        for a in f.image_transitions():
            result = self.class_transport(a)
            if isinstance(result, str):
                fail(CLAUSE_CLASS_TRANSPORT, result)
                return report
            rewrites[a] = result
        self.rewrites = rewrites
        passed(CLAUSE_CLASS_TRANSPORT)

        for u in f.image_places():
            for lab, vec in f.mark_maps[u].items():
                if any(x < 0 for x in vec):
                    fail(CLAUSE_SIGNEDNESS, f"mark image of {lab} has a negative entry")
                    return report
        for a in f.image_transitions():
            fibre = f.space_map.fibre(a)
            mat = src.incidence_matrix(fibre)
            for g in la.hilbert_basis(mat.as_lists(), cols=len(src.binding_axis(fibre))):
                img = self.flow_image(a, list(g))
                if any(x < 0 for x in img):
                    fail(
                        CLAUSE_SIGNEDNESS,
                        f"non-negative fibre flow {show(g)} maps to {show(img)}",
                    )
                    return report
        passed(CLAUSE_SIGNEDNESS)

        detail = self.incidence_failure()
        if detail is not None:
            fail(CLAUSE_INCIDENCE, detail)
            return report
        passed(CLAUSE_INCIDENCE)
        return report

    def incidence_failure(self):
        """The detail of the first incidence-compat mismatch, or None."""
        f = self.f
        src, tgt = f.source, f.target
        show = la._format_vector
        for a in f.image_transitions():
            fibre_axis = src.binding_axis(f.space_map.fibre(a))
            basis, images = f.flow_maps[a]
            for u in f.image_places():
                u_fibre = f.space_map.fibre(u)
                marks = [f.mark_maps[u][lab] for lab in src.token_axis(u_fibre)]
                tgt_dim = len(tgt.tokens[u])
                for kind, sign in (("minus", "-"), ("plus", "+")):
                    src_cols = [src.binding_effect(s, b, u_fibre, kind) for s, b in fibre_axis]
                    pushed = [la.combine(col, marks, tgt_dim) for col in src_cols]
                    tgt_cols = [tgt.binding_effect(a, b, (u,), kind) for b in tgt.bindings[a]]
                    for vec, img in zip(basis, images):
                        lhs = la.combine(vec, pushed, tgt_dim)
                        rhs = la.combine(img, tgt_cols, tgt_dim)
                        if lhs != rhs:
                            return (
                                f"w{sign} mismatch over ({a!r}, {u!r}): fibre side "
                                f"{show(lhs)} vs image side {show(rhs)}"
                            )
        return None

    def class_transport(self, a):
        f = self.f
        src, tgt = f.source, f.target
        region = f.space_map.preimage(tgt.space.basic_open(a))
        ambient = src.token_axis(region)
        dim = len(ambient)
        tgt_places = [u for u in tgt.space.ordered(tgt.space.basic_open(a)) if tgt.space.is_place(u)]
        tgt_axis = [(u, c) for u in tgt_places for c in tgt.tokens[u]]
        tgt_index = {lab: i for i, lab in enumerate(tgt_axis)}
        tdim = len(tgt_axis)

        units = la.identity(dim)
        p_vectors, p_targets, t_labels = [], [], []
        for i, (p, c) in enumerate(ambient):
            fp = f.space_map(p)
            if tgt.space.sort_of(fp) is Sort.PLACE:
                p_vectors.append(units[i])
                target = [0] * tdim
                for val, c2 in zip(f.mark_maps[fp][(p, c)], tgt.tokens[fp]):
                    target[tgt_index[(fp, c2)]] = val
                p_targets.append(target)
            else:
                t_labels.append((i, (p, c)))
        r_vectors = [src.binding_effect(s, b, region) for s, b in src.binding_axis(region)]
        columns = p_vectors + r_vectors
        targets = p_targets + [[0] * tdim for _ in r_vectors]
        relations = [tgt.binding_effect(a, b, tgt.space.basic_open(a)) for b in tgt.bindings[a]]
        s_module = self.ring.module(tdim, relations)

        kernel = []
        if columns:
            kernel = self.ring.kernel(la.transpose(columns, dim), len(columns)).basis
        for ker_vec in kernel:
            image = la.combine(ker_vec, targets, tdim)
            if image not in s_module:
                return (
                    f"transport over {a!r} is inconsistent: a vanishing combination "
                    f"maps to {la._format_vector(image)}, outside the relations"
                )
        full_axis = tgt.token_axis()
        out = {}
        solve = self.solver(columns, dim) if columns and t_labels else None
        for idx, lab in t_labels:
            coords = solve(units[idx]) if solve else None
            if coords is None:
                return (
                    f"transport over {a!r} is underdetermined: token {lab} is not "
                    "generated by the place-fibre tokens and the region relations"
                )
            placed = dict(zip(tgt_axis, la.combine(coords, targets, tdim)))
            out[lab] = tuple(placed.get(lab2, 0) for lab2 in full_axis)
        return out


# ---------------------------------------------------------------------------
# morphisms to compare on


def winskel_maps(rng):
    """The fold and the gluing projection of a Winskel loop onto ``m`` places."""
    m, w = rng.randint(1, 3), rng.randint(1, 2)
    ys = [f"y{i}" for i in range(m)]
    src = place_transition_net("wsrc", ["x"], ["t"], {"t": {"x": w}}, {"t": {"x": w}})
    tgt = place_transition_net(
        "wtgt", ys, ["s"], {"s": {y: w for y in ys}}, {"s": {y: w for y in ys}}
    )
    res = from_winskel(WinskelMorphism(src, tgt, beta={"x": {y: 1 for y in ys}}, eta={"t": "s"}))
    return [res.fold, res.projection]


def small(rng):
    return random_strict_net(rng, 3, 3)


def product_legs(rng):
    res = kronecker(random_strict_net(rng, 2, 3), random_strict_net(rng, 2, 2))
    return [res.left, res.right]


def morphisms_of(kind, rng):
    if kind == "identity":
        return [identity_morphism(small(rng))]
    if kind == "projection":
        return product_legs(rng)
    if kind == "winskel":
        return winskel_maps(rng)
    if kind == "fixture":
        return [fold_morphism(), unfolding_morphism(), squash_morphism()]
    if kind == "mediate":
        net = random_strict_net(rng, 2, 2)
        ident = identity_morphism(net)
        return [mediate(kronecker(net, net), ident, ident)]
    if kind == "diagonal":
        return [diagonal(random_strict_net(rng, 2, 2)).embedding]
    # composites of verified maps with identities on either side
    f = rng.choice(winskel_maps(rng) + product_legs(rng))
    f.require_verified()
    return [identity_morphism(f.source).then(f), f.then(identity_morphism(f.target))]


KINDS = {
    "Z": ("identity", "winskel", "fixture", "composite"),
    "Q": ("identity", "projection", "winskel", "fixture", "mediate", "diagonal", "composite"),
}
STEPS = {"Z": (1, -1), "Q": (1, -1, Fraction(1, 2), Fraction(-1, 2))}


def rebuilt(f, ring, move=None):
    """``f``'s data as a morphism over ``ring``, with the entry picked by
    ``move = (index, step)`` among all flow-image and mark entries moved."""
    flows = {a: [list(map(list, pair)) for pair in zip(*f.flow_maps[a])] for a in f.flow_maps}
    marks = {u: {lab: list(v) for lab, v in table.items()} for u, table in f.mark_maps.items()}
    entries = [img for pairs in flows.values() for _, img in pairs]
    entries += [v for table in marks.values() for v in table.values()]
    if move is not None:
        index, step = move
        slots = [(v, i) for v in entries for i in range(len(v))]
        v, i = slots[index % len(slots)]
        v[i] += step
    if ring == "Z" and any(Fraction(x).denominator != 1 for v in entries for x in v):
        return None
    return NetMorphism(f.source, f.target, f.space_map, flows, marks, ring=ring, name=f.name)


def drawn(ring, kind, seed, moved):
    """The morphisms one draw of the property compares, rebuilt over ``ring``."""
    rng = random.Random(seed)
    for f in morphisms_of(kind, rng):
        move = None
        if moved:
            move = (rng.randrange(10_000), rng.choice(STEPS[ring]))
        g = rebuilt(f, ring, move)
        if g is not None:
            yield g


def outcome(run):
    try:
        report = run()
    except (MorphismError, NetError) as exc:
        return type(exc).__name__, str(exc)
    details = [(c.clause, c.status, c.detail) for c in report.clauses]
    first = report.first_failure
    return details, first and first.clause


@pytest.mark.parametrize("ring", ["Z", "Q"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000), moved=st.booleans())
def test_integer_clauses_equal_the_fraction_reference(ring, data, seed, moved):
    kind = data.draw(st.sampled_from(KINDS[ring]), label="kind")
    for g in drawn(ring, kind, seed, moved):
        ref = Reference(g)
        want = outcome(ref.verify)
        assert outcome(g.verify) == want
        if ref.rewrites is not None:
            assert g._rewrites == ref.rewrites


def test_a_rational_fault_reads_the_same_in_both():
    # a half moved into the fold's first flow image fails a clause, and the
    # detail, rendered from integer rows, is the reference's
    fold = fold_morphism()
    g = rebuilt(fold, "Q", (0, Fraction(1, 2)))
    want = outcome(Reference(g).verify)
    assert want == outcome(g.verify)
    assert want[1] is not None


def shortcut_cases(g):
    """The cases of the two shortcuts of ``verify`` that ``g`` reaches:

    * ``lemma``: clause 3 is reached at an image place whose closure has a
      sort-respecting preimage, and clause 6 holds, so the lemma decides it;
    * ``discrete-fails-3``: a discrete morphism fails first at clause 3, where
      the guard keeps the per-flow loop;
    * ``tokens-in-transition-fibres``: class transport rewrites a token on a
      transition fibre, the case that keeps the canonical kernel;
    * ``units-fail-4b``: with no such token, class transport fails, so the
      canonical kernel is taken to name the failing vector.
    """
    ref = Reference(g)
    _, first = outcome(ref.verify)
    src, tgt, sm = g.source, g.target, g.space_map
    cases = set()
    respecting = any(
        all(
            src.space.sort_of(x) is tgt.space.sort_of(sm(x))
            for x in sm.preimage(tgt.space.basic_closed(u))
        )
        for u in g.image_places()
    )
    reached = first not in (CLAUSE_CONTINUITY, CLAUSE_FLOW_BASIS)
    if respecting and reached and ref.incidence_failure() is None:
        cases.add("lemma")
    if first == CLAUSE_FLOW_EXTENDS and sm.is_discrete():
        cases.add("discrete-fails-3")
    if ref.rewrites and any(ref.rewrites.values()):
        cases.add("tokens-in-transition-fibres")
    if first == CLAUSE_CLASS_TRANSPORT and all(
        tgt.space.is_place(sm(p)) for p in src.space.places
    ):
        cases.add("units-fail-4b")
    return cases


def test_the_property_draws_reach_every_shortcut_case():
    # the first seeds of each kind, unmoved and moved, as the property draws them
    seen = {ring: set() for ring in KINDS}
    for ring, kinds in KINDS.items():
        for kind in kinds:
            for seed in range(4):
                for moved in (False, True):
                    for g in drawn(ring, kind, seed, moved):
                        seen[ring] |= shortcut_cases(g)
    every = {"lemma", "discrete-fails-3", "tokens-in-transition-fibres", "units-fail-4b"}
    assert seen == {"Z": every, "Q": every}

"""Products, projections, mediating morphisms, diagonals, fibre products."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrisheaf import intlinalg as la
from petrisheaf.behaviour import fire, marking_vector, reachable
from petrisheaf.cli import random_strict_net
from petrisheaf.morphism import (
    MorphismError,
    NetMorphism,
    from_winskel,
    identity_morphism,
    morphisms_equal,
)
from petrisheaf.net import ColouredNet, place_transition_net, same_net
from petrisheaf.product import (
    ProductError,
    ProductResult,
    ReachCorrespondence,
    _elements,
    _integer_preimage,
    check_reachability_correspondence,
    diagonal,
    factor_cone,
    fibre_product,
    inverse_image,
    kronecker,
    mediate,
    product_marking,
    trace_markings,
)
from petrisheaf.topology import PetriSpace, SpaceMap

from fixtures import (
    bad_weight_target,
    fold_morphism,
    squash_morphism,
    squeeze_morphism,
    unfolding_morphism,
    winskel_data,
    x_net,
    y_net,
)
from test_net import strict_nets


def is_saturated_marking(result, marking):
    """True when the marking is the product of its own traces."""
    m = marking_vector(result.net, marking)
    t1, t2 = trace_markings(result, m)
    return product_marking(result, t1, t2) == m


def factors_through_diagonal(diag, morphism):
    """Oracle: True when a morphism into the square lands inside the diagonal.

    The morphism must be discrete.  Node images must be diagonal nodes, and
    the image of each binding and token must lie in the rational span of
    the embedded element images of its image node.
    """
    if not same_net(morphism.target, diag.product.net):
        raise ProductError("the morphism does not land in the squared net")
    image = morphism.space_map.image()
    if not set(image) <= set(diag.net.space.nodes):
        return False
    emb = diag.embedding
    spans = {
        y: la.Subspace(
            len(_elements(emb.target, y)),
            [emb.element_image(y, e) for e in _elements(diag.net, y)],
        )
        for y in image
    }
    return all(
        list(morphism.element_image(x, e)) in spans[morphism.space_map(x)]
        for x in morphism.source.space.nodes
        for e in _elements(morphism.source, x)
    )


def producer_net():
    """One place, one transition that nets a token each firing."""
    return place_transition_net(
        "grow", ["h"], ["g"], consume={"g": {"h": 1}}, produce={"g": {"h": 2}}
    )


def halt_net():
    """One place, one transition that is never enabled from small markings."""
    return place_transition_net(
        "halt", ["d"], ["k"], consume={"k": {"d": 5}}, produce={"k": {"d": 1}}
    )


def disjoint_copies_net():
    """Two side-by-side copies of the target net."""
    space = PetriSpace(
        [("u1", "place"), ("u2", "place"), ("a1", "transition"), ("a2", "transition")],
        [("u1", "a1"), ("u2", "a2")],
    )
    weights = {
        (t, b, p, "c"): 2
        for t, p in (("a1", "u1"), ("a2", "u2"))
        for b in ("b1", "b2")
    }
    return ColouredNet(
        space,
        bindings={"a1": ("b1", "b2"), "a2": ("b1", "b2")},
        tokens={"u1": ("c",), "u2": ("c",)},
        w_minus=dict(weights),
        w_plus=dict(weights),
        name="twoY",
    )


def copies_fold():
    """Merge both copies onto the target, binding by binding."""
    return NetMorphism(
        disjoint_copies_net(),
        y_net(),
        {"u1": "u", "u2": "u", "a1": "a", "a2": "a"},
        flow_maps={
            "a": [
                ((1, 0, 0, 0), (1, 0)),
                ((0, 1, 0, 0), (0, 1)),
                ((0, 0, 1, 0), (1, 0)),
                ((0, 0, 0, 1), (0, 1)),
            ]
        },
        mark_maps={"u": {("u1", "c"): (1,), ("u2", "c"): (1,)}},
        name="merge",
    )


def test_square_of_target_shape():
    res = kronecker(y_net(), y_net())
    net = res.net
    assert net.space.places == ("(u,u)",)
    assert net.space.transitions == ("(a,a)",)
    assert net.bindings["(a,a)"] == ("1:b1", "1:b2", "2:b1", "2:b2")
    assert net.tokens["(u,u)"] == ("1:c", "2:c")
    assert not net.strict
    assert net.ring == "Q"
    minus = net.incidence_matrix(kind="minus")
    assert [list(r) for r in minus.entries] == [[2, 2, 0, 0], [0, 0, 2, 2]]
    plus = net.incidence_matrix(kind="plus")
    assert plus.entries == minus.entries


def test_mixed_product_shape():
    res = kronecker(x_net(), y_net())
    net = res.net
    assert len(net.space.places) == 4
    assert len(net.space.transitions) == 6
    # AND adjacency: (p,u) next to (t,a) exactly when p is next to t
    assert ("(p1,u)", "(t1,a)") in net.space.adjacency
    assert ("(p3,u)", "(t1,a)") in net.space.adjacency
    assert ("(p3,u)", "(t4,a)") not in net.space.adjacency
    # side-1 weights ignore the second coordinate, side-2 the first
    assert net.w_minus("(t1,a)", "1:t1", "(p1,u)", "1:p1") == 1
    assert net.w_minus("(t1,a)", "1:t1", "(p3,u)", "1:p3") == 0
    assert net.w_plus("(t1,a)", "1:t1", "(p3,u)", "1:p3") == 1
    assert net.w_minus("(t1,a)", "2:b1", "(p3,u)", "2:c") == 2
    assert net.w_minus("(t1,a)", "2:b1", "(p3,u)", "1:p3") == 0
    # weights sit on non-adjacent pairs, hence relaxed
    assert net.w_minus("(t4,a)", "2:b1", "(p3,u)", "2:c") == 2
    assert ("(p3,u)", "(t4,a)") not in net.space.adjacency


def test_projections_verify_and_are_discrete():
    res = kronecker(x_net(), y_net())
    for proj in (res.left, res.right):
        report = proj.verify()
        assert report.ok, report.clauses
        cls = proj.classify()
        assert cls.discrete
        assert cls.abstraction


def test_product_flows_are_exactly_the_pairs_of_factor_flows():
    first, second = x_net(), y_net()
    res = kronecker(first, second)
    net = res.net
    for pp in net.space.places:
        region = net.space.basic_closed(pp)
        axis = net.binding_axis(region)
        flows = net.flows(region, ring="Q")
        p, q = res.pairs[pp]
        flows1 = first.flows(first.space.basic_closed(p), ring="Q")
        flows2 = second.flows(second.space.basic_closed(q), ring="Q")
        idx1 = {lab: i for i, lab in enumerate(flows1.axis)}
        idx2 = {lab: i for i, lab in enumerate(flows2.axis)}
        # every product flow traces to a flow of each factor
        for tau in flows.basis:
            t1 = [0] * len(flows1.axis)
            t2 = [0] * len(flows2.axis)
            for j, (node, tagged) in enumerate(axis):
                side, _, label = tagged.partition(":")
                s, t = res.pairs[node]
                if side == "1":
                    t1[idx1[(s, label)]] += tau[j]
                else:
                    t2[idx2[(t, label)]] += tau[j]
            assert flows1.contains(t1)
            assert flows2.contains(t2)
        # and planting a factor flow on any partner column gives a product flow
        partner1, partner2 = {}, {}
        for node in region:
            if net.space.is_transition(node):
                s, t = res.pairs[node]
                partner1.setdefault(s, node)
                partner2.setdefault(t, node)
        pos = {lab: j for j, lab in enumerate(axis)}
        for phi in flows1.basis:
            planted = [0] * len(axis)
            for (s, b), v in zip(flows1.axis, phi):
                if v:
                    planted[pos[(partner1[s], f"1:{b}")]] = v
            assert flows.contains(planted)
        for phi in flows2.basis:
            planted = [0] * len(axis)
            for (t, b), v in zip(flows2.axis, phi):
                if v:
                    planted[pos[(partner2[t], f"2:{b}")]] = v
            assert flows.contains(planted)


def test_product_marking_and_traces():
    res = kronecker(y_net(), y_net())
    m = product_marking(res, {("u", "c"): 2}, {("u", "c"): 3})
    assert m == (2, 3)
    t1, t2 = trace_markings(res, m)
    assert t1 == (2,)
    assert t2 == (3,)
    assert is_saturated_marking(res, m)


def test_trace_scaling_and_saturation_failure():
    res = kronecker(y_net(), x_net())
    net = res.net
    # one token on a single pairing is not a product of traces
    m = marking_vector(net, {("(u,p1)", "1:c"): 1})
    t1, t2 = trace_markings(res, m)
    assert t1 == (Fraction(1, 4),)
    assert t2 == (0, 0, 0, 0)
    assert not is_saturated_marking(res, m)
    # replicating the token across all pairings is
    sat = product_marking(res, (1,), (0, 0, 0, 0))
    assert is_saturated_marking(res, sat)
    assert trace_markings(res, sat) == ((1,), (0, 0, 0, 0))


def test_side_events_fire_componentwise():
    first, second = x_net(), y_net()
    res = kronecker(first, second)
    m1, m2 = (1, 1, 0, 0), (2,)
    start = product_marking(res, m1, m2)
    assert is_saturated_marking(res, start)
    stepped = fire(res.net, start, "(t1,a)", "1:t1")
    fired1 = fire(first, m1, "t1", "t1")
    assert stepped == product_marking(res, fired1, m2)
    assert is_saturated_marking(res, stepped)
    back1, back2 = trace_markings(res, stepped)
    assert back1 == fired1
    assert back2 == m2


def test_mediating_of_projections_is_identity():
    res = kronecker(y_net(), y_net())
    med = mediate(res, res.left, res.right)
    assert med.verify().ok
    ident = identity_morphism(res.net)
    ident.verify()
    assert morphisms_equal(med, ident)
    assert morphisms_equal(med.then(res.left), res.left)
    assert morphisms_equal(med.then(res.right), res.right)


def test_mediating_of_identities_is_the_diagonal():
    y = y_net()
    diag = diagonal(y)
    assert diag.embedding.verify().ok
    med = mediate(diag.product, identity_morphism(y), identity_morphism(y))
    assert med.verify().ok
    assert morphisms_equal(med, diag.iso.then(diag.embedding))
    assert factors_through_diagonal(diag, med)
    assert morphisms_equal(med.then(diag.product.left), identity_morphism(y))


def test_diagonal_of_the_target_verifies_everywhere():
    y = y_net()
    diag = diagonal(y)
    # the diagonal subnet is a renamed copy of the base net
    assert diag.net.space.places == ("(u,u)",)
    assert diag.net.space.transitions == ("(a,a)",)
    assert diag.net.bindings["(a,a)"] == ("b1", "b2")
    assert diag.net.tokens["(u,u)"] == ("c",)
    assert diag.net.incidence_matrix(kind="minus").as_lists() == [[2, 2]]
    assert diag.iso.verify().ok
    assert diag.embedding.verify().ok
    cls = diag.embedding.classify()
    assert cls.embedding
    assert not cls.abstraction  # mark images span only the doubled line
    doubled = diag.iso.then(diag.embedding)
    assert doubled.verify().ok
    assert list(doubled.flow_image("(a,a)", [1, 0])) == [1, 0, 1, 0]
    assert list(doubled.flow_image("(a,a)", [0, 1])) == [0, 1, 0, 1]


def test_diagonal_embedding_fails_on_an_unbalanced_net():
    # a transition touching several places with a nonzero difference column
    # has a diagonal relation that no product relation can match; the
    # inclusion then honestly fails class transport while the renaming iso
    # is untouched
    x = x_net()
    diag = diagonal(x)
    assert len(diag.product.net.space.places) == 16
    assert len(diag.product.net.space.transitions) == 36
    assert diag.net.space.places == tuple(f"({p},{p})" for p in x.space.places)
    assert diag.net.space.transitions == tuple(f"({t},{t})" for t in x.space.transitions)
    assert diag.net.incidence_matrix().as_lists() == x.incidence_matrix().as_lists()
    assert diag.iso.verify().ok
    report = diag.embedding.verify()
    assert report.status == "failed"
    assert report.first_failure.clause == "class-transport"


def test_factoring_through_the_diagonal_detects_equal_components():
    unfold = unfolding_morphism()
    target = unfold.target
    res = kronecker(target, target)
    diag = diagonal(target)
    same = mediate(res, unfold, unfold)
    assert same.verify().ok
    assert factors_through_diagonal(diag, same)
    # swapping the binding images gives a second folding; the pairing of the
    # two verifies but no longer lands on the diagonal
    swapped = NetMorphism(
        unfold.source,
        target,
        dict(unfold.space_map.mapping),
        flow_maps={"a": [((1, 0), (0, 1)), ((0, 1), (1, 0))]},
        mark_maps={"u": {("v", "v"): (1,)}},
        name="unfold-swapped",
    )
    mixed = mediate(res, unfold, swapped)
    assert mixed.verify().ok
    assert not factors_through_diagonal(diag, mixed)


def test_mediate_rejects_non_discrete():
    fold = fold_morphism()
    res = kronecker(fold.target, fold.target)
    with pytest.raises(ProductError, match="discrete"):
        mediate(res, fold, fold)


def test_mediate_rejects_different_sources():
    # two parses of one net are one source; a net that differs is not
    res = kronecker(y_net(), y_net())
    med = mediate(res, identity_morphism(y_net()), identity_morphism(y_net()))
    assert med.verify().ok
    heavier = bad_weight_target()
    into_y = identity_morphism(y_net())
    with pytest.raises(ProductError, match="source"):
        mediate(kronecker(heavier, y_net()), identity_morphism(heavier), into_y)


def test_nets_that_differ_only_in_weights_are_different_nets():
    # runY and its copy whose b2 weighs 3: same nodes, bindings and tokens
    y, heavier = y_net(), bad_weight_target()
    ident, other = identity_morphism(y), identity_morphism(heavier)
    with pytest.raises(MorphismError, match="do not compose"):
        ident.then(other)
    with pytest.raises(ProductError, match="does not land in factor 2"):
        mediate(kronecker(y, heavier), ident, ident)
    with pytest.raises(ProductError, match="common target"):
        fibre_product(ident, other)
    with pytest.raises(ProductError, match="common target"):
        inverse_image(ident, other)
    inverse = fibre_product(ident, ident).inverse
    square = identity_morphism(inverse.into_source.target)
    heavier_square = identity_morphism(kronecker(heavier, heavier).net)
    with pytest.raises(ProductError, match="cone legs must share their source"):
        factor_cone(inverse, square, heavier_square)
    with pytest.raises(ProductError, match="first cone leg must land"):
        factor_cone(inverse, heavier_square, heavier_square)
    with pytest.raises(ProductError, match="squared net"):
        factors_through_diagonal(diagonal(y), heavier_square)


def tagged_pairing(labels, first, img1, second, img2):
    """The product vector over ``labels`` whose ``1:`` entries copy ``img1``
    (over the labels ``first``) and whose ``2:`` entries copy ``img2``."""
    entries = {f"1:{lab}": v for lab, v in zip(first, img1)}
    entries.update({f"2:{lab}": v for lab, v in zip(second, img2)})
    assert set(entries) == set(labels)
    return [entries[lab] for lab in labels]


def leg_unit(leg, x, b):
    """The unit binding ``(x, b)`` on the fibre of ``leg`` over ``x``'s image."""
    axis = leg.source.binding_axis(leg.space_map.fibre(leg.space_map(x)))
    return [1 if lab == (x, b) else 0 for lab in axis]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_mediate_pairs_the_element_images_of_its_legs(seed):
    net = small_net(seed)
    res = kronecker(net, net)
    ident = identity_morphism(net)
    first, second = res.factors
    for med, g1, g2 in (
        (mediate(res, ident, ident), ident, ident),
        (mediate(res, res.left, res.right), res.left, res.right),
    ):
        src = g1.source
        for n in med.image_transitions():
            y1, y2 = res.pairs[n]
            axis = src.binding_axis(med.space_map.fibre(n))
            basis, images = med.flow_maps[n]
            assert [list(v) for v in basis] == [leg_unit(med, x, b) for x, b in axis]
            for (x, b), img in zip(axis, images):
                want = tagged_pairing(
                    res.net.bindings[n],
                    first.bindings[y1],
                    g1.flow_image(y1, leg_unit(g1, x, b)),
                    second.bindings[y2],
                    g2.flow_image(y2, leg_unit(g2, x, b)),
                )
                assert list(img) == want
                assert all(type(v) is Fraction for v in img)
        for n in med.image_places():
            y1, y2 = res.pairs[n]
            for lab, img in med.mark_maps[n].items():
                want = tagged_pairing(
                    res.net.tokens[n],
                    first.tokens[y1],
                    g1.mark_maps[y1][lab],
                    second.tokens[y2],
                    g2.mark_maps[y2][lab],
                )
                assert list(img) == want
                assert all(type(v) is Fraction for v in img)


def test_fibre_product_of_identities_rebuilds_the_net():
    y = y_net()
    fp = fibre_product(identity_morphism(y), identity_morphism(y))
    net = fp.net
    assert net.space.places == ("(u,u)",)
    assert net.space.transitions == ("(a,a)",)
    assert net.tokens["(u,u)"] == ("g1",)
    assert net.bindings["(a,a)"] == ("g1", "g2")
    minus = net.incidence_matrix(kind="minus")
    assert [list(r) for r in minus.entries] == [[2, 2]]
    plus = net.incidence_matrix(kind="plus")
    assert [list(r) for r in plus.entries] == [[2, 2]]
    assert net.flows().rank == y.flows().rank
    assert net.marking_classes(net.space.nodes).rank == y.marking_classes(y.space.nodes).rank
    assert fp.inverse.bases["(a,a)"] == (
        ("g1", (1, 0, 1, 0)),
        ("g2", (0, 1, 0, 1)),
    )
    assert fp.inverse.bases["(u,u)"] == (("g1", (1, 1)),)
    assert fp.inverse.square_commutes
    for leg in (fp.left, fp.right, fp.basis):
        assert leg.verify().ok
    # both projections and the structure morphism agree for equal legs
    assert morphisms_equal(fp.basis, fp.left)
    assert morphisms_equal(fp.basis, fp.right)


def test_fibre_product_of_unfoldings_keeps_synchronized_pairs():
    unfold = unfolding_morphism()
    fp = fibre_product(unfold, unfold)
    net = fp.net
    assert net.space.places == ("(v,v)",)
    assert net.space.transitions == ("(beta1,beta1)", "(beta2,beta2)")
    assert net.bindings["(beta1,beta1)"] == ("g1",)
    assert net.bindings["(beta2,beta2)"] == ("g1",)
    assert net.tokens["(v,v)"] == ("g1",)
    assert net.incidence_matrix(kind="minus").as_lists() == [[2, 2]]
    assert net.incidence_matrix(kind="plus").as_lists() == [[2, 2]]
    # mixed transition pairs carry no synchronized bindings and are dropped
    assert fp.inverse.bases["(beta1,beta2)"] == ()
    assert fp.inverse.bases["(beta2,beta1)"] == ()
    assert fp.inverse.square_commutes
    for leg in (fp.left, fp.right, fp.basis):
        assert leg.verify().ok
    src_nodes = set(unfold.source.space.nodes)
    assert {fp.left.space_map(x) for x in net.space.nodes} == src_nodes
    assert {fp.right.space_map(x) for x in net.space.nodes} == src_nodes
    assert {fp.basis.space_map(x) for x in net.space.nodes} == set(
        unfold.target.space.nodes
    )


def test_fibre_product_of_disjoint_copies_has_no_carrier():
    # the square's weights are constant across the other coordinate, so at a
    # mixed place pair the rebased weight leaves the synchronized token
    # module; there is no subnet to return and the construction says so
    fold = copies_fold()
    assert fold.verify().ok
    with pytest.raises(ProductError, match="leave the refined token module"):
        fibre_product(fold, fold)


def test_cone_factors_through_the_fibre_product():
    y = y_net()
    ident = identity_morphism(y)
    fp = fibre_product(ident, ident, cones=[(ident, ident)])
    assert len(fp.cone_factorizations) == 1
    u = fp.cone_factorizations[0]
    assert u.verify().ok
    assert morphisms_equal(u.then(fp.left), ident)
    assert morphisms_equal(u.then(fp.right), ident)


def discrete_morphisms(net):
    """The verified ones among the discrete morphisms around a net: its
    identity, the projections of its square, the pairing of two identities,
    and composites of these."""
    ident = identity_morphism(net)
    square = kronecker(net, net)
    out = [ident, square.left, square.right, ident.then(ident), square.left.then(ident)]
    pairing = mediate(square, ident, ident)
    if pairing.verify().ok:
        out += [pairing, pairing.then(square.left), pairing.then(square.right)]
    # morphisms_equal needs verified morphisms; the pairing's composite with
    # a projection can fail incidence-compat (the projections' 1/|P| mark
    # scale), a product defect outside this round-trip property
    return [g for g in out if g.verify().ok]


def test_discrete_morphisms_are_rebuilt_from_their_element_images():
    winskel = from_winskel(winskel_data())
    morphisms = [winskel.fold, winskel.projection, unfolding_morphism()]
    for seed in range(60):
        morphisms += discrete_morphisms(random_strict_net(random.Random(seed), 3, 3))
    assert len(morphisms) > 300
    for g in morphisms:
        assert g.space_map.is_discrete()
        rebuilt = NetMorphism.discrete(
            g.source, g.target, g.space_map.mapping, g.element_image, ring=g.ring
        )
        assert morphisms_equal(rebuilt, g), g.name


def test_the_cartesian_square_commutes_on_data():
    # square_commutes compares the two composites on data, as the
    # morphisms_equal below does for the square over the target's diagonal
    built = 0
    for seed in range(120):
        ident = identity_morphism(random_strict_net(random.Random(seed), 3, 3))
        try:
            fp = fibre_product(ident, ident)
        except ProductError:
            continue
        built += 1
        inv = fp.inverse
        assert inv.square_commutes
        assert morphisms_equal(
            inv.into_source.then(fp.mediating), inv.to_subnet.then(fp.diagonal.embedding)
        ), seed
    assert built == 46


def test_inverse_image_of_the_whole_target_is_the_source():
    unfold = unfolding_morphism()
    whole = identity_morphism(unfold.target)
    res = inverse_image(unfold, whole)
    src = unfold.source
    assert res.net.space.nodes == src.space.nodes
    assert res.net.bindings == src.bindings
    assert res.net.tokens == src.tokens
    assert res.net.incidence_matrix(kind="minus").as_lists() == src.incidence_matrix(
        kind="minus"
    ).as_lists()
    assert res.net.incidence_matrix(kind="plus").as_lists() == src.incidence_matrix(
        kind="plus"
    ).as_lists()
    assert res.square_commutes
    assert res.into_source.verify().ok
    assert all(res.into_source.space_map(x) == x for x in res.net.space.nodes)
    assert morphisms_equal(res.to_subnet, unfold)


def reference_preimage(m, target, cols):
    """``{x in Q^cols : m @ x in target}``: the kernel of the block matrix
    ``[m | -B]`` (``B`` a basis of ``target``) with the auxiliary coordinates
    projected away."""
    rows, cols = la.shape(m, cols)
    k = target.rank
    block = [
        list(row) + [-x for x in col] for row, col in zip(m, la.transpose(target.basis, rows))
    ]
    return la.Q.module(cols, [v[:cols] for v in la.Q.kernel(block, cols + k).basis])


def reference_integer_points(subspace):
    """The lattice of integer vectors inside a rational subspace."""
    n = subspace.ambient_dim
    if subspace.rank == 0:
        return la.Lattice(n)
    if subspace.rank == n:
        return la.Lattice(n, la.identity(n))
    rows = [list(b) for b in subspace.basis]
    constraints = [la._integer_row(c)[0] for c in la.Q.kernel(rows, n).basis]
    return la.kernel_lattice(constraints, n)


small_scalars = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
)
refinement_cases = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(
        st.lists(st.lists(small_scalars, min_size=dim, max_size=dim), min_size=1, max_size=3),
        st.lists(st.lists(small_scalars, min_size=dim, max_size=dim), max_size=3),
    )
)


@given(case=refinement_cases)
@settings(max_examples=150)
def test_inverse_image_refinement_equals_the_rational_preimage_route(case):
    # the route inverse_image took before it read one integer kernel: the
    # rational preimage of the span, then the integer points inside it
    cols, generators = case
    dim = len(cols[0])
    span = la.Subspace(dim, generators)
    normals = [la._integer_row(n)[0] for n in la.Q.kernel(generators, dim).basis]
    got = _integer_preimage(cols, normals)
    pre = reference_preimage(la.transpose(cols, dim), span, len(cols))
    assert got == reference_integer_points(pre)
    for v in itertools.product(range(-2, 3), repeat=len(cols)):
        assert (list(v) in got) == (la.combine(v, cols, dim) in span)


def test_inverse_image_requires_discrete_map():
    fold = fold_morphism()
    with pytest.raises(ProductError, match="discrete"):
        inverse_image(fold, fold)


def test_inverse_image_requires_embedding():
    y = y_net()
    ident = identity_morphism(y)
    fold = fold_morphism()
    with pytest.raises(ProductError, match="embedding"):
        inverse_image(ident, fold)


def test_reachability_correspondence_ok():
    res = kronecker(x_net(), y_net())
    out = check_reachability_correspondence(res, (1, 1, 0, 0), (2,), depth=5)
    assert out.status == "ok", out.detail
    assert out.product_count == out.first_count * out.second_count
    assert out.second_count == 1
    assert out.first_count > 1


def test_reachability_correspondence_counts_multiply_under_growth():
    net = producer_net()
    res = kronecker(net, net)
    out = check_reachability_correspondence(res, (1,), (1,), depth=3)
    assert out.status == "ok", out.detail
    assert out.first_count == 4
    assert out.second_count == 4
    assert out.product_count == 16


def test_reachability_correspondence_with_a_dead_factor():
    res = kronecker(producer_net(), halt_net())
    out = check_reachability_correspondence(res, (1,), (1,), depth=4)
    assert out.status == "ok", out.detail
    assert out.second_count == 1
    assert out.first_count == 5
    assert out.product_count == 5


def test_reachability_budget_exhaustion_is_inconclusive():
    net = producer_net()
    res = kronecker(net, net)
    out = check_reachability_correspondence(res, (1,), (1,), depth=3, max_states=3)
    assert out.status == "inconclusive"
    assert "budget" in out.detail


@settings(max_examples=15, deadline=None)
@given(strict_nets())
def test_projection_round_trip_on_random_nets(net):
    res = kronecker(net, y_net())
    assert res.left.verify().ok
    assert res.right.verify().ok
    ones = tuple(1 for _ in net.token_axis())
    m = product_marking(res, ones, (5,))
    assert is_saturated_marking(res, m)
    t1, t2 = trace_markings(res, m)
    assert t1 == ones
    assert t2 == (5,)


# ---------------------------------------------------------------------------
# integer traces against the plain Fraction path


def ring_net(n, colours=1):
    """A cycle of ``n`` places; each colour moves one step per firing."""
    places = [f"r{i}" for i in range(n)]
    transitions = [f"s{i}" for i in range(n)]
    space = PetriSpace(
        [(p, "place") for p in places] + [(t, "transition") for t in transitions],
        [(places[i], transitions[i]) for i in range(n)]
        + [(places[(i + 1) % n], transitions[i]) for i in range(n)],
    )
    cs = [f"c{k}" for k in range(colours)]
    bs = [f"b{k}" for k in range(colours)]
    w_minus = {(transitions[i], b, places[i], c): 1 for i in range(n) for b, c in zip(bs, cs)}
    w_plus = {
        (transitions[i], b, places[(i + 1) % n], c): 1 for i in range(n) for b, c in zip(bs, cs)
    }
    return ColouredNet(
        space,
        {t: tuple(bs) for t in transitions},
        {p: tuple(cs) for p in places},
        w_minus,
        w_plus,
        name=f"ring{n}x{colours}",
    )


def dense_map_marking(morphism, values):
    """The sum of products over the transport matrix, entry by entry."""
    transport = morphism.marking_transport()
    return [sum(row[j] * values[j] for j in range(len(values))) for row in transport]


def reference_correspondence(result, first_marking, second_marking, depth=5, max_states=10_000):
    """The correspondence check tracing every product marking twice, through
    ``is_saturated_marking`` and ``trace_markings``."""
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
            "inconclusive", "product exploration hit the state budget", n1, n2, len(rp.markings)
        )
    pairings = {product_marking(result, a, b) for a in r1.markings for b in r2.markings}
    if len(pairings) != n1 * n2:
        return ReachCorrespondence(
            "failed", "distinct component pairs collapse in the product", n1, n2, len(pairings)
        )
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
    integral = (
        first.ring == "Z"
        and second.ring == "Z"
        and all(Fraction(x).denominator == 1 for x in start)
    )
    matched = 0
    for m in rp.markings:
        if not is_saturated_marking(result, m):
            return ReachCorrespondence(
                "failed", "unsaturated marking reached in the product", n1, n2, matched
            )
        if integral and any(Fraction(x).denominator != 1 for x in m):
            return ReachCorrespondence(
                "failed", "non-integral marking reached in the product", n1, n2, matched
            )
        t1, t2 = trace_markings(result, m)
        if t1 not in w1.markings or t2 not in w2.markings:
            if w1.budget_exhausted or w2.budget_exhausted:
                return ReachCorrespondence(
                    "inconclusive", "component exploration hit the state budget", n1, n2, matched
                )
            return ReachCorrespondence(
                "failed", "a product state traces outside the component reach", n1, n2, matched
            )
        if t1 in r1.markings and t2 in r2.markings:
            matched += 1
    if matched != n1 * n2:
        return ReachCorrespondence(
            "failed", "reachable state counts do not multiply", n1, n2, matched
        )
    return ReachCorrespondence("ok", "", n1, n2, matched)


def small_net(seed):
    return random_strict_net(random.Random(seed), 3, 3)


FIXED_NETS = {
    "ring3": lambda: ring_net(3),
    "ring4x2": lambda: ring_net(4, colours=2),
    "x": x_net,
    "y": y_net,
}
factor_nets = st.one_of(
    st.integers(0, 10_000).map(small_net),
    st.sampled_from(sorted(FIXED_NETS)).map(lambda name: FIXED_NETS[name]()),
)
token_counts = st.one_of(st.integers(0, 3), st.builds(Fraction, st.integers(0, 6), st.integers(1, 4)))


def start_marking(net, rng):
    return tuple(rng.randint(0, 2) for _ in net.token_axis())


@settings(max_examples=25, deadline=None)
@given(factor_nets, factor_nets, st.integers(0, 1000), st.data())
def test_map_marking_equals_the_dense_product(first, second, seed, data):
    rng = random.Random(seed)
    res = kronecker(first, second)
    start = product_marking(res, start_marking(first, rng), start_marking(second, rng))
    reached = sorted(reachable(res.net, start, depth=2, max_states=200).markings)
    size = len(res.net.token_axis())
    vectors = [list(m) for m in reached[:20]] + [
        data.draw(st.lists(token_counts, min_size=size, max_size=size)) for _ in range(3)
    ]
    morphisms = [res.left, res.right, identity_morphism(first), identity_morphism(res.net)]
    for f in morphisms:
        n = len(f.source.token_axis())
        for values in vectors if n == size else [list(start_marking(f.source, rng))]:
            got = f.map_marking(values)
            want = dense_map_marking(f, values)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]
    assert all(type(x) is Fraction for x in res.left.map_marking(list(start)))
    ident = identity_morphism(first)
    assert all(type(x) is int for x in ident.map_marking(start_marking(first, rng)))


def test_map_marking_types_follow_the_transport_rows():
    fold = fold_morphism()
    values = [1, 2, 0, 3]
    assert fold.map_marking(values) == dense_map_marking(fold, values)
    assert all(type(x) is int for x in fold.map_marking(values))
    halves = [Fraction(1, 2), 0, 0, 1]
    got = fold.map_marking(halves)
    assert got == dense_map_marking(fold, halves)
    assert all(type(x) is Fraction for x in got)
    with pytest.raises(MorphismError, match="wrong length"):
        fold.map_marking([1, 2])
    # over Q, a target place outside the image keeps a transport row of ints
    into_first = NetMorphism(
        y_net(),
        disjoint_copies_net(),
        {"u": "u1", "a": "a1"},
        flow_maps={"a1": [((1, 0), (1, 0)), ((0, 1), (0, 1))]},
        mark_maps={"u1": {("u", "c"): (1,)}},
        ring="Q",
    )
    assert into_first.verify().ok
    for values in ([3], [Fraction(3, 2)]):
        got = into_first.map_marking(values)
        want = dense_map_marking(into_first, values)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
    assert [type(x) for x in into_first.map_marking([3])] == [Fraction, int]


@settings(max_examples=20, deadline=None)
@given(factor_nets, factor_nets, st.integers(0, 1000), st.sampled_from([1, 2]))
def test_correspondence_equals_the_two_trace_reference(first, second, seed, depth):
    rng = random.Random(seed)
    res = kronecker(first, second)
    m1, m2 = start_marking(first, rng), start_marking(second, rng)
    # a product net with one output weight raised reaches unsaturated
    # markings, so the failing branches are compared as well
    for result in (res, ProductResult(bumped(res.net, rng), res.left, res.right, res.pairs)):
        for max_states in (10_000, 12):
            got = check_reachability_correspondence(
                result, m1, m2, depth=depth, max_states=max_states
            )
            want = reference_correspondence(result, m1, m2, depth=depth, max_states=max_states)
            assert got == want


@settings(max_examples=20, deadline=None)
@given(factor_nets, factor_nets, st.integers(0, 1000))
def test_reached_product_markings_copy_their_traces(first, second, seed):
    # the lemma that lets check_reachability_correspondence read a reached
    # marking by its token layout: each product token copies one factor
    # token, every copy of it holds one value, and that value is the trace
    rng = random.Random(seed)
    res = kronecker(first, second)
    assert res.left.verify().ok
    assert res.right.verify().ok
    copied = []
    for node, tagged in res.net.token_axis():
        side, label = int(tagged[0]), tagged[2:]
        copied.append((side, res.pairs[node][side - 1], label))
    start = product_marking(res, start_marking(first, rng), start_marking(second, rng))
    for m in reachable(res.net, start, depth=4, max_states=300).markings:
        values = {}
        for key, v in zip(copied, m):
            values.setdefault(key, set()).add(v)
        assert all(len(vs) == 1 for vs in values.values())
        t1, t2 = trace_markings(res, m)
        for trace, factor, side in ((t1, first, 1), (t2, second, 2)):
            assert list(trace) == [values[side, p, c].pop() for p, c in factor.token_axis()]


def bumped(net, rng):
    """A copy of ``net`` with one output weight raised by one."""
    w_minus = dict(net.arcs("minus"))
    w_plus = dict(net.arcs("plus"))
    if not w_plus:
        return net
    key = rng.choice(sorted(w_plus))
    w_plus[key] += 1
    return ColouredNet(
        net.space, net.bindings, net.tokens, w_minus, w_plus,
        strict=net.strict, ring=net.ring, name=f"{net.name}+",
    )


def fibre_flows(f, a, rng):
    """A few fibre flow vectors over ``a``: the basis and random combinations."""
    basis = [list(v) for v in f.flow_maps[a][0]]
    combos = []
    for _ in range(3):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        combos.append([sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(len(basis[0]))])
    return basis + combos if basis else []


@settings(max_examples=20, deadline=None)
@given(factor_nets, factor_nets, st.integers(0, 1000))
def test_flow_image_memo_equals_a_fresh_morphism(first, second, seed):
    rng = random.Random(seed)
    res = kronecker(first, second)
    cases = []
    for side, f in (("left", res.left), ("right", res.right)):
        for a in f.image_transitions():
            cases += [(side, a, v) for v in fibre_flows(f, a, rng)]
    rng.shuffle(cases)
    # left and right share their source net; their calls interleave over
    # every image transition, then answers are asked of a fresh product
    got = [getattr(res, side).flow_image(a, v) for side, a, v in cases]
    again = [getattr(res, side).flow_image(a, v) for side, a, v in cases]
    assert got == again
    for (side, a, v), image in list(zip(cases, got))[:8]:
        assert getattr(kronecker(first, second), side).flow_image(a, v) == image
    for side, a, v in cases[:3]:
        with pytest.raises(MorphismError, match="wrong length"):
            getattr(res, side).flow_image(a, v + [0])


def dense_composite_marks(f, g):
    """The mark data of ``f.then(g)`` as composition built it before it
    pushed each column of the first transport through ``g.map_marking``: the
    dense product of the two transports, read one source token at a time."""
    t1, t2 = f.marking_transport(), g.marking_transport()
    src_axis, out_axis = f.source.token_axis(), g.target.token_axis()
    node_map = {x: g.space_map(y) for x, y in f.space_map.mapping.items()}
    composed = SpaceMap(f.source.space, g.target.space, node_map)
    mark_maps = {}
    for u in g.target.space.places:
        if u not in node_map.values():
            continue
        table = mark_maps[u] = {}
        for lab in f.source.token_axis(composed.fibre(u)):
            j = src_axis.index(lab)
            out_vec = la.matvec(t2, [row[j] for row in t1])
            img = []
            for i, (q, _) in enumerate(out_axis):
                if q == u:
                    img.append(out_vec[i])
                elif out_vec[i]:
                    raise MorphismError("composite mark image leaks outside the image place")
            table[lab] = tuple(img)
    return mark_maps


def composition_pool(first, second):
    """Verified morphisms around two nets: identities, the projections of
    their products, pairings by ``mediate``, a Winskel fold and projection,
    the fixture maps whose transport runs through class transport, and the
    squeeze, whose flow basis is no unit basis."""
    square, pair = kronecker(first, first), kronecker(first, second)
    ident, squash = identity_morphism(first), squash_morphism()
    pool = [
        ident,
        identity_morphism(second),
        identity_morphism(pair.net),
        square.left,
        square.right,
        pair.left,
        pair.right,
        mediate(square, ident, ident),
        mediate(pair, pair.left, pair.right),
        identity_morphism(y_net()),
        fold_morphism(),
        unfolding_morphism(),
        squash,
        identity_morphism(squash.target),
    ]
    winskel = from_winskel(winskel_data())
    pool += [winskel.fold, winskel.projection, identity_morphism(winskel.merged)]
    pool.append(squeeze_morphism())
    return [g for g in pool if g.verify().ok]


@settings(max_examples=15, deadline=None)
@given(factor_nets, factor_nets)
def test_identities_are_units_of_composition(first, second):
    for f in composition_pool(first, second):
        for g in (identity_morphism(f.source).then(f), f.then(identity_morphism(f.target))):
            assert g.verify().ok, (f.name, g.verify().first_failure)
            assert morphisms_equal(g, f), f.name


@settings(max_examples=15, deadline=None)
@given(factor_nets, factor_nets)
def test_composite_marks_equal_the_dense_transport_product(first, second):
    pool = composition_pool(first, second)
    composed = 0
    for f in pool:
        for g in pool:
            if not same_net(g.source, f.target):
                continue
            composed += 1
            try:
                want = dense_composite_marks(f, g)
            except MorphismError as exc:
                with pytest.raises(MorphismError, match=str(exc)):
                    f.then(g)
                continue
            assert f.then(g).mark_maps == want, (f.name, g.name)
    assert composed >= 15

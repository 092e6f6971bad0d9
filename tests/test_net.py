"""Coloured nets: incidence, flows, marking classes, sheaf axioms."""

import math
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrisheaf import intlinalg as la
from petrisheaf.cli import axiom_sweep, random_strict_net
from petrisheaf.formats import parse_net, serialize_net
from petrisheaf.net import (
    AxiomReport,
    ColouredNet,
    NetError,
    _checked_cover,
    _positions,
    basic_covers,
    place_transition_net,
    same_net,
    verify_binding_cosheaf,
    verify_flow_gluing,
    verify_token_sheaf,
)
from petrisheaf.product import kronecker
from petrisheaf.topology import PetriSpace, SpaceError

from fixtures import (
    A1,
    TAU1,
    TAU2,
    TAU3,
    U1,
    X_COLUMNS,
    X_PLACES,
    X_TRANSITIONS,
    bad_weight_target,
    x_net,
    y_net,
)
from test_intlinalg import det_fraction, matmul, rat_rank


# ---------------------------------------------------------------------------
# construction and incidence


def test_incidence_matrix_matches_columns():
    net = x_net()
    mat = net.incidence_matrix()
    assert mat.row_labels == tuple((p, p) for p in X_PLACES)
    assert mat.col_labels == tuple((t, t) for t in X_TRANSITIONS)
    for j, t in enumerate(X_TRANSITIONS):
        assert tuple(mat.entries[i][j] for i in range(4)) == X_COLUMNS[t]


def test_target_net_weights():
    net = y_net()
    mat = net.incidence_matrix(kind="minus")
    assert mat.entries == ((2, 2),)
    assert net.incidence_matrix(kind="difference").entries == ((0, 0),)


def test_strict_support_must_match_adjacency():
    space = PetriSpace(
        [("p", "place"), ("t", "transition")], [("p", "t")]
    )
    with pytest.raises(NetError):
        # declared adjacency but no weight anywhere
        ColouredNet(space, {"t": ("t",)}, {"p": ("p",)}, {}, {})
    lonely = PetriSpace([("p", "place"), ("t", "transition")], [])
    with pytest.raises(NetError):
        # weight without adjacency
        ColouredNet(
            lonely, {"t": ("t",)}, {"p": ("p",)}, {("t", "t", "p", "p"): 1}, {}
        )
    # both are fine in relaxed mode
    ColouredNet(
        lonely,
        {"t": ("t",)},
        {"p": ("p",)},
        {("t", "t", "p", "p"): 1},
        {},
        strict=False,
    )


@pytest.mark.parametrize("value", [-1, Fraction(1, 2)], ids=["negative", "fractional"])
def test_weights_must_be_natural_numbers(value):
    space = PetriSpace([("p", "place"), ("t", "transition")], [("p", "t")])
    with pytest.raises(NetError, match="consume weight must be a natural number"):
        ColouredNet(space, {"t": ("t",)}, {"p": ("p",)}, {("t", "t", "p", "p"): value}, {})


def test_degenerate_nets_rejected():
    with pytest.raises(NetError):
        place_transition_net("bad", ("p",), (), {}, {})
    with pytest.raises(NetError):
        ColouredNet(
            PetriSpace([("p", "place"), ("t", "transition")], [("p", "t")]),
            {"t": ()},
            {"p": ("p",)},
            {("t", "t", "p", "p"): 1},
            {},
        )


def test_same_net_compares_the_data_and_not_the_name_ring_or_mode():
    y = y_net()
    plain = dict(y.arcs("minus")), dict(y.arcs("plus"))
    again = ColouredNet(y.space, y.bindings, y.tokens, *plain, strict=False, ring="Q", name="z")
    assert same_net(y, y) and same_net(y, again) and same_net(again, y)
    assert not same_net(y, bad_weight_target())
    assert not same_net(y, ColouredNet(y.space, y.bindings, {"u": ("c", "d")}, *plain))
    assert not same_net(y, ColouredNet(y.space, {"a": ("b2", "b1")}, y.tokens, *plain))
    # the same arcs on another adjacency, or on nodes in another order
    lonely = PetriSpace([("u", "place"), ("a", "transition")], [])
    assert not same_net(y, ColouredNet(lonely, y.bindings, y.tokens, *plain, strict=False))
    swapped = PetriSpace([("a", "transition"), ("u", "place")], [("u", "a")])
    assert not same_net(y, ColouredNet(swapped, y.bindings, y.tokens, *plain))


# ---------------------------------------------------------------------------
# flows


def test_flows_on_closed_fibre():
    net = x_net()
    flows = net.flows(A1)
    assert flows.axis == (("t1", "t1"), ("t2", "t2"), ("t3", "t3"), ("t4", "t4"))
    assert flows.rank == 2
    assert flows.contains((1, 0, 1, 0))
    assert flows.contains((1, 1, 0, 1))
    assert not flows.contains((1, 0, 0, 0))
    assert flows.same_module([(1, 0, 1, 0), (1, 1, 0, 1)])


def test_flows_on_whole_net():
    net = x_net()
    flows = net.flows()
    assert flows.rank == 3
    for tau in (TAU1, TAU2, TAU3):
        assert flows.contains(tau)
    assert flows.same_module([TAU1, TAU2, TAU3])


def test_rational_flows_take_one_echelon_per_kernel(monkeypatch):
    calls = []
    echelon = la._echelon

    def counting(m, cols):
        calls.append(cols)
        return echelon(m, cols)

    monkeypatch.setattr(la, "_echelon", counting)
    for region in (A1, None):
        calls.clear()
        flows = x_net().flows(region, ring="Q")
        assert calls == [len(flows.axis)]
        assert flows.module == la.Subspace(len(flows.axis), flows.module.basis)


def test_flows_need_closed_region():
    net = x_net()
    with pytest.raises(NetError):
        net.flows(U1 | {"t1"})  # t1 drags p1, p2 in


def test_restrict_flow_on_strict_net():
    net = x_net()
    assert net.restrict_flow(TAU2, net.space.nodes, A1) == [1, 1, 0, 1]
    # restriction to a transition point region is trivially a flow
    assert net.restrict_flow(TAU1, net.space.nodes, {"t5"}) == [0]


def test_restrict_flow_can_fail_on_relaxed_net():
    space = PetriSpace(
        [("q1", "place"), ("s1", "transition"), ("s2", "transition")],
        [("q1", "s1")],
    )
    net = ColouredNet(
        space,
        {"s1": ("s1",), "s2": ("s2",)},
        {"q1": ("q1",)},
        {("s2", "s2", "q1", "q1"): 1},
        {("s1", "s1", "q1", "q1"): 1},
        strict=False,
    )
    flows = net.flows()
    assert flows.contains((1, 1))
    with pytest.raises(NetError, match=r"not a flow .* \(relaxed net: restriction undefined here\)"):
        net.restrict_flow((1, 1), net.space.nodes, {"q1", "s1"})


# ---------------------------------------------------------------------------
# marking classes


def is_zero_class(classes, v):
    """Oracle: does the token vector ``v`` lie in the relations module?"""
    return list(v) in classes.relations


def test_marking_classes_on_open_region():
    net = x_net()
    classes = net.marking_classes(U1)
    assert classes.axis == (("p3", "p3"), ("p4", "p4"))
    assert classes.rank == 1
    assert classes.invariant_factors == (1,)
    assert classes.class_equal((1, 0), (0, 1))
    assert not classes.class_equal((1, 0), (0, 2))


def test_marking_classes_on_whole_net():
    net = x_net()
    classes = net.marking_classes()
    assert classes.rank == 1
    assert classes.invariant_factors == (1, 1, 1)
    assert classes.torsion == ()
    e = lambda i: tuple(1 if j == i else 0 for j in range(4))
    # all four tokens fall in one generating class
    assert classes.class_equal(e(0), e(1))
    assert classes.class_equal(e(1), e(2))
    assert classes.class_equal(e(2), e(3))
    assert not is_zero_class(classes, e(2))


def test_marking_classes_need_open_region():
    net = x_net()
    with pytest.raises(NetError):
        net.marking_classes(A1)


def test_class_extension():
    net = x_net()
    assert net.extend_class([5, 7], U1, net.space.nodes) == [0, 0, 5, 7]


# ---------------------------------------------------------------------------
# subnets


def test_subnet_of_closed_region():
    net = x_net()
    sub = net.subnet(A1)
    assert sub.space.places == ("p1", "p2")
    assert sub.space.transitions == ("t1", "t2", "t3", "t4")
    assert sub.strict
    mat = sub.incidence_matrix()
    assert mat.entries == ((-1, 1, 1, 0), (-1, 0, 1, 1))


def test_section_maps_refuse_bad_regions_and_lengths():
    net = x_net()
    nodes = net.space.nodes
    cases = [
        (net.restrict_token_section, [1, 2, 3, 4], U1, nodes, "restriction target is not"),
        (net.restrict_token_section, [1, 2, 3], nodes, U1, "token vector has the wrong length"),
        (net.extend_class, [5, 7], nodes, U1, "extension source is not"),
        (net.extend_class, [5, 7, 0], U1, nodes, "token vector has the wrong length"),
        (net.extend_binding_section, [1], nodes, A1, "extension source is not"),
        (net.extend_binding_section, [1], A1, nodes, "binding vector has the wrong length"),
        (net.restrict_flow, list(TAU2), A1, nodes, "restriction target is not"),
        (net.restrict_flow, [1, 1], nodes, A1, "flow vector has the wrong length"),
    ]
    for section_map, vector, first, second, message in cases:
        with pytest.raises(NetError, match=message):
            section_map(vector, first, second)
    assert net.extend_binding_section([1, 2, 3, 4], A1, nodes) == [1, 2, 3, 4, 0, 0]


# ---------------------------------------------------------------------------
# sheaf / cosheaf axioms, against the Čech reference (J. Curry, *Sheaves,
# Cosheaves and Applications*, 2014)


def map_matrix(section_map, src, dst, axis):
    """Matrix of ``section_map(vector, src, dst)`` on the ``axis`` sections:
    its columns are the images of the unit vectors of ``src``."""
    images = [section_map(unit, src, dst) for unit in la.identity(len(axis(src)))]
    return la.transpose(images, len(axis(dst)))


def cech(space, region, covering, axis, restriction):
    """The Čech data of a region's covering, for sections labelled by ``axis``.

    ``restriction(big, small)`` is the matrix from the sections of ``big`` to
    those of ``small``.  Returns the restrictions from the region to the
    cover elements stacked, the signed differences on pairwise overlaps (one
    row per overlap section: restriction from the first element minus
    restriction from the second) and the total cover dimension.
    """
    offsets = []
    total = 0
    for c in covering:
        offsets.append(total)
        total += len(axis(c))
    stack = [row for c in covering for row in restriction(region, c)]
    differences = []
    for (i, ci), (j, cj) in combinations(enumerate(covering), 2):
        overlap = space.ordered(set(ci) & set(cj))
        if not overlap:
            continue
        for row_i, row_j in zip(restriction(ci, overlap), restriction(cj, overlap)):
            row = [0] * total
            row[offsets[i] : offsets[i] + len(row_i)] = row_i
            row[offsets[j] : offsets[j] + len(row_j)] = [-x for x in row_j]
            differences.append(row)
    return stack, differences, total


def cech_token_sheaf(net, restrict, region=None, covering=None):
    """The equaliser condition of the token sheaf with the restriction map
    ``restrict(vector, big, small)``, decided over the net's ring."""
    checked = _checked_cover(net, "token-sheaf", region, covering, "open")
    if not checked:
        return checked
    region, covering = checked.region, checked.cover
    axis = net.token_axis

    def restriction(big, small):
        return map_matrix(restrict, big, small, axis)

    r, d, total = cech(net.space, region, covering, axis, restriction)
    n = len(axis(region))
    ring = la.RINGS[net.ring]
    failures = []
    if ring.kernel(r, n).basis:
        failures.append("restriction to the cover is not injective")
    if ring.module(total, la.transpose(r, n)) != ring.kernel(d, total):
        failures.append("image of sections differs from the agreeing families")
    return AxiomReport("token-sheaf", region, covering, not failures, failures)


def cech_binding_cosheaf(net, extend, region=None, covering=None):
    """The coequaliser condition of the binding cosheaf with the extension
    map ``extend(vector, small, big)``, decided over the net's ring."""
    checked = _checked_cover(net, "binding-cosheaf", region, covering, "closed")
    if not checked:
        return checked
    region, covering = checked.region, checked.cover
    axis = net.binding_axis

    # fed the transposed extensions, the stack is the sum of extensions
    # transposed and the difference rows are the overlap relations
    def restriction(big, small):
        return la.transpose(map_matrix(extend, small, big, axis), len(axis(small)))

    stack, d, total = cech(net.space, region, covering, axis, restriction)
    n = len(axis(region))
    ring = la.RINGS[net.ring]
    failures = []
    if not ring.module(n, stack).is_full():
        failures.append("cover sections do not generate the region sections")
    if ring.kernel(la.transpose(stack, n), total) != ring.module(total, d):
        failures.append("kernel of the sum differs from the overlap relations")
    return AxiomReport("binding-cosheaf", region, covering, not failures, failures)


def test_token_sheaf_axioms_on_running_example():
    net = x_net()
    assert verify_token_sheaf(net).ok
    for cover in basic_covers(net.space, kind="open"):
        assert verify_token_sheaf(net, covering=cover).ok


def test_binding_cosheaf_axioms_on_running_example():
    net = x_net()
    assert verify_binding_cosheaf(net).ok
    covers = basic_covers(net.space, kind="closed")
    for cover in covers[:16]:
        assert verify_binding_cosheaf(net, covering=cover).ok


def test_flow_gluing_on_running_example():
    net = x_net()
    assert verify_flow_gluing(net).ok
    report = verify_flow_gluing(net, A1, [net.space.basic_closed(p) for p in ("p1", "p2")])
    assert report.ok


def test_corrupted_restriction_fails_sheaf_axioms():
    net = x_net()

    def corrupt(vec, big, small):
        out = net.restrict_token_section(vec, big, small)
        if out:
            out[0] = 0  # drop information on the first token slot
        return out

    report = cech_token_sheaf(net, corrupt)
    assert not report.ok
    assert report.failures == [
        "restriction to the cover is not injective",
        "image of sections differs from the agreeing families",
    ]


def test_corrupted_extension_fails_cosheaf_axioms():
    net = x_net()

    def corrupt(vec, small, big):
        out = net.extend_binding_section(vec, small, big)
        if len(small) == 1 and out:
            out[0] += sum(vec)  # leak into an unrelated slot
        return out

    report = cech_binding_cosheaf(net, corrupt)
    assert not report.ok
    assert report.failures == ["kernel of the sum differs from the overlap relations"]


def test_non_generating_extension_fails_cosheaf_axioms():
    net = x_net()
    region = net.space.ordered(net.space.nodes)

    def doubled(vec, small, big):
        out = net.extend_binding_section(vec, small, big)
        if big == region:
            out = [2 * x for x in out]  # only even sections reach the region
        return out

    report = cech_binding_cosheaf(net, doubled)
    assert report.failures == ["cover sections do not generate the region sections"]


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_flow_gluing_fails_on_relaxed_net(ring):
    # t0 and t2 move tokens of p1 without being adjacent to it, so flows on
    # the cover elements need not glue to a flow of the whole net
    space = PetriSpace(
        [("p0", "place"), ("p1", "place")]
        + [(t, "transition") for t in ("t0", "t1", "t2")],
        [("p0", "t0"), ("p0", "t2"), ("p1", "t1")],
    )
    net = ColouredNet(
        space,
        {t: (t,) for t in space.transitions},
        {p: (p,) for p in space.places},
        {("t0", "t0", "p0", "p0"): 1, ("t0", "t0", "p1", "p1"): 2, ("t2", "t2", "p0", "p0"): 1},
        {("t2", "t2", "p1", "p1"): 1},
        strict=False,
        ring=ring,
    )
    report = verify_flow_gluing(net)
    assert report.failures == ["glued flows differ from the agreeing families"]


def test_bad_cover_reported():
    net = x_net()
    report = verify_token_sheaf(net, covering=[net.space.basic_open("t1")])
    assert not report.ok
    assert any("exhaust" in f for f in report.failures)


# ---------------------------------------------------------------------------
# random strict nets


@st.composite
def strict_nets(draw, max_places=4, max_transitions=4):
    np_ = draw(st.integers(1, max_places))
    nt = draw(st.integers(1, max_transitions))
    places = [f"q{i}" for i in range(np_)]
    transitions = [f"s{i}" for i in range(nt)]
    consume = {}
    produce = {}
    for t in transitions:
        consume[t] = {}
        produce[t] = {}
        for p in places:
            kind = draw(st.integers(0, 3))
            w = draw(st.integers(1, 3))
            if kind == 1:
                consume[t][p] = w
            elif kind == 2:
                produce[t][p] = w
            elif kind == 3:
                consume[t][p] = w
                produce[t][p] = draw(st.integers(1, 3))
    return place_transition_net("rand", places, transitions, consume, produce)


@given(strict_nets())
@settings(max_examples=40, deadline=None)
def test_axioms_hold_on_random_strict_nets(net):
    assert verify_token_sheaf(net).ok
    assert verify_binding_cosheaf(net).ok
    assert verify_flow_gluing(net).ok


@given(strict_nets())
@settings(max_examples=40, deadline=None)
def test_flow_restriction_total_on_strict_nets(net):
    flows = net.flows()
    for x in net.space.nodes:
        region = net.space.basic_closed(x)
        for b in flows.basis:
            out = net.restrict_flow(list(b), net.space.nodes, region)
            assert net.flows(region).contains(out)


@given(strict_nets())
@settings(max_examples=30, deadline=None)
def test_flows_agree_with_adjacent_only_form_on_strict_nets(net):
    # on a strict net, summing over all pairs in the region equals summing
    # over adjacent pairs only, because off-adjacency weights vanish
    region = net.space.nodes
    axis = net.binding_axis(region)
    rows = []
    for p, c in net.token_axis(region):
        row = []
        for t, b in axis:
            row.append(net.w(t, b, p, c) if net.space.adjacent(p, t) else 0)
        rows.append(row)
    assert la.kernel_lattice(rows, len(axis)) == net.flows(region).module


def determinantal_divisors(m, rows, cols):
    """``d_k``, the gcd of all k x k minors of ``m``, for k = 1 .. min(rows, cols)."""
    out = []
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                d = math.gcd(d, det_fraction([[m[i][j] for j in cs] for i in rs]))
        out.append(d)
    return out


@given(strict_nets())
@settings(max_examples=40, deadline=None)
def test_marking_classes_against_minors_and_the_rational_rank(net):
    # over Z the product of the first k invariant factors is the gcd of the
    # k x k minors of the incidence, and minors past its rank vanish
    for region in [net.space.nodes, *basic_regions(net.space, "open")]:
        mat = net.incidence_matrix(region)
        m, rows, cols = mat.as_lists(), len(mat.row_labels), len(mat.col_labels)
        rank = rat_rank(m, cols)
        classes = net.marking_classes(region, ring="Z")
        assert classes.rank == rows - rank
        factors = classes.invariant_factors
        assert len(factors) == rank
        divisors = determinantal_divisors(m, rows, cols)
        for k in range(1, len(divisors) + 1):
            assert divisors[k - 1] == (math.prod(factors[:k]) if k <= rank else 0)
        assert all(is_zero_class(classes, col) for col in la.transpose(m, cols))
        over_q = net.marking_classes(region, ring="Q")
        assert over_q.rank == rows - rank
        assert over_q.invariant_factors == ()


# ---------------------------------------------------------------------------
# memoised axes and flows, index projections against the Čech reference


@st.composite
def relaxed_nets(draw, max_places=3, max_transitions=3):
    """A relaxed net over Z or Q: one or two tokens per place and bindings
    per transition, a random adjacency, weights on any (binding, token)."""
    places = [f"q{i}" for i in range(draw(st.integers(1, max_places)))]
    transitions = [f"s{i}" for i in range(draw(st.integers(1, max_transitions)))]
    adjacency = [(p, t) for p in places for t in transitions if draw(st.booleans())]
    space = PetriSpace(
        [(p, "place") for p in places] + [(t, "transition") for t in transitions], adjacency
    )
    tokens = {p: tuple(f"c{k}" for k in range(draw(st.integers(1, 2)))) for p in places}
    bindings = {t: tuple(f"b{k}" for k in range(draw(st.integers(1, 2)))) for t in transitions}
    arcs = [(t, b, p, c) for t in transitions for b in bindings[t] for p in places for c in tokens[p]]
    weights = st.dictionaries(st.sampled_from(arcs), st.integers(1, 3), max_size=6)
    ring = draw(st.sampled_from(["Z", "Q"]))
    return ColouredNet(
        space, bindings, tokens, draw(weights), draw(weights), strict=False, ring=ring, name="rlx"
    )


any_nets = st.one_of(strict_nets(max_places=3, max_transitions=3), relaxed_nets())


def fresh_copy(net):
    return parse_net(serialize_net(net)).to_net()


def basic_regions(space, kind):
    basic = space.basic_open if kind == "open" else space.basic_closed
    return [basic(x) for x in space.nodes]


def report_fields(report):
    return report.kind, report.region, report.cover, report.ok, report.failures


def flow_fields(flows):
    return flows.region, flows.ring, flows.matrix, flows.module


@given(any_nets)
@settings(max_examples=40, deadline=None)
def test_memoised_axes_and_flows_match_a_fresh_copy(net):
    space = net.space
    regions = [None, *basic_regions(space, "open"), *basic_regions(space, "closed")]
    closed = [r for r in regions if r is None or space.is_closed(r)]
    # every call twice and interleaved, so that later calls are memo hits
    for _ in range(2):
        for region in regions:
            fresh = fresh_copy(net)
            nodes = [x for x in fresh.space.nodes if region is None or x in region]
            tokens = tuple((p, c) for p in nodes if p in fresh.tokens for c in fresh.tokens[p])
            bindings = tuple((t, b) for t in nodes if t in fresh.bindings for b in fresh.bindings[t])
            assert net.token_axis(region) == fresh.token_axis(region) == tokens
            assert net.binding_axis(region) == fresh.binding_axis(region) == bindings
        for ring in ("Q", "Z", None):
            for region in closed:
                fresh = fresh_copy(net)
                assert flow_fields(net.flows(region, ring)) == flow_fields(fresh.flows(region, ring))


@given(any_nets)
@settings(max_examples=30, deadline=None)
def test_flows_memo_keeps_rings_apart(net):
    for first, second in (("Z", "Q"), ("Q", "Z")):
        memo = fresh_copy(net)
        for region in [None, *basic_regions(net.space, "closed")]:
            a = memo.flows(region, ring=first)
            b = memo.flows(region, ring=second)
            assert flow_fields(a) == flow_fields(fresh_copy(net).flows(region, ring=first))
            assert flow_fields(b) == flow_fields(fresh_copy(net).flows(region, ring=second))
            assert memo.flows(region, ring=first) is a
            # the default ring is applied before the memo is consulted
            assert memo.flows(region) is memo.flows(region, ring=memo.ring)


@given(any_nets)
@settings(max_examples=30, deadline=None)
def test_non_closed_region_raises_on_every_call(net):
    net.flows()  # a memo entry for the whole net
    for region in basic_regions(net.space, "open"):
        if net.space.is_closed(region):
            continue
        for _ in range(2):
            with pytest.raises(NetError, match="not closed"):
                net.flows(region)


def test_unknown_nodes_raise_on_every_call():
    net = x_net()
    net.token_axis(U1)
    net.flows(A1)
    for _ in range(2):
        with pytest.raises(NetError):
            net.flows(U1)
        with pytest.raises(SpaceError, match="unknown nodes"):
            net.token_axis(U1 | {"zz"})
        with pytest.raises(SpaceError, match="unknown nodes"):
            net.flows(A1 | {"zz"})


def positions_matrix(positions, width):
    """The 0/1 matrix with one row per position: the unit row at it."""
    return [[1 if k == at else 0 for k in range(width)] for at in positions]


@given(any_nets)
@settings(max_examples=40, deadline=None)
def test_index_positions_equal_the_hook_matrices(net):
    space = net.space
    for kind in ("open", "closed"):
        for region in basic_regions(space, kind):
            for cover in basic_covers(space, region, kind=kind):
                for small in cover:
                    tokens = _positions(net, "tokens", region, small)
                    assert positions_matrix(tokens, len(net.token_axis(region))) == map_matrix(
                        net.restrict_token_section, region, small, net.token_axis
                    )
                    bindings = _positions(net, "bindings", region, small)
                    extension = map_matrix(
                        net.extend_binding_section, small, region, net.binding_axis
                    )
                    assert positions_matrix(bindings, len(net.binding_axis(region))) == (
                        la.transpose(extension, len(net.binding_axis(small)))
                    )


@st.composite
def products(draw):
    """A Kronecker product of two small strict nets: relaxed, with several
    bindings and tokens per node."""
    small = strict_nets(max_places=2, max_transitions=2)
    return kronecker(draw(small), draw(small)).net


@given(st.one_of(any_nets, products()))
@settings(max_examples=40, deadline=None)
def test_default_verifiers_agree_with_the_honest_hooks(net):
    space = net.space
    checks = (
        ("open", verify_token_sheaf, cech_token_sheaf, net.restrict_token_section),
        ("closed", verify_binding_cosheaf, cech_binding_cosheaf, net.extend_binding_section),
    )
    for kind, verify, reference, honest in checks:
        for region in [None, *basic_regions(space, kind)]:
            covers = [None] if region is None else [None, *basic_covers(space, region, kind=kind)]
            for cover in covers:
                expected = reference(net, honest, region, cover)
                assert report_fields(verify(net, region, cover)) == report_fields(expected)


@given(st.one_of(any_nets, products()))
@settings(max_examples=40, deadline=None)
def test_the_axiom_sweep_reports_no_failure(net):
    # every basic cover of a basic set holds the set itself, and its other
    # elements hold no place (closed) or no transition (open)
    counts, failures = axiom_sweep(net)
    assert failures == []
    assert counts["token-sheaf"] > 0 and counts["binding-cosheaf"] > 0


def matrix_flow_gluing(net, region=None, covering=None, ring=None):
    """Flow gluing on 0/1 projection matrices: the Čech differences over the
    projections, times the block-diagonal local flow bases."""
    ring = la.RINGS[ring or net.ring]
    checked = _checked_cover(net, "flow-gluing", region, covering, "closed")
    if not checked:
        return checked
    region, covering = checked.region, checked.cover

    axis = net.binding_axis

    def projection(big, small):
        pos = {lab: k for k, lab in enumerate(axis(big))}
        return [[1 if k == pos[lab] else 0 for k in range(len(pos))] for lab in axis(small)]

    stack, d, total = cech(net.space, region, covering, axis, projection)
    local = [net.flows(c, ring=ring.name) for c in covering]
    coeffs = sum(len(mod.basis) for mod in local)
    bases = []
    done = 0
    for mod in local:
        for row in la.transpose(mod.basis, len(mod.axis)):
            bases.append([0] * done + row + [0] * (coeffs - done - len(row)))
        done += len(mod.basis)
    glued = [la.matvec(stack, b) for b in net.flows(region, ring=ring.name).basis]
    agreeing = [la.matvec(bases, s) for s in ring.kernel(matmul(d, bases), coeffs).basis]
    failures = []
    if ring.module(total, glued) != ring.module(total, agreeing):
        failures.append("glued flows differ from the agreeing families")
    return AxiomReport("flow-gluing", region, covering, not failures, failures)


def assert_flow_gluing_matches_the_matrix_oracle(net):
    space = net.space
    for ring in ("Z", "Q"):
        for region in [None, *basic_regions(space, "closed")]:
            covers = [None] if region is None else [None, *basic_covers(space, region, "closed")]
            for cover in covers:
                fast = verify_flow_gluing(net, region, cover)
                assert report_fields(fast) == report_fields(
                    matrix_flow_gluing(net, region, cover, ring=ring)
                )


@given(any_nets)
@settings(max_examples=40, deadline=None)
def test_flow_gluing_matches_the_matrix_oracle(net):
    assert_flow_gluing_matches_the_matrix_oracle(net)


@pytest.mark.parametrize("seed", range(12))
def test_flow_gluing_matches_the_matrix_oracle_on_products(seed):
    rng = Random(seed)
    first, second = random_strict_net(rng, 3, 2), random_strict_net(rng, 2, 2)
    assert_flow_gluing_matches_the_matrix_oracle(kronecker(first, second).net)

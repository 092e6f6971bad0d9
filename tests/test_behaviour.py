"""Firing, reachability, saturation, and behaviour transport."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrisheaf.behaviour import (
    BehaviourError,
    activated_sequences,
    check_behaviour_mapping,
    check_modification_invariance,
    enabled_events,
    fire,
    fire_sequence,
    fire_step,
    is_enabled,
    map_sequence,
    marking_dict,
    marking_vector,
    reachable,
    saturation_status,
    segment_sequence,
    verify_petri_morphism,
)
from petrisheaf.cli import random_strict_net
from petrisheaf.morphism import identity_morphism
from petrisheaf.net import place_transition_net
from petrisheaf.product import kronecker

from fixtures import fold_morphism, unfolding_morphism, x_net, y_net
from test_net import strict_nets

P1P2 = (1, 1, 0, 0)


# ---------------------------------------------------------------------------
# markings and firing


def test_marking_vector_forms():
    net = x_net()
    assert marking_vector(net, {("p1", "p1"): 1, ("p2", "p2"): 1}) == P1P2
    assert marking_vector(net, [1, 1, 0, 0]) == P1P2
    assert marking_vector(net, {}) == (0, 0, 0, 0)
    assert marking_dict(net, P1P2) == {("p1", "p1"): 1, ("p2", "p2"): 1}
    with pytest.raises(BehaviourError):
        marking_vector(net, [1, -1, 0, 0])
    with pytest.raises(BehaviourError):
        marking_vector(net, {("p9", "p9"): 1})


def test_fire_consumes_and_produces():
    net = x_net()
    after = fire(net, P1P2, "t1", "t1")
    assert after == (0, 0, 1, 1)
    assert not is_enabled(net, P1P2, "t2", "t2")
    with pytest.raises(BehaviourError):
        fire(net, P1P2, "t2", "t2")


@pytest.mark.parametrize("marking", [(1, 1), (1, 1, 0, 0, 5)])
@pytest.mark.parametrize(
    "call",
    [
        lambda net, m: fire(net, m, "t1", "t1"),
        lambda net, m: is_enabled(net, m, "t1", "t1"),
        lambda net, m: fire_step(net, m, [("t1", "t1")]),
        lambda net, m: enabled_events(net, m),
    ],
    ids=["fire", "is_enabled", "fire_step", "enabled_events"],
)
def test_firing_rejects_a_marking_of_the_wrong_length(call, marking):
    net = x_net()
    with pytest.raises(BehaviourError, match=f"marking must have length 4, got {len(marking)}"):
        call(net, marking)


def test_fire_sequence_returns_trace():
    net = x_net()
    final, trace = fire_sequence(net, P1P2, [("t1", "t1"), ("t3", "t3")])
    assert final == P1P2
    assert trace == [P1P2, (0, 0, 1, 1), P1P2]


def test_fire_step_is_concurrent():
    net = x_net()
    assert fire_step(net, (0, 0, 1, 1), [("t5", "t5"), ("t6", "t6")]) == (0, 0, 1, 1)
    with pytest.raises(BehaviourError):
        # two copies of t5 need two tokens on p3 at once
        fire_step(net, (0, 0, 1, 1), [("t5", "t5"), ("t5", "t5")])


def test_enabled_events_in_declaration_order():
    net = x_net()
    assert enabled_events(net, (0, 0, 1, 1)) == [
        ("t2", "t2"),
        ("t3", "t3"),
        ("t4", "t4"),
        ("t5", "t5"),
        ("t6", "t6"),
    ]


def test_combination_events():
    net = y_net()
    after = fire(net, (4,), "a", {"b1": 1, "b2": 1})
    assert after == (4,)
    assert not is_enabled(net, (3,), "a", {"b1": 1, "b2": 1})


# ---------------------------------------------------------------------------
# reachability


def test_reachable_is_closed_under_firing():
    net = x_net()
    result = reachable(net, P1P2)
    assert not result.truncated
    assert result.initial in result.markings
    for m in result.markings:
        assert sum(m) == 2
        for t, b in enabled_events(net, m):
            assert fire(net, m, t, b) in result.markings


def test_reachable_depth_bound():
    net = x_net()
    result = reachable(net, P1P2, depth=1)
    assert result.markings == {P1P2, (0, 0, 1, 1)}
    assert result.truncated


def two_place_ring():
    return place_transition_net(
        "ring2", ["r0", "r1"], ["s0", "s1"],
        consume={"s0": {"r0": 1}, "s1": {"r1": 1}},
        produce={"s0": {"r1": 1}, "s1": {"r0": 1}},
    )


def test_depth_cut_at_the_radius_is_not_truncation():
    # 2 tokens on a 2-place ring: 3 markings, all within 2 steps
    result = reachable(two_place_ring(), (2, 0), depth=2)
    assert result.markings == {(2, 0), (1, 1), (0, 2)}
    assert not result.truncated
    below = reachable(two_place_ring(), (2, 0), depth=1)
    assert below.markings == {(2, 0), (1, 1)}
    assert below.truncated


def test_reachable_state_bound():
    net = x_net()
    result = reachable(net, P1P2, max_states=1)
    assert result.markings == {P1P2}
    assert result.truncated
    assert result.budget_exhausted


def test_budget_flag_needs_a_refused_marking():
    # 2 markings fill a budget of 2 at depth 1; the one unseen marking lies
    # past the depth cut, so the budget refused nothing
    below = reachable(two_place_ring(), (2, 0), depth=1, max_states=2)
    assert below.markings == {(2, 0), (1, 1)}
    assert below.truncated
    assert not below.budget_exhausted
    # without the depth cut the budget refuses (0, 2)
    refused = reachable(two_place_ring(), (2, 0), max_states=2)
    assert refused.markings == {(2, 0), (1, 1)}
    assert refused.truncated
    assert refused.budget_exhausted
    # a budget that holds every marking refuses nothing
    whole = reachable(two_place_ring(), (2, 0), max_states=3)
    assert not whole.truncated
    assert not whole.budget_exhausted


def test_reachable_records_edges():
    net = x_net()
    result = reachable(net, P1P2, depth=1, record_edges=True)
    assert (P1P2, ("t1", "t1"), (0, 0, 1, 1)) in result.edges


def test_activated_sequences_enumeration():
    net = x_net()
    seqs = list(activated_sequences(net, P1P2, 2))
    assert () in seqs
    assert (("t1", "t1"),) in seqs
    assert (("t1", "t1"), ("t3", "t3")) in seqs
    # only t1 fires at the start, then all five of t2..t6 are enabled
    assert len(seqs) == 7


def reached_outside_the_start_class(net, rng, depth):
    """Reach from a random start marking of ``net``; return how many markings
    were reached and those whose marking class over Z or Q is not the
    start's."""
    start = [rng.randint(0, 3) for _ in net.token_axis()]
    reached = reachable(net, start, depth=depth).markings
    classes = [net.marking_classes(ring=ring) for ring in ("Z", "Q")]
    outside = [m for m in reached for c in classes if not c.class_equal(m, start)]
    return len(reached), outside


def test_reachable_markings_stay_in_the_start_class():
    # firing adds an incidence column, which the marking classes quotient out
    checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        count, outside = reached_outside_the_start_class(random_strict_net(rng, 3, 3), rng, 6)
        assert outside == [], seed
        checked += count
    assert checked > 1000


def test_reachable_markings_of_products_stay_in_the_start_class():
    checked = 0
    for seed in range(40):
        rng = random.Random(seed)
        first, second = random_strict_net(rng, 3, 3), random_strict_net(rng, 2, 2)
        count, outside = reached_outside_the_start_class(kronecker(first, second).net, rng, 4)
        assert outside == [], seed
        checked += count
    assert checked > 200


# ---------------------------------------------------------------------------
# saturation and transport


def test_segmentation_groups_by_image_node():
    f = fold_morphism()
    events = [("t1", "t1"), ("t3", "t3"), ("t5", "t5"), ("t6", "t6"), ("t2", "t2")]
    segments = segment_sequence(f, events)
    assert [(node, len(run)) for node, run in segments] == [("a", 2), ("u", 2), ("a", 1)]


def test_saturation_requires_fibre_flows():
    f = fold_morphism()
    ok, _ = saturation_status(f, [("t1", "t1"), ("t3", "t3")])
    assert ok
    ok, detail = saturation_status(f, [("t1", "t1")])
    assert not ok and "Parikh" in detail
    # place runs are unconstrained
    ok, _ = saturation_status(f, [("t5", "t5")])
    assert ok


def test_map_sequence_on_saturated_runs():
    f = fold_morphism()
    assert map_sequence(f, [("t1", "t1"), ("t3", "t3")]) == [("a", (1, 0))]
    assert map_sequence(f, [("t1", "t1"), ("t2", "t2"), ("t4", "t4")]) == [("a", (0, 1))]
    assert map_sequence(f, [("t5", "t5"), ("t6", "t6")]) == []
    assert map_sequence(
        f, [("t1", "t1"), ("t3", "t3"), ("t5", "t5"), ("t6", "t6")]
    ) == [("a", (1, 0))]
    with pytest.raises(BehaviourError):
        map_sequence(f, [("t1", "t1")])


def test_check_behaviour_mapping_on_fold():
    f = fold_morphism()
    for events in (
        [("t1", "t1"), ("t3", "t3")],
        [("t1", "t1"), ("t2", "t2"), ("t4", "t4")],
        [("t1", "t1"), ("t3", "t3"), ("t1", "t1"), ("t3", "t3")],
        [],
    ):
        report = check_behaviour_mapping(f, P1P2, events)
        assert report.ok, report.detail


def test_check_behaviour_mapping_rejects_unsaturated():
    f = fold_morphism()
    with pytest.raises(BehaviourError):
        check_behaviour_mapping(f, P1P2, [("t1", "t1")])


def test_verify_petri_morphism():
    f = fold_morphism()
    ok, detail = verify_petri_morphism(f, P1P2, (2,))
    assert ok, detail
    ok, detail = verify_petri_morphism(f, P1P2, (1,))
    assert not ok and "transports" in detail
    ok, detail = verify_petri_morphism(
        f, P1P2, (2,), witness=[("t1", "t1"), ("t3", "t3")]
    )
    assert ok, detail


# ---------------------------------------------------------------------------
# modification invariance


def test_unfolding_invariance_holds():
    report = check_modification_invariance(unfolding_morphism(), (2,), depth=6)
    assert report.ok
    assert report.source_count == 1
    assert report.target_count == 1


def test_invariance_rejects_non_modifications():
    report = check_modification_invariance(fold_morphism(), P1P2, depth=3)
    assert report.status == "failed"
    assert "not a modification" in report.detail


def test_invariance_inconclusive_on_truncation():
    # t1 is enabled at P1P2 and leads to an unseen marking: a genuine cut
    report = check_modification_invariance(identity_morphism(x_net()), P1P2, depth=0)
    assert report.status == "inconclusive"
    # the unfolding only moves 2v back onto 2v: depth 0 already saw everything
    report = check_modification_invariance(unfolding_morphism(), (2,), depth=0)
    assert report.status == "ok"
    assert report.source_count == 1


@settings(max_examples=15, deadline=None)
@given(strict_nets(), st.integers(0, 2))
def test_identity_invariance_on_random_nets(net, tokens):
    ident = identity_morphism(net)
    marking = [tokens] * len(net.token_axis())
    report = check_modification_invariance(ident, marking, depth=2, max_states=300)
    assert report.status in ("ok", "inconclusive")
    if report.status == "ok":
        assert report.source_count == report.target_count


# ---------------------------------------------------------------------------
# firing and reachability against dense oracles built from w-/w+


def dense_step(net, marking, events):
    """Reference firing: dense need/gain vectors summed over every token."""
    axis = net.token_axis()
    need = [0] * len(axis)
    gain = [0] * len(axis)
    for t, vec in events:
        for mult, b in zip(vec, net.bindings[t]):
            for k, (p, c) in enumerate(axis):
                need[k] += mult * net.w_minus(t, b, p, c)
                gain[k] += mult * net.w_plus(t, b, p, c)
    if any(m < n for m, n in zip(marking, need)):
        return None
    return tuple(m - n + g for m, n, g in zip(marking, need, gain))


def unit_events(net):
    return [
        (t, tuple(1 if x == b else 0 for x in net.bindings[t]))
        for t in net.space.transitions
        for b in net.bindings[t]
    ]


def closure_oracle(net, start, depth):
    """Markings within ``depth`` unit steps by set iteration, the depth of
    the last nonempty layer, and whether one more step finds a new one."""
    seen = frontier = {start}
    last = 0
    for d in range(1, depth + 1):
        frontier = {
            after
            for m in frontier
            for event in unit_events(net)
            if (after := dense_step(net, m, [event])) is not None
        } - seen
        if not frontier:
            break
        seen = seen | frontier
        last = d
    beyond = {
        after
        for m in frontier
        for event in unit_events(net)
        if (after := dense_step(net, m, [event])) is not None
    } - seen
    return seen, last, bool(beyond)


@st.composite
def firing_nets(draw):
    """A strict net, or a product of two (several bindings and tokens per
    node)."""
    if draw(st.booleans()):
        return draw(strict_nets())
    small = strict_nets(max_places=2, max_transitions=2)
    return kronecker(draw(small), draw(small)).net


@st.composite
def nets_with_events(draw):
    """A net from ``firing_nets`` with a marking and a step of one to three
    binding multisets."""
    net = draw(firing_nets())
    size = len(net.token_axis())
    marking = tuple(draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)))
    events = []
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.sampled_from(net.space.transitions))
        n = len(net.bindings[t])
        events.append((t, tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))))
    return net, marking, events


@settings(max_examples=60, deadline=None)
@given(nets_with_events())
def test_firing_agrees_with_the_dense_reference(case):
    net, marking, events = case
    t, vec = events[0]
    expected = dense_step(net, marking, [(t, vec)])
    assert is_enabled(net, marking, t, vec) == (expected is not None)
    if expected is None:
        with pytest.raises(BehaviourError):
            fire(net, marking, t, vec)
    else:
        assert fire(net, marking, t, vec) == expected
    expected = dense_step(net, marking, events)
    if expected is None:
        with pytest.raises(BehaviourError):
            fire_step(net, marking, events)
    else:
        assert fire_step(net, marking, events) == expected


@settings(max_examples=40, deadline=None)
@given(strict_nets(max_places=3, max_transitions=3), st.integers(0, 2), st.integers(0, 4))
def test_reachable_matches_the_closure_oracle(net, tokens, depth):
    start = tuple(tokens for _ in net.token_axis())
    markings, last, beyond = closure_oracle(net, start, depth)
    result = reachable(net, start, depth=depth)
    assert result.markings == markings
    assert result.depth_reached == last
    assert result.truncated == beyond
    if not beyond:
        # nothing lies past the cut: the unbounded exploration agrees
        whole = reachable(net, start)
        assert whole.markings == markings
        assert not whole.truncated


def dense_successors(net, marking):
    """Each enabled single-binding event, labelled, with the marking
    ``dense_step`` gives."""
    for label, event in zip(net.binding_axis(), unit_events(net)):
        after = dense_step(net, marking, [event])
        if after is not None:
            yield label, after


def dense_sequences(net, marking, length):
    """Every activated single-binding sequence of at most ``length`` events,
    by depth-first recursion over ``dense_successors``."""
    yield ()
    if length:
        for label, after in dense_successors(net, marking):
            for rest in dense_sequences(net, after, length - 1):
                yield (label, *rest)


token_counts = st.integers(0, 3) | st.fractions(0, 3, max_denominator=3)


@settings(max_examples=100, deadline=None)
@given(firing_nets(), st.data())
def test_compiled_single_events_agree_with_the_dense_reference(net, data):
    size = len(net.token_axis())
    start = tuple(data.draw(st.lists(token_counts, min_size=size, max_size=size)))
    depth = data.draw(st.integers(0, 2))
    # breadth-first layers by the dense reference; markings nearer than
    # ``depth`` are expanded and give every edge
    layers, seen = [{start}], {start}
    for _ in range(depth):
        layer = {after for m in layers[-1] for _, after in dense_successors(net, m)} - seen
        seen |= layer
        layers.append(layer)
    edges = {
        (m, label, after)
        for m in set().union(*layers[:depth])
        for label, after in dense_successors(net, m)
    }

    result = reachable(net, start, depth=depth, record_edges=True)
    assert not result.budget_exhausted
    assert result.markings == seen
    assert len(result.edges) == len(edges)
    assert set(result.edges) == edges
    for m in seen:
        assert enabled_events(net, m) == [label for label, _ in dense_successors(net, m)]
    assert Counter(activated_sequences(net, start, depth)) == Counter(
        dense_sequences(net, start, depth)
    )


def sparse_step(net, marking, events):
    """Reference multiset firing, as ``behaviour`` fired multiset events
    before they were compiled: need and gain summed per position over the
    sparse binding effects; None when the pre-set does not fit."""
    need, gain = {}, {}
    for t, vec in events:
        for mult, b in zip(vec, net.bindings[t]):
            if mult:
                for total, side in zip((need, gain), net.effect(t, b)):
                    for i, w in side:
                        total[i] = total.get(i, 0) + mult * w
    if any(marking[i] < n for i, n in need.items()):
        return None
    out = list(marking)
    for i, n in need.items():
        out[i] -= n
    for i, g in gain.items():
        out[i] += g
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(nets_with_events(), st.data())
def test_compiled_multiset_events_agree_with_the_sparse_step(case, data):
    net, marking, events = case
    if data.draw(st.booleans()):
        size = len(marking)
        marking = tuple(data.draw(st.lists(token_counts, min_size=size, max_size=size)))
    for step in ([events[0]], events):
        expected = sparse_step(net, marking, step)
        if len(step) == 1:
            t, vec = step[0]
            assert is_enabled(net, marking, t, vec) == (expected is not None)
        if expected is None:
            with pytest.raises(BehaviourError):
                fire_step(net, marking, step)
        else:
            after = fire_step(net, marking, step)
            assert after == expected
            assert [type(x) for x in after] == [type(x) for x in expected]

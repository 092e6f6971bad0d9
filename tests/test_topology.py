"""Petri space topology: frozen examples plus random-space laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrisheaf.topology import (
    PetriSpace,
    SpaceError,
    SpaceMap,
    Sort,
    identity_map,
    inclusion_map,
    quotient_by_pairs,
)

from fixtures import A1, U1, fold_space_map, x_space, y_space


# ---------------------------------------------------------------------------
# random spaces and maps


@st.composite
def spaces(draw, max_nodes=7):
    n = draw(st.integers(1, max_nodes))
    sorts = draw(
        st.lists(st.sampled_from(["place", "transition"]), min_size=n, max_size=n)
    )
    names = [f"n{i}" for i in range(n)]
    places = [nm for nm, s in zip(names, sorts) if s == "place"]
    transitions = [nm for nm, s in zip(names, sorts) if s == "transition"]
    adjacency = []
    if places and transitions:
        adjacency = draw(
            st.lists(
                st.tuples(st.sampled_from(places), st.sampled_from(transitions)),
                max_size=2 * n,
            )
        )
    return PetriSpace(zip(names, sorts), adjacency)


@st.composite
def space_maps(draw):
    src = draw(spaces(max_nodes=5))
    tgt = draw(spaces(max_nodes=5))
    mapping = {x: draw(st.sampled_from(tgt.nodes)) for x in src.nodes}
    return SpaceMap(src, tgt, mapping)


def subsets(space):
    return st.frozensets(st.sampled_from(space.nodes)) if space.nodes else st.just(frozenset())


# ---------------------------------------------------------------------------
# frozen running example


def test_running_example_basic_sets():
    sp = x_space()
    assert sp.basic_open("p1") == {"p1"}
    assert sp.basic_open("t2") == {"t2", "p1", "p3"}
    assert sp.basic_closed("t4") == {"t4"}
    assert sp.basic_closed("p3") == {"p3", "t1", "t2", "t3", "t5", "t6"}


def test_running_example_open_closed():
    sp = x_space()
    assert sp.is_closed(A1) and not sp.is_open(A1)
    assert sp.is_open(U1) and not sp.is_closed(U1)
    # the two regions are complementary
    assert A1 | U1 == set(sp.nodes)
    assert sp.closure({"p1"}) == {"p1", "t1", "t2", "t3"}
    assert sp.open_hull({"t5"}) == {"t5", "p3", "p4"}
    # no transition of A1 has all its places inside, so only places remain
    assert sp.interior(A1) == {"p1", "p2"}
    assert sp.interior(A1) == set(sp.nodes) - sp.closure(U1)


def test_running_example_fold_map():
    f = fold_space_map()
    assert f.is_continuous()
    assert not f.is_discrete()  # places land on a transition
    assert f.is_surjective() and not f.is_injective()
    assert set(f.fibre("a")) == A1
    assert set(f.fibre("u")) == U1
    assert f.source.is_closed(f.fibre("a"))
    assert f.source.is_open(f.fibre("u"))


def test_identity_and_composition():
    sp = x_space()
    ident = identity_map(sp)
    assert ident.is_discrete() and ident.is_embedding()
    f = fold_space_map()
    assert f.then(identity_map(y_space())) == f


def test_subspace_inclusion_is_embedding():
    sp = x_space()
    sub = sp.subspace(U1)
    assert set(sub.nodes) == U1
    inc = inclusion_map(sub, sp)
    assert inc.is_continuous() and inc.is_embedding()
    assert not inc.is_surjective()


def test_non_embedding_injection():
    # source forgets an adjacency the target has: injective, continuous,
    # but the minimal neighbourhood of t collapses
    loose = PetriSpace([("p", "place"), ("t", "transition")], [])
    tight = PetriSpace([("q", "place"), ("s", "transition")], [("q", "s")])
    f = SpaceMap(loose, tight, {"p": "q", "t": "s"})
    assert f.is_continuous() and f.is_injective()
    assert not f.is_embedding()


def test_space_validation():
    with pytest.raises(SpaceError):
        PetriSpace([("x", "place"), ("x", "transition")])
    with pytest.raises(SpaceError):
        PetriSpace([("x", "place"), ("t", "transition")], [("t", "x")])
    with pytest.raises(SpaceError):
        SpaceMap(x_space(), y_space(), {"p1": "u"})  # not total


def test_quotient_merges_transitions():
    sp = PetriSpace(
        [("v", "place"), ("b1", "transition"), ("b2", "transition")],
        [("v", "b1"), ("v", "b2")],
    )
    q, proj = quotient_by_pairs(sp, [("b1", "b2")])
    assert q.nodes == ("v", "b1")
    assert q.adjacency == {("v", "b1")}
    assert proj("b2") == "b1"
    with pytest.raises(SpaceError):
        quotient_by_pairs(sp, [("v", "b1")])  # sort clash


# ---------------------------------------------------------------------------
# laws on random spaces


@given(spaces().flatmap(lambda sp: st.tuples(st.just(sp), subsets(sp))))
def test_open_iff_complement_closed(data):
    sp, s = data
    comp = set(sp.nodes) - s
    assert sp.is_open(s) == sp.is_closed(comp)
    assert sp.is_closed(s) == sp.is_open(comp)


@given(spaces())
def test_points_are_open_or_closed(sp):
    for x in sp.nodes:
        if sp.sort_of(x) is Sort.PLACE:
            assert sp.is_open({x})
        else:
            assert sp.is_closed({x})
        assert sp.is_open(sp.basic_open(x))
        assert sp.is_closed(sp.basic_closed(x))


@given(spaces(max_nodes=6))
@settings(max_examples=50)
def test_basic_opens_are_minimal_and_generate(sp):
    opens = sp.all_open_sets()
    for x in sp.nodes:
        basic = sp.basic_open(x)
        for u in opens:
            if x in u:
                assert basic <= u
    # every open is the union of the basics of its points
    for u in opens:
        union = set()
        for x in u:
            union |= sp.basic_open(x)
        assert union == set(u)


@given(
    spaces(max_nodes=6).flatmap(
        lambda sp: st.tuples(st.just(sp), st.lists(subsets(sp), max_size=4))
    )
)
def test_opens_closed_under_union_and_intersection(data):
    sp, subs = data
    hulls = [sp.open_hull(s) for s in subs]
    union = set()
    inter = set(sp.nodes)
    for h in hulls:
        assert sp.is_open(h)
        union |= h
        inter &= h
    assert sp.is_open(union)
    assert sp.is_open(inter)


@given(spaces(max_nodes=6).flatmap(lambda sp: st.tuples(st.just(sp), subsets(sp))))
@settings(max_examples=50)
def test_closure_is_least_closed_superset(data):
    sp, s = data
    cl = sp.closure(s)
    assert sp.is_closed(cl) and s <= cl
    for u in sp.all_open_sets():
        c = set(sp.nodes) - u  # every closed set arises this way
        if s <= c:
            assert cl <= c


def continuity_oracle(f):
    """Adjacency phrasing: each source edge lands inside a minimal nbhd."""
    for p, t in f.source.adjacency:
        ft = f(t)
        if f.target.sort_of(ft) is Sort.PLACE:
            if f(p) != ft:
                return False
        else:
            if f(p) not in f.target.basic_open(ft):
                return False
    return True


@given(space_maps())
def test_continuity_matches_adjacency_oracle(f):
    assert f.is_continuous() == continuity_oracle(f)


@given(space_maps())
def test_fibres_of_continuous_maps(f):
    if not f.is_continuous():
        return
    for y in f.target.nodes:
        fib = f.fibre(y)
        if f.target.sort_of(y) is Sort.PLACE:
            assert f.source.is_open(fib)
        else:
            assert f.source.is_closed(fib)


@given(spaces(max_nodes=6))
@settings(max_examples=50)
def test_quotient_projection_properties(sp):
    places = [n for n in sp.nodes if sp.sort_of(n) is Sort.PLACE]
    transitions = [n for n in sp.nodes if sp.sort_of(n) is Sort.TRANSITION]
    pairs = []
    if len(places) >= 2:
        pairs.append((places[0], places[1]))
    if len(transitions) >= 2:
        pairs.append((transitions[0], transitions[1]))
    q, proj = quotient_by_pairs(sp, pairs)
    assert proj.is_discrete() and proj.is_surjective()
    assert len(q.nodes) == len(sp.nodes) - len(pairs)


@given(spaces(max_nodes=6))
@settings(max_examples=50)
def test_place_gluing_projection_is_open(sp):
    places = [n for n in sp.nodes if sp.sort_of(n) is Sort.PLACE]
    if len(places) < 2:
        return
    _, proj = quotient_by_pairs(sp, [(places[0], places[1])])
    assert proj.is_open_map()


@given(spaces().flatmap(lambda sp: st.tuples(st.just(sp), subsets(sp))))
def test_ordered_memo_agrees_and_still_rejects_unknown_nodes(data):
    sp, s = data
    want = tuple(n for n in sp.nodes if n in s)
    assert sp.ordered(s) == want
    assert sp.ordered(list(s)) == want  # a memo hit, from another iterable
    for _ in range(2):
        with pytest.raises(SpaceError, match="unknown nodes"):
            sp.ordered(set(s) | {"zz"})
        with pytest.raises(SpaceError, match="unknown nodes"):
            sp.ordered(["zz"])
    assert sp.ordered(s) == want

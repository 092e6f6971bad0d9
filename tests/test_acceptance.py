"""Acceptance suite: one test per shipped guarantee, runnable end to end.

Each test is self-contained and checks a headline property of the
distribution against an independent oracle: exact lattice arithmetic,
exhaustive enumeration, or a hand-computed matrix identity.  Run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per item.
"""

import itertools
import random
import time

from fractions import Fraction

import petrisheaf.intlinalg as la
from petrisheaf.behaviour import (
    activated_sequences,
    check_behaviour_mapping,
    check_modification_invariance,
    marking_vector,
    reachable,
    saturation_status,
)
from petrisheaf.cli import axiom_sweep, random_strict_net
from petrisheaf.morphism import (
    NetMorphism,
    from_winskel,
    identity_morphism,
    morphisms_equal,
)
from petrisheaf.net import place_transition_net
from petrisheaf.product import (
    check_reachability_correspondence,
    diagonal,
    fibre_product,
    kronecker,
    mediate,
    product_marking,
    trace_markings,
)

from fixtures import (
    A1,
    TAU1,
    TAU2,
    TAU3,
    U1,
    fold_morphism,
    reference_sweep,
    unfolding_morphism,
    winskel_data,
    x_net,
    y_net,
)
from test_intlinalg import det, mat_equal, matmul, reference_snf
from test_net import is_zero_class


def unit(axis, label):
    vec = [0] * len(axis)
    vec[axis.index(label)] = 1
    return vec


def test_01_running_example_flows():
    """Fibre flows span {t1+t3, t1+t2+t4}; whole-net flows add t5+t6."""
    started = time.time()
    net = x_net()
    over_fibre = net.flows(A1)
    assert over_fibre.rank == 2
    assert over_fibre.same_module([TAU1[:4], TAU2[:4]])
    over_all = net.flows(net.space.nodes)
    assert over_all.rank == 3
    assert over_all.contains(TAU3)
    assert over_all.contains(TAU1) and over_all.contains(TAU2)
    assert time.time() - started < 1.0


def test_02_running_example_classes():
    """Marking classes are Z on the open fibre and on the whole net."""
    net = x_net()
    over_fibre = net.marking_classes(U1)
    assert over_fibre.rank == 1 and not over_fibre.torsion
    p3 = unit(over_fibre.axis, ("p3", "p3"))
    p4 = unit(over_fibre.axis, ("p4", "p4"))
    assert over_fibre.class_equal(p3, p4)
    assert not is_zero_class(over_fibre, p3)

    over_all = net.marking_classes(net.space.nodes)
    assert over_all.rank == 1 and not over_all.torsion
    units = [unit(over_all.axis, (p, p)) for p in ("p1", "p2", "p3", "p4")]
    # all four unit classes collapse onto the one generated by p3
    for vec in units[1:]:
        assert over_all.class_equal(units[0], vec)
    assert not is_zero_class(over_all, units[2])
    # rank 1, free, and every ambient unit lands in the class of p3:
    # that class generates the whole quotient
    assert all(factor == 1 for factor in over_all.invariant_factors)


def test_03_fold_morphism_verifies():
    """The fold passes every clause and its incidence square is (2 2)I = 1(2 2)."""
    fold = fold_morphism()
    report = fold.verify()
    assert report.ok, report.first_failure
    assert report.clause("incidence-compat").status == "ok"

    src, tgt = fold.source, fold.target
    basis, images = fold.flow_maps["a"]
    assert tuple(tuple(v) for v in images) == ((1, 0), (0, 1))
    fibre_ts = ("t1", "t2", "t3", "t4")
    for src_w, tgt_w in ((src.w_minus, tgt.w_minus), (src.w_plus, tgt.w_plus)):
        trow = [tgt_w("a", b, "u", "c") for b in tgt.bindings["a"]]
        assert trow == [2, 2]
        lhs = [sum(trow[i] * img[i] for i in range(2)) for img in images]
        rhs = []
        for vec in basis:
            total = 0
            for (p, c), coeffs in fold.mark_maps["u"].items():
                total += coeffs[0] * sum(
                    vec[j] * src_w(t, t, p, c) for j, t in enumerate(fibre_ts)
                )
            rhs.append(total)
        assert lhs == rhs == [2, 2]

    classes = fold.classify().as_dict()
    assert classes["abstraction"] is True
    assert classes["discrete"] is False


def test_04_smith_normal_form_random_sweep():
    """1000 random integer matrices: the Smith diagonal equals the two-matrix
    reference, whose transforms are unimodular with ``s = u @ m @ v``; ranks."""
    rng = random.Random(20260814)
    started = time.time()
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        s, u, v = reference_snf(m, cols)
        assert mat_equal(s, matmul(matmul(u, m), v))
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert la.snf(m, cols) == tuple(diag)
        nonzero = [d for d in diag if d]
        assert diag[: len(nonzero)] == nonzero  # zeros only at the tail
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        kernel = la.kernel_lattice(m, cols)
        for vec in kernel.basis:
            assert all(entry == 0 for entry in la.matvec(m, vec))
        assert len(nonzero) + kernel.rank == cols
        assert la.Subspace(cols, m).rank == len(nonzero)
    assert time.time() - started < 10.0


def test_05_gluing_axioms_exhaustive_and_random():
    """All three axioms on every basic-set covering, plus 100 random nets;
    ``axioms`` counts exactly the covers checked."""
    rng = random.Random(20260814)
    for net in [x_net()] + [random_strict_net(rng) for _ in range(100)]:
        counts, reports = reference_sweep(net)
        failures = [r for r in reports if not r.ok]
        assert not failures, failures[:3]
        assert min(counts.values()) > 0
        assert axiom_sweep(net) == counts


def test_06_behaviour_mapping_exhaustive():
    """Every saturated activated sequence of length <= 6 maps and commutes."""
    net = x_net()
    fold = fold_morphism()
    fold.verify()
    start_dict = {("p1", "p1"): 1, ("p2", "p2"): 1}
    start = marking_vector(net, start_dict)
    total = saturated = 0
    for events in activated_sequences(net, start, 6):
        total += 1
        if not saturation_status(fold, events)[0]:
            continue
        saturated += 1
        report = check_behaviour_mapping(fold, start_dict, events)
        assert report.ok, (events, report.detail)
    assert total > saturated > 1  # both kinds occur, nothing vacuous


def test_07_modification_invariance_of_the_unfolding():
    """The unfolding transports 2c and 4c reachability bijectively."""
    unfold = unfolding_morphism()
    unfold.verify()
    target = y_net()
    for count in (2, 4):
        source_marking = {("v", "v"): count}
        transported = unfold.map_marking(
            list(marking_vector(unfold.source, source_marking))
        )
        assert list(transported) == list(marking_vector(target, {("u", "c"): count}))
        report = check_modification_invariance(unfold, source_marking, depth=6)
        assert report.ok, report.detail
        assert report.source_count == report.target_count


def _toggle():
    return place_transition_net(
        "toggle",
        ["on", "off"],
        ["flip", "flop"],
        consume={"flip": {"on": 1}, "flop": {"off": 1}},
        produce={"flip": {"off": 1}, "flop": {"on": 1}},
    )


def _drain():
    return place_transition_net(
        "drain", ["d"], ["dec"], consume={"dec": {"d": 1}}, produce={"dec": {}}
    )


def _pingpong():
    return place_transition_net(
        "pingpong",
        ["l", "r"],
        ["shoot", "back"],
        consume={"shoot": {"l": 1}, "back": {"r": 1}},
        produce={"shoot": {"r": 1}, "back": {"l": 1}},
    )


def test_08_product_reachability_multiplies():
    """Three small products: counts multiply, traces biject, markings stay integral."""
    pairs = [
        (_toggle(), {("on", "on"): 1}, _drain(), {("d", "d"): 3}),
        (y_net(), {("u", "c"): 2}, _toggle(), {("on", "on"): 1}),
        (_pingpong(), {("l", "l"): 1}, _drain(), {("d", "d"): 2}),
    ]
    for first, m1, second, m2 in pairs:
        result = kronecker(first, second)
        v1 = marking_vector(first, m1)
        v2 = marking_vector(second, m2)
        report = check_reachability_correspondence(result, v1, v2, depth=5)
        assert report.ok, report.detail
        assert report.product_count == report.first_count * report.second_count

        # independent oracle on the full (finite) state spaces
        r1 = reachable(first, v1, depth=None)
        r2 = reachable(second, v2, depth=None)
        rp = reachable(result.net, product_marking(result, v1, v2), depth=None)
        assert not (r1.truncated or r2.truncated or rp.truncated)
        assert len(rp.markings) == len(r1.markings) * len(r2.markings)
        traces = {trace_markings(result, m) for m in rp.markings}
        assert traces == {(a, b) for a in r1.markings for b in r2.markings}
        for m in rp.markings:
            assert all(Fraction(x).denominator == 1 for x in m)


def test_09_diagonal_and_fibre_product():
    """Diagonal is an iso, pullback of id,id returns the net, mediate commutes."""
    base = y_net()
    diag = diagonal(base)
    assert diag.iso.verify().ok
    assert diag.embedding.verify().ok
    inverse = diag.iso_inverse()
    assert inverse.verify().ok
    assert morphisms_equal(diag.iso.then(inverse), identity_morphism(base))
    assert morphisms_equal(inverse.then(diag.iso), identity_morphism(diag.net))

    ident = identity_morphism(base)
    assert ident.verify().ok
    pullback = fibre_product(ident, ident, cones=((ident, ident),))
    section = pullback.cone_factorizations[0]
    assert section.verify().ok and pullback.left.verify().ok
    assert morphisms_equal(section.then(pullback.left), ident)
    assert morphisms_equal(section.then(pullback.right), ident)
    assert morphisms_equal(
        pullback.left.then(section), identity_morphism(pullback.net)
    )

    unfold = unfolding_morphism()
    unfold.verify()
    swapped = NetMorphism(
        unfold.source,
        y_net(),
        {"v": "u", "beta1": "a", "beta2": "a"},
        flow_maps={"a": [((1, 0), (0, 1)), ((0, 1), (1, 0))]},
        mark_maps={"u": {("v", "v"): (1,)}},
        name="unfold-swapped",
    )
    assert swapped.verify().ok
    square = kronecker(unfold.target, swapped.target)
    pairing = mediate(square, unfold, swapped)
    assert pairing.verify().ok
    assert morphisms_equal(pairing.then(square.left), unfold)
    assert morphisms_equal(pairing.then(square.right), swapped)


def test_10_winskel_conversion():
    """Multirelation data yields a place-modification and a discrete fold."""
    data = winskel_data()
    result = from_winskel(data)
    assert data.source.space.is_closed(result.domain.space.nodes)
    assert result.merged.space.is_open(result.fold.space_map.image())

    projection_report = result.projection.verify()
    assert projection_report.ok, projection_report.first_failure
    assert result.projection.classify().as_dict()["place-modification"] is True

    fold_report = result.fold.verify()
    assert fold_report.ok, fold_report.first_failure
    assert result.fold.space_map.is_continuous()
    assert result.fold.classify().as_dict()["discrete"] is True


def test_11_hilbert_generators_of_the_fibre_cone():
    """Nonnegative fibre flows are generated by exactly the two unit runs."""
    net = x_net()
    flows = net.flows(A1)
    matrix = flows.matrix.as_lists()
    cols = len(flows.axis)
    generators = sorted(tuple(g) for g in la.hilbert_basis(matrix, cols))
    assert generators == [(1, 0, 1, 0), (1, 1, 0, 1)]

    # oracle: every nonnegative kernel vector with coordinates <= 5, and the
    # pointwise-minimal ones among them, computed by brute force
    solutions = [
        v
        for v in itertools.product(range(6), repeat=cols)
        if any(v)
        and all(sum(row[j] * v[j] for j in range(cols)) == 0 for row in matrix)
    ]
    minimal = [
        v
        for v in solutions
        if not any(
            w != v and all(wi <= vi for wi, vi in zip(w, v)) for w in solutions
        )
    ]
    assert sorted(minimal) == generators
    # and each bounded solution is a nonnegative combination of the two
    for v in solutions:
        decomposed = any(
            all(a * g1 + b * g2 == vi for g1, g2, vi in zip(*generators, v))
            for a in range(6)
            for b in range(6)
        )
        assert decomposed, v

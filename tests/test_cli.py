"""Command line surface: spec'd outputs, exit codes, JSON determinism."""

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrisheaf import cli
from petrisheaf import intlinalg as la
from petrisheaf.cli import _json_value, main, random_strict_net
from petrisheaf.formats import (
    parse_morphism,
    parse_net,
    serialize_morphism,
    serialize_net,
    serialize_winskel,
)
from petrisheaf.morphism import identity_morphism, morphisms_equal
from petrisheaf.net import place_transition_net
from petrisheaf.product import kronecker

from fixtures import (
    TAU1,
    TAU2,
    fold_morphism,
    squash_morphism,
    unfolding_morphism,
    winskel_data,
    winskel_nets,
    x_net,
    y_net,
)
from test_behaviour import two_place_ring
from test_formats import DRAIN, LONE
from test_golden import build_documents


@pytest.fixture()
def workdir(tmp_path):
    fold = fold_morphism()
    unfold = unfolding_morphism()
    (tmp_path / "runX.pnet").write_text(serialize_net(fold.source))
    (tmp_path / "runY.pnet").write_text(
        serialize_net(fold.target, marking={("u", "c"): 2})
    )
    (tmp_path / "unfoldY.pnet").write_text(
        serialize_net(unfold.source, marking={("v", "v"): 2})
    )
    (tmp_path / "fold.pmor").write_text(
        serialize_morphism(fold, "runX.pnet", "runY.pnet")
    )
    (tmp_path / "unfold.pmor").write_text(
        serialize_morphism(unfold, "unfoldY.pnet", "runY.pnet")
    )
    (tmp_path / "idY.pmor").write_text(
        serialize_morphism(identity_morphism(fold.target), "runY.pnet", "runY.pnet")
    )
    grow = place_transition_net(
        "grow", ["h"], ["g"], consume={"g": {"h": 1}}, produce={"g": {"h": 2}}
    )
    (tmp_path / "grow.pnet").write_text(serialize_net(grow, marking={("h", "h"): 1}))
    wsrc, wtgt = winskel_nets()
    (tmp_path / "wsrc.pnet").write_text(serialize_net(wsrc))
    (tmp_path / "wtgt.pnet").write_text(serialize_net(wtgt))
    (tmp_path / "loop.pwin").write_text(
        serialize_winskel(winskel_data(), "wsrc.pnet", "wtgt.pnet")
    )
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


def test_show_reports_topology_and_marking(workdir, capsys):
    code, out = run(capsys, "show", workdir / "runY.pnet")
    assert code == 0
    assert "net runY [strict, ring Z]" in out
    assert "basic open a = {u,a}" in out
    assert "basic closed u = {u,a}" in out
    assert "marking: u.c=2" in out


def test_flows_over_the_folded_fibre(workdir, capsys):
    code, out = run(
        capsys,
        "flows", workdir / "runX.pnet",
        "--region", "fibre:a", "--via", workdir / "fold.pmor", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["axis"] == ["t1.t1", "t2.t2", "t3.t3", "t4.t4"]
    spanned = la.Lattice(4, [tuple(v) for v in payload["basis"]])
    assert spanned == la.Lattice(4, [TAU1[:4], TAU2[:4]])


def test_flows_over_the_whole_net(workdir, capsys):
    code, out = run(capsys, "flows", workdir / "runX.pnet", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["rank"] == 3
    assert [0, 0, 0, 0, 1, 1] in payload["basis"]


def test_flows_hilbert_generators(workdir, capsys):
    code, out = run(
        capsys,
        "flows", workdir / "runX.pnet",
        "--region", "fibre:a", "--via", workdir / "fold.pmor",
        "--ring", "n", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [[1, 0, 1, 0], [1, 1, 0, 1]]


def test_classes_identify_the_fibre_units(workdir, capsys):
    code, out = run(
        capsys,
        "classes", workdir / "runX.pnet",
        "--region", "fibre:u", "--via", workdir / "fold.pmor", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 1
    reps = payload["classes"]
    assert reps["p3.p3"] == reps["p4.p4"]
    assert any(reps["p3.p3"])


def test_classes_identify_all_units_over_the_whole_net(workdir, capsys):
    code, out = run(capsys, "classes", workdir / "runX.pnet", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["rank"] == 1
    reps = list(payload["classes"].values())
    assert all(r == reps[0] for r in reps) and any(reps[0])


def test_classes_reject_ring_n(workdir, capsys):
    code, _ = run(capsys, "classes", workdir / "runX.pnet", "--ring", "n")
    assert code == 2


def test_axioms_sweep_is_exact(workdir, capsys):
    code, out = run(
        capsys, "axioms", workdir / "runX.pnet", "--random", "2", "--seed", "3"
    )
    assert code == 0
    assert "all exact" in out
    assert "random nets: 2 swept" in out


def test_axioms_counts_the_covers_of_a_place_next_to_thirteen_transitions(tmp_path, capsys):
    # 2**13 closed covers of the place's basic closed set, 2 open covers of
    # each transition's basic open: counted, not enumerated
    transitions = [f"t{i}" for i in range(13)]
    star = place_transition_net(
        "star", ["p"], transitions, consume={t: {"p": 1} for t in transitions}, produce={}
    )
    (tmp_path / "star.pnet").write_text(serialize_net(star))
    code, out = run(capsys, "axioms", tmp_path / "star.pnet", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"] == {"token-sheaf": 27, "binding-cosheaf": 8205, "flow-gluing": 8205}
    assert payload["failures"] == []


def test_check_morphism_prints_the_classification(workdir, capsys):
    code, out = run(capsys, "check-morphism", workdir / "fold.pmor")
    assert code == 0
    assert "abstraction: yes; embedding: no; discrete: no" in out
    assert "incidence-compat: ok" in out


def test_check_morphism_classifies_a_fold_of_two_places(tmp_path, capsys):
    f = squash_morphism()
    (tmp_path / "line.pnet").write_text(serialize_net(f.source))
    (tmp_path / "loop.pnet").write_text(serialize_net(f.target))
    (tmp_path / "squash.pmor").write_text(serialize_morphism(f, "line.pnet", "loop.pnet"))
    code, out = run(capsys, "check-morphism", tmp_path / "squash.pmor")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "abstraction: yes; embedding: no; discrete: yes",
        "modification: no; place-modification: no; transition-modification: no",
    ]


@pytest.mark.parametrize("ring", ["z", "q"])
def test_an_unsigned_inverse_is_no_modification_over_either_ring(tmp_path, capsys, ring):
    # p1 and p2 fold onto u, and c2 pulls back to the one class p2.x - p1.x
    build_documents(tmp_path)
    if ring == "z":
        for name in ("loop2q.pnet", "wideq.pnet"):
            path = tmp_path / name
            path.write_text(path.read_text().replace("ring q\n", ""))
    code, out = run(capsys, "check-morphism", tmp_path / "shear-q.pmor")
    assert code == 0
    assert out.splitlines()[-1] == (
        "modification: no; place-modification: no; transition-modification: no"
    )
    code, out = run(capsys, "check-morphism", tmp_path / "shear-q.pmor", "--json")
    classification = json.loads(out)["classification"]
    assert code == 0 and classification["discrete"] is True
    assert classification["modification"] is False
    assert classification["place-modification"] is False


def test_check_morphism_json_shape(workdir, capsys):
    code, out = run(capsys, "check-morphism", workdir / "fold.pmor", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "ok"
    assert [c["clause"] for c in payload["clauses"]] == [
        "continuity",
        "flow-basis",
        "flow-map-extends",
        "mark-map-defined",
        "class-transport",
        "signedness",
        "incidence-compat",
    ]
    assert payload["classification"]["abstraction"] is True
    assert payload["classification"]["discrete"] is False


def test_compose_with_the_identity_returns_the_morphism(workdir, capsys):
    code, out = run(
        capsys, "compose", workdir / "unfold.pmor", workdir / "idY.pmor"
    )
    assert code == 0
    doc = parse_morphism(out)
    unfold = unfolding_morphism()
    again = doc.to_morphism(unfold.source, unfold.target)
    assert morphisms_equal(again, unfold)


def test_compose_rejects_mismatched_middles(workdir, capsys):
    code, _ = run(capsys, "compose", workdir / "unfold.pmor", workdir / "fold.pmor")
    assert code == 2


RUN_Y = """net runY
place u tokens c
transition a bindings b1 b2
arc - a.b1 u.c {w}
arc - a.b2 u.c {w}
arc + a.b1 u.c {w}
arc + a.b2 u.c {w}
"""

IDENTITY_Y = """morphism id_runY
source {net}
target {net}
node u -> u
node a -> a
flowbasis a: v1 = 1*a.b1
flowmap a: v1 -> 1*b1
flowbasis a: v2 = 1*a.b2
flowmap a: v2 -> 1*b2
markmap u: u.c -> 1*c
"""


@pytest.mark.parametrize(
    "command, message",
    [
        ("compose", "the first morphism's target must be the second's source"),
        ("fibre-product", "fibre products need morphisms into a common target"),
    ],
)
def test_morphisms_between_nets_that_differ_in_weights_exit_2(tmp_path, capsys, command, message):
    # runY with arc weight 2 and with weight 3: same nodes, bindings and tokens
    for weight, stem in ((2, "y"), (3, "y3")):
        (tmp_path / f"{stem}.pnet").write_text(RUN_Y.format(w=weight))
        (tmp_path / f"id_{stem}.pmor").write_text(IDENTITY_Y.format(net=f"{stem}.pnet"))
    code = main([command, str(tmp_path / "id_y.pmor"), str(tmp_path / "id_y3.pmor")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


def test_a_basis_of_twice_the_unit_does_not_span_the_integer_flows(tmp_path, capsys):
    # the fibre over t is t alone, so every binding vector is a flow; 2*t.b
    # is one, of the right rank, but spans only the even flows over Z
    (tmp_path / "one.pnet").write_text(
        "net one\nplace p tokens c\ntransition t bindings b\narc - t.b p.c 1\n"
    )
    (tmp_path / "twice.pmor").write_text(
        "morphism twice\nsource one.pnet\ntarget one.pnet\nnode p -> p\nnode t -> t\n"
        "flowbasis t: v1 = 2*t.b\nflowmap t: v1 -> 2*b\nmarkmap p: p.c -> 1*c\n"
    )
    code, out = run(capsys, "check-morphism", tmp_path / "twice.pmor")
    assert code == 1
    assert "flow-basis: failed (vectors do not span the fibre flows over 't')" in out


def test_a_rational_coefficient_in_an_integer_morphism_exits_2_in_the_cli_rendering(
    tmp_path, capsys
):
    (tmp_path / "one.pnet").write_text(
        "net one\nplace p tokens c\ntransition t bindings b\narc - t.b p.c 1\n"
    )
    (tmp_path / "half.pmor").write_text(
        "morphism half\nsource one.pnet\ntarget one.pnet\nnode p -> p\nnode t -> t\n"
        "flowbasis t: v1 = 1*t.b\nflowmap t: v1 -> 1*b\nmarkmap p: p.c -> 1/2*c\n"
    )
    code = main(["check-morphism", str(tmp_path / "half.pmor")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: non-integer coefficient 1/2 in an integer morphism (line 8, column 19)\n"
    )
    assert "Fraction(" not in captured.err


@pytest.mark.parametrize("ring", ["z", "q"])
def test_a_token_with_no_integer_class_leaves_the_transport_underdetermined(
    tmp_path, capsys, ring
):
    # t consumes 2 tokens from p and both go to a: over Z the token p.c is
    # no integer combination of the relation column [-2], over Q it is
    line = "ring q\n" if ring == "q" else ""
    (tmp_path / "drain.pnet").write_text(DRAIN.format(ring=line))
    (tmp_path / "lone.pnet").write_text(LONE.format(ring=line))
    (tmp_path / "drain.pmor").write_text(
        "morphism drain\nsource drain.pnet\ntarget lone.pnet\nnode p -> a\nnode t -> a\n"
    )
    code, out = run(capsys, "check-morphism", tmp_path / "drain.pmor")
    if ring == "q":
        assert code == 0 and "class-transport: ok" in out
        return
    assert code == 1
    assert (
        "class-transport: failed (transport over 'a' is underdetermined: token ('p', 'c') "
        "is not generated by the place-fibre tokens and the region relations)"
    ) in out


def test_product_marked_output_round_trips(workdir, capsys):
    code, out = run(
        capsys, "product", workdir / "runY.pnet", workdir / "unfoldY.pnet", "--marked"
    )
    assert code == 0
    doc = parse_net(out)
    assert not doc.strict and doc.ring == "Q"
    assert doc.marking == {("(u,v)", "1:c"): 2, ("(u,v)", "2:v"): 2}
    built = doc.to_net()
    expected = kronecker(y_net(), unfolding_morphism().source).net
    assert built.space.nodes == expected.space.nodes
    assert built.bindings == expected.bindings
    assert built.tokens == expected.tokens


def test_product_marked_needs_both_markings(workdir, capsys):
    code, _ = run(
        capsys, "product", workdir / "runX.pnet", workdir / "runY.pnet", "--marked"
    )
    assert code == 2


def test_check_product_reach_passes_on_the_loop_pair(workdir, capsys):
    code, out = run(
        capsys,
        "check-product-reach", workdir / "runY.pnet", workdir / "unfoldY.pnet",
        "--depth", "4",
    )
    assert code == 0
    assert "status: ok" in out


def test_check_product_reach_budget_is_inconclusive(workdir, capsys):
    code, out = run(
        capsys,
        "check-product-reach", workdir / "grow.pnet", workdir / "grow.pnet",
        "--depth", "3", "--max-states", "3",
    )
    assert code == 3
    assert "status: inconclusive" in out
    assert "budget" in out


def test_fibre_product_of_the_unfoldings(workdir, capsys):
    code, out = run(
        capsys, "fibre-product", workdir / "unfold.pmor", workdir / "unfold.pmor"
    )
    assert code == 0
    assert "(beta1,beta1)" in out and "(beta2,beta2)" in out
    assert "(beta1,beta2)" not in out
    doc = parse_net(out)
    assert doc.to_net().space.places == ("(v,v)",)


def test_fibre_product_needs_discrete_legs(workdir, capsys):
    code, _ = run(capsys, "fibre-product", workdir / "fold.pmor", workdir / "fold.pmor")
    assert code == 2


def test_diagonal_verifies_on_the_target(workdir, capsys):
    code, out = run(capsys, "diagonal", workdir / "runY.pnet")
    assert code == 0
    assert "# embedding into the square: ok" in out
    assert parse_net(out).to_net().space.nodes == ("(u,u)", "(a,a)")


def test_diagonal_names_the_failing_clause(workdir, capsys):
    code, out = run(capsys, "diagonal", workdir / "runX.pnet")
    assert code == 1
    assert "# embedding into the square: failed" in out
    assert "# failing clause: class-transport" in out


def test_simulate_prints_the_trace(workdir, capsys):
    code, out = run(
        capsys, "simulate", workdir / "runY.pnet", "--sequence", "a.b1,a.b2"
    )
    assert code == 0
    assert "step 2 (a.b2): u.c=2" in out
    assert "final: u.c=2" in out


def test_simulate_reports_disabled_steps(workdir, capsys):
    code, out = run(
        capsys,
        "simulate", workdir / "runY.pnet",
        "--marking", "u.c=1", "--sequence", "a.b1",
    )
    assert code == 1
    assert "step 1 (a.b1) is not enabled" in out


def test_reach_counts_the_loop(workdir, capsys):
    code, out = run(
        capsys,
        "reach", workdir / "runY.pnet", "--marking", "u.c=2", "--depth", "5",
    )
    assert code == 0
    assert out.startswith("1 marking\n")


def test_reach_depth_at_the_radius_is_not_truncated(tmp_path, capsys):
    path = tmp_path / "ring2.pnet"
    path.write_text(serialize_net(two_place_ring(), marking={("r0", "r0"): 2}))
    code, out = run(capsys, "reach", path, "--depth", "2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 3
    assert payload["truncated"] is False
    code, out = run(capsys, "reach", path, "--depth", "1", "--json")
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["truncated"] is True


def test_reach_budget_exhaustion_is_inconclusive(workdir, capsys):
    code, out = run(capsys, "reach", workdir / "grow.pnet", "--max-states", "3")
    assert code == 3
    assert "state budget exhausted" in out


def test_reach_depth_cut_that_fills_the_budget_is_not_a_budget_cut(tmp_path, capsys):
    # 2 markings within depth 1 fill a budget of 2; the one unseen marking
    # lies past the depth cut, the budget refused nothing
    path = tmp_path / "ring2.pnet"
    path.write_text(serialize_net(two_place_ring(), marking={("r0", "r0"): 2}))
    code, out = run(capsys, "reach", path, "--depth", "1", "--max-states", "2")
    assert code == 0
    assert "note: cut at the depth bound" in out
    assert "budget" not in out
    code, out = run(capsys, "reach", path, "--depth", "1", "--max-states", "2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["count"], payload["truncated"], payload["budget_exhausted"]) == (
        2, True, False
    )


def reach_in_both_formats(capsys, *argv):
    """``reach`` in text and in JSON; both must give one exit code, one
    count and the same markings in the same order."""
    code, text = run(capsys, "reach", *argv)
    json_code, out = run(capsys, "reach", *argv, "--json")
    assert code == json_code
    payload = json.loads(out)
    lines = text.splitlines()
    count = payload["count"]
    assert lines[0] == f"{count} marking" + ("" if count == 1 else "s")
    shown = [
        {} if line == "  (empty)" else dict(part.split("=") for part in line.split())
        for line in lines
        if line.startswith("  ")
    ]
    assert shown == [{lab: str(v) for lab, v in m.items()} for m in payload["markings"]]
    assert len(shown) == count


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: (d / "runY.pnet", "--marking", "u.c=2"),
        lambda d: (d / "unfoldY.pnet",),
        lambda d: (d / "grow.pnet", "--max-states", "3"),
        lambda d: (d / "runX.pnet", "--marking", "p1.p1=1,p2.p2=1"),
        lambda d: (d / "runX.pnet", "--marking", "p1.p1=3/2,p2.p2=2", "--depth", "3"),
        lambda d: (d / "runX.pnet", "--marking", "p3.p3=0"),
    ],
    ids=["runY", "unfoldY", "grow-budget", "runX", "runX-fractions", "runX-empty"],
)
def test_reach_text_and_json_agree_on_the_fixtures(workdir, capsys, argv):
    reach_in_both_formats(capsys, *argv(workdir))


@pytest.mark.parametrize("seed", range(20))
def test_reach_text_and_json_agree_on_random_nets(tmp_path, capsys, seed):
    rng = random.Random(seed)
    net = random_strict_net(rng, max_places=3, max_transitions=3)
    path = tmp_path / "rand.pnet"
    path.write_text(serialize_net(net))
    marking = ",".join(
        f"{p}.{c}={rng.choice([1, 2, 3, '1/2', '7/3'])}" for p, c in net.token_axis()
    )
    reach_in_both_formats(capsys, path, "--marking", marking, "--depth", "4", "--max-states", "60")


BIG = 10**199 + 7  # 200 digits


@pytest.mark.parametrize(
    "value, payload, text",
    [
        (3, 3, "3"),
        (0, 0, "0"),
        (Fraction(4, 2), 2, "2"),
        (Fraction(-7, 3), "-7/3", "-7/3"),
        (Fraction(1, 3), "1/3", "1/3"),
        (BIG, BIG, str(BIG)),
        (Fraction(BIG, 1), BIG, str(BIG)),
        (True, 1, "1"),
    ],
    ids=["int", "zero", "fraction-1", "negative-fraction", "fraction", "200-digits",
         "200-digit-fraction", "bool"],
)
def test_scalar_renderings(value, payload, text):
    got = _json_value(value)
    assert got == payload
    assert type(got) is type(payload)
    assert la._format_scalar(value) == text


def test_map_behaviour_transports_a_saturated_run(workdir, capsys):
    code, out = run(
        capsys,
        "map-behaviour", workdir / "fold.pmor",
        "--marking", "p1.p1=1 p2.p2=1", "--sequence", "t1,t3",
    )
    assert code == 0
    assert "image sequence: a[1*b1]" in out
    assert "target post: u.c=2" in out


def test_map_behaviour_rejects_unsaturated_runs(workdir, capsys):
    code, out = run(
        capsys,
        "map-behaviour", workdir / "fold.pmor",
        "--marking", "p1.p1=1 p2.p2=1", "--sequence", "t1",
    )
    assert code == 1
    assert "not saturated" in out


def test_winskel_conversion_summary(workdir, capsys):
    code, out = run(capsys, "winskel", workdir / "loop.pwin")
    assert code == 0
    assert "closed in wsrc: yes" in out
    assert "place-modification: yes" in out
    assert "discrete: yes" in out


# strings from an alphabet with every character the writer's seam involves
JSON_TEXT = st.text(alphabet='{}[]",:\\\n\x00é a', max_size=5)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(2**80), 2**80), JSON_TEXT)
# lists of dicts of scalars, some of them empty, as the seam rule meets them
JSON_DICT_LISTS = st.lists(st.dictionaries(JSON_TEXT, JSON_SCALARS, max_size=3), max_size=4)
JSON_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, JSON_DICT_LISTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=16,
)


@given(JSON_VALUES)
@settings(max_examples=1000, deadline=None)
def test_the_json_writer_writes_the_bytes_of_the_standard_library(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_reports_are_byte_deterministic(workdir, capsys):
    _, first = run(capsys, "flows", workdir / "runX.pnet", "--json")
    _, second = run(capsys, "flows", workdir / "runX.pnet", "--json")
    assert first == second
    _, third = run(capsys, "check-morphism", workdir / "fold.pmor", "--json")
    _, fourth = run(capsys, "check-morphism", workdir / "fold.pmor", "--json")
    assert third == fourth


USAGE_CASES = [
    lambda d: ("show", d / "missing.pnet"),
    lambda d: ("flows", d / "runX.pnet", "--region", "fibre:a"),
    lambda d: ("flows", d / "runX.pnet", "--region", "nodes:zz"),
    lambda d: ("reach", d / "runX.pnet"),
    lambda d: ("simulate", d / "runY.pnet", "--marking", "u.c", "--sequence", "a.b1"),
    lambda d: ("simulate", d / "runY.pnet", "--marking", "u.c=2", "--sequence", "a"),
    lambda d: ("classes", d / "runX.pnet", "--region", "fibre:u"),
]


@pytest.mark.parametrize("case", USAGE_CASES)
def test_usage_errors_exit_2(workdir, capsys, case):
    code, _ = run(capsys, *case(workdir))
    assert code == 2


@pytest.mark.parametrize(
    "case",
    [
        lambda d: ("check-product-reach", d / "runY.pnet", d / "runY.pnet", "--depth", "-1"),
        lambda d: ("check-product-reach", d / "runY.pnet", d / "runY.pnet", "--max-states", "-3"),
        lambda d: ("reach", d / "runY.pnet", "--depth", "-1"),
        lambda d: ("reach", d / "runY.pnet", "--max-states", "-1"),
        lambda d: ("axioms", d / "runY.pnet", "--random", "-1"),
        lambda d: ("flows", d / "runX.pnet", "--ring", "n", "--hilbert-guard", "-1"),
    ],
    ids=[
        "product-depth", "product-max-states", "reach-depth", "reach-max-states", "random",
        "hilbert-guard",
    ],
)
def test_negative_counts_exit_2_with_a_message(workdir, capsys, case):
    code = main([str(a) for a in case(workdir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "expected a natural number, got -" in captured.err


def test_non_numeric_count_exits_2(workdir, capsys):
    code = main(["reach", str(workdir / "runY.pnet"), "--depth", "two"])
    assert code == 2
    assert "invalid natural value: 'two'" in capsys.readouterr().err


def test_zero_counts_are_accepted(workdir, capsys):
    code, out = run(capsys, "reach", workdir / "runY.pnet", "--depth", "0")
    assert code == 0
    assert out.startswith("1 marking\n")
    code, out = run(capsys, "axioms", workdir / "runY.pnet", "--random", "0")
    assert code == 0


@pytest.mark.parametrize(
    "case",
    [
        lambda d: ("reach", d / "grow.pnet"),
        lambda d: ("check-product-reach", d / "grow.pnet", d / "grow.pnet"),
    ],
    ids=["reach", "check-product-reach"],
)
def test_a_zero_state_budget_exits_2_naming_the_option(workdir, capsys, case):
    # the start marking is always kept, so a budget of no marking cannot be met
    argv = [str(a) for a in case(workdir)]
    code = main([*argv, "--max-states", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "argument --max-states: expected a positive count, got 0" in captured.err
    # a budget of one marking is met, and grow's second marking exhausts it
    assert main([*argv, "--max-states", "1"]) == 3
    capsys.readouterr()


def test_unknown_command_exits_2(workdir, capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_module_entry_point_runs(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "petrisheaf.cli", "show", str(workdir / "runY.pnet")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "net runY" in proc.stdout


@pytest.mark.parametrize(
    "command, last_line",
    [
        ("reach", "marking p.c {big}\n"),
        ("show", "arc + t.b p.c {big}\n"),
    ],
    ids=["marking", "arc-weight"],
)
def test_overlong_integers_exit_2_naming_the_line(tmp_path, capsys, command, last_line):
    # longer than the interpreter's int/str conversion limit of 4300 digits
    big = "1" * 5001
    text = "net n\nplace p tokens c\ntransition t bindings b\narc - t.b p.c 1\n"
    (tmp_path / "big.pnet").write_text(text + last_line.format(big=big))
    code = main([command, str(tmp_path / "big.pnet")])
    err = capsys.readouterr().err
    assert code == 2
    assert "too long" in err
    assert "(line 5, column" in err


def test_an_unexpected_exception_exits_4_with_one_line(workdir, capsys, monkeypatch):
    def crash(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_net", crash)
    code = main(["flows", str(workdir / "runX.pnet")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


# ---------------------------------------------------------------------------
# front-end contract: each subcommand takes the options it reads, documents
# and numbers are read by formats


OPTIONS = {
    "show": set(),
    "flows": {"--ring", "--region", "--via", "--hilbert-guard"},
    "classes": {"--ring", "--region", "--via"},
    "axioms": {"--random", "--seed"},
    "check-morphism": set(),
    "compose": set(),
    "product": {"--marked"},
    "fibre-product": set(),
    "diagonal": set(),
    "simulate": {"--marking", "--sequence"},
    "reach": {"--marking", "--depth", "--max-states"},
    "map-behaviour": {"--marking", "--sequence"},
    "winskel": set(),
    "check-product-reach": {"--marking1", "--marking2", "--depth", "--max-states"},
}


def test_each_subcommand_declares_the_options_it_reads():
    (commands,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    declared = {
        name: {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        for name, parser in commands.choices.items()
    }
    assert declared == {name: extra | {"--json"} for name, extra in OPTIONS.items()}
    assert sum(map(len, declared.values())) == 35


@pytest.mark.parametrize(
    "case",
    [
        lambda d: ("reach", d / "runY.pnet", "--seed", "3"),
        lambda d: ("show", d / "runY.pnet", "--ring", "q"),
        lambda d: ("map-behaviour", d / "fold.pmor", "--hilbert-guard", "1", "--sequence", "t1"),
        lambda d: ("check-morphism", d / "fold.pmor", "--hilbert-guard", "1"),
        lambda d: ("flows", d / "runX.pnet", "--strict"),
        lambda d: ("show", d / "runY.pnet", "--relaxed"),
    ],
    ids=[
        "reach-seed", "show-ring", "map-behaviour-guard", "check-morphism-guard", "flows-strict",
        "show-relaxed",
    ],
)
def test_undeclared_options_exit_2(workdir, capsys, case):
    code = main([str(a) for a in case(workdir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("value", ["1e5000", "1e2", "1.5", "1_0"])
def test_marking_values_follow_the_document_grammar(workdir, capsys, value):
    code = main(["reach", str(workdir / "runY.pnet"), "--marking", f"u.c={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# the README ring; 3000 jobs give 3,001 reachable markings, more text than a
# pipe buffers
README_RING = """net ring
place busy tokens job
place idle tokens job
transition finish bindings go
transition start bindings go
arc - finish.go busy.job 1
arc + finish.go idle.job 1
arc - start.go idle.job 1
arc + start.go busy.job {weight}
marking busy.job {jobs}
"""


def test_a_closed_stdout_is_not_a_failed_property(tmp_path):
    path = tmp_path / "big.pnet"
    path.write_text(README_RING.format(weight=1, jobs=3000))
    proc = subprocess.Popen(
        [sys.executable, "-m", "petrisheaf.cli", "reach", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "3001 markings\n"
    proc.stdout.close()  # as `| head -n 1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "weight, jobs, option, message",
    [
        (1, "\u0663", (), "marking counts are naturals"),
        (1, 2, ("--marking", "busy.job=\u0663"), "marking entries look like P.C=N"),
        ("\u00b2", 2, (), "arc weights are non-negative integers"),
    ],
    ids=["arabic-indic-marking", "arabic-indic-option", "superscript-weight"],
)
def test_integers_are_ascii_digits_only(tmp_path, capsys, weight, jobs, option, message):
    path = tmp_path / "ring.pnet"
    path.write_text(README_RING.format(weight=weight, jobs=jobs), encoding="utf-8")
    code = main(["reach", str(path), *option])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "entry, ref", [(".=1", "."), ("busy.=1", "busy."), ("busyjob=1", "busyjob")]
)
def test_a_marking_entry_without_a_token_reference_names_it(tmp_path, capsys, entry, ref):
    path = tmp_path / "ring.pnet"
    path.write_text(README_RING.format(weight=1, jobs=2))
    code = main(["reach", str(path), "--marking", f"busy.job=1,{entry}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: marking token must look like NODE.ELEMENT, got {ref!r}\n"


def test_fractional_marking_values_stay_valid(tmp_path, capsys):
    path = tmp_path / "ring2.pnet"
    path.write_text(serialize_net(two_place_ring()))
    code, out = run(capsys, "reach", path, "--marking", "r0.r0=1/2,r0.r0=1", "--json")
    assert code == 0
    assert json.loads(out)["markings"] == [
        {"r0.r0": "1/2", "r1.r1": 1}, {"r0.r0": "3/2"}
    ]


def test_via_without_a_fibre_region_exits_2(workdir, capsys):
    code = main(["flows", str(workdir / "runX.pnet"), "--via", str(workdir / "fold.pmor")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--via" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: ("show", d / "bin.pnet"),
        lambda d: ("check-morphism", d / "bin.pmor"),
        lambda d: ("winskel", d / "bin.pwin"),
    ],
    ids=["pnet", "pmor-source", "pwin-target"],
)
def test_documents_that_are_not_utf8_exit_2(workdir, capsys, argv):
    (workdir / "bin.pnet").write_bytes(b"net bin\nplace p tokens c\xff\n")
    (workdir / "bin.pmor").write_bytes(b"morphism m\nsource bin.pnet\ntarget runY.pnet\n")
    (workdir / "bin.pwin").write_bytes(b"winskel w\nsource wsrc.pnet\ntarget bin.pnet\n")
    code = main([str(a) for a in argv(workdir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "bin.pnet is not UTF-8 text" in captured.err


# ---------------------------------------------------------------------------
# mutation fuzz: a broken document gives a verdict or one error line


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    build_documents(directory)
    return directory


FUZZ_BASES = [
    "runX.pnet", "runY.pnet", "grow.pnet", "twice.pnet", "ring.pnet",
    "fold.pmor", "unfold.pmor", "idY.pmor", "half.pmor", "loop.pwin",
]
ODD_TOKENS = ["0", "-1", "1/2", "2/0", "x", "->", "=", "*", ".", "+", "-", "9" * 30, ""]
RUNS = {
    "fold.pmor": ("--marking", "p1.p1=1 p2.p2=1", "--sequence", "t1,t3"),
    "half.pmor": ("--marking", "u.c=2", "--sequence", "a.b1"),
    "idY.pmor": ("--marking", "u.c=2", "--sequence", "a.b1"),
    "unfold.pmor": ("--sequence", "a"),
}
# (kind, line, other line, token, other token, replacement), each index
# taken modulo the size of what it indexes
MUTATIONS = st.tuples(
    st.sampled_from(["delete", "duplicate", "swap lines", "replace token", "swap tokens"]),
    *[st.integers(0, 999)] * 5,
)


def mutate(text, mutations, cut):
    lines = text.splitlines()
    pool = ODD_TOKENS + text.split()
    for kind, i, j, a, b, r in mutations:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        tokens = lines[i].split(" ")
        a, b = a % len(tokens), b % len(tokens)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap lines":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "replace token":
            tokens[a] = pool[r % len(pool)]
            lines[i] = " ".join(tokens)
        else:
            tokens[a], tokens[b] = tokens[b], tokens[a]
            lines[i] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    return text if cut is None else text[: cut % (len(text) + 1)]


def fuzz_commands(base, mutant, directory):
    if base.endswith(".pnet"):
        return [
            ("show", mutant), ("flows", mutant), ("classes", mutant),
            ("reach", mutant, "--max-states", "50"),
        ]
    if base.endswith(".pmor"):
        identity = str(directory / "idY.pmor")
        return [
            ("check-morphism", mutant),
            ("compose", mutant, identity),
            ("fibre-product", mutant, identity),
            ("map-behaviour", mutant, *RUNS[base]),
        ]
    return [("winskel", mutant)]


@given(
    base=st.sampled_from(FUZZ_BASES),
    mutations=st.lists(MUTATIONS, min_size=1, max_size=3),
    cut=st.none() | st.integers(0, 9999),
)
@settings(max_examples=300, deadline=None)
def test_mutated_documents_give_a_verdict_or_one_error_line(documents, base, mutations, cut):
    mutant = documents / ("mutant" + base[base.index("."):])
    mutant.write_text(mutate((documents / base).read_text(), mutations, cut))
    for argv in fuzz_commands(base, str(mutant), documents):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1, err.getvalue()

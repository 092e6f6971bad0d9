"""CLI output pinned byte for byte: stdout and exit code, text and JSON.

Every case runs ``petrisheaf.cli.main`` on documents built from
``fixtures.py`` (the same documents as the ``workdir`` fixture of
``test_cli.py``, ``ring q`` copies of ``runX.pnet`` and ``runY.pnet``, a
``ring q`` target that the fold's data fail on, a morphism that halves
``runY`` into its ``ring q`` copy, two nets with torsion classes, a
three-place ring, a net whose names hold braces and quotes, and a
``ring q`` morphism folding two places onto one
whose inverse is not signed, and a morphism squeezing a place and two
transitions of ``step.pnet`` onto one transition of ``pair.pnet``)
and compares the exit code and stdout with ``tests/golden/``.  The
temporary directory is written as ``<DIR>``.  The expected files are only
rewritten on purpose, when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from petrisheaf.cli import main
from petrisheaf.formats import serialize_morphism, serialize_net, serialize_winskel
from petrisheaf.morphism import identity_morphism
from petrisheaf.net import place_transition_net

from fixtures import (
    bad_weight_target,
    fold_morphism,
    squeeze_morphism,
    unfolding_morphism,
    winskel_data,
    winskel_nets,
)

GOLDEN = Path(__file__).parent / "golden"
DOCUMENT_SUFFIXES = (".pnet", ".pmor", ".pwin")

FIBRE_A = ("--region", "fibre:a", "--via", "fold.pmor")
FIBRE_U = ("--region", "fibre:u", "--via", "fold.pmor")

CASES = {
    "show-runX": ("show", "runX.pnet"),
    "show-runY": ("show", "runY.pnet"),
    "show-runXq": ("show", "runXq.pnet"),
    "show-grow": ("show", "grow.pnet"),
    "flows-runX-z": ("flows", "runX.pnet", "--ring", "z"),
    "flows-runX-q": ("flows", "runX.pnet", "--ring", "q"),
    "flows-runXq": ("flows", "runXq.pnet"),
    "flows-fibre-a-z": ("flows", "runX.pnet", *FIBRE_A, "--ring", "z"),
    "flows-fibre-a-q": ("flows", "runX.pnet", *FIBRE_A, "--ring", "q"),
    "flows-fibre-a-n": ("flows", "runX.pnet", *FIBRE_A, "--ring", "n"),
    "flows-unfoldY-z": ("flows", "unfoldY.pnet", "--ring", "z"),
    "flows-unfoldY-q": ("flows", "unfoldY.pnet", "--ring", "q"),
    "flows-twice-z": ("flows", "twice.pnet", "--ring", "z"),
    "flows-twice-q": ("flows", "twice.pnet", "--ring", "q"),
    "classes-runX-z": ("classes", "runX.pnet", "--ring", "z"),
    "classes-runX-q": ("classes", "runX.pnet", "--ring", "q"),
    "classes-runXq": ("classes", "runXq.pnet"),
    "classes-fibre-u-z": ("classes", "runX.pnet", *FIBRE_U, "--ring", "z"),
    "classes-fibre-u-q": ("classes", "runX.pnet", *FIBRE_U, "--ring", "q"),
    "classes-runY-z": ("classes", "runY.pnet", "--ring", "z"),
    "classes-runY-q": ("classes", "runY.pnet", "--ring", "q"),
    "classes-twice-z": ("classes", "twice.pnet", "--ring", "z"),
    "classes-twice-q": ("classes", "twice.pnet", "--ring", "q"),
    "classes-ring-n": ("classes", "runX.pnet", "--ring", "n"),
    # incidence diag(2, 3): the Smith form needs its divisibility step, 1 6
    "classes-torsion-z": ("classes", "torsion.pnet", "--ring", "z"),
    "axioms-runX": ("axioms", "runX.pnet"),
    "axioms-runXq": ("axioms", "runXq.pnet"),
    "axioms-runY": ("axioms", "runY.pnet"),
    "axioms-twice": ("axioms", "twice.pnet"),
    "axioms-random": ("axioms", "runX.pnet", "--random", "4", "--seed", "5"),
    "check-morphism-fold": ("check-morphism", "fold.pmor"),
    "check-morphism-unfold": ("check-morphism", "unfold.pmor"),
    "check-morphism-idY": ("check-morphism", "idY.pmor"),
    # over Q, a failing clause renders its vectors as scalars: [2], not Fraction(2, 1)
    "check-morphism-fold-badw-q": ("check-morphism", "fold-badw.pmor"),
    # over Q as over Z: the inverse sends c2 to p2.x - p1.x, so no modification
    "check-morphism-shear-q": ("check-morphism", "shear-q.pmor"),
    "compose-unfold-idY": ("compose", "unfold.pmor", "idY.pmor"),
    "compose-fold-idY": ("compose", "fold.pmor", "idY.pmor"),
    "compose-mismatch": ("compose", "unfold.pmor", "fold.pmor"),
    # the fibre flows over a are spanned by 2*t1.g + t2.g: the image of a
    # fibre flow is half its t1.g entry
    "check-morphism-squeeze": ("check-morphism", "squeeze.pmor"),
    "compose-squeeze-idpair": ("compose", "squeeze.pmor", "idpair.pmor"),
    "product-runY-unfoldY": ("product", "runY.pnet", "unfoldY.pnet"),
    "product-runY-unfoldY-marked": ("product", "runY.pnet", "unfoldY.pnet", "--marked"),
    "product-runX-runXq": ("product", "runX.pnet", "runXq.pnet"),
    "product-grow-twice": ("product", "grow.pnet", "twice.pnet"),
    "winskel-loop": ("winskel", "loop.pwin"),
    "reach-ring": ("reach", "ring.pnet"),
    "reach-ring-depth-2": ("reach", "ring.pnet", "--depth", "2"),
    "reach-ring-depth-4": ("reach", "ring.pnet", "--depth", "4"),
    "reach-grow-budget": ("reach", "grow.pnet", "--max-states", "3"),
    # every marking key holds braces or quotes
    "reach-braces": ("reach", "braces.pnet"),
    # no token at all: the one reachable marking is empty
    "reach-zero": ("reach", "ring.pnet", "--marking", ""),
    "simulate-runY": ("simulate", "runY.pnet", "--sequence", "a.b1,a.b2"),
    "simulate-runY-disabled": (
        "simulate", "runY.pnet", "--marking", "u.c=1", "--sequence", "a.b1"
    ),
    "simulate-ring": ("simulate", "ring.pnet", "--sequence", "s0,s1,s0,s2"),
    "map-behaviour-fold": (
        "map-behaviour", "fold.pmor", "--marking", "p1.p1=1 p2.p2=1", "--sequence", "t1,t3"
    ),
    "map-behaviour-fold-unsaturated": (
        "map-behaviour", "fold.pmor", "--marking", "p1.p1=1 p2.p2=1", "--sequence", "t1"
    ),
    "map-behaviour-squeeze": ("map-behaviour", "squeeze.pmor", "--sequence", "t1,t1,t2"),
    # the refused image renders as the CLI renders scalars: [1/2, 0], not Fraction(1, 2)
    "map-behaviour-half": (
        "map-behaviour", "half.pmor", "--marking", "u.c=2", "--sequence", "a.b1"
    ),
    "check-product-reach-runY-unfoldY": (
        "check-product-reach", "runY.pnet", "unfoldY.pnet", "--depth", "4"
    ),
    "check-product-reach-ring-twice": ("check-product-reach", "ring.pnet", "twice.pnet"),
    "check-product-reach-grow-budget": (
        "check-product-reach", "grow.pnet", "grow.pnet", "--depth", "3", "--max-states", "3"
    ),
    "diagonal-runY": ("diagonal", "runY.pnet"),
    "diagonal-runX": ("diagonal", "runX.pnet"),
    "diagonal-ring": ("diagonal", "ring.pnet"),
    "fibre-product-idY-idY": ("fibre-product", "idY.pmor", "idY.pmor"),
    # the unfold's fibre over a holds two transitions
    "fibre-product-unfold-idY": ("fibre-product", "unfold.pmor", "idY.pmor"),
    "fibre-product-fold-fold": ("fibre-product", "fold.pmor", "fold.pmor"),
}


def build_documents(directory):
    fold = fold_morphism()
    unfold = unfolding_morphism()
    run_x = serialize_net(fold.source)
    (directory / "runX.pnet").write_text(run_x)
    header, rest = run_x.split("\n", 1)
    (directory / "runXq.pnet").write_text(f"{header}\nring q\n{rest}")
    run_y = serialize_net(fold.target, marking={("u", "c"): 2})
    (directory / "runY.pnet").write_text(run_y)
    header, rest = run_y.split("\n", 1)
    (directory / "runYq.pnet").write_text(f"{header}\nring q\n{rest}")
    # a verified morphism halving every flow and mark of runY
    (directory / "half.pmor").write_text(
        "morphism half\n"
        "source runY.pnet\n"
        "target runYq.pnet\n"
        "node u -> u\n"
        "node a -> a\n"
        "flowbasis a: v1 = 1*a.b1\n"
        "flowmap a: v1 -> 1/2*b1\n"
        "flowbasis a: v2 = 1*a.b2\n"
        "flowmap a: v2 -> 1/2*b2\n"
        "markmap u: u.c -> 1/2*c\n"
    )
    (directory / "unfoldY.pnet").write_text(
        serialize_net(unfold.source, marking={("v", "v"): 2})
    )
    (directory / "fold.pmor").write_text(serialize_morphism(fold, "runX.pnet", "runY.pnet"))
    # the fold's data onto a ring q target whose b2 weighs 3
    (directory / "runYbadq.pnet").write_text(serialize_net(bad_weight_target(ring="Q")))
    (directory / "fold-badw.pmor").write_text(
        serialize_morphism(fold, "runX.pnet", "runYbadq.pnet").replace(
            "morphism fold\n", "morphism fold-badw\n"
        )
    )
    (directory / "unfold.pmor").write_text(
        serialize_morphism(unfold, "unfoldY.pnet", "runY.pnet")
    )
    (directory / "idY.pmor").write_text(
        serialize_morphism(identity_morphism(fold.target), "runY.pnet", "runY.pnet")
    )
    grow = place_transition_net(
        "grow", ["h"], ["g"], consume={"g": {"h": 1}}, produce={"g": {"h": 2}}
    )
    (directory / "grow.pnet").write_text(serialize_net(grow, marking={("h", "h"): 1}))
    # one token type moved two at a time: the classes of the whole net carry torsion
    twice = place_transition_net(
        "twice", ["l", "r"], ["go", "back"],
        consume={"go": {"l": 2}, "back": {"r": 2}},
        produce={"go": {"r": 2}, "back": {"l": 2}},
    )
    (directory / "twice.pnet").write_text(serialize_net(twice, marking={("l", "l"): 2}))
    # two producers of weights 2 and 3: classes Z/6, invariant factors 1 6
    (directory / "torsion.pnet").write_text(
        "net torsion\n"
        "place p tokens c\n"
        "place q tokens c\n"
        "transition s bindings g\n"
        "transition t bindings g\n"
        "arc + s.g p.c 2\n"
        "arc + t.g q.c 3\n"
    )
    # three places in a cycle holding two tokens: six markings, radius 4
    ring = place_transition_net(
        "ring", ["r0", "r1", "r2"], ["s0", "s1", "s2"],
        consume={"s0": {"r0": 1}, "s1": {"r1": 1}, "s2": {"r2": 1}},
        produce={"s0": {"r1": 1}, "s1": {"r2": 1}, "s2": {"r0": 1}},
    )
    (directory / "ring.pnet").write_text(serialize_net(ring, marking={("r0", "r0"): 2}))
    # place, token, transition and binding names holding { } and ": five markings
    (directory / "braces.pnet").write_text(
        'net braces{"}\n'
        'place p{"} tokens a} {b\n'
        'place q} tokens "c{\n'
        'transition t{ bindings g} h"\n'
        "transition s} bindings k{\n"
        'arc - t{.g} p{"}.a} 1\n'
        'arc + t{.g} q}."c{ 1\n'
        'arc - t{.h" p{"}.{b 1\n'
        'arc + t{.h" q}."c{ 1\n'
        'arc - s}.k{ q}."c{ 1\n'
        'arc + s}.k{ p{"}.a} 1\n'
        'marking p{"}.a} 1\n'
        'marking p{"}.{b 1\n'
    )
    # p1 and p2 fold onto u; the preimage class of c2 is the one vector [-1, 1]
    (directory / "loop2q.pnet").write_text(
        "net loop2\n"
        "ring q\n"
        "place p1 tokens x\n"
        "place p2 tokens x\n"
        "transition t bindings g\n"
        "arc - t.g p1.x 1\n"
        "arc - t.g p2.x 1\n"
        "arc + t.g p1.x 1\n"
        "arc + t.g p2.x 1\n"
    )
    (directory / "wideq.pnet").write_text(
        "net wide\n"
        "ring q\n"
        "place u tokens c1 c2\n"
        "transition a bindings g\n"
        "arc - a.g u.c1 2\n"
        "arc - a.g u.c2 1\n"
        "arc + a.g u.c1 2\n"
        "arc + a.g u.c2 1\n"
    )
    (directory / "shear-q.pmor").write_text(
        "morphism shear\n"
        "source loop2q.pnet\n"
        "target wideq.pnet\n"
        "node p1 -> u\n"
        "node p2 -> u\n"
        "node t -> a\n"
        "flowbasis a: v1 = 1*t.g\n"
        "flowmap a: v1 -> 1*g\n"
        "markmap u: p1.x -> 1*c1\n"
        "markmap u: p2.x -> 1*c1 + 1*c2\n"
    )
    squeeze = squeeze_morphism()
    (directory / "step.pnet").write_text(serialize_net(squeeze.source, marking={("q", "c"): 2}))
    (directory / "pair.pnet").write_text(serialize_net(squeeze.target))
    (directory / "squeeze.pmor").write_text(
        serialize_morphism(squeeze, "step.pnet", "pair.pnet")
    )
    (directory / "idpair.pmor").write_text(
        serialize_morphism(identity_morphism(squeeze.target), "pair.pnet", "pair.pnet")
    )
    wsrc, wtgt = winskel_nets()
    (directory / "wsrc.pnet").write_text(serialize_net(wsrc))
    (directory / "wtgt.pnet").write_text(serialize_net(wtgt))
    (directory / "loop.pwin").write_text(
        serialize_winskel(winskel_data(), "wsrc.pnet", "wtgt.pnet")
    )


def render(directory, case, json_mode):
    argv = [
        str(directory / a) if a.endswith(DOCUMENT_SUFFIXES) else a for a in CASES[case]
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + (["--json"] if json_mode else []))
    return f"exit {code}\n" + out.getvalue().replace(str(directory), "<DIR>")


def golden_path(case, json_mode):
    return GOLDEN / f"{case}{'.json' if json_mode else ''}.txt"


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    build_documents(directory)
    return directory


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(documents, case, json_mode):
    expected = golden_path(case, json_mode).read_text()
    assert render(documents, case, json_mode) == expected


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        build_documents(directory)
        for case in sorted(CASES):
            for json_mode in (False, True):
                golden_path(case, json_mode).write_text(render(directory, case, json_mode))


if __name__ == "__main__":
    write_goldens()

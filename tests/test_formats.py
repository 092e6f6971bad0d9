"""Document formats: net, morphism and winskel files parse and round-trip."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrisheaf.cli import random_strict_net
from petrisheaf.formats import (
    FormatError,
    load_morphism,
    load_net,
    load_winskel,
    parse_morphism,
    parse_net,
    parse_winskel,
    serialize_morphism,
    serialize_net,
    serialize_winskel,
)
from petrisheaf.morphism import (
    NetMorphism,
    WinskelMorphism,
    identity_morphism,
    morphisms_equal,
)
from petrisheaf.net import NetError
from petrisheaf.product import kronecker
from petrisheaf.topology import SpaceError

from fixtures import (
    fold_morphism,
    unfolding_morphism,
    winskel_data,
    winskel_nets,
    x_net,
    y_net,
)
from test_net import strict_nets

TARGET_DOC = """\
# running example target
net runY
place u tokens c
transition a bindings b1 b2
arc - a.b1 u.c 2
arc + a.b1 u.c 2
arc - a.b2 u.c 2
arc + a.b2 u.c 2
marking u.c 2
"""


def net_data(net):
    grid = [
        (t, b, p, c, net.w_minus(t, b, p, c), net.w_plus(t, b, p, c))
        for t, b in net.binding_axis()
        for p, c in net.token_axis()
    ]
    return (
        net.space.nodes,
        net.space.adjacency,
        net.bindings,
        net.tokens,
        net.strict,
        net.ring,
        grid,
    )


def test_target_document_parses_to_the_example_net():
    doc = parse_net(TARGET_DOC)
    assert doc.name == "runY"
    assert doc.marking == {("u", "c"): 2}
    assert net_data(doc.to_net()) == net_data(y_net())


def test_blank_and_comment_only_documents_are_rejected():
    for text in ("", "   \n\n", "# only a comment\n"):
        with pytest.raises(FormatError, match="missing net header"):
            parse_net(text)


def test_header_must_come_first():
    with pytest.raises(FormatError, match="missing net header"):
        parse_net("place u tokens c\nnet late\n")


@pytest.mark.parametrize("net", [x_net(), y_net()], ids=["runX", "runY"])
def test_net_round_trip_is_exact(net):
    text = serialize_net(net)
    again = parse_net(text).to_net()
    assert net_data(again) == net_data(net)
    assert serialize_net(again) == text


def test_marking_round_trips_with_the_net(tmp_path):
    path = tmp_path / "runY.pnet"
    path.write_text(serialize_net(y_net(), marking={("u", "c"): 3}))
    net, marking = load_net(path)
    assert marking == {("u", "c"): 3}
    assert net_data(net) == net_data(y_net())


def test_product_net_round_trips_with_adjacency_lines():
    prod = kronecker(x_net(), y_net()).net
    note = ["product of runX and runY"]
    text = serialize_net(prod, comments=note)
    assert text.startswith("# product of runX and runY\n")
    doc = parse_net(text)
    assert not doc.strict
    assert doc.ring == "Q"
    again = doc.to_net()
    assert net_data(again) == net_data(prod)
    assert serialize_net(again, comments=note) == text


@pytest.mark.parametrize(
    "make", [fold_morphism, unfolding_morphism], ids=["fold", "unfold"]
)
def test_morphism_round_trip_is_exact(make):
    f = make()
    text = serialize_morphism(f, "src.pnet", "tgt.pnet")
    doc = parse_morphism(text)
    assert (doc.source, doc.target) == ("src.pnet", "tgt.pnet")
    again = doc.to_morphism(f.source, f.target)
    assert morphisms_equal(again, f)
    assert again.verify().status == "ok"
    assert serialize_morphism(again, "src.pnet", "tgt.pnet") == text


def test_projection_with_fractional_marks_round_trips():
    prod = kronecker(x_net(), y_net())
    f = prod.right
    text = serialize_morphism(f, "prod.pnet", "runY.pnet")
    # side-1 flow vectors die, side-2 mark entries shrink by the place count
    assert "-> 0" in text
    assert "1/4*c" in text
    again = parse_morphism(text).to_morphism(f.source, f.target)
    assert morphisms_equal(again, f)
    assert serialize_morphism(again, "prod.pnet", "runY.pnet") == text


DRAIN = "net drain\n{ring}place p tokens c\ntransition t bindings g\narc - t.g p.c 2\n"
LONE = "net lone\n{ring}place u tokens c\ntransition a bindings h\n"


def drain_nets(ring):
    """A net whose transition ``t`` consumes 2 tokens from ``p``, and a lone
    transition ``a`` beside an unattached place ``u``."""
    line = "ring q\n" if ring == "q" else ""
    return parse_net(DRAIN.format(ring=line)).to_net(), parse_net(LONE.format(ring=line)).to_net()


@pytest.mark.parametrize("ring", ["z", "q"])
def test_a_morphism_with_empty_fibre_data_round_trips(ring):
    # p and t both go to a: the fibre over a has no flows, so no flowbasis
    # line, and there is no image place, so no markmap line
    source, target = drain_nets(ring)
    f = NetMorphism(source, target, {"p": "a", "t": "a"}, {"a": []}, {}, name="drain")
    text = serialize_morphism(f, "drain.pnet", "lone.pnet")
    assert "flowbasis" not in text and "markmap" not in text
    again = parse_morphism(text).to_morphism(source, target)
    assert serialize_morphism(again, "drain.pnet", "lone.pnet") == text
    assert again.flow_maps == f.flow_maps == {"a": ((), ())}
    assert again.mark_maps == f.mark_maps == {}
    details = [(c.clause, c.status, c.detail) for c in again.verify().clauses]
    assert details == [(c.clause, c.status, c.detail) for c in f.verify().clauses]
    assert again.verify().status == ("ok" if ring == "q" else "failed")


def test_morphism_loader_resolves_net_references(tmp_path):
    fold = fold_morphism()
    (tmp_path / "runX.pnet").write_text(serialize_net(fold.source))
    (tmp_path / "runY.pnet").write_text(serialize_net(fold.target))
    (tmp_path / "fold.pmor").write_text(
        serialize_morphism(fold, "runX.pnet", "runY.pnet")
    )
    loaded, doc, marking = load_morphism(tmp_path / "fold.pmor")
    assert morphisms_equal(loaded, fold)
    assert (doc.source, doc.target, marking) == ("runX.pnet", "runY.pnet", None)
    cls = loaded.classify()
    assert cls.abstraction and not cls.discrete
    # the source net's marking line comes back with the morphism
    token = fold.source.token_axis()[0]
    (tmp_path / "runX.pnet").write_text(serialize_net(fold.source, marking={token: 2}))
    assert load_morphism(tmp_path / "fold.pmor")[2] == {token: 2}


def test_winskel_round_trip(tmp_path):
    w = winskel_data()
    src, tgt = winskel_nets()
    (tmp_path / "wsrc.pnet").write_text(serialize_net(src))
    (tmp_path / "wtgt.pnet").write_text(serialize_net(tgt))
    text = serialize_winskel(w, "wsrc.pnet", "wtgt.pnet")
    (tmp_path / "loop.pwin").write_text(text)
    loaded = load_winskel(tmp_path / "loop.pwin")
    assert loaded.beta == w.beta
    assert loaded.eta == w.eta
    assert serialize_winskel(loaded, "wsrc.pnet", "wtgt.pnet") == text


def test_parse_errors_report_line_and_column():
    text = "net n\ntransition t bindings b\nplace p tokens c\narc - t.b q.c 1\n"
    with pytest.raises(FormatError) as err:
        parse_net(text)
    assert "undeclared token" in str(err.value)
    assert "(line 4, column 11)" in str(err.value)
    assert (err.value.line, err.value.column) == (4, 11)


BAD_NET_DOCS = [
    ("net n\nnet again\n", "duplicate net header"),
    ("net n\nplace p tokens c\nplace p tokens d\n", "duplicate declaration"),
    ("net n\ntransition t bindings b b\n", "duplicate bindings"),
    ("net n\nplace p tokens c\narc - t.b p.c 1\n", "undeclared binding"),
    (
        "net n\ntransition t bindings b\nplace p tokens c\narc - t.b p.c -1\n",
        "non-negative",
    ),
    (
        "net n\ntransition t bindings b\nplace p tokens c\nadjacency t p\n",
        "relaxed",
    ),
    ("net n\nring r5\n", "ring must be z or q"),
    ("net n\nwhatever x\n", "unknown directive"),
    (
        "net n\nplace p tokens c\nmarking p.c 1\nmarking p.c 2\n",
        "duplicate marking",
    ),
    ("net n\ntransition t bindings b\nplace p.q tokens c\n", "bad place name"),
    ("net n\ntransition t bindings b\nplace p tokens c\narc - t p.c 1\n", "NODE.ELEMENT"),
]


@pytest.mark.parametrize("text,needle", BAD_NET_DOCS)
def test_bad_net_documents_are_rejected(text, needle):
    with pytest.raises(FormatError, match=needle):
        parse_net(text)


BAD_MORPHISM_DOCS = [
    ("", "missing morphism header"),
    ("morphism f\nsource a.pnet\nsource b.pnet\n", "duplicate source"),
    ("morphism f\nnode x -> y\nnode x -> z\n", "duplicate node line"),
    ("morphism f\nflowbasis a: v1 1*t.b\n", "expected 'flowbasis"),
    ("morphism f\nflowmap a: v1 -> \n", "empty combination"),
    ("morphism f\nmarkmap u: x -> 1*c\n", "NODE.ELEMENT"),
    ("morphism f\nnode x y\n", "expected 'node"),
    # the separator inside the header token and nothing after it
    ("morphism f\nflowbasis =t:\n", "expected 'flowbasis A: NAME = combination'.*line 2"),
    ("morphism f\nflowmap ->t:\n", "expected 'flowmap A: NAME -> combination'.*line 2"),
    ("morphism f\nmarkmap ->p:\n", "expected 'markmap U: X.C -> combination'.*line 2"),
]


@pytest.mark.parametrize("text,needle", BAD_MORPHISM_DOCS)
def test_bad_morphism_documents_are_rejected(text, needle):
    with pytest.raises(FormatError, match=needle):
        parse_morphism(text)


def test_morphism_document_structural_errors():
    fold = fold_morphism()
    text = serialize_morphism(fold, "x.pnet", "y.pnet")

    doc = parse_morphism(text)
    del doc.node_map["p1"]
    with pytest.raises(FormatError, match="node map misses"):
        doc.to_morphism(fold.source, fold.target)

    doc = parse_morphism(text)
    doc.flow_images["a"].pop("v1")
    with pytest.raises(FormatError, match="no flowmap line"):
        doc.to_morphism(fold.source, fold.target)

    doc = parse_morphism(text)
    doc.flow_images["a"]["v9"] = [(1, "b1")]
    with pytest.raises(FormatError, match="undeclared basis vector"):
        doc.to_morphism(fold.source, fold.target)


BAD_WINSKEL_DOCS = [
    ("", "missing winskel header"),
    ("winskel w\nbeta x y1\n", "expected 'beta"),
    ("winskel w\nbeta x -> 1/2*y1\n", "positive integers"),
    ("winskel w\neta t s\n", "expected 'eta"),
    ("winskel w\neta t -> s\neta t -> s\n", "duplicate eta"),
]


@pytest.mark.parametrize("text,needle", BAD_WINSKEL_DOCS)
def test_bad_winskel_documents_are_rejected(text, needle):
    with pytest.raises(FormatError, match=needle):
        parse_winskel(text)


# ---------------------------------------------------------------------------
# the parsers on arbitrary text: format errors only

# line heads: the three document headers and every directive, declarations
# and arcs with enough words that a net can load
DIRECTIVES = [
    "net n", "morphism n", "winskel n", "relaxed", "ring q", "transition t bindings b",
    "place p tokens c", "arc -", "arc +", "adjacency t p", "marking", "source", "target",
    "node", "flowbasis", "flowmap", "markmap", "beta", "eta",
]
SEPARATORS = [".", ":", "=t:", "->", "->p:", "#"]
WORDS = ["t.b", "p.c", "0", "1", "2/3", "+1", "9" * 5000]


@st.composite
def fuzz_tails(draw):
    """1-6 line tails, each of up to 4 pieces after a space, a piece glued
    to the one before it or set apart by a space or a tab."""
    tails = []
    for _ in range(draw(st.integers(1, 6))):
        pieces = st.one_of(st.sampled_from(SEPARATORS), st.sampled_from(WORDS))
        tail = ""
        for i, piece in enumerate(draw(st.lists(pieces, max_size=4))):
            tail += (" " if i == 0 else draw(st.sampled_from(["", " ", "\t"]))) + piece
        tails.append(tail)
    return tails


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(DIRECTIVES), min_size=6, max_size=6), fuzz_tails())
def test_parsers_raise_only_format_errors(heads, tails):
    # the document, and each tail after every line head in a document of its
    # own, so that an earlier bad line hides no later one
    body = "".join(f"{head}{tail}\n" for head, tail in zip(heads, tails))
    for kind, parse in (
        ("net", lambda text: parse_net(text).to_net()),
        ("morphism", parse_morphism),
        ("winskel", parse_winskel),
    ):
        alone = (f"{kind} n\n{head}{tail}\n" for head in DIRECTIVES for tail in tails)
        for text in (body, f"{kind} n\n{body}", *alone):
            try:
                parse(text)
            except (FormatError, NetError, SpaceError):
                pass


# ---------------------------------------------------------------------------
# generated nets round-trip through .pnet


def assert_round_trip(net):
    text = serialize_net(net)
    back = parse_net(text).to_net()
    assert net_data(back) == net_data(net)
    assert serialize_net(back) == text


@settings(max_examples=40, deadline=None)
@given(strict_nets())
def test_strict_nets_round_trip(net):
    assert_round_trip(net)


@settings(max_examples=20, deadline=None)
@given(strict_nets(max_places=3, max_transitions=3), st.data())
def test_products_round_trip(first, data):
    second = data.draw(strict_nets(max_places=2, max_transitions=2))
    assert_round_trip(kronecker(first, second).net)


# ---------------------------------------------------------------------------
# generated morphisms and Winskel data round-trip through .pmor and .pwin


def over_q(net):
    return parse_net(serialize_net(net).replace("\n", "\nring q\n", 1)).to_net()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_generated_morphisms_round_trip(seed, rational):
    rng = random.Random(seed)
    first = random_strict_net(rng, 3, 3)
    second = random_strict_net(rng, 2, 2)
    if rational:
        first, second = over_q(first), over_q(second)
    prod = kronecker(first, second)
    cube = kronecker(prod.net, first)
    for f in (
        identity_morphism(first),
        prod.left,
        prod.right,
        identity_morphism(prod.net).then(prod.left),
        cube.left.then(prod.right),
    ):
        text = serialize_morphism(f, "src.pnet", "tgt.pnet")
        again = parse_morphism(text).to_morphism(f.source, f.target)
        assert morphisms_equal(again, f)
        assert serialize_morphism(again, "src.pnet", "tgt.pnet") == text


@st.composite
def winskel_morphisms(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    source = random_strict_net(rng, 3, 3)
    target = random_strict_net(rng, 3, 3)
    places, transitions = target.space.places, target.space.transitions
    beta = {
        p: draw(st.dictionaries(st.sampled_from(places), st.integers(1, 3), min_size=1))
        for p in draw(st.lists(st.sampled_from(source.space.places), unique=True))
    }
    eta = draw(
        st.dictionaries(st.sampled_from(source.space.transitions), st.sampled_from(transitions))
    )
    return WinskelMorphism(source, target, beta=beta, eta=eta, name="w")


@settings(max_examples=40, deadline=None)
@given(winskel_morphisms())
def test_generated_winskel_data_round_trips(w):
    text = serialize_winskel(w, "src.pnet", "tgt.pnet")
    again = parse_winskel(text).to_winskel(w.source, w.target)
    assert (again.beta, again.eta) == (w.beta, w.eta)
    assert serialize_winskel(again, "src.pnet", "tgt.pnet") == text

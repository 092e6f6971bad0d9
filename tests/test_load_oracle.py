"""The ``.pnet`` loader against the loader it replaced.

``reference_load`` is the earlier loader, kept as it ran: ``parse_net``
split both references of every arc, looked each part up in the declared
bindings and tokens and found duplicate nodes by scanning the declared ones;
``to_net`` sorted the arc support into the strict adjacency and re-keyed
every ``(kind, t, b, p, c)`` arc into one weight dict per side; and the
``ColouredNet`` constructor checked those weights and built the effect table.
Only the names changed, and the net it returns is the data the tests read
(the constructor's checks run, its memos are left out).

On valid documents both loaders give equal nodes, sorts, adjacency, effect
table, bindings, tokens, marking, strictness, ring and name; on invalid ones
they raise the same exception with the same message, line and column.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrisheaf import intlinalg as la
from petrisheaf.cli import random_strict_net
from petrisheaf.formats import (
    FormatError,
    _check_name,
    _column,
    _digits,
    _integer,
    _open_document,
    _split_ref,
    parse_net,
    serialize_net,
)
from petrisheaf.net import NetError
from petrisheaf.product import kronecker
from petrisheaf.topology import PetriSpace, SpaceError

from fixtures import x_net, y_net
from test_formats import DIRECTIVES, TARGET_DOC, fuzz_tails
from test_net import strict_nets


class _ReferenceDocument:
    def __init__(self, name):
        self.name = name
        self.strict = True
        self.ring = "Z"
        self.nodes = []
        self.bindings = {}
        self.tokens = {}
        self.arcs = {}  # (kind, t, b, p, c) -> weight
        self.adjacency = []
        self.marking = {}


def _reference_parse(text):
    name, lines = _open_document(text, "net")
    doc = _ReferenceDocument(name)
    for lineno, raw, tokens in lines:
        head = tokens[0]
        if head == "net":
            raise FormatError("duplicate net header", lineno, _column(raw, head))
        if head == "relaxed":
            if len(tokens) != 1:
                raise FormatError("relaxed takes no arguments", lineno, _column(raw, tokens[1]))
            doc.strict = False
        elif head == "ring":
            if len(tokens) != 2 or tokens[1].lower() not in ("z", "q"):
                raise FormatError("ring must be z or q", lineno, _column(raw, head))
            doc.ring = tokens[1].upper()
        elif head in ("transition", "place"):
            keyword = "bindings" if head == "transition" else "tokens"
            if len(tokens) < 4 or tokens[2] != keyword:
                raise FormatError(
                    f"expected '{head} NAME {keyword} ...'", lineno, _column(raw, head)
                )
            name = _check_name(tokens[1], head, lineno, raw)
            if any(name == n for n, _s in doc.nodes):
                raise FormatError(f"duplicate declaration of {name!r}", lineno, _column(raw, name))
            elements = tuple(_check_name(e, keyword[:-1], lineno, raw) for e in tokens[3:])
            if len(set(elements)) != len(elements):
                raise FormatError(f"duplicate {keyword} on {name!r}", lineno, _column(raw, name))
            doc.nodes.append((name, head))
            (doc.bindings if head == "transition" else doc.tokens)[name] = elements
        elif head == "arc":
            if len(tokens) != 5 or tokens[1] not in ("-", "+"):
                raise FormatError("expected 'arc -|+ T.B P.C W'", lineno, _column(raw, head))
            t, b = _split_ref(tokens[2], "arc binding", lineno, raw)
            p, c = _split_ref(tokens[3], "arc token", lineno, raw)
            if b not in doc.bindings.get(t, ()):
                raise FormatError(f"undeclared binding {tokens[2]!r}", lineno, _column(raw, tokens[2]))
            if c not in doc.tokens.get(p, ()):
                raise FormatError(f"undeclared token {tokens[3]!r}", lineno, _column(raw, tokens[3]))
            if not _digits(tokens[4]):
                raise FormatError(
                    "arc weights are non-negative integers", lineno, _column(raw, tokens[4])
                )
            key = (tokens[1], t, b, p, c)
            if key in doc.arcs:
                raise FormatError(f"duplicate arc {tokens[2]} {tokens[3]}", lineno, _column(raw, head))
            weight = _integer(tokens[4], lineno, raw)
            if weight:
                doc.arcs[key] = weight
        elif head == "adjacency":
            if doc.strict:
                raise FormatError("adjacency lines need a relaxed net", lineno, _column(raw, head))
            if len(tokens) != 3:
                raise FormatError("expected 'adjacency T P'", lineno, _column(raw, head))
            t, p = tokens[1], tokens[2]
            if t not in doc.bindings:
                raise FormatError(f"undeclared transition {t!r}", lineno, _column(raw, t))
            if p not in doc.tokens:
                raise FormatError(f"undeclared place {p!r}", lineno, _column(raw, p))
            if (p, t) not in doc.adjacency:
                doc.adjacency.append((p, t))
        elif head == "marking":
            if len(tokens) != 3:
                raise FormatError("expected 'marking P.C N'", lineno, _column(raw, head))
            p, c = _split_ref(tokens[1], "marking token", lineno, raw)
            if c not in doc.tokens.get(p, ()):
                raise FormatError(f"undeclared token {tokens[1]!r}", lineno, _column(raw, tokens[1]))
            if not _digits(tokens[2]):
                raise FormatError("marking counts are naturals", lineno, _column(raw, tokens[2]))
            if (p, c) in doc.marking:
                raise FormatError(f"duplicate marking line for {tokens[1]}", lineno, _column(raw, head))
            doc.marking[(p, c)] = _integer(tokens[2], lineno, raw)
        else:
            raise FormatError(f"unknown directive {head!r}", lineno, _column(raw, head))
    return doc


def _reference_effect(space, bindings, tokens, w_minus, w_plus, strict, ring):
    """The constructor's checks and weight loop: (bindings, tokens, effect)."""
    if ring not in la.RINGS:
        raise NetError(f"ring must be 'Z' or 'Q', got {ring!r}")
    places, transitions = space.places, space.transitions
    if not places or not transitions:
        raise NetError("a coloured net needs at least one place and one transition")

    def check_axes(given, nodes, what):
        given = {k: tuple(v) for k, v in dict(given).items()}
        if set(given) != set(nodes):
            raise NetError(f"{what} must be declared for exactly the {what[:-1]} nodes")
        for node, names in given.items():
            if not names:
                raise NetError(f"empty {what} set on {node!r}")
            if len(set(names)) != len(names):
                raise NetError(f"duplicate {what} names on {node!r}")
        return given

    bindings = check_axes(bindings, transitions, "bindings")
    tokens = check_axes(tokens, places, "tokens")
    token_axis = [(x, e) for x in space.nodes if x in tokens for e in tokens[x]]
    binding_axis = [(x, e) for x in space.nodes if x in bindings for e in bindings[x]]

    position = {lab: i for i, lab in enumerate(token_axis)}
    effect = {tb: ([], []) for tb in binding_axis}
    support = set()
    for side, (given, which) in enumerate(((w_minus, "consume"), (w_plus, "produce"))):
        for (t, b, p, c), value in dict(given).items():
            if (t, b) not in effect:
                raise NetError(f"{which} weight on unknown binding {t}.{b}")
            if (p, c) not in position:
                raise NetError(f"{which} weight on unknown token {p}.{c}")
            if value < 0 or value != int(value):
                raise NetError(f"{which} weight must be a natural number")
            if value:
                effect[t, b][side].append((position[p, c], int(value)))
                support.add((p, t))
    effect = {tb: (tuple(sorted(pre)), tuple(sorted(post))) for tb, (pre, post) in effect.items()}

    if strict and support != space.adjacency:
        off = support ^ space.adjacency
        raise NetError(
            f"strict net: weight support must equal adjacency, mismatch on {sorted(off)}"
        )
    return bindings, tokens, effect


def _data(doc, space, bindings, tokens, effect):
    return {
        "name": doc.name,
        "strict": doc.strict,
        "ring": doc.ring,
        "nodes": space.nodes,
        "sorts": {x: space.sort_of(x) for x in space.nodes},
        "adjacency": set(space.adjacency),
        "bindings": bindings,
        "tokens": tokens,
        "effect": effect,
        "marking": doc.marking,
    }


def reference_load(text):
    doc = _reference_parse(text)
    if doc.strict:
        adjacency = sorted({(p, t) for (_k, t, _b, p, _c) in doc.arcs})
    else:
        adjacency = list(doc.adjacency)
    space = PetriSpace(doc.nodes, adjacency)
    weights = {"-": {}, "+": {}}
    for (kind, t, b, p, c), w in doc.arcs.items():
        weights[kind][t, b, p, c] = w
    found = _reference_effect(
        space, doc.bindings, doc.tokens, weights["-"], weights["+"], doc.strict, doc.ring
    )
    return _data(doc, space, *found)


def load(text):
    doc = parse_net(text)
    net = doc.to_net()
    assert (net.name, net.strict, net.ring) == (doc.name, doc.strict, doc.ring)
    return _data(doc, net.space, net.bindings, net.tokens, net._effect)


def outcome(loader, text):
    """What ``loader`` makes of ``text``: its data, or the exception's type,
    message, line and column."""
    try:
        return loader(text)
    except (FormatError, NetError, SpaceError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def assert_same(text):
    expected = outcome(reference_load, text)
    assert outcome(load, text) == expected
    return expected


# ---------------------------------------------------------------------------
# valid documents

HEAD = "net n\ntransition t bindings b g\nplace p tokens c d\n"

VALID_DOCS = {
    "target": TARGET_DOC,
    "runX": serialize_net(x_net(), marking={("p1", "p1"): 1, ("p3", "p3"): 2}),
    "runY": serialize_net(y_net()),
    "product": serialize_net(kronecker(x_net(), y_net()).net, comments=["product"]),
    "comments-and-tabs": (
        "# a net\nnet\tn   # its name\n\ntransition t\tbindings b g  # two\n"
        "  place p tokens c d\narc\t-\tt.b\tp.c\t2 # consume\narc + t.g p.d 1\n"
        "\t# only a comment\nmarking p.c 3   \n"
    ),
    "weight-0 arcs": HEAD + "arc - t.b p.c 0\narc - t.b p.c 0\narc - t.b p.c 4\narc + t.g p.d 0\n",
    "both sides": HEAD + "arc - t.b p.c 1\narc + t.b p.c 1\narc - t.g p.d 2\n",
    "no arcs": HEAD + "transition s bindings e\n",
    "relaxed": (
        "net r\nring q\ntransition t bindings b\ntransition s bindings e\n"
        "place p tokens c\nplace q tokens c\narc - t.b p.c 1\nrelaxed\n"
        "adjacency s p\nadjacency t q\nadjacency s p\narc + s.e q.c 2\n"
    ),
    "relaxed without adjacency": "net r\nrelaxed\n" + HEAD[6:] + "arc - t.b p.c 1\n",
    "ring z": "net z\nring Z\n" + HEAD[6:] + "arc + t.g p.c 5\n",
    "declared late": HEAD + "place q tokens c\narc - t.b q.c 1\narc + t.g p.c 1\n",
}


@pytest.mark.parametrize("text", list(VALID_DOCS.values()), ids=list(VALID_DOCS))
def test_valid_documents_load_as_before(text):
    assert isinstance(assert_same(text), dict)


@pytest.mark.parametrize("seed", range(8))
def test_random_strict_nets_load_as_before(seed):
    rng = random.Random(seed)
    net = random_strict_net(rng, rng.randint(1, 5), rng.randint(1, 5))
    marking = {label: rng.randint(0, 3) for label in net.token_axis()}
    assert isinstance(assert_same(serialize_net(net, marking=marking)), dict)


@settings(max_examples=30, deadline=None)
@given(strict_nets(max_places=3, max_transitions=3), st.data())
def test_generated_nets_and_products_load_as_before(first, data):
    second = data.draw(strict_nets(max_places=2, max_transitions=2))
    for net in (first, kronecker(first, second).net):
        assert isinstance(assert_same(serialize_net(net)), dict)


# ---------------------------------------------------------------------------
# invalid documents: one per error branch

INVALID_DOCS = {
    "no header": "transition t bindings b\n",
    "second header": HEAD + "net m\n",
    "relaxed argument": "net n\nrelaxed yes\n",
    "ring": "net n\nring r\n",
    "declaration form": "net n\nplace p c\n",
    "node name": "net n\nplace p.q tokens c\n",
    "element name": "net n\ntransition t bindings b.x\n",
    "duplicate place": HEAD + "place p tokens e\n",
    "place named as transition": HEAD + "place t tokens e\n",
    "transition named as place": HEAD + "transition p bindings e\n",
    "duplicate elements": "net n\nplace p tokens c c\n",
    "arc arity": HEAD + "arc - t.b p.c\n",
    "arc side": HEAD + "arc * t.b p.c 1\n",
    "malformed binding": HEAD + "arc - t p.c 1\n",
    "empty binding element": HEAD + "arc - t. p.c 1\n",
    "malformed token": HEAD + "arc - t.b .c 1\n",
    "malformed token, undeclared binding": HEAD + "arc - s.b p 1\n",
    "both malformed": HEAD + "arc - t p 1\n",
    "undeclared binding": HEAD + "arc - t.x p.c 1\n",
    "undeclared binding node": HEAD + "arc - s.b p.c 1\n",
    "undeclared token": HEAD + "arc - t.b p.x 1\n",
    "both undeclared": HEAD + "arc - t.x p.x 1\n",
    "token as binding": HEAD + "arc - p.c p.c 1\n",
    "binding as token": HEAD + "arc + t.b t.b 1\n",
    "swapped references": HEAD + "arc - p.c t.b 1\n",
    "extra dot": HEAD + "arc - t.b.b p.c 1\n",
    "negative weight": HEAD + "arc - t.b p.c -1\n",
    "signed weight": HEAD + "arc - t.b p.c +1\n",
    "fraction weight": HEAD + "arc - t.b p.c 2/3\n",
    "word weight": HEAD + "arc - t.b p.c w\n",
    "superscript weight": HEAD + "arc - t.b p.c ²\n",
    "other-script weight": HEAD + "arc - t.b p.c ١\n",
    "overlong weight": HEAD + "arc - t.b p.c " + "9" * 5000 + "\n",
    "duplicate arc": HEAD + "arc - t.b p.c 1\narc - t.b p.c 2\n",
    "duplicate arc after weight 0": HEAD + "arc + t.b p.c 0\narc + t.b p.c 2\narc + t.b p.c 0\n",
    "arc before its transition": "net n\nplace p tokens c\narc - t.b p.c 1\ntransition t bindings b\n",
    "arc before its place": "net n\ntransition t bindings b\narc - t.b p.c 1\nplace p tokens c\n",
    "adjacency in a strict net": HEAD + "adjacency t p\n",
    "adjacency arity": "net n\nrelaxed\n" + HEAD[6:] + "adjacency t\n",
    "adjacency transition": "net n\nrelaxed\n" + HEAD[6:] + "adjacency p p\n",
    "adjacency place": "net n\nrelaxed\n" + HEAD[6:] + "adjacency t t\n",
    "marking arity": HEAD + "marking p.c\n",
    "malformed marking": HEAD + "marking p 1\n",
    "undeclared marking": HEAD + "marking p.x 1\n",
    "binding marked": HEAD + "marking t.b 1\n",
    "marking count": HEAD + "marking p.c -1\n",
    "overlong marking": HEAD + "marking p.c " + "9" * 5000 + "\n",
    "duplicate marking": HEAD + "marking p.c 1\nmarking p.c 1\n",
    "unknown directive": HEAD + "arcs - t.b p.c 1\n",
    "no transition": "net n\nplace p tokens c\n",
    "no place": "net n\ntransition t bindings b\n",
}


@pytest.mark.parametrize("text", list(INVALID_DOCS.values()), ids=list(INVALID_DOCS))
def test_invalid_documents_fail_as_before(text):
    assert not isinstance(assert_same(text), dict)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(DIRECTIVES), min_size=6, max_size=6), fuzz_tails())
def test_fuzzed_documents_load_as_before(heads, tails):
    body = "".join(f"{head}{tail}\n" for head, tail in zip(heads, tails))
    for text in (body, f"net n\n{body}", HEAD + body):
        assert_same(text)

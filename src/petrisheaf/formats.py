"""Line-based document formats for nets, morphisms and Winskel data.

A ``.pnet`` document declares one net; ``#`` starts a comment, blank lines
are ignored and declaration must precede use:

    net NAME
    relaxed                        (optional, default strict)
    ring q                         (optional, default z)
    transition T bindings B1 B2 ...
    place P tokens C1 C2 ...
    adjacency T P                  (relaxed nets only; strict nets derive
                                    adjacency from arc support)
    arc - T.B P.C W
    arc + T.B P.C W
    marking P.C N                  (optional initial marking)

A ``.pnet`` is validated in one pass through the table of declared
references: each ``transition`` and ``place`` line records its
``NODE.ELEMENT`` strings, bindings and tokens apart, so each reference on an
``arc`` or ``marking`` line is one lookup, and only a reference that misses is
split to say whether it is malformed or undeclared.

A ``.pmor`` document declares one morphism; flow data comes as a named
basis per image transition with one image line per basis vector:

    morphism NAME
    source FILE
    target FILE
    node X -> Y
    flowbasis A: NAME = k*T.B + ...
    flowmap A: NAME -> k*B + ...
    markmap U: X.C -> k*C2 + ...

A ``.pwin`` document declares Winskel data between place/transition nets;
``beta`` lines may be omitted for places not mapped, ``eta`` lines for
unmapped transitions:

    winskel NAME
    source FILE
    target FILE
    beta P -> k*Q + ...
    eta T -> S

Identifiers cannot contain whitespace, ``.`` or ``#``; coefficients are
integers or fractions like ``1/4``; ``0`` stands for the empty
combination.  Parse errors report the line and the column of the offending
token.  The ``load_*`` readers are the package's only file readers: they
decode each file as UTF-8 and resolve ``source``/``target`` next to the
document that names them.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .intlinalg import _format_scalar
from .morphism import NetMorphism, WinskelMorphism, morphism_ring
from .net import ColouredNet
from .topology import PetriSpace


class FormatError(ValueError):
    """Malformed document text or references that do not resolve."""

    def __init__(self, message, line=None, column=None):
        spot = ""
        if line is not None:
            spot = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + spot)
        self.line = line
        self.column = column


def _column(raw, token):
    at = raw.find(token)
    return at + 1 if at >= 0 else None


def _check_name(name, what, lineno, raw, allow_dot=False):
    # dots are reserved for NODE.ELEMENT references, so only document
    # titles that nothing dereferences may contain them
    bad = not name or "#" in name or ("." in name and not allow_dot)
    if bad:
        raise FormatError(
            f"bad {what} name {name!r}", lineno, _column(raw, name or raw.strip())
        )
    return name


def _split_ref(token, what, lineno, raw):
    node, dot, element = token.partition(".")
    if not dot or not node or not element:
        raise FormatError(
            f"{what} must look like NODE.ELEMENT, got {token!r}",
            lineno,
            _column(raw, token),
        )
    return node, element


def _integer(text, lineno, raw):
    """``int(text)`` of a literal already checked to be an integer."""
    try:
        return int(text)
    except ValueError:  # longer than the interpreter converts
        raise FormatError(
            f"number with {len(text)} characters is too long", lineno, _column(raw, text)
        ) from None


def _digits(text):
    """Is ``text`` one or more ASCII digits?  (``str.isdigit`` also takes
    other scripts' digits and superscripts.)"""
    return text.isascii() and text.isdigit()


def _scalar(text, lineno, raw):
    """Integer or fraction literal, else None."""
    body = text[1:] if text[:1] in "+-" else text
    if _digits(body):
        return _integer(text, lineno, raw)
    num, slash, den = text.partition("/")
    if slash and _digits(den) and _integer(den, lineno, raw):
        head = num[1:] if num[:1] in "+-" else num
        if _digits(head):
            return Fraction(_integer(num, lineno, raw), _integer(den, lineno, raw))
    return None


def _parse_combination(expr, lineno, raw, fractions=None):
    """``k*term + k*term`` into [(k, term)]; ``0`` is the empty sum.  Each
    coefficient not an integer goes to ``fractions`` as ``(k, line, column)``."""
    body = expr.strip()
    if not body:
        raise FormatError("empty combination", lineno, _column(raw, expr.strip() or raw))
    if body == "0":
        return []
    terms = []
    for part in body.split("+"):
        part = part.strip()
        if not part:
            raise FormatError("empty term in combination", lineno, _column(raw, expr))
        coeff = 1
        term = part
        head, star, rest = part.partition("*")
        head = head.strip()
        num, slash, den = head.partition("/")
        zero = slash and _digits(den) and not den.strip("0")
        if star and zero and _scalar(num, lineno, raw) is not None:
            raise FormatError(
                f"zero denominator in coefficient {head!r}", lineno, _column(raw, head)
            )
        # only split when the prefix reads as a number, names may contain *
        if star and _scalar(head, lineno, raw) is not None and rest.strip():
            coeff = _scalar(head, lineno, raw)
            term = rest.strip()
            if fractions is not None and coeff.denominator != 1:
                fractions.append((coeff, lineno, _column(raw, part)))
        terms.append((coeff, term))
    return terms


def _format_combination(labels, values):
    parts = [
        f"{_format_scalar(v)}*{lab}" for lab, v in zip(labels, values) if v
    ]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# net documents


class NetDocument:
    """Parsed ``.pnet`` content; ``to_net`` builds the coloured net."""

    def __init__(self, name):
        self.name = name
        self.strict = True
        self.ring = "Z"
        self.nodes = []  # (name, "place" | "transition") in declaration order
        self.bindings = {}
        self.tokens = {}
        self.arcs = {"-": {}, "+": {}}  # side -> {(t, b, p, c): weight}, 0 kept
        self.adjacency = {}  # (p, t) pairs as keys, relaxed documents only
        self.marking = {}  # (p, c) -> count

    def to_net(self):
        adjacency = self.adjacency
        if self.strict:  # the support of the nonzero arcs, in first-arc order
            adjacency = dict.fromkeys(
                (p, t) for side in self.arcs.values() for (t, _b, p, _c), w in side.items() if w
            )
        return ColouredNet(
            PetriSpace(self.nodes, adjacency),
            self.bindings,
            self.tokens,
            self.arcs["-"],
            self.arcs["+"],
            strict=self.strict,
            ring=self.ring,
            name=self.name,
        )


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, raw, tokens


def _open_document(text, keyword, allow_dot=False):
    """The name on the ``KEYWORD NAME`` header, which must be the first
    content line, and an iterator over the content lines after it."""
    lines = _content_lines(text)
    for lineno, raw, tokens in lines:
        if tokens[0] != keyword or len(tokens) != 2:
            raise FormatError(f"missing {keyword} header", lineno, _column(raw, tokens[0]))
        return _check_name(tokens[1], keyword, lineno, raw, allow_dot), lines
    raise FormatError(f"missing {keyword} header")


def _read_link(doc, tokens, lineno, raw):
    """A ``source FILE`` or ``target FILE`` line of a morphism or Winskel document."""
    head = tokens[0]
    if len(tokens) != 2:
        raise FormatError(f"expected '{head} FILE'", lineno, _column(raw, head))
    if getattr(doc, head) is not None:
        raise FormatError(f"duplicate {head} line", lineno, _column(raw, head))
    setattr(doc, head, tokens[1])


def parse_net(text):
    name, lines = _open_document(text, "net")
    doc = NetDocument(name)
    # every declared "NODE.ELEMENT" against its (node, element) pair; neither
    # part holds a dot, so a reference is in the table exactly when it splits
    # into a declared binding (token)
    binding_refs, token_refs = {}, {}
    for lineno, raw, tokens in lines:
        head = tokens[0]
        if head == "arc":
            side = doc.arcs.get(tokens[1]) if len(tokens) == 5 else None
            if side is None:
                raise FormatError("expected 'arc -|+ T.B P.C W'", lineno, _column(raw, head))
            tb, pc = binding_refs.get(tokens[2]), token_refs.get(tokens[3])
            if tb is None or pc is None:
                _split_ref(tokens[2], "arc binding", lineno, raw)
                _split_ref(tokens[3], "arc token", lineno, raw)
                ref, what = (tokens[2], "binding") if tb is None else (tokens[3], "token")
                raise FormatError(f"undeclared {what} {ref!r}", lineno, _column(raw, ref))
            if not _digits(tokens[4]):
                raise FormatError(
                    "arc weights are non-negative integers", lineno, _column(raw, tokens[4])
                )
            key = tb + pc
            if key in side:
                raise FormatError(f"duplicate arc {tokens[2]} {tokens[3]}", lineno, _column(raw, head))
            side[key] = _integer(tokens[4], lineno, raw)
        elif head == "net":
            raise FormatError("duplicate net header", lineno, _column(raw, head))
        elif head == "relaxed":
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
            if name in doc.bindings or name in doc.tokens:
                raise FormatError(f"duplicate declaration of {name!r}", lineno, _column(raw, name))
            elements = tuple(_check_name(e, keyword[:-1], lineno, raw) for e in tokens[3:])
            if len(set(elements)) != len(elements):
                raise FormatError(f"duplicate {keyword} on {name!r}", lineno, _column(raw, name))
            doc.nodes.append((name, head))
            (doc.bindings if head == "transition" else doc.tokens)[name] = elements
            refs = binding_refs if head == "transition" else token_refs
            refs.update((f"{name}.{e}", (name, e)) for e in elements)
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
            doc.adjacency[p, t] = None
        elif head == "marking":
            if len(tokens) != 3:
                raise FormatError("expected 'marking P.C N'", lineno, _column(raw, head))
            pc = token_refs.get(tokens[1])
            if pc is None:
                _split_ref(tokens[1], "marking token", lineno, raw)
                raise FormatError(f"undeclared token {tokens[1]!r}", lineno, _column(raw, tokens[1]))
            if not _digits(tokens[2]):
                raise FormatError("marking counts are naturals", lineno, _column(raw, tokens[2]))
            if pc in doc.marking:
                raise FormatError(f"duplicate marking line for {tokens[1]}", lineno, _column(raw, head))
            doc.marking[pc] = _integer(tokens[2], lineno, raw)
        else:
            raise FormatError(f"unknown directive {head!r}", lineno, _column(raw, head))
    return doc


def serialize_net(net, marking=None, comments=()):
    """Deterministic ``.pnet`` text for a net and an optional marking."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"net {net.name}")
    if not net.strict:
        lines.append("relaxed")
    if net.ring != "Z":
        lines.append(f"ring {net.ring.lower()}")
    for x in net.space.nodes:
        if net.space.is_transition(x):
            lines.append(f"transition {x} bindings " + " ".join(net.bindings[x]))
        else:
            lines.append(f"place {x} tokens " + " ".join(net.tokens[x]))
    if not net.strict:
        index = {n: i for i, n in enumerate(net.space.nodes)}
        for p, t in sorted(net.space.adjacency, key=lambda pt: (index[pt[1]], index[pt[0]])):
            lines.append(f"adjacency {t} {p}")
    for kind, sign in (("minus", "-"), ("plus", "+")):
        for (t, b, p, c), w in net.arcs(kind):
            lines.append(f"arc {sign} {t}.{b} {p}.{c} {w}")
    if marking:
        axis = net.token_axis()
        values = dict(marking)
        unknown = set(values) - set(axis)
        if unknown:
            raise FormatError(f"marking on unknown tokens {sorted(unknown)!r}")
        for p, c in axis:
            n = values.get((p, c), 0)
            if n:
                if n < 0 or Fraction(n).denominator != 1:
                    raise FormatError("marking counts are naturals")
                lines.append(f"marking {p}.{c} {int(n)}")
    return "\n".join(lines) + "\n"


def _read(path):
    """The text of the document at ``path``; bytes that are not UTF-8 are a
    format error naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def load_net(path):
    """Read a ``.pnet`` file into (net, marking-or-None)."""
    doc = parse_net(_read(path))
    return doc.to_net(), (dict(doc.marking) or None)


def _load_linked(path, parse):
    """Parse the ``.pmor``/``.pwin`` file at ``path`` and load the nets its
    ``source``/``target`` lines name, next to it: (document, source net,
    target net, source marking-or-None)."""
    path = Path(path)
    doc = parse(_read(path))
    if doc.source is None or doc.target is None:
        raise FormatError(f"{path} needs source and target lines")
    source_net, marking = load_net(path.parent / doc.source)
    target_net, _ = load_net(path.parent / doc.target)
    return doc, source_net, target_net, marking


# ---------------------------------------------------------------------------
# morphism documents


class MorphismDocument:
    """Parsed ``.pmor`` content; ``to_morphism`` needs the two nets."""

    def __init__(self, name):
        self.name = name
        self.source = None  # file reference, resolved by the loader
        self.target = None
        self.node_map = {}
        self.flow_bases = {}  # a -> [(vector name, [(k, (T, B)), ...])]
        self.flow_images = {}  # a -> {vector name: [(k, B), ...]}
        self.mark_images = {}  # u -> {(X, C): [(k, C2), ...]}
        self.fractions = []  # (k, line, column) of each coefficient not an integer

    def to_morphism(self, source_net, target_net):
        missing = [x for x in source_net.space.nodes if x not in self.node_map]
        if missing:
            raise FormatError(f"node map misses {missing[0]!r}")
        extra = [x for x in self.node_map if x not in source_net.space.nodes]
        if extra:
            raise FormatError(f"node map names unknown node {extra[0]!r}")

        # an image node with no lines has empty data: a fibre without flows
        # or tokens writes none, and clause 2 decides a basis left out
        image = set(self.node_map.values())
        flow_maps = {a: [] for a in target_net.space.transitions if a in image}
        for a, entries in self.flow_bases.items():
            if a not in target_net.bindings:
                raise FormatError(f"flowbasis on unknown target transition {a!r}")
            fibre = [x for x in source_net.space.nodes if self.node_map[x] == a]
            axis = source_net.binding_axis(fibre)
            pos = {lab: i for i, lab in enumerate(axis)}
            slot = {b: i for i, b in enumerate(target_net.bindings[a])}
            images = self.flow_images.get(a, {})
            pairs = []
            for vec_name, comb in entries:
                phi = [0] * len(axis)
                for k, ref in comb:
                    if ref not in pos:
                        raise FormatError(
                            f"{ref[0]}.{ref[1]} is not a binding in the fibre of {a!r}"
                        )
                    phi[pos[ref]] += k
                if vec_name not in images:
                    raise FormatError(f"flowbasis {vec_name!r} of {a!r} has no flowmap line")
                img = [0] * len(slot)
                for k, b in images[vec_name]:
                    if b not in slot:
                        raise FormatError(f"{b!r} is not a binding of {a!r}")
                    img[slot[b]] += k
                pairs.append((phi, img))
            dangling = set(images) - {nm for nm, _ in entries}
            if dangling:
                raise FormatError(
                    f"flowmap for undeclared basis vector {sorted(dangling)[0]!r} of {a!r}"
                )
            flow_maps[a] = pairs
        for a in self.flow_images:
            if a not in self.flow_bases:
                raise FormatError(f"flowmap without flowbasis on {a!r}")

        mark_maps = {u: {} for u in target_net.space.places if u in image}
        for u, table in self.mark_images.items():
            if u not in target_net.tokens:
                raise FormatError(f"markmap on unknown target place {u!r}")
            slot = {c: i for i, c in enumerate(target_net.tokens[u])}
            out = {}
            for (x, c), comb in table.items():
                if c not in source_net.tokens.get(x, ()):
                    raise FormatError(f"markmap from unknown token {x}.{c}")
                img = [0] * len(slot)
                for k, c2 in comb:
                    if c2 not in slot:
                        raise FormatError(f"{c2!r} is not a token of {u!r}")
                    img[slot[c2]] += k
                out[(x, c)] = img
            mark_maps[u] = out

        if self.fractions and morphism_ring(source_net.ring, target_net.ring) == "Z":
            value, line, column = self.fractions[0]
            message = f"non-integer coefficient {_format_scalar(value)} in an integer morphism"
            raise FormatError(message, line, column)
        return NetMorphism(
            source_net,
            target_net,
            dict(self.node_map),
            flow_maps,
            mark_maps,
            name=self.name,
        )


def _header_name(tokens, lineno, raw, what):
    if len(tokens) < 2 or not tokens[1].endswith(":"):
        raise FormatError(f"expected '{what} NAME: ...'", lineno, _column(raw, tokens[0]))
    return tokens[1][:-1]


def _header_body(tokens, rest, sep):
    """The text after ``HEAD NAME:`` partitioned at ``sep``; all empty when
    nothing follows the header, even if ``sep`` is inside it."""
    return rest.split(None, 2)[2].partition(sep) if len(tokens) > 2 else ("", "", "")


def parse_morphism(text):
    name, lines = _open_document(text, "morphism", allow_dot=True)
    doc = MorphismDocument(name)
    for lineno, raw, tokens in lines:
        head = tokens[0]
        rest = raw.split("#", 1)[0].strip()
        if head in ("source", "target"):
            _read_link(doc, tokens, lineno, raw)
        elif head == "node":
            if len(tokens) != 4 or tokens[2] != "->":
                raise FormatError("expected 'node X -> Y'", lineno, _column(raw, head))
            if tokens[1] in doc.node_map:
                raise FormatError(f"duplicate node line for {tokens[1]!r}", lineno, _column(raw, tokens[1]))
            doc.node_map[tokens[1]] = tokens[3]
        elif head == "flowbasis":
            a = _header_name(tokens, lineno, raw, "flowbasis")
            name, eq, expr = _header_body(tokens, rest, "=")
            if not eq or not name.strip():
                raise FormatError(
                    "expected 'flowbasis A: NAME = combination'", lineno, _column(raw, head)
                )
            comb = [
                (k, _split_ref(term, "flow term", lineno, raw))
                for k, term in _parse_combination(expr, lineno, raw, doc.fractions)
            ]
            entries = doc.flow_bases.setdefault(a, [])
            if any(nm == name.strip() for nm, _ in entries):
                raise FormatError(f"duplicate flowbasis {name.strip()!r} of {a!r}", lineno, _column(raw, head))
            entries.append((name.strip(), comb))
        elif head == "flowmap":
            a = _header_name(tokens, lineno, raw, "flowmap")
            name, arrow, expr = _header_body(tokens, rest, "->")
            if not arrow or not name.strip():
                raise FormatError(
                    "expected 'flowmap A: NAME -> combination'", lineno, _column(raw, head)
                )
            table = doc.flow_images.setdefault(a, {})
            if name.strip() in table:
                raise FormatError(f"duplicate flowmap {name.strip()!r} of {a!r}", lineno, _column(raw, head))
            table[name.strip()] = _parse_combination(expr, lineno, raw, doc.fractions)
        elif head == "markmap":
            u = _header_name(tokens, lineno, raw, "markmap")
            ref, arrow, expr = _header_body(tokens, rest, "->")
            if not arrow or not ref.strip():
                raise FormatError(
                    "expected 'markmap U: X.C -> combination'", lineno, _column(raw, head)
                )
            key = _split_ref(ref.strip(), "markmap token", lineno, raw)
            table = doc.mark_images.setdefault(u, {})
            if key in table:
                raise FormatError(
                    f"duplicate markmap line for {ref.strip()}", lineno, _column(raw, head)
                )
            table[key] = _parse_combination(expr, lineno, raw, doc.fractions)
        else:
            raise FormatError(f"unknown directive {head!r}", lineno, _column(raw, head))
    return doc


def serialize_morphism(morphism, source_ref, target_ref):
    """Deterministic ``.pmor`` text; nets are referenced by file name."""
    src, tgt = morphism.source, morphism.target
    lines = [f"morphism {morphism.name}", f"source {source_ref}", f"target {target_ref}"]
    for x in src.space.nodes:
        lines.append(f"node {x} -> {morphism.space_map(x)}")
    for a in tgt.space.transitions:
        if a not in morphism.flow_maps:
            continue
        basis, images = morphism.flow_maps[a]
        axis = src.binding_axis(morphism.space_map.fibre(a))
        labels = [f"{t}.{b}" for t, b in axis]
        for i, (phi, img) in enumerate(zip(basis, images), start=1):
            lines.append(f"flowbasis {a}: v{i} = " + _format_combination(labels, phi))
            lines.append(
                f"flowmap {a}: v{i} -> " + _format_combination(tgt.bindings[a], img)
            )
    for u in tgt.space.places:
        if u not in morphism.mark_maps:
            continue
        table = morphism.mark_maps[u]
        for x, c in src.token_axis(morphism.space_map.fibre(u)):
            if (x, c) in table:
                lines.append(
                    f"markmap {u}: {x}.{c} -> "
                    + _format_combination(tgt.tokens[u], table[(x, c)])
                )
    return "\n".join(lines) + "\n"


def load_morphism(path):
    """Read a ``.pmor`` file, resolving net references next to it, into
    (morphism, document, the source net's marking-or-None)."""
    doc, source_net, target_net, marking = _load_linked(path, parse_morphism)
    return doc.to_morphism(source_net, target_net), doc, marking


# ---------------------------------------------------------------------------
# winskel documents


class WinskelDocument:
    """Parsed ``.pwin`` content; ``to_winskel`` needs the two nets."""

    def __init__(self, name):
        self.name = name
        self.source = None
        self.target = None
        self.beta = {}  # P -> {Q: k}
        self.eta = {}  # T -> S

    def to_winskel(self, source_net, target_net):
        return WinskelMorphism(
            source_net,
            target_net,
            beta={p: dict(m) for p, m in self.beta.items()},
            eta=dict(self.eta),
            name=self.name,
        )


def parse_winskel(text):
    name, lines = _open_document(text, "winskel", allow_dot=True)
    doc = WinskelDocument(name)
    for lineno, raw, tokens in lines:
        head = tokens[0]
        rest = raw.split("#", 1)[0].strip()
        if head in ("source", "target"):
            _read_link(doc, tokens, lineno, raw)
        elif head == "beta":
            body = rest.split(None, 1)[1] if len(tokens) > 1 else ""
            place, arrow, expr = body.partition("->")
            place = place.strip()
            if not arrow or not place:
                raise FormatError("expected 'beta P -> combination'", lineno, _column(raw, head))
            if place in doc.beta:
                raise FormatError(f"duplicate beta line for {place!r}", lineno, _column(raw, place))
            multi = {}
            for k, q in _parse_combination(expr, lineno, raw):
                if Fraction(k).denominator != 1 or k <= 0:
                    raise FormatError(
                        "beta multiplicities are positive integers", lineno, _column(raw, head)
                    )
                multi[q] = multi.get(q, 0) + int(k)
            doc.beta[place] = multi
        elif head == "eta":
            if len(tokens) != 4 or tokens[2] != "->":
                raise FormatError("expected 'eta T -> S'", lineno, _column(raw, head))
            if tokens[1] in doc.eta:
                raise FormatError(f"duplicate eta line for {tokens[1]!r}", lineno, _column(raw, tokens[1]))
            doc.eta[tokens[1]] = tokens[3]
        else:
            raise FormatError(f"unknown directive {head!r}", lineno, _column(raw, head))
    return doc


def serialize_winskel(winskel, source_ref, target_ref):
    lines = [f"winskel {winskel.name}", f"source {source_ref}", f"target {target_ref}"]
    for p in winskel.source.space.places:
        if p in winskel.beta and winskel.beta[p]:
            labels, values = zip(*sorted(winskel.beta[p].items()))
            lines.append(f"beta {p} -> " + _format_combination(labels, values))
    for t in winskel.source.space.transitions:
        if t in winskel.eta:
            lines.append(f"eta {t} -> {winskel.eta[t]}")
    return "\n".join(lines) + "\n"


def load_winskel(path):
    """Read a ``.pwin`` file, resolving net references next to it."""
    doc, source_net, target_net, _ = _load_linked(path, parse_winskel)
    return doc.to_winskel(source_net, target_net)

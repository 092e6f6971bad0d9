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
token.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .morphism import NetMorphism, WinskelMorphism
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


def _scalar(text, lineno, raw):
    """Integer or fraction literal, else None."""
    body = text[1:] if text[:1] in "+-" else text
    if body.isdigit():
        return _integer(text, lineno, raw)
    num, slash, den = text.partition("/")
    if slash and den.isdigit() and _integer(den, lineno, raw):
        head = num[1:] if num[:1] in "+-" else num
        if head.isdigit():
            return Fraction(_integer(num, lineno, raw), _integer(den, lineno, raw))
    return None


def _format_scalar(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _parse_combination(expr, lineno, raw):
    """``k*term + k*term`` into [(k, term)]; ``0`` is the empty sum."""
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
        # only split when the prefix reads as a number, names may contain *
        if star and _scalar(head.strip(), lineno, raw) is not None and rest.strip():
            coeff = _scalar(head.strip(), lineno, raw)
            term = rest.strip()
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
        self.arcs = {}  # (kind, t, b, p, c) -> weight
        self.adjacency = []  # (p, t) pairs, relaxed documents only
        self.marking = {}  # (p, c) -> count

    def to_net(self):
        if self.strict:
            adjacency = sorted({(p, t) for (_k, t, _b, p, _c) in self.arcs})
        else:
            adjacency = list(self.adjacency)
        space = PetriSpace(self.nodes, adjacency)
        weights = {"-": {}, "+": {}}
        for (kind, t, b, p, c), w in self.arcs.items():
            weights[kind][t, b, p, c] = w
        return ColouredNet(
            space,
            self.bindings,
            self.tokens,
            weights["-"],
            weights["+"],
            strict=self.strict,
            ring=self.ring,
            name=self.name,
        )


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, line.split()


def parse_net(text):
    doc = None
    for lineno, raw, tokens in _content_lines(text):
        head = tokens[0]
        if doc is None:
            if head != "net" or len(tokens) != 2:
                raise FormatError("missing net header", lineno, _column(raw, head))
            doc = NetDocument(_check_name(tokens[1], "net", lineno, raw))
            continue
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
            if not tokens[4].isdigit():
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
            if not tokens[2].isdigit():
                raise FormatError("marking counts are naturals", lineno, _column(raw, tokens[2]))
            if (p, c) in doc.marking:
                raise FormatError(f"duplicate marking line for {tokens[1]}", lineno, _column(raw, head))
            doc.marking[(p, c)] = _integer(tokens[2], lineno, raw)
        else:
            raise FormatError(f"unknown directive {head!r}", lineno, _column(raw, head))
    if doc is None:
        raise FormatError("missing net header")
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


def load_net(path):
    """Read a ``.pnet`` file into (net, marking-or-None)."""
    doc = parse_net(Path(path).read_text())
    return doc.to_net(), (dict(doc.marking) or None)


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

    def to_morphism(self, source_net, target_net):
        missing = [x for x in source_net.space.nodes if x not in self.node_map]
        if missing:
            raise FormatError(f"node map misses {missing[0]!r}")
        extra = [x for x in self.node_map if x not in source_net.space.nodes]
        if extra:
            raise FormatError(f"node map names unknown node {extra[0]!r}")

        flow_maps = {}
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

        mark_maps = {}
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


def parse_morphism(text):
    doc = None
    for lineno, raw, tokens in _content_lines(text):
        head = tokens[0]
        if doc is None:
            if head != "morphism" or len(tokens) != 2:
                raise FormatError("missing morphism header", lineno, _column(raw, head))
            doc = MorphismDocument(
                _check_name(tokens[1], "morphism", lineno, raw, allow_dot=True)
            )
            continue
        rest = raw.split("#", 1)[0].strip()
        if head in ("source", "target"):
            if len(tokens) != 2:
                raise FormatError(f"expected '{head} FILE'", lineno, _column(raw, head))
            if getattr(doc, head) is not None:
                raise FormatError(f"duplicate {head} line", lineno, _column(raw, head))
            setattr(doc, head, tokens[1])
        elif head == "node":
            if len(tokens) != 4 or tokens[2] != "->":
                raise FormatError("expected 'node X -> Y'", lineno, _column(raw, head))
            if tokens[1] in doc.node_map:
                raise FormatError(f"duplicate node line for {tokens[1]!r}", lineno, _column(raw, tokens[1]))
            doc.node_map[tokens[1]] = tokens[3]
        elif head == "flowbasis":
            a = _header_name(tokens, lineno, raw, "flowbasis")
            name, eq, expr = rest.split(None, 2)[2].partition("=") if "=" in rest else ("", "", "")
            if not eq or not name.strip():
                raise FormatError(
                    "expected 'flowbasis A: NAME = combination'", lineno, _column(raw, head)
                )
            comb = [
                (k, _split_ref(term, "flow term", lineno, raw))
                for k, term in _parse_combination(expr, lineno, raw)
            ]
            entries = doc.flow_bases.setdefault(a, [])
            if any(nm == name.strip() for nm, _ in entries):
                raise FormatError(f"duplicate flowbasis {name.strip()!r} of {a!r}", lineno, _column(raw, head))
            entries.append((name.strip(), comb))
        elif head == "flowmap":
            a = _header_name(tokens, lineno, raw, "flowmap")
            name, arrow, expr = rest.split(None, 2)[2].partition("->") if "->" in rest else ("", "", "")
            if not arrow or not name.strip():
                raise FormatError(
                    "expected 'flowmap A: NAME -> combination'", lineno, _column(raw, head)
                )
            table = doc.flow_images.setdefault(a, {})
            if name.strip() in table:
                raise FormatError(f"duplicate flowmap {name.strip()!r} of {a!r}", lineno, _column(raw, head))
            table[name.strip()] = _parse_combination(expr, lineno, raw)
        elif head == "markmap":
            u = _header_name(tokens, lineno, raw, "markmap")
            ref, arrow, expr = rest.split(None, 2)[2].partition("->") if "->" in rest else ("", "", "")
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
            table[key] = _parse_combination(expr, lineno, raw)
        else:
            raise FormatError(f"unknown directive {head!r}", lineno, _column(raw, head))
    if doc is None:
        raise FormatError("missing morphism header")
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
    """Read a ``.pmor`` file, resolving net references next to it."""
    path = Path(path)
    doc = parse_morphism(path.read_text())
    if doc.source is None or doc.target is None:
        raise FormatError("morphism document needs source and target lines")
    source_net, _ = load_net(path.parent / doc.source)
    target_net, _ = load_net(path.parent / doc.target)
    return doc.to_morphism(source_net, target_net)


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
    doc = None
    for lineno, raw, tokens in _content_lines(text):
        head = tokens[0]
        if doc is None:
            if head != "winskel" or len(tokens) != 2:
                raise FormatError("missing winskel header", lineno, _column(raw, head))
            doc = WinskelDocument(
                _check_name(tokens[1], "winskel", lineno, raw, allow_dot=True)
            )
            continue
        rest = raw.split("#", 1)[0].strip()
        if head in ("source", "target"):
            if len(tokens) != 2:
                raise FormatError(f"expected '{head} FILE'", lineno, _column(raw, head))
            if getattr(doc, head) is not None:
                raise FormatError(f"duplicate {head} line", lineno, _column(raw, head))
            setattr(doc, head, tokens[1])
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
    if doc is None:
        raise FormatError("missing winskel header")
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
    path = Path(path)
    doc = parse_winskel(path.read_text())
    if doc.source is None or doc.target is None:
        raise FormatError("winskel document needs source and target lines")
    source_net, _ = load_net(path.parent / doc.source)
    target_net, _ = load_net(path.parent / doc.target)
    return doc.to_winskel(source_net, target_net)

"""Command line front end over the library.

One subcommand per analysis or construction, each declaring only the
options it reads.  Every subcommand reads ``.pnet`` / ``.pmor`` / ``.pwin``
documents through ``formats``, which opens, decodes and parses each file
and resolves the nets a morphism or Winskel document names; ``--marking``
values follow the documents' scalar grammar.  A subcommand reports either
human text or, with ``--json``, a sorted-key JSON object with a two-space
indent, the bytes the standard library's ``json.dumps`` writes for it
(byte-deterministic for fixed inputs and seed).  Exit codes: 0 success, 1
a checked property failed, 2 usage or parse problem, 3 inconclusive (the
Hilbert guard of ``flows --ring n`` or a state budget cut the computation
short), 4 internal error (an unexpected exception, reported on one line).
Morphism verification and classification are exact and never inconclusive.

Commands that emit a net or morphism print a valid document on stdout;
provenance and verification notes ride along as ``#`` comments, so the
output can be piped straight into a file and fed back in.
"""

import argparse
import functools
import itertools
import json
import os
import random
import sys
from fractions import Fraction

from . import intlinalg as la
from .behaviour import (
    BehaviourError,
    check_behaviour_mapping,
    fire,
    marking_dict,
    marking_vector,
    reachable,
)
from .formats import (
    FormatError,
    _format_combination,
    _scalar,
    _split_ref,
    load_morphism,
    load_net,
    load_winskel,
    serialize_morphism,
    serialize_net,
)
from .morphism import MorphismError, WinskelError, from_winskel
from .net import NetError, place_transition_net, same_net
from .product import (
    ProductError,
    check_reachability_correspondence,
    diagonal,
    fibre_product,
    kronecker,
    product_marking,
)
from .topology import SpaceError

OK = 0
FAILURE = 1
USAGE = 2
INCONCLUSIVE = 3
INTERNAL = 4

_STATUS_CODE = {"ok": OK, "failed": FAILURE, "inconclusive": INCONCLUSIVE}


class CliError(Exception):
    """Bad command usage that argparse cannot catch itself."""


class Report:
    """Human lines plus a JSON payload; main prints the payload when
    ``json`` is set and the lines otherwise."""

    def __init__(self, command, json=False):
        self.json = json
        self.lines = []
        self.payload = {"command": command}

    def say(self, text):
        self.lines.append(text)

    def put(self, key, value):
        self.payload[key] = value

    def fail(self, text, detail):
        """Say ``text``, report status ``failed`` with ``detail``: exit 1."""
        self.say(text)
        self.put("status", "failed")
        self.put("detail", detail)
        return FAILURE

    def document(self, text):
        """A document as the human lines and as the ``document`` key."""
        self.lines.extend(text.splitlines())
        self.put("document", text)


# ---------------------------------------------------------------------------
# the --json writer


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _encode_at(level):
    """The C encoder of a container whose items sit at indent ``level``."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * level, ": ")).encode


def _flat(items):
    """No container among ``items``, told apart by type as the encoder does."""
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, items)))


def _dumps(value, level=0):
    """The standard library's JSON dump with a two-space indent and sorted
    keys, byte for byte (keys are strings, as in every payload), written by
    the C encoder.

    ``indent`` turns the C encoder off, but a separator may carry the line
    break and the indent.  So a container of scalars is one encoder call,
    with a break added after its opening and before its closing bracket.  A
    list of non-empty dicts of scalars is one call at the indent of the
    dicts' items, and each seam ``},<break><indent>{`` between two dicts is
    rewritten.  The seam is always structural: the encoder escapes every
    control character in a string, so a line break is a separator's; no
    scalar ends in ``}``; a key starts with ``"``.  Any other container is
    written item by item.
    """
    if not isinstance(value, _CONTAINERS):
        return _encode_at(level)(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    is_dict = isinstance(value, dict)
    pad = "\n" + "  " * level
    inner = pad + "  "
    if _flat(value.values() if is_dict else value):
        text = _encode_at(level + 1)(value)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if is_dict:
        parts = [
            inner + _encode_at(level)(k) + ": " + _dumps(value[k], level + 1)
            for k in sorted(value)
        ]
        return "{" + ",".join(parts) + pad + "}"
    if (
        all(issubclass(t, dict) for t in set(map(type, value)))
        and all(value)
        and _flat(itertools.chain.from_iterable(map(dict.values, value)))
    ):
        deep = inner + "  "
        text = _encode_at(level + 2)(value)
        body = text[2:-2].replace("}," + deep + "{", inner + "}," + inner + "{" + deep)
        return "[" + inner + "{" + deep + body + inner + "}" + pad + "]"
    return "[" + ",".join(inner + _dumps(v, level + 1) for v in value) + pad + "]"


# ---------------------------------------------------------------------------
# small formatting and input helpers


def _yes(value):
    return "yes" if value else "no"


def _json_value(v):
    if type(v) is int:
        return v
    f = Fraction(v)
    return int(f) if f.denominator == 1 else str(f)


def _vector_payload(values):
    return [_json_value(v) for v in values]


def _label(lab):
    node, element = lab
    return f"{node}.{element}"


def _token_labels(net):
    """The ``p.c`` label of every token of ``net``, in token-axis order:
    read by every rendering of a marking of ``net``, built once per call."""
    return tuple(map(_label, net.token_axis()))


def _fmt_marking(labels, vector):
    parts = [f"{lab}={la._format_scalar(v)}" for lab, v in zip(labels, vector) if v]
    return " ".join(parts) if parts else "(empty)"


def _marking_payload(labels, vector):
    return {lab: _json_value(v) for lab, v in zip(labels, vector) if v}


def _parse_marking(net, text):
    values = {}
    for part in text.replace(",", " ").split():
        ref, eq, num = part.partition("=")
        value = _scalar(num, None, part) if eq else None
        if value is None:
            raise CliError(f"marking entries look like P.C=N, got {part!r}")
        key = _split_ref(ref, "marking token", None, part)
        values[key] = values.get(key, 0) + value
    return values


def _marking_arg(net, text, file_marking, what="--marking"):
    if text is not None:
        return marking_vector(net, _parse_marking(net, text))
    if file_marking:
        return marking_vector(net, file_marking)
    raise CliError(f"no marking: pass {what} or add a marking line to the net file")


def _parse_sequence(net, text):
    events = []
    for part in text.replace(",", " ").split():
        t, dot, b = part.partition(".")
        if t not in net.bindings:
            raise CliError(f"unknown transition {t!r} in the sequence")
        if dot:
            if b not in net.bindings[t]:
                raise CliError(f"unknown binding {part!r} in the sequence")
            events.append((t, b))
        elif len(net.bindings[t]) == 1:
            events.append((t, net.bindings[t][0]))
        else:
            raise CliError(f"{t!r} has several bindings, write {t}.B")
    return events


def _region_text(net, region):
    if region is None:
        return "all nodes"
    return "{" + ",".join(net.space.ordered(region)) + "}"


def _resolve_region(args, net):
    spec = args.region or "all"
    if args.via and not spec.startswith("fibre:"):
        raise CliError("--via resolves --region fibre:Y only")
    if spec == "all":
        return None
    if spec == "places":
        return net.space.places
    if spec == "transitions":
        return net.space.transitions
    kind, sep, rest = spec.partition(":")
    if sep and kind == "nodes":
        names = tuple(x for x in rest.split(",") if x)
        if not names:
            raise CliError("nodes: region needs at least one node name")
        for x in names:
            net.space.sort_of(x)  # unknown names raise
        return names
    if sep and kind == "fibre":
        if not args.via:
            raise CliError("region fibre:NODE needs --via MORPHISM.pmor")
        f, _doc, _marking = load_morphism(args.via)
        if not same_net(f.source, net):
            raise CliError("the --via morphism's source does not match the net")
        return f.space_map.fibre(rest)
    raise CliError(
        f"unknown region {spec!r}; use all, places, transitions, nodes:A,B or fibre:Y"
    )


def _ring_of(args):
    return {None: None, "z": "Z", "q": "Q", "n": "N"}[args.ring]


def _combine(*statuses):
    return FAILURE if "failed" in statuses else OK


# ---------------------------------------------------------------------------
# axiom sweep and the random net pool it runs on


def axiom_sweep(net):
    """Covers counted for each gluing check: every basic cover of every
    basic set, by the basic-cover lemma, with no enumeration.

    A transition's basic open holds it and the places next to it; the
    basic opens inside it are the set itself and the place singletons, so
    its covers are the set plus any subset of those singletons, 2**deg(t)
    of them.  A place's basic open is the place alone, with one cover.
    Closed sets are dual.  Hence

        token-sheaf = |P| + sum over t of 2**deg(t),
        binding-cosheaf = flow-gluing = |T| + sum over p of 2**deg(p).

    Every such cover holds the set itself, so the token sheaf, the binding
    cosheaf and flow gluing hold on it by the cover alone and no check
    here can fail.  A failing cover, such as the whole of a relaxed net
    under its default cover, needs the library verifiers in
    ``petrisheaf.net``.
    """
    space = net.space
    opens = sum(2 ** (len(space.basic_open(x)) - 1) for x in space.nodes)
    closeds = sum(2 ** (len(space.basic_closed(x)) - 1) for x in space.nodes)
    return {"token-sheaf": opens, "binding-cosheaf": closeds, "flow-gluing": closeds}


def random_strict_net(rng, max_places=4, max_transitions=4):
    """A random strict place/transition net, at most 8 nodes by default."""
    n_places = rng.randint(1, max_places)
    n_transitions = rng.randint(1, max_transitions)
    places = [f"q{i}" for i in range(n_places)]
    transitions = [f"s{i}" for i in range(n_transitions)]
    consume = {}
    produce = {}
    for t in transitions:
        consume[t] = {}
        produce[t] = {}
        for p in places:
            kind = rng.randint(0, 3)
            if kind == 1:
                consume[t][p] = rng.randint(1, 3)
            elif kind == 2:
                produce[t][p] = rng.randint(1, 3)
            elif kind == 3:
                consume[t][p] = rng.randint(1, 3)
                produce[t][p] = rng.randint(1, 3)
    return place_transition_net("rand", places, transitions, consume, produce)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_show(args, out):
    net, marking = load_net(args.net)
    space = net.space
    mode = "strict" if net.strict else "relaxed"
    out.say(f"net {net.name} [{mode}, ring {net.ring}]")
    out.say(
        f"places: {len(space.places)}, transitions: {len(space.transitions)}, "
        f"adjacent pairs: {len(space.adjacency)}"
    )
    for x in space.nodes:
        if space.is_place(x):
            out.say(f"place {x}: tokens {' '.join(net.tokens[x])}")
        else:
            out.say(f"transition {x}: bindings {' '.join(net.bindings[x])}")
    index = {n: i for i, n in enumerate(space.nodes)}
    adjacency = sorted(space.adjacency, key=lambda pt: (index[pt[0]], index[pt[1]]))
    out.say(
        "adjacency: "
        + (" ".join(f"{p}~{t}" for p, t in adjacency) if adjacency else "(none)")
    )
    for x in space.nodes:
        out.say(f"basic open {x} = {{{','.join(space.ordered(space.basic_open(x)))}}}")
    for x in space.nodes:
        out.say(
            f"basic closed {x} = {{{','.join(space.ordered(space.basic_closed(x)))}}}"
        )
    out.put("name", net.name)
    out.put("strict", net.strict)
    out.put("ring", net.ring)
    out.put("places", {p: list(net.tokens[p]) for p in space.places})
    out.put("transitions", {t: list(net.bindings[t]) for t in space.transitions})
    out.put("adjacency", [[p, t] for p, t in adjacency])
    out.put(
        "basic_open", {x: list(space.ordered(space.basic_open(x))) for x in space.nodes}
    )
    out.put(
        "basic_closed",
        {x: list(space.ordered(space.basic_closed(x))) for x in space.nodes},
    )
    if marking:
        vector = marking_vector(net, marking)
        labels = _token_labels(net)
        out.say(f"marking: {_fmt_marking(labels, vector)}")
        out.put("marking", _marking_payload(labels, vector))
    else:
        out.put("marking", None)
    return OK


def cmd_flows(args, out):
    net, _ = load_net(args.net)
    region = _resolve_region(args, net)
    ring = _ring_of(args)
    module = net.flows(region, ring="Z" if ring == "N" else ring)
    labels = [_label(lab) for lab in module.axis]
    out.say(f"flows of {net.name} over {_region_text(net, region)}")
    out.put("net", net.name)
    out.put("region", "all" if region is None else list(net.space.ordered(region)))
    out.put("axis", labels)
    if ring == "N":
        generators = la.hilbert_basis(
            module.matrix.as_lists(), len(labels), guard=args.hilbert_guard
        )
        generators = sorted(tuple(g) for g in generators)
        out.say(f"{len(generators)} hilbert generators")
        for g in generators:
            out.say(f"  {_format_combination(labels, g)}")
        out.put("ring", "N")
        out.put("generators", [_vector_payload(g) for g in generators])
        return OK
    out.say(f"rank {module.rank}")
    for vec in module.basis:
        out.say(f"  {_format_combination(labels, vec)}")
    out.put("ring", module.ring)
    out.put("rank", module.rank)
    out.put("basis", [_vector_payload(vec) for vec in module.basis])
    return OK


def cmd_classes(args, out):
    net, _ = load_net(args.net)
    ring = _ring_of(args)
    if ring == "N":
        raise CliError("marking classes are computed over z or q, not n")
    region = _resolve_region(args, net)
    module = net.marking_classes(region, ring=ring)
    labels = [_label(lab) for lab in module.axis]
    factors = list(module.invariant_factors)
    out.say(f"marking classes of {net.name} over {_region_text(net, region)}")
    out.say(f"rank {module.rank}")
    out.say("invariant factors: " + (" ".join(map(str, factors)) if factors else "none"))
    classes = {}
    for lab, unit in zip(labels, la.identity(len(labels))):
        rep = module.class_of(unit)
        classes[lab] = _vector_payload(rep)
        out.say(f"  [{lab}] = {_format_combination(labels, rep)}")
    out.put("net", net.name)
    out.put("region", "all" if region is None else list(net.space.ordered(region)))
    out.put("ring", module.ring)
    out.put("axis", labels)
    out.put("rank", module.rank)
    out.put("invariant_factors", factors)
    out.put("torsion", list(module.torsion))
    out.put("classes", classes)
    return OK


def cmd_axioms(args, out):
    net, _ = load_net(args.net)
    counts = axiom_sweep(net)
    out.say(f"net {net.name}: {len(net.space.nodes)} nodes")
    for kind in ("token-sheaf", "binding-cosheaf", "flow-gluing"):
        out.say(f"{kind}: {counts[kind]} coverings checked")
    out.put("net", net.name)
    out.put("checks", counts)
    random_info = None
    if args.random:
        rng = random.Random(args.seed)
        swept = sum(
            sum(axiom_sweep(random_strict_net(rng)).values()) for _ in range(args.random)
        )
        random_info = {"nets": args.random, "checks": swept, "seed": args.seed}
        out.say(f"random nets: {args.random} swept, {swept} coverings checked")
    out.put("random", random_info)
    out.say("all exact")
    out.put("failures", [])
    return OK


def cmd_check_morphism(args, out):
    f, doc, _marking = load_morphism(args.morphism)
    report = f.verify()
    out.say(f"morphism {f.name}: {f.source.name} -> {f.target.name}")
    clause_payload = []
    for c in report.clauses:
        line = f"{c.clause}: {c.status}"
        if c.detail and c.status != "ok":
            line += f" ({c.detail})"
        out.say(line)
        clause_payload.append(
            {"clause": c.clause, "status": c.status, "detail": c.detail}
        )
    out.put("name", f.name)
    out.put("source", doc.source)
    out.put("target", doc.target)
    out.put("status", report.status)
    out.put("clauses", clause_payload)
    if report.status == "failed":
        out.put("classification", None)
        return FAILURE
    d = f.classify().as_dict()
    out.say(
        f"abstraction: {_yes(d['abstraction'])}; "
        f"embedding: {_yes(d['embedding'])}; discrete: {_yes(d['discrete'])}"
    )
    out.say(
        f"modification: {_yes(d['modification'])}; "
        f"place-modification: {_yes(d['place-modification'])}; "
        f"transition-modification: {_yes(d['transition-modification'])}"
    )
    out.put("classification", d)
    return OK


def cmd_compose(args, out):
    f, f_doc, _m1 = load_morphism(args.first)
    g, g_doc, _m2 = load_morphism(args.second)
    if not same_net(f.target, g.source):
        raise CliError("the first morphism's target must be the second's source")
    try:
        composite = f.then(g)
    except MorphismError as exc:
        return out.fail(f"composition failed: {exc}", str(exc))
    report = composite.verify()
    out.document(serialize_morphism(composite, f_doc.source, g_doc.target))
    out.put("name", composite.name)
    out.put("status", report.status)
    return _STATUS_CODE[report.status]


def cmd_product(args, out):
    first, first_marking = load_net(args.first)
    second, second_marking = load_net(args.second)
    result = kronecker(first, second)
    comments = [
        f"product of {first.name} and {second.name}",
        f"left factor: {args.first}",
        f"right factor: {args.second}",
    ]
    marking = None
    if args.marked:
        if first_marking is None or second_marking is None:
            raise CliError("--marked needs a marking line in both factor files")
        vector = product_marking(
            result,
            marking_vector(first, first_marking),
            marking_vector(second, second_marking),
        )
        marking = marking_dict(result.net, vector)
        out.put("marking", _marking_payload(_token_labels(result.net), vector))
    else:
        out.put("marking", None)
    out.document(serialize_net(result.net, marking=marking, comments=comments))
    out.put("name", result.net.name)
    out.put("places", len(result.net.space.places))
    out.put("transitions", len(result.net.space.transitions))
    return OK


def cmd_fibre_product(args, out):
    f, f_doc, _m1 = load_morphism(args.first)
    g, g_doc, _m2 = load_morphism(args.second)
    if not same_net(f.target, g.target):
        raise CliError("fibre products need morphisms into a common target")
    for which, m in (("first", f), ("second", g)):
        report = m.verify()
        if report.status == "failed":
            bad = report.first_failure
            return out.fail(
                f"{which} morphism {m.name} fails {bad.clause}: {bad.detail}",
                f"{m.name}: {bad.clause}",
            )
        if not m.space_map.is_discrete():
            raise CliError(
                f"fibre products need discrete morphisms, {m.name} is not discrete"
            )
    try:
        fp = fibre_product(f, g)
    except (ProductError, MorphismError) as exc:
        return out.fail(f"no fibre product: {exc}", str(exc))
    left_report = fp.left.verify()
    right_report = fp.right.verify()
    comments = [
        f"fibre product of {f.name} and {g.name} over {f.target.name}",
        f"left leg onto {f.source.name}: {left_report.status}",
        f"right leg onto {g.source.name}: {right_report.status}",
    ]
    out.document(serialize_net(fp.net, comments=comments))
    out.put("name", fp.net.name)
    out.put("status", "ok")
    out.put("left_status", left_report.status)
    out.put("right_status", right_report.status)
    out.put("square_commutes", fp.inverse.square_commutes)
    return _combine(left_report.status, right_report.status)


def cmd_diagonal(args, out):
    net, _ = load_net(args.net)
    result = diagonal(net)
    iso_report = result.iso.verify()
    emb_report = result.embedding.verify()
    comments = [
        f"diagonal of {net.name} inside {result.product.net.name}",
        f"renaming iso: {iso_report.status}",
        f"embedding into the square: {emb_report.status}",
    ]
    failure = emb_report.first_failure or iso_report.first_failure
    if failure:
        comments.append(f"failing clause: {failure.clause}")
    out.document(serialize_net(result.net, comments=comments))
    out.put("net", net.name)
    out.put("iso_status", iso_report.status)
    out.put("embedding_status", emb_report.status)
    out.put("failing_clause", failure.clause if failure else None)
    return _combine(iso_report.status, emb_report.status)


def cmd_simulate(args, out):
    net, file_marking = load_net(args.net)
    current = _marking_arg(net, args.marking, file_marking)
    events = _parse_sequence(net, args.sequence)
    labels = _token_labels(net)
    out.say(f"start: {_fmt_marking(labels, current)}")
    trace = [_marking_payload(labels, current)]
    for i, (t, b) in enumerate(events, start=1):
        try:
            current = fire(net, current, t, b)
        except BehaviourError:
            detail = f"step {i} ({t}.{b}) is not enabled"
            out.put("trace", trace)
            return out.fail(detail, detail)
        out.say(f"step {i} ({t}.{b}): {_fmt_marking(labels, current)}")
        trace.append(_marking_payload(labels, current))
    out.say(f"final: {_fmt_marking(labels, current)}")
    out.put("status", "ok")
    out.put("trace", trace)
    out.put("final", _marking_payload(labels, current))
    return OK


def cmd_reach(args, out):
    net, file_marking = load_net(args.net)
    start = _marking_arg(net, args.marking, file_marking)
    result = reachable(net, start, depth=args.depth, max_states=args.max_states)
    count = len(result.markings)
    out.say(f"{count} marking" + ("" if count == 1 else "s"))
    out.say(f"depth reached: {result.depth_reached}")
    if result.budget_exhausted:
        out.say("note: state budget exhausted, exploration incomplete")
    elif result.truncated:
        out.say("note: cut at the depth bound")
    markings = sorted(result.markings)
    out.put("net", net.name)
    out.put("count", count)
    out.put("depth_reached", result.depth_reached)
    out.put("truncated", result.truncated)
    out.put("budget_exhausted", result.budget_exhausted)
    # each marking is rendered once, in the format that is printed
    labels = _token_labels(net)
    if out.json:
        out.put("markings", [_marking_payload(labels, m) for m in markings])
    else:
        for m in markings:
            out.say(f"  {_fmt_marking(labels, m)}")
    return INCONCLUSIVE if result.budget_exhausted else OK


def cmd_map_behaviour(args, out):
    f, _doc, source_marking = load_morphism(args.morphism)
    start = _marking_arg(f.source, args.marking, source_marking)
    events = _parse_sequence(f.source, args.sequence)
    try:
        report = check_behaviour_mapping(f, start, events)
    except (BehaviourError, MorphismError) as exc:
        return out.fail(f"mapping failed: {exc}", str(exc))
    image = [
        f"{a}[{_format_combination(f.target.bindings[a], vec)}]" for a, vec in report.image_events
    ]
    out.say("image sequence: " + (" ".join(image) if image else "(empty)"))
    source_labels, target_labels = _token_labels(f.source), _token_labels(f.target)
    out.say(f"source post: {_fmt_marking(source_labels, report.source_post)}")
    out.say(f"target post: {_fmt_marking(target_labels, report.target_post)}")
    out.say(f"status: {report.status}" + (f" ({report.detail})" if report.detail else ""))
    out.put("morphism", f.name)
    out.put("status", report.status)
    out.put("detail", report.detail)
    out.put("image_events", image)
    out.put("source_post", _marking_payload(source_labels, report.source_post))
    out.put("target_post", _marking_payload(target_labels, report.target_post))
    return OK if report.ok else FAILURE


def cmd_winskel(args, out):
    w = load_winskel(args.file)
    try:
        result = from_winskel(w)
    except WinskelError as exc:
        return out.fail(f"conversion failed: {exc}", str(exc))
    projection_report = result.projection.verify()
    fold_report = result.fold.verify()
    domain_closed = w.source.space.is_closed(result.domain.space.nodes)
    image_open = result.merged.space.is_open(result.fold.space_map.image())
    out.say(f"winskel data {w.name}: {w.source.name} -> {w.target.name}")
    out.say(
        f"domain {{{','.join(result.domain.space.nodes)}}} "
        f"closed in {w.source.name}: {_yes(domain_closed)}"
    )
    out.say(f"fold image open in {result.merged.name}: {_yes(image_open)}")
    lines_and_keys = []
    for role, morphism, report in (
        ("projection", result.projection, projection_report),
        ("fold", result.fold, fold_report),
    ):
        entry = {"name": morphism.name, "status": report.status}
        line = f"{role} {morphism.name}: {report.status}"
        if report.status != "failed":
            d = morphism.classify().as_dict()
            entry["classification"] = d
            line += (
                f"; discrete: {_yes(d['discrete'])}"
                f"; place-modification: {_yes(d['place-modification'])}"
            )
        else:
            entry["classification"] = None
            line += f" ({report.first_failure.detail})"
        out.say(line)
        lines_and_keys.append((role, entry))
    out.put("name", w.name)
    out.put("domain", list(result.domain.space.nodes))
    out.put("domain_closed", domain_closed)
    out.put("image_open", image_open)
    for role, entry in lines_and_keys:
        out.put(role, entry)
    out.put("merged_document", serialize_net(result.merged))
    if not (domain_closed and image_open):
        return FAILURE
    return _combine(projection_report.status, fold_report.status)


def cmd_check_product_reach(args, out):
    first, first_marking = load_net(args.first)
    second, second_marking = load_net(args.second)
    v1 = _marking_arg(first, args.marking1, first_marking, what="--marking1")
    v2 = _marking_arg(second, args.marking2, second_marking, what="--marking2")
    result = kronecker(first, second)
    report = check_reachability_correspondence(
        result, v1, v2, depth=args.depth, max_states=args.max_states
    )
    out.say(f"status: {report.status}" + (f" ({report.detail})" if report.detail else ""))
    out.say(
        f"marking counts: first {report.first_count}, "
        f"second {report.second_count}, product {report.product_count}"
    )
    out.put("status", report.status)
    out.put("detail", report.detail)
    out.put("first_count", report.first_count)
    out.put("second_count", report.second_count)
    out.put("product_count", report.product_count)
    return _STATUS_CODE[report.status]


# ---------------------------------------------------------------------------
# parser wiring


def natural(text):
    """Argument type of the count options: a negative count exits 2."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a natural number, got {value}")
    return value


def positive(text):
    """Argument type of ``--max-states``: the start marking is always kept,
    so a budget of zero markings cannot be met and exits 2."""
    value = natural(text)
    if value == 0:
        raise argparse.ArgumentTypeError("expected a positive count, got 0")
    return value


@functools.cache
def build_parser():
    """The command line parser, built once per process and reused by ``main``.

    Each subcommand declares ``--json`` and exactly the options its handler
    reads; any other option exits 2."""

    def parent(*parents):
        return argparse.ArgumentParser(add_help=False, parents=parents)

    common = parent()
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    regions = parent()
    regions.add_argument("--ring", choices=("n", "z", "q"), help="coefficient ring override")
    regions.add_argument(
        "--region",
        metavar="R",
        help="all | places | transitions | nodes:A,B | fibre:Y (with --via)",
    )
    regions.add_argument("--via", metavar="MOR", help="morphism file resolving fibre: regions")
    marked = parent()
    marked.add_argument("--marking", metavar="M", help="start marking, entries P.C=N")
    run = parent(marked)
    run.add_argument("--sequence", metavar="S", required=True, help="events T or T.B")

    parser = argparse.ArgumentParser(
        prog="petrisheaf",
        description="Analyses and constructions on coloured Petri nets over Petri spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, handler, help_text, positionals, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=help_text)
        p.set_defaults(handler=handler)
        for positional in positionals.split():
            p.add_argument(positional)
        return p

    add("show", cmd_show, "net summary: sorts, topology, canonical basis", "net")
    p = add("flows", cmd_flows, "flow module of a closed region", "net", regions)
    p.add_argument(
        "--hilbert-guard",
        type=natural,
        default=10_000,
        metavar="K",
        help="growth guard for the Hilbert generators of --ring n",
    )
    add("classes", cmd_classes, "marking classes of an open region", "net", regions)

    p = add("axioms", cmd_axioms, "sheaf/cosheaf exactness on all basic coverings", "net")
    p.add_argument(
        "--random",
        type=natural,
        default=0,
        metavar="K",
        help="also sweep K seeded random strict nets",
    )
    p.add_argument("--seed", type=int, default=0, help="seed of the random nets")

    add("check-morphism", cmd_check_morphism, "verify and classify a morphism", "morphism")
    add("compose", cmd_compose, "compose two morphisms, first then second", "first second")

    p = add("product", cmd_product, "binary product net with tagged axes", "first second")
    p.add_argument(
        "--marked",
        action="store_true",
        help="pair the factor file markings into a product marking",
    )

    add("fibre-product", cmd_fibre_product, "pullback of two discrete morphisms", "first second")
    add("diagonal", cmd_diagonal, "diagonal subnet of the square product", "net")
    add("simulate", cmd_simulate, "fire a sequence of events step by step", "net", run)
    reach = add("reach", cmd_reach, "breadth-first reachable markings", "net", marked)
    add("map-behaviour", cmd_map_behaviour, "transport a saturated run forward", "morphism", run)
    add("winskel", cmd_winskel, "convert multirelation data to net morphisms", "file")

    pair = add(
        "check-product-reach",
        cmd_check_product_reach,
        "product reachability against the factor explorations",
        "first second",
    )
    pair.add_argument("--marking1", metavar="M", help="first factor marking")
    pair.add_argument("--marking2", metavar="M", help="second factor marking")
    for p, depth in ((reach, None), (pair, 5)):
        p.add_argument("--depth", type=natural, default=depth, metavar="D")
        p.add_argument("--max-states", type=positive, default=10_000)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return OK if exc.code in (0, None) else USAGE
    out = Report(args.command, args.json)
    try:
        code = args.handler(args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (
        FormatError,
        NetError,
        SpaceError,
        MorphismError,
        BehaviourError,
        ProductError,
        WinskelError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except la.ResourceLimitExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except Exception as exc:
        # a crash is no verdict: exit 1 would claim a checked property failed
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL
    try:
        if args.json:
            print(_dumps(out.payload))
        else:
            for line in out.lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: that is no verdict, and the flush
        # at exit must not meet the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())

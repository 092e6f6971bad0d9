"""Markings, firing, reachability, and behaviour transport along morphisms.

Markings are vectors over the token axis of a net.  An event is a pair of a
transition and a non-negative multiset of its bindings fired at once; a
plain firing uses a unit multiset.  Sequences of single-binding events can
be pushed through a verified morphism once they are saturated: every
maximal run of events sitting over one image transition must have a Parikh
vector that is a flow of the corresponding fibre.

Firing runs on compiled events: ``_compiled`` turns the sparse effects
(``net.effect``) of bindings fired at once into one ``(label, pre,
delta)`` entry, and ``_successors`` checks the ``pre`` weights and adds
the nonzero ``delta`` entries of each entry.  ``_single_events`` compiles
every single binding once per exploration, and ``reachable``,
``enabled_events``, ``activated_sequences`` and the unit firing of
transported events (``_fire_units``) all read that table; a multiset
event of ``fire``, ``fire_step`` or ``is_enabled`` is compiled to one
entry and fired the same way.  The table is built per call, so the net
holds no state for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from . import intlinalg as la
from .topology import Sort


class BehaviourError(ValueError):
    """Bad marking or event data, or firing a disabled event."""


# ---------------------------------------------------------------------------
# markings and events


def marking_vector(net, data):
    """Normalise dict or sequence input to a marking tuple.

    Dict keys are (place, token) labels; values must be non-negative and
    may be fractional (transported markings can leave the integers).
    """
    if isinstance(data, dict):
        axis = net.token_axis()
        extra = set(data) - set(axis)
        if extra:
            raise BehaviourError(f"unknown tokens {sorted(extra, key=str)!r}")
        values = [data.get(lab, 0) for lab in axis]
    else:
        values = _checked_marking(net, data)
    out = []
    for v in values:
        f = Fraction(v)
        if f < 0:
            raise BehaviourError(f"negative token count {v!r}")
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


def _checked_marking(net, marking):
    """``marking`` as a tuple, after checking its length against the token axis."""
    if isinstance(marking, dict):
        raise BehaviourError("a marking dict must go through marking_vector first")
    marking = tuple(marking)
    size = len(net.token_axis())
    if len(marking) != size:
        raise BehaviourError(f"marking must have length {size}, got {len(marking)}")
    return marking


def marking_dict(net, vector):
    """Sparse view of a marking vector, keyed by (place, token)."""
    axis = net.token_axis()
    if len(vector) != len(axis):
        raise BehaviourError("marking has the wrong length")
    return {lab: v for lab, v in zip(axis, vector) if v}


def event_vector(net, t, data):
    """Multiset of bindings of ``t``: a binding name, dict, or vector."""
    if t not in net.bindings:
        raise BehaviourError(f"unknown transition {t!r}")
    axis = net.bindings[t]
    if isinstance(data, str):
        if data not in axis:
            raise BehaviourError(f"unknown binding {t}.{data}")
        return tuple(1 if b == data else 0 for b in axis)
    if isinstance(data, dict):
        extra = set(data) - set(axis)
        if extra:
            raise BehaviourError(f"unknown bindings {sorted(extra)!r} of {t!r}")
        values = [data.get(b, 0) for b in axis]
    else:
        values = list(data)
        if len(values) != len(axis):
            raise BehaviourError(f"event over {t!r} must have length {len(axis)}")
    for v in values:
        if v < 0 or v != int(v):
            raise BehaviourError(f"binding multiplicities must be naturals, got {v!r}")
    return tuple(int(v) for v in values)


def _compiled(label, effects):
    """``(multiplicity, (pre, post))`` sparse effects fired at once, compiled
    to ``(label, pre, delta)``: ``pre`` sums the consume side per position,
    so that concurrent bindings need their tokens together, and ``delta``
    holds the nonzero (position, change) pairs of post minus pre."""
    need, change = {}, {}
    for mult, (pre, post) in effects:
        for i, w in pre:
            need[i] = need.get(i, 0) + mult * w
            change[i] = change.get(i, 0) - mult * w
        for i, w in post:
            change[i] = change.get(i, 0) + mult * w
    return label, tuple(need.items()), tuple((i, d) for i, d in change.items() if d)


def _single_events(net):
    """Every single-binding event in declaration order, compiled to
    ``((t, b), pre, delta)``."""
    return [_compiled((t, b), [(1, net.effect(t, b))]) for t, b in net.binding_axis()]


def _successors(marking, events):
    """The label of each compiled single event (``_single_events``) enabled
    at ``marking``, with the marking it leads to."""
    for label, pre, delta in events:
        for i, w in pre:
            if marking[i] < w:
                break
        else:
            out = list(marking)
            for i, d in delta:
                out[i] += d
            yield label, tuple(out)


def _fire_step(net, marking, events):
    """The marking after ``(t, data)`` events fired at once, or None when
    the pre-set does not fit: the events are compiled to one entry, as the
    single events are, and fired by ``_successors``."""
    marking = _checked_marking(net, marking)
    effects = [
        (mult, net.effect(t, b))
        for t, data in events
        for mult, b in zip(event_vector(net, t, data), net.bindings[t])
        if mult
    ]
    return next((after for _, after in _successors(marking, [_compiled(None, effects)])), None)


def is_enabled(net, marking, t, data):
    return _fire_step(net, marking, [(t, data)]) is not None


def fire(net, marking, t, data):
    """Fire a binding multiset of ``t``; raises when not enabled."""
    after = _fire_step(net, marking, [(t, data)])
    if after is None:
        raise BehaviourError(f"event over {t!r} is not enabled")
    return after


def fire_step(net, marking, events):
    """Fire several events concurrently (their pre-sets must fit at once)."""
    after = _fire_step(net, marking, events)
    if after is None:
        raise BehaviourError("step is not enabled")
    return after


def fire_sequence(net, marking, events):
    """Fire events one after another; returns (final, intermediate trace)."""
    trace = [tuple(marking)]
    current = tuple(marking)
    for t, data in events:
        current = fire(net, current, t, data)
        trace.append(current)
    return current, trace


def enabled_events(net, marking):
    """All enabled single-binding events, in declaration order."""
    marking = _checked_marking(net, marking)
    return [label for label, _ in _successors(marking, _single_events(net))]


def activated_sequences(net, marking, max_length):
    """All activated single-binding sequences up to the given length.

    Yields tuples of (transition, binding) pairs, shortest first; the empty
    sequence is included.
    """
    single = _single_events(net)
    queue = deque([((), _checked_marking(net, marking))])
    while queue:
        events, current = queue.popleft()
        yield events
        if len(events) == max_length:
            continue
        for label, after in _successors(current, single):
            queue.append((events + (label,), after))


# ---------------------------------------------------------------------------
# reachability


@dataclass
class ReachResult:
    initial: tuple
    markings: set
    edges: list = field(default_factory=list)  # (marking, (t, b), marking)
    truncated: bool = False
    depth_reached: int = 0
    budget_exhausted: bool = False

    def __len__(self):
        return len(self.markings)


def reachable(net, marking, depth=None, max_states=10_000, record_edges=False):
    """Breadth-first reachability with single-binding steps.

    Exploration stops at the depth bound and at ``max_states`` distinct
    markings; ``truncated`` is set when either limit leaves a marking
    unseen: the budget refused a new marking (``budget_exhausted`` is set
    too), or an event enabled at the depth bound leads to a marking not
    found within it.  The start marking is always kept, so ``max_states``
    must be at least 1.
    """
    if max_states < 1:
        raise BehaviourError(f"max_states must be at least 1, got {max_states}")
    start = _checked_marking(net, marking)
    single = _single_events(net)
    seen = {start}
    result = ReachResult(initial=start, markings=seen)
    edges = result.edges if record_edges else None
    queue = deque([(start, 0)])
    while queue:
        current, d = queue.popleft()
        result.depth_reached = d  # breadth first: d never decreases
        if depth is not None and d >= depth:
            # the cut hides something only if a successor here is unseen
            if not result.truncated and any(
                nxt not in seen for _, nxt in _successors(current, single)
            ):
                result.truncated = True
            continue
        for label, nxt in _successors(current, single):
            if edges is not None:
                edges.append((current, label, nxt))
            if nxt in seen:
                continue
            if len(seen) >= max_states:
                result.truncated = result.budget_exhausted = True
                continue
            seen.add(nxt)
            queue.append((nxt, d + 1))
    return result


# ---------------------------------------------------------------------------
# saturation and transport of sequences


def segment_sequence(morphism, events):
    """Split into maximal runs sitting over a single image node."""
    segments = []
    for t, b in events:
        node = morphism.space_map(t)
        if segments and segments[-1][0] == node:
            segments[-1][1].append((t, b))
        else:
            segments.append((node, [(t, b)]))
    return segments


def _segment_parikh(morphism, a, segment):
    axis = morphism.source.binding_axis(morphism.space_map.fibre(a))
    pos = {lab: i for i, lab in enumerate(axis)}
    vec = [0] * len(axis)
    for t, b in segment:
        vec[pos[(t, b)]] += 1
    return vec


def saturation_status(morphism, events):
    """Is every transition-image run a fibre flow?  Returns (ok, detail)."""
    tgt_space = morphism.target.space
    for node, segment in segment_sequence(morphism, events):
        if tgt_space.sort_of(node) is Sort.PLACE:
            continue
        parikh = _segment_parikh(morphism, node, segment)
        flows = morphism.source.flows(morphism.space_map.fibre(node), ring=morphism.ring)
        if not flows.contains(parikh):
            return False, (
                f"run over {node!r} has Parikh vector {parikh}, "
                "which is not a flow of the fibre"
            )
    return True, ""


def map_sequence(morphism, events):
    """Image of a saturated sequence: one event per transition run.

    Runs over image places disappear (their effect is already invisible to
    the transported marking); a run over an image transition ``a`` becomes
    the single event ``(a, flow image of its Parikh vector)``.
    """
    morphism.require_verified()
    ok, detail = saturation_status(morphism, events)
    if not ok:
        raise BehaviourError(f"sequence is not saturated: {detail}")
    tgt_space = morphism.target.space
    out = []
    for node, segment in segment_sequence(morphism, events):
        if tgt_space.sort_of(node) is Sort.PLACE:
            continue
        parikh = _segment_parikh(morphism, node, segment)
        image = morphism.flow_image(node, parikh)
        if any(x < 0 or x != int(x) for x in image):
            raise BehaviourError(
                f"image of the run over {node!r} is not a binding multiset: "
                f"{la._format_vector(image)}"
            )
        out.append((node, tuple(int(x) for x in image)))
    return out


def _unit_events(net):
    """The compiled single events of ``net`` (``_single_events``) by label."""
    return {event[0]: event for event in _single_events(net)}


def _fire_units(net, units, marking, a, vec):
    """Fire a binding multiset one unit at a time, declaration order.

    Image events of transported runs collapse a sequential run into one
    multiset; enabledness of the image is judged unit by unit, matching the
    sequential firing on the source side.  ``units`` is ``_unit_events(net)``.
    Returns the final marking or None when some unit is disabled.
    """
    current = tuple(marking)
    for mult, b in zip(vec, net.bindings[a]):
        unit = [units[a, b]]
        for _ in range(mult):
            current = next((after for _, after in _successors(current, unit)), None)
            if current is None:
                return None
    return current


@dataclass(frozen=True)
class MappingReport:
    status: str  # "ok" | "failed"
    detail: str
    image_events: tuple
    source_post: tuple
    target_post: tuple

    @property
    def ok(self):
        return self.status == "ok"


def check_behaviour_mapping(morphism, marking, events):
    """Fire a saturated sequence on both sides and compare the outcomes.

    The node image of the morphism must be open in the target, so that the
    transported marking only touches places the morphism controls.  The
    image sequence must be activated and its post-marking must equal the
    transported source post-marking.
    """
    morphism.require_verified()
    image_nodes = morphism.space_map.image()
    if not morphism.target.space.is_open(image_nodes):
        raise BehaviourError("the image of the morphism is not open in the target")
    src = morphism.source
    start = marking_vector(src, marking)
    post, _ = fire_sequence(src, start, events)
    image_events = map_sequence(morphism, events)
    target = morphism.target
    units = _unit_events(target)
    current = tuple(morphism.map_marking(list(start)))
    for a, vec in image_events:
        stepped = _fire_units(target, units, current, a, vec)
        if stepped is None:
            return MappingReport(
                "failed",
                f"image event over {a!r} is not enabled",
                tuple(image_events),
                post,
                current,
            )
        current = stepped
    expected = tuple(morphism.map_marking(list(post)))
    if current != expected:
        return MappingReport(
            "failed",
            f"post-markings differ: fired {la._format_vector(current)}, "
            f"transported {la._format_vector(expected)}",
            tuple(image_events),
            post,
            current,
        )
    return MappingReport("ok", "", tuple(image_events), post, current)


def verify_petri_morphism(morphism, marking_x, marking_y, witness=None):
    """Morphism of marked nets: the transported marking must match.

    Optionally checks a witness sequence activated at the source marking
    maps to an activated image sequence.  Returns (ok, detail).
    """
    report = morphism.verify()
    if report.status == "failed":
        bad = report.first_failure
        return False, f"morphism fails at clause {bad.clause!r}: {bad.detail}"
    mx = marking_vector(morphism.source, marking_x)
    my = marking_vector(morphism.target, marking_y)
    got = tuple(morphism.map_marking(list(mx)))
    if got != my:
        return False, (
            f"marking transports to {la._format_vector(got)}, "
            f"expected {la._format_vector(my)}"
        )
    if witness is not None:
        mapped = check_behaviour_mapping(morphism, mx, witness)
        if not mapped.ok:
            return False, f"witness sequence fails: {mapped.detail}"
    return True, ""


# ---------------------------------------------------------------------------
# modification invariance


@dataclass(frozen=True)
class InvarianceReport:
    status: str  # "ok" | "failed" | "inconclusive"
    detail: str
    source_count: int
    target_count: int

    @property
    def ok(self):
        return self.status == "ok"


def check_modification_invariance(morphism, marking, depth=6, max_states=5_000):
    """Reachability must biject along a modification, edge by edge.

    Both reachability sets are cut at the same depth; hitting a bound makes
    the verdict inconclusive.  Every source step must commute with the
    transport: the image event is enabled at the transported marking and
    reaches the transported successor.
    """
    morphism.require_verified()
    cls = morphism.classify()
    if not cls.modification:
        return InvarianceReport("failed", "morphism is not a modification", 0, 0)
    src, tgt = morphism.source, morphism.target
    start = marking_vector(src, marking)
    reach_x = reachable(src, start, depth=depth, max_states=max_states, record_edges=True)
    target_start = tuple(morphism.map_marking(list(start)))
    reach_y = reachable(tgt, target_start, depth=depth, max_states=max_states)
    if reach_x.truncated or reach_y.truncated:
        return InvarianceReport(
            "inconclusive",
            "reachability was truncated by the bounds",
            len(reach_x),
            len(reach_y),
        )

    image_of = {}
    for m in reach_x.markings:
        image_of[m] = tuple(morphism.map_marking(list(m)))
    images = set(image_of.values())
    if len(images) != len(reach_x.markings):
        return InvarianceReport(
            "failed", "transport is not injective on the reachable markings",
            len(reach_x), len(reach_y),
        )
    if images != reach_y.markings:
        missing = reach_y.markings - images
        extra = images - reach_y.markings
        return InvarianceReport(
            "failed",
            f"reachable sets do not correspond ({len(missing)} unmatched target, "
            f"{len(extra)} unmatched image markings)",
            len(reach_x),
            len(reach_y),
        )

    # a modification is discrete: every binding has an element image
    event_image = {}
    for t in src.space.transitions:
        for b in src.bindings[t]:
            image = morphism.element_image(t, b)
            if any(x < 0 or x != int(x) for x in image):
                return InvarianceReport(
                    "failed",
                    f"image of the single event {t}.{b} is not a binding multiset",
                    len(reach_x),
                    len(reach_y),
                )
            event_image[(t, b)] = (morphism.space_map(t), tuple(int(x) for x in image))
    units = _unit_events(tgt)
    for m, (t, b), m2 in reach_x.edges:
        a, vec = event_image[(t, b)]
        stepped = _fire_units(tgt, units, image_of[m], a, vec)
        if stepped is None:
            return InvarianceReport(
                "failed",
                f"image event of {t}.{b} is not enabled at a transported marking",
                len(reach_x),
                len(reach_y),
            )
        if stepped != image_of[m2]:
            return InvarianceReport(
                "failed",
                f"transport does not commute with firing {t}.{b}",
                len(reach_x),
                len(reach_y),
            )
    return InvarianceReport("ok", "", len(reach_x), len(reach_y))

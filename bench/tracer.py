"""In-memory spans and per-function aggregates for a traced run.

``Tracer.install`` wraps the public functions and public methods of every
``petrisheaf`` module, and rebinds each name that other modules imported
with ``from .x import y``; ``uninstall`` puts the originals back.  A span
is kept for every call that crosses from one module into another (up to
``SPAN_CAP`` spans per run); every call, crossing or not, adds to its
function's call count, inclusive time and self time.
"""

import inspect
import time

MODULES = ("topology", "intlinalg", "net", "morphism", "behaviour", "product", "formats", "cli")
SPAN_CAP = 100_000

# functions whose inclusive times are summed as one metric; time spent in a
# member called from another member of the same group is counted once
GROUPS = {
    "net.axis": ("net.ColouredNet.token_axis", "net.ColouredNet.binding_axis"),
    "net.gluing": (
        "net.verify_token_sheaf",
        "net.verify_binding_cosheaf",
        "net.verify_flow_gluing",
    ),
    "morphism.transport": (
        "morphism.NetMorphism.marking_transport",
        "morphism.NetMorphism.map_marking",
    ),
    "formats.parse": ("formats.parse_net", "formats.parse_morphism", "formats.parse_winskel"),
    "formats.serialize": (
        "formats.serialize_net",
        "formats.serialize_morphism",
        "formats.serialize_winskel",
    ),
}


class Stat:
    __slots__ = ("calls", "incl", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats = {}
        self.group_of = {n: g for g, names in GROUPS.items() for n in names}
        self.spans = []  # (name, start, end, parent span index or -1)
        self.dropped = 0
        self.stack = []  # [name, module, start, child time, span index]
        self.counters = {
            "hnf_cells": 0,
            "hnf_u_bits_max": 0,
            "states": 0,
            "new_markings": 0,
            "fire_in_reach": 0,
            "rref_distinct": 0,
            "flows_distinct": 0,
        }
        self._keys = {"rref": set(), "flows": set()}
        self._patches = []
        self._targets = self._find_targets()

    # -- wrapping ------------------------------------------------------------

    def _find_targets(self):
        targets = []  # (owner, attribute, qualified name, module short name)
        for short in MODULES:
            module = getattr(self.package, short)
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if not name.startswith("_"):
                        targets.append((module, name, f"{short}.{name}", short))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, fn in vars(obj).items():
                        if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                            targets.append((obj, attr, f"{short}.{obj.__name__}.{attr}", short))
        return targets

    def install(self):
        wrappers = {}
        for owner, attr, qual, short in self._targets:
            original = vars(owner)[attr]
            wrapper = self._wrap(original, qual, short)
            wrappers[id(original)] = wrapper
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        # names bound by ``from .x import y`` in the other modules
        for short in MODULES:
            module = getattr(self.package, short)
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_op(self):
        for keys in self._keys.values():
            keys.clear()

    def _wrap(self, fn, qual, module):
        stat = self.stats.setdefault(qual, Stat())
        group = self.group_of.get(qual)
        group_stat = self.stats.setdefault(group, Stat()) if group else None
        hook = getattr(self, "_hook_" + qual.replace(".", "_"), None)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = -1
            if parent is None or parent[1] != module:
                if len(self.spans) < SPAN_CAP:
                    span = len(self.spans)
                    self.spans.append([qual, 0.0, 0.0, parent[4] if parent else -1])
                else:
                    self.dropped += 1
            frame = [qual, module, 0.0, 0.0, span if span >= 0 else (parent[4] if parent else -1)]
            stack.append(frame)
            stat.depth += 1
            if group_stat is not None:
                group_stat.depth += 1
            start = frame[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.self_time += elapsed - frame[3]
                stat.depth -= 1
                if stat.depth == 0:
                    stat.incl += elapsed
                if group_stat is not None:
                    group_stat.depth -= 1
                    group_stat.calls += 1
                    if group_stat.depth == 0:
                        group_stat.incl += elapsed
                if parent is not None:
                    parent[3] += elapsed
                if span >= 0:
                    self.spans[span][1] = start
                    self.spans[span][2] = end
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters measured at the call sites -----------------------------------

    def _hook_intlinalg_hnf(self, args, kwargs, result):
        m = args[0]
        cols = kwargs.get("cols", args[1] if len(args) > 1 else None)
        cols = cols if cols is not None else (len(m[0]) if m else 0)
        self.counters["hnf_cells"] += len(m) * cols
        u = result[1]
        bits = max((abs(x).bit_length() for row in u for x in row), default=0)
        self.counters["hnf_u_bits_max"] = max(self.counters["hnf_u_bits_max"], bits)

    def _hook_intlinalg_rref(self, args, kwargs, result):
        key = tuple(map(tuple, args[0]))
        if key not in self._keys["rref"]:
            self._keys["rref"].add(key)
            self.counters["rref_distinct"] += 1

    def _hook_net_ColouredNet_flows(self, args, kwargs, result):
        net = args[0]
        region = kwargs.get("region", args[1] if len(args) > 1 else None)
        ring = kwargs.get("ring", args[2] if len(args) > 2 else None)
        key = (id(net), None if region is None else frozenset(region), ring)
        if key not in self._keys["flows"]:
            self._keys["flows"].add(key)
            self.counters["flows_distinct"] += 1

    def _hook_behaviour_reachable(self, args, kwargs, result):
        self.counters["states"] += len(result.markings)
        self.counters["new_markings"] += len(result.markings) - 1

    def _hook_behaviour_fire(self, args, kwargs, result):
        if any(frame[0] == "behaviour.reachable" for frame in self.stack):
            self.counters["fire_in_reach"] += 1

    # -- results ----------------------------------------------------------------

    def stat(self, name):
        return self.stats.get(name) or Stat()

    def module_self(self, short):
        return sum(s.self_time for q, s in self.stats.items() if q.startswith(short + ".") and q not in GROUPS)

    def module_calls(self, short):
        return sum(s.calls for q, s in self.stats.items() if q.startswith(short + ".") and q not in GROUPS)

    def layer_metrics(self, rounds):
        """Per-layer figures per round of operations, as ``{name: (value, unit)}``.

        Times are in ms and counts per round; ratios and rates are over the
        whole traced run.
        """
        s, c = self.stat, self.counters
        flows_calls = s("net.ColouredNet.flows").calls
        rref_calls = s("intlinalg.rref").calls
        reach_time = s("behaviour.reachable").incl

        def ms(seconds):
            return seconds * 1000 / rounds, "ms"

        def count(n):
            return n / rounds, "count"

        def ratio(part, whole):
            return (part / whole if whole else 0.0), "ratio"

        return {
            "intlinalg.hnf_ms": ms(s("intlinalg.hnf").incl),
            "intlinalg.hnf_calls": count(s("intlinalg.hnf").calls),
            "intlinalg.hnf_cells": count(c["hnf_cells"]),
            "intlinalg.hnf_u_bits_max": (c["hnf_u_bits_max"], "bits"),
            "intlinalg.snf_ms": ms(s("intlinalg.snf").incl),
            "intlinalg.rref_ms": ms(s("intlinalg.rref").incl),
            "intlinalg.rref_calls": count(rref_calls),
            "intlinalg.rref_distinct_ratio": ratio(c["rref_distinct"], rref_calls),
            "intlinalg.hilbert_ms": ms(s("intlinalg.hilbert_basis").incl),
            "intlinalg.lattice_ms": ms(s("intlinalg.Lattice.__init__").incl),
            "topology.ms": ms(self.module_self("topology")),
            "topology.calls": count(self.module_calls("topology")),
            "net.axis_ms": ms(s("net.axis").incl),
            "net.axis_calls": count(s("net.axis").calls),
            "net.gluing_ms": ms(s("net.gluing").incl),
            "net.covers_ms": ms(s("net.basic_covers").incl),
            "net.flows_ms": ms(s("net.ColouredNet.flows").incl),
            "net.flows_calls": count(flows_calls),
            "net.flows_distinct_ratio": ratio(c["flows_distinct"], flows_calls),
            "net.classes_ms": ms(s("net.ColouredNet.marking_classes").incl),
            "behaviour.reach_ms": ms(reach_time),
            "behaviour.states": count(c["states"]),
            "behaviour.states_per_s": (c["states"] / reach_time if reach_time else 0.0, "1/s"),
            "behaviour.fire_calls": count(s("behaviour.fire").calls),
            "behaviour.fire_useful_ratio": ratio(c["new_markings"], c["fire_in_reach"]),
            "behaviour.enabled_ms": ms(s("behaviour.enabled_events").incl),
            "morphism.verify_ms": ms(s("morphism.NetMorphism.verify").incl),
            "morphism.verify_calls": count(s("morphism.NetMorphism.verify").calls),
            "morphism.classify_ms": ms(s("morphism.NetMorphism.classify").incl),
            "morphism.transport_ms": ms(s("morphism.transport").incl),
            "morphism.compose_ms": ms(s("morphism.NetMorphism.then").incl),
            "product.kronecker_ms": ms(s("product.kronecker").incl),
            "product.trace_ms": ms(s("product.trace_markings").incl),
            "product.correspondence_self_ms": ms(
                s("product.check_reachability_correspondence").self_time
            ),
            "formats.parse_ms": ms(s("formats.parse").incl),
            "formats.parse_calls": count(s("formats.parse").calls),
            "formats.serialize_ms": ms(s("formats.serialize").incl),
            "cli.self_ms": ms(self.module_self("cli")),
        }

    def dump(self):
        return {
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "functions": {
                q: {"calls": st.calls, "inclusive_s": st.incl, "self_s": st.self_time}
                for q, st in sorted(self.stats.items())
                if st.calls
            },
        }

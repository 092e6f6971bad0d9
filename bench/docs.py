"""Seeded document generators for the benchmark.

Each generator returns a ``Net`` model: the declaration data of a ``.pnet``
document plus its pre/post weights.  The model writes the document text and
is what the oracles in ``oracles.py`` compute on, so no oracle reads a
document through the program's own parser.
"""


class Net:
    """Places, transitions, arc weights and a marking of one document."""

    def __init__(self, name, places, transitions, pre, post, marking=None):
        self.name = name
        self.places = list(places)  # [(place, (token, ...))]
        self.transitions = list(transitions)  # [(transition, (binding, ...))]
        self.pre = {key: w for key, w in pre.items() if w}  # (t, b, p, c) -> w
        self.post = {key: w for key, w in post.items() if w}
        self.marking = {key: n for key, n in (marking or {}).items() if n}

    def token_axis(self):
        return [(p, c) for p, tokens in self.places for c in tokens]

    def binding_axis(self):
        return [(t, b) for t, bindings in self.transitions for b in bindings]

    def adjacency(self):
        return {(p, t) for (t, _b, p, _c) in (*self.pre, *self.post)}

    def text(self):
        lines = [f"net {self.name}"]
        lines += [f"place {p} tokens {' '.join(tokens)}" for p, tokens in self.places]
        lines += [
            f"transition {t} bindings {' '.join(bindings)}"
            for t, bindings in self.transitions
        ]
        for sign, weights in (("-", self.pre), ("+", self.post)):
            for (t, b, p, c), w in sorted(weights.items()):
                lines.append(f"arc {sign} {t}.{b} {p}.{c} {w}")
        for (p, c), n in sorted(self.marking.items()):
            lines.append(f"marking {p}.{c} {n}")
        return "\n".join(lines) + "\n"


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def ring(name, n, counts):
    """A cycle of ``n`` places; colour ``j`` starts with ``counts[j]`` tokens on p0.

    Transition ``t_i`` has one binding per colour and moves one token of
    that colour from ``p_i`` to ``p_{i+1}``, so the colours travel
    independently.
    """
    colours = _names("c", len(counts)) if len(counts) > 1 else ["job"]
    bindings = _names("b", len(counts)) if len(counts) > 1 else ["go"]
    places = [(p, tuple(colours)) for p in _names("p", n)]
    transitions = [(t, tuple(bindings)) for t in _names("t", n)]
    pre, post = {}, {}
    for i in range(n):
        for b, c in zip(bindings, colours):
            pre[(f"t{i}", b, f"p{i}", c)] = 1
            post[(f"t{i}", b, f"p{(i + 1) % n}", c)] = 1
    marking = {("p0", c): k for c, k in zip(colours, counts)}
    return Net(name, places, transitions, pre, post, marking)


def scatter(net, rng):
    """Deal the tokens of each colour of the marking over random places."""
    totals = {}
    for (_p, c), k in net.marking.items():
        totals[c] = totals.get(c, 0) + k
    places = [p for p, _ in net.places]
    net.marking = {}
    for c, k in sorted(totals.items()):
        for _ in range(k):
            key = (rng.choice(places), c)
            net.marking[key] = net.marking.get(key, 0) + 1
    return net


def state_machine(name, n, k, chords, rng):
    """A conservative state machine: a shuffled cycle through all ``n`` places
    plus ``chords`` extra place-to-place transitions, ``k`` tokens dealt at
    random.  The cycle makes it strongly connected, so every one of the
    C(n+k-1, k) markings with ``k`` tokens is reachable."""
    order = _names("p", n)
    rng.shuffle(order)
    moves = [(order[i], order[(i + 1) % n]) for i in range(n)]
    while len(moves) < n + chords:
        a, b = rng.sample(order, 2)
        if (a, b) not in moves:
            moves.append((a, b))
    pre, post = {}, {}
    transitions = []
    for i, (a, b) in enumerate(moves):
        t = f"m{i}"
        transitions.append((t, ("go",)))
        pre[(t, "go", a, "job")] = 1
        post[(t, "go", b, "job")] = 1
    places = [(p, ("job",)) for p in _names("p", n)]
    return scatter(Net(name, places, transitions, pre, post, {("p0", "job"): k}), rng)


def small_strict(name, rng, coloured, n_places, n_transitions):
    """A small net; coloured nets have 2 tokens per place and 2 bindings per
    transition.  Half the place/transition pairs (rounded up), drawn at
    random, are adjacent, and every adjacent pair gets at least one arc.
    The number of adjacent pairs is fixed because the cost of the gluing
    checks grows with it about exponentially."""
    tokens = ("a", "b") if coloured else ("c",)
    bindings = ("x", "y") if coloured else ("g",)
    places = [(p, tokens) for p in _names("q", n_places)]
    transitions = [(t, bindings) for t in _names("s", n_transitions)]
    pairs = [(t, p) for t, _ in transitions for p, _ in places]
    adjacent = set(rng.sample(pairs, (len(pairs) + 1) // 2))
    pre, post = {}, {}
    for t, _ in transitions:
        for p, _ in places:
            if (t, p) not in adjacent:
                continue
            cells = [(b, c) for b in bindings for c in tokens]
            for i, (b, c) in enumerate(cells):
                # the last cell is forced when the earlier ones drew nothing
                forced = i == len(cells) - 1 and not any(
                    (t, bb, p, cc) in pre or (t, bb, p, cc) in post for bb, cc in cells
                )
                kind = rng.randint(1, 3) if forced else rng.randint(0, 3)
                if kind in (1, 3):
                    pre[(t, b, p, c)] = rng.randint(1, 3)
                if kind in (2, 3):
                    post[(t, b, p, c)] = rng.randint(1, 3)
    marking = {(p, c): rng.randint(0, 2) for p, tokens_ in places for c in tokens_}
    return Net(name, places, transitions, pre, post, marking)


def dense(name, rows, cols, rng, weight=3):
    """A place/transition net whose incidence matrix is uniform in
    [-weight, weight], ``rows`` places by ``cols`` transitions."""
    places = [(p, ("c",)) for p in _names("p", rows)]
    transitions = [(t, ("g",)) for t in _names("t", cols)]
    pre, post = {}, {}
    for t, _ in transitions:
        for p, _ in places:
            v = rng.randint(-weight, weight)
            if v < 0:
                pre[(t, "g", p, "c")] = -v
            elif v > 0:
                post[(t, "g", p, "c")] = v
    return Net(name, places, transitions, pre, post)


def program_random_net(rng):
    """The arcs of the net ``axioms --random`` draws from the same ``rng``.

    The draws follow the documented generator of the random sweep
    (place and transition counts, then one kind per transition/place pair
    with 1-3 weights), so a benchmark seed predicts the swept nets.
    """
    n_places = rng.randint(1, 4)
    n_transitions = rng.randint(1, 4)
    places = [(p, ("tok",)) for p in _names("q", n_places)]
    transitions = [(t, ("fire",)) for t in _names("s", n_transitions)]
    pre, post = {}, {}
    for t, _ in transitions:
        for p, _ in places:
            kind = rng.randint(0, 3)
            if kind in (1, 3):
                pre[(t, "fire", p, "tok")] = rng.randint(1, 3)
            if kind in (2, 3):
                post[(t, "fire", p, "tok")] = rng.randint(1, 3)
    return Net("rand", places, transitions, pre, post)


def loop():
    """One place ``cell`` and one transition ``tick`` that takes and returns a token."""
    return Net(
        "loop",
        [("cell", ("job",))],
        [("tick", ("go",))],
        {("tick", "go", "cell", "job"): 1},
        {("tick", "go", "cell", "job"): 1},
    )


def identity_doc(net, net_file):
    """The identity morphism of ``net`` in ``.pmor`` form."""
    lines = ["morphism id", f"source {net_file}", f"target {net_file}"]
    lines += [f"node {x} -> {x}" for x, _ in net.places + net.transitions]
    for t, bindings in net.transitions:
        for i, b in enumerate(bindings, start=1):
            lines.append(f"flowbasis {t}: v{i} = 1*{t}.{b}")
            lines.append(f"flowmap {t}: v{i} -> 1*{b}")
    for p, tokens in net.places:
        lines += [f"markmap {p}: {p}.{c} -> 1*{c}" for c in tokens]
    return "\n".join(lines) + "\n"


def squash_doc(n, ring_file, loop_file):
    """The fold of a one-colour ring of ``n`` places onto ``loop()``."""
    lines = ["morphism squash", f"source {ring_file}", f"target {loop_file}"]
    lines += [f"node p{i} -> cell" for i in range(n)]
    lines += [f"node t{i} -> tick" for i in range(n)]
    for i in range(n):
        lines.append(f"flowbasis tick: v{i + 1} = 1*t{i}.go")
        lines.append(f"flowmap tick: v{i + 1} -> 1*go")
    lines += [f"markmap cell: p{i}.job -> 1*job" for i in range(n)]
    return "\n".join(lines) + "\n"


def winskel_pair(m, w):
    """Source: one place ``x`` looped by ``t`` with weight ``w``.  Target: ``m``
    places all looped by one transition ``s`` with weight ``w``."""
    src = Net(
        "wsrc",
        [("x", ("x",))],
        [("t", ("t",))],
        {("t", "t", "x", "x"): w},
        {("t", "t", "x", "x"): w},
    )
    ys = _names("y", m)
    tgt = Net(
        "wtgt",
        [(y, ("y",)) for y in ys],
        [("s", ("s",))],
        {("s", "s", y, "y"): w for y in ys},
        {("s", "s", y, "y"): w for y in ys},
    )
    return src, tgt


def winskel_doc(m, src_file, tgt_file):
    lines = ["winskel wk", f"source {src_file}", f"target {tgt_file}"]
    lines.append("beta x -> " + " + ".join(f"1*y{i}" for i in range(m)))
    lines.append("eta t -> s")
    return "\n".join(lines) + "\n"

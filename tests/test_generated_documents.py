"""Every subcommand on seeded random documents, in text and in JSON.

``documents(rng)`` writes, from one seed, two strict nets (1-3 places and
transitions, 1-2 colours and bindings per node, ring q one time in five,
random markings), two ``.pmor`` morphisms between them (node maps that keep
sorts or mix them, unit flow bases, coefficients from {0, 1, 2, 3, -1,
1/2}) and one ``.pwin`` multirelation between two more nets of one colour
and binding per node, as multirelations need.  Most morphisms fail a
clause or are refused; the property is about how every run ends, not about
its verdict.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from petrisheaf.cli import main

COEFFICIENTS = (0, 1, 2, 3, -1, Fraction(1, 2))


def net_text(rng, name, colours=2):
    """A random strict net with a random marking, and its events."""
    places = [f"p{i}" for i in range(rng.randint(1, 3))]
    transitions = [f"t{i}" for i in range(rng.randint(1, 3))]
    tokens = {p: ("c0", "c1")[: rng.randint(1, colours)] for p in places}
    bindings = {t: ("b0", "b1")[: rng.randint(1, colours)] for t in transitions}
    lines = [f"net {name}"]
    if rng.random() < 0.2:
        lines.append("ring q")
    nodes = [("place", p, tokens[p]) for p in places]
    nodes += [("transition", t, bindings[t]) for t in transitions]
    rng.shuffle(nodes)
    for head, x, elements in nodes:
        kind = "tokens" if head == "place" else "bindings"
        lines.append(f"{head} {x} {kind} {' '.join(elements)}")
    for t in transitions:
        for p in places:
            if rng.random() < 0.5:
                continue
            arcs = {}
            for b in bindings[t]:
                for c in tokens[p]:
                    for sign in "-+":
                        w = rng.choice((0, 0, 1, 2))
                        if w:
                            arcs[sign, b, c] = w
            if not arcs:
                arcs["-", rng.choice(bindings[t]), rng.choice(tokens[p])] = 1
            lines += [f"arc {sign} {t}.{b} {p}.{c} {w}" for (sign, b, c), w in arcs.items()]
    for p in places:
        for c in tokens[p]:
            n = rng.choice((0, 0, 1, 2))
            if n:
                lines.append(f"marking {p}.{c} {n}")
    events = transitions + [f"{t}.{b}" for t in transitions for b in bindings[t]]
    return "\n".join(lines) + "\n", (places, transitions, tokens, bindings, events)


def combination(rng, names):
    terms = [f"{rng.choice(COEFFICIENTS)}*{x}" for x in names if rng.random() < 0.7]
    return " + ".join(terms) if terms else "0"


def morphism_text(rng, name, source, target, source_file, target_file):
    """A ``.pmor`` from ``source`` to ``target`` over unit flow bases."""
    places, transitions, tokens, bindings, _ = source
    t_places, t_transitions, t_tokens, t_bindings, _ = target
    keep_sorts = rng.random() < 0.5
    node_map = {}
    for x in places + transitions:
        if keep_sorts:
            node_map[x] = rng.choice(t_places if x in tokens else t_transitions)
        else:
            node_map[x] = rng.choice(t_places + t_transitions)
    lines = [f"morphism {name}", f"source {source_file}", f"target {target_file}"]
    lines += [f"node {x} -> {y}" for x, y in node_map.items()]
    for k, (t, b) in enumerate((t, b) for t in transitions for b in bindings[t]):
        a = node_map[t]
        if a in t_bindings:
            lines.append(f"flowbasis {a}: v{k} = 1*{t}.{b}")
            lines.append(f"flowmap {a}: v{k} -> {combination(rng, t_bindings[a])}")
    for p in places:
        u = node_map[p]
        if u in t_tokens:
            for c in tokens[p]:
                lines.append(f"markmap {u}: {p}.{c} -> {combination(rng, t_tokens[u])}")
    return "\n".join(lines) + "\n"


def winskel_text(rng, source, target, source_file, target_file):
    places, transitions, *_ = source
    t_places, t_transitions, *_ = target
    lines = ["winskel w", f"source {source_file}", f"target {target_file}"]
    for p in places:
        if rng.random() < 0.8:
            chosen = rng.sample(t_places, rng.randint(1, len(t_places)))
            terms = (f"{rng.choice((1, 1, 1, 2, 2, 0))}*{q}" for q in chosen)
            lines.append(f"beta {p} -> " + " + ".join(terms))
    lines += [f"eta {t} -> {rng.choice(t_transitions)}" for t in transitions]
    return "\n".join(lines) + "\n"


def documents(rng, folder):
    """Write one seed's documents into ``folder``; return the command lines."""
    first_text, first = net_text(rng, "first")
    second_text, second = net_text(rng, "second")
    (folder / "n1.pnet").write_text(first_text)
    (folder / "n2.pnet").write_text(second_text)
    (folder / "f.pmor").write_text(morphism_text(rng, "f", first, second, "n1.pnet", "n2.pnet"))
    (folder / "g.pmor").write_text(morphism_text(rng, "g", second, first, "n2.pnet", "n1.pnet"))
    third_text, third = net_text(rng, "third", colours=1)
    fourth_text, fourth = net_text(rng, "fourth", colours=1)
    (folder / "n3.pnet").write_text(third_text)
    (folder / "n4.pnet").write_text(fourth_text)
    (folder / "w.pwin").write_text(winskel_text(rng, third, fourth, "n3.pnet", "n4.pnet"))
    n1, n2, f, g = (str(folder / name) for name in ("n1.pnet", "n2.pnet", "f.pmor", "g.pmor"))
    sequence = ",".join(rng.choices(first[4], k=rng.randint(1, 3)))
    return [
        ["show", n1],
        ["flows", n1],
        ["classes", n2],
        ["axioms", n1],
        ["check-morphism", f],
        ["compose", f, g],
        ["product", n1, n2],
        ["fibre-product", f, f],
        ["diagonal", n2],
        ["simulate", n1, "--sequence", sequence],
        ["reach", n1, "--depth", "3", "--max-states", "30"],
        ["map-behaviour", f, "--sequence", sequence],
        ["winskel", str(folder / "w.pwin")],
        ["check-product-reach", n1, n2, "--depth", "2", "--max-states", "30"],
    ]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_subcommand_ends_honestly_on_generated_documents(tmp_path):
    codes = {}
    for seed in range(200):
        for argv in documents(random.Random(seed), tmp_path):
            text = run(argv)
            data = run(argv + ["--json"])
            where = (seed, argv[0])
            assert text[0] in (0, 1, 2, 3), (where, text)
            assert data[0] == text[0], (where, text, data)
            for stream in text[1:] + data[1:]:
                assert "Fraction(" not in stream, (where, stream)
            if data[1]:
                assert data[1] == json.dumps(json.loads(data[1]), indent=2, sort_keys=True) + "\n"
            codes.setdefault(argv[0], set()).add(text[0])
    # every subcommand ran, and a verdict other than a refusal was reached
    assert len(codes) == 14
    assert all(found - {2} for found in codes.values()), codes

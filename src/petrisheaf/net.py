"""Coloured Petri nets over Petri spaces and their section modules.

A net fixes a binding set per transition and a token set (colours) per
place, plus consume/produce weights w-/w+ between bindings and tokens.
Tokens form a sheaf on the open sets (sections are token vectors, the
restriction maps are coordinate projections); bindings form a cosheaf on
the closed sets (extension by zero).  On a closed region the kernel of the
incidence matrix gives the flows; on an open region its cokernel gives the
marking classes.

Strict nets require the weight support to match the adjacency relation
exactly; relaxed nets (products are the main source) may carry weights on
non-adjacent pairs, at the price of some restriction maps failing, see
``restrict_flow``.

The weights are validated once and stored once, per binding: each
``(t, b)`` keeps its sparse (pre, post) effect, two tuples of (token-axis
position, weight) pairs in token-axis order, holding only nonzero weights.
Only this module reads that table.  Firing takes it as it is (``effect``);
constructions and serialisers list the nonzero arcs in axis order
(``arcs``); ``w_minus``/``w_plus``/``w``, ``binding_effect`` and
``incidence_matrix`` read blocks of the incidence through ``_block``.

``_positions`` is the one index reader: it gives the positions of a
subregion's labels in a region's token or binding axis.  The four section
maps (``restrict_token_section``, ``extend_binding_section``,
``extend_class`` and ``restrict_flow``) read and write through it.  The
token sheaf and the binding cosheaf with these maps are decided by the
cover alone (the lemma is in ``verify_token_sheaf`` and
``verify_binding_cosheaf``).  Flow gluing, which can fail on relaxed nets,
is decided on the same index maps by one comparison of rational row spaces
(the lemma is in ``verify_flow_gluing``).

A net is not changed after construction, so it memoises its token and
binding axes per region, its flow modules per region and ring, and the
index maps of ``_positions`` per axis and (region, subregion).  A call
that raises stores nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import intlinalg as la
from .topology import PetriSpace, Sort


class NetError(ValueError):
    """Malformed net data or an ill-typed region operation."""


# signs of the (w-, w+) sides in each kind of weight
_KIND_SIGNS = {"minus": (1, 0), "plus": (0, 1), "difference": (-1, 1)}


@dataclass(frozen=True)
class LabeledMatrix:
    """Integer matrix with (place, token) rows and (transition, binding) columns."""

    entries: tuple
    row_labels: tuple
    col_labels: tuple

    def as_lists(self):
        return [list(row) for row in self.entries]


class ColouredNet:
    """A coloured net: Petri space + bindings + tokens + arc weights."""

    __slots__ = (
        "name", "space", "bindings", "tokens", "strict", "ring", "_position", "_effect", "_memo"
    )

    def __init__(
        self,
        space,
        bindings,
        tokens,
        w_minus,
        w_plus,
        strict=True,
        ring="Z",
        name="net",
    ):
        if ring not in la.RINGS:
            raise NetError(f"ring must be 'Z' or 'Q', got {ring!r}")
        places, transitions = space.places, space.transitions
        if not places or not transitions:
            raise NetError("a coloured net needs at least one place and one transition")
        self.space = space
        self.name = name
        self.strict = bool(strict)
        self.ring = ring
        # axes keyed by (kind, region), flow modules by ("flows", region, ring),
        # index maps by ("positions", kind, region, subregion); a region is a
        # frozenset, or None for the whole net
        self._memo = {}

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

        self.bindings = check_axes(bindings, transitions, "bindings")
        self.tokens = check_axes(tokens, places, "tokens")

        position = {lab: i for i, lab in enumerate(self.token_axis())}
        effect = {tb: ([], []) for tb in self.binding_axis()}
        support = set()
        effect_of, position_of, support_add = effect.get, position.get, support.add
        for side, (given, which) in enumerate(((w_minus, "consume"), (w_plus, "produce"))):
            for (t, b, p, c), value in dict(given).items():
                sides = effect_of((t, b))
                if sides is None:
                    raise NetError(f"{which} weight on unknown binding {t}.{b}")
                i = position_of((p, c))
                if i is None:
                    raise NetError(f"{which} weight on unknown token {p}.{c}")
                if value < 0 or value != int(value):
                    raise NetError(f"{which} weight must be a natural number")
                if value:
                    sides[side].append((i, int(value)))
                    support_add((p, t))
        self._position = position
        self._effect = {
            tb: (tuple(sorted(pre)), tuple(sorted(post))) for tb, (pre, post) in effect.items()
        }

        if self.strict and support != space.adjacency:
            off = support ^ space.adjacency
            raise NetError(
                f"strict net: weight support must equal adjacency, mismatch on {sorted(off)}"
            )

    # -- weights --------------------------------------------------------

    def effect(self, t, b):
        """The sparse (pre, post) effect of one binding: each side a tuple of
        (token-axis position, weight) pairs in token-axis order."""
        return self._effect[t, b]

    def _block(self, kind, rows, cols):
        """The ``kind`` weights ("minus": w-, "plus": w+, "difference":
        w+ - w-) on (place, token) ``rows`` by (transition, binding) ``cols``,
        as a list of rows."""
        signs = _KIND_SIGNS[kind]
        index = {self._position.get(lab): r for r, lab in enumerate(rows)}
        block = [[0] * len(cols) for _ in rows]
        for j, tb in enumerate(cols):
            for sign, side in zip(signs, self._effect.get(tb, ((), ()))):
                if sign:
                    for i, w in side:
                        r = index.get(i)
                        if r is not None:
                            block[r][j] += sign * w
        return block

    def w_minus(self, t, b, p, c):
        return self._block("minus", [(p, c)], [(t, b)])[0][0]

    def w_plus(self, t, b, p, c):
        return self._block("plus", [(p, c)], [(t, b)])[0][0]

    def w(self, t, b, p, c):
        return self._block("difference", [(p, c)], [(t, b)])[0][0]

    def arcs(self, kind):
        """The nonzero ``((t, b, p, c), weight)`` of one side ("minus" or
        "plus"), in binding-axis order, then token-axis order."""
        axis = self.token_axis()
        for t, b in self.binding_axis():
            for sign, side in zip(_KIND_SIGNS[kind], self._effect[t, b]):
                if sign:
                    for i, w in side:
                        yield (t, b, *axis[i]), sign * w

    # -- axes -----------------------------------------------------------

    def token_axis(self, region=None):
        return self._axis("tokens", region)

    def binding_axis(self, region=None):
        return self._axis("bindings", region)

    def _axis(self, kind, region):
        """The (node, element) labels of ``kind`` ("tokens" or "bindings") on
        the nodes of ``region`` (the whole net for None), in node order."""
        key = (kind, None if region is None else frozenset(region))
        axis = self._memo.get(key)
        if axis is None:
            names = self.tokens if kind == "tokens" else self.bindings
            nodes = self.space.nodes if region is None else self.space.ordered(region)
            axis = self._memo[key] = tuple((x, e) for x in nodes if x in names for e in names[x])
        return axis

    def binding_effect(self, t, b, region=None, kind="difference"):
        """Column of the incidence over the token axis of ``region``."""
        return [row[0] for row in self._block(kind, self.token_axis(region), [(t, b)])]

    def incidence_matrix(self, row_region=None, col_region=None, kind="difference"):
        """Tokens-by-bindings matrix; weights default to 0 off support."""
        if col_region is None:
            col_region = row_region
        rows = self.token_axis(row_region)
        cols = self.binding_axis(col_region)
        entries = tuple(map(tuple, self._block(kind, rows, cols)))
        return LabeledMatrix(entries, rows, cols)

    # -- section modules --------------------------------------------------

    def flows(self, region=None, ring=None):
        """Flows on a closed region: kernel of its incidence matrix.

        The matrix runs over *all* place/transition pairs inside the region,
        so a flow balances every token of the region, adjacent or not; on a
        strict net this agrees with summing over adjacent pairs only.
        """
        ring = ring or self.ring
        key = ("flows", None if region is None else frozenset(region), ring)
        flows = self._memo.get(key)
        if flows is None:
            region = tuple(self.space.nodes) if region is None else self.space.ordered(region)
            if not self.space.is_closed(region):
                raise NetError(f"flows need a closed region, {list(region)} is not closed")
            mat = self.incidence_matrix(region)
            module = la.RINGS[ring].kernel(mat.as_lists(), len(mat.col_labels))
            flows = self._memo[key] = FlowModule(self, region, mat, ring, module)
        return flows

    def marking_classes(self, region=None, ring=None):
        """Marking classes on an open region: cokernel of its incidence."""
        ring = ring or self.ring
        region = tuple(self.space.nodes) if region is None else self.space.ordered(region)
        if not self.space.is_open(region):
            raise NetError(f"marking classes need an open region, {list(region)} is not open")
        mat = self.incidence_matrix(region)
        relations = la.RINGS[ring].module(
            len(mat.row_labels), la.transpose(mat.entries, len(mat.col_labels))
        )
        return ClassModule(self, region, mat, ring, relations)

    # -- restriction / extension -----------------------------------------

    def _section_map(self, noun, vector, big_region, small_region, extending):
        """``vector`` read from ``big_region`` down to ``small_region`` or,
        when ``extending``, written by zero from ``small_region`` up to
        ``big_region``, on the token axis for a "token" vector and on the
        binding axis for a "flow" or "binding" one."""
        big, small = self.space.ordered(big_region), self.space.ordered(small_region)
        if not set(small) <= set(big):
            role = "extension source" if extending else "restriction target"
            raise NetError(f"{role} is not a subregion")
        axis = "tokens" if noun == "token" else "bindings"
        if len(vector) != len(self._axis(axis, small if extending else big)):
            raise NetError(f"{noun} vector has the wrong length")
        at = _positions(self, axis, big, small)
        if extending:
            values = dict(zip(at, vector))
            return [values.get(k, 0) for k in range(len(self._axis(axis, big)))]
        return [vector[k] for k in at]

    def restrict_flow(self, vector, big_region, small_region):
        """Project a flow on ``big_region`` down to a closed subregion.

        On strict nets the result is always a flow of the smaller region.
        On relaxed nets transitions outside the subregion can still move
        tokens inside it, so the projection may fail the smaller region's
        balance conditions; that raises rather than returning a non-flow.
        """
        out = self._section_map("flow", vector, big_region, small_region, False)
        if not self.flows(small_region).contains(out):
            relaxed = "" if self.strict else " (relaxed net: restriction undefined here)"
            raise NetError("projection is not a flow of the subregion" + relaxed)
        return out

    def extend_binding_section(self, vector, small_region, big_region):
        """Extension by zero along closed regions (the binding cosheaf)."""
        return self._section_map("binding", vector, big_region, small_region, True)

    def restrict_token_section(self, vector, big_region, small_region):
        """Coordinate projection along open regions (the token sheaf)."""
        return self._section_map("token", vector, big_region, small_region, False)

    def extend_class(self, vector, small_region, big_region):
        """Zero-extension of token vectors, inducing classes forward."""
        return self._section_map("token", vector, big_region, small_region, True)

    # -- subnets ----------------------------------------------------------

    def subnet(self, region, name=None):
        """The induced net on a subset of nodes (weights outside dropped)."""
        region = self.space.ordered(region)
        keep = set(region)
        if not (keep & set(self.space.places) and keep & set(self.space.transitions)):
            raise NetError("subnet needs at least one place and one transition")
        sub_space = self.space.subspace(region)
        wm, wp = (
            {k: v for k, v in self.arcs(kind) if k[0] in keep and k[2] in keep}
            for kind in ("minus", "plus")
        )
        return ColouredNet(
            sub_space,
            {t: self.bindings[t] for t in sub_space.transitions},
            {p: self.tokens[p] for p in sub_space.places},
            wm,
            wp,
            strict=self.strict,
            ring=self.ring,
            name=name or f"{self.name}-sub",
        )

    def __repr__(self):
        return (
            f"ColouredNet({self.name!r}, {len(self.space.places)} places, "
            f"{len(self.space.transitions)} transitions, "
            f"{'strict' if self.strict else 'relaxed'})"
        )


def same_net(a, b):
    """Are ``a`` and ``b`` one net as data: the same nodes in the same order,
    adjacency, bindings, tokens (so the same sorts) and arc weights?  The
    name, the ring and strict/relaxed mode are not compared."""
    return a is b or (
        a.space.nodes == b.space.nodes
        and a.space.adjacency == b.space.adjacency
        and a.bindings == b.bindings
        and a.tokens == b.tokens
        and a._effect == b._effect
    )


class FlowModule:
    """The flows of a closed region, with their canonical basis."""

    __slots__ = ("net", "region", "matrix", "ring", "module")

    def __init__(self, net, region, matrix, ring, module):
        self.net = net
        self.region = region
        self.matrix = matrix
        self.ring = ring
        self.module = module

    @property
    def axis(self):
        return self.matrix.col_labels

    @property
    def rank(self):
        return self.module.rank

    @property
    def basis(self):
        return self.module.basis

    def contains(self, vector):
        if len(vector) != len(self.axis):
            raise NetError("flow vector has the wrong length")
        return list(vector) in self.module

    def same_module(self, vectors):
        """Do the given vectors span exactly this module?"""
        return la.RINGS[self.ring].module(len(self.axis), vectors) == self.module

    def __repr__(self):
        return f"FlowModule(region={list(self.region)!r}, rank={self.rank})"


class ClassModule:
    """Marking classes of an open region: token vectors modulo
    ``relations``, the module spanned by the incidence columns."""

    __slots__ = ("net", "region", "matrix", "ring", "relations", "invariant_factors")

    def __init__(self, net, region, matrix, ring, relations):
        self.net = net
        self.region = region
        self.matrix = matrix
        self.ring = ring
        self.relations = relations
        self.invariant_factors = la.invariant_factors(relations)

    @property
    def axis(self):
        return self.matrix.row_labels

    @property
    def rank(self):
        # free rank of the quotient
        return self.relations.ambient_dim - self.relations.rank

    @property
    def torsion(self):
        return tuple(d for d in self.invariant_factors if d != 1)

    def class_of(self, vector):
        if len(vector) != len(self.axis):
            raise NetError("token vector has the wrong length")
        return self.relations.reduce(list(vector))

    def class_equal(self, v, w):
        return self.class_of(v) == self.class_of(w)

    def __repr__(self):
        return f"ClassModule(region={list(self.region)!r}, rank={self.rank})"


# ---------------------------------------------------------------------------
# ordinary place/transition nets


def place_transition_net(
    name, places, transitions, consume, produce, strict=True, ring="Z"
):
    """Build a net where every node carries a single colour/binding.

    ``consume``/``produce`` map transition -> {place: weight}.  The single
    binding of ``t`` is named ``t`` and the single token of ``p`` is named
    ``p``, which keeps merged-place token axes readable.
    """
    adjacency = set()
    for t, row in list(consume.items()) + list(produce.items()):
        for p, wgt in row.items():
            if wgt:
                adjacency.add((p, t))
    space = PetriSpace(
        [(p, Sort.PLACE) for p in places] + [(t, Sort.TRANSITION) for t in transitions],
        adjacency,
    )
    wm, wp = (
        {(t, t, p, p): wgt for t, row in side.items() for p, wgt in row.items() if wgt}
        for side in (consume, produce)
    )
    return ColouredNet(
        space,
        {t: (t,) for t in space.transitions},
        {p: (p,) for p in space.places},
        wm,
        wp,
        strict=strict,
        ring=ring,
        name=name,
    )


# ---------------------------------------------------------------------------
# sheaf / cosheaf axioms


@dataclass
class AxiomReport:
    kind: str
    region: tuple
    cover: tuple
    ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _checked_cover(net, kind, region, covering, openness):
    """The ``kind`` report on a region and its covering (basic sets by
    default), both ordered: failed unless both are ``openness`` ("open" or
    "closed") and the covering covers exactly the region."""
    space = net.space
    if openness == "open":
        is_kind, basic = space.is_open, space.basic_open
    else:
        is_kind, basic = space.is_closed, space.basic_closed
    region = tuple(space.nodes) if region is None else space.ordered(region)
    if not is_kind(region):
        return AxiomReport(kind, region, (), False, [f"region is not {openness}"])
    if covering is None:
        covering = [basic(x) for x in region]
    covering = tuple(space.ordered(c) for c in covering)
    failures = []
    for c in covering:
        if not is_kind(c):
            failures.append(f"cover element {list(c)} is not {openness}")
        if not set(c) <= set(region):
            failures.append(f"cover element {list(c)} leaves the region")
    if set().union(*covering) != set(region):
        failures.append("cover does not exhaust the region")
    return AxiomReport(kind, region, covering, not failures, failures)


def _positions(net, axis, big, small):
    """The positions of the labels of ``small`` inside the ``axis``
    ("tokens" or "bindings") of its superset ``big``, memoised on the net."""
    key = ("positions", axis, frozenset(big), frozenset(small))
    positions = net._memo.get(key)
    if positions is None:
        index = {lab: k for k, lab in enumerate(net._axis(axis, big))}
        positions = net._memo[key] = tuple(index[lab] for lab in net._axis(axis, small))
    return positions


def verify_token_sheaf(net, region=None, covering=None):
    """Equaliser exactness of the token sheaf on an open covering.

    sections(U) -> prod sections(U_i) must be injective with image exactly
    the families that agree on pairwise intersections.  The cover decides
    it.  The sections over a region are functions on its token labels, and
    the labels of ``U_i & U_j`` are the common labels of ``U_i`` and
    ``U_j``.  A cover that ``_checked_cover`` accepts covers every label of
    ``U``.  So a section is determined by its restrictions, and a family
    that agrees on overlaps gives each label one value, which is a section
    of ``U``.  This holds over Z and Q, on strict and relaxed nets alike.
    """
    return _checked_cover(net, "token-sheaf", region, covering, "open")


def verify_binding_cosheaf(net, region=None, covering=None):
    """Coequaliser exactness of the binding cosheaf on a closed covering.

    prod sections(A_i) -> sections(A) must be surjective with kernel exactly
    the signed overlap images.  The cover decides it, dually to
    ``verify_token_sheaf``.  Every binding label of ``A`` lies in some
    ``A_i``, so the sum of the extensions by zero is surjective.  A family
    sums to zero exactly when, at each label, its values on the ``k``
    elements holding that label sum to zero; the pairwise differences
    ``e_i - e_j`` generate the sum-zero vectors of Z^k, and each is the
    image of that label in ``A_i & A_j``.
    """
    return _checked_cover(net, "binding-cosheaf", region, covering, "closed")


def verify_flow_gluing(net, region=None, covering=None):
    """Equaliser exactness for flows on a closed covering.

    Families of flows on the cover that agree on overlaps must come from a
    unique flow on the region.  The cover covers every binding label, so
    such a family is one binding vector ``phi`` on the region, and
    restriction is injective.  ``phi`` restricts to flows on every element
    exactly when the cut rows kill it: for each element, the region
    incidence row of each token of a place in it, with the entries outside
    the element's bindings set to 0.  So gluing is exact exactly when the
    region rows and the cut rows have one kernel.  Integer kernels are
    saturated, so that holds over Z exactly when it holds over Q, which is
    when the two row spaces are equal: the verdict does not depend on the
    ring.  On a strict net a place's weights sit on its own transitions,
    which every closed element holding the place contains, so nothing is
    cut and gluing holds; on relaxed nets it can fail.
    """
    checked = _checked_cover(net, "flow-gluing", region, covering, "closed")
    if not checked:
        return checked
    region, covering = checked.region, checked.cover

    mat = net.incidence_matrix(region)
    rows, width = mat.entries, len(mat.col_labels)
    cut = []
    for c in covering:
        keep = _positions(net, "bindings", region, c)
        for k in _positions(net, "tokens", region, c):
            row = [0] * width
            for j in keep:
                row[j] = rows[k][j]
            cut.append(row)
    failures = []
    if la.Q.module(width, rows) != la.Q.module(width, cut):
        failures.append("glued flows differ from the agreeing families")
    return AxiomReport("flow-gluing", region, covering, not failures, failures)


def basic_covers(space, region=None, kind="open", limit=12):
    """All covers of a region by subfamilies of its basic sets.

    Open covers: each transition lies only in its own basic open, so those
    are forced and the enumeration ranges over the place singletons.  Closed
    covers dually force the place basics and range over the transition
    singletons.  Guarded for test-sized regions.
    """
    region = tuple(space.nodes) if region is None else space.ordered(region)
    region_set = set(region)
    if kind == "open":
        if not space.is_open(region):
            raise NetError("basic open covers need an open region")
        forced = [space.basic_open(t) for t in region if space.sort_of(t) is Sort.TRANSITION]
        optional = [x for x in region if space.sort_of(x) is Sort.PLACE]
        basic = space.basic_open
    elif kind == "closed":
        if not space.is_closed(region):
            raise NetError("basic closed covers need a closed region")
        forced = [space.basic_closed(p) for p in region if space.sort_of(p) is Sort.PLACE]
        optional = [x for x in region if space.sort_of(x) is Sort.TRANSITION]
        basic = space.basic_closed
    else:
        raise NetError(f"unknown cover kind {kind!r}")
    if len(optional) > limit:
        raise NetError("too many optional basics to enumerate covers")
    covered = set().union(*map(set, forced)) if forced else set()
    out = []
    for r in range(len(optional) + 1):
        for extra in combinations(optional, r):
            chosen = [basic(x) for x in extra]
            union = covered.union(*map(set, chosen)) if chosen else set(covered)
            if union == region_set:
                family = forced + chosen
                out.append(tuple(space.ordered(c) for c in family))
    return out

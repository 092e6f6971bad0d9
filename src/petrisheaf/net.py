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

The three gluing verifiers share one Čech builder, ``_cech``: given the
section axis and the restriction matrices, it stacks the restrictions from
a region to its cover and the signed differences on pairwise overlaps;
each verifier then only states its exactness condition over the ring.  By
default every restriction is an index projection (``_projection``, built
from label positions; the transposed zero-extension of bindings is the
same projection).  A caller-supplied ``restrict``/``extend`` hook is turned
into a matrix by ``_hook_matrix``, one unit vector at a time; with the
honest hooks it gives the same matrices and serves as their reference.

A net is not changed after construction, so it memoises its token and
binding axes per region and its flow modules per region and ring.  A call
that raises stores nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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
        # axes keyed by (kind, region), flow modules by ("flows", region, ring);
        # a region is a frozenset, or None for the whole net
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
        key = ("tokens", None if region is None else frozenset(region))
        axis = self._memo.get(key)
        if axis is None:
            places = self.space.places if region is None else self.space.places_in(region)
            axis = self._memo[key] = tuple((p, c) for p in places for c in self.tokens[p])
        return axis

    def binding_axis(self, region=None):
        key = ("bindings", None if region is None else frozenset(region))
        axis = self._memo.get(key)
        if axis is None:
            transitions = (
                self.space.transitions if region is None else self.space.transitions_in(region)
            )
            axis = self._memo[key] = tuple((t, b) for t in transitions for b in self.bindings[t])
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
        dim = len(mat.row_labels)
        relations = [
            [mat.entries[i][j] for i in range(dim)] for j in range(len(mat.col_labels))
        ]
        quotient = la.RINGS[ring].quotient(dim, relations)
        return ClassModule(self, region, mat, ring, quotient)

    # -- restriction / extension -----------------------------------------

    def restrict_flow(self, vector, big_region, small_region):
        """Project a flow on ``big_region`` down to a closed subregion.

        On strict nets the result is always a flow of the smaller region.
        On relaxed nets transitions outside the subregion can still move
        tokens inside it, so the projection may fail the smaller region's
        balance conditions; that raises rather than returning a non-flow.
        """
        big = self.space.ordered(big_region)
        small = self.space.ordered(small_region)
        if not set(small) <= set(big):
            raise NetError("restriction target is not a subregion")
        big_axis = self.binding_axis(big)
        if len(vector) != len(big_axis):
            raise NetError("flow vector has the wrong length")
        small_flows = self.flows(small)
        pos = {lab: i for i, lab in enumerate(big_axis)}
        out = [vector[pos[lab]] for lab in self.binding_axis(small)]
        if not small_flows.contains(out):
            raise NetError(
                "projection is not a flow of the subregion"
                + ("" if self.strict else " (relaxed net: restriction undefined here)")
            )
        return out

    def extend_binding_section(self, vector, small_region, big_region):
        """Extension by zero along closed regions (the binding cosheaf)."""
        small = self.space.ordered(small_region)
        big = self.space.ordered(big_region)
        if not set(small) <= set(big):
            raise NetError("extension source is not a subregion")
        small_axis = self.binding_axis(small)
        if len(vector) != len(small_axis):
            raise NetError("binding vector has the wrong length")
        src = dict(zip(small_axis, vector))
        return [src.get(lab, 0) for lab in self.binding_axis(big)]

    def restrict_token_section(self, vector, big_region, small_region):
        """Coordinate projection along open regions (the token sheaf)."""
        big = self.space.ordered(big_region)
        small = self.space.ordered(small_region)
        if not set(small) <= set(big):
            raise NetError("restriction target is not a subregion")
        big_axis = self.token_axis(big)
        if len(vector) != len(big_axis):
            raise NetError("token vector has the wrong length")
        pos = {lab: i for i, lab in enumerate(big_axis)}
        return [vector[pos[lab]] for lab in self.token_axis(small)]

    def extend_class(self, vector, small_region, big_region):
        """Zero-extension of token vectors, inducing classes forward."""
        small = self.space.ordered(small_region)
        big = self.space.ordered(big_region)
        if not set(small) <= set(big):
            raise NetError("extension source is not a subregion")
        small_axis = self.token_axis(small)
        if len(vector) != len(small_axis):
            raise NetError("token vector has the wrong length")
        src = dict(zip(small_axis, vector))
        return [src.get(lab, 0) for lab in self.token_axis(big)]

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
    """Marking classes of an open region (cokernel of the incidence)."""

    __slots__ = ("net", "region", "matrix", "ring", "quotient")

    def __init__(self, net, region, matrix, ring, quotient):
        self.net = net
        self.region = region
        self.matrix = matrix
        self.ring = ring
        self.quotient = quotient

    @property
    def axis(self):
        return self.matrix.row_labels

    @property
    def rank(self):
        return self.quotient.rank

    @property
    def invariant_factors(self):
        return self.quotient.invariant_factors

    @property
    def torsion(self):
        return self.quotient.torsion

    def class_of(self, vector):
        if len(vector) != len(self.axis):
            raise NetError("token vector has the wrong length")
        return self.quotient.reduce(list(vector))

    def class_equal(self, v, w):
        return self.class_of(v) == self.class_of(w)

    def is_zero_class(self, v):
        return self.quotient.is_zero_class(list(v))

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
    """Order a region and its covering (basic sets by default), both of them
    ``openness`` ("open" or "closed"); ``failed`` is a failed report or None.
    """
    space = net.space
    if openness == "open":
        is_kind, basic = space.is_open, space.basic_open
    else:
        is_kind, basic = space.is_closed, space.basic_closed
    region = tuple(space.nodes) if region is None else space.ordered(region)
    if not is_kind(region):
        return region, (), AxiomReport(kind, region, (), False, [f"region is not {openness}"])
    if covering is None:
        covering = [basic(x) for x in region]
    covering = [space.ordered(c) for c in covering]
    failures = []
    for c in covering:
        if not is_kind(c):
            failures.append(f"cover element {list(c)} is not {openness}")
        if not set(c) <= set(region):
            failures.append(f"cover element {list(c)} leaves the region")
    union = set().union(*map(set, covering)) if covering else set()
    if union != set(region):
        failures.append("cover does not exhaust the region")
    failed = AxiomReport(kind, region, tuple(covering), False, failures) if failures else None
    return region, covering, failed


def _transpose(m, cols):
    """The transpose of ``m``, a matrix with ``cols`` columns."""
    return [[row[j] for row in m] for j in range(cols)]


def _projection(axis, big, small):
    """The 0/1 matrix of the coordinate projection from the ``axis`` sections
    of ``big`` onto those of its subregion ``small``."""
    pos = {lab: k for k, lab in enumerate(axis(big))}
    rows = []
    for lab in axis(small):
        row = [0] * len(pos)
        row[pos[lab]] = 1
        rows.append(row)
    return rows


def _hook_matrix(hook, src, dst, axis):
    """Matrix of the map ``hook(vector, src, dst)`` on the ``axis`` sections:
    its columns are the images of the unit vectors of ``src``."""
    n = len(axis(src))
    images = []
    for k in range(n):
        unit = [0] * n
        unit[k] = 1
        images.append(hook(unit, src, dst))
    return [[image[i] for image in images] for i in range(len(axis(dst)))]


def _cech(space, region, covering, axis, restriction):
    """The Čech data of a region's covering, for sections labelled by ``axis``.

    ``restriction(big, small)`` is the matrix from the sections of ``big`` to
    those of ``small``.  Returns the restrictions from the region to the
    cover elements stacked, the signed differences on pairwise overlaps (one
    row per overlap section: restriction from the first element minus
    restriction from the second) and the total cover dimension.
    """
    offsets = []
    total = 0
    for c in covering:
        offsets.append(total)
        total += len(axis(c))
    stack = [row for c in covering for row in restriction(region, c)]
    differences = []
    for (i, ci), (j, cj) in combinations(enumerate(covering), 2):
        overlap = space.ordered(set(ci) & set(cj))
        if not overlap:
            continue
        for row_i, row_j in zip(restriction(ci, overlap), restriction(cj, overlap)):
            row = [0] * total
            row[offsets[i] : offsets[i] + len(row_i)] = row_i
            row[offsets[j] : offsets[j] + len(row_j)] = [-x for x in row_j]
            differences.append(row)
    return stack, differences, total


def verify_token_sheaf(net, region=None, covering=None, restrict=None):
    """Equaliser exactness of the token sheaf on an open covering.

    sections(U) -> prod sections(U_i) must be injective with image exactly
    the families that agree on pairwise intersections.  ``restrict``
    replaces the restriction map (a test hook; the default is the honest
    coordinate projection).
    """
    region, covering, failed = _checked_cover(net, "token-sheaf", region, covering, "open")
    if failed is not None:
        return failed

    axis = net.token_axis
    if restrict is None:
        restriction = partial(_projection, axis)
    else:

        def restriction(big, small):
            return _hook_matrix(restrict, big, small, axis)

    r, d, total = _cech(net.space, region, covering, axis, restriction)
    n = len(axis(region))
    ring = la.RINGS[net.ring]
    failures = []
    if ring.kernel_basis(r, n):
        failures.append("restriction to the cover is not injective")
    if ring.module(total, _transpose(r, n)) != ring.kernel(d, total):
        failures.append("image of sections differs from the agreeing families")
    return AxiomReport("token-sheaf", region, tuple(covering), not failures, failures)


def verify_binding_cosheaf(net, region=None, covering=None, extend=None):
    """Coequaliser exactness of the binding cosheaf on a closed covering.

    prod sections(A_i) -> sections(A) must be surjective with kernel exactly
    the signed overlap images.  ``extend`` is the test hook; the default is
    honest extension by zero.
    """
    region, covering, failed = _checked_cover(net, "binding-cosheaf", region, covering, "closed")
    if failed is not None:
        return failed

    axis = net.binding_axis
    # fed the transposed extensions, the stack is the sum of extensions
    # transposed and the difference rows are the overlap relations; the
    # transposed extension by zero is the projection
    if extend is None:
        restriction = partial(_projection, axis)
    else:

        def restriction(big, small):
            return _transpose(_hook_matrix(extend, small, big, axis), len(axis(small)))

    stack, d, total = _cech(net.space, region, covering, axis, restriction)
    n = len(axis(region))
    ring = la.RINGS[net.ring]
    failures = []
    if not ring.module(n, stack).is_full():
        failures.append("cover sections do not generate the region sections")
    if ring.kernel(_transpose(stack, n), total) != ring.module(total, d):
        failures.append("kernel of the sum differs from the overlap relations")
    return AxiomReport("binding-cosheaf", region, tuple(covering), not failures, failures)


def verify_flow_gluing(net, region=None, covering=None, ring=None):
    """Equaliser exactness for flows on a closed covering.

    Families of flows on the cover that agree on overlaps must come from a
    unique flow on the region.  Meaningful for strict nets (on relaxed nets
    the restriction maps need not stay inside the flow modules).
    """
    ring = la.RINGS[ring or net.ring]
    region, covering, failed = _checked_cover(net, "flow-gluing", region, covering, "closed")
    if failed is not None:
        return failed

    axis = net.binding_axis
    stack, d, total = _cech(net.space, region, covering, axis, partial(_projection, axis))
    local = [net.flows(c, ring=ring.name) for c in covering]
    # the local flow bases as one block-diagonal matrix: cover coordinates
    # by basis coefficients
    coeffs = sum(len(mod.basis) for mod in local)
    bases = []
    done = 0
    for mod in local:
        for i in range(len(mod.axis)):
            row = [0] * coeffs
            for k, b in enumerate(mod.basis):
                row[done + k] = b[i]
            bases.append(row)
        done += len(mod.basis)
    glued = [la.matvec(stack, b) for b in net.flows(region, ring=ring.name).basis]
    agreeing = [la.matvec(bases, s) for s in ring.kernel_basis(la.matmul(d, bases), coeffs)]
    failures = []
    if ring.module(total, glued) != ring.module(total, agreeing):
        failures.append("glued flows differ from the agreeing families")
    return AxiomReport("flow-gluing", region, tuple(covering), not failures, failures)


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

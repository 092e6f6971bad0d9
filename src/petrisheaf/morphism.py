"""Morphisms of coloured nets.

A morphism is a continuous node map together with linear data on the
canonical basis regions of the target:

* per image transition ``a``: a basis of the flows of the closed fibre over
  ``a`` and the image of each basis flow as a binding combination of ``a``,
* per image place ``u``: the image of every token on the open fibre over
  ``u`` as a token combination of ``u``.

Everything else (flow maps over place closures, class maps over transition
neighbourhoods, marking transport) is induced, and ``verify`` checks the
induction is possible, in a fixed clause order, stopping at the first hard
failure.  Clause identifiers are stable strings used by reports and the CLI.

A sort-preserving (discrete) morphism is given by where it sends each
binding and each token: its transition fibres hold no places, so the unit
bindings are a flow basis.  ``NetMorphism.discrete`` builds one from those
element images and ``NetMorphism.element_image`` reads them back.  Such a
morphism is verified on its arcs: ``flow-basis`` takes no fibre kernel,
``incidence-compat`` compares only the (transition, place) pairs that some
arc joins, and ``class-transport`` pushes each binding's sparse effect
through the mark data; each method's docstring holds its lemma.

Verification runs on integer rows, fraction-free in the manner of Bareiss
(*Math. Comp.* 22, 1968).  Once per morphism, the mark images over each image
place ``u`` are scaled to integer rows over one denominator ``d_u``, and the
flow data over each image transition ``a`` become one table of binding
images over one denominator: row ``j`` is the image of fibre binding ``j``.
Over a unit flow basis, which every discrete morphism has, the table is the
supplied images.  Over any other basis each image coordinate is the
functional on the fibre bindings that takes the supplied values on the
basis, with its free unknowns 0: the reduced row echelon extension, the
same table for every basis of the same map.  A fibre flow's image is one
integer combination of the table rows.  The clauses read the sparse
``net.effect`` pairs, compare integer vectors with the denominators
cross-multiplied, and check linear conditions on positive integer multiples
of rational vectors.  A failing clause reports the exact vectors, rendered
by ``intlinalg._format_vector`` as the CLI renders scalars: ``[2, -1/2]``.

Every clause is exact: a report is ``ok`` or ``failed``.  Signedness asks
each image coordinate, as a functional on the fibre bindings, to be
non-negative on the cone of non-negative fibre flows; ``intlinalg.cone_witness``
decides that by linear programming and names a Hilbert generator that fails.
A modification is decided on the same tables by a lemma, in
``classify``'s docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from . import intlinalg as la
from .net import ColouredNet, NetError, same_net
from .topology import SpaceMap, quotient_by_pairs

CLAUSE_CONTINUITY = "continuity"
CLAUSE_FLOW_BASIS = "flow-basis"
CLAUSE_FLOW_EXTENDS = "flow-map-extends"
CLAUSE_MARK_DEFINED = "mark-map-defined"
CLAUSE_CLASS_TRANSPORT = "class-transport"
CLAUSE_SIGNEDNESS = "signedness"
CLAUSE_INCIDENCE = "incidence-compat"

CLAUSE_ORDER = (
    CLAUSE_CONTINUITY,
    CLAUSE_FLOW_BASIS,
    CLAUSE_FLOW_EXTENDS,
    CLAUSE_MARK_DEFINED,
    CLAUSE_CLASS_TRANSPORT,
    CLAUSE_SIGNEDNESS,
    CLAUSE_INCIDENCE,
)


class MorphismError(ValueError):
    """Malformed morphism data or use of an unverified morphism."""


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    status: str  # "ok" | "failed"
    detail: str = ""

    @property
    def ok(self):
        return self.status == "ok"


@dataclass
class VerificationReport:
    morphism_name: str
    clauses: list = field(default_factory=list)

    @property
    def status(self):
        return "failed" if self.first_failure else "ok"

    @property
    def ok(self):
        return self.status == "ok"

    def __bool__(self):
        return self.ok

    @property
    def first_failure(self):
        for c in self.clauses:
            if c.status == "failed":
                return c
        return None

    def clause(self, name):
        for c in self.clauses:
            if c.clause == name:
                return c
        return None


@dataclass(frozen=True)
class Classification:
    abstraction: bool
    embedding: bool
    discrete: bool
    modification: bool
    place_modification: bool
    transition_modification: bool

    def as_dict(self):
        return {
            "abstraction": self.abstraction,
            "embedding": self.embedding,
            "discrete": self.discrete,
            "modification": self.modification,
            "place-modification": self.place_modification,
            "transition-modification": self.transition_modification,
        }


def morphism_ring(*rings):
    """The ring of a morphism, or composite, over ``rings``: Q if any is Q."""
    return "Q" if "Q" in rings else "Z"


def _coeff(ring, value):
    f = Fraction(value)
    if ring == "Z":
        if f.denominator != 1:
            value = la._format_scalar(f)
            raise MorphismError(f"non-integer coefficient {value} in an integer morphism")
        return int(f)
    return f


# the zero of each ring, shared by every entry a dict leaves out
_ZEROS = {"Z": 0, "Q": la._ZERO}


def _as_vector(data, index, ring, what):
    """``data``, a vector or a dict of labels, over the axis whose positions
    ``index`` holds, as a tuple of ring coefficients."""
    if isinstance(data, dict):
        extra = [lab for lab in data if lab not in index]
        if extra:
            raise MorphismError(f"{what}: unknown labels {sorted(extra, key=str)!r}")
        out = [_ZEROS[ring]] * len(index)
        for lab, value in data.items():
            out[index[lab]] = _coeff(ring, value)
        return tuple(out)
    data = list(data)
    if len(data) != len(index):
        raise MorphismError(f"{what}: expected length {len(index)}, got {len(data)}")
    return tuple(_coeff(ring, x) for x in data)


class NetMorphism:
    """Node map plus canonical-basis flow and mark data between two nets."""

    def __init__(self, source, target, node_map, flow_maps, mark_maps, ring=None, name="f"):
        if not isinstance(source, ColouredNet) or not isinstance(target, ColouredNet):
            raise MorphismError("source and target must be coloured nets")
        self.source = source
        self.target = target
        self.name = name
        self.ring = ring or morphism_ring(source.ring, target.ring)
        if self.ring not in la.RINGS:
            raise MorphismError(f"ring must be 'Z' or 'Q', got {ring!r}")
        if isinstance(node_map, SpaceMap):
            self.space_map = node_map
        else:
            self.space_map = SpaceMap(source.space, target.space, node_map)

        image = set(self.space_map.mapping.values())
        self._image_transitions = image_transitions = tuple(
            a for a in target.space.transitions if a in image
        )
        self._image_places = image_places = tuple(u for u in target.space.places if u in image)

        flow_maps = dict(flow_maps)
        if set(flow_maps) != set(image_transitions):
            raise MorphismError(
                f"flow data must cover exactly the image transitions {list(image_transitions)!r}"
            )
        self.flow_maps = {}
        self._place_free = set()  # image transitions whose fibre holds no place
        self._units = set()  # image transitions whose supplied basis is the unit one
        zero = _ZEROS[self.ring]
        for a in image_transitions:
            fibre = self.space_map.fibre(a)
            fibre_index = {lab: i for i, lab in enumerate(source.binding_axis(fibre))}
            target_index = {b: i for i, b in enumerate(target.bindings[a])}
            raw = flow_maps[a]
            pairs = list(raw.items()) if isinstance(raw, dict) else list(raw)
            basis, images = [], []
            for vec, img in pairs:
                basis.append(_as_vector(vec, fibre_index, self.ring, f"flow basis over {a}"))
                images.append(_as_vector(img, target_index, self.ring, f"flow image over {a}"))
            self.flow_maps[a] = (tuple(basis), tuple(images))
            if not any(source.space.is_place(x) for x in fibre):
                self._place_free.add(a)
            n = len(fibre_index)
            if len(basis) == n and all(
                v[i] == 1 and v.count(zero) == n - 1 for i, v in enumerate(basis)
            ):
                self._units.add(a)

        mark_maps = dict(mark_maps)
        if set(mark_maps) != set(image_places):
            raise MorphismError(
                f"mark data must cover exactly the image places {list(image_places)!r}"
            )
        self.mark_maps = {}
        for u in image_places:
            fibre_tokens = source.token_axis(self.space_map.fibre(u))
            target_index = {c: i for i, c in enumerate(target.tokens[u])}
            raw = dict(mark_maps[u])
            if set(raw) != set(fibre_tokens):
                raise MorphismError(
                    f"mark data over {u!r} must cover exactly the fibre tokens "
                    f"{list(fibre_tokens)!r}"
                )
            self.mark_maps[u] = {
                lab: _as_vector(raw[lab], target_index, self.ring, f"mark image of {lab}")
                for lab in fibre_tokens
            }

        self._report = None  # the VerificationReport, once every clause ran
        self._transport = None  # target token axis x source token axis
        self._scaled = None  # the transport scaled to sparse integer rows
        self._flow_rows = {}  # image transition -> its table of binding images
        self._mark_rows = {}  # image place -> its mark data on integer rows

    @classmethod
    def discrete(cls, source, target, node_map, image, ring=None, name="f"):
        """A sort-preserving morphism, given by where it sends each element.

        ``image(x, e)`` is the image of binding or token ``e`` of node ``x``
        over the elements of ``node_map[x]``, as a vector or a dict.  A
        transition fibre holds transitions only, so its incidence has no
        rows, every binding vector is a flow, and the unit bindings, in axis
        order, are its flow basis; each is given by its one label.
        """
        space_map = SpaceMap(source.space, target.space, node_map)
        for x, y in space_map.mapping.items():
            if source.space.sort_of(x) is not target.space.sort_of(y):
                raise MorphismError(f"node map sends {x!r} to {y!r}, a node of another sort")
        flow_maps, mark_maps = {}, {}
        for y, fibre in space_map.fibres().items():
            if target.space.is_transition(y):
                flow_maps[y] = [({xb: 1}, image(*xb)) for xb in source.binding_axis(fibre)]
            else:
                mark_maps[y] = {(x, c): image(x, c) for x, c in source.token_axis(fibre)}
        return cls(source, target, space_map, flow_maps, mark_maps, ring=ring, name=name)

    def element_image(self, x, e):
        """The image of binding or token ``e`` of node ``x`` over the elements
        of its image node, which must share the sort of ``x``: the flow image
        of the unit binding, or the mark image of the token.  The read-side
        twin of ``discrete``."""
        y = self.space_map(x)
        if self.source.space.sort_of(x) is not self.target.space.sort_of(y):
            raise MorphismError(f"{x!r} and its image {y!r} differ in sort")
        if self.target.space.is_place(y):
            return self.mark_maps[y][(x, e)]
        axis = self.source.binding_axis(self.space_map.fibre(y))
        unit = [0] * len(axis)
        unit[axis.index((x, e))] = 1
        return self.flow_image(y, unit)

    # -- ring helpers ------------------------------------------------------

    def _module(self, dim, vectors):
        return la.RINGS[self.ring].module(dim, vectors)

    def _kernel(self, vectors, dim):
        return la.RINGS[self.ring].kernel(la.transpose(vectors, dim), len(vectors)).basis

    # -- induced pieces ----------------------------------------------------

    def image_transitions(self):
        return self._image_transitions

    def image_places(self):
        return self._image_places

    def _integer_flows(self, a):
        """The table of binding images over ``a``, built once per morphism:
        ``(table, d)``, with ``table[j] / d`` the image of fibre binding
        ``j``, so a fibre flow ``w`` maps to ``combine(w, table) / d``.

        Over the unit basis the table is the images.  Any other basis, the
        empty one included, is factored once over Q, and each image
        coordinate solved as the functional on the fibre bindings that takes
        the supplied values on the basis, its free unknowns 0.
        """
        rows = self._flow_rows.get(a)
        if rows is None:
            basis, images = self.flow_maps[a]
            if a not in self._units:
                fibre_dim = len(self.source.binding_axis(self.space_map.fibre(a)))
                solve = la.Q.solver([list(v) for v in basis], fibre_dim)
                dim = len(self.target.bindings[a])
                functionals = [solve(f) for f in la.transpose(images, dim)]
                if None in functionals:
                    raise MorphismError(f"flow data over {a!r} are not linear on the basis")
                images = la.transpose(functionals, fibre_dim)
            rows = self._flow_rows[a] = la._integer_rows(images)
        return rows

    def _integer_marks(self, u):
        """The mark data over ``u`` on integer rows, built once per morphism:
        ``(d, rows)``, with ``rows[lab] / d`` the mark image of fibre token
        ``lab``, one denominator ``d`` for the place."""
        rows = self._mark_rows.get(u)
        if rows is None:
            table = self.mark_maps[u]
            ints, d = la._integer_rows(table.values())
            rows = self._mark_rows[u] = (d, dict(zip(table, ints)))
        return rows

    def _fibre_flows(self, a):
        """The flows of the fibre over ``a``, or None when the fibre holds no
        place: its incidence then has no rows, so every binding vector is a
        flow and no kernel is needed to tell."""
        if a in self._place_free:
            return None
        return self.source.flows(self.space_map.fibre(a), ring=self.ring)

    def flow_image(self, a, vector):
        """Image of a fibre flow over ``a`` as a binding vector of ``a``.

        ``vector`` is scaled to integers and combined over the table of
        ``_integer_flows``; the image holds ints when its denominator is 1,
        else Fractions.
        """
        table, d = self._integer_flows(a)
        if len(vector) != len(table):
            raise MorphismError("fibre flow vector has the wrong length")
        flows = self._fibre_flows(a)
        if flows is not None and not flows.contains(vector):
            raise MorphismError(f"vector is not in the span of the flow basis over {a!r}")
        w, c = la._integer_row(vector)
        ints = la.combine(w, table, len(self.target.bindings[a]))
        d *= c
        return tuple(ints) if d == 1 else tuple(Fraction(x, d) for x in ints)

    def _integer_family(self, region):
        """The induced flow map on a closed target region, on integers.

        Returns ``(region_axis, mapper)``.  The mapper takes a flow on the
        preimage, scales it to integers, combines each fibre restriction over
        the table of ``_integer_flows`` and returns the component family over
        the region bindings as ``(ints, d)``, an integer row over ``d``; it
        raises if some fibre restriction fails to be a flow.
        """
        region = self.target.space.ordered(region)
        if not self.target.space.is_closed(region):
            raise MorphismError("induced flow families live on closed regions")
        src = self.source
        pre_axis = src.binding_axis(self.space_map.preimage(region))
        pre_index = {lab: i for i, lab in enumerate(pre_axis)}
        transitions = self.target.space.transitions_in(region)
        fibres = []
        for a in transitions:
            if a in self.flow_maps:
                fibre = self.space_map.fibre(a)
                index = [pre_index[lab] for lab in src.binding_axis(fibre)]
                table, d = self._integer_flows(a)
                fibres.append((a, index, self._fibre_flows(a), table, d))
        zeros = {a: [0] * len(self.target.bindings[a]) for a in transitions}

        def mapper(vector):
            if len(vector) != len(pre_axis):
                raise MorphismError("flow vector has the wrong length")
            w, c = la._integer_row(vector)
            images = {}
            for a, index, flows, table, e in fibres:
                restricted = [w[i] for i in index]
                if flows is not None and not flows.contains(restricted):
                    raise NetError(f"restriction to the fibre over {a!r} is not a flow")
                images[a] = la.combine(restricted, table, len(zeros[a])), e
            d = math.lcm(*(e for _, e in images.values()))
            family = []
            for a in transitions:
                ints, e = images.get(a, (zeros[a], d))
                family += [x * (d // e) for x in ints]
            return family, d * c

        return self.target.binding_axis(region), mapper

    # -- verification --------------------------------------------------------

    def verify(self):
        """Clause-by-clause report; cached once every clause ran."""
        if self._report is None:
            self._report = self._verify()
        return self._report

    def _verify(self):
        """The clauses in ``CLAUSE_ORDER``, stopping at the first failure:
        each clause method returns the detail of its first failure, or None."""
        report = VerificationReport(self.name)
        checks = (
            self._check_continuity,
            self._check_flow_basis,
            self._check_flow_extends,
            self._check_mark_defined,
            self._check_class_transport,
            self._check_signedness,
            self._check_incidence,
        )
        for clause, check in zip(CLAUSE_ORDER, checks):
            detail = check()
            status = "ok" if detail is None else "failed"
            report.clauses.append(ClauseResult(clause, status, detail or ""))
            if detail is not None:
                break
        return report

    def _check_continuity(self):
        """1. The node map is continuous."""
        if not self.space_map.is_continuous():
            return "node map is not continuous"
        return None

    def _check_flow_basis(self):
        """2. The supplied vectors form a basis of the fibre flows.

        On a fibre that holds no place the clause holds for the unit basis
        with no kernel taken.  The incidence of such a fibre has no rows, so
        every binding vector is a flow: the flows are the whole binding
        module, over Z and over Q, and the unit vectors are a basis of it.
        The fibres of every discrete morphism are of this kind, and
        ``discrete`` supplies the unit basis.
        """
        for a in self.image_transitions():
            if a in self._place_free and a in self._units:
                continue
            flows = self.source.flows(self.space_map.fibre(a), ring=self.ring)
            basis, _ = self.flow_maps[a]
            for vec in basis:
                if not flows.contains(list(vec)):
                    return f"vector {la._format_vector(vec)} is not a flow of the fibre over {a!r}"
            if len(basis) != flows.rank:
                return (
                    f"fibre over {a!r} has flow rank {flows.rank}, "
                    f"got {len(basis)} basis vectors"
                )
            if basis and not flows.same_module([list(v) for v in basis]):
                return f"vectors do not span the fibre flows over {a!r}"
        return None

    def _check_flow_extends(self):
        """3. Induced flow maps on place closures stay flows; the clause is
        linear, so each family is checked as a positive integer multiple.

        A morphism of sheaves commutes with restriction to every closed set,
        so the clause is not only for the image places: a place outside the
        image whose closure meets it has preimage flows too.

        Clause 3 follows from clauses 2 and 6 at an image place ``u`` whose
        closure has a sort-respecting preimage: its places are the fibre of
        ``u`` and its transitions the fibres of the transitions of ``u``.
        For a flow ``phi`` of that preimage, clause 6 on the flow basis gives
        ``C'_{u,A} F(phi) = P_u C_{fibre(u)} phi = 0``, with ``C'_{u,A}`` the
        target incidence at ``u``, ``F`` the induced flow map and ``P_u`` the
        mark data.  So clause 6 is decided once, and at such a ``u`` the
        per-flow loop of clause 3 runs only when clause 6 fails: the first
        failing clause and its detail are those of the loop.

        Clause 6 reads image places only, so the lemma says nothing at a
        place outside the image.  There the loop runs when the preimage of
        the closure mixes sorts.  When it respects sorts, the preimage holds
        transitions only (none when the closure misses the image), and the
        clause asks that the image of each fibre binding balance at ``u``.
        That case is left unchecked: checking it moves the first failure of
        the diagonal embedding into a relaxed square from class-transport to
        this clause.  So a map can pass here that is no morphism of flows;
        a strict xfail test pins the smallest such map.
        """
        src, tgt = self.source, self.target
        image_places = set(self._image_places)
        mixed = {
            y
            for x, y in self.space_map.mapping.items()
            if src.space.sort_of(x) is not tgt.space.sort_of(y)
        }
        for u in tgt.space.places:
            region = tgt.space.ordered(tgt.space.basic_closed(u))
            if mixed.isdisjoint(region) and (
                u not in image_places or self._incidence_failure is None
            ):
                continue
            pre = self.space_map.preimage(region)
            try:
                _, mapper = self._integer_family(region)
                target_flows = tgt.flows(region, ring=self.ring)
                for phi in src.flows(pre, ring=self.ring).basis:
                    family, _ = mapper(phi)
                    if not target_flows.contains(family):
                        return (
                            f"image family of {la._format_vector(phi)} violates the balance "
                            f"at {u!r}"
                        )
            except (MorphismError, NetError) as exc:
                return f"over {u!r}: {exc}"
        return None

    def _check_mark_defined(self):
        """4a. Mark maps kill the fibre relations (the target is free over {u})."""
        src, position = self.source, self._token_position
        for u in self.image_places():
            d, marks = self._integer_marks(u)
            rows = {position[lab]: row for lab, row in marks.items()}
            dim = len(self.target.tokens[u])
            for t, b in src.binding_axis(self.space_map.fibre(u)):
                out = self._effect_image(t, b, rows, dim)
                if any(out):
                    return (
                        f"binding {t}.{b} has nonzero image {la._format_vector(out, d)} "
                        f"in the tokens of {u!r}"
                    )
        return None

    def _check_class_transport(self):
        """4b. Class transport over each transition neighbourhood."""
        return self._class_transport[0]

    @property
    def _rewrites(self):
        """Per image transition: fibre token -> target token vector."""
        return self._class_transport[1]

    @cached_property
    def _class_transport(self):
        """``(detail, rewrites)``, decided once per morphism: the detail of
        the first class-transport failure, or None, and the rewrites.

        Per image transition ``a``, solves each token on a place inside the
        fibre over ``a`` as a combination of place-fibre tokens and region
        relations inside the neighbourhood of ``a``, and records its image
        in ``rewrites[a]``: token label -> vector over the full target token
        axis.  The well-definedness check maps integer multiples of the
        kernel vectors through the mark images scaled to integers over one
        denominator.

        With ``P`` the tokens of the region on place fibres and ``T`` those
        on transition fibres, the kernel of ``[I_P | C]`` is spanned by the
        ``(-C_P z, z)`` with ``z`` over a basis of ``ker C_T``.  When ``T``
        is empty the unit vectors ``e_j`` are such a basis, and the check is
        that each image ``P C e_j`` of an incidence column lies in the
        relations, with no elimination.  Only when that fails is the
        canonical kernel taken, to name its first failing vector.

        The column ``C e_j`` is the sparse effect of binding ``j`` read on
        the tokens of the region, and ``P`` sends a token to its integer
        mark row.  So ``P C e_j`` is that effect pushed through the mark rows
        of the region's tokens, the sum of ``w * P e_i`` over its
        (token, weight) pairs on the region, with the consumed weights
        negated: no dense incidence of the region is built on this path.
        """
        src, tgt = self.source, self.target
        ring = la.RINGS[self.ring]
        full_axis = tgt.token_axis()
        rewrites = {}
        for a in self.image_transitions():
            neighbourhood = tgt.space.basic_open(a)
            region = self.space_map.preimage(neighbourhood)
            ambient = src.token_axis(region)
            dim = len(ambient)
            tgt_axis = tgt.token_axis(neighbourhood)
            tgt_index = {lab: i for i, lab in enumerate(tgt_axis)}
            tdim = len(tgt_axis)

            p_rows, p_targets, t_labels = [], [], []
            for i, (p, c) in enumerate(ambient):
                if tgt.space.is_place(self.space_map(p)):
                    p_rows.append(i)
                    p_targets.append(self._mark_column(p, c, tgt_index))
                else:
                    t_labels.append((i, (p, c)))
            p_ints, d = la._integer_rows(p_targets)
            relations = tgt.incidence_matrix(neighbourhood, (a,)).entries
            s_module = self._module(tdim, la.transpose(relations, len(tgt.bindings[a])))

            # well-definedness: vanishing combinations must map into the relations
            out = rewrites[a] = {}
            if not t_labels:
                rows = {self._token_position[lab]: row for lab, row in zip(ambient, p_ints)}
                images = (self._effect_image(t, b, rows, tdim) for t, b in src.binding_axis(region))
                if all(not any(image) or image in s_module for image in images):
                    continue
            incidence = src.incidence_matrix(region)
            cols = len(p_rows) + len(incidence.col_labels)
            matrix = [
                [int(i == r) for r in p_rows] + list(row)
                for i, row in enumerate(incidence.entries)
            ]
            for ker_vec in ring.kernel(matrix, cols).basis:
                w, c = la._integer_row(ker_vec)
                image = la.combine(w, p_ints, tdim)
                if image not in s_module:
                    return (
                        f"transport over {a!r} is inconsistent: a vanishing combination "
                        f"maps to {la._format_vector(image, c * d)}, outside the relations"
                    ), rewrites

            targets = p_targets + [[0] * tdim for _ in incidence.col_labels]
            solve = ring.solver(matrix, cols) if cols and t_labels else None
            for idx, lab in t_labels:
                coords = solve([int(i == idx) for i in range(dim)]) if solve else None
                if coords is None:
                    return (
                        f"transport over {a!r} is underdetermined: token {lab} is not "
                        "generated by the place-fibre tokens and the region relations"
                    ), rewrites
                placed = dict(zip(tgt_axis, la.combine(coords, targets, tdim)))
                out[lab] = tuple(placed.get(lab2, 0) for lab2 in full_axis)
        return None, rewrites

    def _check_signedness(self):
        """5. Signedness of the supplied data: each image coordinate, as a
        functional on the fibre bindings, is non-negative on the fibre cone.
        The functionals are the columns of the table of binding images."""
        for u in self.image_places():
            _, marks = self._integer_marks(u)
            for lab, vec in marks.items():
                if any(x < 0 for x in vec):
                    return f"mark image of {lab} has a negative entry"
        for a in self.image_transitions():
            fibre = self.space_map.fibre(a)
            table, d = self._integer_flows(a)
            dim = len(self.target.bindings[a])
            incidence = self.source.incidence_matrix(fibre).as_lists()
            g = la.cone_witness(incidence, la.transpose(table, dim), len(table))
            if g is not None:
                return (
                    f"non-negative fibre flow {la._format_vector(g)} maps to "
                    f"{la._format_vector(la.combine(g, table, dim), d)}"
                )
        return None

    def _check_incidence(self):
        """6. Incidence compatibility on every image (transition, place) pair."""
        return self._incidence_failure

    @cached_property
    def _incidence_failure(self):
        """The detail of the first incidence-compat mismatch, or None, decided
        once per morphism: clause 3 reads it too.

        A basis vector scaled to integers by ``s`` has its image read off
        the table over ``s*e``, with ``e`` the table's denominator, so the
        image side is ``s*e`` times the exact one and the fibre side ``s*d``
        times, with ``d`` the mark denominator.

        Per image transition ``a``, each fibre binding's sparse effect is
        pushed through the mark rows once and routed by image place, and
        each target binding's effect through the unit rows of its places.
        A pair ``(a, u)`` that no source arc from the fibre reaches through
        a token with a nonzero mark image, and that has no target weight
        between ``a`` and ``u``, is skipped: there every fibre side is a sum
        over no arc and every image side a combination of zero weights, so
        both sides are 0 for every basis vector.  The pairs left are
        compared in the order (transition, place, side, basis vector), so
        the first mismatch is the one the comparison of all pairs finds.
        """
        src, tgt = self.source, self.target
        dims = {u: len(tgt.tokens[u]) for u in self.image_places()}
        marked = {}  # source token position -> (image place, nonzero integer mark row)
        unit_rows = {}  # target token position on an image place -> (place, unit row)
        for u in self.image_places():
            for lab, row in self._integer_marks(u)[1].items():
                if any(row):
                    marked[self._token_position[lab]] = (u, row)
        for i, (u, c) in enumerate(tgt.token_axis()):
            if u in dims:
                k = tgt.tokens[u].index(c)
                unit_rows[i] = (u, [int(j == k) for j in range(dims[u])])
        for a in self.image_transitions():
            fibre_axis = src.binding_axis(self.space_map.fibre(a))
            table, e = self._integer_flows(a)
            if a in self._units:
                # over the unit basis each fibre side is a pushed row and
                # each image a row of the table; this spares scaling each
                # basis vector to integers and combining by it, which over Q
                # (Fraction entries) nearly doubles the clause on discrete maps
                basis, images = [(None, 1)] * len(table), table
            else:
                basis = [la._integer_row(vec) for vec in self.flow_maps[a][0]]
                images = [la.combine(w, table, len(tgt.bindings[a])) for w, _ in basis]
            pushed = _routed([src.effect(t, b) for t, b in fibre_axis], marked, dims)
            weights = _routed([tgt.effect(a, b) for b in tgt.bindings[a]], unit_rows, dims)
            for u in self.image_places():
                if u not in pushed and u not in weights:
                    continue
                d, _ = self._integer_marks(u)
                dim = dims[u]
                fibre_sides = pushed.get(u) or ([[0] * dim] * len(fibre_axis),) * 2
                image_sides = weights.get(u) or ([[0] * dim] * len(tgt.bindings[a]),) * 2
                for side, sign in ((0, "-"), (1, "+")):
                    rows = fibre_sides[side]
                    for j, ((w, s), img) in enumerate(zip(basis, images)):
                        lhs = rows[j] if w is None else la.combine(w, rows, dim)
                        rhs = la.combine(img, image_sides[side], dim)
                        if any(e * x != d * y for x, y in zip(lhs, rhs)):
                            return (
                                f"w{sign} mismatch over ({a!r}, {u!r}): fibre side "
                                f"{la._format_vector(lhs, s * d)} vs image side "
                                f"{la._format_vector(rhs, s * e)}"
                            )
        return None

    @cached_property
    def _token_position(self):
        """Source token label -> its position on the source token axis."""
        return {lab: i for i, lab in enumerate(self.source.token_axis())}

    def _effect_image(self, t, b, rows, dim):
        """The effect (produced minus consumed) of source binding ``t.b``
        pushed through ``rows`` (token-axis position -> integer row of
        length ``dim``); tokens with no row are dropped."""
        pre, post = self.source.effect(t, b)
        out = [0] * dim
        for sign, pairs in ((-1, pre), (1, post)):
            for i, w in pairs:
                row = rows.get(i)
                if row is not None:
                    for k, x in enumerate(row):
                        out[k] += sign * w * x
        return out

    def _mark_column(self, p, c, index):
        """The mark image of token ``c`` on ``p``, written into the target
        token axis whose positions ``index`` gives."""
        u = self.space_map(p)
        column = [0] * len(index)
        for val, c2 in zip(self.mark_maps[u][(p, c)], self.target.tokens[u]):
            column[index[(u, c2)]] = val
        return column

    # -- marking transport -----------------------------------------------

    def require_verified(self):
        report = self.verify()
        if report.status == "failed":
            bad = report.first_failure
            raise MorphismError(
                f"morphism {self.name!r} failed verification at clause "
                f"{bad.clause!r}: {bad.detail}"
            )
        return report

    def marking_transport(self):
        """Matrix of the induced linear map on token vectors.

        Rows run over the target token axis, columns over the source token
        axis.  Tokens on place fibres go through the mark data; tokens on
        places inside transition fibres go through the class transport.
        """
        if self._transport is not None:
            return self._transport
        self.require_verified()
        tgt_axis = self.target.token_axis()
        tpos = {lab: i for i, lab in enumerate(tgt_axis)}
        cols = []
        for p, c in self.source.token_axis():
            fp = self.space_map(p)
            if self.target.space.is_place(fp):
                cols.append(self._mark_column(p, c, tpos))
            else:
                cols.append(list(self._rewrites[fp][(p, c)]))
        self._transport = la.transpose(cols, len(tgt_axis))
        return self._transport

    def map_marking(self, values):
        """Push a token vector forward; entries may leave N in general.

        Runs on integers: each row of ``marking_transport()`` is scaled once,
        by the lcm of its denominators, to sparse integer coefficients, and
        each entry is one integer sum over that lcm.  An entry is a
        ``Fraction`` when its transport row or ``values`` holds one, and an
        ``int`` otherwise, the type the plain sum of products has.
        """
        if self._scaled is None:
            scaled = []
            for row in self.marking_transport():
                ints, d = la._integer_row(row)
                typed = all(type(x) is int for x in row)
                scaled.append((None if typed else d, [(j, x) for j, x in enumerate(ints) if x]))
            self._scaled = scaled
        if len(values) != len(self.source.token_axis()):
            raise MorphismError("marking vector has the wrong length")
        whole = all(isinstance(x, int) for x in values)
        values, scale = la._integer_row(values)
        out = []
        for d, coeffs in self._scaled:
            s = sum(c * values[j] for j, c in coeffs)
            out.append(s if whole and d is None else Fraction(s, scale * (d or 1)))
        return out

    # -- classification ----------------------------------------------------

    def classify(self):
        """The kinds of map this verified morphism is.

        A modification is a surjective discrete map whose flow and mark
        components are isomorphisms with non-negative inverses.  On a
        verified discrete morphism that is read off the tables of
        ``_integer_flows`` and ``_integer_marks``.  A transition fibre holds
        no place and a place fibre no transition, so no component has
        relations: each is the linear map of its table, non-negative by
        ``signedness``.  A non-negative matrix with a non-negative inverse
        is monomial (A. Berman and R. J. Plemmons, *Nonnegative Matrices in
        the Mathematical Sciences*, 1979): square, with one nonzero entry in
        each row and each column, positive by ``signedness``.  Over Z the
        inverse of an entry ``e / d`` is ``d / e``, an integer only when
        ``e = d``, as ``e / d`` is an integer itself (the flow basis spans
        the fibre flows over Z).
        """
        self.require_verified()
        src, tgt = self.source, self.target
        sm = self.space_map

        def flow_injective(a):
            basis, images = self.flow_maps[a]
            return not (basis and self._kernel(images, len(tgt.bindings[a])))

        def mark_injective(u):
            # injective on classes: the kernel of the mark data, listed in
            # fibre token order, lies in the relations
            fibre = sm.fibre(u)
            rel_cols = [src.binding_effect(t, b, fibre) for t, b in src.binding_axis(fibre)]
            relations = self._module(len(src.token_axis(fibre)), rel_cols)
            kernel = self._kernel(list(self.mark_maps[u].values()), len(tgt.tokens[u]))
            return all(list(k) in relations for k in kernel)

        def monomial(rows, d, dim):
            hits = [[x for x in row if x] for row in rows]
            return (
                len(rows) == dim
                and all(len(h) == 1 and (self.ring == "Q" or h[0] == d) for h in hits)
                and all(any(col) for col in zip(*rows))
            )

        abstraction = (
            sm.is_surjective()
            and all(
                self._module(len(tgt.bindings[a]), self.flow_maps[a][1]).is_full()
                for a in self.image_transitions()
            )
            and all(
                self._module(len(tgt.tokens[u]), list(self.mark_maps[u].values())).is_full()
                for u in self.image_places()
            )
        )
        embedding = (
            sm.is_embedding()
            and all(flow_injective(a) for a in self.image_transitions())
            and all(mark_injective(u) for u in self.image_places())
        )
        discrete = sm.is_discrete()
        modification = (
            sm.is_surjective()
            and discrete
            and all(
                monomial(*self._integer_flows(a), len(tgt.bindings[a]))
                for a in self.image_transitions()
            )
            and all(
                monomial(list(marks.values()), d, len(tgt.tokens[u]))
                for u in self.image_places()
                for d, marks in [self._integer_marks(u)]
            )
        )
        singleton_t = all(len(sm.fibre(a)) == 1 for a in self.image_transitions())
        singleton_p = all(len(sm.fibre(u)) == 1 for u in self.image_places())
        return Classification(
            abstraction=abstraction,
            embedding=embedding,
            discrete=discrete,
            modification=modification,
            place_modification=modification and singleton_t,
            transition_modification=modification and singleton_p,
        )

    # -- composition ---------------------------------------------------------

    def then(self, other):
        """Composite morphism, self first; both factors must verify.

        The mark data of a token of ``x`` over an image place ``u`` is its
        image through both transports, read on ``u``, and nothing of that
        image lies elsewhere.  If this morphism sends ``x`` to a place
        ``v``, the token goes through its mark data onto ``v``, and
        ``other``'s mark data over ``u = other(v)`` send it into ``u``
        alone.  Otherwise ``x`` goes to a transition ``y``, and this
        morphism's class transport writes only onto places next to ``y``.
        ``other`` is continuous, so it sends ``y``, a point of the closure
        of each such place ``v``, into the closure of ``other(v)``; that
        closure holds the place ``u = other(y)`` only when ``other(v) =
        u``, and again the mark data over ``u`` keep the image on ``u``.
        """
        if not same_net(other.source, self.target):
            raise MorphismError("morphisms do not compose")
        self.require_verified()
        other.require_verified()
        ring = morphism_ring(self.ring, other.ring)
        composed_space = self.space_map.then(other.space_map)
        image = set(composed_space.mapping.values())

        flow_maps = {}
        for c in other.target.space.transitions:
            if c not in image:
                continue
            mid_region = other.space_map.fibre(c)
            fibre = composed_space.fibre(c)
            flows = self.source.flows(fibre, ring=ring)
            _, mapper = self._integer_family(mid_region)
            entries = []
            for phi in flows.basis:
                ints, d = mapper(list(phi))
                img = other.flow_image(c, ints)
                entries.append((list(phi), [Fraction(x, d) for x in img]))
            flow_maps[c] = entries

        # each column of the first transport, pushed through the second
        src_axis = self.source.token_axis()
        columns = dict(zip(src_axis, la.transpose(self.marking_transport(), len(src_axis))))
        out_axis = other.target.token_axis()
        mark_maps = {}
        for u in other.target.space.places:
            if u not in image:
                continue
            table = mark_maps[u] = {}
            for lab in self.source.token_axis(composed_space.fibre(u)):
                out_vec = other.map_marking(columns[lab])
                table[lab] = [x for (q, _), x in zip(out_axis, out_vec) if q == u]

        return NetMorphism(
            self.source,
            other.target,
            composed_space,
            flow_maps,
            mark_maps,
            ring=ring,
            name=f"{other.name}.{self.name}",
        )

    def __repr__(self):
        return f"NetMorphism({self.name!r}: {self.source.name!r} -> {self.target.name!r})"


def _routed(effects, rows, dims):
    """Sparse ``effects``, one (pre, post) pair per column, pushed through
    ``rows`` (axis position -> (place, row of length ``dims[place]``)) and
    routed by place: ``{u: (pre, post)}``, each side one pushed row per
    column, for the places ``u`` that some (position, weight) pair reaches.
    Pairs whose position has no row are dropped."""
    out = {}
    for j, sides in enumerate(effects):
        for side, pairs in enumerate(sides):
            for i, w in pairs:
                hit = rows.get(i)
                if hit is not None:
                    u, row = hit
                    routed = out.get(u)
                    if routed is None:
                        routed = out[u] = tuple(
                            [[0] * dims[u] for _ in effects] for _ in range(2)
                        )
                    acc = routed[side][j]
                    for k, x in enumerate(row):
                        acc[k] += w * x
    return out


def morphisms_equal(f, g):
    """Same nets (``same_net``), node map and induced data on the canonical bases.

    Flow maps are compared by their tables of binding images, which are
    the same for every basis of the same map on the fibre flows, mark maps
    entry by entry; an int and a Fraction compare by value.
    """
    if not (same_net(f.source, g.source) and same_net(f.target, g.target)):
        return False
    if f.space_map.mapping != g.space_map.mapping:
        return False
    f.require_verified()
    g.require_verified()
    return all(
        f._integer_flows(a) == g._integer_flows(a) for a in f.image_transitions()
    ) and all(f.mark_maps[u] == g.mark_maps[u] for u in f.image_places())


def identity_morphism(net, name=None):
    return NetMorphism.discrete(
        net,
        net,
        {x: x for x in net.space.nodes},
        lambda x, e: {e: 1},
        ring=net.ring,
        name=name or f"id_{net.name}",
    )


# ---------------------------------------------------------------------------
# Multirelation morphisms of place/transition nets


class WinskelError(ValueError):
    """The multirelation data violates its invariants."""


@dataclass
class WinskelMorphism:
    """A place multirelation plus a partial transition map.

    ``beta`` maps a source place to a multiset of target places (dict with
    positive multiplicities); ``eta`` partially maps transitions to
    transitions.  Nets must carry one token per place and one binding per
    transition.
    """

    source: ColouredNet
    target: ColouredNet
    beta: dict
    eta: dict
    name: str = "w"

    def __post_init__(self):
        for netname, net in (("source", self.source), ("target", self.target)):
            for p in net.space.places:
                if len(net.tokens[p]) != 1:
                    raise WinskelError(f"{netname} is not a place/transition net at {p!r}")
            for t in net.space.transitions:
                if len(net.bindings[t]) != 1:
                    raise WinskelError(f"{netname} is not a place/transition net at {t!r}")
        self.beta = {p: dict(m) for p, m in dict(self.beta).items()}
        self.eta = dict(self.eta)
        for p, multi in self.beta.items():
            if p not in self.source.space.places:
                raise WinskelError(f"beta defined on unknown place {p!r}")
            if not multi:
                raise WinskelError(f"beta({p!r}) is empty; leave it undefined instead")
            for q, k in multi.items():
                if q not in self.target.space.places:
                    raise WinskelError(f"beta({p!r}) hits unknown place {q!r}")
                if k <= 0:
                    raise WinskelError(f"beta({p!r}) has non-positive multiplicity on {q!r}")
        for t, s in self.eta.items():
            if t not in self.source.space.transitions:
                raise WinskelError(f"eta defined on unknown transition {t!r}")
            if s not in self.target.space.transitions:
                raise WinskelError(f"eta({t!r}) hits unknown transition {s!r}")

    def _side(self, net, t, side):
        """The places on one side (0: pre-set, 1: post-set) of ``t``, with weights."""
        axis = net.token_axis()
        return {axis[i][0]: w for i, w in net.effect(t, net.bindings[t][0])[side]}

    def check_invariants(self):
        """beta(pre t) = pre(eta t) and dually for post, as multisets."""
        failures = []
        for t in self.source.space.transitions:
            if t in self.eta:
                for side, word in enumerate(("pre", "post")):
                    pushed = {}
                    for p, k in self._side(self.source, t, side).items():
                        if p not in self.beta:
                            failures.append(
                                f"{word}({t!r}) meets {p!r} outside the domain of beta"
                            )
                            continue
                        for q, m in self.beta[p].items():
                            pushed[q] = pushed.get(q, 0) + k * m
                    want = self._side(self.target, self.eta[t], side)
                    if pushed != want:
                        failures.append(
                            f"beta({word}({t!r})) = {pushed} differs from "
                            f"{word}({self.eta[t]!r}) = {want}"
                        )
            else:
                touching = set(self._side(self.source, t, 0)) | set(
                    self._side(self.source, t, 1)
                )
                bad = touching & set(self.beta)
                if bad:
                    failures.append(
                        f"eta is undefined on {t!r} but beta meets {sorted(bad)}"
                    )
        return failures


@dataclass
class WinskelResult:
    domain: ColouredNet
    merged: ColouredNet
    projection: NetMorphism  # target -> merged, gluing the shared images
    fold: NetMorphism  # domain subnet -> merged


def from_winskel(w):
    """Turn multirelation data into coloured-net morphisms.

    The domain of the data must be a closed subnet of the source.  Target
    places hit by a common source place are glued; a merged place keeps one
    token per contributing place (renamed after those places), so beta
    becomes the linear mark data of a fold onto the merged net, and the
    gluing itself is a place-level modification.
    """
    failures = w.check_invariants()
    if failures:
        raise WinskelError("; ".join(failures))
    src, tgt = w.source, w.target
    dom_nodes = set(w.beta) | set(w.eta)
    if not dom_nodes:
        raise WinskelError("empty domain")
    if not src.space.is_closed(dom_nodes):
        raise WinskelError("the domain of the data is not closed in the source")
    domain = src.subnet(dom_nodes, name=f"{src.name}-dom")

    pairs = []
    for multi in w.beta.values():
        hits = list(multi)
        pairs.extend((hits[0], q) for q in hits[1:])
    qspace, proj_map = quotient_by_pairs(tgt.space, pairs)

    members = {
        u: [y for y in tgt.space.places if proj_map(y) == u] for u in qspace.places
    }
    # singleton classes keep their token name, merged classes take the
    # contributing place names
    token_name = {}
    for u, ys in members.items():
        for y in ys:
            token_name[y] = tgt.tokens[y][0] if len(ys) == 1 else y
    tokens = {u: tuple(token_name[y] for y in ys) for u, ys in members.items()}
    owner = {(u, token_name[y]): y for u, ys in members.items() for y in ys}
    bindings = {t: tgt.bindings[t] for t in qspace.transitions}
    wm, wp = {}, {}
    for kind, out in (("minus", wm), ("plus", wp)):
        for (t, b, y, _c), val in tgt.arcs(kind):
            key = (t, b, proj_map(y), token_name[y])
            out[key] = out.get(key, 0) + val
    merged = ColouredNet(
        qspace,
        bindings,
        tokens,
        wm,
        wp,
        strict=tgt.strict,
        ring=tgt.ring,
        name=f"{tgt.name}-merged",
    )

    projection = NetMorphism.discrete(
        tgt,
        merged,
        {x: proj_map(x) for x in tgt.space.nodes},
        lambda y, e: {token_name[y] if tgt.space.is_place(y) else e: 1},
        name=f"pi_{w.name}",
    )

    node_map = {}
    for x in domain.space.places:
        classes = {proj_map(q) for q in w.beta[x]}
        if len(classes) != 1:
            raise WinskelError(f"beta({x!r}) spreads over several merged places")
        node_map[x] = classes.pop()
    for t in domain.space.transitions:
        node_map[t] = w.eta[t]

    def fold_image(x, e):
        if domain.space.is_transition(x):
            return [1]
        u = node_map[x]
        return [w.beta[x].get(owner[(u, cc)], 0) for cc in merged.tokens[u]]

    fold = NetMorphism.discrete(domain, merged, node_map, fold_image, name=f"g_{w.name}")
    return WinskelResult(domain=domain, merged=merged, projection=projection, fold=fold)

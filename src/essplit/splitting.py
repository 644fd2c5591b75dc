"""The split construction and its closed-form predictions.

Given a binary matroid M on ground set E, a subset X of E and a marked
element e in X, the split matroid lives on E plus two fresh elements:
the representation gains one parity row (1 exactly on the columns of X)
and two columns, ``a`` (a unit vector in the new row) and ``gamma``
(the XOR of the columns of e and a).

Everything the split matroid does (circuits, ranks, closures,
flats) can be predicted from quantities of the base matroid alone.  This
module implements those predictions.  Closures have two predictors, and
each reports which of its cases fired: ``predict_closure`` is the
twelve-entry closed-form table kept verbatim, defects included, and
``closure_rule`` is a six-case rule derived from the parity row that
agrees with the oracle.  Predictions never consult the split matroid
themselves; the oracle comparison is always a separate route, so
disagreements between a predictor and the ground truth surface instead
of being hidden.

Each base quantity the predictors read (rank(A), cl(A), cl(A + e), F, F*
and T under their guards, whether A, A + e or cl(A) holds an odd-overlap
circuit, and the closure shapes) is computed in one place: the record
``_BaseFacts`` of the base part A.  It holds every set as a position
mask (a base element keeps its base position in the split ground, a is
bit n and gamma bit n + 1).  It enumerates no circuit: it reads the
ranks and closures of A, A + e, A + a and A + e + a in N
(``SplitContext.lift``, the base matrix plus the parity row and the
column a = (0, 1), built from the base matrix and X), which hold those
of A and A + e in the base and in M', the base plus the parity row, and
the components of M|cl(A) from fundamental circuits; its docstring
proves each fact and that every predictor reads F* and T under their
guards only.  So a record costs one elimination at any size.  The rank
formula, both closure tables and the flat conditions read A only through
a few predicates, the record's signature, so their rows are evaluated
once per signature and query into a case plan (``_plan``, built on first
use), and a record reads its answers from the plan and its closure from
its shapes.  The four split queries A, A + a, A + gamma and A + a +
gamma share one base part, so one record serves them all.
``_BaseFacts.at`` makes the record of one base part.  ``essplit
check`` makes its records from the eliminations of its oracle, the split
matrix with e, a and gamma as the extras: without gamma that matrix is
N, and the record drops the bit of gamma.

Labels cross into masks at one place, ``SplitContext.mask_of``, and
come back at one place, ``SplitContext.sorted_labels``, in split-ground
order.  ``predict_rank``, ``predict_closure``, ``closure_rule`` and
``predict_is_flat`` take the labels of A' and return their prediction
only: each validates A' through ``mask_of``, splits off the bits of a
and gamma, and reads the record of the base part that is left.

Circuits travel as position masks too.  ``SplitContext`` splits the
base's cached circuit masks by the parity of their overlap with X into
``ox_masks`` and ``ex_masks``, which only ``predict_circuits`` and
``find_ox_subcircuit`` read; ``predict_circuits`` builds the four
classes and trims them to minimal members on masks, and each trim
compares a candidate only with the smaller members of its family.  The
split matrix's columns are the split-ground positions, so the family
compares with the oracle's circuit masks as they are.  Labels appear
only at the boundary: the label sets of ``CircuitFamily`` and of
``BinaryMatroid.circuits()``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence

from .errors import (
    BaseNotFlat,
    ElementNotInX,
    FormulaDisagreement,
    LabelCollision,
    PreconditionViolated,
    UnknownLabel,
)
from .gf2 import GF2Matrix, _bits
from .matroid import BinaryMatroid, _mask_key

#: Identifiers of the closure case table, in evaluation order.  The ids
#: are opaque strings fixed by the JSON report schema.
CLOSURE_CASE_IDS = (
    "L3.2",
    "L3.3",
    "L3.4.1",
    "L3.4.2",
    "L3.5",
    "L3.6",
    "L3.7",
    "L3.8.1",
    "L3.8.2",
    "L3.8.3",
    "L3.8.4",
    "L3.8.5",
)

#: Identifiers of the cases of ``closure_rule``, in evaluation order.
#: Exactly one of them matches any query.
CLOSURE_RULE_CASE_IDS = ("R1.1", "R1.2", "R2", "R3.1", "R3.2", "R3.3")


@dataclass(frozen=True)
class SplitContext:
    """One split instance: base matroid, X, e, and the two fresh labels."""

    base: BinaryMatroid
    x_set: frozenset[str]
    e: str
    label_a: str = "a"
    label_gamma: str = "gamma"

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_set", frozenset(self.x_set))
        ground = set(self.base.ground)
        unknown = self.x_set - ground
        if unknown:
            raise UnknownLabel(f"X contains non-ground labels {sorted(unknown)!r}")
        if self.e not in self.x_set:
            raise ElementNotInX(f"marked element {self.e!r} must belong to X")
        for label in (self.label_a, self.label_gamma):
            if label in ground:
                raise LabelCollision(f"new label {label!r} already names an element")
        if self.label_a == self.label_gamma:
            raise LabelCollision("labels for the two new elements must differ")

    @cached_property
    def split_ground(self) -> tuple[str, ...]:
        return self.base.ground + (self.label_a, self.label_gamma)

    @cached_property
    def _position(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.split_ground)}

    def sort_set(self, labels: Iterable[str]) -> tuple[str, ...]:
        """Labels sorted into the canonical split-ground order."""
        return tuple(self.sorted_labels(self.mask_of(labels)))

    # A subset travels as a mask over split-ground positions.  A base
    # element keeps its base position, so a base mask is a split mask
    # too; a is bit n and gamma bit n + 1.

    def mask_of(self, labels: Iterable[str]) -> int:
        """Position mask of a subset of the split ground; the one place
        where labels are read and checked."""
        position = self._position
        mask = 0
        unknown = set()
        for lab in labels:
            pos = position.get(lab)
            if pos is None:
                unknown.add(lab)
            else:
                mask |= 1 << pos
        if unknown:
            raise UnknownLabel(f"labels {sorted(unknown)!r} are not split elements")
        return mask

    def labels_of(self, mask: int) -> frozenset[str]:
        """Labels of the subset with this mask."""
        return frozenset(self.sorted_labels(mask))

    def sorted_labels(self, mask: int) -> list[str]:
        """Labels of the subset with this mask, in split-ground order."""
        ground = self.split_ground
        return [ground[pos] for pos in _bits(mask)]

    @cached_property
    def e_bit(self) -> int:
        return 1 << self._position[self.e]

    @cached_property
    def a_bit(self) -> int:
        return 1 << len(self.base.ground)

    @cached_property
    def gamma_bit(self) -> int:
        return 2 << len(self.base.ground)

    @cached_property
    def x_mask(self) -> int:
        """Mask of X, which is also the parity row."""
        return self.mask_of(self.x_set)

    @cached_property
    def lift(self) -> BinaryMatroid:
        """N: the base matrix plus the parity row and the column a = (0, 1),
        on the base ground plus a.

        It is the split matroid without gamma, built from the base matrix
        and X alone.  Column z of N is (v_z, [z in X]), with v_z the base
        column of z, and a keeps its split position n.  N without a is
        M', the base plus the parity row, and N/a is the base.
        """
        base = self.base.matrix
        matrix = GF2Matrix(
            base.rows + (self.x_mask | self.a_bit,), base.col_labels + (self.label_a,)
        )
        return BinaryMatroid(matrix, self.base.enumeration_cap)

    @cached_property
    def lift_extras(self) -> tuple[int, int]:
        """The positions of e and of a: the extras of the closures of N
        that ``_BaseFacts`` reads."""
        return (self.e_bit.bit_length() - 1, len(self.base.ground))

    @cached_property
    def _odd_parts(self) -> dict[int, int]:
        return {}

    def odd_part(self, flat: int) -> int:
        """The union of the components of M|S that hold an odd-overlap
        circuit, S the base subset with the mask ``flat``; memoised, as a
        sweep meets each flat of the base many times.

        The components come from the fundamental circuits of a basis of
        S, merged where they meet, and a component holds an odd-overlap
        circuit iff one of its fundamental circuits has odd overlap (see
        ``_BaseFacts``).
        """
        part = self._odd_parts.get(flat)
        if part is None:
            x = self.x_mask
            classes: list[tuple[int, int]] = []
            for c in self.base.fundamental_circuits(flat).values():
                merged, odd = c, (c & x).bit_count() & 1
                apart = []
                for members, parity in classes:
                    if members & c:
                        merged |= members
                        odd |= parity
                    else:
                        apart.append((members, parity))
                apart.append((merged, odd))
                classes = apart
            part = 0
            for members, odd in classes:
                if odd:
                    part |= members
            self._odd_parts[flat] = part
        return part

    @cached_property
    def ox_masks(self) -> tuple[int, ...]:
        """The base circuits of odd overlap with X, as position masks in
        canonical order."""
        x = self.x_mask
        return tuple(c for c in self.base.circuits(masks=True) if (c & x).bit_count() & 1)

    @cached_property
    def ex_masks(self) -> tuple[int, ...]:
        """The other base circuits, of even overlap with X, likewise."""
        ox = set(self.ox_masks)
        return tuple(c for c in self.base.circuits(masks=True) if c not in ox)


@dataclass(frozen=True)
class CircuitFamily:
    """Predicted circuits of the split matroid, grouped by origin.

    ``c0`` keeps the even-overlap circuits of the base, ``c1`` the
    minimal unions of two disjoint odd-overlap circuits, ``c2`` the
    odd-overlap circuits extended by ``a``, ``c3`` the gamma-carrying
    circuits, and ``delta`` is always {e, a, gamma}.

    The family is held as position masks over the split ground (see
    ``SplitContext.mask_of``): ``classes`` holds c0, c1, c2 and c3, each
    in canonical order, ``delta_mask`` the triangle, and ``minimal`` the
    tuple of ``all_circuits()``.  The label sets of the fields above are
    built from the masks on each request.
    """

    ctx: SplitContext
    classes: tuple[tuple[int, ...], ...]
    delta_mask: int
    minimal: tuple[int, ...]

    def _sets(self, masks: tuple[int, ...]) -> tuple[frozenset[str], ...]:
        return tuple(map(self.ctx.labels_of, masks))

    @property
    def c0(self) -> tuple[frozenset[str], ...]:
        return self._sets(self.classes[0])

    @property
    def c1(self) -> tuple[frozenset[str], ...]:
        return self._sets(self.classes[1])

    @property
    def c2(self) -> tuple[frozenset[str], ...]:
        return self._sets(self.classes[2])

    @property
    def c3(self) -> tuple[frozenset[str], ...]:
        return self._sets(self.classes[3])

    @property
    def delta(self) -> frozenset[str]:
        return self.ctx.labels_of(self.delta_mask)

    def all_circuits(self) -> tuple[frozenset[str], ...]:
        """Deduplicated flattened family c0, c1, c2, c3, delta, in that
        order, trimmed to minimal members.

        The trim only ever drops the triangle {e, a, gamma}, and only in
        the degenerate case where e is a loop of the base (gamma then
        duplicates a zero column and {gamma} is itself a circuit).
        """
        return self._sets(self.minimal)


@dataclass(frozen=True)
class ClosureCaseReport:
    """Which closure cases matched a query, and the closure they give
    (None when no case matched)."""

    matched_cases: tuple[str, ...]
    formula_result: frozenset[str] | None


# -- construction ---------------------------------------------------------


def build_split_matrix(ctx: SplitContext) -> GF2Matrix:
    """Representation of the split matroid.

    The base matrix gains a parity row (1 exactly on the columns of X),
    then a column for ``a`` (unit in the new row) and a column for
    ``gamma`` equal to column(e) XOR column(a).
    """
    base = ctx.base.matrix
    n_cols = base.n_cols
    e_word = base.column(ctx.e)
    # gamma repeats e's old entries; the a-column is zero up here.
    rows = [
        row | ((e_word >> i) & 1) << (n_cols + 1) for i, row in enumerate(base.rows)
    ]
    # In the new row: 1 on X, 1 at a, and 0 at gamma (e's 1 cancels a's).
    rows.append(ctx.x_mask | (1 << n_cols))
    return GF2Matrix(tuple(rows), base.col_labels + (ctx.label_a, ctx.label_gamma))


def split_matroid(ctx: SplitContext) -> BinaryMatroid:
    """The split matroid as a brute-force oracle on E + {a, gamma}."""
    return BinaryMatroid(build_split_matrix(ctx), ctx.base.enumeration_cap)


# -- base-side facts ---------------------------------------------------------


class _BaseFacts:
    """The base quantities of one base part A that the predictors read.

    Every set is a position mask (see ``SplitContext.mask_of``): a = A,
    cl = cl(A), cl_e = cl(A + e), f = F, f_star and t = F* and T under
    their guards and 0 off them (see below), and the shapes of both
    closure predictors.  Call a base circuit odd when its overlap with X
    is.  Then

    * F(A) holds the elements of cl(A) - A on an odd circuit inside
      cl(A);
    * F*(A) holds the elements z of cl(A) - A on an odd circuit C with z
      in C inside A + z.  Such a C has C - z inside A, so z is spanned
      by A and no closure is needed;
    * T(A) holds the elements z outside A, z != e, on an odd circuit
      through e that lies inside (A + e) + z.

    rank = rank(A); e_in_cl, ox_a, ox_ae and ox_cl say whether e is in
    cl(A) and whether A, A + e and cl(A) hold an odd circuit.  No circuit
    is enumerated: every fact comes from the ranks and closures of
    M' (the base matrix plus the parity row), written rank' and cl', and
    of the base M, and from fundamental circuits.  All of them are read
    off N (``SplitContext.lift``, M' plus the column a = (0, 1)) at A,
    A + e, A + a and A + e + a: N restricted to E is M', and span_N(A + a)
    = span(A) x GF(2), so cl(A) = cl_N(A + a) - a and rank(A) =
    rank_N(A + a) - 1, and likewise for A + e.

    * Odd cycles.  A cycle is a set whose base columns sum to zero.  In
      a binary matroid a cycle is a disjoint union of circuits, and
      overlaps with X add, so an odd cycle holds an odd circuit.  The
      columns of M' are (v_z, [z in X]), so rank'(S) > rank(S) exactly
      when the parity row is no linear function of the base columns on
      S, that is when S holds an odd cycle.  Hence ox_a is
      rank'(A) > rank(A) and ox_ae is rank'(A + e) > rank(A + e).
    * Components.  Merging the fundamental circuits of a basis B of S
      where they meet gives the components of M|S.  Each fundamental
      circuit lies in one component.  A circuit C is the sum of the
      fundamental circuits of the elements of C - B, and if these fell
      into two groups with no element in common, C would be a disjoint
      union of two nonempty cycles.  The cycles of a component are the
      sums of its fundamental circuits, so it holds an odd circuit iff
      one of them is odd (``SplitContext.odd_part``).  ox_cl: some
      component of M|cl(A) holds an odd circuit.
    * F, the component rule: z in S is on an odd circuit of M|S iff its
      component K does hold one.  One way is clear.  For the other, let D
      in K be odd and z outside D.  Even circuits of M are circuits of
      N, D + a is one (D sums to a, and no nonempty proper subset of D
      sums to 0 or to a), and for a circuit C' of N through a, C' - a is
      an odd circuit of M: it is an odd cycle, and a smaller cycle Z
      inside it would make Z or Z + a a cycle of N strictly inside C'.
      Take y in D and a circuit C of M|S through z and y.  If C is even,
      z, y share the circuit C and y, a share D + a in N|(S + a), so
      some circuit C' of it holds z and a (sharing a circuit is
      transitive, Oxley, Matroid Theory, 4.1.2), and C' - a is odd.  So
      F = (cl(A) - A) & the odd components of M|cl(A).  They depend on
      cl(A) only, and ``odd_part`` keeps them per flat.
    * F*, the fundamental-circuit rule.  Let C_z be the fundamental
      circuit of z in cl(A) - A in B + z, B a basis of A.  F* asks for
      an odd circuit of M|(A + z) through z, so by the component rule z
      is in F* iff z's component in M|(A + z) holds one.  B is a basis
      of A + z too, with the fundamental circuits of M|A and C_z, so z
      is in F* iff C_z is odd or meets an odd component of M|A.  Without
      ox_a no component is odd, and C_z is odd iff z is outside cl'(A):
      the columns of C_z sum to (0, [C_z odd]) in M', and span'(A) lacks
      (0, 1).  So under its guard, no ox_a, F* = cl(A) - cl'(A), kept as
      ``f_star``.  With ox_a, cl'(A) = cl(A) and ``f_star`` is 0, while
      F* need not be empty; every predictor reads F* without ox_a only
      (the bound-parity cases R2 and R3 of ``closure_rule``).
    * T, under its guard: no ox_a and e outside cl(A).  Then A + e holds
      no odd circuit and no circuit through e.  A z in cl(A + e) - cl(A)
      other than e lies on circuits inside A + e + z, all through e and
      z, and all of one parity, as two of them sum to a cycle inside
      A + e; z is in cl'(A + e) iff they are even.  A z in cl(A) - A
      lies on none through e, as it would sum with C_z to a cycle through
      e in A + e.  So T = cl(A + e) - cl(A) - cl'(A + e) - e, kept as
      ``t``.  Off the guard ``t`` is 0, as cl'(A + e) = cl(A + e) or
      cl(A + e) = cl(A), while T need not be empty; every predictor reads
      T under the guard only (L3.6, R3.3 and flat condition 4, and L3.7
      and condition 5, whose no ox_cl implies no ox_a).

    Everything but ``rule_shapes``, which only ``closure_rule`` reads, is
    computed when the record is made, so one record serves all four
    split queries A, A + a, A + gamma and A + a + gamma.  So is
    ``signature``: the predicates the case rows read (``_Key``), shifted
    up by two bits.  The rank formula, both closure predictors and the flat
    conditions of a query depend on A only through them, so each query
    reads its answers from the ``_plan`` of its key, the signature with
    bit 0 set for a in A' and bit 1 for gamma, and takes its closure
    from the shapes.  The public predictors below make a record from the
    base part that ``_query`` splits off their labels.
    """

    __slots__ = (
        "ctx", "a", "rank", "cl", "cl_e", "e_in_cl", "ox_a", "ox_ae", "ox_cl",
        "f", "f_star", "t", "table_shapes", "signature",
    )

    def __init__(self, ctx: SplitContext, a: int, spans: tuple[tuple[int, int], ...]):
        """``a`` is the mask of A; ``spans`` holds (rank, closure mask) in
        N of A, A + e, A + a and A + e + a, as ``closures_at`` and
        ``walk_closures`` of ``SplitContext.lift`` give them with
        ``SplitContext.lift_extras``.  It may hold eight entries, from
        the split matrix with the extras e, a and gamma, whose first four
        are those four plus, at most, the bit of gamma: the split matrix
        without gamma is N.  Only the first four are read, and no fact
        reads a bit at or above a of their closures."""
        e, a_bit, g = ctx.e_bit, ctx.a_bit, ctx.gamma_bit
        (rank_p, cl_p), (rank_pe, cl_pe), (rank, cl), (rank_e, cl_e) = spans[:4]
        # Take a out of the ranks of A + a and A + e + a, and a and gamma
        # out of their closures.
        rank, rank_e = rank - 1, rank_e - 1
        below_a = a_bit - 1
        cl, cl_e = cl & below_a, cl_e & below_a
        self.ctx = ctx
        self.a = a
        self.rank = rank
        self.cl = cl
        self.cl_e = cl_e
        self.e_in_cl = e_in_cl = cl & e != 0
        self.ox_a = ox_a = rank_p > rank
        self.ox_ae = ox_ae = rank_pe > rank_e
        odd = ctx.odd_part(cl)
        self.ox_cl = ox_cl = odd != 0
        self.f = f = odd & ~a
        self.f_star = f_star = cl & ~cl_p
        self.t = t = cl_e & ~cl & ~cl_pe & ~e
        cl_f = cl & ~f
        self.table_shapes = (
            cl_f,
            cl,
            cl | a_bit,
            cl_f | g,
            cl_f | g | t,
            cl | g | t,
            cl | a_bit | e | g,
        )
        # The predicates of ``_Key`` in its order, from bit 2 up.
        self.signature = (
            ox_a << 2
            | ox_ae << 3
            | ox_cl << 4
            | e_in_cl << 5
            | (f_star & e != 0) << 6
            | (f != 0) << 7
            | (t != 0) << 8
            | (a & e != 0) << 9
        )

    @classmethod
    def at(cls, ctx: SplitContext, a: int) -> "_BaseFacts":
        """The record of the base part with the mask ``a``."""
        return cls(ctx, a, ctx.lift.closures_at(a, ctx.lift_extras))

    @property
    def rule_shapes(self) -> tuple[int, ...]:
        """The shapes of ``closure_rule``, made when read: the exhaustive
        sweep reads only ``table_shapes``."""
        a_bit, g = self.ctx.a_bit, self.ctx.gamma_bit
        kept = self.cl & ~self.f_star
        return (
            kept,
            kept | g,
            kept | g | self.t,
            self.cl | a_bit,
            self.cl_e | a_bit | g,
        )

    def plan(self, has_a: bool, has_gamma: bool) -> "_Plan":
        """The plan of the query A plus the new elements named."""
        return _plan(self.signature | (2 if has_gamma else 0) | (1 if has_a else 0))

    def split_rank(self, has_a: bool, has_gamma: bool) -> int:
        """``predict_rank`` of A plus the new elements named."""
        return self.rank + self.plan(has_a, has_gamma).rank

    def table_closure(
        self, has_a: bool, has_gamma: bool
    ) -> tuple[tuple[str, ...], int | None]:
        """Matched case ids and closure mask of ``predict_closure``."""
        cases = self.plan(has_a, has_gamma).table
        return cases.ids, self.closure(cases, self.table_shapes)

    def rule_closure(
        self, has_a: bool, has_gamma: bool
    ) -> tuple[tuple[str, ...], int | None]:
        """Matched case id and closure mask of ``closure_rule``."""
        cases = self.plan(has_a, has_gamma).rule
        return cases.ids, self.closure(cases, self.rule_shapes)

    def closure(self, cases: "_Cases", shapes: tuple[int, ...]) -> int | None:
        """The common result of the matched ``cases``, ``shapes`` being
        the record's shapes of their predictor, or None if none matched.
        Matched cases of distinct shapes are compared here, and the first
        whose shape differs from the first case's raises
        FormulaDisagreement."""
        if cases.shape is not None:
            return shapes[cases.shape]
        if not cases.ids:
            return None
        formula = shapes[cases.shapes[0]]
        for case_id, index in zip(cases.ids, cases.shapes):
            result = shapes[index]
            if result != formula:
                ctx = self.ctx
                a_prime = self.a | (ctx.a_bit if cases.top & 1 else 0)
                a_prime |= ctx.gamma_bit if cases.top & 2 else 0
                raise FormulaDisagreement(
                    f"cases {cases.ids[0]} and {case_id} disagree on "
                    f"A'={sorted(ctx.labels_of(a_prime))}: "
                    f"{sorted(ctx.labels_of(formula))} vs "
                    f"{sorted(ctx.labels_of(result))}"
                )
        return formula


# -- case plans --------------------------------------------------------------


class _Key:
    """A plan key decoded: whether A' holds a and gamma, then the
    predicates of its base part A that the case rows read, bit by bit
    from bit 0.  Above the first two they are the signature of
    ``_BaseFacts``; f and t say that its slots f and t are not empty."""

    __slots__ = (
        "has_a", "has_gamma", "ox_a", "ox_ae", "ox_cl", "e_in_cl", "e_in_f_star",
        "f", "t", "e_in_a",
    )

    def __init__(self, key: int):
        for bit, name in enumerate(self.__slots__):
            setattr(self, name, bool(key >> bit & 1))


class _Cases:
    """The matched cases of one closure predictor at one plan key: the
    key's two low bits ``top``, the ids of the cases in row order, the
    index of each one's shape, and their one ``shape`` index, None if no
    case matched or their shapes differ."""

    __slots__ = ("top", "ids", "shapes", "shape")

    def __init__(self, top: int, rows: tuple[tuple[str, bool, int], ...]):
        matched = [(case_id, shape) for case_id, hit, shape in rows if hit]
        self.top = top
        self.ids = tuple(case_id for case_id, _ in matched)
        self.shapes = tuple(shape for _, shape in matched)
        self.shape = self.shapes[0] if len(set(self.shapes)) == 1 else None


class _Plan:
    """What every predictor gives at one plan key, the signature of
    ``_BaseFacts`` with bit 0 set for a in A' and bit 1 for gamma: the
    cases of ``predict_closure`` (``table``) and of ``closure_rule``
    (``rule``), the flat condition of ``predict_is_flat`` and
    ``predict_rank`` minus rank(A), from the rows below as written."""

    __slots__ = ("table", "rule", "flat", "rank")

    def __init__(self, key: int):
        k = _Key(key)
        self.table = _Cases(key & 3, _table_rows(k))
        self.rule = _Cases(key & 3, _rule_rows(k))
        self.flat = _flat_condition(k)
        self.rank = _rank_offset(k)


#: The plan of a key, built on its first use.
_plan = cache(_Plan)


def _table_rows(k: _Key) -> tuple[tuple[str, bool, int], ...]:
    """The twelve-case table of ``predict_closure``: (id, whether its
    condition holds, index of its result in ``table_shapes``)."""
    cl_f, cl, cl_a, cl_f_g, cl_f_g_t, cl_g_t, cl_aeg = range(7)
    has_a, has_gamma = k.has_a, k.has_gamma
    ox_a, ox_ae, ox_cl, e_in_cl = k.ox_a, k.ox_ae, k.ox_cl, k.e_in_cl
    plain = not has_a and not has_gamma
    with_a = has_a and not has_gamma
    with_g = has_gamma and not has_a
    with_ag = has_a and has_gamma
    return (
        ("L3.2", plain and not ox_ae, cl_f),
        ("L3.3", plain and not ox_cl, cl),
        ("L3.4.1", plain and ox_a and not e_in_cl, cl_a),
        ("L3.4.2", with_a and not e_in_cl, cl_a),
        ("L3.5", plain and ox_ae and not ox_a, cl_f_g),
        ("L3.6", with_g and not e_in_cl and ox_cl and not ox_a, cl_f_g_t),
        ("L3.7", with_g and not ox_cl and not e_in_cl, cl_g_t),
        ("L3.8.1", with_ag, cl_aeg),
        ("L3.8.2", with_a and e_in_cl, cl_aeg),
        ("L3.8.3", with_g and ox_a, cl_aeg),
        ("L3.8.4", with_g and e_in_cl, cl_aeg),
        ("L3.8.5", plain and ox_a and e_in_cl, cl_aeg),
    )


def _rule_rows(k: _Key) -> tuple[tuple[str, bool, int], ...]:
    """The six cases of ``closure_rule``: (id, whether its condition
    holds, index of its result in ``rule_shapes``)."""
    kept, kept_g, kept_g_t, cl_a, cl_e_ag = range(5)
    has_a, has_gamma, e_in_cl, e_in_f_star = k.has_a, k.has_gamma, k.e_in_cl, k.e_in_f_star
    free = has_a or k.ox_a
    bound_g = has_gamma and not free
    # With e in cl(A), cl(A + e) + {a, gamma} is cl(A) + {a, gamma}.
    return (
        ("R1.1", free and not has_gamma, cl_e_ag if e_in_cl else cl_a),
        ("R1.2", free and has_gamma, cl_e_ag),
        ("R2", not free and not has_gamma, kept_g if e_in_f_star else kept),
        ("R3.1", bound_g and e_in_f_star, kept_g),
        ("R3.2", bound_g and e_in_cl and not e_in_f_star, cl_e_ag),
        ("R3.3", bound_g and not e_in_cl, kept_g_t),
    )


def _flat_condition(k: _Key) -> int | None:
    """The number of the first of the six sufficient flat conditions of
    ``predict_is_flat`` that holds, or None."""
    has_a, has_gamma = k.has_a, k.has_gamma
    ox_a, ox_ae, ox_cl, e_in_cl, f, t = k.ox_a, k.ox_ae, k.ox_cl, k.e_in_cl, k.f, k.t
    plain = not has_a and not has_gamma
    with_a = has_a and not has_gamma
    with_g = has_gamma and not has_a
    with_ag = has_a and has_gamma
    conditions = (
        plain and not ox_ae and not f,
        plain and not ox_cl,
        with_a and not e_in_cl,
        with_g and not e_in_cl and ox_cl and not ox_a and not f and not t,
        with_g and not ox_cl and not e_in_cl and not t,
        with_ag and k.e_in_a,
    )
    for number, satisfied in enumerate(conditions, start=1):
        if satisfied:
            return number
    return None


def _rank_offset(k: _Key) -> int:
    """``predict_rank`` minus rank(A)."""
    if not k.has_gamma:
        if k.has_a:
            return 1
        return 1 if k.ox_a else 0
    if not k.has_a:
        if not k.ox_a and k.ox_ae:
            return 0
        if k.ox_a and not k.e_in_cl:
            return 2
        return 1
    return 1 if k.e_in_cl else 2


def _query(ctx: SplitContext, labels: Iterable[str]) -> tuple[int, bool, bool]:
    """The mask of the base part A of the query A' with these labels,
    and whether A' holds a and whether it holds gamma."""
    mask = ctx.mask_of(labels)
    return mask & (ctx.a_bit - 1), bool(mask & ctx.a_bit), bool(mask & ctx.gamma_bit)


def _circuit_mask(ctx: SplitContext, labels: Iterable[str]) -> int:
    """``ctx.mask_of(labels)``, or -1, which is no subset, when a label
    lies outside the split ground."""
    try:
        return ctx.mask_of(labels)
    except UnknownLabel:
        return -1


def find_ox_subcircuit(
    ctx: SplitContext,
    c_ox: Iterable[str],
    c_ex: Iterable[str],
    a: Iterable[str],
) -> frozenset[str]:
    """Odd-overlap circuit inside A found in the symmetric difference of
    an odd-overlap and an even-overlap circuit through e.

    Both input circuits must pass through e and lie inside A + e.  The
    symmetric difference never contains e, has odd overlap with X, and
    therefore carries an odd-overlap circuit; its absence would mean the
    inputs were not what the contract demands, so it is asserted.  The
    checks and the search run on ``SplitContext.ox_masks`` and
    ``ex_masks``; a set with a label outside the base ground is no
    circuit.
    """
    p, q = _circuit_mask(ctx, c_ox), _circuit_mask(ctx, c_ex)
    a = frozenset(a)
    a_mask = _circuit_mask(ctx, a)
    if not 0 <= a_mask < ctx.a_bit:
        outside = sorted(a - set(ctx.base.ground))
        raise UnknownLabel(f"labels {outside!r} are not base elements")
    e = ctx.e_bit
    outside_ae = ~(a_mask | e)
    ox, ex = set(ctx.ox_masks), set(ctx.ex_masks)
    checks = (
        (p in ox or p in ex, "c_ox is not a circuit"),
        (q in ox or q in ex, "c_ex is not a circuit"),
        (p in ox, "c_ox has even overlap with X"),
        (q in ex, "c_ex has odd overlap with X"),
        (p & e, "e is missing from c_ox"),
        (q & e, "e is missing from c_ex"),
        (not p & outside_ae, "c_ox is not inside A + e"),
        (not q & outside_ae, "c_ex is not inside A + e"),
    )
    for ok, reason in checks:
        if not ok:
            raise PreconditionViolated(reason)
    diff = p ^ q
    for c in ctx.ox_masks:
        if c & diff == c:
            return ctx.labels_of(c)
    raise AssertionError(
        "no odd-overlap circuit inside the symmetric difference; "
        "this contradicts the construction and signals a bug"
    )


# -- predictions ------------------------------------------------------------


def predict_circuits(ctx: SplitContext) -> CircuitFamily:
    """Circuits of the split matroid, computed from base circuits only.

    The gamma-carrying class is generated generously and then trimmed to
    its inclusion-minimal members against the whole family.  Every
    generated candidate is dependent in the split (a parity argument on
    the appended row) and the candidate set covers every true circuit,
    so the minimal candidates are exactly the circuit set; the split
    matroid itself is never consulted.

    Everything runs on position masks, from ``SplitContext.ox_masks``
    and ``ex_masks``: p and q are disjoint when ``p & q`` is 0, and o
    lies inside c when ``o & c == o``.  Labels are built only by the
    label views of the family.
    """
    ox, c0 = ctx.ox_masks, ctx.ex_masks
    e, a, gamma = ctx.e_bit, ctx.a_bit, ctx.gamma_bit
    order = _mask_key(len(ctx.split_ground))

    holds_ex = _inside(c0)
    unions = {
        first | second
        for i, first in enumerate(ox)
        for second in ox[i + 1 :]
        if not first & second
    }
    c1 = tuple(
        sorted(_minimal(u for u in unions if not holds_ex(u)), key=order)
    )

    # a is above every base position, so adding it keeps the order.
    c2 = tuple(c | a for c in ox)

    delta = e | a | gamma
    # C + {e, gamma} when e is not in C, C - e + gamma when it is.
    c3_candidates = {(c ^ e) | gamma for c in ox}
    # e is in X, so a circuit through e has odd overlap with X outside e
    # exactly when it has even overlap with X.
    ex_through_e = [c for c in c0 if c & e]
    c3_candidates.update((c ^ e) | a | gamma for c in ex_through_e)
    # An even-overlap circuit through e plus a disjoint odd-overlap
    # circuit also yields a gamma circuit; single circuits miss these.
    c3_candidates.update(
        (c_even ^ e) | c_odd | gamma
        for c_even in ex_through_e
        for c_odd in ox
        if not c_even & c_odd
    )

    minimal = _minimal({*c0, *c1, *c2, *c3_candidates, delta})
    c3 = tuple(sorted(c3_candidates & minimal, key=order))
    # A member of the family with a proper subset among all candidates
    # has a minimal one among them too, and every minimal candidate is
    # in the family; so trimming against the candidates is trimming
    # within the family.
    family = dict.fromkeys((*c0, *c1, *c2, *c3, delta))
    return CircuitFamily(
        ctx=ctx,
        classes=(c0, c1, c2, c3),
        delta_mask=delta,
        minimal=tuple(c for c in family if c in minimal),
    )


def _inside(family: Sequence[int]) -> Callable[[int], int]:
    """A function from a mask to the bitmap of the members of ``family``
    inside it, bit i standing for ``family[i]``.

    ``holders[p]`` marks the members that hold position p.  A member
    lies inside a mask exactly when no position outside the mask holds
    it, so one OR per position outside answers for all members at once.
    """
    holders = [0] * max(family, default=0).bit_length()
    for i, member in enumerate(family):
        for pos in _bits(member):
            holders[pos] |= 1 << i
    everyone = (1 << len(family)) - 1

    def inside(mask: int) -> int:
        outside = 0
        for pos, held in enumerate(holders):
            if not mask >> pos & 1:
                outside |= held
        return everyone & ~outside

    return inside


def _minimal(family: Iterable[int]) -> set[int]:
    """The members of ``family`` with no proper subset in it.

    A proper subset has fewer elements, so each member is compared only
    with the members of strictly smaller size: sorted by size, those
    come before the first member of its own size.
    """
    members = sorted(set(family), key=int.bit_count)
    sizes = [member.bit_count() for member in members]
    inside = _inside(members)
    return {
        member
        for member in members
        if not inside(member) & ((1 << bisect_left(sizes, member.bit_count())) - 1)
    }


def predict_rank(ctx: SplitContext, labels: Iterable[str]) -> int:
    """Rank of the subset A' with these labels in the split matroid,
    from base-side quantities.

    Dispatches on which of the new elements A' carries; the gamma-only
    case evaluates its three branches in the fixed order of
    ``_rank_offset``.
    """
    a, has_a, has_gamma = _query(ctx, labels)
    return _BaseFacts.at(ctx, a).split_rank(has_a, has_gamma)


def predict_closure(ctx: SplitContext, labels: Iterable[str]) -> ClosureCaseReport:
    """Evaluate the full closure case table for the subset A' with these
    labels.

    Every case precondition is tested (not just the first hit) so that
    overlaps between cases are visible; if two matched cases disagree on
    the resulting set the call aborts with FormulaDisagreement.  When no
    case matches, the report carries no formula.
    """
    return _report(ctx, labels, _BaseFacts.table_closure)


def closure_rule(ctx: SplitContext, labels: Iterable[str]) -> ClosureCaseReport:
    """Closure of A' in the split matroid from base data, by the parity row.

    In the split representation a base element z has the column
    (v_z, [z in X]), ``a`` has (0, 1) and ``gamma`` has (v_e, 0), where
    v_z is z's base column.  A is the base part of A'.

    Free parity (R1).  If a is in A', or A holds an odd-overlap circuit
    (its columns sum to (0, 1)), the span of A' contains (0, 1) and is
    span(B) x GF(2), with B = A plus e when gamma is in A'.  So a base
    element joins iff it is in cl(B), a joins, and gamma joins iff e is
    in cl(B).  R1.1 (no gamma): cl(A) + a, plus gamma when e is in cl(A).
    R1.2 (gamma): cl(A + e) + {a, gamma}.

    Bound parity.  Otherwise every circuit inside A has even overlap with
    X, so the parity row is a well-defined linear functional phi on
    span(A) with phi(v_z) = [z in X] for z in A, and the span of A is the
    graph of phi.  An element z of cl(A) - A lies on a circuit C inside
    A + z; v_z is the sum of C - z, so phi(v_z) = |(C - z) & X| mod 2,
    and z joins iff that equals [z in X], that is iff C has even overlap
    with X.  phi is well defined, so every such C has the same parity:
    z drops out exactly when it is in F*(A) (see ``_BaseFacts``).  gamma
    joins iff phi(v_e) = 0 with v_e in span(A), which (e being in X) is
    again iff e is in F*(A); a never joins.  R2 (no gamma): cl(A) - F*,
    plus gamma when e is in F*.  With gamma the span gains (v_e, 0):

    * R3.1, e in F*: phi(v_e) = 0, so (v_e, 0) is already in the span
      and the closure is (cl(A) - F*) + gamma.
    * R3.2, e in cl(A) - F*: phi(v_e) = 1, so (v_e, 0) + (v_e, 1) =
      (0, 1) frees the parity: cl(A) + {a, gamma}.
    * R3.3, e not in cl(A): phi extends to span(A + e) by phi(v_e) = 0.
      An element z != e of cl(A + e) - cl(A) lies on a circuit C through
      e inside A + e + z, and phi(v_z) = |(C - z - e) & X| mod 2, so z
      joins iff C has odd overlap with X: exactly when z is in T(A).
      The closure is (cl(A) - F*) + gamma + T(A).

    The cases are mutually exclusive and cover every query, and each
    result is one of five shapes: cl - F*, (cl - F*) + gamma,
    (cl - F*) + gamma + T, cl + a and cl(A + e) + {a, gamma}, with cl
    = cl(A) (``_BaseFacts.rule_shapes``).  Only base data is read:
    cl(A), cl(A + e), whether A holds an odd-overlap circuit, F* and T,
    each from ranks and closures of the base and of M' (``_BaseFacts``).

    The rule parts from the twelve-case table of ``predict_closure`` in
    three ways: the table uses cl(A) where cl(A + e) is due (L3.8.1,
    L3.8.3); its F takes odd-overlap circuits anywhere inside cl(A)
    rather than circuits through z inside A + z (L3.2, L3.5, L3.6); and
    L3.8.4 claims a and e whenever e is in cl(A), also when e is in F*.
    PAPER.md holds only the paper's abstract, so whether these faults
    come from the paper or from its transcription is not settled here.
    """
    return _report(ctx, labels, _BaseFacts.rule_closure)


def _report(
    ctx: SplitContext,
    labels: Iterable[str],
    closure: Callable[[_BaseFacts, bool, bool], tuple[tuple[str, ...], int | None]],
) -> ClosureCaseReport:
    """The matched case ids and closure of one closure predictor, a
    method of ``_BaseFacts``, at the query with these labels."""
    a, has_a, has_gamma = _query(ctx, labels)
    matched, mask = closure(_BaseFacts.at(ctx, a), has_a, has_gamma)
    return ClosureCaseReport(matched, None if mask is None else ctx.labels_of(mask))


def predict_is_flat(ctx: SplitContext, labels: Iterable[str]) -> int | None:
    """First satisfied sufficient flat condition (1..6) for the subset
    A' with these labels, or None.

    Requires the base part A of A' to be a flat of the base matroid,
    which is checked on its record.  A None return says nothing either
    way; callers needing a complete answer fall back to the oracle's
    ``is_flat``.
    """
    a, has_a, has_gamma = _query(ctx, labels)
    facts = _BaseFacts.at(ctx, a)
    if facts.cl != a:
        raise BaseNotFlat(
            f"{sorted(ctx.labels_of(a))} is not a flat of the base matroid"
        )
    return facts.plan(has_a, has_gamma).flat

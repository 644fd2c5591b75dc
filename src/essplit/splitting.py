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
guards only.  So a record costs one elimination at any size.  Every
fact but F and whether e is in A reads A only through its spans, which
the span of A in N fixes: these facts are the record's span part
(``_BaseFacts._span_part``), which ``essplit check`` derives once per
span, in the memo of its walk.  A sweep's 2^n base parts share far
fewer spans, and a part adds only F, the three table shapes on
cl(A) - F and two signature bits.  The rank formula, both closure
tables and the flat conditions read A only through a few predicates,
the record's signature, so their rows are evaluated once per signature
into four plans, one per query shape (``_plans``, built on first use),
and a record reads its answers from a plan and its closure from its
shapes.  A split query is (A, top): its base part and its two top
bits, a in bit 0 and gamma in bit 1, so A' is A | top << n and the four
queries of one A share its record and its signature's plans.
``_BaseFacts.at`` makes the record of one base part.  ``essplit
check`` makes its records from the eliminations of its oracle, the split
matrix with e, a and gamma as the extras: without gamma that matrix is
N, and the record drops the bit of gamma.

Labels cross into masks at one place, ``SplitContext.mask_of``, and
come back at one place, ``SplitContext.sorted_labels``, in split-ground
order.  ``predict_rank``, ``predict_closure``, ``closure_rule`` and
``predict_is_flat`` take the labels of A' and return their prediction
only: each validates A' through ``mask_of``, splits it into the query
(A, top) and reads the record of A and the plan of top.

Circuits travel as position masks too.  ``SplitContext`` splits the
base's cached circuit masks by the parity of their overlap with X into
``ox_masks`` and ``ex_masks``, which only ``predict_circuits`` and
``find_ox_subcircuit`` read; ``predict_circuits`` builds the
candidates of every class and, in one pass on masks, trims to minimal
members only the kinds that can fail, comparing each with the smaller
candidates of every kind.  ``CircuitFamily`` holds masks only.  The
split matrix's columns are the split-ground positions, so the family
compares with the oracle's circuit masks as they are.  Labels appear
only at the boundary: ``SplitContext.labels_of`` and ``sorted_labels``,
and ``BinaryMatroid.circuits()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable

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
        x = self.x_mask
        return tuple(c for c in self.base.circuits(masks=True) if not (c & x).bit_count() & 1)


@dataclass(frozen=True)
class CircuitFamily:
    """Predicted circuits of the split matroid, grouped by origin, as
    position masks over the split ground (see ``SplitContext.mask_of``).

    ``classes`` holds c0, the even-overlap circuits of the base; c1, the
    minimal unions of two disjoint odd-overlap circuits; c2, the
    odd-overlap circuits extended by a; and c3, the gamma-carrying
    circuits, each in canonical order.  ``delta_mask`` is the triangle
    {e, a, gamma}, and ``minimal`` is c0, c1, c2, c3 and delta, in that
    order, with the members that hold a smaller one left out: that only
    ever drops the triangle, and only when e is a loop of the base
    (gamma then duplicates a zero column and {gamma} is itself a
    circuit).  ``SplitContext.labels_of`` and ``sorted_labels`` give the
    labels of a mask.
    """

    classes: tuple[tuple[int, ...], ...]
    delta_mask: int
    minimal: tuple[int, ...]


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
    cl = cl(A), f = F, and ``shapes``: the table's seven closure shapes
    (0-6) and then the rule's five (7-11).  cl(A + e), and F* and T under
    their guards and 0 off them (see below), are entries 2-4 of the span
    part (``_span_part``), which the shapes and the signature read; the
    record does not keep them.  Call a base circuit odd when its overlap
    with X is.  Then

    * F(A) holds the elements of cl(A) - A on an odd circuit inside
      cl(A);
    * F*(A) holds the elements z of cl(A) - A on an odd circuit C with z
      in C inside A + z.  Such a C has C - z inside A, so z is spanned
      by A and no closure is needed;
    * T(A) holds the elements z outside A, z != e, on an odd circuit
      through e that lies inside (A + e) + z.

    rank = rank(A).  The predicates e_in_cl, ox_a, ox_ae and ox_cl say
    whether e is in cl(A) and whether A, A + e and cl(A) hold an odd
    circuit; the record keeps them only in ``signature``, which ``_Key``
    decodes.  No circuit is enumerated: every fact comes from the ranks
    and closures of M' (the base matrix plus the parity row), written
    rank' and cl', and of the base M, and from fundamental circuits.
    All of them are read off N (``SplitContext.lift``, M' plus the
    column a = (0, 1)) at A, A + e, A + a and A + e + a: N restricted to
    E is M', and span_N(A + a) = span(A) x GF(2), so cl(A) =
    cl_N(A + a) - a and rank(A) = rank_N(A + a) - 1, and likewise for
    A + e.

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
      (0, 1).  So under its guard, no ox_a, F* = cl(A) - cl'(A), the
      span part's ``f_star``.  With ox_a, cl'(A) = cl(A) and ``f_star``
      is 0, while F* need not be empty; every predictor reads F* without
      ox_a only (the bound-parity cases R2 and R3 of ``closure_rule``).
    * T, under its guard: no ox_a and e outside cl(A).  Then A + e holds
      no odd circuit and no circuit through e.  A z in cl(A + e) - cl(A)
      other than e lies on circuits inside A + e + z, all through e and
      z, and all of one parity, as two of them sum to a cycle inside
      A + e; z is in cl'(A + e) iff they are even.  A z in cl(A) - A
      lies on none through e, as it would sum with C_z to a cycle through
      e in A + e.  So T = cl(A + e) - cl(A) - cl'(A + e) - e, the span
      part's ``t``.  Off the guard ``t`` is 0, as cl'(A + e) = cl(A + e) or
      cl(A + e) = cl(A), while T need not be empty; every predictor reads
      T under the guard only (L3.6, R3.3 and flat condition 4, and L3.7
      and condition 5, whose no ox_cl implies no ox_a).

    Everything is computed when the record is made, so one record
    serves the four split queries (A, top), top holding a in bit 0 and
    gamma in bit 1.  So is ``signature``: the predicates the case rows
    read (``_Key``), shifted up by two bits.  Every fact above but F and
    ``e_in_a``, the signature's bits 7 and 9, reads the spans only, and
    so the span of A in N only: the span part, which ``_span_part``
    derives from the spans and the record takes as given.  ``at``
    derives it for one part, and ``essplit check`` once per span, in the
    memo of its walk (``BinaryMatroid.walk_closures``), so the records
    of one span share it.  A record adds F = odd part - A, the table
    shapes cl - F, cl - F + gamma and cl - F + gamma + T, and those two
    bits.
    The rank formula, both closure predictors and the flat conditions of
    a query depend on A only through the signature and top, so each
    query reads its answers from the plan of its top among the
    signature's four (``_plans``), and takes its closure from the
    shapes.  The public predictors below read the record of the A that
    ``_query`` splits off their labels, and the plan of its top.
    """

    __slots__ = ("ctx", "a", "rank", "cl", "f", "shapes", "signature")

    def __init__(self, ctx: SplitContext, a: int, span: tuple):
        """``a`` is the mask of A and ``span`` the span part of its spans
        (``_span_part``)."""
        (
            self.rank, cl, _, _, _, odd, cl_a, cl_g_t,
            cl_aeg, g_t, kept, kept_g, kept_g_t, cl_e_ag, signature,
        ) = span
        # What A adds to its span part: F, three table shapes, two bits.
        self.ctx = ctx
        self.a = a
        self.cl = cl
        self.f = f = odd & ~a
        cl_f = cl & ~f
        self.shapes = (
            cl_f, cl, cl_a, cl_f | ctx.gamma_bit, cl_f | g_t, cl_g_t, cl_aeg,
            kept, kept_g, kept_g_t, cl_a, cl_e_ag,
        )
        self.signature = signature | (f != 0) << 7 | (a & ctx.e_bit != 0) << 9

    @staticmethod
    def _span_part(ctx: SplitContext, spans: tuple[tuple[int, int], ...]) -> tuple:
        """The facts that ``spans`` alone gives, for every base part A
        with these spans: rank, cl, cl_e, f_star and t, the odd part of
        cl(A), the table shapes cl + a, cl + gamma + T and
        cl + {a, e, gamma}, gamma + T, the rule's shapes but cl + a, and
        the signature but for its bits of F and of e in A.

        ``spans`` holds (rank, closure mask) in N of A, A + e, A + a and
        A + e + a, as ``closures_at`` and ``walk_closures`` of
        ``SplitContext.lift`` give them with ``SplitContext.lift_extras``.
        It may hold eight entries, from the split matrix with the extras
        e, a and gamma, whose first four are those four plus, at most,
        the bit of gamma: the split matrix without gamma is N.  Only the
        first four are read, and no fact reads a bit at or above a of
        their closures."""
        e, a_bit, g = ctx.e_bit, ctx.a_bit, ctx.gamma_bit
        (rank_p, cl_p), (rank_pe, cl_pe), (rank, cl), (rank_e, cl_e) = spans[:4]
        # Take a out of the ranks of A + a and A + e + a, and a and gamma
        # out of their closures.
        rank, rank_e = rank - 1, rank_e - 1
        below_a = a_bit - 1
        cl, cl_e = cl & below_a, cl_e & below_a
        e_in_cl = cl & e != 0
        ox_a = rank_p > rank
        ox_ae = rank_pe > rank_e
        odd = ctx.odd_part(cl)
        ox_cl = odd != 0
        f_star = cl & ~cl_p
        t = cl_e & ~cl & ~cl_pe & ~e
        # The predicates of ``_Key`` in its order, from bit 2 up, but for
        # f (bit 7) and e_in_a (bit 9).
        signature = (
            ox_a << 2
            | ox_ae << 3
            | ox_cl << 4
            | e_in_cl << 5
            | (f_star & e != 0) << 6
            | (t != 0) << 8
        )
        kept = cl & ~f_star
        return (
            rank, cl, cl_e, f_star, t, odd, cl | a_bit, cl | g | t, cl | a_bit | e | g,
            g | t, kept, kept | g, kept | g | t, cl_e | a_bit | g, signature,
        )

    @classmethod
    def at(cls, ctx: SplitContext, a: int) -> "_BaseFacts":
        """The record of the base part with the mask ``a``."""
        spans = ctx.lift.closures_at(a, ctx.lift_extras)
        return cls(ctx, a, cls._span_part(ctx, spans))

    def closure(self, cases: "_Cases") -> int | None:
        """The common result of the matched ``cases``, read from
        ``shapes``, or None if none matched.  Matched cases of distinct
        shapes are compared here, and the first whose shape differs from
        the first case's raises FormulaDisagreement."""
        if cases.shape is not None:
            return self.shapes[cases.shape]
        if not cases.ids:
            return None
        formula = self.shapes[cases.shapes[0]]
        for case_id, index in zip(cases.ids, cases.shapes):
            result = self.shapes[index]
            if result != formula:
                ctx = self.ctx
                a_prime = self.a | cases.top * ctx.a_bit
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
    ``_BaseFacts``, the one place its predicates are kept; f and t say
    that its slots f and t are not empty.  Only 15 of the 256 signatures
    occur, those that keep six rules (by the facts ``_BaseFacts`` proves):

    * ox_a => ox_ae => ox_cl: an odd circuit C in A + e lies in A, or
      has C - e in A and so lies in cl(A).
    * e_in_f_star <=> ox_ae and not ox_a: f_star is 0 with ox_a, and
      without it ox_ae says that e is in cl(A) - cl'(A), which is F*.
    * e_in_f_star => e_in_cl and not e_in_a: F* lies in cl(A) - A.
    * f => ox_cl, and without ox_a f <=> ox_cl: F lies in the odd part
      of cl(A), and without ox_a no odd component lies inside A.
    * t => not ox_a and not e_in_cl: t is 0 off its guard.
    * e_in_a => e_in_cl: A lies in cl(A).
    """

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


@cache
def _plans(signature: int) -> tuple[tuple, ...]:
    """What every predictor gives at the four plan keys signature | top
    of a ``_BaseFacts`` signature, a in bit 0 of top and gamma in bit 1,
    from the rows below as written: per top, the tuple (shape index and
    cases of ``predict_closure``, ``predict_rank`` minus rank(A), flat
    condition of ``predict_is_flat``, cases of ``closure_rule``).  Every
    predictor, ``flats`` and ``check`` unpack these plans.  They are
    plain tuples: ``check`` unpacks one per query, and CPython unpacks a
    tuple subclass, such as a ``NamedTuple``, on its slow path."""
    plans = []
    for top in range(4):
        k = _Key(signature | top)
        table = _Cases(top, _table_rows(k))
        plans.append(
            (table.shape, table, _rank_offset(k), _flat_condition(k),
             _Cases(top, _rule_rows(k)))
        )
    return tuple(plans)


def _table_rows(k: _Key) -> tuple[tuple[str, bool, int], ...]:
    """The twelve-case table of ``predict_closure``: (id, whether its
    condition holds, index of its result in ``_BaseFacts.shapes``, 0-6)."""
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
    holds, index of its result in ``_BaseFacts.shapes``, 7-11)."""
    kept, kept_g, kept_g_t, cl_a, cl_e_ag = range(7, 12)
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


#: Identifiers of the closure case table, in evaluation order.  The ids
#: are opaque strings fixed by the JSON report schema.
CLOSURE_CASE_IDS = tuple(case_id for case_id, _, _ in _table_rows(_Key(0)))

#: Identifiers of the cases of ``closure_rule``, in evaluation order.
#: Exactly one of them matches any query.
CLOSURE_RULE_CASE_IDS = tuple(case_id for case_id, _, _ in _rule_rows(_Key(0)))


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


def _query(ctx: SplitContext, labels: Iterable[str]) -> tuple[_BaseFacts, tuple]:
    """The record and the plan of the query (A, top) of A' with these
    labels: A is its base part, and top its two top bits, a in bit 0
    and gamma in bit 1."""
    mask = ctx.mask_of(labels)
    facts = _BaseFacts.at(ctx, mask & (ctx.a_bit - 1))
    return facts, _plans(facts.signature)[mask >> len(ctx.base.ground)]


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

    The candidates are c0, the even-overlap base circuits; every union
    of two disjoint odd-overlap circuits; c2, each odd-overlap circuit
    plus a; four kinds of gamma candidate; and delta.  Every candidate
    is dependent in the split (a parity argument on the appended row)
    and the candidates cover every true circuit, so the minimal
    candidates are exactly the circuit set; the split matroid itself is
    never consulted.  c1 and c3 are the unions and the gamma candidates
    that are minimal.

    In the split a base element z has the column (v_z, [z in X]), a has
    (0, 1) and gamma (v_e, 0); e is in X.  Four kinds of candidate are
    circuits by construction, so the trim tests only the others, against
    every candidate:

    * c0: an even-overlap base circuit sums to (0, 0), and its proper
      subsets are independent in the base.
    * c2, C + a for an odd-overlap C: C + a sums to 0, and a dependent
      proper subset would need a nonempty base cycle strictly inside C,
      alone or summing to (0, 1) with a.
    * (C - e) + gamma for an odd-overlap C through e: C - e is
      independent and sums to (v_e, 0) = gamma, and a proper subset of
      C - e summing to gamma would make a base cycle strictly inside C.
    * (C - e) + a + gamma for an even-overlap C through e: C - e sums to
      (v_e, 1), so with a to gamma.  C - e + a is independent, since
      C - e holds no cycle, and a set S inside C - e summing to (v_e, 1)
      or to (v_e, 0) makes S + e a base cycle inside C, so S = C - e,
      whose sum is (v_e, 1).

    The tested candidates are the unions, C + e + gamma for an
    odd-overlap C without e, the mixed (D - e) + C + gamma for an
    even-overlap D through e and an odd-overlap C disjoint from it, and
    delta.  For c1 the trim is the rule of its definition: a union
    holds no even-overlap circuit and no smaller union.  A candidate
    strictly inside a union holds neither a nor gamma, so it is an
    even-overlap circuit or a smaller union, as no odd-overlap circuit
    is a candidate.  The classes are disjoint, so ``minimal`` lists each
    circuit once: c0 and the unions hold neither a nor gamma, and no
    union is a circuit of the base; c2 holds a but not gamma; c3 holds
    gamma; and delta is in no class, since a gamma candidate holding a
    comes from an even-overlap circuit through e, never {e}, whose
    overlap with X is odd.

    Everything runs on position masks, from ``SplitContext.ox_masks``
    and ``ex_masks``: p and q are disjoint when ``p & q`` is 0, and o
    lies inside c when ``o & c == o``.
    """
    ox, c0 = ctx.ox_masks, ctx.ex_masks
    e, a, gamma = ctx.e_bit, ctx.a_bit, ctx.gamma_bit
    order = _mask_key(len(ctx.split_ground))

    unions = {
        first | second
        for i, first in enumerate(ox)
        for second in ox[i + 1 :]
        if not first & second
    }
    # a is above every base position, so adding it keeps the order.
    c2 = tuple(c | a for c in ox)
    delta = e | a | gamma
    # e is in X, so a circuit through e has odd overlap with X outside e
    # exactly when it has even overlap with X.
    ex_through_e = [c for c in c0 if c & e]
    # The gamma candidates that are circuits: C - e + gamma and
    # C - e + a + gamma.
    gamma_circuits = {(c ^ e) | gamma for c in ox if c & e}
    gamma_circuits.update((c ^ e) | a | gamma for c in ex_through_e)
    # The gamma candidates to test: C + e + gamma, and an even-overlap
    # circuit through e plus a disjoint odd-overlap circuit, which single
    # circuits miss.
    gamma_tested = {c | e | gamma for c in ox if not c & e}
    gamma_tested.update(
        (c_even ^ e) | c_odd | gamma
        for c_even in ex_through_e
        for c_odd in ox
        if not c_even & c_odd
    )

    tested = unions | gamma_tested
    tested.add(delta)
    kept = _minimal(tested, {*c0, *c2, *gamma_circuits})
    c1 = tuple(sorted(unions & kept, key=order))
    c3 = tuple(sorted(gamma_circuits | (gamma_tested & kept), key=order))
    return CircuitFamily(
        classes=(c0, c1, c2, c3),
        delta_mask=delta,
        minimal=(*c0, *c1, *c2, *c3) + ((delta,) if delta in kept else ()),
    )


def _minimal(tested: set[int], pool: set[int]) -> set[int]:
    """The members of ``tested`` with no proper subset in ``tested`` or
    in ``pool``.

    A proper subset has fewer elements, so each member is compared only
    with the members of strictly smaller size: sorted by size, those
    come before the first member of its own size.  The comparison is a
    bitmap, bit i standing for the i-th member in that order:
    ``holders[p]`` marks the members that hold position p, and a member
    lies inside a mask exactly when no position outside the mask holds
    it, so one OR per position outside answers for all members at once.
    """
    members = sorted(tested | pool, key=int.bit_count)
    holders = [0] * max(members, default=0).bit_length()
    for i, member in enumerate(members):
        for pos in _bits(member):
            holders[pos] |= 1 << i
    minimal = set()
    size = smaller = 0
    for i, member in enumerate(members):
        if member.bit_count() > size:
            size, smaller = member.bit_count(), (1 << i) - 1
        if member not in tested:
            continue
        outside = 0
        for pos, held in enumerate(holders):
            if not member >> pos & 1:
                outside |= held
        if not smaller & ~outside:
            minimal.add(member)
    return minimal


def predict_rank(ctx: SplitContext, labels: Iterable[str]) -> int:
    """Rank of the subset A' with these labels in the split matroid,
    from base-side quantities.

    Dispatches on which of the new elements A' carries; the gamma-only
    case evaluates its three branches in the fixed order of
    ``_rank_offset``.
    """
    facts, (_, _, rank_offset, _, _) = _query(ctx, labels)
    return facts.rank + rank_offset


def predict_closure(ctx: SplitContext, labels: Iterable[str]) -> ClosureCaseReport:
    """Evaluate the full closure case table for the subset A' with these
    labels.

    Every case precondition is tested (not just the first hit) so that
    overlaps between cases are visible; if two matched cases disagree on
    the resulting set the call aborts with FormulaDisagreement.  When no
    case matches, the report carries no formula.
    """
    facts, (_, cases, _, _, _) = _query(ctx, labels)
    return _report(facts, cases)


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
    = cl(A) (``_BaseFacts.shapes`` 7-11).  Only base data is read:
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
    facts, (_, _, _, _, cases) = _query(ctx, labels)
    return _report(facts, cases)


def _report(facts: _BaseFacts, cases: _Cases) -> ClosureCaseReport:
    """The matched case ids and closure of one closure predictor at a
    query: its ``cases`` there, read on the record of A."""
    mask = facts.closure(cases)
    formula = None if mask is None else facts.ctx.labels_of(mask)
    return ClosureCaseReport(cases.ids, formula)


def predict_is_flat(ctx: SplitContext, labels: Iterable[str]) -> int | None:
    """First satisfied sufficient flat condition (1..6) for the subset
    A' with these labels, or None.

    Requires the base part A of A' to be a flat of the base matroid,
    which is checked on its record.  A None return says nothing either
    way; callers needing a complete answer fall back to the oracle's
    ``is_flat``.
    """
    facts, (_, _, _, condition, _) = _query(ctx, labels)
    if facts.cl != facts.a:
        raise BaseNotFlat(
            f"{sorted(ctx.labels_of(facts.a))} is not a flat of the base matroid"
        )
    return condition

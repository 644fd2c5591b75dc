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

Each base quantity the predictors read (rank(A), cl(A), cl(A + e), F,
F*, T, whether A, A + e or cl(A) holds an odd-overlap circuit, and the
closure shapes) is computed in one place: the record ``_BaseFacts`` of
the base part A.  It holds every set as a position mask (a base element
keeps its base position in the split ground, a is bit n and gamma bit
n + 1), takes rank(A), cl(A) and cl(A + e) from the base matrix, and
finds the circuit facts in one pass over the odd-overlap circuits, held
as masks by ``SplitContext``.  Its methods evaluate the rank formula and
both closure tables on masks.  The public functions take and return
labels: ``predict_rank``, ``predict_closure``, ``closure_rule`` and
``predict_is_flat`` build a record from the labels of A, and the first
three also accept the caller's.  The four split queries A, A + a,
A + gamma and A + a + gamma share one base part, so one record serves
them all.  ``essplit check`` gets the records of all base parts
from ``_BaseFacts.walk``, which follows ``BinaryMatroid.walk_closures``
on the base with extra (e,).  Emitted sets follow the split-ground
order, held by ``SplitContext``.

Circuits travel as position masks too.  ``SplitContext`` splits the
base's cached circuit masks by the parity of their overlap with X into
``ox_masks`` and ``ex_masks``; ``predict_circuits`` builds the four
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
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BaseNotFlat,
    ElementNotInX,
    FormulaDisagreement,
    LabelCollision,
    PreconditionViolated,
    UnknownLabel,
)
from .gf2 import GF2Matrix, _bits
from .matroid import EX, OX, BinaryMatroid, _mask_key, classify_circuit

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
        try:
            return tuple(sorted(set(labels), key=self._position.__getitem__))
        except KeyError as exc:
            raise UnknownLabel(f"{exc.args[0]!r} is not a split-ground element") from None

    # A subset may also travel as a mask over split-ground positions.  A
    # base element keeps its base position, so a base mask is a split
    # mask too; a is bit n and gamma bit n + 1.

    def mask_of(self, labels: Iterable[str]) -> int:
        """Position mask of a subset of the split ground."""
        mask = 0
        for lab in _split_subset(self, labels):
            mask |= 1 << self._position[lab]
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
    def ox_masks(self) -> tuple[int, ...]:
        """The base circuits of odd overlap with X, as position masks in
        canonical order."""
        x = self.mask_of(self.x_set)
        return tuple(c for c in self.base.circuits(masks=True) if (c & x).bit_count() & 1)

    @cached_property
    def ex_masks(self) -> tuple[int, ...]:
        """The other base circuits, of even overlap with X, likewise."""
        ox = set(self.ox_masks)
        return tuple(c for c in self.base.circuits(masks=True) if c not in ox)


def _base_subset(ctx: SplitContext, labels: Iterable[str]) -> frozenset[str]:
    subset = frozenset(labels)
    unknown = subset - set(ctx.base.ground)
    if unknown:
        raise UnknownLabel(f"labels {sorted(unknown)!r} are not base elements")
    return subset


def _split_subset(ctx: SplitContext, labels: Iterable[str]) -> frozenset[str]:
    subset = frozenset(labels)
    unknown = subset - ctx._position.keys()
    if unknown:
        raise UnknownLabel(f"labels {sorted(unknown)!r} are not split elements")
    return subset


def _base_mask(ctx: SplitContext, labels: Iterable[str]) -> int:
    return ctx.mask_of(_base_subset(ctx, labels))


@dataclass(frozen=True)
class SplitQuery:
    """A subset A' of the split ground set, with its base part A split out."""

    a_prime: frozenset[str]
    a: frozenset[str]
    has_a: bool
    has_gamma: bool

    @classmethod
    def of(cls, ctx: SplitContext, labels: Iterable[str]) -> "SplitQuery":
        a_prime = _split_subset(ctx, labels)
        return cls(
            a_prime=a_prime,
            a=a_prime - {ctx.label_a, ctx.label_gamma},
            has_a=ctx.label_a in a_prime,
            has_gamma=ctx.label_gamma in a_prime,
        )


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
    """Which closure cases matched a query, and what they produced."""

    matched_cases: tuple[str, ...]
    formula_result: frozenset[str] | None
    oracle_result: frozenset[str] | None
    agreement: bool | None

    def as_dict(self, ctx: SplitContext) -> dict:
        """Stable JSON-ready form: matched ids plus sorted label arrays."""
        return {
            "matched": list(self.matched_cases),
            "formula": None
            if self.formula_result is None
            else list(ctx.sort_set(self.formula_result)),
            "oracle": None
            if self.oracle_result is None
            else list(ctx.sort_set(self.oracle_result)),
            "agree": self.agreement,
        }


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
    parity = sum(1 << j for j, lab in enumerate(base.col_labels) if lab in ctx.x_set)
    # In the new row: 1 on X, 1 at a, and 0 at gamma (e's 1 cancels a's).
    rows.append(parity | (1 << n_cols))
    return GF2Matrix(tuple(rows), base.col_labels + (ctx.label_a, ctx.label_gamma))


def split_matroid(ctx: SplitContext) -> BinaryMatroid:
    """The split matroid as a brute-force oracle on E + {a, gamma}."""
    return BinaryMatroid(build_split_matrix(ctx), ctx.base.enumeration_cap)


# -- base-side facts ---------------------------------------------------------


class _BaseFacts:
    """The base quantities of one base part A that the predictors read.

    Every set is a position mask (see ``SplitContext.mask_of``): a = A,
    cl = cl(A), cl_e = cl(A + e), f, f_star and t = F, F* and T, and the
    shapes of both closure predictors.  Here

    * F(A) holds the elements of cl(A) - A on an odd-overlap circuit
      inside cl(A);
    * F*(A) holds the elements z of cl(A) - A on an odd-overlap circuit
      C with z in C inside A + z.  Such a C has C - z inside A, so z is
      spanned by A and no closure is needed: F* is the one element
      outside A of every odd-overlap circuit that has exactly one;
    * T(A) holds the elements z outside A, z != e, on an odd-overlap
      circuit through e that lies inside (A + e) + z.

    rank = rank(A); e_in_cl, ox_a, ox_ae and ox_cl say whether e is in
    cl(A) and whether A, A + e and cl(A) hold an odd-overlap circuit.
    All of them are computed when the record is made, the circuit facts
    in one pass over ``SplitContext.ox_masks``, so one record serves all
    four split queries A, A + a, A + gamma and A + a + gamma.  The methods evaluate
    the rank formula and the two closure predictors on masks; the public
    functions below turn labels into a record and masks back into labels.
    """

    __slots__ = (
        "ctx", "a", "rank", "cl", "cl_e", "e_in_cl", "ox_a", "ox_ae", "ox_cl",
        "f", "f_star", "t", "table_shapes", "rule_shapes",
    )

    def __init__(
        self, ctx: SplitContext, a: int, spans: tuple[tuple[int, int], ...]
    ):
        """``a`` is the mask of A; ``spans`` holds (rank, closure mask) of
        A and of A + e, as ``BinaryMatroid.walk_closures`` yields them on
        the base with extra (e,)."""
        (rank, cl), (_, cl_e) = spans
        e = ctx.e_bit
        not_cl, not_a, not_ae = ~cl, ~a, ~(a | e)
        ox_a = ox_ae = ox_cl = False
        covered = f_star = t = 0
        for c in ctx.ox_masks:
            # A circuit with at most one element outside A lies in cl(A).
            if not c & not_cl:
                ox_cl = True
                covered |= c
                out = c & not_a
                if not out:
                    ox_a = ox_ae = True
                elif not out & (out - 1):
                    f_star |= out
                    if out == e:
                        ox_ae = True
            if c & e:
                out = c & not_ae
                if out and not out & (out - 1):
                    t |= out
        self.ctx = ctx
        self.a = a
        self.rank = rank
        self.cl = cl
        self.cl_e = cl_e
        self.e_in_cl = bool(cl & e)
        self.ox_a = ox_a
        self.ox_ae = ox_ae
        self.ox_cl = ox_cl
        self.f = covered & ~a
        self.f_star = f_star
        self.t = t
        a_bit, g = ctx.a_bit, ctx.gamma_bit
        cl_f = cl & ~self.f
        self.table_shapes = (
            cl_f,
            cl,
            cl | a_bit,
            cl_f | g,
            cl_f | g | t,
            cl | g | t,
            cl | a_bit | e | g,
        )
        kept = cl & ~f_star
        self.rule_shapes = (
            kept,
            kept | g,
            kept | g | t,
            cl | a_bit,
            cl_e | a_bit | g,
        )

    @classmethod
    def of(cls, ctx: SplitContext, labels: Iterable[str]) -> "_BaseFacts":
        """The record of the base part with these labels."""
        return cls.at(ctx, _base_mask(ctx, labels))

    @classmethod
    def at(cls, ctx: SplitContext, a: int) -> "_BaseFacts":
        """The record of the base part with the mask ``a``."""
        return cls(ctx, a, _base_spans(ctx, a))

    @classmethod
    def walk(
        cls, ctx: SplitContext, parts: Iterable[int] | None = None
    ) -> Iterator["_BaseFacts"]:
        """The records of every base part, or of the masks in ``parts``,
        in the order of ``BinaryMatroid.walk_closures``."""
        base = ctx.base
        for a, spans in base.walk_closures((ctx.e,), len(base.ground), parts):
            yield cls(ctx, a, spans)

    def split_rank(self, has_a: bool, has_gamma: bool) -> int:
        """``predict_rank`` of A plus the new elements named."""
        r = self.rank
        if not has_gamma:
            if has_a:
                return r + 1
            return r + 1 if self.ox_a else r
        if not has_a:
            if not self.ox_a and self.ox_ae:
                return r
            if self.ox_a and not self.e_in_cl:
                return r + 2
            return r + 1
        return r + 1 if self.e_in_cl else r + 2

    def table_closure(
        self, has_a: bool, has_gamma: bool
    ) -> tuple[tuple[str, ...], int | None]:
        """Matched case ids and closure mask of ``predict_closure``."""
        cl_f, cl, cl_a, cl_f_g, cl_f_g_t, cl_g_t, cl_aeg = self.table_shapes
        ox_a, ox_ae, ox_cl, e_in_cl = self.ox_a, self.ox_ae, self.ox_cl, self.e_in_cl
        plain = not has_a and not has_gamma
        with_a = has_a and not has_gamma
        with_g = has_gamma and not has_a
        with_ag = has_a and has_gamma
        table = (
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
        return self._match(has_a, has_gamma, table)

    def rule_closure(
        self, has_a: bool, has_gamma: bool
    ) -> tuple[tuple[str, ...], int | None]:
        """Matched case id and closure mask of ``closure_rule``."""
        kept, kept_g, kept_g_t, cl_a, cl_e_ag = self.rule_shapes
        e = self.ctx.e_bit
        e_in_f_star = bool(self.f_star & e)
        free = has_a or self.ox_a
        bound_g = has_gamma and not free
        # With e in cl(A), cl(A + e) + {a, gamma} is cl(A) + {a, gamma}.
        table = (
            ("R1.1", free and not has_gamma, cl_e_ag if self.e_in_cl else cl_a),
            ("R1.2", free and has_gamma, cl_e_ag),
            ("R2", not free and not has_gamma, kept_g if e_in_f_star else kept),
            ("R3.1", bound_g and e_in_f_star, kept_g),
            ("R3.2", bound_g and kept & e, cl_e_ag),
            ("R3.3", bound_g and not self.e_in_cl, kept_g_t),
        )
        return self._match(has_a, has_gamma, table)

    def flat_condition(self, has_a: bool, has_gamma: bool) -> int | None:
        """``predict_is_flat`` of A plus the new elements named: the first
        of the six sufficient conditions that holds, or None.  A must be
        a flat of the base."""
        ox_a, ox_ae, ox_cl, e_in_cl = self.ox_a, self.ox_ae, self.ox_cl, self.e_in_cl
        f, t = self.f, self.t
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
            with_ag and self.a & self.ctx.e_bit,
        )
        for number, satisfied in enumerate(conditions, start=1):
            if satisfied:
                return number
        return None

    def _match(
        self,
        has_a: bool,
        has_gamma: bool,
        table: tuple[tuple[str, object, int], ...],
    ) -> tuple[tuple[str, ...], int | None]:
        """Ids of the cases of ``table`` (id, condition, result) whose
        condition holds, and their common result; matched cases that
        disagree on the result raise FormulaDisagreement."""
        matched: list[str] = []
        formula: int | None = None
        for case_id, hit, result in table:
            if not hit:
                continue
            matched.append(case_id)
            if formula is None:
                formula = result
            elif result != formula:
                ctx = self.ctx
                a_prime = self.a | (ctx.a_bit if has_a else 0)
                a_prime |= ctx.gamma_bit if has_gamma else 0
                raise FormulaDisagreement(
                    f"cases {matched[0]} and {case_id} disagree on "
                    f"A'={sorted(ctx.labels_of(a_prime))}: "
                    f"{sorted(ctx.labels_of(formula))} vs "
                    f"{sorted(ctx.labels_of(result))}"
                )
        return tuple(matched), formula


def _base_spans(ctx: SplitContext, a: int) -> tuple[tuple[int, int], ...]:
    """(rank, closure mask) of A and of A + e in the base, A by its mask."""
    return ctx.base._closures_at(a, (ctx.e_bit.bit_length() - 1,))


def _facts_for(
    ctx: SplitContext, q: SplitQuery, facts: _BaseFacts | None
) -> _BaseFacts:
    """``facts`` if given, checked against the base part of ``q``; else
    a new record."""
    if facts is None:
        return _BaseFacts.of(ctx, q.a)
    if facts.ctx is not ctx or facts.a != _base_mask(ctx, q.a):
        raise ValueError("the base facts are not those of this query")
    return facts


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
    inputs were not what the contract demands, so it is asserted.
    """
    c_ox = frozenset(c_ox)
    c_ex = frozenset(c_ex)
    a_set = _base_subset(ctx, a)
    allowed = a_set | {ctx.e}
    circuits = set(ctx.base.circuits())
    checks = (
        (c_ox in circuits, "c_ox is not a circuit"),
        (c_ex in circuits, "c_ex is not a circuit"),
        (classify_circuit(c_ox, ctx.x_set) == OX, "c_ox has even overlap with X"),
        (classify_circuit(c_ex, ctx.x_set) == EX, "c_ex has odd overlap with X"),
        (ctx.e in c_ox, "e is missing from c_ox"),
        (ctx.e in c_ex, "e is missing from c_ex"),
        (c_ox <= allowed, "c_ox is not inside A + e"),
        (c_ex <= allowed, "c_ex is not inside A + e"),
    )
    for ok, reason in checks:
        if not ok:
            raise PreconditionViolated(reason)
    diff = c_ox ^ c_ex
    for c in ctx.base.circuits():
        if c <= diff and classify_circuit(c, ctx.x_set) == OX:
            return c
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

    holds_ex = _inside(c0)
    unions = {
        first | second
        for i, first in enumerate(ox)
        for second in ox[i + 1 :]
        if not first & second
    }
    c1 = tuple(
        sorted(_minimal(u for u in unions if not holds_ex(u)), key=_mask_key)
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
    c3 = tuple(sorted(c3_candidates & minimal, key=_mask_key))
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


def predict_rank(
    ctx: SplitContext, q: SplitQuery, facts: _BaseFacts | None = None
) -> int:
    """Rank of A' in the split matroid, from base-side quantities.

    Dispatches on which of the new elements A' carries; the gamma-only
    case evaluates its three branches in the fixed order below.
    ``facts``, when given, must be the ``_BaseFacts`` of the base part
    of ``q``; a caller asking all four queries of one A passes one
    record to all of them.
    """
    return _facts_for(ctx, q, facts).split_rank(q.has_a, q.has_gamma)


def predict_closure(
    ctx: SplitContext,
    q: SplitQuery,
    with_oracle: bool = False,
    facts: _BaseFacts | None = None,
) -> ClosureCaseReport:
    """Evaluate the full closure case table for one query.

    Every case precondition is tested (not just the first hit) so that
    overlaps between cases are visible; if two matched cases disagree on
    the resulting set the call aborts with FormulaDisagreement.  When no
    case matches, the report carries no formula and flags it.  With
    ``with_oracle`` the split matroid's own closure is computed on the
    side and compared.  ``facts`` is as for ``predict_rank``.
    """
    facts = _facts_for(ctx, q, facts)
    return _report(ctx, q, facts.table_closure(q.has_a, q.has_gamma), with_oracle)


def closure_rule(
    ctx: SplitContext,
    q: SplitQuery,
    with_oracle: bool = False,
    facts: _BaseFacts | None = None,
) -> ClosureCaseReport:
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
    cl(A), cl(A + e), the odd-overlap circuits, F* and T; the split
    matroid is built only for ``with_oracle``.  ``facts`` is as for
    ``predict_rank``.

    The rule parts from the twelve-case table of ``predict_closure`` in
    three ways: the table uses cl(A) where cl(A + e) is due (L3.8.1,
    L3.8.3); its F takes odd-overlap circuits anywhere inside cl(A)
    rather than circuits through z inside A + z (L3.2, L3.5, L3.6); and
    L3.8.4 claims a and e whenever e is in cl(A), also when e is in F*.
    PAPER.md holds only the paper's abstract, so whether these faults
    come from the paper or from its transcription is not settled here.
    """
    facts = _facts_for(ctx, q, facts)
    return _report(ctx, q, facts.rule_closure(q.has_a, q.has_gamma), with_oracle)


def _report(
    ctx: SplitContext,
    q: SplitQuery,
    cases: tuple[tuple[str, ...], int | None],
    with_oracle: bool,
) -> ClosureCaseReport:
    """The report of matched case ids and closure mask ``cases``, in
    labels.  With ``with_oracle`` the split matroid's own closure is
    computed on the side and compared."""
    matched, mask = cases
    formula = None if mask is None else ctx.labels_of(mask)
    oracle: frozenset[str] | None = None
    agreement: bool | None = None
    if with_oracle:
        oracle = split_matroid(ctx).closure_of(q.a_prime)
        if formula is not None:
            agreement = formula == oracle
    return ClosureCaseReport(matched, formula, oracle, agreement)


def predict_is_flat(ctx: SplitContext, q: SplitQuery) -> int | None:
    """First satisfied sufficient flat condition (1..6), or None.

    Requires the base part A of the query to be a flat of the base
    matroid.  A None return says nothing either way; callers needing a
    complete answer fall back to the oracle's ``is_flat``.
    """
    a = _base_mask(ctx, q.a)
    spans = _base_spans(ctx, a)
    if spans[0][1] != a:
        raise BaseNotFlat(f"{sorted(q.a)} is not a flat of the base matroid")
    return _BaseFacts(ctx, a, spans).flat_condition(q.has_a, q.has_gamma)

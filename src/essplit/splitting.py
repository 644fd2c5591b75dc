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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    BaseNotFlat,
    ElementNotInX,
    FormulaDisagreement,
    GroundSetTooLarge,
    LabelCollision,
    PreconditionViolated,
    UnknownLabel,
)
from .gf2 import MAX_COLUMNS, GF2Matrix, GF2Vector
from .matroid import EX, OX, BinaryMatroid, classify_circuit

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
        n = len(self.base.ground)
        if n + 2 > MAX_COLUMNS:
            raise GroundSetTooLarge(
                f"the split of {n} elements needs {n + 2} columns; "
                f"at most {MAX_COLUMNS} are supported"
            )
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

    @property
    def split_ground(self) -> tuple[str, ...]:
        return self.base.ground + (self.label_a, self.label_gamma)

    def sort_set(self, labels: Iterable[str]) -> tuple[str, ...]:
        order = {lab: i for i, lab in enumerate(self.split_ground)}
        try:
            return tuple(sorted(set(labels), key=order.__getitem__))
        except KeyError as exc:
            raise UnknownLabel(f"{exc.args[0]!r} is not a split-ground element") from None

    @cached_property
    def ox_circuits(self) -> tuple[frozenset[str], ...]:
        return tuple(
            c for c in self.base.circuits() if classify_circuit(c, self.x_set) == OX
        )

    @cached_property
    def ex_circuits(self) -> tuple[frozenset[str], ...]:
        return tuple(
            c for c in self.base.circuits() if classify_circuit(c, self.x_set) == EX
        )


def _base_subset(ctx: SplitContext, labels: Iterable[str]) -> frozenset[str]:
    subset = frozenset(labels)
    unknown = subset - set(ctx.base.ground)
    if unknown:
        raise UnknownLabel(f"labels {sorted(unknown)!r} are not base elements")
    return subset


def _split_subset(ctx: SplitContext, labels: Iterable[str]) -> frozenset[str]:
    subset = frozenset(labels)
    unknown = subset - set(ctx.split_ground)
    if unknown:
        raise UnknownLabel(f"labels {sorted(unknown)!r} are not split elements")
    return subset


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
    """

    c0: tuple[frozenset[str], ...]
    c1: tuple[frozenset[str], ...]
    c2: tuple[frozenset[str], ...]
    c3: tuple[frozenset[str], ...]
    delta: frozenset[str]

    def all_circuits(self) -> tuple[frozenset[str], ...]:
        """Deduplicated flattened family, trimmed to minimal members.

        The trim only ever drops the triangle {e, a, gamma}, and only in
        the degenerate case where e is a loop of the base (gamma then
        duplicates a zero column and {gamma} is itself a circuit).
        """
        seen: set[frozenset[str]] = set()
        out: list[frozenset[str]] = []
        for c in (*self.c0, *self.c1, *self.c2, *self.c3, self.delta):
            if c not in seen:
                seen.add(c)
                out.append(c)
        return tuple(c for c in out if not any(other < c for other in seen))


@dataclass(frozen=True)
class ClosureCaseReport:
    """Which closure cases matched a query, and what they produced."""

    matched_cases: tuple[str, ...]
    formula_result: frozenset[str] | None
    oracle_result: frozenset[str] | None
    agreement: bool | None

    @property
    def no_case_applies(self) -> bool:
        return not self.matched_cases

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
    e_word = base.column(ctx.e).bits
    rows = []
    for i, row in enumerate(base.rows):
        # gamma repeats e's old entries; the a-column is zero up here.
        bits = row.bits | (((e_word >> i) & 1) << (n_cols + 1))
        rows.append(GF2Vector(bits, n_cols + 2))
    parity = 0
    for j, lab in enumerate(base.col_labels):
        if lab in ctx.x_set:
            parity |= 1 << j
    # In the new row: 1 on X, 1 at a, and 0 at gamma (e's 1 cancels a's).
    rows.append(GF2Vector(parity | (1 << n_cols), n_cols + 2))
    return GF2Matrix(tuple(rows), base.col_labels + (ctx.label_a, ctx.label_gamma))


def split_matroid(ctx: SplitContext) -> BinaryMatroid:
    """The split matroid as a brute-force oracle on E + {a, gamma}."""
    return BinaryMatroid(build_split_matrix(ctx), ctx.base.enumeration_cap)


# -- base-side helpers ------------------------------------------------------


def contains_ox_circuit(ctx: SplitContext, labels: Iterable[str]) -> bool:
    """True iff some odd-overlap circuit of the base lies inside ``labels``."""
    subset = _base_subset(ctx, labels)
    return any(c <= subset for c in ctx.ox_circuits)


def set_T(ctx: SplitContext, labels: Iterable[str]) -> frozenset[str]:
    """Elements z outside A, z != e, on an odd-overlap circuit through e
    that lies inside (A + e) + z."""
    a = _base_subset(ctx, labels)
    allowed = a | {ctx.e}
    out: set[str] = set()
    for c in ctx.ox_circuits:
        if ctx.e not in c:
            continue
        extra = c - allowed
        if len(extra) == 1:
            (z,) = extra
            if z != ctx.e and z not in a:
                out.add(z)
    return frozenset(out)


def set_F(ctx: SplitContext, labels: Iterable[str]) -> frozenset[str]:
    """Elements of cl(A) - A lying on an odd-overlap circuit inside cl(A)."""
    a = _base_subset(ctx, labels)
    closure = ctx.base.closure_of(a)
    covered: set[str] = set()
    for c in ctx.ox_circuits:
        if c <= closure:
            covered |= c
    return frozenset(covered & (closure - a))


def set_F_star(ctx: SplitContext, labels: Iterable[str]) -> frozenset[str]:
    """Elements z of cl(A) - A lying on an odd-overlap circuit C with
    z in C inside A + z.

    Such a C has C - z inside A, so z is spanned by A and no closure is
    needed: F* is the one element outside A of every odd-overlap circuit
    that has exactly one.
    """
    a = _base_subset(ctx, labels)
    out: set[str] = set()
    for c in ctx.ox_circuits:
        extra = c - a
        if len(extra) == 1:
            out |= extra
    return frozenset(out)


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
    """
    key = ctx.base.subset_key
    ox = ctx.ox_circuits
    c0 = ctx.ex_circuits

    unions: list[frozenset[str]] = []
    seen_unions: set[frozenset[str]] = set()
    for i, first in enumerate(ox):
        for second in ox[i + 1 :]:
            if first & second:
                continue
            union = first | second
            if union in seen_unions:
                continue
            if any(ex <= union for ex in c0):
                continue
            seen_unions.add(union)
            unions.append(union)
    c1_class = tuple(
        sorted((u for u in unions if not any(v < u for v in unions)), key=key)
    )

    c2_class = tuple(c | {ctx.label_a} for c in ox)

    gamma = ctx.label_gamma
    delta = frozenset({ctx.e, ctx.label_a, gamma})
    c3_candidates: set[frozenset[str]] = set()
    for c in ox:
        if ctx.e not in c:
            c3_candidates.add(c | {ctx.e, gamma})
        else:
            c3_candidates.add((c - {ctx.e}) | {gamma})
    for c in ctx.base.circuits():
        if ctx.e in c and len((c - {ctx.e}) & ctx.x_set) % 2 == 1:
            c3_candidates.add((c - {ctx.e}) | {ctx.label_a, gamma})
    # An even-overlap circuit through e plus a disjoint odd-overlap
    # circuit also yields a gamma circuit; single circuits miss these.
    ex_through_e = [c for c in ctx.ex_circuits if ctx.e in c]
    for c_even in ex_through_e:
        for c_odd in ox:
            if c_even & c_odd:
                continue
            c3_candidates.add((c_even - {ctx.e}) | c_odd | {gamma})

    everything = (
        set(c0) | set(c1_class) | set(c2_class) | c3_candidates | {delta}
    )

    def minimal_within(candidates: set[frozenset[str]]) -> list[frozenset[str]]:
        return [
            cand
            for cand in candidates
            if not any(other < cand for other in everything)
        ]

    order = {lab: i for i, lab in enumerate(ctx.split_ground)}

    def split_key(s: frozenset[str]) -> tuple:
        return (len(s), tuple(sorted(order[lab] for lab in s)))

    return CircuitFamily(
        c0=tuple(sorted(c0, key=key)),
        c1=c1_class,
        c2=tuple(sorted(c2_class, key=split_key)),
        c3=tuple(sorted(minimal_within(c3_candidates), key=split_key)),
        delta=delta,
    )


def predict_rank(ctx: SplitContext, q: SplitQuery) -> int:
    """Rank of A' in the split matroid, from base-side quantities.

    Dispatches on which of the new elements A' carries; the gamma-only
    case evaluates its three branches in the fixed order below.
    """
    base = ctx.base
    r = base.rank_of(q.a)
    if not q.has_a and not q.has_gamma:
        return r + 1 if contains_ox_circuit(ctx, q.a) else r
    if q.has_a and not q.has_gamma:
        return r + 1
    if q.has_gamma and not q.has_a:
        ox_in_a = contains_ox_circuit(ctx, q.a)
        if not ox_in_a and contains_ox_circuit(ctx, q.a | {ctx.e}):
            return r
        if ox_in_a and ctx.e not in base.closure_of(q.a):
            return r + 2
        return r + 1
    return r + 1 if ctx.e in base.closure_of(q.a) else r + 2


def closure_shapes(ctx: SplitContext, labels: Iterable[str]) -> tuple[frozenset[str], ...]:
    """The seven candidate closure shapes instantiated at a base set A."""
    a = _base_subset(ctx, labels)
    cl = ctx.base.closure_of(a)
    f = set_F(ctx, a)
    t = set_T(ctx, a)
    g = frozenset({ctx.label_gamma})
    aeg = frozenset({ctx.label_a, ctx.e, ctx.label_gamma})
    return (
        cl - f,
        cl,
        cl | {ctx.label_a},
        (cl - f) | g,
        (cl - f) | g | t,
        cl | g | t,
        cl | aeg,
    )


def predict_closure(
    ctx: SplitContext, q: SplitQuery, with_oracle: bool = False
) -> ClosureCaseReport:
    """Evaluate the full closure case table for one query.

    Every case precondition is tested (not just the first hit) so that
    overlaps between cases are visible; if two matched cases disagree on
    the resulting set the call aborts with FormulaDisagreement.  When no
    case matches, the report carries no formula and flags it.  With
    ``with_oracle`` the split matroid's own closure is computed on the
    side and compared.
    """
    base = ctx.base
    a = q.a
    cl = base.closure_of(a)
    f = set_F(ctx, a)
    t = set_T(ctx, a)
    ox_a = contains_ox_circuit(ctx, a)
    ox_ae = contains_ox_circuit(ctx, a | {ctx.e})
    ox_cl = contains_ox_circuit(ctx, cl)
    e_in_cl = ctx.e in cl

    plain = not q.has_a and not q.has_gamma
    with_a = q.has_a and not q.has_gamma
    with_g = q.has_gamma and not q.has_a
    with_ag = q.has_a and q.has_gamma

    g = frozenset({ctx.label_gamma})
    aeg = frozenset({ctx.label_a, ctx.e, ctx.label_gamma})

    table = (
        ("L3.2", plain and not ox_ae, cl - f),
        ("L3.3", plain and not ox_cl, cl),
        ("L3.4.1", plain and ox_a and not e_in_cl, cl | {ctx.label_a}),
        ("L3.4.2", with_a and not e_in_cl, cl | {ctx.label_a}),
        ("L3.5", plain and ox_ae and not ox_a, (cl - f) | g),
        ("L3.6", with_g and not e_in_cl and ox_cl and not ox_a, (cl - f) | g | t),
        ("L3.7", with_g and not ox_cl and not e_in_cl, cl | g | t),
        ("L3.8.1", with_ag, cl | aeg),
        ("L3.8.2", with_a and e_in_cl, cl | aeg),
        ("L3.8.3", with_g and ox_a, cl | aeg),
        ("L3.8.4", with_g and e_in_cl, cl | aeg),
        ("L3.8.5", plain and ox_a and e_in_cl, cl | aeg),
    )
    return _dispatch(ctx, q, table, with_oracle)


def closure_rule_shapes(
    ctx: SplitContext, labels: Iterable[str]
) -> tuple[frozenset[str], ...]:
    """The five closure shapes of ``closure_rule`` instantiated at a base
    set A: cl - F*, (cl - F*) + gamma, (cl - F*) + gamma + T, cl + a and
    cl(A + e) + {a, gamma}, where cl is cl(A), F* is ``set_F_star`` and T
    is ``set_T``."""
    a = _base_subset(ctx, labels)
    cl = ctx.base.closure_of(a)
    kept = cl - set_F_star(ctx, a)
    g = frozenset({ctx.label_gamma})
    return (
        kept,
        kept | g,
        kept | g | set_T(ctx, a),
        cl | {ctx.label_a},
        ctx.base.closure_of(a | {ctx.e}) | {ctx.label_a, ctx.label_gamma},
    )


def closure_rule(
    ctx: SplitContext, q: SplitQuery, with_oracle: bool = False
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
    z drops out exactly when it is in F*(A) (``set_F_star``).  gamma
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
      joins iff C has odd overlap with X: exactly when z is in T(A)
      (``set_T``).  The closure is (cl(A) - F*) + gamma + T(A).

    The cases are mutually exclusive and cover every query, and each
    result is one of ``closure_rule_shapes``.  Only base data is read:
    cl(A), cl(A + e), the odd-overlap circuits, F* and T; the split
    matroid is built only for ``with_oracle``.

    The rule parts from the twelve-case table of ``predict_closure`` in
    three ways: the table uses cl(A) where cl(A + e) is due (L3.8.1,
    L3.8.3); its F takes odd-overlap circuits anywhere inside cl(A)
    rather than circuits through z inside A + z (L3.2, L3.5, L3.6); and
    L3.8.4 claims a and e whenever e is in cl(A), also when e is in F*.
    PAPER.md holds only the paper's abstract, so whether these faults
    come from the paper or from its transcription is not settled here.
    """
    kept, kept_g, kept_g_t, cl_a, cl_e_ag = closure_rule_shapes(ctx, q.a)
    cl = cl_a - {ctx.label_a}
    f_star = cl - kept
    free = q.has_a or contains_ox_circuit(ctx, q.a)
    bound_g = q.has_gamma and not free
    # With e in cl(A), cl(A + e) + {a, gamma} is cl(A) + {a, gamma}.
    table = (
        ("R1.1", free and not q.has_gamma, cl_e_ag if ctx.e in cl else cl_a),
        ("R1.2", free and q.has_gamma, cl_e_ag),
        ("R2", not free and not q.has_gamma, kept_g if ctx.e in f_star else kept),
        ("R3.1", bound_g and ctx.e in f_star, kept_g),
        ("R3.2", bound_g and ctx.e in kept, cl_e_ag),
        ("R3.3", bound_g and ctx.e not in cl, kept_g_t),
    )
    return _dispatch(ctx, q, table, with_oracle)


def _dispatch(
    ctx: SplitContext,
    q: SplitQuery,
    table: tuple[tuple[str, bool, frozenset[str]], ...],
    with_oracle: bool,
) -> ClosureCaseReport:
    """Report every case of ``table`` (id, condition, result) whose
    condition holds; matched cases that disagree on the result raise
    FormulaDisagreement.  With ``with_oracle`` the split matroid's own
    closure is computed on the side and compared."""
    matched: list[str] = []
    formula: frozenset[str] | None = None
    for case_id, hit, result in table:
        if not hit:
            continue
        matched.append(case_id)
        if formula is None:
            formula = frozenset(result)
        elif frozenset(result) != formula:
            raise FormulaDisagreement(
                f"cases {matched[0]} and {case_id} disagree on "
                f"A'={sorted(q.a_prime)}: "
                f"{sorted(formula)} vs {sorted(result)}"
            )

    oracle: frozenset[str] | None = None
    agreement: bool | None = None
    if with_oracle:
        oracle = split_matroid(ctx).closure_of(q.a_prime)
        if formula is not None:
            agreement = formula == oracle

    return ClosureCaseReport(tuple(matched), formula, oracle, agreement)


def predict_is_flat(ctx: SplitContext, q: SplitQuery) -> int | None:
    """First satisfied sufficient flat condition (1..6), or None.

    Requires the base part A of the query to be a flat of the base
    matroid.  A None return says nothing either way; callers needing a
    complete answer fall back to the oracle's ``is_flat``.
    """
    base = ctx.base
    a = q.a
    cl = base.closure_of(a)
    if cl != a:
        raise BaseNotFlat(f"{sorted(a)} is not a flat of the base matroid")

    ox_a = contains_ox_circuit(ctx, a)
    ox_ae = contains_ox_circuit(ctx, a | {ctx.e})
    ox_cl = contains_ox_circuit(ctx, cl)
    e_in_cl = ctx.e in cl
    f = set_F(ctx, a)
    t = set_T(ctx, a)

    plain = not q.has_a and not q.has_gamma
    with_a = q.has_a and not q.has_gamma
    with_g = q.has_gamma and not q.has_a
    with_ag = q.has_a and q.has_gamma

    conditions = (
        plain and not ox_ae and not f,
        plain and not ox_cl,
        with_a and not e_in_cl,
        with_g and not e_in_cl and ox_cl and not ox_a and not f and not t,
        with_g and not ox_cl and not e_in_cl and not t,
        with_ag and ctx.e in a,
    )
    for number, satisfied in enumerate(conditions, start=1):
        if satisfied:
            return number
    return None

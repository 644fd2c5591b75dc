"""Definition-level references for the oracle's enumerations and for
``essplit check``.

``all_subsets`` lists every subset of a ground set, smallest first, then
lexicographic.  ``reference_flats`` and ``reference_circuits`` walk it,
so they are exponential in the size of the ground set and only serve to
check ``BinaryMatroid.circuits()`` and ``BinaryMatroid.flats()`` on
small instances.  ``sweep_circuits`` is the size-ordered subset sweep
that ``circuits()`` ran on low ranks before the cycle-space walk served
every input; it tests only subsets of up to rank + 1 elements, so it
reaches the wider instances that ``reference_circuits`` cannot.
``reference_circuit_family`` is ``predict_circuits`` as it was on label
sets, before the family moved to position masks; ``family_labels`` and
``predicted_circuits`` read a ``CircuitFamily``'s masks as label sets,
and ``assert_same_family`` compares ``predict_circuits`` with the
reference.
``reference_minimal`` and ``reference_disjoint`` are the trim and the
disjoint scan of ``predict_circuits`` by their definitions, one plain
test per pair of masks: the differential for ``splitting._minimal`` and
``splitting._Slots``, which test a whole packed family at once.
``reference_base_facts`` computes the odd-overlap circuit facts of one
base part on label sets from their circuit definitions, the
differential for ``splitting._BaseFacts``, which reads ranks instead;
``span_sets`` reads cl(A + e), F* and T off a record's span part, which
the record does not keep, ``assert_guarded_sets`` compares F* and T
with the reference under their guards, and ``realisable`` tests a
record's signature, one of ``all_signatures``, against the six rules
that ``splitting._Key`` proves.
``classify_circuit`` and ``reference_find_ox_subcircuit`` are the
label-set forms of the parity test and of ``find_ox_subcircuit`` from
before those moved to masks.
``reference_check_report`` answers every subset of a ``check`` run on
its own, with no work shared between subsets, and lists its witnesses
in report order by its own (size, positions) key, and
``assert_same_output`` compares two outputs line by line.
``reference_equivalence`` is ``verify_equivalence`` as it was before it
moved to row spaces: it compares the circuit families of the vertex
split's cycle matroid and of the matroid split, both enumerated, so it
stops at the enumeration cap.  ``graph_closure`` is the closure of a
graph's cycle matroid by union-find on its vertices, with no GF(2)
code at all.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from essplit import (
    BinaryMatroid,
    CircuitFamily,
    GF2Matrix,
    LabeledGraph,
    LineSplitSpec,
    SplitContext,
    graphs,
    split_matroid,
)
from essplit.errors import (
    FormulaDisagreement,
    GroundSetTooLarge,
    PreconditionViolated,
    UnknownLabel,
)
from essplit.gf2 import _insert
from essplit.splitting import (
    _BaseFacts,
    _Key,
    _plans,
    predict_circuits,
    predict_closure,
    predict_is_flat,
    predict_rank,
)

OX = "OX"
EX = "EX"


def classify_circuit(circuit: Iterable[str], x_set: Iterable[str]) -> str:
    """``OX`` if the overlap with ``x_set`` has odd size, else ``EX``."""
    overlap = frozenset(circuit) & frozenset(x_set)
    return OX if len(overlap) % 2 else EX


def base_facts(ctx: SplitContext, labels) -> _BaseFacts:
    """The ``_BaseFacts`` record of the base part of the subset with
    these labels: a and gamma are dropped."""
    return _BaseFacts.at(ctx, ctx.mask_of(labels) & (ctx.a_bit - 1))


def span_sets(facts: _BaseFacts, spans=None) -> dict:
    """cl(A + e), and F* and T under their guards (0 off them), of the
    base part A of ``facts``: entries 2-4 of the span part of ``spans``,
    by default A's spans in N, which the record reads but does not keep."""
    ctx = facts.ctx
    if spans is None:
        spans = ctx.lift.closures_at(facts.a, ctx.lift_extras)
    return dict(zip(("cl_e", "f_star", "t"), _BaseFacts._span_part(ctx, spans)[2:5]))


def all_subsets(m: BinaryMatroid) -> Iterator[frozenset[str]]:
    """Every subset of the ground set of ``m``, smallest first, then
    lexicographic; above the all-subset cap, GroundSetTooLarge."""
    m._check_subset_cap()
    for size in range(len(m.ground) + 1):
        for combo in combinations(m.ground, size):
            yield frozenset(combo)


def reference_flats(m: BinaryMatroid) -> tuple[frozenset[str], ...]:
    """The closure of every subset, deduplicated, canonically ordered."""
    seen: set[frozenset[str]] = set()
    out: list[frozenset[str]] = []
    for subset in all_subsets(m):
        closed = m.closure_of(subset)
        if closed not in seen:
            seen.add(closed)
            out.append(closed)
    position = {lab: i for i, lab in enumerate(m.ground)}
    out.sort(key=lambda flat: (len(flat), sorted(map(position.__getitem__, flat))))
    return tuple(out)


def reference_circuits(m: BinaryMatroid) -> tuple[frozenset[str], ...]:
    """Every subset that is dependent while each subset one element
    smaller is independent, in the canonical order of ``all_subsets``."""
    return tuple(
        subset
        for subset in all_subsets(m)
        if m.rank_of(subset) < len(subset)
        and all(m.rank_of(subset - {z}) == len(subset) - 1 for z in subset)
    )


def sweep_circuits(m: BinaryMatroid) -> tuple[int, ...]:
    """The circuit masks of ``m`` in canonical order, by a size-ordered
    subset sweep up to rank(E) + 1 elements, since a circuit has rank one
    below its size.

    A subset reached by the sweep is a circuit exactly when it is
    dependent and contains no previously found circuit, because any
    dependent proper subset would contain a smaller circuit already
    recorded.  ``combinations`` gives each size in lexicographic order,
    so the sweep's order is the canonical one.
    """
    found: list[int] = []
    for size in range(1, m.rank_of(m.ground) + 2):
        for combo in combinations(range(len(m.ground)), size):
            mask = sum(1 << pos for pos in combo)
            if any(c & mask == c for c in found):
                continue  # contains a smaller circuit
            basis: dict[int, int] = {}
            if not all(_insert(basis, m._cols[pos]) for pos in combo):
                found.append(mask)
    return tuple(found)


def circuits_by_overlap(
    ctx: SplitContext,
) -> tuple[tuple[frozenset[str], ...], tuple[frozenset[str], ...]]:
    """The base circuits of odd and of even overlap with X, as label
    sets in canonical order, by ``classify_circuit``."""
    circuits = ctx.base.circuits()
    return (
        tuple(c for c in circuits if classify_circuit(c, ctx.x_set) == OX),
        tuple(c for c in circuits if classify_circuit(c, ctx.x_set) == EX),
    )


@dataclass(frozen=True)
class ReferenceFamily:
    """The circuit family of ``reference_circuit_family``, on label sets."""

    c0: tuple[frozenset[str], ...]
    c1: tuple[frozenset[str], ...]
    c2: tuple[frozenset[str], ...]
    c3: tuple[frozenset[str], ...]
    delta: frozenset[str]

    def all_circuits(self) -> tuple[frozenset[str], ...]:
        """Deduplicated flattened family, trimmed to minimal members."""
        seen: set[frozenset[str]] = set()
        out: list[frozenset[str]] = []
        for c in (*self.c0, *self.c1, *self.c2, *self.c3, self.delta):
            if c not in seen:
                seen.add(c)
                out.append(c)
        return tuple(c for c in out if not any(other < c for other in seen))


FAMILY_FIELDS = ("c0", "c1", "c2", "c3", "delta")


def family_labels(ctx: SplitContext, family: CircuitFamily) -> dict:
    """The classes c0-c3 and delta of ``family`` as label sets, by name."""
    classes = [tuple(map(ctx.labels_of, masks)) for masks in family.classes]
    return dict(zip(FAMILY_FIELDS, (*classes, ctx.labels_of(family.delta_mask))))


def predicted_circuits(ctx: SplitContext) -> tuple[frozenset[str], ...]:
    """The circuits of ``predict_circuits(ctx)``, as label sets in its order."""
    return tuple(map(ctx.labels_of, predict_circuits(ctx).minimal))


def assert_same_family(ctx: SplitContext, note: str = "") -> dict:
    """Every class of ``predict_circuits(ctx)`` and its ``minimal``, as
    label sets, against ``reference_circuit_family``, order included;
    returns the classes by name."""
    family = predict_circuits(ctx)
    expected = reference_circuit_family(ctx)
    classes = family_labels(ctx, family)
    for name in FAMILY_FIELDS:
        assert classes[name] == getattr(expected, name), f"{note}: {name}"
    minimal = tuple(map(ctx.labels_of, family.minimal))
    assert minimal == expected.all_circuits(), f"{note}: minimal"
    return classes


def reference_circuit_family(ctx: SplitContext) -> ReferenceFamily:
    """The predicted split circuits, computed on label sets with
    quadratic subset tests: the classes c0-c3 and delta of
    ``predict_circuits``, in the same order."""
    position = {lab: i for i, lab in enumerate(ctx.split_ground)}

    def key(labels) -> tuple:
        positions = sorted(map(position.__getitem__, labels))
        return (len(positions), tuple(positions))

    ox, c0 = circuits_by_overlap(ctx)

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
    ex_through_e = [c for c in c0 if ctx.e in c]
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

    return ReferenceFamily(
        c0=tuple(sorted(c0, key=key)),
        c1=c1_class,
        c2=tuple(sorted(c2_class, key=key)),
        c3=tuple(sorted(minimal_within(c3_candidates), key=key)),
        delta=delta,
    )


def reference_minimal(tested: set[int], pool: set[int]) -> set[int]:
    """The masks of ``tested`` with no proper subset in ``tested`` or in
    ``pool``, by testing every pair."""
    everything = tested | pool
    return {
        mask for mask in tested
        if not any(other != mask and other & mask == other for other in everything)
    }


def reference_disjoint(masks: Iterable[int], word: int) -> list[int]:
    """The indices of the masks disjoint from ``word``, in order, by one
    test per mask."""
    return [j for j, mask in enumerate(masks) if not mask & word]


def reference_base_facts(ctx: SplitContext, labels) -> dict:
    """The circuit facts of a base part A, from their definitions on
    label sets: whether A, A + e and cl(A) hold an odd-overlap circuit,
    and the sets F, F* and T."""
    a = frozenset(labels)
    e = ctx.e
    cl = ctx.base.closure_of(a)
    ox, _ = circuits_by_overlap(ctx)

    def holds_ox_circuit(subset: frozenset[str]) -> bool:
        return any(c <= subset for c in ox)

    covered: set[str] = set()
    for c in ox:
        if c <= cl:
            covered |= c
    f_star: set[str] = set()
    for c in ox:
        extra = c - a
        if len(extra) == 1:
            f_star |= extra
    t: set[str] = set()
    for c in ox:
        if e not in c:
            continue
        extra = c - (a | {e})
        if len(extra) == 1:
            (z,) = extra
            if z != e and z not in a:
                t.add(z)
    return {
        "ox_a": holds_ox_circuit(a),
        "ox_ae": holds_ox_circuit(a | {e}),
        "ox_cl": holds_ox_circuit(cl),
        "f": frozenset(covered & (cl - a)),
        "f_star": frozenset(f_star),
        "t": frozenset(t),
    }


def assert_guarded_sets(
    ctx: SplitContext, facts: _BaseFacts, expected: dict, spans=None
) -> Counter:
    """Assert that the sets f_star and t of a record's span part
    (``span_sets`` of ``spans``) equal F* and T of ``expected``, the
    ``reference_base_facts`` of its base part, under their guards (no
    odd-overlap circuit in A for both, and e outside cl(A) for T) and
    are 0 off them.  Return the names of the sets that were off their
    guard with a nonempty definition, counted."""
    off_guard: Counter = Counter()
    k = _Key(facts.signature)
    sets = span_sets(facts, spans)
    guards = {"f_star": not k.ox_a, "t": not k.ox_a and not k.e_in_cl}
    for name, guarded in guards.items():
        if guarded:
            assert ctx.labels_of(sets[name]) == expected[name], name
        else:
            assert sets[name] == 0, name
            if expected[name]:
                off_guard[name] += 1
    return off_guard


def facts_from_base_and_parity(ctx: SplitContext, a: int) -> dict:
    """Every slot of the ``_BaseFacts`` record of the base part with the
    mask ``a``, the shapes of both closure predictors among them, and
    the predicates e_in_cl, ox_a, ox_ae and ox_cl that its signature
    holds, from the ranks and closures of A and A + e in the base and in
    M', the base matrix plus the parity row, as the record read them
    before it read N."""
    base = ctx.base.matrix
    parity = BinaryMatroid(GF2Matrix(base.rows + (ctx.x_mask,), base.col_labels))
    extra = (ctx.e_bit.bit_length() - 1,)
    (rank, cl), (rank_e, cl_e) = ctx.base.closures_at(a, extra)
    (rank_p, cl_p), (rank_pe, cl_pe) = parity.closures_at(a, extra)
    e, a_bit, g = ctx.e_bit, ctx.a_bit, ctx.gamma_bit
    ox_a, ox_ae = rank_p > rank, rank_pe > rank_e
    odd = ctx.odd_part(cl)
    f = odd & ~a
    f_star = cl & ~cl_p
    t = cl_e & ~cl & ~cl_pe & ~e
    cl_f, kept = cl & ~f, cl & ~f_star
    e_in_cl = bool(cl & e)
    return {
        "ctx": ctx,
        "a": a,
        "rank": rank,
        "cl": cl,
        "cl_e": cl_e,
        "e_in_cl": e_in_cl,
        "ox_a": ox_a,
        "ox_ae": ox_ae,
        "ox_cl": bool(odd),
        "f": f,
        "f_star": f_star,
        "t": t,
        "shapes": (
            cl_f, cl, cl | a_bit, cl_f | g, cl_f | g | t, cl | g | t, cl | a_bit | e | g,
            kept, kept | g, kept | g | t, cl | a_bit, cl_e | a_bit | g,
        ),
        "signature": sum(
            bool(bit) << shift
            for shift, bit in enumerate(
                (ox_a, ox_ae, odd, e_in_cl, f_star & e, f, t, a & e), start=2
            )
        ),
    }


def all_signatures():
    """Every signature of ``_BaseFacts``, reachable or not: the keys of
    ``_Key`` with both top bits clear."""
    return range(0, 1 << len(_Key.__slots__), 4)


def realisable(signature: int) -> bool:
    """Whether a ``_BaseFacts`` signature satisfies the six rules that
    ``_Key``'s docstring proves for every record, each tested here on
    the decoded predicates as it is stated there."""
    k = _Key(signature)
    return (
        (not k.ox_a or k.ox_ae)
        and (not k.ox_ae or k.ox_cl)
        and k.e_in_f_star == (k.ox_ae and not k.ox_a)
        and (not k.e_in_f_star or (k.e_in_cl and not k.e_in_a))
        and (not k.f or k.ox_cl)
        and (k.ox_a or k.f == k.ox_cl)
        and (not k.t or (not k.ox_a and not k.e_in_cl))
        and (not k.e_in_a or k.e_in_cl)
    )


def plan_answers(facts: _BaseFacts, top: int) -> dict:
    """What the plan of the query (A, top) gives on the record of A, as
    the predictors read it: the closure table and the closure rule as
    (matched ids, closure mask or None), the flat condition and the
    split rank, in the form of ``reference_cases``."""
    _, table, rank_offset, flat, rule = _plans(facts.signature)[top]
    return {
        "table": (table.ids, facts.closure(table)),
        "rule": (rule.ids, facts.closure(rule)),
        "flat": flat,
        "rank": facts.rank + rank_offset,
    }


def reference_cases(facts: _BaseFacts, has_a: bool, has_gamma: bool) -> dict:
    """What the rows of ``_BaseFacts`` give for one record and one
    query, evaluated on the record's masks at every call, as before the
    case plans: the closure table and the closure rule as (matched ids,
    closure mask or None), or the FormulaDisagreement they raised when
    matched cases disagree, the flat condition and the split rank.  The
    predicates come from the record's signature, decoded by ``_Key``."""
    ctx = facts.ctx
    sets = span_sets(facts)
    cl_f, cl, cl_a, cl_f_g, cl_f_g_t, cl_g_t, cl_aeg = facts.shapes[:7]
    k = _Key(facts.signature)
    ox_a, ox_ae, ox_cl, e_in_cl = k.ox_a, k.ox_ae, k.ox_cl, k.e_in_cl
    plain = not has_a and not has_gamma
    with_a = has_a and not has_gamma
    with_g = has_gamma and not has_a
    with_ag = has_a and has_gamma

    def match(table) -> tuple | FormulaDisagreement:
        matched: list[str] = []
        formula = None
        for case_id, hit, result in table:
            if not hit:
                continue
            matched.append(case_id)
            if formula is None:
                formula = result
            elif result != formula:
                a_prime = facts.a | (ctx.a_bit if has_a else 0)
                a_prime |= ctx.gamma_bit if has_gamma else 0
                return FormulaDisagreement(
                    f"cases {matched[0]} and {case_id} disagree on "
                    f"A'={sorted(ctx.labels_of(a_prime))}: "
                    f"{sorted(ctx.labels_of(formula))} vs "
                    f"{sorted(ctx.labels_of(result))}"
                )
        return tuple(matched), formula

    table = match((
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
    ))

    kept, kept_g, kept_g_t, rule_cl_a, cl_e_ag = facts.shapes[7:]
    e_in_f_star = bool(sets["f_star"] & ctx.e_bit)
    free = has_a or ox_a
    bound_g = has_gamma and not free
    rule = match((
        ("R1.1", free and not has_gamma, cl_e_ag if e_in_cl else rule_cl_a),
        ("R1.2", free and has_gamma, cl_e_ag),
        ("R2", not free and not has_gamma, kept_g if e_in_f_star else kept),
        ("R3.1", bound_g and e_in_f_star, kept_g),
        ("R3.2", bound_g and kept & ctx.e_bit, cl_e_ag),
        ("R3.3", bound_g and not e_in_cl, kept_g_t),
    ))

    f, t = facts.f, sets["t"]
    conditions = (
        plain and not ox_ae and not f,
        plain and not ox_cl,
        with_a and not e_in_cl,
        with_g and not e_in_cl and ox_cl and not ox_a and not f and not t,
        with_g and not ox_cl and not e_in_cl and not t,
        with_ag and facts.a & ctx.e_bit,
    )
    flat = next((i for i, held in enumerate(conditions, start=1) if held), None)

    r = facts.rank
    if not has_gamma:
        rank = r + 1 if has_a or ox_a else r
    elif not has_a:
        if not ox_a and ox_ae:
            rank = r
        elif ox_a and not e_in_cl:
            rank = r + 2
        else:
            rank = r + 1
    else:
        rank = r + 1 if e_in_cl else r + 2
    return {"table": table, "rule": rule, "flat": flat, "rank": rank}


def _base_subset(ctx: SplitContext, labels: Iterable[str]) -> frozenset[str]:
    subset = frozenset(labels)
    unknown = subset - set(ctx.base.ground)
    if unknown:
        raise UnknownLabel(f"labels {sorted(unknown)!r} are not base elements")
    return subset


def reference_find_ox_subcircuit(
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


def _report_order(ctx: SplitContext, subsets: Iterable[frozenset[str]]):
    """``subsets`` in the order of a ``check`` report: by size, then by
    their positions in the split ground, lexicographically."""
    position = {label: i for i, label in enumerate(ctx.split_ground)}

    def key(subset: frozenset[str]) -> tuple[int, list[int]]:
        return len(subset), sorted(position[label] for label in subset)

    return sorted(subsets, key=key)


def _check_subsets(ctx: SplitContext, sample: int | None, seed: int):
    """The subsets of a ``check`` run, in report order: every subset when
    ``sample`` is None or covers them all, else ``sample`` distinct draws."""
    ground = ctx.split_ground
    n = len(ground)
    if sample is None and n > BinaryMatroid.SUBSET_CAP:
        raise GroundSetTooLarge(
            f"{n} split elements exceed the exhaustive cap of "
            f"{BinaryMatroid.SUBSET_CAP}; rerun with --sample N"
        )
    total = 1 << n
    drawn: set[int] = set()
    if sample is None or sample >= total:
        drawn.update(range(total))
    else:
        rng = random.Random(seed)
        while len(drawn) < sample:
            drawn.add(rng.randrange(total))
    subsets = (frozenset(ground[i] for i in range(n) if mask >> i & 1) for mask in drawn)
    return _report_order(ctx, subsets)


def reference_check_report(
    ctx: SplitContext, sample: int | None = None, seed: int = 0, fmt: str = "json"
) -> tuple[int, str]:
    """Exit code and standard output of ``essplit check``, computed one
    subset at a time with ``predict_closure``, ``closure_of``,
    ``predict_rank`` and ``rank_of``."""
    oracle = split_matroid(ctx)
    case_hits: dict[str, int] = {}
    no_case = 0
    closure_witnesses: list[dict] = []
    rank_witnesses: list[dict] = []
    subsets = 0
    for a_prime in _check_subsets(ctx, sample, seed):
        subsets += 1
        report = predict_closure(ctx, a_prime)
        oracle_closure = oracle.closure_of(a_prime)
        if not report.matched_cases:
            no_case += 1
        for case_id in report.matched_cases:
            case_hits[case_id] = case_hits.get(case_id, 0) + 1
        if report.formula_result is not None and report.formula_result != oracle_closure:
            closure_witnesses.append(
                {
                    "subset": list(ctx.sort_set(a_prime)),
                    "matched": list(report.matched_cases),
                    "formula": list(ctx.sort_set(report.formula_result)),
                    "oracle": list(ctx.sort_set(oracle_closure)),
                }
            )
        formula_rank = predict_rank(ctx, a_prime)
        oracle_rank = oracle.rank_of(a_prime)
        if formula_rank != oracle_rank:
            rank_witnesses.append(
                {
                    "subset": list(ctx.sort_set(a_prime)),
                    "formula": formula_rank,
                    "oracle": oracle_rank,
                }
            )

    family_equal = set(predicted_circuits(ctx)) == set(oracle.circuits())
    corollary_ok = oracle.rank_of(oracle.ground) == ctx.base.rank_of(ctx.base.ground) + 1
    flat_violations: list[dict] = []
    lifts = (
        frozenset(flat) | set(extras)
        for flat in ctx.base.flats()
        for extras in ((), (ctx.label_a,), (ctx.label_gamma,), (ctx.label_a, ctx.label_gamma))
    )
    for a_prime in _report_order(ctx, lifts):
        condition = predict_is_flat(ctx, a_prime)
        if condition is not None and not oracle.is_flat(a_prime):
            flat_violations.append(
                {"subset": list(ctx.sort_set(a_prime)), "condition": condition}
            )

    disagreements = (
        len(closure_witnesses)
        + len(rank_witnesses)
        + len(flat_violations)
        + (0 if family_equal else 1)
        + (0 if corollary_ok else 1)
    )
    code = 3 if disagreements else 0
    summary = {
        "subsets": subsets,
        "case_hits": {cid: case_hits.get(cid, 0) for cid in sorted(case_hits)},
        "no_case": no_case,
        "closure_disagreements": closure_witnesses,
        "rank_disagreements": rank_witnesses,
        "circuit_family_equal": family_equal,
        "full_rank_increment_ok": corollary_ok,
        "flat_condition_violations": flat_violations,
        "disagreements": disagreements,
    }
    if fmt == "json":
        return code, json.dumps(summary, indent=2) + "\n"

    def fmt_set(labels) -> str:
        return "{" + ",".join(ctx.sort_set(labels)) + "}"

    lines = [f"subsets checked: {subsets}"]
    lines += [f"  case {cid}: {hits}" for cid, hits in summary["case_hits"].items()]
    lines.append(f"no case applies: {no_case}")
    lines.append(f"rank disagreements: {len(rank_witnesses)}")
    lines += [
        f"  rank mismatch at {fmt_set(w['subset'])}: "
        f"formula {w['formula']} vs oracle {w['oracle']}"
        for w in rank_witnesses
    ]
    lines.append(f"closure disagreements: {len(closure_witnesses)}")
    lines += [
        f"  closure mismatch at {fmt_set(w['subset'])} "
        f"(matched {', '.join(w['matched'])}): formula "
        f"{fmt_set(w['formula'])} vs oracle {fmt_set(w['oracle'])}"
        for w in closure_witnesses
    ]
    lines.append(f"circuit family equal: {family_equal}")
    lines.append(f"full-rank increment ok: {corollary_ok}")
    lines.append(f"flat condition violations: {len(flat_violations)}")
    lines += [
        f"  condition {w['condition']} accepted non-flat {fmt_set(w['subset'])}"
        for w in flat_violations
    ]
    return code, "\n".join(lines) + "\n"


def assert_same_output(out: str, expected: str) -> None:
    """Fail at the first line where ``out`` and ``expected`` differ.

    One ``assert out == expected`` on two reports of about 100 KB makes
    pytest's assertion rewriting spend minutes on its explanation when
    they nearly match; here only the first differing pair of lines is
    shown.  The last check keeps the comparison byte for byte, trailing
    newlines included.
    """
    got, want = out.splitlines(), expected.splitlines()
    for number, (line, wanted) in enumerate(zip(got, want), start=1):
        assert line == wanted, f"line {number}: {line!r} != {wanted!r}"
    assert len(got) == len(want), "one output stops where the other goes on"
    same_bytes = out == expected
    assert same_bytes, "the lines agree but the line endings differ"


def reference_equivalence(g: LabeledGraph, spec: LineSplitSpec) -> bool:
    """Whether the vertex split of ``g`` and the matroid split of its
    cycle matroid have the same circuits.  Both splits come from
    ``graphs._splits``, which calls ``graphs.n_line_split`` through its
    module, so a test that replaces that function there reaches this
    route and ``verify_equivalence`` alike."""
    ctx, h = graphs._splits(g, spec)
    matroid_side = split_matroid(ctx)
    graph_side = BinaryMatroid(graphs.incidence_matrix(h))
    return set(graph_side.circuits()) == set(matroid_side.circuits())


def graph_closure(g: LabeledGraph, labels: Iterable[str]) -> frozenset[str]:
    """The closure of the edges ``labels`` in the cycle matroid of ``g``:
    every edge whose endpoints are joined by a path of those edges,
    found by union-find on the vertices."""
    parent = {v: v for v in g.vertices}

    def root(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen = frozenset(labels)
    for label, u, v in g.edges:
        if label in chosen:
            parent[root(u)] = root(v)
    return frozenset(label for label, u, v in g.edges if root(u) == root(v))

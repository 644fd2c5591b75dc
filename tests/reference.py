"""Definition-level references for the oracle's enumerations and for
``essplit check``.

``reference_flats`` and ``reference_circuits`` walk every subset of the
ground set, so they are exponential in its size and only serve to check
``BinaryMatroid.circuits()`` and ``BinaryMatroid.flats()`` on small
instances.  ``reference_base_facts`` computes the odd-overlap circuit
facts of one base part on label sets, the way ``splitting`` did before
its record moved to position masks.  ``reference_check_report`` answers
every subset of a ``check`` run on its own, with no work shared between
subsets, and ``assert_same_output`` compares two outputs line by line.
"""

from __future__ import annotations

import json
import random

from essplit import BinaryMatroid, SplitContext, SplitQuery, split_matroid
from essplit.errors import GroundSetTooLarge
from essplit.splitting import (
    predict_circuits,
    predict_closure,
    predict_is_flat,
    predict_rank,
)


def reference_flats(m: BinaryMatroid) -> tuple[frozenset[str], ...]:
    """The closure of every subset, deduplicated, canonically ordered."""
    seen: set[frozenset[str]] = set()
    out: list[frozenset[str]] = []
    for subset in m.all_subsets():
        closed = m.closure_of(subset)
        if closed not in seen:
            seen.add(closed)
            out.append(closed)
    out.sort(key=m.subset_key)
    return tuple(out)


def reference_circuits(m: BinaryMatroid) -> tuple[frozenset[str], ...]:
    """Every subset that is dependent while each subset one element
    smaller is independent, in the canonical order of ``all_subsets``."""
    return tuple(
        subset
        for subset in m.all_subsets()
        if m.rank_of(subset) < len(subset)
        and all(m.rank_of(subset - {z}) == len(subset) - 1 for z in subset)
    )


def reference_base_facts(ctx: SplitContext, labels) -> dict:
    """The circuit facts of a base part A, from their definitions on
    label sets: whether A, A + e and cl(A) hold an odd-overlap circuit,
    and the sets F, F* and T."""
    a = frozenset(labels)
    e = ctx.e
    cl = ctx.base.closure_of(a)
    ox = ctx.ox_circuits

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


def _check_subsets(ctx: SplitContext, sample: int | None, seed: int):
    """The subsets of a ``check`` run, in report order: all of them by
    size and position, or ``sample`` distinct ones in first-draw order,
    or all of them in mask order when ``sample`` covers them all."""
    ground = ctx.split_ground
    n = len(ground)
    if sample is None:
        if n > BinaryMatroid.SUBSET_CAP:
            raise GroundSetTooLarge(
                f"{n} split elements exceed the exhaustive cap of "
                f"{BinaryMatroid.SUBSET_CAP}; rerun with --sample N"
            )
        yield from split_matroid(ctx).all_subsets()
        return
    total = 1 << n
    if sample >= total:
        masks = range(total)
    else:
        rng = random.Random(seed)
        drawn: dict[int, None] = {}
        while len(drawn) < sample:
            drawn[rng.randrange(total)] = None
        masks = drawn
    for mask in masks:
        yield frozenset(ground[i] for i in range(n) if (mask >> i) & 1)


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
        q = SplitQuery.of(ctx, a_prime)
        report = predict_closure(ctx, q)
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
        formula_rank = predict_rank(ctx, q)
        oracle_rank = oracle.rank_of(a_prime)
        if formula_rank != oracle_rank:
            rank_witnesses.append(
                {
                    "subset": list(ctx.sort_set(a_prime)),
                    "formula": formula_rank,
                    "oracle": oracle_rank,
                }
            )

    family_equal = set(predict_circuits(ctx).all_circuits()) == set(oracle.circuits())
    corollary_ok = oracle.rank_of(oracle.ground) == ctx.base.rank_of(ctx.base.ground) + 1
    flat_violations: list[dict] = []
    for flat in ctx.base.flats():
        for extras in ((), (ctx.label_a,), (ctx.label_gamma,), (ctx.label_a, ctx.label_gamma)):
            a_prime = frozenset(flat) | set(extras)
            condition = predict_is_flat(ctx, SplitQuery.of(ctx, a_prime))
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

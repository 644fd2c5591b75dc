"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 1, 2 and 6 check the corrected showcase data and the base-only
closure rule.  Three printed golden entries are impossible from the
printed data alone; criteria 1 and 2 read ``CLOSURE_GOLDENS_CORRECTED``
and ``SPLIT_FLATS_CORRECTED``, which apply ``showcase.ERRATA``, and
tests/test_showcase.py proves each erratum.  Criteria 1, 6a and 6b check
``closure_rule`` and its five shapes against the oracle.  The verbatim
twelve-case table of ``predict_closure`` still runs on every swept
query: 6c fails if two of its matched cases conflict, and its
disagreements with the oracle and its shape misses are printed on the
6a and 6b lines, reported, not failed.  Its known defects are pinned by
``TestPredictClosure`` in tests/test_splitting.py.
"""

import random
import time
from collections import Counter

import pytest

from essplit import (
    closure_rule,
    find_ox_subcircuit,
    predict_circuits,
    predict_closure,
    predict_is_flat,
    predict_rank,
    split_matroid,
    verify_equivalence,
)
from essplit.errors import FormulaDisagreement
from essplit.showcase import (
    BASE_FLATS_LISTED,
    CLOSURE_GOLDENS_CORRECTED,
    SPLIT_FLATS_CORRECTED,
    showcase_graph,
    showcase_split_spec,
)
from essplit.graphs import LabeledGraph, LineSplitSpec

from instances import (
    random_connected_multigraph,
    random_split_instance,
    random_split_spec,
)
from reference import (
    OX,
    all_subsets,
    base_facts,
    circuits_by_overlap,
    classify_circuit,
    reference_base_facts,
)


def report(number: int, name: str, failures: list, extra: str = "") -> None:
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"ACCEPTANCE {number} {name}: {verdict}{extra}")


def test_criterion_1_closure_goldens(wheel_ctx):
    started = time.perf_counter()
    failures = []
    oracle = split_matroid(wheel_ctx)
    for query, listed in CLOSURE_GOLDENS_CORRECTED:
        expected = frozenset(listed)
        rep = closure_rule(wheel_ctx, query)
        computed = oracle.closure_of(query)
        if rep.formula_result != expected or computed != expected:
            failures.append(
                f"query {sorted(query)}: listed {sorted(expected)}, "
                f"formula {sorted(rep.formula_result)}, "
                f"oracle {sorted(computed)}"
            )
    elapsed = time.perf_counter() - started
    report(1, "closure goldens", failures, f" [{elapsed:.3f}s]")
    assert elapsed < 1.0
    assert not failures, "\n".join(failures)


def test_criterion_2_flat_lists(wheel_ctx, wheel_split):
    failures = []
    for name, matroid, listed in (
        ("base", wheel_ctx.base, BASE_FLATS_LISTED),
        ("split", wheel_split, SPLIT_FLATS_CORRECTED),
    ):
        oracle_flats = {flat for flat in matroid.flats() if flat}
        for entry in listed:
            if frozenset(entry) not in oracle_flats:
                failures.append(
                    f"{name} entry {sorted(entry)} rejected; closure is "
                    f"{sorted(matroid.closure_of(entry))}"
                )
        extras = oracle_flats - {frozenset(entry) for entry in listed}
        print(
            f"criterion 2 [{name}]: {len(listed)} listed, "
            f"{len(oracle_flats)} oracle flats (empty set excluded), "
            f"{len(extras)} oracle flats unlisted"
        )
    report(2, "flat lists", failures)
    assert not failures, "\n".join(failures)


def test_criterion_3_circuit_family():
    started = time.perf_counter()
    rng = random.Random(1003)
    failures = []
    for trial in range(200):
        ctx = random_split_instance(rng, rng.randint(4, 9))
        oracle = split_matroid(ctx)
        predicted = set(predict_circuits(ctx).all_circuits())
        if predicted != set(oracle.circuits()):
            failures.append(f"trial {trial}: ground {ctx.base.ground}")
        if oracle.rank_of(oracle.ground) != ctx.base.rank_of(ctx.base.ground) + 1:
            failures.append(f"trial {trial}: rank increment violated")
    elapsed = time.perf_counter() - started
    report(3, "predicted circuit family equals oracle", failures, f" [{elapsed:.1f}s]")
    assert elapsed < 60.0
    assert not failures, "\n".join(failures)


def test_criterion_4_rank_formula(wheel_ctx, wheel_split):
    failures = []
    for a_prime in all_subsets(wheel_split):
        if predict_rank(wheel_ctx, a_prime) != wheel_split.rank_of(a_prime):
            failures.append(f"wheel query {sorted(a_prime)}")
    rng = random.Random(1004)
    for trial in range(50):
        ctx = random_split_instance(rng, rng.randint(4, 7))
        oracle = split_matroid(ctx)
        if oracle.rank_of(oracle.ground) != ctx.base.rank_of(ctx.base.ground) + 1:
            failures.append(f"trial {trial}: rank increment violated")
        for a_prime in all_subsets(oracle):
            if predict_rank(ctx, a_prime) != oracle.rank_of(a_prime):
                failures.append(f"trial {trial} query {sorted(a_prime)}")
    report(4, "rank formula equals oracle", failures)
    assert not failures, "\n".join(failures[:20])


def test_criterion_5_full_rank_increment(wheel_ctx, wheel_split):
    failures = []
    if wheel_split.rank_of(wheel_split.ground) != wheel_ctx.base.rank_of(
        wheel_ctx.base.ground
    ) + 1:
        failures.append("wheel instance")
    rng = random.Random(1005)
    for trial in range(120):
        ctx = random_split_instance(rng, rng.randint(4, 9))
        oracle = split_matroid(ctx)
        if oracle.rank_of(oracle.ground) != ctx.base.rank_of(ctx.base.ground) + 1:
            failures.append(f"trial {trial}")
    report(5, "split rank is base rank plus one", failures)
    assert not failures, "\n".join(failures)


def _sweep_instances(wheel_ctx, wheel_split):
    """The wheel plus 50 seeded random instances with 4 to 6 elements."""
    sweeps = [(wheel_ctx, wheel_split)]
    rng = random.Random(1006)
    for _ in range(50):
        ctx = random_split_instance(rng, rng.randint(4, 6))
        sweeps.append((ctx, split_matroid(ctx)))
    return sweeps


def _dispatcher_sweep(sweeps):
    """Run ``closure_rule`` and the paper table on every query.

    Returns the rule's failures (a query not matched by exactly one case,
    or a result other than the oracle's), the rule's shape misses, and
    for the paper table its disagreements counted by matched case ids,
    its shape misses and its no-case count.  A multiply matched table
    query raises FormulaDisagreement out of predict_closure.
    """
    rule_bad, rule_miss = [], []
    table_bad, table_miss, no_case = Counter(), 0, 0
    for ctx, oracle in sweeps:
        for a_prime in all_subsets(oracle):
            oracle_closure = oracle.closure_of(a_prime)
            rule = closure_rule(ctx, a_prime)
            if len(rule.matched_cases) != 1 or rule.formula_result != oracle_closure:
                rule_bad.append(
                    f"A'={sorted(a_prime)} matched {list(rule.matched_cases)}: "
                    f"rule {sorted(rule.formula_result or ())} vs oracle "
                    f"{sorted(oracle_closure)}"
                )
            # The closure shapes of both predictors at A, as masks.
            facts = base_facts(ctx, a_prime)
            oracle_mask = ctx.mask_of(oracle_closure)
            if oracle_mask not in facts.rule_shapes:
                rule_miss.append(f"A'={sorted(a_prime)}")
            table = predict_closure(ctx, a_prime)
            if not table.matched_cases:
                no_case += 1
            elif table.formula_result != oracle_closure:
                table_bad["+".join(table.matched_cases)] += 1
            if oracle_mask not in facts.table_shapes:
                table_miss += 1
    return rule_bad, rule_miss, table_bad, table_miss, no_case


@pytest.fixture(scope="module")
def dispatcher_sweep(wheel_ctx, wheel_split):
    """One ``_dispatcher_sweep`` shared by criteria 6a, 6b and 6c.

    A FormulaDisagreement is kept, not raised here, and ``_swept``
    raises it again in each test that reads the sweep, so each of them
    fails on a conflict between matched table cases: the part (c)
    contract.
    """
    try:
        return _dispatcher_sweep(_sweep_instances(wheel_ctx, wheel_split))
    except FormulaDisagreement as exc:
        return exc


def _swept(result):
    if isinstance(result, FormulaDisagreement):
        raise result
    return result


def test_criterion_6a_closure_formula_soundness(dispatcher_sweep):
    mismatches, _, table_bad, _, no_case = _swept(dispatcher_sweep)
    by_case = ", ".join(f"{case} {n}" for case, n in sorted(table_bad.items()))
    print(f"criterion 6 paper table no-case-applies count: {no_case} (reported, not failed)")
    report(
        6,
        "(a) closure rule equals oracle, one case per query",
        mismatches,
        f"; paper table: {sum(table_bad.values())} disagreements ({by_case}) "
        "(reported, not failed)",
    )
    assert not mismatches, (
        f"{len(mismatches)} queries break the closure rule; first five:\n"
        + "\n".join(mismatches[:5])
    )


def test_criterion_6b_shape_coverage(dispatcher_sweep):
    _, misses, _, table_misses, _ = _swept(dispatcher_sweep)
    report(
        6,
        "(b) oracle closure is one of the five rule shapes",
        misses,
        f"; paper table: {table_misses} closures outside its seven shapes "
        "(reported, not failed)",
    )
    assert not misses, (
        f"{len(misses)} closures fall outside the five shapes; first five:\n"
        + "\n".join(misses[:5])
    )


def test_criterion_6c_matched_cases_never_disagree(dispatcher_sweep):
    # predict_closure raises FormulaDisagreement on any conflict, so a
    # clean sweep is the assertion.
    failures = []
    _swept(dispatcher_sweep)
    report(6, "(c) multiply-matched cases agree", failures)
    assert not failures


def test_criterion_7_flat_conditions_sufficient(wheel_ctx, wheel_split):
    failures = []
    instances = [(wheel_ctx, wheel_split)]
    rng = random.Random(1007)
    for _ in range(50):
        ctx = random_split_instance(rng, rng.randint(4, 6))
        instances.append((ctx, split_matroid(ctx)))
    for ctx, oracle in instances:
        for flat in ctx.base.flats():
            for extras in (
                (),
                (ctx.label_a,),
                (ctx.label_gamma,),
                (ctx.label_a, ctx.label_gamma),
            ):
                a_prime = frozenset(flat) | set(extras)
                condition = predict_is_flat(ctx, a_prime)
                if condition is not None and not oracle.is_flat(a_prime):
                    failures.append(
                        f"condition {condition} accepted non-flat {sorted(a_prime)}"
                    )
    report(7, "flat conditions are sufficient", failures)
    assert not failures, "\n".join(failures[:10])


def test_criterion_8_graph_equivalence():
    failures = []
    if not verify_equivalence(showcase_graph(), showcase_split_spec()):
        failures.append("wheel configuration")
    star = LabeledGraph.from_edges(
        [
            ("e", "u", "v"),
            ("p1", "u", "x1"),
            ("p2", "u", "x2"),
            ("q1", "u", "y1"),
            ("q2", "u", "y2"),
        ]
    )
    star_spec = LineSplitSpec(
        "u", "e", frozenset({"p1", "p2"}), frozenset({"q1", "q2"})
    )
    if not verify_equivalence(star, star_spec):
        failures.append("star configuration")
    rng = random.Random(1008)
    done = 0
    while done < 100:
        graph = random_connected_multigraph(rng)
        spec = random_split_spec(rng, graph)
        if spec is None:
            continue
        done += 1
        if not verify_equivalence(graph, spec):
            failures.append(f"random trial {done}: {graph.edges} / {spec}")
    report(8, "graph split equals matroid split", failures)
    assert not failures, "\n".join(failures[:5])


def test_criterion_9_property_suites(wheel_ctx):
    failures = []
    rng = random.Random(1009)
    instances = [wheel_ctx] + [
        random_split_instance(rng, rng.randint(4, 6)) for _ in range(12)
    ]

    # Closure via circuits: cl(A) = A + {x : some circuit through x in A + x}.
    for ctx in instances:
        base = ctx.base
        circuits = base.circuits()
        for subset in all_subsets(base):
            expected = set(subset)
            for x in base.ground:
                if x not in subset and any(
                    x in c and c <= subset | {x} for c in circuits
                ):
                    expected.add(x)
            if base.closure_of(subset) != expected:
                failures.append(f"closure/circuit mismatch at {sorted(subset)}")

    # Absorption: x in cl(A) implies cl(A + x) = cl(A).
    for ctx in instances:
        base = ctx.base
        for _ in range(60):
            subset = frozenset(lab for lab in base.ground if rng.random() < 0.4)
            closed = base.closure_of(subset)
            for x in closed:
                if base.closure_of(subset | {x}) != closed:
                    failures.append(f"absorption broken at {sorted(subset)} + {x}")

    # Odd-overlap subcircuit extraction on every qualifying triple.
    for ctx in instances:
        ox, ex = circuits_by_overlap(ctx)
        ox_e = [c for c in ox if ctx.e in c]
        ex_e = [c for c in ex if ctx.e in c]
        for c_ox in ox_e:
            for c_ex in ex_e:
                a = (c_ox | c_ex) - {ctx.e}
                got = find_ox_subcircuit(ctx, c_ox, c_ex, a)
                if not (
                    got <= a
                    and classify_circuit(got, ctx.x_set) == OX
                    and got in ctx.base.circuits()
                ):
                    failures.append(f"bad subcircuit for {sorted(c_ox)}/{sorted(c_ex)}")

    # Reach containment: e in cl(A) forces T(A) inside cl(A).  T comes
    # from its definition, as the record keeps it only for e outside
    # cl(A), and some T met here must be nonempty.
    nonempty_t = 0
    for ctx in instances:
        base = ctx.base
        for subset in all_subsets(base):
            closed = base.closure_of(subset)
            if ctx.e not in closed:
                continue
            t = reference_base_facts(ctx, subset)["t"]
            nonempty_t += bool(t)
            if not t <= closed:
                failures.append(f"T escapes closure at {sorted(subset)}")
    if not nonempty_t:
        failures.append("reach containment met no nonempty T")

    report(9, "property suites", failures)
    assert not failures, "\n".join(failures[:10])

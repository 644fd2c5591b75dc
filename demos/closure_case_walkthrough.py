#!/usr/bin/env python3
# Walk the bundled closure queries through the case dispatcher, showing
# which case fired, what it predicts, and what the matrix really says.
# Two of the listed expectations are impossible (see the showcase module
# docstring); the walkthrough makes the mismatch visible instead of
# hiding it.

from itertools import combinations

from essplit import predict_closure, split_matroid
from essplit.showcase import CLOSURE_GOLDENS, showcase_context

ctx = showcase_context()
oracle = split_matroid(ctx)


def fmt(labels):
    return "{" + ",".join(ctx.sort_set(labels)) + "}"


def all_subsets(ground):
    for size in range(len(ground) + 1):
        for combo in combinations(ground, size):
            yield frozenset(combo)


print("query -> matched case(s): formula / oracle")
print("-" * 60)
for query, listed in CLOSURE_GOLDENS:
    rep = predict_closure(ctx, query)
    computed = oracle.closure_of(query)
    mark = "ok" if rep.formula_result == computed else "FORMULA DISAGREES"
    print(f"{fmt(query):>18} -> {','.join(rep.matched_cases):8}")
    print(f"{'':>18}    formula {fmt(rep.formula_result)}")
    print(f"{'':>18}    oracle  {fmt(computed)}   [{mark}]")
    if frozenset(listed) != computed:
        print(f"{'':>18}    listed  {fmt(listed)}   [rejected by the matrix]")

# Exhaustive tally over all 1024 subsets of the split ground set.
hits: dict[str, int] = {}
disagreements = 0
for a_prime in all_subsets(oracle.ground):
    rep = predict_closure(ctx, a_prime)
    for case_id in rep.matched_cases:
        hits[case_id] = hits.get(case_id, 0) + 1
    if rep.formula_result is not None and rep.formula_result != oracle.closure_of(a_prime):
        disagreements += 1

print()
print("case coverage over all subsets:")
for case_id in sorted(hits):
    print(f"  {case_id}: {hits[case_id]}")
print(f"formula/oracle disagreements: {disagreements} of 1024")

# The case table is the weak link, not the construction: closing A'
# under the predicted circuit family alone reproduces the oracle on
# every query.
from essplit import predict_circuits  # noqa: E402

circuits = [ctx.labels_of(c) for c in predict_circuits(ctx).minimal]
exact = 0
for a_prime in all_subsets(oracle.ground):
    closed = set(a_prime)
    for z in ctx.split_ground:
        if z not in closed and any(z in c and c <= a_prime | {z} for c in circuits):
            closed.add(z)
    exact += frozenset(closed) == oracle.closure_of(a_prime)
print(f"closure via the predicted circuit family: {exact} of 1024 exact")
print("run `essplit check` on this instance for the full witness list.")

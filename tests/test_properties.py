"""Hypothesis properties: the base-only predictions against the oracle.

``predict_rank``, ``closure_rule`` and ``predict_circuits`` read base
data only; ``split_matroid`` is the brute-force GF(2) oracle.  The
drawn bases have loops, parallel classes and zero rows, e is often a
loop, and X is often {e} or the whole ground set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from essplit import (
    SplitContext,
    SplitQuery,
    closure_rule,
    predict_circuits,
    predict_rank,
    split_matroid,
)
from essplit.splitting import _BaseFacts

from instances import matroid_from_columns


@st.composite
def split_contexts(draw):
    n_rows = draw(st.integers(0, 3))
    n = draw(st.integers(1, 6))
    columns: list[int] = []
    for _ in range(n):
        kind = draw(st.sampled_from(["loop", "parallel", "random"]))
        if kind == "loop" or n_rows == 0:
            columns.append(0)
        elif kind == "parallel" and columns:
            columns.append(draw(st.sampled_from(columns)))
        else:
            columns.append(draw(st.integers(0, (1 << n_rows) - 1)))
    base = matroid_from_columns(columns, n_rows + draw(st.integers(0, 1)))
    loops = [lab for lab, word in zip(base.ground, columns) if word == 0]
    e = draw(st.sampled_from(loops if loops and draw(st.booleans()) else base.ground))
    shape = draw(st.sampled_from(["e only", "everything", "random"]))
    if shape == "e only":
        x = {e}
    elif shape == "everything":
        x = set(base.ground)
    else:
        x = {e} | set(draw(st.lists(st.sampled_from(base.ground), max_size=n)))
    return SplitContext(base, frozenset(x), e, "a", "g")


@settings(max_examples=60, deadline=None)
@given(split_contexts())
def test_rank_and_closure_rule_match_the_oracle(ctx):
    oracle = split_matroid(ctx)
    for a_prime in oracle.all_subsets():
        q = SplitQuery.of(ctx, a_prime)
        facts = _BaseFacts.of(ctx, q.a)
        assert predict_rank(ctx, q, facts=facts) == oracle.rank_of(a_prime)
        report = closure_rule(ctx, q, facts=facts)
        assert len(report.matched_cases) == 1
        assert report.formula_result == oracle.closure_of(a_prime)


@settings(max_examples=60, deadline=None)
@given(split_contexts())
def test_predicted_circuits_match_the_oracle(ctx):
    family = predict_circuits(ctx)
    assert set(family.all_circuits()) == set(split_matroid(ctx).circuits())

"""Hypothesis properties: the base-only predictions against the oracle.

``predict_rank``, ``closure_rule`` and ``predict_circuits`` read base
data only; ``split_matroid`` is the brute-force GF(2) oracle.  The
drawn bases have loops, parallel classes and zero rows, e is often a
loop, and X is often {e} or the whole ground set.  Over the same space,
``predict_circuits`` must also give the very tuples of
``reference_circuit_family``, its earlier form on label sets.
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
from reference import reference_circuit_family


@st.composite
def split_contexts(draw, max_rows: int = 3, max_n: int = 6):
    n_rows = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_n))
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


# The space of ``test_circuit_family.py``: up to 10 elements and 5 rows.
@settings(max_examples=150, deadline=None)
@given(split_contexts(max_rows=5, max_n=10))
def test_predicted_circuits_match_the_label_set_reference(ctx):
    family = predict_circuits(ctx)
    expected = reference_circuit_family(ctx)
    for name in ("c0", "c1", "c2", "c3", "delta"):
        assert getattr(family, name) == getattr(expected, name), name
    assert family.all_circuits() == expected.all_circuits()

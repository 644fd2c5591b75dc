"""Hypothesis properties: the base-only predictions against the oracle.

``predict_rank``, ``closure_rule`` and ``predict_circuits`` read base
data only; ``split_matroid`` is the brute-force GF(2) oracle.  The
record of base facts, built from ranks with the parity row, must equal
``reference_base_facts``, the circuit definitions, on every base part,
with F* and T under their guards and 0 off them.  The drawn bases have
loops, parallel classes and zero rows, e is often a loop, and X is
often {e} or the whole ground set.  Over the same space,
``predict_circuits`` must also give the very tuples of
``reference_circuit_family``, its earlier form on label sets; a second
strategy plants unions of two disjoint odd-overlap circuits that hold an
even-overlap circuit, which c1 must leave out.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from essplit import (
    SplitContext,
    closure_rule,
    predict_circuits,
    predict_rank,
    split_matroid,
)

from instances import matroid_from_columns
from reference import (
    all_subsets,
    assert_guarded_sets,
    base_facts,
    reference_base_facts,
    reference_circuit_family,
)


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
    for a_prime in all_subsets(oracle):
        assert predict_rank(ctx, a_prime) == oracle.rank_of(a_prime)
        report = closure_rule(ctx, a_prime)
        assert len(report.matched_cases) == 1
        assert report.formula_result == oracle.closure_of(a_prime)


@settings(max_examples=150, deadline=None)
@given(split_contexts(max_rows=4, max_n=8))
def test_base_facts_match_the_circuit_definitions(ctx):
    base = ctx.base
    for a in all_subsets(base):
        facts = base_facts(ctx, a)
        expected = reference_base_facts(ctx, a)
        for name in ("ox_a", "ox_ae", "ox_cl"):
            assert getattr(facts, name) == expected[name], name
        assert ctx.labels_of(facts.f) == expected["f"]
        assert_guarded_sets(ctx, facts, expected)


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


@st.composite
def planted_even_unions(draw):
    """Contexts where two disjoint odd-overlap circuits have a union that
    holds an even-overlap circuit, which c1 must leave out.

    Columns u, v, u + v and u, w, u + w come first, with only the two u
    columns in X: {u, v, u + v} and {u, w, u + w} are disjoint circuits
    of odd overlap, and the two u columns form a parallel pair of even
    overlap inside their union.  Random columns follow, any of them in
    X, and e is drawn from X.
    """
    n_rows = draw(st.integers(2, 4))
    top = (1 << n_rows) - 1
    u = draw(st.integers(1, top))
    v = draw(st.integers(1, top).filter(lambda word: word != u))
    w = draw(st.integers(1, top).filter(lambda word: word != u))
    extra = draw(st.lists(st.integers(0, top), max_size=4))
    base = matroid_from_columns([u, v, u ^ v, u, w, u ^ w, *extra], n_rows)
    x = {"0", "3"} | {lab for lab in base.ground[6:] if draw(st.booleans())}
    e = draw(st.sampled_from(sorted(x)))
    return SplitContext(base, frozenset(x), e, "a", "g")


@settings(max_examples=60, deadline=None)
@given(planted_even_unions())
def test_c1_leaves_out_unions_that_hold_an_even_circuit(ctx):
    family = predict_circuits(ctx)
    for union in family.c1:
        assert not any(even <= union for even in family.c0)
    expected = reference_circuit_family(ctx)
    for name in ("c0", "c1", "c2", "c3", "delta"):
        assert getattr(family, name) == getattr(expected, name), name
    assert set(family.all_circuits()) == set(split_matroid(ctx).circuits())

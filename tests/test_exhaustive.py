"""Bounded-exhaustive check of the closure and rank predictions.

Every instance with n <= 4 base elements whose columns lie in GF(2)^3:
every multiset of n columns (loops and parallel classes included, so
every binary matroid of rank at most 3 on n elements), every e, a loop
e too, and every X that holds e.  On each instance every subset A' of
the split ground is a query, and ``closure_rule`` and ``predict_rank``
must equal the oracle on all of them, and ``predict_circuits`` must
give the oracle's circuits.  The twelve-case table of
``predict_closure`` is kept verbatim, defects included, so its count of
wrong closures is pinned instead.

The oracle's answers come from one walk of the split matrix per
instance, with the extras e, a and gamma, as in an exhaustive
``check``: entries 0, 2, 4 and 6 of a part's spans answer A, A + a,
A + gamma and A + a + gamma, and entries 0-3 give the record of A.
The predictions are read off the record's plans (``_plans``), as the
predictors and ``check`` read them.  The records reach exactly the 15
signatures that satisfy the six rules ``_Key`` proves (``realisable``).
The walk runs once per session (``walk_every_small_instance``); the
census test of ``test_walk.py`` reads its signatures.
"""

from functools import cache

from essplit import predict_circuits, split_matroid
from essplit.splitting import _BaseFacts, _plans

from instances import every_small_instance
from reference import all_signatures, realisable


@cache
def walk_every_small_instance():
    """Walk every small instance, asserting each circuit family, rule
    closure and rank against the oracle; return the counts of
    instances, loop e's, queries and wrong table closures, and the
    signatures the records reached."""
    instances = loop_e = queries = wrong_table = 0
    reached = set()
    for ctx in every_small_instance():
        n = len(ctx.base.ground)
        oracle = split_matroid(ctx)
        instances += 1
        loop_e += not ctx.base._cols[ctx.lift_extras[0]]
        family = set(predict_circuits(ctx).minimal)
        assert family == set(oracle.circuits(masks=True)), ctx

        def derive(spans):
            return spans, _BaseFacts._span_part(ctx, spans)

        extras = (*ctx.lift_extras, n + 1)
        for part, (spans, span) in oracle.walk_closures(extras, n, derive):
            facts = _BaseFacts(ctx, part, span)
            reached.add(facts.signature)
            plans = _plans(facts.signature)
            for top, (_, table, rank_offset, _, rule) in enumerate(plans):
                oracle_rank, oracle_closure = spans[top << 1]
                query = part | top << n
                assert facts.closure(rule) == oracle_closure, (ctx, query)
                assert facts.rank + rank_offset == oracle_rank, (ctx, query)
                wrong_table += facts.closure(table) != oracle_closure
                queries += 1
    return instances, loop_e, queries, wrong_table, frozenset(reached)


def test_every_small_instance():
    instances, loop_e, queries, wrong_table, reached = walk_every_small_instance()
    assert (instances, loop_e, queries) == (12_152, 1_519, 724_288)
    assert wrong_table == 50_696
    assert reached == set(filter(realisable, all_signatures()))
    assert len(reached) == 15

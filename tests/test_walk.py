"""Differential tests for the mask-native routes of ``essplit check``.

``BinaryMatroid.walk_closures`` visits subsets depth first and carries
residues down from parent to child; every answer it gives is checked
against ``rank_of`` and ``closure_of``.  The position-mask record
``splitting._BaseFacts`` is checked against the label-set definitions of
``reference_base_facts``.  The matrices have loops, parallel classes and
zero rows, and e is often a loop.
"""

import random

from essplit import SplitContext, split_matroid
from essplit.splitting import _BaseFacts

from instances import matroid_from_columns, random_columns
from reference import base_facts, reference_base_facts


def random_contexts(seed, count=160, max_n=7):
    """Split contexts on random matrices; the top rows of a matrix are
    zero whenever ``n_rows`` exceeds the rows its columns use."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        used = rng.randint(0, 4)
        m = matroid_from_columns(random_columns(rng, n, used), used + rng.randint(0, 2))
        loops = [lab for lab in m.ground if m.rank_of({lab}) == 0]
        e = rng.choice(loops if loops and rng.random() < 0.4 else m.ground)
        x = {e} | {lab for lab in m.ground if rng.random() < 0.5}
        yield SplitContext(m, x, e, "a", "g"), rng


def test_the_generator_covers_the_hard_cases():
    zero_rows = e_loops = parallel = 0
    for ctx, _ in random_contexts(31):
        m = ctx.base
        cols = [m.matrix.column(lab) for lab in m.ground]
        zero_rows += any(row == 0 for row in m.matrix.rows)
        e_loops += m.matrix.column(ctx.e) == 0
        parallel += len({c for c in cols if c}) < len([c for c in cols if c])
    assert min(zero_rows, e_loops, parallel) >= 20


class TestWalkClosures:
    def test_every_part_once_with_oracle_answers(self):
        for ctx, rng in random_contexts(31):
            m = ctx.base
            n = len(m.ground)
            extra = rng.sample(range(n), rng.randint(0, min(2, n)))
            seen = []
            for mask, answers in m.walk_closures(extra, n):
                seen.append(mask)
                a = m._labels(mask)
                assert len(answers) == 2 ** len(extra)
                for i, (rank, closure) in enumerate(answers):
                    part = a | {
                        m.ground[pos] for j, pos in enumerate(extra) if i >> j & 1
                    }
                    assert rank == m.rank_of(part)
                    assert closure == m._mask(m.closure_of(part))
            assert sorted(seen) == list(range(2**n))

    def test_split_parts_with_the_new_elements(self):
        # On the split matrix the parts range over the base positions
        # only, and the extras are the two new columns above them.
        for ctx, _ in random_contexts(32, count=60, max_n=6):
            oracle = split_matroid(ctx)
            n = len(ctx.base.ground)
            walked = dict(oracle.walk_closures((n, n + 1), n))
            assert len(walked) == 2**n
            for mask, answers in walked.items():
                a = oracle._labels(mask)
                for i, extra in enumerate(((), ("a",), ("g",), ("a", "g"))):
                    assert answers[i] == (
                        oracle.rank_of(a | set(extra)),
                        oracle._mask(oracle.closure_of(a | set(extra))),
                    )

    def test_parent_before_child(self):
        m = matroid_from_columns([1, 2, 3, 0, 4], 3)
        order = [mask for mask, _ in m.walk_closures((), 5)]
        position = {mask: i for i, mask in enumerate(order)}
        for mask in order:
            if mask:
                parent = mask ^ 1 << (mask.bit_length() - 1)
                assert position[parent] < position[mask]


class TestMaskRecord:
    def test_walked_and_labelled_records_match_the_definitions(self):
        for ctx, _ in random_contexts(34):
            base = ctx.base
            e = base.ground.index(ctx.e)
            for mask, spans in base.walk_closures((e,), len(base.ground)):
                facts = _BaseFacts(ctx, mask, spans)
                a = base._labels(mask)
                expected = reference_base_facts(ctx, a)
                assert facts.rank == base.rank_of(a)
                assert ctx.labels_of(facts.cl) == base.closure_of(a)
                assert ctx.labels_of(facts.cl_e) == base.closure_of(a | {ctx.e})
                assert facts.e_in_cl == (ctx.e in base.closure_of(a))
                for name in ("ox_a", "ox_ae", "ox_cl"):
                    assert getattr(facts, name) == expected[name], name
                for name in ("f", "f_star", "t"):
                    assert ctx.labels_of(getattr(facts, name)) == expected[name], name
                labelled = base_facts(ctx, a)
                assert all(
                    getattr(labelled, slot) == getattr(facts, slot)
                    for slot in _BaseFacts.__slots__
                )

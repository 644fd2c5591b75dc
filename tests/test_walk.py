"""Differential tests for the mask-native routes of ``essplit check``.

``BinaryMatroid.walk_closures`` visits subsets depth first and carries
residues down from parent to child; every answer it gives is checked
against ``rank_of`` and ``closure_of``, and on 11 to 13 columns against
``closures_at``, where spans recur far apart in the walk.  Its memo is
checked to compute each span once and to store nothing for a free
matroid with a loop.  The one walk of an exhaustive ``check``, on the
split matrix with the extras e, a and gamma, is checked to hold N's
answers and the oracle's.  The position-mask record
``splitting._BaseFacts`` is checked against the label-set definitions of
``reference_base_facts``, F* and T under their guards.  The matrices
have loops, parallel classes and zero rows, and e is often a loop.
"""

import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from essplit import BinaryMatroid, SplitContext, matroid, parse_matrix, split_matroid
from essplit.cli import main
from essplit.errors import FormulaDisagreement
from essplit.showcase import showcase_context
from essplit.splitting import _BaseFacts, _plan

from instances import matroid_from_columns, random_columns
from reference import (
    assert_guarded_sets,
    base_facts,
    facts_from_base_and_parity,
    reference_base_facts,
    reference_cases,
)


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


def wide_contexts(seed, count):
    """Split contexts on 11 to 13 base columns of rank at most 5, each
    with a zero column and a duplicated one, so the walk meets many
    spans at several bases, far apart in its order."""
    rng = random.Random(seed)
    for _ in range(count):
        n, n_rows = rng.randint(11, 13), rng.randint(3, 5)
        columns = random_columns(rng, n, n_rows)
        source, copy, zero = rng.sample(range(n), 3)
        columns[copy] = columns[source] = columns[source] or 1
        columns[zero] = 0
        m = matroid_from_columns(columns, n_rows)
        loops = [lab for lab in m.ground if m.rank_of({lab}) == 0]
        e = rng.choice(loops if rng.random() < 0.3 else m.ground)
        x = {e} | {lab for lab in m.ground if rng.random() < 0.5}
        yield SplitContext(m, x, e, "a", "g")


def walks(ctx):
    """Walks over the base parts, as (matroid, extras, width): N with e
    and a as the extras, as ``_BaseFacts`` reads it, the split matrix
    with a and gamma, as the oracle answers, and the split matrix with
    e, a and gamma, the one walk of an exhaustive ``check``."""
    n = len(ctx.base.ground)
    oracle = split_matroid(ctx)
    return [
        (ctx.lift, ctx.lift_extras, n),
        (oracle, (n, n + 1), n),
        (oracle, (*ctx.lift_extras, n + 1), n),
    ]


class TestWideWalks:
    """Every answer of ``walk_closures`` against ``closures_at`` at the
    same mask, which eliminates from scratch and uses no memo."""

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["N", "split", "check"])
    def test_every_answer_equals_closures_at(self, which):
        for ctx in wide_contexts(38, 3):
            m, extra, width = walks(ctx)[which]
            seen = 0
            for mask, answers in m.walk_closures(extra, width):
                assert answers == m.closures_at(mask, extra), mask
                seen += 1
            assert seen == 2**width


def count_spans(monkeypatch):
    """The ``_spans`` calls: how many, and the rank given, per residue
    tuple."""
    calls, ranks = Counter(), {}
    spans = matroid._spans

    def counting(residues, rank, extra):
        key = tuple(residues)
        calls[key] += 1
        ranks[key] = rank
        return spans(residues, rank, extra)

    monkeypatch.setattr(matroid, "_spans", counting)
    return calls, ranks


class TestSpanMemo:
    """``walk_closures`` computes the answers of a span once when it has
    several bases among the walked positions."""

    def test_spans_with_several_bases_are_computed_once(self, monkeypatch):
        calls, ranks = count_spans(monkeypatch)
        stored = saved = 0
        for ctx in wide_contexts(39, 4):
            for m, extra, width in walks(ctx):
                nonloops = sum(1 << p for p in range(width) if m._cols[p])
                loops = (1 << width) - 1 & ~nonloops
                calls.clear()
                answers = dict(m.walk_closures(extra, width))
                for key, count in calls.items():
                    closure = sum(1 << p for p, word in enumerate(key) if not word)
                    basis = closure & nonloops
                    if basis.bit_count() > ranks[key]:
                        stored += 1
                        assert count == 1, key
                    else:
                        # The only basis, once with each set of the loops
                        # below its top position: not stored.
                        below = loops & (1 << max(basis.bit_length() - 1, 0)) - 1
                        assert count == 1 << below.bit_count(), key
                # Without the memo, answers are computed wherever the top
                # column lies outside the span of the rest.
                fresh = sum(
                    not mask
                    or spans[0][0] > answers[mask ^ 1 << mask.bit_length() - 1][0][0]
                    for mask, spans in answers.items()
                )
                assert len(calls) == len({spans[0][1] for spans in answers.values()})
                saved += fresh - sum(calls.values())
        # Many spans were stored, and each saved at least one call.
        assert stored >= 100
        assert saved >= stored

    def test_exhaustive_check_of_mid12_calls_spans_442_times(self, monkeypatch, capsys):
        # One walk of the split matrix; 884 when N and the split matrix
        # were walked in step, 4,640 before the memo.
        calls, _ = count_spans(monkeypatch)
        golden = Path(__file__).parent / "golden" / "mid12.txt"
        code = main(["check", "--input", str(golden), "--X", "p1,p2,p4,p8,p11,p12",
                     "--e", "p2", "--format", "json"])
        capsys.readouterr()
        assert code == 3
        assert sum(calls.values()) == 442

    def test_a_free_matroid_with_a_loop_stores_nothing(self):
        # 13 unit columns and a zero column: 8,192 spans, each with one
        # basis.  Storing them all would peak near 4.8 MB.
        m = matroid_from_columns([1 << i for i in range(13)] + [0], 13)
        tracemalloc.start()
        try:
            for _ in m.walk_closures((0, 1), 14):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300_000


class TestOneWalk:
    """``check`` reads both the base facts and the oracle's answers off
    the split matrix with the extras e, a and gamma: the split matrix
    without gamma is N, column for column."""

    def test_split_entries_hold_the_answers_of_n_and_of_the_oracle(self):
        e_loops = parallel = with_loops = 0
        for ctx, _ in random_contexts(40):
            base, n = ctx.base, len(ctx.base.ground)
            oracle = split_matroid(ctx)
            cols = [word for word in base._cols if word]
            e_loops += base.matrix.column(ctx.e) == 0
            parallel += len(set(cols)) < len(cols)
            with_loops += len(cols) < n
            assert oracle._cols[: n + 1] == ctx.lift._cols
            walked = 0
            for mask, spans in oracle.walk_closures((*ctx.lift_extras, n + 1), n):
                walked += 1
                lifted = ctx.lift.closures_at(mask, ctx.lift_extras)
                assert [
                    (rank, closure & ~ctx.gamma_bit) for rank, closure in spans[:4]
                ] == list(lifted), mask
                assert spans[::2] == oracle.closures_at(mask, (n, n + 1)), mask
                facts, expected = _BaseFacts(ctx, mask, spans), _BaseFacts.at(ctx, mask)
                for name in (*_BaseFacts.__slots__, "rule_shapes"):
                    assert getattr(facts, name) == getattr(expected, name), name
            assert walked == 2**n
        assert min(e_loops, parallel, with_loops) >= 20


class TestMaskRecord:
    def test_walked_and_labelled_records_match_the_definitions(self):
        off_guard = Counter()
        for ctx, _ in random_contexts(34):
            base = ctx.base
            walk = ctx.lift.walk_closures(ctx.lift_extras, len(base.ground))
            for mask, spans in walk:
                facts = _BaseFacts(ctx, mask, spans)
                a = base._labels(mask)
                expected = reference_base_facts(ctx, a)
                assert facts.rank == base.rank_of(a)
                assert ctx.labels_of(facts.cl) == base.closure_of(a)
                assert ctx.labels_of(facts.cl_e) == base.closure_of(a | {ctx.e})
                assert facts.e_in_cl == (ctx.e in base.closure_of(a))
                for name in ("ox_a", "ox_ae", "ox_cl"):
                    assert getattr(facts, name) == expected[name], name
                assert ctx.labels_of(facts.f) == expected["f"]
                off_guard += assert_guarded_sets(ctx, facts, expected)
                labelled = base_facts(ctx, a)
                assert all(
                    getattr(labelled, slot) == getattr(facts, slot)
                    for slot in (*_BaseFacts.__slots__, "rule_shapes")
                )
        # Both zero checks met sets whose definition is not empty.
        assert set(off_guard) == {"f_star", "t"}


class TestLift:
    """``_BaseFacts`` reads every base fact off N, the base plus the
    parity row and the column a, where it read the base and M'."""

    def test_facts_from_n_equal_facts_from_the_base_and_m_prime(self):
        e_loops, off_guard = 0, Counter()
        for ctx, _ in random_contexts(35):
            e_loops += ctx.base.matrix.column(ctx.e) == 0
            for mask in range(2 ** len(ctx.base.ground)):
                facts = _BaseFacts.at(ctx, mask)
                expected = facts_from_base_and_parity(ctx, mask)
                for name in (*_BaseFacts.__slots__, "rule_shapes"):
                    assert getattr(facts, name) == expected[name], name
                definitions = reference_base_facts(ctx, ctx.base._labels(mask))
                off_guard += assert_guarded_sets(ctx, facts, definitions)
        assert e_loops >= 20
        assert set(off_guard) == {"f_star", "t"}

    def test_a_record_is_one_elimination(self, monkeypatch):
        calls = []
        closures_at = BinaryMatroid.closures_at

        def counting(matroid, mask, extra):
            calls.append(mask)
            return closures_at(matroid, mask, extra)

        monkeypatch.setattr(BinaryMatroid, "closures_at", counting)
        for ctx, rng in random_contexts(36, count=40):
            mask = rng.getrandbits(len(ctx.base.ground))
            calls.clear()
            _BaseFacts.at(ctx, mask)
            assert calls == [mask]


def plan_instances():
    """Random contexts, the wheel and the 12-element golden instance."""
    yield from (ctx for ctx, _ in random_contexts(37, count=120))
    yield showcase_context()
    golden = Path(__file__).parent / "golden" / "mid12.txt"
    base = BinaryMatroid(parse_matrix(golden.read_text(), str(golden)))
    yield SplitContext(base, frozenset("p1 p2 p4 p8 p11 p12".split()), "p2")


class TestCasePlans:
    """The plans of ``_BaseFacts`` against its rows evaluated on every
    call, as ``reference_cases`` does."""

    def test_every_reachable_key_matches_the_rows(self):
        compared = set()
        for ctx in plan_instances():
            walk = ctx.lift.walk_closures(ctx.lift_extras, len(ctx.base.ground))
            for mask, spans in walk:
                facts = _BaseFacts(ctx, mask, spans)
                for top in range(4):
                    has_a, has_gamma = bool(top & 1), bool(top & 2)
                    expected = reference_cases(facts, has_a, has_gamma)
                    assert facts.table_closure(has_a, has_gamma) == expected["table"]
                    assert facts.rule_closure(has_a, has_gamma) == expected["rule"]
                    assert facts.plan(has_a, has_gamma).flat == expected["flat"]
                    assert facts.split_rank(has_a, has_gamma) == expected["rank"]
                    compared.add(facts.signature | top)
        # Every query shape, and many signatures for each.
        assert {key & 3 for key in compared} == {0, 1, 2, 3}
        assert len(compared) >= 50
        assert _plan.cache_info().currsize >= len(compared)

    def test_matched_cases_of_distinct_shapes_are_compared(self):
        # Only table plans match cases of distinct shapes (L3.2 with
        # L3.3, whose values agree on every record).  A record whose
        # values differ there raises the message the rows give.
        raised = 0
        for ctx in plan_instances():
            for mask in range(min(2 ** len(ctx.base.ground), 64)):
                for top in range(4):
                    has_a, has_gamma = bool(top & 1), bool(top & 2)
                    facts = _BaseFacts.at(ctx, mask)
                    cases = facts.plan(has_a, has_gamma).table
                    if len(set(cases.shapes)) < 2:
                        continue
                    # Give the last matched case's shape a value of its own.
                    shapes = list(facts.table_shapes)
                    shapes[cases.shapes[-1]] ^= ctx.gamma_bit
                    facts.table_shapes = tuple(shapes)
                    expected = reference_cases(facts, has_a, has_gamma)["table"]
                    assert isinstance(expected, FormulaDisagreement)
                    with pytest.raises(FormulaDisagreement) as got:
                        facts.table_closure(has_a, has_gamma)
                    assert str(got.value) == str(expected)
                    raised += 1
        assert raised >= 20

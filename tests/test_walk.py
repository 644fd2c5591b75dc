"""Differential tests for the mask-native routes of ``essplit check``.

``BinaryMatroid.walk_closures`` visits subsets depth first and carries
residues down from parent to child; every answer it gives is checked
against ``rank_of`` and ``closure_of``, and on 11 to 13 columns against
``closures_at``, where spans recur far apart in the walk.  With zero
columns at the lowest, a middle and the highest position, every part
is checked to come once, after its parent, and a derived function of
the answers to run once per span.  Its memo is checked to compute each
span once and to store nothing for a free matroid with a loop.  The
one walk of an exhaustive ``check``, on the split matrix with the
extras e, a and gamma, is checked to hold N's answers and the
oracle's, and its parts with cl(A) = A to be the base flats.  The
position-mask record ``splitting._BaseFacts`` is checked against the
label-set definitions of ``reference_base_facts``, F* and T under
their guards.  Its span part, shared by the parts of one span, is
checked against records made on a fresh context, and an exhaustive
``check`` is checked to derive it once per span and, on a free matroid
with a loop, to keep no span.  The matrices have loops, parallel
classes and zero rows, and e is often a loop.
"""

import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from essplit import BinaryMatroid, SplitContext, matroid, parse_matrix, split_matroid
from essplit.cli import main
from essplit.errors import FormulaDisagreement
from essplit.gf2 import format_matrix
from essplit.showcase import showcase_context
from essplit.splitting import _BaseFacts, _Key, _plans

from instances import matroid_from_columns, random_columns
from reference import (
    all_signatures,
    assert_guarded_sets,
    base_facts,
    facts_from_base_and_parity,
    plan_answers,
    realisable,
    reference_base_facts,
    reference_cases,
    span_sets,
)
from test_exhaustive import walk_every_small_instance


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

    def test_walked_loops_apart_at_every_position(self):
        # Two to four zero columns, among the lowest, a middle and the
        # highest position, and a parallel pair.  Every part comes once,
        # after its parent, with the derived answers of ``closures_at``,
        # and each span is derived once.
        rng = random.Random(43)
        placed = Counter()
        for _ in range(24):
            n = rng.randint(7, 10)
            ends = rng.choice([(0, n - 1), (0, n // 2), (n // 2, n - 1), (0, n // 2, n - 1)])
            zeros = {*ends, *rng.sample(range(n), rng.randint(0, 4 - len(ends)))}
            columns = [0 if pos in zeros else rng.getrandbits(4) or 1 for pos in range(n)]
            source, copy = rng.sample([pos for pos in range(n) if pos not in zeros], 2)
            columns[copy] = columns[source]
            placed.update({"low": 0 in zeros, "middle": n // 2 in zeros, "high": n - 1 in zeros})
            m = matroid_from_columns(columns, 4)
            extra = rng.sample(range(n), rng.randint(0, 2))
            derived = Counter()

            def derive(answers):
                derived[answers[0][1]] += 1
                return "derived", answers

            position = {}
            for mask, value in m.walk_closures(extra, n, derive):
                assert mask not in position
                position[mask] = len(position)
                assert value == ("derived", m.closures_at(mask, extra)), mask
                if mask:
                    assert position[mask ^ 1 << mask.bit_length() - 1] < position[mask]
            assert len(position) == 2**n
            assert set(derived.values()) == {1}
            assert len(derived) == len({m.closures_at(mask, ())[0][1] for mask in position})
        assert min(placed["low"], placed["middle"], placed["high"]) >= 8


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


def walked_records(ctx, m, extra):
    """(mask, spans, record) for every base part, from one walk of ``m``
    that derives the span part of each span once, as ``check`` does."""

    def derive(spans):
        return spans, _BaseFacts._span_part(ctx, spans)

    for mask, (spans, span) in m.walk_closures(extra, len(ctx.base.ground), derive):
        yield mask, spans, _BaseFacts(ctx, mask, span)


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
    """``walk_closures`` computes the answers of each span once: from
    the memo when the span has several bases among the walked
    non-loops, and at its one basis, the walked loops apart, when not."""

    def test_spans_with_several_bases_are_computed_once(self, monkeypatch):
        calls, ranks = count_spans(monkeypatch)
        stored = saved = 0
        for ctx in wide_contexts(39, 4):
            for m, extra, width in walks(ctx):
                nonloops = sum(1 << p for p in range(width) if m._cols[p])
                calls.clear()
                answers = dict(m.walk_closures(extra, width))
                for key, count in calls.items():
                    assert count == 1, key
                    closure = sum(1 << p for p, word in enumerate(key) if not word)
                    stored += (closure & nonloops).bit_count() > ranks[key]
                # Without the memo, and with the loops walked like the
                # other columns, answers are computed wherever the top
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

    def test_exhaustive_check_of_mid12_calls_spans_350_times(self, monkeypatch, capsys):
        # 348 in the one walk of the split matrix, which also yields the
        # base flats, and 2 for the ranks of the full-rank check; 442
        # when the base flats were eliminated again, 884 when N and the
        # split matrix were walked in step, 4,640 before the memo.
        calls, _ = count_spans(monkeypatch)
        golden = Path(__file__).parent / "golden" / "mid12.txt"
        code = main(["check", "--input", str(golden), "--X", "p1,p2,p4,p8,p11,p12",
                     "--e", "p2", "--format", "json"])
        capsys.readouterr()
        assert code == 3
        assert sum(calls.values()) == 350

    def test_exhaustive_check_of_mid14_calls_spans_185_times(self, monkeypatch, capsys):
        # 183 in the walk, one per span, and 2 for the full-rank check;
        # 269 when a span with one basis was computed again with each set
        # of the walked loops below its top position.
        calls, _ = count_spans(monkeypatch)
        golden = Path(__file__).parent / "golden" / "mid14.txt"
        code = main(["check", "--input", str(golden),
                     "--X", "r02,r04,r05,r07,r09,r10,r11,r12,r14", "--e", "r11",
                     "--format", "json"])
        capsys.readouterr()
        assert code == 3
        assert sum(calls.values()) == 185

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
            for mask, spans, facts in walked_records(ctx, oracle, (*ctx.lift_extras, n + 1)):
                walked += 1
                lifted = ctx.lift.closures_at(mask, ctx.lift_extras)
                assert [
                    (rank, closure & ~ctx.gamma_bit) for rank, closure in spans[:4]
                ] == list(lifted), mask
                assert spans[::2] == oracle.closures_at(mask, (n, n + 1)), mask
                expected = _BaseFacts.at(ctx, mask)
                for name in _BaseFacts.__slots__:
                    assert getattr(facts, name) == getattr(expected, name), name
            assert walked == 2**n
        assert min(e_loops, parallel, with_loops) >= 20

    def test_walked_parts_with_closed_records_are_the_base_flats(self):
        # ``check`` takes the base flats from its walk, where the record
        # of A has cl(A) = A, instead of the lattice walk of ``flats()``.
        e_loops = parallel = with_loops = 0
        for ctx, _ in random_contexts(41):
            base, n = ctx.base, len(ctx.base.ground)
            cols = [word for word in base._cols if word]
            e_loops += base.matrix.column(ctx.e) == 0
            parallel += len(set(cols)) < len(cols)
            with_loops += len(cols) < n
            walk = walked_records(ctx, split_matroid(ctx), (*ctx.lift_extras, n + 1))
            closed = [mask for mask, _, facts in walk if facts.cl == mask]
            assert sorted(closed) == sorted(base.flats(masks=True))
        assert min(e_loops, parallel, with_loops) >= 20


def count_span_parts(monkeypatch):
    """The derivations of ``_BaseFacts._span_part``, per spans tuple."""
    derived = Counter()
    span_part = _BaseFacts._span_part

    def counting(ctx, spans):
        derived[spans] += 1
        return span_part(ctx, spans)

    monkeypatch.setattr(_BaseFacts, "_span_part", staticmethod(counting))
    return derived


class TestSpanPart:
    """``_BaseFacts`` takes the facts that depend on span(A), derived
    once per span in the memo of the walk, and derives the rest per
    part."""

    def test_walked_records_equal_records_on_a_fresh_context(self, monkeypatch):
        derived = count_span_parts(monkeypatch)
        e_loops = parallel = with_loops = 0
        f_differs = e_in_a_differs = 0
        for ctx, _ in random_contexts(42, count=80):
            base, n = ctx.base, len(ctx.base.ground)
            cols = [word for word in base._cols if word]
            e_loops += base.matrix.column(ctx.e) == 0
            parallel += len(set(cols)) < len(cols)
            with_loops += len(cols) < n
            derived.clear()
            walk = list(walked_records(ctx, split_matroid(ctx), (*ctx.lift_extras, n + 1)))
            by_span = {}
            for _, spans, facts in walk:
                by_span.setdefault(spans, []).append(facts)
            assert sum(derived.values()) == len(by_span)
            for mask, _, facts in walk:
                fresh = SplitContext(base, ctx.x_set, ctx.e, ctx.label_a, ctx.label_gamma)
                expected = _BaseFacts.at(fresh, mask)
                for name in _BaseFacts.__slots__:
                    assert getattr(facts, name) == getattr(expected, name), name
            for records in by_span.values():
                f_differs += len({facts.f for facts in records}) > 1
                e_in_a_differs += len({facts.a & ctx.e_bit for facts in records}) > 1
        assert min(e_loops, parallel, with_loops) >= 10
        assert min(f_differs, e_in_a_differs) >= 50

    def test_exhaustive_check_of_mid14_derives_each_span_once(self, monkeypatch, capsys):
        # 183 distinct spans among the 16,384 walked base parts.
        derived = count_span_parts(monkeypatch)
        walked = set()
        walk_closures = BinaryMatroid.walk_closures

        def recording(matroid, extra, width, derive):
            for mask, (spans, span) in walk_closures(matroid, extra, width, derive):
                walked.add(spans)
                yield mask, (spans, span)

        monkeypatch.setattr(BinaryMatroid, "walk_closures", recording)
        golden = Path(__file__).parent / "golden" / "mid14.txt"
        code = main(["check", "--input", str(golden),
                     "--X", "r02,r04,r05,r07,r09,r10,r11,r12,r14", "--e", "r11",
                     "--format", "json"])
        capsys.readouterr()
        assert code == 3
        assert set(derived) == walked
        assert sum(derived.values()) == len(walked) == 183

    def test_sampled_check_of_mid14_derives_each_span_part_once(
        self, monkeypatch, capsys
    ):
        # 5,000 draws: 4,485 base parts, whose first four answers, all
        # that the span part reads, take 143 distinct values.
        derived = count_span_parts(monkeypatch)
        keys = []
        closures_at = BinaryMatroid.closures_at

        def recording(matroid, mask, extra):
            spans = closures_at(matroid, mask, extra)
            if len(extra) == 3:  # e, a and gamma: a drawn part
                keys.append(spans[:4])
            return spans

        monkeypatch.setattr(BinaryMatroid, "closures_at", recording)
        golden = Path(__file__).parent / "golden" / "mid14.txt"
        code = main(["check", "--input", str(golden),
                     "--X", "r02,r04,r05,r07,r09,r10,r11,r12,r14", "--e", "r11",
                     "--sample", "5000", "--seed", "3", "--format", "json"])
        capsys.readouterr()
        assert code == 3
        assert len(keys) == 4485
        assert sum(derived.values()) == len(set(keys)) == 143

    def test_exhaustive_check_of_a_free_matroid_with_a_loop_keeps_no_span(
        self, capsys, tmp_path
    ):
        # 13 unit columns and a zero column: 8,192 spans, each with one
        # basis, so the walk's memo keeps none of them and their span
        # parts.  A memo of every span part peaked near 10 MB.
        base = matroid_from_columns([1 << i for i in range(13)] + [0], 13)
        path = tmp_path / "free.txt"
        path.write_text(format_matrix(base.matrix))
        tracemalloc.start()
        try:
            code = main(["check", "--input", str(path), "--X", "0,1,2,3,4,5,6,7",
                         "--e", "0", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 2_000_000


class TestMaskRecord:
    def test_walked_and_labelled_records_match_the_definitions(self):
        off_guard = Counter()
        for ctx, _ in random_contexts(34):
            base = ctx.base
            for mask, spans, facts in walked_records(ctx, ctx.lift, ctx.lift_extras):
                a = base._labels(mask)
                expected = reference_base_facts(ctx, a)
                sets = span_sets(facts, spans)
                assert facts.rank == base.rank_of(a)
                assert ctx.labels_of(facts.cl) == base.closure_of(a)
                assert ctx.labels_of(sets["cl_e"]) == base.closure_of(a | {ctx.e})
                k = _Key(facts.signature)
                assert k.e_in_cl == (ctx.e in base.closure_of(a))
                for name in ("ox_a", "ox_ae", "ox_cl"):
                    assert getattr(k, name) == expected[name], name
                assert ctx.labels_of(facts.f) == expected["f"]
                off_guard += assert_guarded_sets(ctx, facts, expected, spans)
                labelled = base_facts(ctx, a)
                assert all(
                    getattr(labelled, slot) == getattr(facts, slot)
                    for slot in _BaseFacts.__slots__
                )
                assert span_sets(labelled) == sets
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
                for name in _BaseFacts.__slots__:
                    assert getattr(facts, name) == expected[name], name
                for name, value in span_sets(facts).items():
                    assert value == expected[name], name
                k = _Key(facts.signature)
                for name in ("e_in_cl", "ox_a", "ox_ae", "ox_cl"):
                    assert getattr(k, name) == expected[name], name
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
    call, as ``reference_cases`` does, on every signature and on the 15
    that satisfy ``_Key``'s six rules (``realisable``), which records
    reach (read off the walk of ``test_exhaustive.py``).  The tests over
    every key build their plans uncached, through ``_plans.__wrapped__``,
    so the cache holds only the signatures that records reached."""

    def test_every_reachable_key_matches_the_rows(self):
        compared = set()
        for ctx in plan_instances():
            for _, _, facts in walked_records(ctx, ctx.lift, ctx.lift_extras):
                for top, (shape, table, _, _, _) in enumerate(_plans(facts.signature)):
                    has_a, has_gamma = bool(top & 1), bool(top & 2)
                    expected = reference_cases(facts, has_a, has_gamma)
                    assert plan_answers(facts, top) == expected
                    assert shape == table.shape
                    compared.add(facts.signature | top)
        # Every query shape, and many signatures for each, all of them
        # realisable.
        assert {key & 3 for key in compared} == {0, 1, 2, 3}
        assert len(compared) >= 50
        assert all(realisable(key & ~3) for key in compared)
        assert _plans.cache_info().currsize >= len({key & ~3 for key in compared})

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
                    _, cases, _, _, _ = _plans(facts.signature)[top]
                    if len(set(cases.shapes)) < 2:
                        continue
                    # Give the last matched case's shape a value of its own.
                    shapes = list(facts.shapes)
                    shapes[cases.shapes[-1]] ^= ctx.gamma_bit
                    facts.shapes = tuple(shapes)
                    expected = reference_cases(facts, has_a, has_gamma)["table"]
                    assert isinstance(expected, FormulaDisagreement)
                    with pytest.raises(FormulaDisagreement) as got:
                        plan_answers(facts, top)
                    assert str(got.value) == str(expected)
                    raised += 1
        assert raised >= 20

    def test_the_small_scope_reaches_exactly_the_realisable_signatures(self):
        # Every instance with n <= 4 and r <= 3, read off the one walk
        # of test_exhaustive.py.
        reached = walk_every_small_instance()[-1]
        assert reached == set(filter(realisable, all_signatures()))
        assert len(reached) == 15

    def test_matched_table_cases_share_a_shape_on_every_realisable_key(self):
        # So ``_BaseFacts.closure`` compares equal sets only: the one
        # pair of distinct shapes, L3.2 with L3.3, is cl - F with cl
        # (indices 0 and 1), and F is empty wherever both match.
        pairs = 0
        for signature in filter(realisable, all_signatures()):
            for _, table, _, _, _ in _plans.__wrapped__(signature):
                if len(set(table.shapes)) > 1:
                    assert set(table.shapes) == {0, 1} and not _Key(signature).f
                    pairs += 1
        assert pairs == 4

    def test_the_table_matches_a_case_on_every_key(self):
        # So ``check``'s ``no case applies`` reads 0 on every input.
        plans = [
            plan
            for signature in all_signatures()
            for plan in _plans.__wrapped__(signature)
        ]
        assert len(plans) == 1024
        assert all(table.ids for _, table, _, _, _ in plans)

    def test_the_rule_matches_one_case_on_every_reachable_key(self):
        # F* lies inside cl(A), so a key with e in F* but not in cl(A)
        # is never reached; those with gamma and bound parity match both
        # R3.1 and R3.3.
        unreachable = []
        for signature in all_signatures():
            for top, (_, _, _, _, rule) in enumerate(_plans.__wrapped__(signature)):
                k = _Key(signature | top)
                if k.e_in_f_star and not k.e_in_cl:
                    unreachable.append(rule.ids)
                else:
                    assert len(rule.ids) == 1, signature | top
        assert len(unreachable) == 256
        assert sum(ids == ("R3.1", "R3.3") for ids in unreachable) == 32
        assert all(len(ids) == 1 for ids in unreachable if ids != ("R3.1", "R3.3"))

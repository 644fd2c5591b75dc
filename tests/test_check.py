"""Differential tests for ``essplit check``: its grouped sweep against
the per-subset loop of ``reference_check_report``, byte for byte."""

import contextlib
import io
import json
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essplit import BinaryMatroid, GF2Matrix, SplitContext, cli, splitting
from essplit.cli import (
    _CLOSURE_FIELDS,
    _FLAT_FIELDS,
    _RANK_FIELDS,
    _emit_json,
    _json_text,
    _mask_join,
    _mask_texts,
    _MaskList,
    build_parser,
    main,
)
from essplit.gf2 import format_matrix
from essplit.showcase import showcase_context

import pins
from instances import matroid_from_columns, random_split_instance
from reference import assert_same_output, reference_check_report

GOLDEN = Path(__file__).parent / "golden" / "check-wheel.json"

# The wheel with labels that need JSON escapes: quotes, backslashes and
# non-ASCII letters in its columns and in the names of a and gamma.
ESCAPED_LABELS = {
    "1": '"1', "2": "\\2", "3": "é3", "4": "☃4",
    "5": '5"\\', "6": "6", "x": "x☃", "y": 'yé"',
}
ESCAPED_NEW_LABELS = ('a\\"', "γ")


def run_check(ctx: SplitContext, *extra: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of an in-process ``check`` on ``ctx``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.txt"
        path.write_text(format_matrix(ctx.base.matrix), encoding="utf-8")
        argv = [
            "check",
            "--input", str(path),
            "--X", ",".join(sorted(ctx.x_set)),
            "--e", ctx.e,
            "--label-a", ctx.label_a,
            "--label-gamma", ctx.label_gamma,
            *extra,
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_same_report(ctx: SplitContext, sample: int | None = None, seed: int = 0):
    mode = [] if sample is None else ["--sample", str(sample), "--seed", str(seed)]
    for fmt in ("json", "text"):
        expected_code, expected_out = reference_check_report(ctx, sample, seed, fmt)
        code, out, err = run_check(ctx, *mode, "--format", fmt)
        assert (code, err) == (expected_code, "")
        assert_same_output(out, expected_out)


def modes(ctx: SplitContext):
    """Exhaustive, a sample below 2^n and one covering all 2^n subsets,
    n being the size of the split ground."""
    total = 2 ** len(ctx.split_ground)
    return [None, max(1, total // 3), total + 5]


@pytest.mark.parametrize("sample", modes(showcase_context()))
def test_wheel_matches_reference(sample):
    assert_same_report(showcase_context(), sample, seed=5)


def random_instances():
    rng = random.Random(4242)
    return [random_split_instance(rng, rng.randint(1, 6), max_rank=4) for _ in range(40)]


RANDOM_INSTANCES = random_instances()


@pytest.mark.parametrize("index", range(40))
def test_random_instances_match_reference(index):
    ctx = RANDOM_INSTANCES[index]
    for sample in modes(ctx):
        assert_same_report(ctx, sample, seed=index)


def test_sampled_split_beyond_the_exhaustive_cap():
    rng = random.Random(77)
    ctx = random_split_instance(rng, 19, max_rank=5)
    assert len(ctx.split_ground) > BinaryMatroid.SUBSET_CAP
    assert_same_report(ctx, sample=300, seed=9)


@pytest.mark.parametrize("e", ["0", "1"])
def test_marked_loop_and_parallel_class(e):
    # Columns: 0 and 5 are loops, 1 and 2 are parallel; e is a loop or not.
    base = matroid_from_columns([0, 1, 1, 2, 3, 0], 2)
    ctx = SplitContext(base, frozenset({e, "2", "3"}), e, "a", "g")
    for sample in modes(ctx):
        assert_same_report(ctx, sample, seed=1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_loops_parallel_classes_and_a_marked_loop(data):
    n_rows = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 6))
    columns: list[int] = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["loop", "parallel", "random"]))
        if kind == "loop" or n_rows == 0:
            columns.append(0)
        elif kind == "parallel" and columns:
            columns.append(data.draw(st.sampled_from(columns)))
        else:
            columns.append(data.draw(st.integers(0, (1 << n_rows) - 1)))
    labels = [str(j) for j in range(n)]
    rows = [[word >> i & 1 for word in columns] for i in range(n_rows)]
    base = BinaryMatroid(GF2Matrix.from_rows(rows, labels))
    loops = [lab for lab, word in zip(labels, columns) if word == 0]
    e = data.draw(st.sampled_from(loops if loops and data.draw(st.booleans()) else labels))
    x = {e} | set(data.draw(st.lists(st.sampled_from(labels), max_size=n)))
    ctx = SplitContext(base, frozenset(x), e, "a", "g")
    sample = data.draw(st.sampled_from(modes(ctx)))
    assert_same_report(ctx, sample, seed=data.draw(st.integers(0, 9)))


def relabelled(ctx: SplitContext, rename: dict, label_a: str, label_gamma: str):
    """The same split with its base labels renamed and new a and gamma."""
    matrix = ctx.base.matrix
    return SplitContext(
        BinaryMatroid(GF2Matrix(matrix.rows, tuple(map(rename.get, matrix.col_labels)))),
        frozenset(map(rename.get, ctx.x_set)),
        rename[ctx.e],
        label_a,
        label_gamma,
    )


def escaped_wheel() -> SplitContext:
    return relabelled(showcase_context(), ESCAPED_LABELS, *ESCAPED_NEW_LABELS)


def escaped(ctx: SplitContext, seed: int) -> SplitContext:
    """``ctx`` with every label holding a character that JSON escapes."""
    marks = ['"', "\\", "é", "☃"]
    rename = {
        lab: f"{lab}{marks[(seed + j) % 4]}" if j % 2 else f"{marks[(seed + j) % 4]}{lab}"
        for j, lab in enumerate(ctx.base.ground)
    }
    return relabelled(ctx, rename, f'a{marks[seed % 4]}"', f"γ{marks[(seed + 1) % 4]}")


def test_escaped_wheel_input_is_the_relabelled_wheel():
    text = (GOLDEN.parent / "wheel-escaped.txt").read_text(encoding="utf-8")
    assert text == format_matrix(escaped_wheel().base.matrix)


def test_escaped_wheel_matches_reference():
    ctx = escaped_wheel()
    for sample in modes(ctx):
        assert_same_report(ctx, sample, seed=2)


@pytest.mark.parametrize("index", range(6))
def test_escaped_random_instances_match_reference(index):
    rng = random.Random(5150 + index)
    ctx = escaped(random_split_instance(rng, rng.randint(2, 6), max_rank=4), index)
    for sample in modes(ctx):
        assert_same_report(ctx, sample, seed=index)


@pytest.mark.parametrize("n", [6, 13, 20])
def test_witness_lists_render_as_json_dumps(n):
    # Split grounds of 8, 15 and 22 elements: one byte of a mask, a
    # short last byte and three bytes.  Every shape of mask list (the
    # witnesses of ``check``, the flats of ``flats`` and the bare masks
    # of ``circuits``) through both mask renderers.
    rng = random.Random(n)
    ctx = escaped(random_split_instance(rng, n, max_rank=5), n)
    width = len(ctx.split_ground)

    def mask() -> int:
        return 0 if rng.random() < 0.2 else rng.getrandbits(width)

    cases = ["L3.2", "L3.5", "L3.8.1"]
    conditions = [*range(1, 7), None]
    flats_fields = (("flat", True), ("condition", False))
    rows = {
        _CLOSURE_FIELDS: [
            (mask(), tuple(rng.sample(cases, rng.randint(0, 2))), mask(), mask())
            for _ in range(60)
        ],
        _RANK_FIELDS: [(mask(), rng.randint(0, 9), rng.randint(0, 9)) for _ in range(30)],
        _FLAT_FIELDS: [(mask(), rng.randint(1, 6)) for _ in range(30)],
        flats_fields: [(mask(), rng.choice(conditions)) for _ in range(40)],
        (): [mask() for _ in range(30)],
    }
    assert 0 in rows[()] and any(row[0] == 0 for row in rows[_CLOSURE_FIELDS])
    assert {row[1] for row in rows[flats_fields]} == set(conditions)
    for render in (_mask_texts, _mask_join):
        payload = {
            "none": _MaskList(ctx, [], render, _FLAT_FIELDS),
            "no masks": _MaskList(ctx, [], render),
        }
        expected: dict = {"none": [], "no masks": []}
        for fields, kind in rows.items():
            name = "-".join(key for key, _ in fields) or "masks"
            payload[name] = _MaskList(ctx, kind, render, fields)
            expected[name] = [
                {
                    key: ctx.sorted_labels(value) if is_mask else value
                    for (key, is_mask), value in zip(fields, row)
                }
                if fields
                else ctx.sorted_labels(row)
                for row in kind
            ]
        assert _json_text(payload) == json.dumps(expected, indent=2)
        assert _json_text(payload["none"]) == _json_text(payload["no masks"]) == "[]"


def expanded(ctx: SplitContext, value: object) -> object:
    """``value`` with each ``_MaskList`` in it as the list it stands for."""
    if type(value) is _MaskList:
        return [
            {
                key: ctx.sorted_labels(entry) if is_mask else entry
                for (key, is_mask), entry in zip(value.fields, row)
            }
            if value.fields
            else ctx.sorted_labels(row)
            for row in value
        ]
    if isinstance(value, list):
        return [expanded(ctx, item) for item in value]
    if isinstance(value, dict):
        return {key: expanded(ctx, item) for key, item in value.items()}
    return value


def test_nested_mask_lists_render_as_json_dumps():
    # Mask lists two and three levels deep in lists and dicts, empty ones
    # with fields and without, under keys that are not strings.
    rng = random.Random(31)
    ctx = escaped(random_split_instance(rng, 10, max_rank=4), 31)
    width = len(ctx.split_ground)
    masks = [rng.getrandbits(width) for _ in range(8)] + [0]
    rows = [(mask, ("L3.2",) if mask & 1 else rng.randint(1, 6)) for mask in masks]
    for render in (_mask_texts, _mask_join):
        bare = _MaskList(ctx, masks, render)
        fielded = _MaskList(ctx, rows, render, _FLAT_FIELDS)
        payload = {
            1: [bare, {"rows": fielded, None: []}],
            "deep": [[{"x": fielded, "y": [bare]}], [bare, _MaskList(ctx, [], render)]],
            True: {"empty": _MaskList(ctx, [], render, _FLAT_FIELDS), 2.5: [fielded]},
            None: [[], {}],
        }
        assert _json_text(payload) == json.dumps(expanded(ctx, payload), indent=2)
        for value in (*payload.values(), payload["deep"][0], payload[True]):
            assert _json_text(value) == json.dumps(expanded(ctx, value), indent=2)


def test_unhashable_plain_fields_render_as_json_dumps():
    # A plain field may hold a list or a dict, which no memo can key;
    # equal lists in two rows render alike.
    rng = random.Random(32)
    ctx = escaped(random_split_instance(rng, 10, max_rank=4), 32)
    width = len(ctx.split_ground)
    values = [["L3.2", "L3.3"], ("L3.2",), {"cases": ["R2"]}, [], 3, None, ["L3.2", "L3.3"]]
    rows = [(rng.getrandbits(width), value) for value in values]
    for render in (_mask_texts, _mask_join):
        payload = {"rows": _MaskList(ctx, rows, render, _FLAT_FIELDS)}
        assert _json_text(payload) == json.dumps(expanded(ctx, payload), indent=2)


class CountingStdout:
    """A stdout that keeps only the number of characters written to it."""

    written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_a_report_renders_in_one_join(monkeypatch):
    # The exhaustive report of mid14, 3.2 MB of ASCII.  Its pieces and
    # the one text joined from them peak near twice the text; a join per
    # list or object, with its brackets concatenated around it, copied
    # the text again at each level and peaked at 3.0 times.
    args = build_parser().parse_args(["check", *pins.MID14, "--format", "json"])
    code, payload, _ = args.func(args)
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    tracemalloc.start()
    try:
        _emit_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert stdout.written > 3_000_000
    assert peak <= 2.5 * stdout.written
    # A value joined into a text of its own, whose pieces are gone before
    # the document's join, leaves the peak as it is, so the texts made
    # are counted too: one list or dict, the document, is joined.
    joined = []

    def counting(value, *indent):
        if isinstance(value, (list, dict)):
            joined.append(value)
        return _json_text(value, *indent)

    monkeypatch.setattr(cli, "_json_text", counting)
    _emit_json(payload)
    assert joined == [payload]


def run_pinned(argv: tuple[str, ...], *extra: str) -> tuple[int, str]:
    """Exit code and stdout of an in-process ``check`` on pinned flags."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", *argv, *extra])
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_sample_of_every_subset_prints_the_exhaustive_report(fmt):
    expected_code, expected = reference_check_report(showcase_context(), fmt=fmt)
    for sample in ((), ("--sample", "1024")):
        code, out = run_pinned(pins.WHEEL, *sample, "--format", fmt)
        assert code == expected_code == 3
        assert_same_output(out, expected)


def is_subsequence(rows: list, of: list) -> bool:
    rest = iter(of)
    return all(row in rest for row in rows)


@pytest.mark.parametrize(
    "argv, sample, seed",
    [
        (pins.WHEEL, 40, 3),
        (pins.WHEEL, 300, 5),
        (pins.WHEEL, 700, 11),
        (pins.MID12, 3000, 2),
    ],
)
def test_a_sampled_report_lists_rows_of_the_exhaustive_report(argv, sample, seed):
    # The run mode picks only which queries are checked, so the sampled
    # witnesses come in the exhaustive report's order.
    _, out = run_pinned(argv, "--format", "json")
    exhaustive = json.loads(out)
    _, out = run_pinned(argv, "--sample", str(sample), "--seed", str(seed), "--format", "json")
    sampled = json.loads(out)
    assert sampled["subsets"] == sample
    assert len(sampled["closure_disagreements"]) >= 2
    for kind in ("closure_disagreements", "rank_disagreements"):
        assert is_subsequence(sampled[kind], exhaustive[kind])
    violations = "flat_condition_violations"
    assert sampled[violations] == exhaustive[violations]


def test_golden_is_the_json_reference():
    code, out = reference_check_report(showcase_context())
    assert code == 3
    assert_same_output(out, GOLDEN.read_text())


@pytest.fixture
def every_flat_condition_holds():
    with pins.every_flat_condition_holds():
        yield


@pytest.mark.usefixtures("every_flat_condition_holds")
class TestFlatWitnessOrder:
    """With every condition holding, the flat violations of ``check``
    are many, so their order is pinned: the report order of every
    witness list, by size, then positions.  The pins
    ``check-wheel-flat-mutant.*`` hold the wheel's reports."""

    def test_the_wheel_report_lists_every_lift_of_every_base_flat(self):
        ctx = showcase_context()
        code, out, _ = run_check(ctx, "--format", "json")
        assert code == 3
        violations = json.loads(out)["flat_condition_violations"]
        new = (ctx.label_a, ctx.label_gamma)
        flats = {tuple(lab for lab in w["subset"] if lab not in new) for w in violations}
        tops = {tuple(lab for lab in w["subset"] if lab in new) for w in violations}
        assert len(violations) == 86
        assert len(flats) == len(ctx.base.flats()) == 43
        assert tops == {(), (ctx.label_a,), (ctx.label_gamma,), new}

    @pytest.mark.parametrize("sample", [None, 300])
    def test_reports_match_the_reference(self, sample):
        assert_witness_instances_match(sample)

    def test_a_sampled_report_lists_the_exhaustive_violations(self):
        # A sampled run checks every base flat, so it finds them all.
        _, out = run_pinned(pins.WHEEL, "--format", "json")
        exhaustive = json.loads(out)["flat_condition_violations"]
        _, out = run_pinned(pins.WHEEL, "--sample", "40", "--seed", "3", "--format", "json")
        assert json.loads(out)["flat_condition_violations"] == exhaustive


def assert_witness_instances_match(sample: int | None) -> None:
    """The wheel and four seeded instances of 9 to 11 split elements
    give ``check``'s report and the reference's, in both formats."""
    rng = random.Random(6006)
    instances = [
        random_split_instance(rng, rng.randint(7, 9), max_rank=4) for _ in range(4)
    ]
    for ctx in [showcase_context(), *instances]:
        assert_same_report(ctx, sample, seed=5)


@pytest.fixture
def rank_off_by_one(monkeypatch):
    """``_rank_offset`` one too high on the keys with gamma, without a
    and with e in cl(A), so every such query is a rank witness.  The
    plans are cached, so they are dropped before and after."""
    saved = splitting._rank_offset
    splitting._plans.cache_clear()
    monkeypatch.setattr(
        splitting,
        "_rank_offset",
        lambda k: saved(k) + (k.has_gamma and not k.has_a and k.e_in_cl),
    )
    yield
    monkeypatch.undo()
    splitting._plans.cache_clear()


@pytest.mark.usefixtures("rank_off_by_one")
class TestRankWitnessOrder:
    """With the rank formula off by one on some keys, the rank
    witnesses of ``check`` are many, so their order and text are pinned
    against the reference, which reads the same formula."""

    def test_the_wheel_report_lists_rank_witnesses(self):
        ctx = showcase_context()
        code, out, _ = run_check(ctx, "--format", "json")
        assert code == 3
        witnesses = json.loads(out)["rank_disagreements"]
        assert len(witnesses) >= 10
        for w in witnesses:
            assert ctx.label_gamma in w["subset"] and ctx.label_a not in w["subset"]
            assert w["formula"] == w["oracle"] + 1
        code, out, _ = run_check(ctx, "--format", "text")
        assert f"rank disagreements: {len(witnesses)}\n" in out
        assert out.count("  rank mismatch at {") == len(witnesses)

    @pytest.mark.parametrize("sample", [None, 300])
    def test_reports_match_the_reference(self, sample):
        assert_witness_instances_match(sample)

"""Differential tests for ``essplit check``: its grouped sweep against
the per-subset loop of ``reference_check_report``, byte for byte."""

import contextlib
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essplit import BinaryMatroid, GF2Matrix, SplitContext
from essplit.cli import main
from essplit.gf2 import format_matrix
from essplit.showcase import showcase_context

from instances import matroid_from_columns, random_split_instance
from reference import assert_same_output, reference_check_report

GOLDEN = Path(__file__).parent / "golden" / "check-wheel.json"


def run_check(ctx: SplitContext, *extra: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of an in-process ``check`` on ``ctx``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.txt"
        path.write_text(format_matrix(ctx.base.matrix))
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


def test_wheel_matches_golden_report():
    code, out, _ = run_check(showcase_context(), "--format", "json")
    assert code == 3
    assert_same_output(out, GOLDEN.read_text())


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


def test_golden_is_the_json_reference():
    code, out = reference_check_report(showcase_context())
    assert code == 3
    assert_same_output(out, GOLDEN.read_text())

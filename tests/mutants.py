"""A table of source mutants, each with the tests that must fail on it.

A row is one mutant: an exact text substitution ``old`` -> ``new`` in
one file under ``src/``, and the pytest node ids that must fail once it
is made.  With the standard library and pytest installed,
``python tests/mutants.py`` makes each mutant in turn in a temporary
copy of ``src/``, runs only its tests against that copy, and exits 1 if
any mutant survives (its tests pass or cannot run) or if an ``old`` text
does not occur exactly once in its file.  So a refactor that moves the
code of a row has to update the row, not silently lose it.  Before any
mutant it runs the tests of every row on an unmutated copy, and exits 1
unless they all pass: a test that already failed would count as
killing its mutants.  Tier-1 checks only the occurrences
(``tests/test_mutants.py``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str  # what the mutant breaks, also its test id
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


MUTANTS = [
    Mutant(
        "mask-list-label-unescaped",
        "essplit/cli.py",
        'lambda lab: inner + "  " + _encode_str(lab)',
        "lambda lab: inner + '  \"' + lab + '\"'",
        ("tests/test_check.py::test_witness_lists_render_as_json_dumps",),
    ),
    Mutant(
        "mask-list-value-at-row-indent",
        "essplit/cli.py",
        "return _json_text(value, inner)",
        "return _json_text(value, item)",
        ("tests/test_check.py::test_witness_lists_render_as_json_dumps",),
    ),
    Mutant(
        "mask-list-rows-unseparated",
        "essplit/cli.py",
        'separator = "," + item',
        'separator = ""',
        ("tests/test_check.py::test_nested_mask_lists_render_as_json_dumps",),
    ),
    Mutant(
        "json-dict-value-copied-per-level",
        "essplit/cli.py",
        'out.append(separator + key + ": ")\n'
        "            _json_parts(item, inner, out)",
        'out.append(separator + key + ": ")\n'
        "            out.append(_json_text(item, inner))",
        ("tests/test_check.py::test_a_report_renders_in_one_join",),
    ),
    Mutant(
        "check-flat-witnesses-unsorted",
        "essplit/cli.py",
        "for found in (closure_found, rank_found, flat_found):",
        "for found in (closure_found, rank_found):",
        ("tests/test_check.py::TestFlatWitnessOrder",),
    ),
    Mutant(
        "check-witnesses-in-mask-order",
        "essplit/cli.py",
        "key = _mask_key(n + 2)",
        "key = int",
        ("tests/test_check.py::test_a_sample_of_every_subset_prints_the_exhaustive_report",),
    ),
    Mutant(
        "flats-formula-query-builds-the-oracle",
        "essplit/cli.py",
        'if args.mode != "formula":\n'
        '            payload["is_flat"] = split_matroid(ctx).is_flat(labels)',
        'oracle = split_matroid(ctx)\n'
        '        if args.mode != "formula":\n'
        '            payload["is_flat"] = oracle.is_flat(labels)',
        ("tests/test_cli.py::TestFlats::test_each_mode_reports_only_its_own_route",),
    ),
    Mutant(
        "every-command-parser-built-with-the-table",
        "essplit/cli.py",
        '    commands["demo-fig2"] = _add_demo_flags\n',
        '    commands["demo-fig2"] = _add_demo_flags\n'
        "    for name in commands:\n"
        "        commands[name]\n",
        ("tests/test_cli.py::TestParsersPerCall::test_a_command_builds_two_parsers",),
    ),
    Mutant(
        "command-parser-built-with-the-top-level-prog",
        "essplit/cli.py",
        '_Parser(prog=f"essplit {name}")',
        '_Parser(prog="essplit")',
        (
            "tests/test_pins.py::test_pin[help-closure.txt]",
            "tests/test_cli.py::TestFlagsOnFirstUse::test_an_unparsed_command_formats_its_flags",
        ),
    ),
    Mutant(
        "c1-untrimmed",
        "essplit/splitting.py",
        "c1 = tuple(sorted(unions & kept, key=order))",
        "c1 = tuple(sorted(unions, key=order))",
        ("tests/test_circuit_family.py",),
    ),
    Mutant(
        "c0-out-of-trim-pool",
        "essplit/splitting.py",
        "kept = _minimal(tested, {*c0, *c2, *gamma_circuits})",
        "kept = _minimal(tested, {*c2, *gamma_circuits})",
        ("tests/test_circuit_family.py",),
    ),
    Mutant(
        "slot-index-off-by-one",
        "essplit/splitting.py",
        "yield (top - 1) // self.bits",
        "yield top // self.bits",
        ("tests/test_circuit_family.py::test_disjoint_scan_equals_one_test_per_mask",),
    ),
    Mutant(
        "slot-word-uncut",
        "essplit/splitting.py",
        "self.ones * (word & self.low)",
        "self.ones * word",
        (
            "tests/test_circuit_family.py::test_disjoint_scan_equals_one_test_per_mask",
            "tests/test_circuit_family.py::test_minimal_equals_all_pairs",
        ),
    ),
    Mutant(
        "check-exhaustive-part-visits-no-top",
        "essplit/cli.py",
        "tops = groups.get(base, (0, 1, 2, 3))",
        "tops = groups.get(base, ())",
        ("tests/test_check.py::test_wheel_matches_reference",),
    ),
    Mutant(
        "check-flat-pass-drawn-tops-only",
        "essplit/cli.py",
        "for top, (_, _, _, condition, _) in enumerate(plans):",
        "for top, (_, _, _, condition, _) in ((top, plans[top]) for top in tops):",
        ("tests/test_check.py::TestFlatWitnessOrder::test_reports_match_the_reference",),
    ),
    Mutant(
        "check-tally-drops-subsets",
        "essplit/cli.py",
        "            subsets += hits\n",
        "",
        ("tests/test_check.py::test_wheel_matches_reference",),
    ),
    Mutant(
        "mixed-candidates-trusted",
        "essplit/splitting.py",
        "gamma_tested.update(",
        "gamma_circuits.update(",
        ("tests/test_circuit_family.py",),
    ),
    Mutant(
        "c-plus-e-gamma-trusted",
        "essplit/splitting.py",
        "gamma_tested = {c | e | gamma for c in ox if not c & e}",
        "gamma_circuits.update(c | e | gamma for c in ox if not c & e)\n"
        "    gamma_tested = set()",
        ("tests/test_circuit_family.py",),
    ),
    Mutant(
        "record-f-bit-from-span-part",
        "essplit/splitting.py",
        "(f != 0) << 7",
        "(odd != 0) << 7",
        ("tests/test_walk.py::TestLift",),
    ),
    Mutant(
        "record-e-in-a-bit-dropped",
        "essplit/splitting.py",
        " | (a & ctx.e_bit != 0) << 9",
        "",
        ("tests/test_walk.py::TestLift",),
    ),
    Mutant(
        "circuit-walk-bound-one-too-tight",
        "essplit/matroid.py",
        "largest = simple.bit_count() - len(cycles) + 1",
        "largest = simple.bit_count() - len(cycles)",
        ("tests/test_enumeration.py::test_circuit_strategies_equal_reference",),
    ),
    Mutant(
        "plan-built-without-its-top",
        "essplit/splitting.py",
        "_Key(signature | top)",
        "_Key(signature)",
        ("tests/test_walk.py::TestCasePlans",),
    ),
    Mutant(
        "walk-loops-as-children",
        "essplit/matroid.py",
        "loops = sum(1 << pos for pos in range(width) if not self._cols[pos])",
        "loops = 0",
        ("tests/test_walk.py::TestSpanPart",),
    ),
    Mutant(
        "rule-rows-read-table-shapes",
        "essplit/splitting.py",
        "range(7, 12)",
        "range(5)",
        ("tests/test_walk.py::TestCasePlans", "tests/test_exhaustive.py"),
    ),
    Mutant(
        "span-part-e-in-f-star-read-from-cl",
        "essplit/splitting.py",
        "(f_star & e != 0) << 6",
        "(cl & e != 0) << 6",
        ("tests/test_exhaustive.py::test_every_small_instance",),
    ),
]


def occurrences(mutant: Mutant) -> int:
    """How often the ``old`` text of ``mutant`` occurs in its file."""
    return (SRC / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def run_tests(tests: Iterable[str], mutant: Mutant | None = None) -> tuple[int, str]:
    """Run ``tests`` against a temporary copy of ``src/``, with
    ``mutant`` made in it if given: pytest's exit code and its last
    line of output."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / mutant.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # Plain asserts, so a failing comparison of two long reports
        # fails at once instead of being explained at length.
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "--assert=plain",
             "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True,
        )
    tail = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
    return proc.returncode, tail[0]


def outcome(mutant: Mutant) -> str | None:
    """Why ``mutant`` survives, or None if its tests fail on it."""
    count = occurrences(mutant)
    if count != 1:
        return f"its old text occurs {count} times in src/{mutant.file}"
    code, tail = run_tests(mutant.tests, mutant)
    # Exit 1 is a failed test; 0 is a pass, and any other code an
    # interrupted or empty run, which kills nothing.
    if code == 1:
        return None
    return f"pytest exit {code}: {tail}"


def main() -> int:
    # A test that fails without any mutant would kill every mutant that
    # names it, so the tests of all rows must first pass on the source.
    tests = list(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    start = time.perf_counter()
    code, tail = run_tests(tests)
    print(f"unmutated: pytest exit {code} on {len(tests)} test ids in "
          f"{time.perf_counter() - start:.1f} s: {tail}", flush=True)
    if code != 0:
        return 1
    survivors = []
    for mutant in MUTANTS:
        reason = outcome(mutant)
        print(f"{'killed' if reason is None else 'SURVIVED':8} {mutant.name}", flush=True)
        if reason is not None:
            survivors.append(f"{mutant.name}: {reason}")
    print(*survivors, f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed",
          sep="\n")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

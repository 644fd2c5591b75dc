"""A table of source mutants, each with the tests that must fail on it.

A row is one mutant: an exact text substitution ``old`` -> ``new`` in
one file under ``src/``, and the pytest node ids that must fail once it
is made.  With the standard library and pytest installed,
``python tests/mutants.py`` makes each mutant in turn in a temporary
copy of ``src/``, runs only its tests against that copy, and exits 1 if
any mutant survives (its tests pass or cannot run) or if an ``old`` text
does not occur exactly once in its file.  So a refactor that moves the
code of a row has to update the row, not silently lose it.  Tier-1
checks only the occurrences (``tests/test_mutants.py``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

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
        "check-flat-witnesses-unsorted",
        "essplit/cli.py",
        "    flat_found.sort(key=lambda w: (flat_key(w[0] & ctx.a_bit - 1), w[0] >> n))\n",
        "",
        ("tests/test_check.py::TestFlatWitnessOrder",),
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
]


def occurrences(mutant: Mutant) -> int:
    """How often the ``old`` text of ``mutant`` occurs in its file."""
    return (SRC / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def outcome(mutant: Mutant) -> str | None:
    """Why ``mutant`` survives, or None if its tests fail on it."""
    count = occurrences(mutant)
    if count != 1:
        return f"its old text occurs {count} times in src/{mutant.file}"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # Plain asserts, so a failing comparison of two long reports
        # fails at once instead of being explained at length.
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "--assert=plain",
             "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True,
        )
    # Exit 1 is a failed test; 0 is a pass, and any other code an
    # interrupted or empty run, which kills nothing.
    if proc.returncode == 1:
        return None
    tail = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
    return f"pytest exit {proc.returncode}: {tail[0]}"


def main() -> int:
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

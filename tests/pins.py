"""Every pinned run of the ``essplit`` command line, and the routine that
checks one.

A pin is one run: its argv, its exit code and its stdout, pinned by a
golden file or by a line of a ``sha256sum`` listing.  A new pin is one
entry of ``PINS`` plus its golden file or listing line.  Tier-1 runs
every pin in process (``tests/test_pins.py``).  With the standard
library only, ``PYTHONPATH=src python tests/pins.py`` runs each
command-line pin as ``python -m essplit.cli`` with
``PYTHONIOENCODING=utf-8`` from a temporary directory, and compares its
raw stdout bytes; pins with their own ``entry`` run in process.  Both
ways run with ``COLUMNS=80``, the width argparse wraps the help pins
at.  The
stdout of every JSON pin must also read as ``json.dumps(value,
indent=2)`` of the value it parses to, so a renderer that is not the
library's cannot drift from it unseen, even under a digest.  It
checks every pin, names each failure with its first differing line or
both digests, and exits 1 if any failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
import unittest.mock
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from essplit import cli, splitting

import cli_golden

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = ("split", "closure", "rank", "circuits", "flats", "check", "demo-fig2")
WIDTH = {"COLUMNS": "80"}  # the terminal width argparse reads


@dataclass(frozen=True)
class Pin:
    name: str  # the file name of the output, in its golden file or listing
    argv: tuple[str, ...]
    code: int
    expected: Path  # a golden file, or a ``*.sha256`` listing with a line for ``name``
    note: str
    entry: Callable[[Sequence[str]], int] | None = None  # run in process instead of the CLI


def digests(listing: Path) -> dict[str, str]:
    """File name to sha256 hex digest, from a ``sha256sum`` listing."""
    text = listing.read_text(encoding="utf-8")
    return {name: digest for digest, name in map(str.split, text.splitlines())}


@contextlib.contextmanager
def every_flat_condition_holds():
    """Every flat condition of every plan is condition 1, so each lift of
    a base flat that is no split flat becomes a violation.  The plans
    are cached, so they are dropped before and after."""
    saved = splitting._flat_condition
    splitting._plans.cache_clear()
    splitting._flat_condition = lambda key: 1
    try:
        yield
    finally:
        splitting._flat_condition = saved
        splitting._plans.cache_clear()


def _flat_mutant(argv: Sequence[str]) -> int:
    with every_flat_condition_holds():
        return cli.main(argv)


def _cli_wheel(argv: Sequence[str]) -> int:
    sys.stdout.write(cli_golden.render())
    return 0


def _formats(stem, argv, code, note, listing=False, entry=None) -> list[Pin]:
    """The JSON and the text run of ``argv``, pinned by ``stem.json`` and
    ``stem.txt``, or by the listing ``stem.sha256``."""
    return [
        Pin(f"{stem}.{suffix}", (*argv, "--format", fmt), code,
            GOLDEN / f"{stem}.{'sha256' if listing else suffix}", note, entry)
        for fmt, suffix in (("json", "json"), ("text", "txt"))
    ]


def _instance(stem: str, x: str, e: str, *extra: str) -> tuple[str, ...]:
    return ("--input", str(GOLDEN / f"{stem}.txt"), "--X", x, "--e", e, *extra)


WHEEL = _instance("wheel", "x,y", "y")
ESCAPED_WHEEL = _instance(
    "wheel-escaped", 'x☃,yé"', 'yé"', "--label-a", 'a\\"', "--label-gamma", "γ"
)
MID12 = _instance("mid12", "p1,p2,p4,p8,p11,p12", "p2")
MID14 = _instance("mid14", "r02,r04,r05,r07,r09,r10,r11,r12,r14", "r11")
LOOPS14 = _instance("loops14", "u03,u04,u06,u08,u09,u11,u14", "u14")
MID16 = _instance("mid16", "s01,s04,s05,s08,s09,s10,s11,s12,s14", "s14")
LOW20 = _instance("low20", "t01,t02,t06,t09,t10,t11,t13,t14", "t14")
MID22 = _instance(
    "mid22", "q02,q03,q04,q05,q07,q08,q09,q11,q12,q14,q15,q16,q18,q19,q21,q22", "q07"
)
LARGE40 = _instance(
    "large40",
    "v02,v04,v06,v08,v10,v11,v14,v15,v16,v17,v19,v20,v21,v22,v24,v27,v29,v31,v35,v37,v38",
    "v10",
)
LARGE40_QUERY = ("--subset", "v06,v07,v09,v21,v25,v28,v37,gamma", "--mode", "both")

MID12_NOTE = "Rank 5, a loop and a parallel pair: 89 split circuits and 434 split flats."
LARGE40_NOTE = "40 elements, rank 12, above the circuit cap: the predictions read no circuits."

PINS: list[Pin] = [
    Pin("demo-fig2.txt", ("demo-fig2",), 0, ROOT / "bench" / "golden" / "demo-fig2.txt",
        "The wheel's worked example with the table's defects flagged; the benchmark reads it."),
    Pin("check-wheel.json", ("check", *WHEEL, "--format", "json"), 3,
        GOLDEN / "check-wheel.json", "The wheel's exhaustive report; exit 3 from the table."),
    *_formats("check-wheel-escaped", ("check", *ESCAPED_WHEEL), 3,
              "Wheel labels holding '\"', '\\', 'é' and '☃': every JSON escape."),
    *_formats("check-wheel-flat-mutant", ("check", *WHEEL), 3,
              "Every flat condition stubbed to hold: 86 violations over 43 base flats.",
              listing=True, entry=_flat_mutant),
    *_formats("check-wheel-full-sample", ("check", *WHEEL, "--sample", "1024"), 3,
              "A sample covering all 1,024 subsets: the exhaustive report, byte for byte.",
              listing=True),
    Pin("cli-wheel.txt", (), 0, GOLDEN / "cli-wheel.txt",
        "Every command on the wheel, as tests/cli_golden.py lists them.", _cli_wheel),
    *_formats("wheel-escaped-circuits", ("circuits", *ESCAPED_WHEEL, "--mode", "both"), 0,
              "The circuit family and the oracle's circuits under every JSON escape."),
    *_formats("wheel-escaped-flats", ("flats", *ESCAPED_WHEEL, "--mode", "both"), 0,
              "Every split flat, the empty one first, under every JSON escape."),
    *_formats("wheel-escaped-flat-query",
              ("flats", *ESCAPED_WHEEL, "--subset", 'yé",a\\"', "--mode", "both"), 0,
              "One A' of escaped labels, no flat: its label list under JSON escapes."),
    *_formats("wheel-escaped-empty-query",
              ("flats", *ESCAPED_WHEEL, "--subset", "", "--mode", "both"), 0,
              "The empty A', a flat under condition 1: an empty label list."),
    *_formats("mid12-circuits", ("circuits", *MID12, "--mode", "both"), 0, MID12_NOTE),
    *_formats("mid12-flats", ("flats", *MID12, "--mode", "both"), 0, MID12_NOTE),
    *_formats("mid12-check", ("check", *MID12), 3,
              "All 16,384 subsets: 2,491 closure disagreements over 10 cases.", listing=True),
    *_formats("mid14-check", ("check", *MID14), 3,
              "Loops at both ends, parallel pairs in and across X, so spans recur at "
              "several bases: 65,536 subsets, 5,906 closure disagreements.", listing=True),
    *_formats("mid14-sample", ("check", *MID14, "--sample", "5000", "--seed", "3"), 3,
              "5,000 draws, each base part queried on its own: 434 disagreements.",
              listing=True),
    Pin("loops14-check.json", ("check", *LOOPS14, "--format", "json"), 3,
        GOLDEN / "loops14-check.sha256",
        "Zero columns at both ends, e the upper one and the lower one outside X, so a "
        "loop of the walk; three parallel pairs: 65,536 subsets, 6,070 closure "
        "disagreements."),
    *_formats("mid22-circuits", ("circuits", *MID22, "--mode", "both"), 0,
              "A split at the 24-element cap: 1,701 circuits from 2^13 cycle-space vectors.",
              listing=True),
    *_formats("mid16-circuits", ("circuits", *MID16, "--mode", "both"), 0,
              "Rank 3, two loops, parallel classes: 328 split circuits.", listing=True),
    *_formats("low20-circuits", ("circuits", *LOW20, "--mode", "both"), 0,
              "Rank 3, four loops, five parallel classes: 695 split circuits.", listing=True),
    *_formats("large40-closure", ("closure", *LARGE40, *LARGE40_QUERY), 0, LARGE40_NOTE),
    *_formats("large40-rank", ("rank", *LARGE40, *LARGE40_QUERY), 0, LARGE40_NOTE),
    Pin("help.txt", ("--help",), 0, GOLDEN / "help.txt",
        "The user's guide and the list of commands, wrapped at 80 columns."),
    *(Pin(f"help-{command}.txt", (command, "--help"), 0, GOLDEN / f"help-{command}.txt",
          f"The usage and flags of {command}, wrapped at 80 columns.")
      for command in COMMANDS),
]


def run_in_process(pin: Pin) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``pin``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with (unittest.mock.patch.dict(os.environ, WIDTH), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        code = (pin.entry or cli.main)(list(pin.argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def run_subprocess(pin: Pin, cwd: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``python -m essplit.cli`` on the
    argv of ``pin``, run in ``cwd``."""
    env = {**os.environ, **WIDTH, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run(
        [sys.executable, "-m", "essplit.cli", *pin.argv],
        capture_output=True, env=env, cwd=cwd, timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def canonical_json(out: bytes) -> bytes | None:
    """``out`` read as JSON and written again by ``json.dumps`` with
    indent=2, as a line: the bytes every JSON run must print, whatever
    renderer made them.  None if ``out`` is no JSON."""
    try:
        value = json.loads(out)
    except ValueError:
        return None
    return (json.dumps(value, indent=2) + "\n").encode("utf-8")


def mismatch(pin: Pin, code: int, out: bytes, err: bytes) -> str | None:
    """How a run of ``pin`` differs from its pin, or None if it does not.
    A JSON run must also be its own ``canonical_json``."""
    if (code, err) != (pin.code, b""):
        return f"exit {code}, expected {pin.code}; stderr {err.decode('utf-8', 'replace')!r}"
    if pin.name.endswith(".json") and out != canonical_json(out):
        return "stdout is not json.dumps(json.loads(stdout), indent=2) plus a newline"
    if pin.expected.suffix == ".sha256":
        got = hashlib.sha256(out).hexdigest()
        want = digests(pin.expected).get(pin.name, f"no line in {pin.expected.name}")
        return None if got == want else f"sha256 {got}, expected {want}"
    got, want = out.splitlines(keepends=True), pin.expected.read_bytes().splitlines(keepends=True)
    for number, (line, wanted) in enumerate(zip(got, want), start=1):
        if line != wanted:
            line, wanted = (text.decode("utf-8", "replace") for text in (line, wanted))
            return f"line {number}: {line!r}, expected {wanted!r}"
    return None if len(got) == len(want) else f"{len(got)} lines, expected {len(want)}"


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as cwd:
        for pin in PINS:
            try:
                run = run_in_process(pin) if pin.entry else run_subprocess(pin, cwd)
                reason = mismatch(pin, *run)
            except Exception:
                reason = traceback.format_exc()
            print(f"{'ok' if reason is None else 'FAIL':4} {pin.name}", flush=True)
            if reason is not None:
                failures.append(f"{pin.name}: {reason}\n  ({pin.note})")
    print(*failures, f"{len(PINS) - len(failures)} of {len(PINS)} pins match", sep="\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every ``essplit`` command on the wheel, in text and in JSON.

Runs ``essplit.cli.main`` in process on the wheel of
``essplit.showcase`` (``tests/golden/wheel.txt``, X = {x, y}, e = y)
and prints each run: a header with its argv and exit code, then its
stdout, then its stderr if any.  ``tests/golden/cli-wheel.txt`` holds
the expected output; the pin ``cli-wheel.txt`` of ``tests/pins.py``
compares the two.  Run alone, it prints the runs::

    PYTHONPATH=src python tests/cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from essplit.cli import main

WHEEL = Path(__file__).resolve().parent / "golden" / "wheel.txt"

SUBSETS = ("4,gamma", "1,2,5", "1,6,a")
MODES = ("formula", "oracle", "both")
FORMATS = ("text", "json")


def runs() -> list[list[str]]:
    """The argv of every run, the instance flags left out."""
    out = [["split", "--format", fmt] for fmt in FORMATS]
    for command in ("closure", "rank", "flats"):
        for subset in SUBSETS:
            for mode in MODES:
                for fmt in FORMATS:
                    out.append(
                        [command, "--subset", subset, "--mode", mode, "--format", fmt]
                    )
    for command in ("circuits", "flats"):
        for mode in MODES:
            for fmt in FORMATS:
                out.append([command, "--mode", mode, "--format", fmt])
    for fmt in FORMATS:
        out.append(["check", "--sample", "40", "--seed", "3", "--format", fmt])
    # Error paths: a missing subset and a label outside the split ground.
    out.append(["closure", "--format", "text"])
    out.append(["rank", "--subset", "4,nope", "--format", "json"])
    return out


def render() -> str:
    """The text of every run, in the order of ``runs``."""
    parts = []
    instance = ["--input", str(WHEEL), "--X", "x,y", "--e", "y"]
    for argv in runs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], *instance, *argv[1:]])
        shown = " ".join([argv[0], "--input wheel.txt --X x,y --e y", *argv[1:]])
        parts.append(f"=== essplit {shown} -> exit {code}\n")
        parts.append(out.getvalue())
        if err.getvalue():
            parts.append("--- stderr\n" + err.getvalue())
    return "".join(parts)


if __name__ == "__main__":
    sys.stdout.write(render())

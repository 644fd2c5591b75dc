"""Every ``essplit`` command on the wheel, in text and in JSON.

Runs ``essplit.cli.main`` in process on the wheel of
``essplit.showcase`` (X = {x, y}, e = y) and prints each run: a header
with its argv and exit code, then its stdout, then its stderr if any.
``tests/golden/cli-wheel.txt`` holds the expected output, and
``test_cli.py`` diffs the two.  It uses the standard library only, so it
also runs without pytest::

    PYTHONPATH=src python tests/cli_golden.py | diff -u tests/golden/cli-wheel.txt -
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from essplit.cli import main
from essplit.gf2 import format_matrix
from essplit.showcase import showcase_context

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
    with tempfile.TemporaryDirectory() as tmp:
        wheel = Path(tmp) / "wheel.txt"
        wheel.write_text(format_matrix(showcase_context().base.matrix))
        instance = ["--input", str(wheel), "--X", "x,y", "--e", "y"]
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

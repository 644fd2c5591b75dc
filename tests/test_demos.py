"""Each script in ``demos/`` runs to completion and prints, byte for byte,
its golden output in ``tests/golden/demos/``.

The demos are deterministic, so the goldens pin what they show of the
public API.  They are scripts, not runs of the ``essplit`` command, so
they stay out of the pin table of ``tests/pins.py``, and the pin tests
leave ``tests/golden/demos/`` to this file.  Without pytest the same
check is::

    for f in demos/*.py; do
        PYTHONPATH=src python "$f" | diff -u "tests/golden/demos/$(basename "$f" .py).txt" -
    done
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_demos_are_found():
    assert DEMOS


def test_every_golden_has_its_demo():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == [
        path.stem for path in DEMOS
    ]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    # Run from an empty directory, so a demo that finds its files relative
    # to the working directory fails here.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    expected = (GOLDEN / f"{script.stem}.txt").read_text()
    assert proc.stdout == expected

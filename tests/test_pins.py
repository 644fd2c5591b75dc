"""Every pin of ``tests/pins.py`` run in process, and the golden files
that the pins read."""

import pytest

from essplit.gf2 import format_matrix
from essplit.showcase import showcase_matroid

from pins import GOLDEN, PINS, Pin, digests, mismatch, run_in_process


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.name)
def test_pin(pin: Pin):
    reason = mismatch(pin, *run_in_process(pin))
    assert reason is None, f"{pin.name}: {reason}"


def test_pin_names_are_distinct():
    assert len({pin.name for pin in PINS}) == len(PINS)


def test_wheel_input_is_the_showcase_wheel():
    text = (GOLDEN / "wheel.txt").read_text(encoding="utf-8")
    assert text == format_matrix(showcase_matroid().matrix)


def test_every_golden_file_belongs_to_a_pin():
    # Each file is a pin's input, a pin's golden output, or a listing
    # whose lines are exactly the pins that name it, so dropping an
    # entry from the table leaves no golden unchecked.
    inputs = {arg for pin in PINS for arg in pin.argv}
    orphans = []
    for path in sorted(GOLDEN.rglob("*")):
        if not path.is_file() or GOLDEN / "demos" in path.parents:
            continue
        if path.suffix == ".sha256":
            named = {pin.name for pin in PINS if pin.expected == path}
            belongs = bool(named) and set(digests(path)) == named
        else:
            belongs = str(path) in inputs or any(pin.expected == path for pin in PINS)
        if not belongs:
            orphans.append(path.name)
    assert orphans == []

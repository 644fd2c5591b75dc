"""The table of ``tests/mutants.py`` still applies to the source: each
mutant's text occurs once, and its tests name files that exist.  The
mutants themselves run outside tier-1 (``python tests/mutants.py``)."""

import pytest

from mutants import MUTANTS, ROOT, Mutant, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_every_mutant_applies_once(mutant: Mutant):
    assert occurrences(mutant) == 1
    assert mutant.tests
    for node in mutant.tests:
        assert (ROOT / node.split("::")[0]).is_file(), node

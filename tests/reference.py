"""Definition-level references for the oracle's enumerations.

Both walk every subset of the ground set, so they are exponential in its
size and only serve to check ``BinaryMatroid.circuits()`` and
``BinaryMatroid.flats()`` on small instances.
"""

from __future__ import annotations

from essplit import BinaryMatroid


def reference_flats(m: BinaryMatroid) -> tuple[frozenset[str], ...]:
    """The closure of every subset, deduplicated, canonically ordered."""
    seen: set[frozenset[str]] = set()
    out: list[frozenset[str]] = []
    for subset in m.all_subsets():
        closed = m.closure_of(subset)
        if closed not in seen:
            seen.add(closed)
            out.append(closed)
    out.sort(key=m.subset_key)
    return tuple(out)


def reference_circuits(m: BinaryMatroid) -> tuple[frozenset[str], ...]:
    """Every subset that is dependent while each subset one element
    smaller is independent, in the canonical order of ``all_subsets``."""
    return tuple(
        subset
        for subset in m.all_subsets()
        if m.rank_of(subset) < len(subset)
        and all(m.rank_of(subset - {z}) == len(subset) - 1 for z in subset)
    )

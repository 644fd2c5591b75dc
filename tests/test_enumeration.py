"""Differential tests: the oracle's circuit and flat enumerations against
the all-subset definitions in tests/reference.py."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essplit import BinaryMatroid
from essplit.gf2 import _bits
from essplit.matroid import _cycle_walk_is_cheaper

from instances import matroid_from_columns, random_columns
from reference import reference_circuits, reference_flats


def differential_instances():
    """Fixed corner cases, then 220 seeded random matrices, n up to 11."""
    yield matroid_from_columns([], 0)  # empty ground set
    yield matroid_from_columns([0] * 5, 0)  # rank 0: every element a loop
    yield matroid_from_columns([0] * 4, 3)
    yield matroid_from_columns([1 << j for j in range(11)], 11)  # full rank
    yield matroid_from_columns([1, 1, 1, 2, 2, 3, 0], 2)  # parallel classes
    yield matroid_from_columns([1, 2, 3, 4, 5, 6, 7], 3)  # Fano
    rng = random.Random(3031)
    for _ in range(220):
        n = rng.randint(0, 11)
        yield matroid_from_columns(random_columns(rng, n, rng.randint(0, 7)), 7)


INSTANCES = list(differential_instances())


def test_instances_cover_both_strategies_and_corner_cases():
    sides = {
        _cycle_walk_is_cheaper(len(m.ground), m.rank_of(m.ground)) for m in INSTANCES
    }
    assert sides == {True, False}
    assert any(m.rank_of(m.ground) == 0 and m.ground for m in INSTANCES)
    assert any(m.rank_of(m.ground) == len(m.ground) > 6 for m in INSTANCES)
    assert max(len(m.ground) for m in INSTANCES) == 11
    columns = [[m.matrix.column(lab) for lab in m.ground] for m in INSTANCES]
    assert sum(0 in cols for cols in columns) > 20  # loops
    parallel = [len(set(cols) - {0}) < len(cols) - cols.count(0) for cols in columns]
    assert sum(parallel) > 20  # parallel classes


def labeled(m, masks):
    """The label sets of position masks of ``m``, in the same order."""
    return tuple(frozenset(m.ground[pos] for pos in _bits(mask)) for mask in masks)


def test_circuit_strategies_equal_reference():
    for m in INSTANCES:
        expected = reference_circuits(m)
        assert labeled(m, m._circuits_by_sweep()) == expected, m
        assert labeled(m, m._circuits_by_cycle_space()) == expected, m
        assert m.circuits() == expected, m
        assert labeled(m, m.circuits(masks=True)) == expected, m


def test_flats_equal_reference():
    for m in INSTANCES:
        assert m.flats() == reference_flats(m), m


def test_wheel_and_its_split(wheel_ctx, wheel_split):
    for m in (wheel_ctx.base, wheel_split):
        expected = reference_circuits(m)
        assert labeled(m, m._circuits_by_sweep()) == expected
        assert labeled(m, m._circuits_by_cycle_space()) == expected
        assert m.circuits() == expected
        assert m.flats() == reference_flats(m)
        assert labeled(m, m.flats(masks=True)) == reference_flats(m)


def wide_instances():
    """Corner cases, then 60 seeded random matrices with 12 to 16
    columns, where the all-subset reference is too slow."""
    yield matroid_from_columns([0] * 16, 0)  # rank 0: every circuit a loop
    yield matroid_from_columns([1 << j for j in range(16)], 16)  # full rank
    rng = random.Random(1216)
    for _ in range(60):
        n = rng.randint(12, 16)
        yield matroid_from_columns(random_columns(rng, n, rng.randint(0, 10)), 10)


def test_cycle_walk_equals_sweep_beyond_eleven_elements():
    instances = list(wide_instances())
    columns = [[m.matrix.column(lab) for lab in m.ground] for m in instances]
    assert sum(0 in cols for cols in columns) > 20  # loops
    parallel = [len(set(cols) - {0}) < len(cols) - cols.count(0) for cols in columns]
    assert sum(parallel) > 20  # parallel classes
    assert {len(m.ground) for m in instances} == set(range(12, 17))
    for m in instances:
        assert m._circuits_by_cycle_space() == m._circuits_by_sweep(), m


@pytest.mark.parametrize(
    "n, rank, walk",
    [
        (19, 9, True),  # 2^10 cycles against 354,522 subsets
        (16, 3, False),  # 2^13 cycles against 2 x 2,517 subsets
        (18, 4, True),  # 2^14 cycles against 2 x 12,616 subsets
        (8, 8, True),  # free: one cycle, the zero vector
        (6, 0, False),  # all loops: 2^6 cycles against 2 x 7 subsets
        (0, 0, True),  # one cycle against 2 x 1 subset
    ],
)
def test_cost_rule(n, rank, walk):
    assert _cycle_walk_is_cheaper(n, rank) is walk


@pytest.mark.parametrize("columns, used", [([1, 2, 3, 4, 5, 6, 7], "walk"), ([1] * 8, "sweep")])
def test_circuits_runs_the_cheaper_strategy(monkeypatch, columns, used):
    def refuse(self):
        raise AssertionError("the costlier strategy ran")

    m = matroid_from_columns(columns, 3)
    unused = "_circuits_by_sweep" if used == "walk" else "_circuits_by_cycle_space"
    monkeypatch.setattr(BinaryMatroid, unused, refuse)
    assert m.circuits() == reference_circuits(m)


@settings(max_examples=150, deadline=None)
@given(
    n_rows=st.integers(0, 6),
    columns=st.lists(st.integers(0, 63), max_size=10),
)
def test_circuit_strategies_agree(n_rows, columns):
    m = matroid_from_columns([word & ((1 << n_rows) - 1) for word in columns], n_rows)
    assert m._circuits_by_sweep() == m._circuits_by_cycle_space()

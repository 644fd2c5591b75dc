"""Differential tests: the oracle's circuit and flat enumerations against
the all-subset definitions and the subset sweep in tests/reference.py."""

import random
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from essplit import BinaryMatroid
from essplit.gf2 import _bits
from essplit.matroid import _mask_key

from instances import matroid_from_columns, random_columns
from reference import reference_circuits, reference_flats, sweep_circuits


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


def swapped_flags(m):
    """For each circuit of three or more elements, whether it meets a
    parallel class, so that the walk finds it by a swap."""
    columns = [m.matrix.column(lab) for lab in m.ground]
    return [
        any(columns.count(m.matrix.column(lab)) > 1 for lab in c)
        for c in m.circuits()
        if len(c) > 2
    ]


def test_instances_cover_both_strategies_and_corner_cases():
    # The walk keeps some of the supports it finds as they are and swaps others.
    assert {flag for m in INSTANCES for flag in swapped_flags(m)} == {False, True}
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
        assert labeled(m, sweep_circuits(m)) == expected, m
        assert labeled(m, m._circuits_by_cycle_space()) == expected, m
        assert m.circuits() == expected, m
        assert labeled(m, m.circuits(masks=True)) == expected, m


def test_flats_equal_reference():
    for m in INSTANCES:
        assert m.flats() == reference_flats(m), m


def test_wheel_and_its_split(wheel_ctx, wheel_split):
    for m in (wheel_ctx.base, wheel_split):
        expected = reference_circuits(m)
        assert labeled(m, sweep_circuits(m)) == expected
        assert m.circuits() == expected
        assert m.flats() == reference_flats(m)
        assert labeled(m, m.flats(masks=True)) == reference_flats(m)


def low_rank_columns(rng):
    """Seeded columns of rank 1 to 5 on 17 to 22 elements, drawn from a
    few words, so they hold loops and large parallel classes."""
    n, rank = rng.randint(17, 22), rng.randint(1, 5)
    while True:
        words = [rng.randint(1, (1 << rank) - 1) for _ in range(rank + rng.randint(0, 4))]
        columns = [0 if rng.random() < 0.1 else rng.choice(words) for _ in range(n)]
        if matroid_from_columns(columns, rank).rank_of(map(str, range(n))) == rank:
            return columns, rank


def wide_instances():
    """Corner cases, then 60 seeded random matrices with 12 to 16
    columns, where the all-subset reference is too slow, and 12 seeded
    low-rank matrices with 17 to 22 columns."""
    yield matroid_from_columns([0] * 16, 0)  # rank 0: every circuit a loop
    yield matroid_from_columns([1 << j for j in range(16)], 16)  # full rank
    rng = random.Random(1216)
    for _ in range(60):
        n = rng.randint(12, 16)
        yield matroid_from_columns(random_columns(rng, n, rng.randint(0, 10)), 10)
    rng = random.Random(1722)
    for _ in range(12):
        yield matroid_from_columns(*low_rank_columns(rng))


def test_cycle_walk_equals_sweep_beyond_eleven_elements():
    instances = list(wide_instances())
    columns = [[m.matrix.column(lab) for lab in m.ground] for m in instances]
    assert sum(0 in cols for cols in columns) > 20  # loops
    parallel = [len(set(cols) - {0}) < len(cols) - cols.count(0) for cols in columns]
    assert sum(parallel) > 20  # parallel classes
    assert {len(m.ground) for m in instances[:62]} == set(range(12, 17))
    low = instances[62:]
    assert {min(len(m.ground) for m in low), max(len(m.ground) for m in low)} == {17, 22}
    assert {m.rank_of(m.ground) for m in low} == set(range(1, 6))
    for m in instances:
        assert m._circuits_by_cycle_space() == sweep_circuits(m), m


def test_rank_two_classes_and_loops():
    # Three parallel classes of sizes a, b and c on the words 1, 2 and 3
    # of rank 2, interleaved with three loops: the circuits are the
    # loops, C(s, 2) pairs inside each class and a * b * c triangles.
    sizes = {1: 7, 2: 6, 3: 8}
    columns = [1, 2, 3] * 6 + [1, 0, 3, 0, 3, 0]
    assert len(columns) == 24 and {w: columns.count(w) for w in sizes} == sizes
    m = matroid_from_columns(columns, 2)
    where = {w: [pos for pos, col in enumerate(columns) if col == w] for w in (0, 1, 2, 3)}
    expected = [1 << pos for pos in where[0]]
    for w in sizes:
        expected += [1 << p | 1 << q for p in where[w] for q in where[w] if p < q]
    expected += [1 << p | 1 << q | 1 << t for p in where[1] for q in where[2] for t in where[3]]
    assert len(expected) == 3 + sum(comb(s, 2) for s in sizes.values()) + 7 * 6 * 8
    assert m.circuits(masks=True) == tuple(sorted(expected, key=_mask_key(24)))


def test_walk_runs_on_one_position_per_parallel_class(monkeypatch):
    walked = []
    fundamental_circuits = BinaryMatroid.fundamental_circuits

    def spy(self, mask):
        walked.append(mask)
        return fundamental_circuits(self, mask)

    monkeypatch.setattr(BinaryMatroid, "fundamental_circuits", spy)
    columns = [0, 5, 3, 5, 0, 6, 3, 3, 1, 5, 0, 7]
    m = matroid_from_columns(columns, 3)
    assert m.circuits() == reference_circuits(m)
    lowest = {}
    for pos, word in enumerate(columns):
        if word:
            lowest.setdefault(word, pos)
    assert walked == [sum(1 << pos for pos in lowest.values())]


@settings(max_examples=150, deadline=None)
@given(
    n_rows=st.integers(0, 6),
    columns=st.lists(st.integers(0, 63), max_size=10),
)
def test_circuit_strategies_agree(n_rows, columns):
    m = matroid_from_columns([word & ((1 << n_rows) - 1) for word in columns], n_rows)
    assert sweep_circuits(m) == m.circuits(masks=True)

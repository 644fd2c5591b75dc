import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import essplit
from essplit import BinaryMatroid, GF2Matrix
from essplit.errors import GroundSetTooLarge, UnknownLabel
from essplit.matroid import _mask_key

from instances import matroid_from_columns, random_columns, random_matroid
from reference import EX, OX, all_subsets, classify_circuit

#: Full cycle census of the wheel graph, derived by hand from the graph:
#: four hub triangles, the rim square, four hub 4-cycles (opposite rim
#: corners), four hub 5-cycles (adjacent rim corners the long way round).
WHEEL_CIRCUITS = {
    frozenset("156"),
    frozenset("26y"),
    frozenset("3xy"),
    frozenset("45x"),
    frozenset("1234"),
    frozenset("125y"),
    frozenset("146x"),
    frozenset("236x"),
    frozenset("345y"),
    frozenset("1235x"),
    frozenset("124xy"),
    frozenset("1346y"),
    frozenset("23456"),
}


def free_matroid(labels):
    n = len(labels)
    return BinaryMatroid(
        GF2Matrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], labels
        )
    )


def test_columns_built_in_one_pass_match_column_lookups():
    # Random shapes, with whole zero rows and zero columns mixed in.
    rng = random.Random(808)
    zero_rows = zero_cols = 0
    for _ in range(300):
        n_rows, n_cols = rng.randint(0, 9), rng.randint(0, 12)
        cleared = sum(1 << j for j in range(n_cols) if rng.random() < 0.3)
        rows = [
            0 if rng.random() < 0.25 else rng.getrandbits(n_cols) & ~cleared
            for _ in range(n_rows)
        ]
        matrix = GF2Matrix(tuple(rows), tuple(f"c{j}" for j in range(n_cols)))
        columns = tuple(matrix.column(lab) for lab in matrix.col_labels)
        assert BinaryMatroid(matrix)._cols == columns
        zero_rows += rows.count(0)
        zero_cols += columns.count(0)
    assert zero_rows and zero_cols


def tuple_key(mask: int) -> tuple:
    """The canonical order spelt out: size, then the positions."""
    return (mask.bit_count(), tuple(i for i in range(mask.bit_length()) if mask >> i & 1))


@st.composite
def masks_of_one_width(draw):
    width = draw(st.integers(0, 70))
    mask = st.integers(0, (1 << width) - 1)
    # Masks of few or of many bits, so that many of them share a size.
    sparse = st.lists(st.integers(0, max(width - 1, 0)), max_size=3).map(
        lambda positions: sum({1 << p for p in positions}) if width else 0
    )
    full = (1 << width) - 1
    dense = sparse.map(lambda m: full & ~m)
    return width, draw(st.lists(st.one_of(mask, sparse, dense), max_size=40))


@settings(max_examples=300, deadline=None)
@given(masks_of_one_width())
def test_int_mask_key_sorts_like_the_tuple_key(case):
    width, masks = case
    key = _mask_key(width)
    assert sorted(masks, key=key) == sorted(masks, key=tuple_key)
    # Equal keys only for equal masks.
    assert len({key(m) for m in masks}) == len(set(masks))


class TestRankOf:
    def test_empty(self, wheel_ctx):
        assert wheel_ctx.base.rank_of(frozenset()) == 0

    def test_triangle_has_rank_two(self, wheel_ctx):
        assert wheel_ctx.base.rank_of({"4", "5", "x"}) == 2

    def test_full_ground(self, wheel_ctx):
        assert wheel_ctx.base.rank_of(wheel_ctx.base.ground) == 4

    def test_unknown_label(self, wheel_ctx):
        with pytest.raises(UnknownLabel):
            wheel_ctx.base.rank_of({"nope"})

    def test_unknown_labels_are_all_named_under_any_hash_seed(self):
        # A set of strings iterates in an order that changes with
        # PYTHONHASHSEED; the message names every unknown label, sorted.
        script = (
            "from essplit import BinaryMatroid, GF2Matrix\n"
            "m = BinaryMatroid(GF2Matrix.from_rows([[1, 1]], ['p', 'q']))\n"
            "try:\n"
            "    m.rank_of(['zz', 'yy', 'xx'])\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = str(Path(essplit.__file__).resolve().parents[1])
        messages = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert messages == {
            "UnknownLabel labels ['xx', 'yy', 'zz'] are not ground-set elements\n"
        }


class TestClosure:
    def test_spoke_pair_closes_over_third_spoke(self, wheel_ctx):
        assert wheel_ctx.base.closure_of({"4", "5"}) == frozenset("45x")
        assert wheel_ctx.base.closure_of({"1", "5"}) == frozenset("156")
        assert wheel_ctx.base.closure_of({"2", "6"}) == frozenset("26y")

    def test_full_set_fixed(self, wheel_ctx):
        ground = frozenset(wheel_ctx.base.ground)
        assert wheel_ctx.base.closure_of(ground) == ground

    def test_loops_belong_to_every_closure(self):
        m = BinaryMatroid(GF2Matrix.from_rows([[1, 0]], ["p", "z"]))
        assert m.closure_of(frozenset()) == {"z"}


class TestClosuresWith:
    """``closures_at``: one basis of A answers rank and closure for every
    A + S, S inside the extra positions; checked against ``rank_of`` and
    ``closure_of``, the label view of its first entry."""

    def test_matches_rank_and_closure_on_random_matrices(self):
        rng = random.Random(8080)
        for _ in range(150):
            n = rng.randint(1, 8)
            m = matroid_from_columns(random_columns(rng, n, rng.randint(0, 5)), 5)
            extra = rng.sample(range(n), rng.randint(0, min(3, n)))
            mask = sum(1 << pos for pos in range(n) if rng.random() < 0.4)
            answers = m.closures_at(mask, extra)
            assert len(answers) == 2 ** len(extra)
            for i, (rank, closure) in enumerate(answers):
                part = mask | sum(1 << pos for j, pos in enumerate(extra) if i >> j & 1)
                labels = {m.ground[pos] for pos in range(n) if part >> pos & 1}
                assert rank == m.rank_of(labels)
                assert closure == sum(
                    1 << m.ground.index(lab) for lab in m.closure_of(labels)
                )

    def test_loops_and_repeated_extras(self):
        # Columns: 0 and 3 are loops, 1 and 2 are parallel.
        m = matroid_from_columns([0, 1, 1, 0, 2], 2)
        assert m.closures_at(0b10, (3, 2, 4)) == (
            (1, 0b1111),
            (1, 0b1111),
            (1, 0b1111),
            (1, 0b1111),
            (2, 0b11111),
            (2, 0b11111),
            (2, 0b11111),
            (2, 0b11111),
        )

    def test_unknown_label(self, wheel_ctx):
        with pytest.raises(UnknownLabel):
            wheel_ctx.base.closure_of({"1", "zz"})


class TestCircuits:
    def test_free_matroid_has_none(self):
        assert free_matroid(["p", "q", "r"]).circuits() == ()

    def test_loop_is_a_circuit(self):
        m = BinaryMatroid(GF2Matrix.from_rows([[1, 0]], ["p", "z"]))
        assert frozenset({"z"}) in m.circuits()

    def test_wheel_census(self, wheel_ctx):
        assert set(wheel_ctx.base.circuits()) == WHEEL_CIRCUITS

    def test_canonical_order(self, wheel_ctx):
        circuits = wheel_ctx.base.circuits()
        position = {lab: i for i, lab in enumerate(wheel_ctx.base.ground)}
        keys = [(len(c), sorted(map(position.__getitem__, c))) for c in circuits]
        assert keys == sorted(keys)

    def test_cache_returns_same_tuple(self, wheel_ctx):
        assert wheel_ctx.base.circuits() is wheel_ctx.base.circuits()

    def test_cap_enforced(self):
        m = free_matroid([str(i) for i in range(25)])
        with pytest.raises(GroundSetTooLarge):
            m.circuits()

    def test_configurable_cap(self):
        m = BinaryMatroid(
            GF2Matrix.from_rows([[1, 1, 0]], ["p", "q", "z"]), enumeration_cap=2
        )
        with pytest.raises(GroundSetTooLarge):
            m.circuits()


class TestFlats:
    def test_free_matroid_on_two_elements(self):
        m = free_matroid(["p", "q"])
        assert list(m.flats()) == [
            frozenset(),
            frozenset({"p"}),
            frozenset({"q"}),
            frozenset({"p", "q"}),
        ]

    def test_is_flat_examples(self, wheel_ctx):
        base = wheel_ctx.base
        assert base.is_flat(frozenset("156"))
        assert not base.is_flat({"4", "5"})
        assert base.is_flat(frozenset(base.ground))

    def test_unlisted_spoke_pairs_are_flats(self, wheel_ctx):
        # The opposite-spoke pairs span no third edge.
        assert wheel_ctx.base.is_flat({"5", "y"})
        assert wheel_ctx.base.is_flat({"6", "x"})

    def test_subset_cap(self):
        m = free_matroid([str(i) for i in range(21)])
        with pytest.raises(GroundSetTooLarge):
            m.flats()


class TestClassifyCircuit:
    def test_odd_overlap(self):
        assert classify_circuit({"2", "6", "y"}, {"x", "y"}) == OX

    def test_empty_overlap_is_even(self):
        assert classify_circuit({"1", "2", "3", "4"}, {"x", "y"}) == EX

    def test_two_overlap_is_even(self):
        assert classify_circuit({"3", "x", "y"}, {"x", "y"}) == EX


class TestMatroidAxioms:
    """Definition-level properties, checked on the wheel and random instances."""

    def sample_matroids(self):
        rng = random.Random(2024)
        yield BinaryMatroid(
            GF2Matrix.from_rows(
                [[1, 0, 1, 0, 0], [0, 1, 1, 0, 1], [0, 0, 0, 1, 1]],
                list("abcde"),
            )
        )
        for _ in range(8):
            yield random_matroid(rng, rng.randint(4, 7))

    def test_closure_idempotent(self, wheel_ctx):
        rng = random.Random(7)
        for m in [wheel_ctx.base, *self.sample_matroids()]:
            for _ in range(25):
                subset = frozenset(
                    lab for lab in m.ground if rng.random() < 0.4
                )
                closed = m.closure_of(subset)
                assert m.closure_of(closed) == closed

    def test_closure_absorbs_members(self, wheel_ctx):
        # x in cl(A) implies cl(A + x) = cl(A).
        rng = random.Random(8)
        for m in [wheel_ctx.base, *self.sample_matroids()]:
            for _ in range(25):
                subset = frozenset(lab for lab in m.ground if rng.random() < 0.4)
                closed = m.closure_of(subset)
                for lab in closed:
                    assert m.closure_of(subset | {lab}) == closed

    def test_no_circuit_contains_another(self, wheel_ctx):
        for m in [wheel_ctx.base, *self.sample_matroids()]:
            circuits = m.circuits()
            for c1, c2 in combinations(circuits, 2):
                assert not c1 <= c2 and not c2 <= c1

    def test_circuit_elimination(self, wheel_ctx):
        for m in [wheel_ctx.base, *self.sample_matroids()]:
            circuits = m.circuits()
            for c1, c2 in combinations(circuits, 2):
                for z in c1 & c2:
                    rest = (c1 | c2) - {z}
                    assert any(c <= rest for c in circuits)

    def test_closure_equals_circuit_description(self, wheel_ctx):
        # cl(A) = A + {x : some circuit through x inside A + x}, brute force.
        for m in [wheel_ctx.base, *self.sample_matroids()]:
            if len(m.ground) > 7:
                continue
            circuits = m.circuits()
            for subset in all_subsets(m):
                via_circuits = set(subset)
                for x in m.ground:
                    if x in subset:
                        continue
                    if any(x in c and c <= subset | {x} for c in circuits):
                        via_circuits.add(x)
                assert m.closure_of(subset) == via_circuits

    def test_symmetric_difference_of_circuits_is_dependent(self, wheel_ctx):
        for m in [wheel_ctx.base, *self.sample_matroids()]:
            circuits = m.circuits()
            for c1, c2 in combinations(circuits, 2):
                diff = c1 ^ c2
                if diff:
                    assert m.rank_of(diff) < len(diff)

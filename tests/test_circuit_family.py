"""Differential tests: ``predict_circuits`` on position masks against
``reference_circuit_family``, the same family computed on label sets.

Every class c0-c3 and delta, as label sets, and ``minimal``, against
the reference's ``all_circuits()``, must be the same tuple, order
included, on 300 seeded instances and on a 17-element base of rank 8.
The instances have loops, parallel classes and zero rows; e is
often a loop, and X is often {e} or the whole ground set.
"""

from __future__ import annotations

import random

from essplit import GF2Matrix, BinaryMatroid, SplitContext

from instances import matroid_from_columns, random_columns
from reference import assert_same_family, circuits_by_overlap


def seeded_context(rng: random.Random) -> tuple[SplitContext, str]:
    """A random split instance and the shape of its X."""
    n_rows = rng.randint(0, 5)
    columns = random_columns(rng, rng.randint(1, 10), n_rows)
    base = matroid_from_columns(columns, n_rows + rng.randint(0, 1))
    loops = [lab for lab, word in zip(base.ground, columns) if not word]
    e = rng.choice(loops if loops and rng.random() < 0.25 else base.ground)
    shape = rng.choice(("e only", "everything", "random"))
    if shape == "e only":
        x = {e}
    elif shape == "everything":
        x = set(base.ground)
    else:
        x = {e} | {lab for lab in base.ground if rng.random() < 0.5}
    return SplitContext(base, frozenset(x), e, "a", "g"), shape


def wide_context() -> SplitContext:
    """A random 17-element base of rank 8 with e a non-loop, the size of
    the ``enumerate`` benchmark's circuit instance."""
    rng = random.Random(8)
    while True:
        rows = [[rng.randint(0, 1) for _ in range(17)] for _ in range(8)]
        base = BinaryMatroid(GF2Matrix.from_rows(rows, [f"p{j}" for j in range(17)]))
        if base.rank_of(base.ground) == 8:
            break
    non_loops = [lab for lab in base.ground if base.matrix.column(lab)]
    e = rng.choice(non_loops)
    x = {e} | {lab for lab in base.ground if rng.random() < 0.5}
    return SplitContext(base, frozenset(x), e)


def assert_overlap_classes(ctx: SplitContext, note: str) -> None:
    ox, ex = circuits_by_overlap(ctx)
    assert tuple(map(ctx.labels_of, ctx.ox_masks)) == ox, note
    assert tuple(map(ctx.labels_of, ctx.ex_masks)) == ex, note


def test_seeded_instances_match_the_reference():
    rng = random.Random(20161604)
    seen = {"loops": 0, "parallel": 0, "e a loop": 0, "e only": 0, "everything": 0}
    for number in range(300):
        ctx, shape = seeded_context(rng)
        note = f"instance {number}"
        assert_overlap_classes(ctx, note)
        assert_same_family(ctx, note)
        columns = [ctx.base.matrix.column(lab) for lab in ctx.base.ground]
        seen["loops"] += 0 in columns
        seen["parallel"] += len(set(filter(None, columns))) < len(list(filter(None, columns)))
        seen["e a loop"] += not ctx.base.matrix.column(ctx.e)
        seen[shape] = seen.get(shape, 0) + 1
    assert all(count >= 20 for count in seen.values()), seen


def test_seventeen_element_rank_eight_base_matches_the_reference():
    ctx = wide_context()
    assert len(ctx.base.circuits()) > 200
    assert_overlap_classes(ctx, "17 elements")
    assert_same_family(ctx, "17 elements")

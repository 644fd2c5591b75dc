"""Differential tests: ``predict_circuits`` on position masks against
``reference_circuit_family``, the same family computed on label sets.

Every class c0-c3 and delta, as label sets, and ``minimal``, against
the reference's ``all_circuits()``, must be the same tuple, order
included, on 300 seeded instances and on a 17-element base of rank 8.
The instances have loops, parallel classes and zero rows; e is
often a loop, and X is often {e} or the whole ground set.

``predict_circuits`` tests only some kinds of candidate for minimality
and trusts the others as circuits by construction.  Instances built to
have a parallel class across X, e in a parallel class, or e a loop
check both halves of that split: every trusted candidate is a circuit
of the split oracle, some tested ones are not, and the family still
matches the reference.
"""

from __future__ import annotations

import random

from essplit import GF2Matrix, BinaryMatroid, SplitContext, predict_circuits, split_matroid

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


def structured_context(rng: random.Random, kind: str) -> SplitContext:
    """A random split instance of one ``kind``: "across X", a parallel
    pair with one element in X and one outside; "through e", e and a
    copy of its column; or "e a loop"."""
    n_rows = rng.randint(1, 4)
    columns = random_columns(rng, rng.randint(2, 8), n_rows)
    columns.append(rng.randrange(1, 1 << n_rows))
    nonzero = [j for j, word in enumerate(columns) if word]
    if kind == "e a loop":
        columns.append(0)
        e = len(columns) - 1
    else:
        e = rng.choice(nonzero)
        copied = e if kind == "through e" else rng.choice(nonzero)
        columns.append(columns[copied])
    base = matroid_from_columns(columns, n_rows)
    x = {str(e)} | {lab for lab in base.ground if rng.random() < 0.5}
    if kind == "across X":
        x = (x | {str(copied)}) - {str(len(columns) - 1)}
    return SplitContext(base, frozenset(x), str(e), "a", "g")


def gamma_candidates(ctx: SplitContext) -> dict[str, set[int]]:
    """The four kinds of gamma candidate of ``predict_circuits``, by
    name, as masks built here from the overlap classes."""
    e, a, g = ctx.e_bit, ctx.a_bit, ctx.gamma_bit
    odd, even_e = ctx.ox_masks, [c for c in ctx.ex_masks if c & e]
    return {
        "C - e + gamma": {c & ~e | g for c in odd if c & e},
        "C - e + a + gamma": {c & ~e | a | g for c in even_e},
        "C + e + gamma": {c | e | g for c in odd if not c & e},
        "mixed": {d & ~e | c | g for d in even_e for c in odd if not d & c},
    }


def test_trusted_candidates_are_circuits_and_tested_ones_can_fail():
    rng = random.Random(2507)
    trusted = ("C - e + gamma", "C - e + a + gamma")
    failures = {"C + e + gamma": 0, "mixed": 0, "delta": 0, "union": 0}
    for kind in ("across X", "through e", "e a loop"):
        for number in range(120):
            ctx = structured_context(rng, kind)
            note = f"{kind} {number}"
            circuits = set(split_matroid(ctx).circuits(masks=True))
            family = predict_circuits(ctx)
            c0, _, c2, _ = family.classes
            candidates = gamma_candidates(ctx)
            for name in trusted:
                assert candidates[name] <= circuits, f"{note}: {name}"
            assert set(c0) | set(c2) <= circuits, note
            for name in ("C + e + gamma", "mixed"):
                failures[name] += not candidates[name] <= circuits
            failures["delta"] += family.delta_mask not in circuits
            odd = ctx.ox_masks
            unions = {p | q for i, p in enumerate(odd) for q in odd[i + 1 :] if not p & q}
            failures["union"] += not unions <= circuits
            assert_same_family(ctx, note)
    assert all(count >= 10 for count in failures.values()), failures

"""Seeded random instance generators shared by the test modules."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from essplit import (
    BinaryMatroid,
    GF2Matrix,
    LabeledGraph,
    LineSplitSpec,
    SplitContext,
)


def random_matroid(
    rng: random.Random, n_elements: int, max_rank: int = 5
) -> BinaryMatroid:
    """Random binary matroid from a random 0/1 matrix; rank <= max_rank."""
    while True:
        n_rows = rng.randint(1, max_rank)
        rows = [
            [rng.randint(0, 1) for _ in range(n_elements)] for _ in range(n_rows)
        ]
        matroid = BinaryMatroid(
            GF2Matrix.from_rows(rows, [str(i + 1) for i in range(n_elements)])
        )
        if matroid.rank_of(matroid.ground) <= max_rank:
            return matroid


def matroid_from_columns(columns: list[int], n_rows: int) -> BinaryMatroid:
    """Binary matroid on "0", "1", ... whose column j has the bits of
    ``columns[j]`` as rows."""
    rows = [[word >> i & 1 for word in columns] for i in range(n_rows)]
    return BinaryMatroid(
        GF2Matrix.from_rows(rows, [str(j) for j in range(len(columns))])
    )


def every_small_instance():
    """Every split instance with at most 4 base elements whose columns
    lie in GF(2)^3, as contexts: every multiset of columns (so every
    binary matroid of rank at most 3 on them), every e and every X that
    holds e.  The bases are shared by the choices of e and X."""
    for n in range(1, 5):
        for columns in combinations_with_replacement(range(8), n):
            base = matroid_from_columns(list(columns), 3)
            for e in base.ground:
                others = [label for label in base.ground if label != e]
                for chosen in range(1 << len(others)):
                    x = {e} | {lab for j, lab in enumerate(others) if chosen >> j & 1}
                    yield SplitContext(base, frozenset(x), e)


def random_columns(rng: random.Random, n: int, n_rows: int) -> list[int]:
    """Random columns with frequent loops and parallel classes."""
    columns: list[int] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.1:
            columns.append(0)
        elif roll < 0.25 and columns:
            columns.append(rng.choice(columns))
        else:
            columns.append(rng.getrandbits(n_rows) if n_rows else 0)
    return columns


def random_context(
    rng: random.Random,
    matroid: BinaryMatroid,
    label_a: str = "a",
    label_gamma: str = "g",
) -> SplitContext | None:
    """Random split context with a non-loop marked element.

    A loop e degenerates the construction (gamma becomes a zero column
    and the {e, a, gamma} triangle stops being a circuit), so loops are
    not eligible; None when every column is zero.
    """
    non_loops = [lab for lab in matroid.ground if matroid.matrix.column(lab)]
    if not non_loops:
        return None
    e = rng.choice(non_loops)
    x = frozenset(
        [e] + [lab for lab in matroid.ground if lab != e and rng.random() < 0.5]
    )
    return SplitContext(matroid, x, e, label_a, label_gamma)


def random_split_instance(
    rng: random.Random, n_elements: int, max_rank: int = 5
) -> SplitContext:
    while True:
        ctx = random_context(rng, random_matroid(rng, n_elements, max_rank))
        if ctx is not None:
            return ctx


def random_connected_multigraph(
    rng: random.Random, max_vertices: int = 6, max_edges: int = 9
) -> LabeledGraph:
    """Random connected multigraph; parallels common, loops occasional."""
    n_vertices = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n_vertices)]
    edges: list[tuple[str, str, str]] = []
    for i in range(1, n_vertices):
        edges.append((f"e{len(edges)}", names[rng.randrange(i)], names[i]))
    for _ in range(rng.randint(0, max_edges - len(edges))):
        u = rng.choice(names)
        v = rng.choice(names) if rng.random() < 0.15 else rng.choice(
            [w for w in names if w != u] or [u]
        )
        edges.append((f"e{len(edges)}", u, v))
    graph = LabeledGraph(tuple(names), tuple(edges))
    # Isolated vertices cannot appear: every vertex joined the tree.
    return graph


def random_split_spec(
    rng: random.Random, graph: LabeledGraph
) -> LineSplitSpec | None:
    """Random valid split spec, or None if no vertex qualifies."""
    candidates = []
    for vertex in graph.vertices:
        incident = graph.incident(vertex)
        if not incident:
            continue
        if any(u == v for lab in incident for u, v in [graph.endpoints(lab)]):
            continue  # loops at the split vertex are rejected
        candidates.append((vertex, incident))
    if not candidates:
        return None
    vertex, incident = candidates[rng.randrange(len(candidates))]
    anchor = rng.choice(incident)
    left, right = [], []
    for label in incident:
        if label == anchor:
            continue
        (left if rng.random() < 0.5 else right).append(label)
    return LineSplitSpec(vertex, anchor, frozenset(left), frozenset(right))

"""Seeded instance generation for the benchmark.

An instance is built in two steps.

* Its *structure* (a GF(2) matrix or a multigraph, the set X and the
  marked element e, plus a query subset where one is needed) comes from
  the instance set: ``main`` or ``heldout``, two generation seeds whose
  outputs are pinned in ``reference.json``, or ``smoke``, a tiny copy of
  ``main`` for the self-test.
* Its *presentation* comes from the run seed (``--seed``) and the round
  number: a random column or edge order, random element and vertex
  names and, for a matrix, a random invertible row transform.

A presentation changes every byte the program reads, and every column
vector of a matrix, but not the matroid.  So the work per run stays the
same from seed to seed, and the program's outputs, mapped back to
canonical element numbers, must equal the pinned reference for every
seed.

Matrices are random full-row-rank 0/1 matrices; e is drawn from the
non-loop columns and every other element joins X with probability 1/2,
the same rule as the test suite's generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Generation seed of each instance set, and whether it uses smoke sizes.
INSTANCE_SETS = {"main": (1, False), "heldout": (2, False), "smoke": (1, True)}

#: Sizes per workload.  ``check`` is (elements, rank) of the swept base;
#: the split adds two elements, so the sweep covers 2**(n+2) subsets.
FULL_SIZES = {
    "check": (14, 6),
    "circuits": (17, 8),
    "flats": (16, 3),
    "graphs": (3, 6, 13),  # count, vertices, edges
    "queries": 1500,
    "query_elements": (7, 11),
}
SMOKE_SIZES = {
    "check": (6, 3),
    "circuits": (7, 3),
    "flats": (6, 2),
    "graphs": (1, 4, 6),
    "queries": 40,
    "query_elements": (4, 6),
}

#: Fixed share of each CLI command in the query mix, per 100 queries.
QUERY_MIX = (("closure", 40), ("rank", 30), ("flats", 15), ("circuits", 10), ("split", 5))

LABEL_A = "a"
LABEL_GAMMA = "gamma"


def sizes(instance_set: str) -> dict:
    return SMOKE_SIZES if INSTANCE_SETS[instance_set][1] else FULL_SIZES


def structure_rng(instance_set: str, tag: str) -> random.Random:
    return random.Random(f"essplit-bench:{INSTANCE_SETS[instance_set][0]}:{tag}")


def presentation_rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"essplit-bench-presentation:{seed}:{tag}")


def rank_of_words(words) -> int:
    """Rank over GF(2) of bit-packed vectors.

    The benchmark keeps its own copy so that the generated inputs never
    change when the program's kernel does."""
    basis: dict[int, int] = {}
    for word in words:
        while word:
            low = word & -word
            pivot = basis.get(low)
            if pivot is None:
                basis[low] = word
                break
            word ^= pivot
    return len(basis)


# -- structures ---------------------------------------------------------------
#
# Elements are numbered 0..n-1; the split's two new elements are n (a)
# and n+1 (gamma).  Subsets are sorted tuples of element numbers.


@dataclass(frozen=True)
class MatrixStructure:
    n: int
    rows: tuple[int, ...]  # bit j of a row word is the entry in column j
    x: tuple[int, ...]
    e: int


@dataclass(frozen=True)
class GraphStructure:
    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    x: tuple[int, ...]
    e: int

    @property
    def n(self) -> int:
        return len(self.edges)

    def incidence_rows(self) -> tuple[int, ...]:
        rows = [0] * self.n_vertices
        for j, (u, v) in enumerate(self.edges):
            if u != v:
                rows[u] |= 1 << j
                rows[v] |= 1 << j
        return tuple(rows)


@dataclass(frozen=True)
class SplitSpec:
    """A vertex split of a graph: vertex, anchor edge and the two sides."""

    graph: GraphStructure
    vertex: int
    anchor: int
    left: tuple[int, ...]
    right: tuple[int, ...]


@dataclass(frozen=True)
class Query:
    command: str
    structure: MatrixStructure | GraphStructure
    subset: tuple[int, ...] | None


def _x_and_e(rng: random.Random, n: int, non_loops: list[int]) -> tuple[tuple[int, ...], int]:
    e = rng.choice(non_loops)
    x = tuple(j for j in range(n) if j == e or rng.random() < 0.5)
    return x, e


def random_matrix(rng: random.Random, n: int, r: int) -> MatrixStructure:
    """Full-row-rank r x n matrix, marked element among the non-loops."""
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(r))
        if rank_of_words(rows) == r:
            break
    non_loops = [j for j in range(n) if any((w >> j) & 1 for w in rows)]
    x, e = _x_and_e(rng, n, non_loops)
    return MatrixStructure(n, rows, x, e)


def random_graph(rng: random.Random, n_vertices: int, n_edges: int) -> GraphStructure:
    """Connected multigraph: a random spanning tree plus random extra
    edges, parallels common and loops occasional."""
    edges = [(rng.randrange(i), i) for i in range(1, n_vertices)]
    while len(edges) < n_edges:
        u = rng.randrange(n_vertices)
        v = u if rng.random() < 0.1 else rng.choice([w for w in range(n_vertices) if w != u])
        edges.append((u, v))
    non_loops = [j for j, (u, v) in enumerate(edges) if u != v]
    x, e = _x_and_e(rng, n_edges, non_loops)
    return GraphStructure(n_vertices, tuple(edges), x, e)


def random_split_spec(rng: random.Random, graph: GraphStructure) -> SplitSpec:
    """Split a random loop-free vertex of degree at least 2."""
    candidates = []
    for vertex in range(graph.n_vertices):
        incident = [j for j, (u, v) in enumerate(graph.edges) if vertex in (u, v)]
        loops = any(graph.edges[j][0] == graph.edges[j][1] for j in incident)
        if len(incident) >= 2 and not loops:
            candidates.append((vertex, incident))
    vertex, incident = rng.choice(candidates)
    anchor = rng.choice(incident)
    left, right = [], []
    for j in incident:
        if j != anchor:
            (left if rng.random() < 0.5 else right).append(j)
    return SplitSpec(graph, vertex, anchor, tuple(left), tuple(right))


def _base_closure(rows: tuple[int, ...], n: int, subset) -> tuple[int, ...]:
    columns = [sum(((w >> j) & 1) << i for i, w in enumerate(rows)) for j in range(n)]
    rank = rank_of_words(columns[j] for j in subset)
    return tuple(
        j for j in range(n) if rank_of_words([columns[k] for k in subset] + [columns[j]]) == rank
    )


def _query_subset(rng: random.Random, structure, command: str) -> tuple[int, ...]:
    n = structure.n
    base = tuple(j for j in range(n) if rng.random() < 0.35)
    if command == "flats" and rng.random() < 0.5:
        rows = structure.rows if isinstance(structure, MatrixStructure) else structure.incidence_rows()
        base = _base_closure(rows, n, base)
    extra = tuple(k for k in (n, n + 1) if rng.random() < 0.5)
    return base + extra


def sweep_structure(instance_set: str) -> MatrixStructure:
    return random_matrix(structure_rng(instance_set, "check"), *sizes(instance_set)["check"])


def enumerate_structures(instance_set: str):
    """(circuits matrix, flats matrix, graph split specs)."""
    size = sizes(instance_set)
    circuits = random_matrix(structure_rng(instance_set, "circuits"), *size["circuits"])
    flats = random_matrix(structure_rng(instance_set, "flats"), *size["flats"])
    count, n_vertices, n_edges = size["graphs"]
    rng = structure_rng(instance_set, "graphs")
    specs = tuple(
        random_split_spec(rng, random_graph(rng, n_vertices, n_edges)) for _ in range(count)
    )
    return circuits, flats, specs


def query_pool(instance_set: str) -> tuple[Query, ...]:
    """The query mix: distinct small instances, one query each, in a
    fixed shuffled order.  One in five instances is an edge list."""
    size = sizes(instance_set)
    total = size["queries"]
    rng = structure_rng(instance_set, "queries")
    commands = [name for name, share in QUERY_MIX for _ in range(share * total // 100)]
    commands += ["closure"] * (total - len(commands))
    rng.shuffle(commands)
    low, high = size["query_elements"]
    pool = []
    for command in commands:
        n = rng.randint(low, high)
        if rng.random() < 0.2:
            n_vertices = rng.randint(3, max(3, n // 2 + 1))
            structure = random_graph(rng, n_vertices, n)
        else:
            structure = random_matrix(rng, n, rng.randint(2, min(6, n - 2)))
        subset = None if command in ("circuits", "split") else _query_subset(rng, structure, command)
        pool.append(Query(command, structure, subset))
    return tuple(pool)


# -- presentations --------------------------------------------------------------


@dataclass(frozen=True)
class Presented:
    """One instance as the program sees it."""

    kind: str  # "matrix" or "graph"
    text: str
    names: tuple[str, ...]  # presented label of element j; a and gamma last
    x: str
    e: str

    def labels(self, subset) -> str:
        return ",".join(self.names[j] for j in subset)

    def args(self, path: str) -> list[str]:
        return ["--input", path, "--kind", self.kind, "--X", self.x, "--e", self.e]


def _names(rng: random.Random, count: int, prefix: str = "") -> list[str]:
    return [f"{prefix}{k}" for k in rng.sample(range(100, 1000), count)]


def _row_transform(rng: random.Random, rows: tuple[int, ...]) -> list[int]:
    """The rows after adding to each row a random set of the rows above
    it: a random invertible transform over GF(2).

    The transform is unitriangular, so every column vector keeps the row
    of its first 1.  Elimination that picks pivots by first set row then
    runs the same steps on every presentation, and the program's work
    does not depend on the seed."""
    out = []
    for i, word in enumerate(rows):
        above = rng.getrandbits(i) if i else 0
        for k in range(i):
            if (above >> k) & 1:
                word ^= rows[k]
        out.append(word)
    return out


def present(rng: random.Random, structure) -> Presented:
    """Shuffle the column (or edge) order, rename every element and, for
    a matrix, replace the rows by an invertible combination of them."""
    n = structure.n
    names = _names(rng, n)
    order = rng.sample(range(n), n)
    x = ",".join(names[j] for j in sorted(structure.x, key=order.index))
    if isinstance(structure, MatrixStructure):
        lines = [" ".join(names[j] for j in order)]
        for word in _row_transform(rng, structure.rows):
            lines.append(" ".join(str((word >> j) & 1) for j in order))
        kind = "matrix"
    else:
        vertex_names = _names(rng, structure.n_vertices, "v")
        lines = []
        for j in order:
            u, v = structure.edges[j]
            lines.append(f"{names[j]} {vertex_names[u]} {vertex_names[v]}")
        kind = "graph"
    text = "\n".join(lines) + "\n"
    return Presented(kind, text, tuple(names) + (LABEL_A, LABEL_GAMMA), x, names[structure.e])


def present_split(rng: random.Random, spec: SplitSpec):
    """Edge-list text plus the presented (vertex, anchor, left, right)."""
    presented = present(rng, spec.graph)
    vertex_of = {}
    for line in presented.text.splitlines():
        label, u, v = line.split()
        vertex_of[label] = (u, v)
    anchor = presented.names[spec.anchor]
    u, v = spec.graph.edges[spec.anchor]
    # The split vertex keeps its presented name: find it on the anchor edge.
    ends = vertex_of[anchor]
    vertex = ends[0] if spec.vertex == u else ends[1]
    left = frozenset(presented.names[j] for j in spec.left)
    right = frozenset(presented.names[j] for j in spec.right)
    return presented, (vertex, anchor, left, right)

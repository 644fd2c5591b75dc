"""Labeled multigraphs, incidence matrices, and vertex splitting.

The vertex split replaces a vertex u by an adjacent pair u1, u2: the
anchor edge e = uv and one chosen side of u's other edges move to u1,
the remaining side moves to u2, and a fresh edge gamma joins u2 back to
v.  Its cycle matroid coincides with the matroid-level split of the
original cycle matroid taken at X = {e} + left side, which
``verify_equivalence`` checks by row space.

Binary matroids are uniquely representable over GF(2) (Oxley, *Matroid
Theory*, ch. 6): the rows of any representation span the matroid's
cocycle space, the orthogonal complement of its cycle space, whose
minimal nonempty members are the circuits.  So two matrices whose
column j names the same element for every j represent the same matroid
iff their rows span the same space, which three ranks decide.  The
check enumerates nothing, so it has no size cap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidPartition, LabelCollision, ParseError, UnknownLabel
from .gf2 import GF2Matrix, rank
from .matroid import BinaryMatroid
from .splitting import SplitContext, build_split_matrix


@dataclass(frozen=True)
class LabeledGraph:
    """Multigraph with string vertex names and distinct edge labels.

    Loops and parallel edges are permitted.  Edges are (label, u, v)
    triples; their order fixes the column order of the incidence matrix.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex names must be distinct")
        labels = [label for label, _, _ in self.edges]
        if len(set(labels)) != len(labels):
            repeated = sorted(lab for lab, count in Counter(labels).items() if count > 1)
            raise ValueError(f"edge labels must be distinct; repeated: {repeated!r}")
        declared = set(self.vertices)
        for label, u, v in self.edges:
            if u not in declared or v not in declared:
                raise ValueError(f"edge {label!r} uses an undeclared vertex")

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str, str]]) -> "LabeledGraph":
        """Build a graph from edge triples, inferring the vertex set in
        first-appearance order."""
        edges = tuple(edges)
        # A dict keeps its keys in insertion order.
        seen = dict.fromkeys(vertex for _, u, v in edges for vertex in (u, v))
        return cls(tuple(seen), edges)

    @property
    def edge_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.edges)

    def endpoints(self, label: str) -> tuple[str, str]:
        for lab, u, v in self.edges:
            if lab == label:
                return (u, v)
        raise UnknownLabel(f"no edge labelled {label!r}")

    def incident(self, vertex: str) -> tuple[str, ...]:
        """Labels of all edges touching ``vertex`` (loops included once)."""
        return tuple(
            label for label, u, v in self.edges if vertex in (u, v)
        )


@dataclass(frozen=True)
class LineSplitSpec:
    """How to split one vertex: the anchor edge and the two edge sides.

    ``left_edges`` go to the new vertex that keeps the anchor;
    ``right_edges`` go to the vertex that receives the fresh gamma edge.
    """

    split_vertex: str
    anchor_edge: str
    left_edges: frozenset[str]
    right_edges: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left_edges", frozenset(self.left_edges))
        object.__setattr__(self, "right_edges", frozenset(self.right_edges))


def incidence_matrix(g: LabeledGraph) -> GF2Matrix:
    """Vertex-by-edge incidence matrix over GF(2).

    A loop contributes its endpoint twice, so its column cancels to
    zero, matching the loop's role in the cycle matroid.
    """
    position = {v: i for i, v in enumerate(g.vertices)}
    words = [0] * len(g.vertices)
    for j, (_, u, v) in enumerate(g.edges):
        if u != v:
            words[position[u]] |= 1 << j
            words[position[v]] |= 1 << j
    return GF2Matrix(tuple(words), g.edge_labels)


def _check_spec(g: LabeledGraph, spec: LineSplitSpec) -> tuple[str, str]:
    """Validate a split spec; returns (u, other endpoint of the anchor)."""
    u = spec.split_vertex
    if u not in g.vertices:
        raise InvalidPartition(f"{u!r} is not a vertex")
    # The ends of every edge at u, from one pass over the edges.
    ends = {label: (p, q) for label, p, q in g.edges if u in (p, q)}
    if spec.anchor_edge not in ends:
        raise InvalidPartition(f"anchor {spec.anchor_edge!r} is not incident to {u!r}")
    for label, (p, q) in ends.items():
        if p == q:
            raise InvalidPartition(f"loop {label!r} at the split vertex")
    sides = spec.left_edges | spec.right_edges
    if spec.anchor_edge in sides:
        raise InvalidPartition("the anchor edge may not appear in either side")
    if spec.left_edges & spec.right_edges:
        raise InvalidPartition("the two sides overlap")
    if sides | {spec.anchor_edge} != set(ends):
        raise InvalidPartition(
            "sides plus anchor must cover the incident edges exactly"
        )
    p, q = ends[spec.anchor_edge]
    return u, q if p == u else p


def n_line_split(
    g: LabeledGraph,
    spec: LineSplitSpec,
    new_labels: Sequence[str],
) -> LabeledGraph:
    """Split a vertex into an adjacent pair.

    ``new_labels`` is (u1, u2, a, gamma).  The anchor edge and the left
    side reattach their u-end to u1, the right side to u2; edge a joins
    u1 to u2 and edge gamma joins u2 to the anchor's other endpoint.
    The result has one more vertex and two more edges than the input.
    """
    u1, u2, a_label, gamma_label = new_labels
    u, v_other = _check_spec(g, spec)
    if u1 == u2 or u1 in g.vertices or u2 in g.vertices:
        raise LabelCollision("replacement vertex names must be fresh and distinct")
    taken = set(g.edge_labels)
    if a_label == gamma_label or a_label in taken or gamma_label in taken:
        raise LabelCollision("new edge labels must be fresh and distinct")

    edges: list[tuple[str, str, str]] = []
    for label, p, q in g.edges:
        if label == spec.anchor_edge or label in spec.left_edges:
            target = u1
        elif label in spec.right_edges:
            target = u2
        else:
            edges.append((label, p, q))
            continue
        edges.append((label, target if p == u else p, target if q == u else q))
    edges.append((a_label, u1, u2))
    edges.append((gamma_label, u2, v_other))

    vertices = tuple(u1 if v == u else v for v in g.vertices) + (u2,)
    return LabeledGraph(vertices, tuple(edges))


def _fresh(stem: str, taken: set[str]) -> str:
    if stem not in taken:
        return stem
    i = 2
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


def _splits(g: LabeledGraph, spec: LineSplitSpec) -> tuple[SplitContext, LabeledGraph]:
    """The matroid split of the cycle matroid of ``g`` at X = {anchor} +
    left side, and the vertex split of ``g``, with the same fresh labels
    for a and gamma."""
    taken_edges = set(g.edge_labels)
    a_label = _fresh("a", taken_edges)
    gamma_label = _fresh("gamma", taken_edges)
    taken_vertices = set(g.vertices)
    u1 = _fresh("u1", taken_vertices)
    u2 = _fresh("u2", taken_vertices)

    ctx = SplitContext(
        base=BinaryMatroid(incidence_matrix(g)),
        x_set=frozenset({spec.anchor_edge}) | spec.left_edges,
        e=spec.anchor_edge,
        label_a=a_label,
        label_gamma=gamma_label,
    )
    return ctx, n_line_split(g, spec, (u1, u2, a_label, gamma_label))


def verify_equivalence(g: LabeledGraph, spec: LineSplitSpec) -> bool:
    """Do the graph-level and matroid-level splits agree?

    Builds the split matrix of the cycle matroid of ``g`` at X =
    {anchor} + left side and, independently, the incidence matrix of
    the split graph, and tests whether their rows span the same space:
    rank(A) == rank(B) == rank(A stacked on B).  By unique
    representability (see the module docstring) that holds iff the two
    matroids are equal, provided column j of both matrices names the
    same element, which the construction guarantees.  Costs three
    eliminations; no circuit is enumerated.
    """
    ctx, h = _splits(g, spec)
    split = build_split_matrix(ctx)
    graph = incidence_matrix(h)
    # Both matrices list the edges of g in g's order, then a, then
    # gamma: build_split_matrix appends a and gamma to the base columns,
    # and n_line_split appends them to g's edges.  So the rows can be
    # stacked column for column.
    stacked = GF2Matrix(split.rows + graph.rows, split.col_labels)
    return rank(split) == rank(graph) == rank(stacked)


def format_graph(g: LabeledGraph) -> str:
    """One ``label u v`` line per edge."""
    return "\n".join(f"{label} {u} {v}" for label, u, v in g.edges) + "\n"


def parse_graph(text: str, source: str = "<string>") -> LabeledGraph:
    """Parse the edge-list format: ``label u v`` per line, ``#`` comments.

    A field that starts with ``#`` ends the line, so a comment may follow
    an edge; a ``#`` inside a field, as in the label ``e#1``, is kept.
    The vertex set is inferred from the endpoints.
    """
    edges: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        for end, field in enumerate(fields):
            if field.startswith("#"):
                del fields[end:]
                break
        if not fields:
            continue
        if len(fields) != 3:
            raise ParseError(
                f"{source}:{lineno}: expected 'label u v', got {raw.strip()!r}"
            )
        edges.append((fields[0], fields[1], fields[2]))
    if not edges:
        raise ParseError(f"{source}: no edges found")
    try:
        return LabeledGraph.from_edges(edges)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from exc

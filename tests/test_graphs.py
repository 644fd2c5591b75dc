import random
from functools import partial

import pytest

from essplit import (
    BinaryMatroid,
    LabeledGraph,
    LineSplitSpec,
    SplitContext,
    closure_rule,
    format_graph,
    graphs,
    incidence_matrix,
    n_line_split,
    parse_graph,
    rank,
    split_matroid,
    verify_equivalence,
)
from essplit.errors import (
    GroundSetTooLarge,
    InvalidPartition,
    LabelCollision,
    ParseError,
    UnknownLabel,
)
from essplit.showcase import showcase_graph, showcase_split_spec

from instances import random_connected_multigraph, random_split_spec
from reference import graph_closure, reference_equivalence


def star_graph():
    return LabeledGraph.from_edges(
        [
            ("e", "u", "v"),
            ("p1", "u", "x1"),
            ("p2", "u", "x2"),
            ("q1", "u", "y1"),
            ("q2", "u", "y2"),
        ]
    )


def component_count(g: LabeledGraph) -> int:
    remaining = set(g.vertices)
    count = 0
    while remaining:
        count += 1
        stack = [remaining.pop()]
        while stack:
            here = stack.pop()
            for label, u, v in g.edges:
                for a, b in ((u, v), (v, u)):
                    if a == here and b in remaining:
                        remaining.remove(b)
                        stack.append(b)
    return count


class TestIncidenceMatrix:
    def test_single_edge(self):
        g = LabeledGraph.from_edges([("pq", "p", "q")])
        m = incidence_matrix(g)
        assert m.column("pq") == 0b11

    def test_loop_column_is_zero(self):
        g = LabeledGraph.from_edges([("ring", "p", "p"), ("pq", "p", "q")])
        assert incidence_matrix(g).column("ring") == 0

    def test_more_than_64_edges(self):
        g = LabeledGraph.from_edges([(f"s{j}", "hub", f"v{j}") for j in range(65)])
        m = incidence_matrix(g)
        assert (m.n_rows, m.n_cols) == (66, 65)
        assert m.column("s64") == 1 | 1 << 65
        assert rank(m) == 65

    def test_wheel_shape_and_rank(self):
        m = incidence_matrix(showcase_graph())
        assert (m.n_rows, m.n_cols) == (5, 8)
        assert rank(m) == 4

    def test_rank_counts_components(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_connected_multigraph(rng)
            loop_free = LabeledGraph(
                g.vertices, tuple(e for e in g.edges if e[1] != e[2])
            )
            assert rank(incidence_matrix(loop_free)) == len(
                loop_free.vertices
            ) - component_count(loop_free)


class TestGraphConstruction:
    def test_duplicate_edge_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledGraph.from_edges([("e", "p", "q"), ("e", "q", "r")])

    def test_undeclared_vertex_rejected(self):
        with pytest.raises(ValueError):
            LabeledGraph(("p",), (("e", "p", "q"),))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex names must be distinct"):
            LabeledGraph(("p", "q", "p"), (("e", "p", "q"),))

    def test_endpoints_of_an_unknown_edge(self):
        g = LabeledGraph.from_edges([("e", "p", "q")])
        assert g.endpoints("e") == ("p", "q")
        with pytest.raises(UnknownLabel, match="no edge labelled 'f'"):
            g.endpoints("f")

    def test_vertices_in_first_appearance_order(self):
        rng = random.Random(5150)
        loops = parallels = 0
        for _ in range(200):
            g = random_connected_multigraph(rng, max_vertices=9, max_edges=16)
            edges = list(g.edges)
            rng.shuffle(edges)
            loops += any(u == v for _, u, v in edges)
            parallels += len({frozenset((u, v)) for _, u, v in edges}) < len(edges)
            # The order by a scan of a list, as the vertices were first read.
            expected: list[str] = []
            for _, u, v in edges:
                for vertex in (u, v):
                    if vertex not in expected:
                        expected.append(vertex)
            built = LabeledGraph.from_edges(edges)
            assert built.vertices == tuple(expected)
            assert built.edges == tuple(edges)
        assert min(loops, parallels) >= 20


class TestNLineSplit:
    def test_wheel_split_structure(self):
        h = n_line_split(
            showcase_graph(), showcase_split_spec(), ("u1", "u2", "a", "gamma")
        )
        assert len(h.vertices) == 6
        assert len(h.edges) == 10
        assert set(h.edges) == {
            ("1", "TL", "BL"),
            ("2", "BL", "BR"),
            ("3", "TR", "BR"),
            ("4", "TL", "TR"),
            ("5", "TL", "u2"),
            ("6", "BL", "u2"),
            ("x", "u1", "TR"),
            ("y", "u1", "BR"),
            ("a", "u1", "u2"),
            ("gamma", "u2", "BR"),
        }

    def test_degree_counts(self):
        spec = showcase_split_spec()
        h = n_line_split(showcase_graph(), spec, ("u1", "u2", "a", "gamma"))
        assert len(h.incident("u1")) == len(spec.left_edges) + 2
        assert len(h.incident("u2")) == len(spec.right_edges) + 2

    def test_sizes_always_grow_by_one_and_two(self):
        rng = random.Random(99)
        done = 0
        while done < 25:
            g = random_connected_multigraph(rng)
            spec = random_split_spec(rng, g)
            if spec is None:
                continue
            h = n_line_split(g, spec, ("w1", "w2", "na", "ng"))
            assert len(h.vertices) == len(g.vertices) + 1
            assert len(h.edges) == len(g.edges) + 2
            done += 1

    def test_overlapping_sides_rejected(self):
        with pytest.raises(InvalidPartition, match="overlap"):
            n_line_split(
                showcase_graph(),
                LineSplitSpec("C", "y", frozenset({"x", "5"}), frozenset({"5", "6"})),
                ("u1", "u2", "a2", "g2"),
            )

    def test_missing_incident_edge_rejected(self):
        with pytest.raises(InvalidPartition, match="cover"):
            n_line_split(
                showcase_graph(),
                LineSplitSpec("C", "y", frozenset({"x"}), frozenset({"5"})),
                ("u1", "u2", "a2", "g2"),
            )

    def test_anchor_in_side_rejected(self):
        with pytest.raises(InvalidPartition, match="anchor"):
            n_line_split(
                showcase_graph(),
                LineSplitSpec("C", "y", frozenset({"x", "y"}), frozenset({"5", "6"})),
                ("u1", "u2", "a2", "g2"),
            )

    def test_loop_at_split_vertex_rejected(self):
        g = LabeledGraph.from_edges(
            [("e", "u", "v"), ("ring", "u", "u"), ("f", "u", "w")]
        )
        with pytest.raises(InvalidPartition, match="loop"):
            n_line_split(
                g,
                LineSplitSpec("u", "e", frozenset({"f", "ring"}), frozenset()),
                ("u1", "u2", "a", "g"),
            )

    def test_unknown_vertex_and_foreign_anchor_rejected(self):
        with pytest.raises(InvalidPartition, match="'Z' is not a vertex"):
            n_line_split(
                showcase_graph(),
                LineSplitSpec("Z", "y", frozenset(), frozenset()),
                ("u1", "u2", "a2", "g2"),
            )
        with pytest.raises(InvalidPartition, match="anchor '1' is not incident"):
            n_line_split(
                showcase_graph(),
                LineSplitSpec("C", "1", frozenset({"x"}), frozenset({"5", "6"})),
                ("u1", "u2", "a2", "g2"),
            )

    def test_spec_check_is_one_pass_over_the_edges(self, monkeypatch):
        # Looking up each edge at the split vertex by label would scan the
        # edges once per spoke; count the lookups instead of timing them.
        calls = []
        endpoints = LabeledGraph.endpoints

        def counted(self, label):
            calls.append(label)
            return endpoints(self, label)

        monkeypatch.setattr(LabeledGraph, "endpoints", counted)
        spokes = [f"s{i}" for i in range(200)]
        g = LabeledGraph.from_edges(
            [("e", "u", "v")] + [(s, "u", f"w{s}") for s in spokes]
        )
        spec = LineSplitSpec("u", "e", frozenset(spokes[:80]), frozenset(spokes[80:]))
        h = n_line_split(g, spec, ("u1", "u2", "a", "gamma"))
        assert len(calls) <= 1
        assert len(h.incident("u1")) == 80 + 2
        assert len(h.incident("u2")) == 120 + 2

    def test_stale_labels_rejected(self):
        with pytest.raises(LabelCollision):
            n_line_split(
                showcase_graph(),
                showcase_split_spec(),
                ("C", "u2", "a", "gamma"),
            )
        with pytest.raises(LabelCollision):
            n_line_split(
                showcase_graph(),
                showcase_split_spec(),
                ("u1", "u2", "x", "gamma"),
            )


class TestVerifyEquivalence:
    def test_wheel_configuration(self):
        assert verify_equivalence(showcase_graph(), showcase_split_spec())

    def test_star_tree(self):
        spec = LineSplitSpec(
            "u", "e", frozenset({"p1", "p2"}), frozenset({"q1", "q2"})
        )
        assert verify_equivalence(star_graph(), spec)

    def test_fresh_labels_dodge_collisions(self):
        g = LabeledGraph.from_edges(
            [("a", "p", "q"), ("gamma", "q", "r"), ("c", "p", "r")]
        )
        spec = LineSplitSpec("q", "a", frozenset({"gamma"}), frozenset())
        assert verify_equivalence(g, spec)

    def test_fresh_labels_count_past_a_taken_second(self):
        g = LabeledGraph.from_edges(
            [("a", "p", "q"), ("a2", "q", "r"), ("c", "p", "r")]
        )
        spec = LineSplitSpec("q", "a", frozenset({"a2"}), frozenset())
        ctx, _ = graphs._splits(g, spec)
        assert (ctx.label_a, ctx.label_gamma) == ("a3", "gamma")
        assert verify_equivalence(g, spec)

    def test_random_graphs(self):
        rng = random.Random(20240)
        done = 0
        while done < 20:
            g = random_connected_multigraph(rng)
            spec = random_split_spec(rng, g)
            if spec is None:
                continue
            assert verify_equivalence(g, spec)
            done += 1

    def test_label_stability(self):
        g = showcase_graph()
        relabel = {lab: f"E{lab}" for lab in g.edge_labels}
        g2 = LabeledGraph(
            g.vertices,
            tuple((relabel[lab], u, v) for lab, u, v in g.edges),
        )
        spec = showcase_split_spec()
        spec2 = LineSplitSpec(
            spec.split_vertex,
            relabel[spec.anchor_edge],
            frozenset(relabel[lab] for lab in spec.left_edges),
            frozenset(relabel[lab] for lab in spec.right_edges),
        )
        assert verify_equivalence(g, spec) == verify_equivalence(g2, spec2)


def seeded_splits(seed: int, count: int) -> list[tuple[LabeledGraph, LineSplitSpec]]:
    rng = random.Random(seed)
    splits = []
    while len(splits) < count:
        g = random_connected_multigraph(rng)
        spec = random_split_spec(rng, g)
        if spec is not None:
            splits.append((g, spec))
    return splits


def rewired(h: LabeledGraph, labels, old: str, new: str) -> LabeledGraph:
    """``h`` with the end ``old`` of each edge in ``labels`` moved to
    ``new``, a vertex added when ``h`` lacks it."""
    edges = tuple(
        (lab, new if p == old else p, new if q == old else q) if lab in labels else (lab, p, q)
        for lab, p, q in h.edges
    )
    vertices = h.vertices if new in h.vertices else h.vertices + (new,)
    return LabeledGraph(vertices, edges)


# Mutants of n_line_split; each takes the real one first.


def swapped_sides(split, g, spec, labels):
    swapped = LineSplitSpec(
        spec.split_vertex, spec.anchor_edge, spec.right_edges, spec.left_edges
    )
    return split(g, swapped, labels)


def gamma_at_u1(split, g, spec, labels):
    u1, u2, _, gamma = labels
    return rewired(split(g, spec, labels), {gamma}, u2, u1)


def anchor_at_u2(split, g, spec, labels):
    u1, u2, _, _ = labels
    return rewired(split(g, spec, labels), {spec.anchor_edge}, u1, u2)


def merged_new_vertices(split, g, spec, labels):
    # a becomes a loop, so the graph's rows span a proper subspace of
    # the split matrix's; the ranks tell the two apart.
    u1, u2, _, _ = labels
    h = split(g, spec, labels)
    return rewired(h, set(h.edge_labels), u2, u1)


def right_side_apart(split, g, spec, labels):
    # The right side on a vertex of its own: with that side nonempty,
    # the graph's rows span a proper superspace of the split matrix's.
    u2 = labels[1]
    return rewired(split(g, spec, labels), spec.right_edges, u2, u2 + "b")


class TestRowSpaceEquivalence:
    """``verify_equivalence`` decides by row space; the circuit
    comparison of ``reference_equivalence`` is the reference."""

    def test_matches_reference_on_seeded_graphs(self):
        splits = seeded_splits(1204, 400)
        assert any(u == v for g, _ in splits for _, u, v in g.edges)
        assert any(
            len({frozenset((u, v)) for _, u, v in g.edges}) < len(g.edges)
            for g, _ in splits
        )
        for g, spec in splits:
            assert verify_equivalence(g, spec) is reference_equivalence(g, spec) is True

    @pytest.mark.parametrize(
        "mutant",
        [swapped_sides, gamma_at_u1, anchor_at_u2, merged_new_vertices, right_side_apart],
    )
    def test_matches_reference_under_mutants(self, monkeypatch, mutant):
        # Both routes build the split graph through graphs.n_line_split.
        monkeypatch.setattr(graphs, "n_line_split", partial(mutant, n_line_split))
        rejected = 0
        for g, spec in seeded_splits(1204, 400):
            verdict = reference_equivalence(g, spec)
            assert verify_equivalence(g, spec) is verdict, (g.edges, spec)
            rejected += not verdict
        assert rejected

    def test_star_above_the_circuit_cap(self):
        spokes = [f"s{i}" for i in range(30)]
        g = LabeledGraph.from_edges(
            [("e", "u", "v")] + [(s, "u", f"w{s}") for s in spokes]
        )
        spec = LineSplitSpec("u", "e", frozenset(spokes[:15]), frozenset(spokes[15:]))
        assert len(g.edges) + 2 == 33
        with pytest.raises(GroundSetTooLarge):
            reference_equivalence(g, spec)
        assert verify_equivalence(g, spec) is True


def label_mask(labels, ground) -> int:
    return sum(1 << j for j, lab in enumerate(ground) if lab in labels)


class TestUnionFindClosure:
    """A third route to closures in graphic matroids: edge z is in cl(A)
    iff its endpoints are joined in (V, A), by union-find."""

    def test_matches_closures_at_and_walk_closures(self):
        rng = random.Random(1205)
        for _ in range(40):
            g = random_connected_multigraph(rng, max_vertices=7, max_edges=11)
            m = BinaryMatroid(incidence_matrix(g))
            ground = m.ground
            last = len(ground) - 1
            walked = 0
            for mask, answers in m.walk_closures((last,), last):
                walked += 1
                part = [lab for j, lab in enumerate(ground) if mask >> j & 1]
                for (_, closure), labels in zip(answers, (part, part + [ground[last]])):
                    expected = label_mask(graph_closure(g, labels), ground)
                    assert closure == expected
                    assert m.closures_at(label_mask(labels, ground), ())[0][1] == expected
            assert walked == 1 << last

    def test_matches_split_oracle_and_closure_rule(self):
        rng = random.Random(1206)
        splits = 0
        while splits < 20:
            g = random_connected_multigraph(rng, max_vertices=40, max_edges=148)
            spec = random_split_spec(rng, g)
            if spec is None:
                continue
            splits += 1
            ctx = SplitContext(
                BinaryMatroid(incidence_matrix(g)),
                frozenset({spec.anchor_edge}) | spec.left_edges,
                spec.anchor_edge,
                "a",
                "gamma",
            )
            h = n_line_split(g, spec, ("u1", "u2", "a", "gamma"))
            oracle = split_matroid(ctx)
            for _ in range(50):
                size = rng.randint(0, len(g.vertices) + 2)
                a_prime = set(rng.sample(g.edge_labels, min(size, len(g.edges))))
                a_prime |= {lab for lab in ("a", "gamma") if rng.random() < 0.5}
                expected = graph_closure(h, a_prime)
                assert oracle.closure_of(a_prime) == expected
                assert closure_rule(ctx, a_prime).formula_result == expected


class TestGraphTextFormat:
    def test_roundtrip(self):
        g = showcase_graph()
        assert parse_graph(format_graph(g)) == LabeledGraph.from_edges(g.edges)

    def test_comments_and_blanks(self):
        g = parse_graph("# a triangle\npq p q\n\nqr q r\nrp r p\n")
        assert len(g.edges) == 3

    @pytest.mark.parametrize("comment", ["  # anchor", " #anchor", "\t#"])
    def test_comment_after_an_edge(self, comment):
        g = parse_graph(f"e u v{comment}\nf v w # two words\n")
        assert g.edges == (("e", "u", "v"), ("f", "v", "w"))

    def test_hash_inside_a_field_is_kept(self):
        g = parse_graph("e#1 u v# # a comment\n#f v w\n")
        assert g.edges == (("e#1", "u", "v#"),)

    def test_repeated_edge_labels_are_named_sorted(self):
        with pytest.raises(ParseError) as got:
            parse_graph("f p q\ne q r\ng r p\ne p p\nf q q\n", "g.txt")
        assert str(got.value) == (
            "g.txt: edge labels must be distinct; repeated: ['e', 'f']"
        )

    def test_bad_line_reports_position(self):
        with pytest.raises(ParseError, match="g.txt:2"):
            parse_graph("pq p q\nbroken line here extra\n", "g.txt")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("# nothing\n")

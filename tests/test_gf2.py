import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essplit import (
    BinaryMatroid,
    GF2Matrix,
    format_matrix,
    parse_matrix,
    rank,
)
from essplit.errors import ParseError, UnknownLabel
from essplit.showcase import showcase_graph
from essplit.graphs import incidence_matrix


def identity(n):
    return GF2Matrix.from_rows(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
        [str(j) for j in range(n)],
    )


def column_rank(m):
    return BinaryMatroid(m).rank_of(m.col_labels)


def columns_dependent(m, cols):
    """True iff the columns ``cols`` of ``m`` are linearly dependent."""
    return BinaryMatroid(m).rank_of(cols) < len(set(cols))


def span_size(rows):
    """Independent oracle: |span| = 2^rank, via explicit XOR closure."""
    span = {0}
    for word in rows:
        span |= {s ^ word for s in span}
    return len(span)


def brute_rank(rows):
    """Largest independent row subset, checked by span size."""
    from itertools import combinations

    for k in range(len(rows), -1, -1):
        for combo in combinations(rows, k):
            if span_size(combo) == 2 ** k:
                return k
    return 0


class TestGF2MatrixRows:
    def test_from_rows_roundtrip(self):
        m = GF2Matrix.from_rows([[1, 0, 1, 1], [0, 1, 0, 0]], list("pqrs"))
        assert m.rows == (0b1101, 0b0010)
        assert m.entries() == [[1, 0, 1, 1], [0, 1, 0, 0]]
        assert m.column("p") == 0b01 and m.column("q") == 0b10

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError, match="not a GF"):
            GF2Matrix.from_rows([[0, 2]], ["p", "q"])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="number of columns"):
            GF2Matrix.from_rows([[1, 0], [1]], ["p", "q"])

    def test_rejects_repeated_labels(self):
        with pytest.raises(ValueError, match="column labels must be distinct"):
            GF2Matrix.from_rows([[1, 0, 1]], ["p", "q", "p"])

    def test_unknown_column_label(self):
        with pytest.raises(UnknownLabel, match="unknown column label 'r'"):
            identity(2).column_index("r")

    @pytest.mark.parametrize("row", [0b100, 1 << 70, -1])
    def test_rejects_over_wide_rows(self, row):
        with pytest.raises(ValueError, match="outside the columns"):
            GF2Matrix((0b11, row), ("p", "q"))

    def test_immutable(self):
        m = GF2Matrix.from_rows([[1]], ["p"])
        with pytest.raises(AttributeError):
            m.rows = (0,)


class TestRank:
    def test_identity(self):
        assert rank(identity(3)) == 3

    def test_duplicate_rows(self):
        m = GF2Matrix.from_rows([[1, 0, 1, 1], [1, 0, 1, 1]], list("abcd"))
        assert rank(m) == 1

    def test_wheel_incidence(self):
        # Connected graph on 5 vertices: cycle-matroid rank is 5 - 1.
        m = incidence_matrix(showcase_graph())
        assert (m.n_rows, m.n_cols) == (5, 8)
        assert rank(m) == 4

    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=6, max_size=6),
            min_size=1,
            max_size=6,
        )
    )
    def test_rank_equals_transpose_rank(self, rows):
        m = GF2Matrix.from_rows(rows, [str(i) for i in range(6)])
        assert rank(m) == column_rank(m)

    @settings(max_examples=60)
    @given(
        st.integers(1, 8).flatmap(
            lambda r: st.lists(
                st.lists(st.integers(0, 1), min_size=12, max_size=12),
                min_size=r,
                max_size=r,
            )
        )
    )
    def test_rank_matches_exhaustive_row_search(self, rows):
        m = GF2Matrix.from_rows(rows, [str(i) for i in range(12)])
        assert rank(m) == brute_rank(list(m.rows))

    @settings(max_examples=40)
    @given(st.data())
    def test_wider_than_64_columns(self, data):
        labels = [f"c{j}" for j in range(70)]
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, 1), min_size=70, max_size=70),
                min_size=1,
                max_size=6,
            )
        )
        m = GF2Matrix.from_rows(rows, labels)
        assert rank(m) == brute_rank(list(m.rows)) == column_rank(m)
        cols = data.draw(st.sets(st.sampled_from(labels[60:]), max_size=6))
        words = [m.column(lab) for lab in cols]
        assert columns_dependent(m, cols) == (span_size(words) < 2 ** len(words))


class TestColumnsDependent:
    def test_zero_column_forces_dependence(self):
        m = GF2Matrix.from_rows([[1, 0], [0, 0]], ["p", "z"])
        assert columns_dependent(m, {"z"})
        assert columns_dependent(m, {"p", "z"})

    def test_wheel_triangle(self):
        m = incidence_matrix(showcase_graph())
        assert columns_dependent(m, {"4", "5", "x"})
        assert not columns_dependent(m, {"4", "5"})

    def test_empty_set_independent(self):
        assert not columns_dependent(identity(2), frozenset())

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            columns_dependent(identity(2), {"bogus"})

    @given(st.data())
    def test_monotone(self, data):
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, 1), min_size=7, max_size=7),
                min_size=1,
                max_size=4,
            )
        )
        m = GF2Matrix.from_rows(rows, [str(i) for i in range(7)])
        small = data.draw(st.sets(st.sampled_from(m.col_labels)))
        extra = data.draw(st.sets(st.sampled_from(m.col_labels)))
        if columns_dependent(m, small):
            assert columns_dependent(m, small | extra)


class TestTextFormat:
    def test_roundtrip(self):
        m = incidence_matrix(showcase_graph())
        again = parse_matrix(format_matrix(m), "roundtrip")
        assert again == m

    def test_parse_reports_line_numbers(self):
        with pytest.raises(ParseError, match="f.txt:3"):
            parse_matrix("a b\n0 1\n0 2\n", "f.txt")

    def test_parse_rejects_ragged_rows(self):
        with pytest.raises(ParseError, match="expected 2 entries"):
            parse_matrix("a b\n0 1 1\n")

    def test_parse_rejects_duplicate_labels(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_matrix("a a\n0 0\n")

    def test_parse_names_repeated_labels_sorted(self):
        with pytest.raises(ParseError) as got:
            parse_matrix("c b a b c d\n0 0 0 0 0 0\n", "f.txt")
        assert str(got.value) == "f.txt:1: duplicate column labels ['b', 'c']"

    def test_parse_rejects_empty(self):
        with pytest.raises(ParseError):
            parse_matrix("\n\n")


def test_no_column_cap():
    n = 130
    m = GF2Matrix.from_rows([[1] * n, [j % 2 for j in range(n)]], map(str, range(n)))
    assert m.n_cols == n
    assert rank(m) == 2
    assert columns_dependent(m, {"0", "2", "128"})
    assert not columns_dependent(m, {"0", "129"})
    assert parse_matrix(format_matrix(m)) == m

"""Exact linear algebra over GF(2) with bit-packed rows.

A vector is a plain Python int: bit ``j`` of a row holds the entry in
column ``j``, and addition is XOR.  Ints have no width limit, so neither
has a matrix.  Matrices carry a label per column; the label order fixes
the canonical ordering used for every emitted set.  All values are
immutable and all operations are pure, so they can be shared freely.
The public surface is ``GF2Matrix``, ``rank`` and the text format
(``parse_matrix``, ``format_matrix``); column dependence and closures
are ``BinaryMatroid``'s.

Every elimination in the package runs on one kernel: an XOR basis held
as a dict from the lowest set bit of each entry to the entry
(``_insert``, ``_reduce``).  Residues modulo a span are kept as a list
with one word per column and updated one new vector at a time
(``_project_out``), so a walk that grows a subset column by column pays
one XOR per column per step.  The result of a query does not depend on
the order in which vectors reach the basis, so every result is
deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ParseError, UnknownLabel


def _reduce(word: int, basis: dict[int, int]) -> int:
    """Reduce ``word`` against an XOR basis keyed by lowest set bit."""
    while word:
        low = word & -word
        pivot = basis.get(low)
        if pivot is None:
            return word
        word ^= pivot
    return 0


def _insert(basis: dict[int, int], word: int) -> bool:
    """Add ``word`` to the basis; False if it was already in the span."""
    word = _reduce(word, basis)
    if word == 0:
        return False
    basis[word & -word] = word
    return True


def _project_out(residues: list[int], pivot: int) -> list[int]:
    """Residues modulo span + v, given ``residues`` modulo a span and the
    nonzero residue ``pivot`` of v.

    A residue here is the one member of its coset with no pivot bit, the
    pivots being the lowest set bits of the vectors projected out so far.
    ``pivot`` has no pivot bit, so its lowest bit l is a new pivot: every
    residue holding l gets ``pivot`` added, which clears l and sets no
    old pivot bit.  The map stays linear, and two words get the same
    residue exactly when their sum lies in the grown span.
    """
    low = pivot & -pivot
    return [w ^ pivot if w & low else w for w in residues]


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class GF2Matrix:
    """Matrix over GF(2) whose columns are labeled.

    Each row is an int whose bit ``j`` is the entry in column ``j``.  The
    column labels are opaque strings; their order at construction is
    the canonical ground-set order for everything derived from the
    matrix.
    """

    rows: tuple[int, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("column labels must be distinct")
        for row in self.rows:
            if row < 0 or row >> len(self.col_labels):
                raise ValueError("a row has entries outside the columns")

    @classmethod
    def from_rows(
        cls, rows: Iterable[Iterable[int]], col_labels: Iterable[str]
    ) -> "GF2Matrix":
        labels = tuple(str(lab) for lab in col_labels)
        packed = []
        for entries in rows:
            entries = list(entries)
            if len(entries) != len(labels):
                raise ValueError("all rows must match the number of columns")
            row = 0
            for j, entry in enumerate(entries):
                if entry not in (0, 1):
                    raise ValueError(f"{entry!r} is not a GF(2) entry")
                row |= entry << j
            packed.append(row)
        return cls(tuple(packed), labels)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    @cached_property
    def _col_index(self) -> dict[str, int]:
        return {lab: j for j, lab in enumerate(self.col_labels)}

    def column_index(self, label: str) -> int:
        try:
            return self._col_index[label]
        except KeyError:
            raise UnknownLabel(f"unknown column label {label!r}") from None

    def column(self, label: str) -> int:
        """The column as an int whose bit ``i`` is the entry in row ``i``."""
        j = self.column_index(label)
        bits = 0
        for i, row in enumerate(self.rows):
            bits |= ((row >> j) & 1) << i
        return bits

    def entries(self) -> list[list[int]]:
        """The rows as lists of 0/1 entries."""
        return [[row >> j & 1 for j in range(self.n_cols)] for row in self.rows]


def rank(m: GF2Matrix) -> int:
    """Dimension of the row space of ``m`` over GF(2)."""
    basis: dict[int, int] = {}
    for row in m.rows:
        _insert(basis, row)
    return len(basis)


def format_matrix(m: GF2Matrix) -> str:
    """Serialize to the matrix text format.

    Line 1 holds the whitespace-separated column labels; each following
    line holds one row of space-separated 0/1 entries.
    """
    lines = [" ".join(m.col_labels)]
    for entries in m.entries():
        lines.append(" ".join(map(str, entries)))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, source: str = "<string>") -> GF2Matrix:
    """Parse the matrix text format; blank lines are ignored."""
    labels: tuple[str, ...] | None = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if labels is None:
            labels = tuple(line.split())
            if len(set(labels)) != len(labels):
                repeated = sorted(lab for lab, count in Counter(labels).items() if count > 1)
                raise ParseError(
                    f"{source}:{lineno}: duplicate column labels {repeated!r}"
                )
            continue
        fields = line.split()
        if len(fields) != len(labels):
            raise ParseError(
                f"{source}:{lineno}: expected {len(labels)} entries, got {len(fields)}"
            )
        row = 0
        for j, field in enumerate(fields):
            if field not in ("0", "1"):
                raise ParseError(f"{source}:{lineno}: entry {field!r} is not 0 or 1")
            if field == "1":
                row |= 1 << j
        rows.append(row)
    if labels is None:
        raise ParseError(f"{source}: empty matrix file")
    return GF2Matrix(tuple(rows), labels)

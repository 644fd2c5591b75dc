"""Matroid queries driven by a GF(2) representation.

``BinaryMatroid`` answers rank, closure, circuit and flat questions from
the column space of its matrix.  It is the ground truth that every
closed-form prediction elsewhere in the package is checked against, so
each answer is computed from linear algebra alone, never from the
predictions.  Columns are ints of any width, and every elimination runs
on the kernel of ``gf2``.  From the residues of all columns modulo
span(A), one pass (``_spans``) gives the rank and the closure of A + S
for every S inside a few extra elements; ``closures_at`` runs it for
one A, and ``closure_of`` is the label view of its case S = {}.
``walk_closures`` runs it for every A in one depth-first walk: each
child adds one column above its parent's, so its residues follow from
the parent's by one projection.  The two enumerations follow the size of
their answer rather than walking every subset:

* ``circuits()`` either sweeps subsets by size or walks the cycle space
  (the kernel of the matrix), whichever has fewer candidates;
* ``flats()`` climbs the lattice of flats from the loops, one cover at
  a time.

Their docstrings say why the outputs match the definitions; the tests
keep the all-subset definitions as references and compare.

Inside the module a subset is a position mask: bit i stands for the
i-th ground element.  Both circuit strategies find masks, and the one
circuit cache holds masks in canonical order (first by size, then
lexicographically by position, ``_mask_key``).  Labels appear only at
the boundary: ``rank_of``, ``closure_of`` and ``is_flat`` take label
sets, and ``circuits()`` and ``flats()`` return ``frozenset`` objects
of labels in that order, or with ``masks=True`` the position masks
themselves, for callers that stay on masks.  ``closures_at`` and
``walk_closures`` take the extra elements as positions and answer with
masks.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import GroundSetTooLarge, UnknownLabel
from .gf2 import GF2Matrix, _bits, _insert, _project_out

def _mask_key(mask: int) -> tuple:
    """Canonical sort key of the subset with this position mask: its size,
    then its positions."""
    return (mask.bit_count(), tuple(_bits(mask)))


def _cycle_walk_is_cheaper(n: int, rank: int) -> bool:
    """Circuit strategy rule for n elements of the given rank.

    True when the 2^(n - rank) vectors of the cycle space are fewer than
    the subsets of size at most rank + 1 that the size-ordered sweep may
    test.
    """
    return 1 << (n - rank) < sum(comb(n, k) for k in range(rank + 2))


def _spans(
    residues: Sequence[int], rank: int, extra: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """Rank and closure mask of A + S for every S inside the positions
    ``extra``, from rank(A) and the residues of all columns modulo
    span(A).

    Entry ``i`` is for the S that holds ``extra[j]`` exactly when bit j
    of ``i`` is set.  span(A + S) is span(A) plus the span of the columns
    of S, so a column lies in it exactly when its residue (which is
    linear) lies in the span of the residues of S, and the rank grows by
    the dimension of that span.  One pass groups the columns by residue.
    """
    classes: dict[int, int] = {}
    for pos, word in enumerate(residues):
        classes[word] = classes.get(word, 0) | 1 << pos
    spans = [{0}]
    for pos in extra:
        word = residues[pos]
        spans += [span | {s ^ word for s in span} for span in spans]
    out = []
    for span in spans:
        closed = 0
        for word in span:
            closed |= classes.get(word, 0)
        out.append((rank + len(span).bit_length() - 1, closed))
    return tuple(out)


class BinaryMatroid:
    """Binary matroid given by a labeled GF(2) matrix.

    The ground set is the tuple of column labels, in matrix order.  The
    circuit masks are computed on first request and cached, and so is
    their label view; each cache write is a single attribute assignment,
    so concurrent callers may duplicate work but always observe equal
    tuples.
    """

    DEFAULT_CAP = 24
    SUBSET_CAP = 20  # ceiling for operations that walk every subset

    def __init__(self, matrix: GF2Matrix, enumeration_cap: int = DEFAULT_CAP):
        self.matrix = matrix
        self.ground: tuple[str, ...] = matrix.col_labels
        self.enumeration_cap = enumeration_cap
        self._index = matrix._col_index
        self._cols = tuple(matrix.column(lab) for lab in self.ground)
        self._circuits: tuple[int, ...] | None = None
        self._circuit_sets: tuple[frozenset[str], ...] | None = None

    def __repr__(self) -> str:
        return f"BinaryMatroid(ground={list(self.ground)!r})"

    # -- label plumbing -------------------------------------------------

    def _positions(self, labels: Iterable[str]) -> list[int]:
        out = []
        for lab in set(labels):
            pos = self._index.get(lab)
            if pos is None:
                raise UnknownLabel(f"{lab!r} is not a ground-set element")
            out.append(pos)
        out.sort()
        return out

    def _check_subset_cap(self) -> None:
        if len(self.ground) > self.SUBSET_CAP:
            raise GroundSetTooLarge(
                f"{len(self.ground)} elements exceed the all-subset cap "
                f"of {self.SUBSET_CAP}"
            )

    def _check_enumeration_cap(self) -> None:
        if len(self.ground) > self.enumeration_cap:
            raise GroundSetTooLarge(
                f"{len(self.ground)} elements exceed the enumeration cap "
                f"of {self.enumeration_cap}"
            )

    def all_subsets(self) -> Iterator[frozenset[str]]:
        """Every subset of the ground set, smallest first, then lexicographic."""
        self._check_subset_cap()
        for size in range(len(self.ground) + 1):
            for combo in combinations(self.ground, size):
                yield frozenset(combo)

    # -- rank and closure ------------------------------------------------

    def _mask(self, labels: Iterable[str]) -> int:
        mask = 0
        for pos in self._positions(labels):
            mask |= 1 << pos
        return mask

    def _labels(self, mask: int) -> frozenset[str]:
        return frozenset(self.ground[pos] for pos in _bits(mask))

    def _residues(self, mask: int) -> tuple[int, list[int]]:
        """rank(A) and the residue of every column modulo span(A), for the
        subset A with this position mask."""
        rank = 0
        residues = list(self._cols)
        for pos in _bits(mask):
            pivot = residues[pos]
            if pivot:
                residues = _project_out(residues, pivot)
                rank += 1
        return rank, residues

    def rank_of(self, labels: Iterable[str]) -> int:
        """Rank of the columns indexed by ``labels``."""
        basis: dict[int, int] = {}
        for pos in self._positions(labels):
            _insert(basis, self._cols[pos])
        return len(basis)

    def closure_of(self, labels: Iterable[str]) -> frozenset[str]:
        """All elements whose addition leaves the rank unchanged."""
        return self._labels(self.closures_at(self._mask(labels), ())[0][1])

    def closures_at(
        self, mask: int, extra_positions: Sequence[int]
    ) -> tuple[tuple[int, int], ...]:
        """Rank and closure mask of A + S for every S inside the
        positions ``extra_positions``, A given by its position mask.

        Entry ``i`` is for the S that holds the j-th extra position
        exactly when bit j of ``i`` is set, so the first entry is A
        itself.  See ``_spans``.
        """
        rank, residues = self._residues(mask)
        return _spans(residues, rank, extra_positions)

    def walk_closures(
        self, extra_positions: Sequence[int], width: int
    ) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
        """``closures_at`` for every subset A of the first ``width``
        positions, each yielded once as (mask of A, answers).

        The walk is depth first.  A child adds one position above every
        position of its parent, so it gets its residues from the
        parent's by one ``_project_out``, and when the new column already
        lies in the parent's span nothing changes: the child's answers
        are the parent's.  Parents come before their children, and two
        walks with the same ``width`` visit the same masks in the same
        order, so they can be zipped; callers must not rely on the order
        otherwise.
        """
        stack = [(0, 0, list(self._cols), None)]
        while stack:
            mask, rank, residues, answers = stack.pop()
            if answers is None:
                answers = _spans(residues, rank, extra_positions)
            yield mask, answers
            # Highest first, so the lowest is popped next.
            for pos in range(width - 1, mask.bit_length() - 1, -1):
                pivot = residues[pos]
                if pivot:
                    stack.append(
                        (mask | 1 << pos, rank + 1, _project_out(residues, pivot), None)
                    )
                else:
                    stack.append((mask | 1 << pos, rank, residues, answers))

    def is_flat(self, labels: Iterable[str]) -> bool:
        """True iff the set equals its own closure."""
        subset = frozenset(labels)
        return self.closure_of(subset) == subset

    def flats(self, masks: bool = False) -> tuple:
        """Every closed subset, canonically ordered; includes the empty
        flat whenever the matroid has no loops.  Label sets, or position
        masks with ``masks``.

        The flats are found by a walk up the lattice of flats.  It starts
        at cl(empty set), the loops.  The flats covering a flat F are the
        closures cl(F + x) for x outside F, and over GF(2) the span of
        F + x is span(F) together with column(x) + span(F).  So y outside
        F lies in cl(F + x) exactly when columns x and y have the same
        residue modulo span(F), and one residue per element outside F
        yields every cover of F at once.  Every flat other than the
        bottom one covers some flat, so the walk reaches them all, and it
        never takes the closure of an arbitrary subset.  The all-subset
        cap still applies, with the same error.
        """
        self._check_subset_cap()
        bottom = sum(1 << pos for pos, word in enumerate(self._cols) if not word)
        seen = {bottom}
        todo = [bottom]
        while todo:
            flat = todo.pop()
            _, residues = self._residues(flat)
            classes: dict[int, int] = {}
            for pos, key in enumerate(residues):
                if not flat >> pos & 1:
                    classes[key] = classes.get(key, 0) | 1 << pos
            for cls in classes.values():
                cover = flat | cls
                if cover not in seen:
                    seen.add(cover)
                    todo.append(cover)
        ordered = sorted(seen, key=_mask_key)
        return tuple(ordered) if masks else tuple(map(self._labels, ordered))

    # -- circuits ----------------------------------------------------------

    def _dependent(self, positions: Iterable[int]) -> bool:
        basis: dict[int, int] = {}
        for pos in positions:
            if not _insert(basis, self._cols[pos]):
                return True
        return False

    def _circuits_by_sweep(self) -> tuple[int, ...]:
        """Size-ordered subset sweep; tests at most the subsets of size
        up to rank(E) + 1, since a circuit has rank one below its size.

        A subset reached by the sweep is a circuit exactly when it is
        dependent and contains no previously found circuit, because any
        dependent proper subset would contain a smaller circuit already
        recorded.
        """
        n = len(self.ground)
        max_size = self.rank_of(self.ground) + 1
        found: list[int] = []
        for size in range(1, max_size + 1):
            for combo in combinations(range(n), size):
                mask = 0
                for pos in combo:
                    mask |= 1 << pos
                if any(cm & mask == cm for cm in found):
                    continue  # contains a smaller circuit
                if self._dependent(combo):
                    found.append(mask)
        return tuple(found)

    def _cycle_basis(self) -> list[int]:
        """Position masks of n - rank cycles that span the cycle space.

        Each column carries a tag bit for its own position above the row
        bits, and all tagged columns go into one XOR basis.  An entry
        whose lowest bit is a tag bit has no row bits left, so its tags
        name columns that sum to zero: a cycle.  The tag of the column
        being inserted is above every tag already in the basis, so no
        insertion reduces to zero and each column adds one entry; the r
        independent columns add entries keyed by a row bit, and the
        other n - r entries are cycles with distinct lowest bits, hence
        independent.
        """
        shift = self.matrix.n_rows
        basis: dict[int, int] = {}
        for pos, word in enumerate(self._cols):
            _insert(basis, word | 1 << (shift + pos))
        return [word >> shift for low, word in basis.items() if low >> shift]

    def _is_circuit_support(self, mask: int) -> bool:
        """For the support S of a nonzero cycle: True iff rank(S) = |S| - 1.

        Then the cycle is the only one inside S, so no proper subset of S
        is dependent.  Inserting S column by column fails |S| - rank(S)
        times, at least once as S is dependent.
        """
        basis: dict[int, int] = {}
        dependent = False
        for pos in _bits(mask):
            if not _insert(basis, self._cols[pos]):
                if dependent:
                    return False
                dependent = True
        return True

    def _circuits_by_cycle_space(self) -> tuple[int, ...]:
        """Walk all 2^(n - rank) vectors of the cycle space and keep the
        supports that are circuits.

        The circuits of a binary matroid are exactly the minimal nonempty
        supports of its cycle space (Oxley, Matroid Theory, ch. 9), and
        each is the support of exactly one cycle.  A Gray-code order
        reaches every vector by one XOR of a basis cycle each.
        """
        cycles = self._cycle_basis()
        found: list[int] = []
        support = 0
        for i in range(1, 1 << len(cycles)):
            support ^= cycles[(i & -i).bit_length() - 1]
            if self._is_circuit_support(support):
                found.append(support)
        return tuple(sorted(found, key=_mask_key))

    def circuits(self, masks: bool = False) -> tuple:
        """All minimal dependent subsets, smallest first, then
        lexicographic by position: label sets, or position masks with
        ``masks``.

        Two strategies give the same masks: the size-ordered subset sweep
        and the cycle-space walk.  The one with fewer candidates runs,
        sum of C(n, k) for k <= rank + 1 against 2^(n - rank).  The
        enumeration cap still applies, with the same error.  The label
        view is built from the masks on its first request.
        """
        if self._circuits is None:
            self._check_enumeration_cap()
            if _cycle_walk_is_cheaper(len(self.ground), self.rank_of(self.ground)):
                self._circuits = self._circuits_by_cycle_space()
            else:
                self._circuits = self._circuits_by_sweep()
        if masks:
            return self._circuits
        if self._circuit_sets is None:
            self._circuit_sets = tuple(map(self._labels, self._circuits))
        return self._circuit_sets

"""Matroid queries driven by a GF(2) representation.

``BinaryMatroid`` answers rank, closure, circuit and flat questions from
the column space of its matrix.  It is the ground truth that every
closed-form prediction elsewhere in the package is checked against, so
each answer is computed from linear algebra alone, never from the
predictions.  Columns are ints of any width, and every elimination runs
on the kernel of ``gf2``.  From the residues of all columns modulo
span(A), one pass (``_spans``) gives the rank and the closure of A + S
for every S inside a few extra elements; ``closures_at`` runs it for
one A, and ``rank_of`` and ``closure_of`` are the label views of its
case S = {}.
``walk_closures`` answers for every A in one depth-first walk over the
sets B of non-loops: each child adds one column above its parent's, so
its residues follow from the parent's by one projection; B + L, for
each set L of loops, shares the answers of B; and a span met at several
bases has its answers computed once, kept in a memo of the walk under
the residues, which are the same at every basis.  So each span is
computed once, and a function of its answers that the caller passes is
applied once per span and carried in their place.
``fundamental_circuits`` gives the circuits of a basis of A, one
elimination with tag bits.  The two enumerations follow the size of
their answer rather than walking every subset:

* ``circuits()`` walks the cycle space of the simplification (the
  kernel of its matrix, spanned by the fundamental circuits of a basis)
  and adds the loops and parallel pairs.  The walk tests each vector's
  support S on its cotree part: the fundamental circuits summed into
  the vector, cut down to their parts outside S, must have rank one
  below their number;
* ``flats()`` climbs the lattice of flats from the loops, one cover at
  a time.

Their docstrings say why the outputs match the definitions; the tests
keep the all-subset definitions as references and compare.

Inside the module a subset is a position mask: bit i stands for the
i-th ground element.  The circuit walk finds masks, and the one
circuit cache holds masks in canonical order (first by size, then
lexicographically by position, the order of the int key
``_mask_key``).  Labels appear only at the boundary: ``rank_of``,
``closure_of`` and ``is_flat`` take label sets, and ``circuits()`` and
``flats()`` return ``frozenset`` objects of labels in that order, or
with ``masks=True`` the position masks themselves, for callers that
stay on masks.  ``closures_at`` and ``walk_closures`` take the extra
elements as positions and answer with masks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import GroundSetTooLarge, UnknownLabel
from .gf2 import GF2Matrix, _bits, _insert, _project_out, _reduce

#: Each byte value with its eight bits in reverse order.
_REVERSED_BYTES = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def _mask_key(width: int) -> Callable[[int], int]:
    """Canonical sort key of the subsets of ``width`` positions, by mask:
    size first, then the positions in lexicographic order.

    Of two subsets of one size, the one that holds the lowest position
    where they differ comes first.  With its bits reversed that position
    is the highest differing bit, so it has the larger reversed mask.
    The key is an int: the size above the complement of the reversed
    mask, which bytes reverse in C.
    """
    length = (width + 7) // 8
    shift = 8 * length
    full = (1 << shift) - 1

    def key(mask: int) -> int:
        reversed_mask = int.from_bytes(
            mask.to_bytes(length, "little").translate(_REVERSED_BYTES), "big"
        )
        return mask.bit_count() << shift | full ^ reversed_mask

    return key


def _classes(words: Iterable[int]) -> dict[int, int]:
    """Each distinct word to the mask of the positions that hold it."""
    classes: dict[int, int] = {}
    for pos, word in enumerate(words):
        classes[word] = classes.get(word, 0) | 1 << pos
    return classes


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
    classes = _classes(residues)
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
        # Every column in one pass over the set bits of each row.
        cols = [0] * len(self.ground)
        for i, row in enumerate(matrix.rows):
            bit = 1 << i
            for pos in _bits(row):
                cols[pos] |= bit
        self._cols = tuple(cols)
        self._circuits: tuple[int, ...] | None = None
        self._circuit_sets: tuple[frozenset[str], ...] | None = None

    def __repr__(self) -> str:
        return f"BinaryMatroid(ground={list(self.ground)!r})"

    # -- label plumbing -------------------------------------------------

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

    # -- rank and closure ------------------------------------------------

    def _mask(self, labels: Iterable[str]) -> int:
        """Position mask of a subset of the ground; every unknown label
        is named, sorted."""
        labels = set(labels)
        unknown = labels - self._index.keys()
        if unknown:
            raise UnknownLabel(f"labels {sorted(unknown)!r} are not ground-set elements")
        return sum(1 << self._index[lab] for lab in labels)

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
        return self.closures_at(self._mask(labels), ())[0][0]

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
        self,
        extra_positions: Sequence[int],
        width: int,
        derive: Callable[[tuple[tuple[int, int], ...]], object] | None = None,
    ) -> Iterator[tuple[int, object]]:
        """``closures_at`` for every subset A of the first ``width``
        positions, each yielded once as (mask of A, answers), or as
        (mask of A, ``derive(answers)``) when ``derive`` is given.

        The walk is depth first over the sets B of walked non-loops.  A
        child adds one non-loop position above every position of its
        parent, so it gets its residues from the parent's by one
        ``_project_out``, and when the new column already lies in the
        parent's span nothing changes: the child's answers are the
        parent's.  A walked loop is a zero column, in every span, so
        B + L has the answers of B for every set L of walked loops: after
        B the walk yields B + L for each nonempty L, in increasing order.
        Every subset is B + L for one B and one L, so each is yielded
        once.  Parents come before their children: the parent of B + L
        drops its top position, and is B + L minus a loop, yielded
        earlier in the same run, or B' + L for the parent B' of B, whose
        run comes before B is walked.  Callers must not rely on the order
        otherwise.

        So answers are computed only at the B whose top column lies
        outside the span of the rest, the independent sets of non-loops,
        and they depend on span(B) alone.  A memo local to the walk keeps
        them by the residue tuple, which names the span exactly.  Each
        residue is the member of its coset with no pivot bit, and the
        pivots are the lowest bits of the nonzero vectors of span(A):
        each pivot is the lowest bit of a residue that lies in span(A),
        the r = rank(A) pivots are distinct, and an r-dimensional space
        has exactly r such lowest bits.  So every A with the same span
        gives the same tuple.  Its zero entries are cl(A), whose columns
        span span(A), so distinct spans give distinct tuples.

        An entry is stored only when cl(A) holds more than r walked
        non-loops.  Then span(A) has two bases among the walked
        positions: a basis B of A, and B - x + y for a walked non-loop y
        in cl(A) - B and an x of B on the fundamental circuit of y.  The
        walk computes answers at both, as they are independent.  It
        stores the entry at the first node of the span that computes,
        which is at most one of the two, and reads it at the other.  So
        every stored entry saves at least one ``_spans`` call, and the
        memo never holds more entries than the calls it saves.  Any
        other span has one basis B among the walked non-loops, the only
        node that computes it, and is not stored, so a free matroid
        costs the memo nothing, with or without loops.  Hence each span
        is computed exactly once, and ``derive`` runs once per span: the
        memo stores its result, and the walk yields it, in place of the
        answers.
        """
        loops = sum(1 << pos for pos in range(width) if not self._cols[pos])
        nonloops = (1 << width) - 1 ^ loops
        memo: dict[tuple[int, ...], object] = {}
        stack = [(0, 0, list(self._cols), None)]
        while stack:
            mask, rank, residues, answers = stack.pop()
            if answers is None:
                key = tuple(residues)
                answers = memo.get(key)
                if answers is None:
                    spans = _spans(residues, rank, extra_positions)
                    answers = spans if derive is None else derive(spans)
                    if (spans[0][1] & nonloops).bit_count() > rank:
                        memo[key] = answers
            yield mask, answers
            added = 0
            while added := (added - loops) & loops:
                yield mask | added, answers
            # Highest first, so the lowest is popped next; a walked loop
            # gets no child.
            for pos in range(width - 1, mask.bit_length() - 1, -1):
                pivot = residues[pos]
                if pivot:
                    stack.append(
                        (mask | 1 << pos, rank + 1, _project_out(residues, pivot), None)
                    )
                elif nonloops >> pos & 1:
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
        residue modulo span(F), and one residue per element yields every
        cover of F at once: F is closed, so its own columns are exactly
        those with residue 0, and each nonzero residue class is the part
        of one cover outside F.  Every flat other than the
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
            for word, cls in _classes(residues).items():
                cover = flat | cls
                if word and cover not in seen:
                    seen.add(cover)
                    todo.append(cover)
        ordered = sorted(seen, key=_mask_key(len(self.ground)))
        return tuple(ordered) if masks else tuple(map(self._labels, ordered))

    # -- circuits ----------------------------------------------------------

    def fundamental_circuits(self, mask: int) -> dict[int, int]:
        """The fundamental circuits of a basis B of the subset ``mask``:
        position to circuit mask, for each position of ``mask`` outside B.

        B is taken greedily, lowest position first.  Each column carries a
        tag bit for its own position above the row bits, and the columns
        of B go into one XOR basis keyed by row bits.  A column that
        reduces to no row bits is spanned by B, and its tags name columns
        of B + z that sum to zero: a cycle through z.  B is independent,
        so B + z holds no other cycle, and a unique cycle is a circuit.
        """
        shift = self.matrix.n_rows
        basis: dict[int, int] = {}
        out: dict[int, int] = {}
        for pos in _bits(mask):
            word = _reduce(self._cols[pos] | 1 << (shift + pos), basis)
            low = word & -word
            if low >> shift:
                out[pos] = word >> shift
            else:
                basis[low] = word
        return out

    def _circuits_by_cycle_space(self) -> tuple[int, ...]:
        """Walk the 2^(m - r) vectors of the cycle space of the
        simplification, m elements of rank r, and keep the supports that
        are circuits, each swapped over the parallel classes.

        A circuit of one or two elements is a loop or a pair of equal
        nonzero columns, and one grouping of the columns by value gives
        them all.  A larger circuit holds neither, so it meets each
        parallel class at most once, and putting the lowest position of
        each class for its member keeps its columns: it is a circuit of
        the simplification ``simple``, those lowest positions.
        Conversely every choice of swaps over the classes keeps the
        columns of a circuit of ``simple``, so gives a circuit, and
        distinct choices give distinct masks.  A simplification of rank
        r has at most 2^r - 1 elements.

        The circuits of a binary matroid are exactly the minimal nonempty
        supports of its cycle space (Oxley, Matroid Theory, ch. 9), and
        each is the support of exactly one cycle.  A Gray-code order
        reaches every vector by one XOR of a basis cycle each.

        Each support S is tested on the parts of the basis cycles outside
        it.  A basis B leaves the fundamental circuits c_j = z_j + P_j,
        with z_j outside B and P_j inside it, and every cycle is the sum
        c_U of the c_j over a unique set U.  The walk keeps T, with c_T
        the current vector, next to S (``summed`` and ``support``).
        Write v_j = c_j - S.  A cycle c_U lies inside S exactly when U is
        a subset of T whose v_j sum to zero: z_j is in c_U only for j in
        U, and in S only for j in T.  So the cycles inside S form the
        kernel of U -> (sum of v_j over U) on the subsets of T, which
        holds the empty set and T.  S is a circuit, c_T being its only
        nonzero cycle, exactly when the kernel holds nothing else: when
        the v_j of T have rank |T| - 1.  Their sum is the part of c_T
        outside S, which is zero, so the highest v_j lies in the span of
        the others, and the rank is |T| - 1 exactly when the others are
        independent.  The test inserts them into a fresh basis, about
        k/2 - 1 short inserts for k = m - r, and stops at the first
        dependent one.
        """
        classes = _classes(self._cols)
        found = [1 << pos for pos in _bits(classes.pop(0, 0))]
        simple = 0
        parallel: dict[int, int] = {}  # lowest bit to class, for classes of 2+
        for cls in classes.values():
            low = cls & -cls
            simple |= low
            if cls != low:
                parallel[low] = cls
                found += [1 << p | 1 << q for p, q in combinations(_bits(cls), 2)]
        shared = sum(parallel)
        # A basis leaves m - r fundamental circuits, each with its own
        # element outside the basis, so they are independent and span the
        # (m - r)-dimensional cycle space.
        cycles = list(self.fundamental_circuits(simple).values())
        support = summed = 0
        for i in range(1, 1 << len(cycles)):
            j = (i & -i).bit_length() - 1
            support ^= cycles[j]
            summed ^= 1 << j
            rest = summed ^ 1 << summed.bit_length() - 1
            basis: dict[int, int] = {}
            while rest:
                low = rest & -rest
                rest ^= low
                if not _insert(basis, cycles[low.bit_length() - 1] & ~support):
                    break
            else:
                if support & shared:
                    swapped = [support]
                    for pos in _bits(support & shared):
                        bit = 1 << pos
                        swapped = [
                            c ^ bit | 1 << q for c in swapped for q in _bits(parallel[bit])
                        ]
                    found += swapped
                else:
                    found.append(support)
        return tuple(sorted(found, key=_mask_key(len(self.ground))))

    def circuits(self, masks: bool = False) -> tuple:
        """All minimal dependent subsets, smallest first, then
        lexicographic by position: label sets, or position masks with
        ``masks``.

        The masks come from the cycle-space walk on the simplification,
        2^(m - rank) vectors for its m elements.  The enumeration cap
        still applies, with the same error.  The label view is built
        from the masks on its first request.
        """
        if self._circuits is None:
            self._check_enumeration_cap()
            self._circuits = self._circuits_by_cycle_space()
        if masks:
            return self._circuits
        if self._circuit_sets is None:
            self._circuit_sets = tuple(map(self._labels, self._circuits))
        return self._circuit_sets

"""Command-line front end.  ``essplit --help`` prints ``_DESCRIPTION``,
the user's guide; these notes are on the code.

Output has one path.  Each ``cmd_*`` returns its exit code, its JSON
payload and its text lines, and prints nothing; ``main`` alone reads
--format and writes the one form asked for.  Text lines show the
payload's label lists, which are in split-ground order, and are
generated lazily wherever there can be many, so a JSON run does not
build them.

``check`` compares the closure and rank predictions with the oracle on
every subset A' of the split ground, or on --sample N distinct ones.
Per base part A, one elimination on the split matrix, with the extras
e, a and gamma, answers all four queries A, A+a, A+gamma and A+a+gamma
(entries 0, 2, 4 and 6) and gives the record of base facts (entries
0-3), on position masks.  gamma is col(e) + col(a), so the split
matrix without gamma is ``SplitContext.lift`` (the base plus the parity
row and the column a), column for column, and entries 0-3 are N's
answers but for the bit of gamma, which the record drops.
``cmd_check`` checks that equality before any work, so the record reads
base data only.  An exhaustive run walks the base parts depth first,
so each A costs at most one column projection, and each span's answers
and the record's span part (``_BaseFacts._span_part``) are computed
once, the walk carrying the span part with the answers in its memo
(``BinaryMatroid.walk_closures``); a sampled run queries each of its
base parts directly.  A query is (A, top), a in bit 0 of top and gamma
in bit 1.  It reads its matched cases, its closure shape and its rank
from the case plan of its key, the record's signature | top.  Each
signature's four rows, one per top (shape index, cases, rank offset,
top << n and the index of the answer in the spans), are read off its
plans once; an exhaustive run counts hits per signature, a sampled one
per key, and both become case counts at the end.  A part whose
record has cl(A) = A is a base flat, and the flat conditions of its
four lifts are checked on the same spans.  The report lists
disagreements by subset size, then position; with --sample, in draw
order, or in mask order when N covers every subset; flat violations by
base flat, then top.  JSON is rendered with one join per list or
object, byte for byte as json.dumps with indent=2.

The lists of masks in a payload (``check``'s witnesses, the circuits
of ``circuits`` and the flats of ``flats``) stay position masks until
``main`` writes them.  Each is a ``_MaskList`` of bare masks or of rows
of fields, which ``_json_text`` hands to its ``json`` method and the
text lines read directly.  The labels come from ``sorted_labels`` in
split-ground order, are escaped by the function ``json.dumps`` itself
uses, and sit at the indent ``json.dumps`` would give them, so the
bytes are those of the label lists the masks stand for.  Each call site
picks the mask renderer.  ``check`` takes ``_mask_texts``: each byte
value of a mask is joined once, and each mask once per render, as a
report repeats its masks.  ``circuits`` and ``flats`` take
``_mask_join``, one join over the texts of a mask's positions: their
lists render most masks once, so byte tables would not pay back their
cost.  A single label list, delta or a ``flats --subset`` A', is a
plain list of labels.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BaseNotFlat,
    EsSplitError,
    FormulaDisagreement,
    GroundSetTooLarge,
    ParseError,
    PreconditionViolated,
)
from .gf2 import _bits, format_matrix, parse_matrix
from .graphs import incidence_matrix, parse_graph
from .matroid import BinaryMatroid, _mask_key
from .splitting import (
    SplitContext,
    _BaseFacts,
    _plan,
    build_split_matrix,
    predict_circuits,
    predict_closure,
    predict_is_flat,
    predict_rank,
    split_matroid,
)

OK, USAGE, PRECONDITION, DISAGREEMENT = 0, 1, 2, 3

_DESCRIPTION = """\
Split a binary matroid at an element e of a set X, predict the split's
closures, ranks, circuits and flats from the base matroid alone, and
compare each prediction with a brute-force GF(2) oracle.

subcommands:
  split      print the split matrix
  closure    closure of --subset in the split (--mode formula|oracle|both)
  rank       rank of --subset in the split
  circuits   circuit family of the split
  flats      flats of the split, or whether --subset is one
  check      every prediction against the oracle, on all subsets or on
             --sample N of them (--seed S)
  demo-fig2  the bundled wheel example

labels:
  Set flags take comma-separated labels, e.g. --subset 2,6,gamma.  The
  new elements are a and gamma unless --label-a/--label-gamma say else.

input (--input FILE, UTF-8, with or without a byte-order mark):
  --kind matrix  a header line of column labels, then one line of 0/1
                 entries per row
  --kind graph   one edge per line, "label u v"; # starts a comment

Exit codes: 0 ok, 1 usage or parse failure, 2 precondition violation,
3 a formula/oracle disagreement was found.
"""


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """argparse ended the run itself, after printing --help."""

    def __init__(self, status: int):
        self.status = status


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)

    def exit(self, status: int = 0, message: str | None = None):
        if message:
            print(message, file=sys.stderr, end="")
        raise _Exit(status)


def _parse_labels(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(tok for tok in (piece.strip() for piece in text.split(",")) if tok)


def _int_at_least(minimum: int):
    """argparse type for an integer flag that must be at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _new_label(text: str) -> str:
    """argparse type for the label of a new element: the matrix header
    separates labels by whitespace and set flags by commas, so a label
    holding either, or an empty one, could not be read back."""
    if not text or "," in text or any(ch.isspace() for ch in text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a label: it must be non-empty, with no "
            "whitespace or comma"
        )
    return text


def _braces(labels: Iterable[str]) -> str:
    """A label list, already in split-ground order, as ``{a,b}``."""
    return "{" + ",".join(labels) + "}"


def _query_lines(ctx: SplitContext, a_prime: int, payload: dict) -> Iterator[str]:
    """Text of ``closure`` and ``rank``: A', given by its mask, the
    matched cases if the payload has them, then the formula, oracle and
    agree values that were computed, aligned."""
    yield f"A' = {_braces(ctx.sorted_labels(a_prime))}"
    if "matched" in payload:
        yield f"matched: {', '.join(payload['matched']) or '(none)'}"
    for key in ("formula", "oracle", "agree"):
        value = payload[key]
        if value is not None:
            yield f"{key + ':':9}{_braces(value) if type(value) is list else value}"


def _json_text(value: object, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)``.

    With an indent the standard library encodes in pure Python, one
    generator step per token; here each list and dict is one ``join``.
    Strings take the library's own C escaping, and every other value
    that is not a list, tuple or dict goes to ``json.dumps`` itself, so
    the bytes are the same.  A ``_MaskList`` renders itself from its
    masks, at the indent given, as the label lists, or the dicts of
    them, that it stands for.
    """
    if type(value) is str:
        return _encode_str(value)
    if type(value) is _MaskList:
        return value.json(indent)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [
            _encode_str(key if type(key) is str else json.dumps(key))
            + ": "
            + _json_text(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return json.dumps(value)


# Kept apart from ``main``: bench/tracing.py times it as the cli.emit_json layer.
def _emit_json(payload: dict) -> None:
    print(_json_text(payload))


def _load_context(args: argparse.Namespace) -> SplitContext:
    try:
        text = Path(args.input).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{args.input}: not valid UTF-8 (byte {exc.start}: {exc.reason})"
        ) from None
    if args.kind == "graph":
        matrix = incidence_matrix(parse_graph(text, args.input))
    else:
        matrix = parse_matrix(text, args.input)
    # Set flags split on commas, so they could never name such a label.
    for label in matrix.col_labels:
        if "," in label:
            raise ParseError(f"{args.input}: label {label!r} holds a comma")
    base = BinaryMatroid(matrix, enumeration_cap=args.cap)
    return SplitContext(
        base=base,
        x_set=frozenset(_parse_labels(args.X)),
        e=args.e,
        label_a=args.label_a,
        label_gamma=args.label_gamma,
    )


def _require_subset(args: argparse.Namespace) -> tuple[str, ...]:
    if args.subset is None:
        raise _UsageError("--subset is required for this command")
    return _parse_labels(args.subset)


# -- commands ----------------------------------------------------------------

# (exit code, JSON payload, text lines); see the module docstring.
#
# ``closure``, ``rank`` and ``flats`` check the parsed labels once with
# ``SplitContext.mask_of``, so a bad label gets the same message in every
# mode, then pass them as they are to the predictors and to the oracle,
# ``split_matroid``.
Result = tuple[int, object, Iterable[str]]


def cmd_split(args: argparse.Namespace) -> Result:
    matrix = build_split_matrix(_load_context(args))
    payload = {"col_labels": list(matrix.col_labels), "rows": matrix.entries()}
    return OK, payload, format_matrix(matrix).splitlines()


def cmd_closure(args: argparse.Namespace) -> Result:
    ctx = _load_context(args)
    labels = _require_subset(args)
    a_prime = ctx.mask_of(labels)
    report = predict_closure(ctx, labels) if args.mode in ("formula", "both") else None
    formula = None if report is None else report.formula_result
    oracle = (
        split_matroid(ctx).closure_of(labels) if args.mode in ("oracle", "both") else None
    )
    agree = None if formula is None or oracle is None else formula == oracle
    payload = {
        "matched": [] if report is None else list(report.matched_cases),
        "formula": None if formula is None else list(ctx.sort_set(formula)),
        "oracle": None if oracle is None else list(ctx.sort_set(oracle)),
        "agree": agree,
    }
    code = DISAGREEMENT if agree is False else OK
    return code, payload, _query_lines(ctx, a_prime, payload)


def cmd_rank(args: argparse.Namespace) -> Result:
    ctx = _load_context(args)
    labels = _require_subset(args)
    a_prime = ctx.mask_of(labels)
    formula = predict_rank(ctx, labels) if args.mode in ("formula", "both") else None
    oracle = (
        split_matroid(ctx).rank_of(labels) if args.mode in ("oracle", "both") else None
    )
    agree = None if formula is None or oracle is None else formula == oracle
    payload = {"formula": formula, "oracle": oracle, "agree": agree}
    code = DISAGREEMENT if agree is False else OK
    return code, payload, _query_lines(ctx, a_prime, payload)


_FAMILY_CLASSES = ("c0", "c1", "c2", "c3")


def cmd_circuits(args: argparse.Namespace) -> Result:
    # The family and the oracle's circuits stay position masks over the
    # split ground, the split matrix's column order, until rendered.
    ctx = _load_context(args)
    payload: dict = {}
    if args.mode in ("formula", "both"):
        family = predict_circuits(ctx)
        payload["family"] = {
            name: _MaskList(ctx, masks, _mask_join)
            for name, masks in zip(_FAMILY_CLASSES, family.classes)
        }
        payload["family"]["delta"] = ctx.sorted_labels(family.delta_mask)
    if args.mode in ("oracle", "both"):
        oracle = split_matroid(ctx).circuits(masks=True)
        payload["oracle"] = _MaskList(ctx, oracle, _mask_join)
    payload["equal"] = (
        set(family.minimal) == set(oracle) if args.mode == "both" else None
    )
    code = DISAGREEMENT if payload["equal"] is False else OK
    return code, payload, _circuit_lines(ctx, payload)


def _circuit_lines(ctx: SplitContext, payload: dict) -> Iterator[str]:
    braces = _mask_join(ctx, str, "{", "}", "{}")
    family = payload.get("family")
    if family is not None:
        for name in _FAMILY_CLASSES:
            for c in family[name]:
                yield f"{name}: {braces(c)}"
        yield f"delta: {_braces(family['delta'])}"
    for c in payload.get("oracle", ()):
        yield f"oracle: {braces(c)}"
    if payload["equal"] is not None:
        yield f"equal: {payload['equal']}"


def cmd_flats(args: argparse.Namespace) -> Result:
    ctx = _load_context(args)
    oracle = split_matroid(ctx)
    predict = args.mode != "oracle"

    if args.subset is not None:
        labels = _parse_labels(args.subset)
        subset = ctx.sorted_labels(ctx.mask_of(labels))
        is_flat = oracle.is_flat(labels)
        condition = None
        if predict:
            try:
                condition = predict_is_flat(ctx, labels)
            except BaseNotFlat:
                pass
        payload = {"subset": subset, "is_flat": is_flat, "condition": condition}
        line = f"{_braces(subset)} flat={is_flat} condition={condition}"
        code = DISAGREEMENT if condition is not None and not is_flat else OK
        return code, payload, (line,)
    # The split's flats first, so an oversized input meets the split's cap.
    flats = oracle.flats(masks=True)
    # One record per base flat serves F, F+a, F+gamma and F+a+gamma; a
    # split flat whose base part is no base flat gets no condition.
    records = (
        {part: _BaseFacts.at(ctx, part) for part in ctx.base.flats(masks=True)}
        if predict
        else {}
    )

    def condition_of(flat: int) -> int | None:
        facts = records.get(flat & (ctx.a_bit - 1))
        if facts is None:
            return None
        return facts.plan(flat >> len(ctx.base.ground)).flat

    # The split matrix's columns are the split-ground positions.
    fields = (("flat", True), ("condition", False))
    rows = _MaskList(ctx, zip(flats, map(condition_of, flats)), _mask_join, fields)
    braces = _mask_join(ctx, str, "{", "}", "{}")
    lines = (f"{braces(flat)} condition={condition}" for flat, condition in rows)
    return OK, {"flats": rows}, lines


def _check_plan(
    ctx: SplitContext, oracle: BinaryMatroid, sample: int | None, seed: int
) -> tuple[dict[int, list[int]] | None, Callable[[int], object]]:
    """The subsets ``check`` visits, grouped by base part, and their
    order in the report.

    A subset is a mask over the split ground: its low n bits are the
    base part A, bit n is a and bit n + 1 is gamma.  The groups map a
    base mask to the values of the two top bits to visit with it, and
    include every base flat, with no top if none was drawn; None stands
    for every base part with all four.  The key sorts masks into report
    order: by the oracle's subset order (size, then positions) when
    exhaustive, by mask when ``sample`` covers all 2^(n+2) subsets, and
    else by first draw, repeated draws being redrawn.

    Every cap the run will hit is tested here, before any work: the
    exhaustive cap on the split ground, then the enumeration caps of the
    base and the split circuits and the all-subset cap of the base
    flats.  The exhaustive error suggests --sample N only when a sampled
    run passes the other caps.
    """
    n = len(ctx.base.ground)
    total = 1 << n + 2
    later: GroundSetTooLarge | None = None
    try:
        ctx.base._check_enumeration_cap()
        oracle._check_enumeration_cap()
        ctx.base._check_subset_cap()
    except GroundSetTooLarge as exc:
        later = exc
    if sample is None and n + 2 > BinaryMatroid.SUBSET_CAP:
        raise GroundSetTooLarge(
            f"{n + 2} split elements exceed the exhaustive cap of "
            f"{BinaryMatroid.SUBSET_CAP}" + ("" if later else "; rerun with --sample N")
        )
    if later:
        raise later
    if sample is None or sample >= total:
        return None, _mask_key(n + 2) if sample is None else int
    rng = random.Random(seed)
    drawn: dict[int, int] = {}
    while len(drawn) < sample:
        drawn.setdefault(rng.randrange(total), len(drawn))
    groups: dict[int, list[int]] = {}
    for mask in drawn:
        groups.setdefault(mask & (1 << n) - 1, []).append(mask >> n)
    for flat in ctx.base.flats(masks=True):
        groups.setdefault(flat, [])
    return groups, drawn.__getitem__


def cmd_check(args: argparse.Namespace) -> Result:
    ctx = _load_context(args)
    oracle = split_matroid(ctx)
    n = len(ctx.base.ground)
    # The split matrix without gamma must be N column for column, so that
    # the records read from its spans stay base-only.
    if oracle._cols[: n + 1] != ctx.lift._cols:
        raise PreconditionViolated(
            "the split matrix without gamma is not the base matrix plus "
            "the parity row and a"
        )
    # The extras e, a and gamma: entries 0-3 of the spans are N's, plus
    # the bit of gamma, and entries 0, 2, 4 and 6 answer A, A+a, A+gamma
    # and A+a+gamma.
    extras = (*ctx.lift_extras, n + 1)

    signature_rows: dict[int, list[tuple]] = {}
    signature_hits: dict[int, int] = {}
    plan_hits: dict[int, int] = {}
    closure_found: list[tuple[int, tuple[str, ...], int, int]] = []
    rank_found: list[tuple[int, int, int]] = []
    flat_found: list[tuple[int, int]] = []

    # Per base part A, the facts record and the oracle spans answer the
    # queries (A, top), all on position masks.  A query's plan key is
    # the record's signature | top; the plan gives the matched cases,
    # the shape of the closure, the rank offset and the flat condition.
    # Each signature's rows, one per top, are read off its plans once.
    # Hits are counted per signature in an exhaustive run, else per key,
    # and expanded into cases at the end.  The witnesses stay masks,
    # sorted into report order; only their rendering reads labels.
    groups, order = _check_plan(ctx, oracle, args.sample, args.seed)

    # A span's answers with the record's span part, which the walk
    # derives once per span.
    def derive(spans: tuple[tuple[int, int], ...]) -> tuple:
        return spans, _BaseFacts._span_part(ctx, spans)

    if groups is None:
        parts = oracle.walk_closures(extras, n, derive)
    else:
        parts = ((part, derive(oracle.closures_at(part, extras))) for part in groups)
    for base, (spans, span) in parts:
        facts = _BaseFacts(ctx, base, span)
        signature, shapes = facts.signature, facts.table_shapes
        rows = signature_rows.get(signature)
        if rows is None:
            # (shape index, cases, rank offset, top << n, answer index)
            plans = [_plan(signature | top) for top in range(4)]
            rows = signature_rows[signature] = [
                (plan.table.shape, plan.table, plan.rank, top << n, top << 1)
                for top, plan in enumerate(plans)
            ]
        if groups is None:
            signature_hits[signature] = signature_hits.get(signature, 0) + 1
        else:
            tops = groups[base]
            rows = [rows[top] for top in tops]
            for top in tops:
                plan_hits[signature | top] = plan_hits.get(signature | top, 0) + 1
        for shape, cases, rank_offset, high, answer in rows:
            formula = shapes[shape] if shape is not None else facts.closure(cases, shapes)
            oracle_rank, oracle_closure = spans[answer]
            if formula is not None and formula != oracle_closure:
                closure_found.append((base | high, cases.ids, formula, oracle_closure))
            formula_rank = facts.rank + rank_offset
            if formula_rank != oracle_rank:
                rank_found.append((base | high, formula_rank, oracle_rank))
        if facts.cl == base:
            # A base flat F: F + top under each flat condition.
            for top in range(4):
                condition = facts.plan(top).flat
                a_prime = base | top << n
                if condition is not None and spans[top << 1][1] != a_prime:
                    flat_found.append((a_prime, condition))

    for signature, hits in signature_hits.items():
        for top in range(4):
            plan_hits[signature | top] = hits
    case_hits: dict[str, int] = {}
    no_case = 0
    for key, hits in plan_hits.items():
        matched = _plan(key).table.ids
        if not matched:
            no_case += hits
        for case_id in matched:
            case_hits[case_id] = case_hits.get(case_id, 0) + hits

    family_equal = set(predict_circuits(ctx).minimal) == set(oracle.circuits(masks=True))
    corollary_ok = oracle.rank_of(oracle.ground) == ctx.base.rank_of(ctx.base.ground) + 1

    def in_order(found: list[tuple]) -> list[tuple]:
        return sorted(found, key=lambda w: order(w[0]))

    flat_key = _mask_key(n)
    flat_found.sort(key=lambda w: (flat_key(w[0] & ctx.a_bit - 1), w[0] >> n))
    closure_witnesses = _MaskList(
        ctx, in_order(closure_found), _mask_texts, _CLOSURE_FIELDS
    )
    rank_witnesses = _MaskList(ctx, in_order(rank_found), _mask_texts, _RANK_FIELDS)
    flat_violations = _MaskList(ctx, flat_found, _mask_texts, _FLAT_FIELDS)
    disagreements = (
        len(closure_witnesses)
        + len(rank_witnesses)
        + len(flat_violations)
        + (0 if family_equal else 1)
        + (0 if corollary_ok else 1)
    )
    summary = {
        "subsets": sum(plan_hits.values()),
        "case_hits": {cid: case_hits.get(cid, 0) for cid in sorted(case_hits)},
        "no_case": no_case,
        "closure_disagreements": closure_witnesses,
        "rank_disagreements": rank_witnesses,
        "circuit_family_equal": family_equal,
        "full_rank_increment_ok": corollary_ok,
        "flat_condition_violations": flat_violations,
        "disagreements": disagreements,
    }
    return DISAGREEMENT if disagreements else OK, summary, _check_lines(ctx, summary)


# The fields of each kind of witness, each with whether it holds a
# position mask; the others hold their JSON values.
_CLOSURE_FIELDS = (
    ("subset", True), ("matched", False), ("formula", True), ("oracle", True)
)
_RANK_FIELDS = (("subset", True), ("formula", False), ("oracle", False))
_FLAT_FIELDS = (("subset", True), ("condition", False))


class _MaskList(list):
    """Position masks of a payload, standing for the list of their label
    lists in split-ground order; with ``fields``, rows of one entry per
    field, standing for the list of dicts from the field names to the
    entries, each mask as its label list.  ``render`` renders the masks:
    ``_mask_texts`` or ``_mask_join`` (see the module docstring).
    """

    def __init__(self, ctx: SplitContext, rows: Iterable, render: Callable, fields=()):
        super().__init__(rows)
        self.ctx = ctx
        self.render = render
        self.fields = fields

    def json(self, indent: str) -> str:
        """The text of the list at ``indent``, one join per row.

        Each label is escaped once, with the indent of a label-list item
        in front, and each other value is rendered once per call.
        """
        if not self:
            return "[]"
        item = indent + "  "
        inner = item + "  " if self.fields else item
        label_list = self.render(
            self.ctx, lambda lab: inner + "  " + _encode_str(lab), "[", inner + "]", "[]"
        )
        if not self.fields:
            return "[" + item + ("," + item).join(map(label_list, self)) + indent + "]"

        @cache
        def plain(value: object) -> str:
            return _json_text(value, inner)

        # One %s per field; each column of fields is rendered in one pass.
        template = (
            "{"
            + ",".join(inner + _encode_str(key) + ": %s" for key, _ in self.fields)
            + item
            + "}"
        )
        columns = [
            map(label_list if is_mask else plain, column)
            for (_, is_mask), column in zip(self.fields, zip(*self))
        ]
        rows = map(template.__mod__, zip(*columns))
        return "[" + item + ("," + item).join(rows) + indent + "]"


def _mask_texts(
    ctx: SplitContext, text: Callable[[str], str], opening: str, closing: str, empty: str
) -> Callable[[int], str]:
    """A renderer of position masks, memoised per mask: ``empty`` for
    the empty set, else ``opening``, the ``text`` of each label in
    split-ground order joined by commas, and ``closing``.

    ``text`` is called once per label.  Masks become labels through
    ``SplitContext.sorted_labels`` alone, one byte of the mask at a
    time: the text of each value of each byte is joined once, so a mask
    costs one join of a string per byte.
    """
    texts = {lab: "," + text(lab) for lab in ctx.split_ground}
    width = len(ctx.split_ground)
    tables = [
        (
            shift,
            [
                "".join([texts[lab] for lab in ctx.sorted_labels(byte << shift)])
                for byte in range(1 << min(8, width - shift))
            ],
        )
        for shift in range(0, width, 8)
    ]

    @cache
    def render(mask: int) -> str:
        if not mask:
            return empty
        joined = "".join([table[mask >> shift & 255] for shift, table in tables])
        return opening + joined[1:] + closing

    return render


def _mask_join(
    ctx: SplitContext, text: Callable[[str], str], opening: str, closing: str, empty: str
) -> Callable[[int], str]:
    """A renderer of position masks: ``empty`` for the empty set, else
    ``opening``, the ``text`` of each label in split-ground order joined
    by commas, and ``closing``.

    ``text`` is called once per label of the split ground, and a mask
    costs one join over the texts of its positions; unlike
    ``_mask_texts`` it keeps no tables (see the module docstring).
    """
    texts = [text(lab) for lab in ctx.split_ground]

    def render(mask: int) -> str:
        if not mask:
            return empty
        return opening + ",".join([texts[pos] for pos in _bits(mask)]) + closing

    return render


def _check_lines(ctx: SplitContext, summary: dict) -> Iterator[str]:
    braces = _mask_texts(ctx, str, "{", "}", "{}")
    yield f"subsets checked: {summary['subsets']}"
    for cid, hits in summary["case_hits"].items():
        yield f"  case {cid}: {hits}"
    yield f"no case applies: {summary['no_case']}"
    rank_witnesses = summary["rank_disagreements"]
    yield f"rank disagreements: {len(rank_witnesses)}"
    for mask, formula, oracle_rank in rank_witnesses:
        yield (
            f"  rank mismatch at {braces(mask)}: "
            f"formula {formula} vs oracle {oracle_rank}"
        )
    closure_witnesses = summary["closure_disagreements"]
    yield f"closure disagreements: {len(closure_witnesses)}"
    for mask, matched, formula, oracle_closure in closure_witnesses:
        yield (
            f"  closure mismatch at {braces(mask)} "
            f"(matched {', '.join(matched)}): formula "
            f"{braces(formula)} vs oracle {braces(oracle_closure)}"
        )
    yield f"circuit family equal: {summary['circuit_family_equal']}"
    yield f"full-rank increment ok: {summary['full_rank_increment_ok']}"
    flat_violations = summary["flat_condition_violations"]
    yield f"flat condition violations: {len(flat_violations)}"
    for mask, condition in flat_violations:
        yield f"  condition {condition} accepted non-flat {braces(mask)}"


def cmd_demo_fig2(args: argparse.Namespace) -> Result:
    return OK, None, _demo_lines()


def _demo_lines() -> Iterator[str]:
    # Only this command reads the bundled example, so the other commands
    # do not load it at start-up.
    from .showcase import (
        BASE_FLATS_LISTED,
        CLOSURE_GOLDENS,
        SPLIT_FLATS_LISTED,
        showcase_context,
    )

    ctx = showcase_context()
    oracle = split_matroid(ctx)

    def fmt(labels: Iterable[str]) -> str:
        return _braces(ctx.sort_set(labels))

    yield "showcase: wheel graph, X={x,y}, e=y"
    yield f"base rank: {ctx.base.rank_of(ctx.base.ground)}"
    yield f"split rank: {oracle.rank_of(oracle.ground)}"
    yield ""
    yield "closure queries:"
    for query, listed in CLOSURE_GOLDENS:
        report = predict_closure(ctx, query)
        computed = oracle.closure_of(query)
        formula = report.formula_result
        line = f"cl'({fmt(query)}) = {fmt(computed)}"
        notes = []
        if frozenset(listed) != computed:
            notes.append(f"listed value {fmt(listed)} rejected by oracle")
        if formula is not None and formula != computed:
            notes.append(
                f"formula ({', '.join(report.matched_cases)}) gives {fmt(formula)}"
            )
        if notes:
            line += "  [" + "; ".join(notes) + "]"
        yield line

    for name, matroid, listed in (
        ("base matroid", ctx.base, BASE_FLATS_LISTED),
        ("split matroid", oracle, SPLIT_FLATS_LISTED),
    ):
        yield ""
        yield f"{name}: {len(listed)} listed flats"
        rejected = [entry for entry in listed if not matroid.is_flat(entry)]
        yield f"confirmed: {len(listed) - len(rejected)}"
        for entry in rejected:
            yield f"rejected: {fmt(entry)} (closure is {fmt(matroid.closure_of(entry))})"
        listed_sets = {frozenset(entry) for entry in listed}
        flats = [flat for flat in matroid.flats() if flat]
        extras = [flat for flat in flats if flat not in listed_sets]
        yield (
            f"full oracle flat list ({len(flats)}, empty flat omitted; "
            f"{len(extras)} absent from the listed data):"
        )
        for flat in flats:
            marker = "" if flat in listed_sets else "  [unlisted]"
            yield f"  {fmt(flat)}{marker}"


# -- wiring -------------------------------------------------------------------


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="matrix or graph file")
    sub.add_argument("--kind", choices=("matrix", "graph"), default="matrix")
    sub.add_argument("--X", required=True, help="comma-separated labels of X")
    sub.add_argument("--e", required=True, help="marked element of X")
    sub.add_argument("--label-a", type=_new_label, default="a", dest="label_a")
    sub.add_argument(
        "--label-gamma", type=_new_label, default="gamma", dest="label_gamma"
    )
    sub.add_argument("--cap", type=_int_at_least(0), default=BinaryMatroid.DEFAULT_CAP)
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="essplit",
        description=_DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, func, needs_subset in (
        ("split", cmd_split, False),
        ("closure", cmd_closure, True),
        ("rank", cmd_rank, True),
        ("circuits", cmd_circuits, False),
        ("flats", cmd_flats, False),
    ):
        sub = subparsers.add_parser(name)
        _add_instance_flags(sub)
        if name != "split":
            sub.add_argument("--mode", choices=("formula", "oracle", "both"), default="both")
        if needs_subset or name == "flats":
            sub.add_argument("--subset", default=None, help="comma-separated labels of A'")
        sub.set_defaults(func=func)

    check = subparsers.add_parser("check")
    _add_instance_flags(check)
    check.add_argument("--sample", type=_int_at_least(1), default=None, metavar="N")
    check.add_argument("--seed", type=int, default=0, metavar="S")
    check.set_defaults(func=cmd_check)

    demo = subparsers.add_parser("demo-fig2")
    demo.set_defaults(func=cmd_demo_fig2, format="text")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, payload, lines = args.func(args)
        if args.format == "json":
            _emit_json(payload)
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
        return code
    except _Exit as exc:
        sys.stdout.flush()
        return exc.status
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    except BrokenPipeError:
        # The reader of stdout has gone, which is not worth a message.
        # Later writes, the flush at exit among them, go to the null
        # device, so the pipe cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except FormulaDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DISAGREEMENT
    except EsSplitError as exc:
        # A bad label, a cap exceeded or another broken precondition.
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

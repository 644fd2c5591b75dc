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
in bit 1, answered by entry top << 1 of the spans.  It reads its
closure shape, its matched cases and its rank from the plan of its top,
one of the four plans of the record's signature
(``splitting._plans``), the same tuples the predictors read.  One loop
serves every run mode: a part answers the tops it visits, all four
unless a sample left some out, and a part whose record has cl(A) = A
is a base flat, whose four lifts are checked under their flat
conditions on the same spans.  Visits are counted per signature and
tops, and one pass over the counts gives the case tally from the
plans.  The run mode picks only which queries are checked: every list
of witnesses is sorted by one key, subset size, then positions
(``_mask_key``), so a sample that covers every subset prints the
exhaustive report and a smaller one lists a sub-sequence of its rows.
JSON is rendered into one list of pieces and joined once per document,
byte for byte as json.dumps with indent=2 (``_json_parts``).

The lists of masks in a payload (``check``'s witnesses, the circuits
of ``circuits`` and the flats of ``flats``) stay position masks until
``main`` writes them.  Each is a ``_MaskList`` of bare masks or of rows
of fields, which appends its own pieces (``_MaskList.json_parts``) and
the text lines read directly.  The labels are those of a mask's
positions, in split-ground order as ``sorted_labels`` gives them, are
escaped by the function ``json.dumps`` itself uses, and sit at the
indent ``json.dumps`` would give them, so the bytes are those of the
label lists the masks stand for.  Each call site picks the mask
renderer.  ``check`` takes ``_mask_texts``: a table per
byte of the split ground, built by doubling, gives the text of each
byte value, and each mask is joined once per render, as a report
repeats its masks.  ``circuits`` and ``flats`` take
``_mask_join``, one join over the texts of a mask's positions: their
lists render most masks once, so byte tables would not pay back their
cost.  A single label list, delta or a ``flats --subset`` A', is a
plain list of labels.

Each ``main`` call builds its own parser, so nothing of one call
outlives it, and reads each command's ``func`` from the module: a
``cmd_*`` wrapped or patched between calls is the one that runs.
``build_parser`` makes the top-level parser and a table of the commands
(``_Commands``), whose names the usage, ``--help`` and the "invalid
choice" error list; a command's parser is built, with its flags
(``_add_instance_flags`` and its own), when argparse looks its name up,
and argparse looks up only the command it dispatches to.  So a call
builds two parsers, and ``--help``, no command or an unknown one builds
the top-level parser alone.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import cache, partial
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
    _plans,
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


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting."""

    def error(self, message: str):
        raise _UsageError(message)


class _Commands(dict):
    """Each command's name, in the order of the usage, to its
    ``add_flags``, which the first lookup of the name replaces with the
    command's parser, built with its flags.  argparse 3.10-3.13 keeps a
    subparsers action's choices in one dict: it tests and lists the
    names with ``in`` and iteration, and reads ``[name]`` only in
    ``__call__``, for the command it dispatches to."""

    def __getitem__(self, name: str) -> _Parser:
        parser = super().__getitem__(name)
        if not isinstance(parser, _Parser):
            add_flags, parser = parser, _Parser(prog=f"essplit {name}")
            add_flags(parser)
            self[name] = parser
        return parser


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
    matched cases if they were evaluated, then the formula, oracle and
    agree values that were computed, aligned."""
    yield f"A' = {_braces(ctx.sorted_labels(a_prime))}"
    matched = payload.get("matched")
    if matched is not None:
        yield f"matched: {', '.join(matched) or '(none)'}"
    for key in ("formula", "oracle", "agree"):
        value = payload[key]
        if value is not None:
            yield f"{key + ':':9}{_braces(value) if type(value) is list else value}"


def _json_parts(value: object, indent: str, out: list[str]) -> None:
    """Append the pieces of the text of ``json.dumps(value, indent=2)``,
    at ``indent``, to ``out``.

    With an indent the standard library encodes in pure Python, one
    generator step per token; here a whole document is one list of
    pieces, joined once, so no list or dict is copied into a text of its
    own.  Strings take the library's own C escaping, and every other
    value that is not a list, tuple or dict goes to ``json.dumps``
    itself, so the bytes are the same.  A ``_MaskList`` appends its own
    pieces from its masks, at the indent given, as the label lists, or
    the dicts of them, that it stands for.
    """
    if type(value) is str:
        out.append(_encode_str(value))
    elif type(value) is _MaskList:
        value.json_parts(indent, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _json_parts(item, inner, out)
            separator = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key, item in value.items():
            key = _encode_str(key if type(key) is str else json.dumps(key))
            out.append(separator + key + ": ")
            _json_parts(item, inner, out)
            separator = "," + inner
        out.append(indent + "}")
    else:
        out.append(json.dumps(value))


def _json_text(value: object, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)``: the one join of its
    pieces (``_json_parts``)."""
    out: list[str] = []
    _json_parts(value, indent, out)
    return "".join(out)


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
    labels = _parse_labels(args.subset)
    a_prime = ctx.mask_of(labels)
    report = predict_closure(ctx, labels) if args.mode in ("formula", "both") else None
    formula = None if report is None else report.formula_result
    oracle = (
        split_matroid(ctx).closure_of(labels) if args.mode in ("oracle", "both") else None
    )
    agree = None if formula is None or oracle is None else formula == oracle
    payload = {
        "matched": None if report is None else list(report.matched_cases),
        "formula": None if formula is None else list(ctx.sort_set(formula)),
        "oracle": None if oracle is None else list(ctx.sort_set(oracle)),
        "agree": agree,
    }
    code = DISAGREEMENT if agree is False else OK
    return code, payload, _query_lines(ctx, a_prime, payload)


def cmd_rank(args: argparse.Namespace) -> Result:
    ctx = _load_context(args)
    labels = _parse_labels(args.subset)
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
    # A route not taken leaves its field out: ``is_flat`` (text
    # ``flat=``) without the oracle, ``condition`` without the formula,
    # whose null means that no sufficient condition holds.
    ctx = _load_context(args)
    if args.subset is not None:
        labels = _parse_labels(args.subset)
        subset = ctx.sorted_labels(ctx.mask_of(labels))
        payload: dict = {"subset": subset}
        line = _braces(subset)
        if args.mode != "formula":
            payload["is_flat"] = split_matroid(ctx).is_flat(labels)
            line += f" flat={payload['is_flat']}"
        if args.mode != "oracle":
            try:
                payload["condition"] = predict_is_flat(ctx, labels)
            except BaseNotFlat:
                payload["condition"] = None
            line += f" condition={payload['condition']}"
        violated = payload.get("condition") is not None and payload.get("is_flat") is False
        return DISAGREEMENT if violated else OK, payload, (line,)
    # The listing is the split's flats in every mode, enumerated first, so
    # an oversized input meets the split's cap.  The split matrix's
    # columns are the split-ground positions.
    flats = split_matroid(ctx).flats(masks=True)
    braces = _mask_join(ctx, str, "{", "}", "{}")
    if args.mode == "oracle":
        rows = _MaskList(ctx, zip(flats), _mask_join, (("flat", True),))
        return OK, {"flats": rows}, map(braces, flats)
    # One record per base flat F gives the conditions of F, F+a, F+gamma
    # and F+a+gamma; a split flat whose base part is no base flat gets no
    # condition.
    n = len(ctx.base.ground)
    conditions: dict[int, int | None] = {}
    for part in ctx.base.flats(masks=True):
        signature = _BaseFacts.at(ctx, part).signature
        for top, (_, _, _, condition, _) in enumerate(_plans(signature)):
            conditions[part | top << n] = condition

    fields = (("flat", True), ("condition", False))
    rows = _MaskList(ctx, zip(flats, map(conditions.get, flats)), _mask_join, fields)
    lines = (f"{braces(flat)} condition={condition}" for flat, condition in rows)
    return OK, {"flats": rows}, lines


def _check_plan(
    ctx: SplitContext, oracle: BinaryMatroid, sample: int | None, seed: int
) -> dict[int, tuple[int, ...]]:
    """The subsets ``check`` visits, grouped by base part.

    A subset is a mask over the split ground: its low n bits are the
    base part A, bit n is a and bit n + 1 is gamma.  The groups map a
    base mask to the values of the two top bits to visit with it, in
    first-draw order, repeated draws being redrawn, and include every
    base flat, with no top if none was drawn; they are empty when every
    base part is visited with all four, exhaustively or by a ``sample``
    of all 2^(n+2) subsets.  The order of the visits does not reach the
    report, which sorts its witnesses.

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
        return {}
    rng = random.Random(seed)
    drawn: dict[int, None] = {}
    while len(drawn) < sample:
        drawn[rng.randrange(total)] = None
    groups: dict[int, tuple[int, ...]] = {}
    for mask in drawn:
        base = mask & (1 << n) - 1
        groups[base] = groups.get(base, ()) + (mask >> n,)
    for flat in ctx.base.flats(masks=True):
        groups.setdefault(flat, ())
    return groups


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

    visits: dict[tuple[int, tuple[int, ...]], int] = {}
    closure_found: list[tuple[int, tuple[str, ...], int, int]] = []
    rank_found: list[tuple[int, int, int]] = []
    flat_found: list[tuple[int, int]] = []

    # Per base part A, the facts record and the oracle spans answer the
    # queries (A, top), all on position masks.  The record's signature
    # has four plans, one per top (``_plans``), each giving the shape
    # of the closure, the matched cases, the rank offset and the flat
    # condition.  They serve the queries of the tops visited, the flat
    # conditions of all four lifts and the case tally, which counts
    # visits per signature and tops.  The witnesses stay masks, sorted
    # into report order; only their rendering reads labels.
    groups = _check_plan(ctx, oracle, args.sample, args.seed)

    # A span's answers with the record's span part, which the walk
    # derives once per span.
    def derive(spans: tuple[tuple[int, int], ...]) -> tuple:
        return spans, _BaseFacts._span_part(ctx, spans)

    if groups:
        # No walk memo here: the span part reads only the first four
        # answers, so the parts that share them share it.
        span_parts: dict[tuple, tuple] = {}

        def sampled(part: int) -> tuple:
            spans = oracle.closures_at(part, extras)
            span = span_parts.get(spans[:4])
            if span is None:
                span = span_parts[spans[:4]] = _BaseFacts._span_part(ctx, spans)
            return part, (spans, span)

        parts = map(sampled, groups)
    else:
        parts = oracle.walk_closures(extras, n, derive)
    for base, (spans, span) in parts:
        facts = _BaseFacts(ctx, base, span)
        signature, shapes = facts.signature, facts.shapes
        plans = _plans(signature)
        tops = groups.get(base, (0, 1, 2, 3))
        visits[signature, tops] = visits.get((signature, tops), 0) + 1
        for top in tops:
            shape, cases, rank_offset, _, _ = plans[top]
            formula = shapes[shape] if shape is not None else facts.closure(cases)
            oracle_rank, oracle_closure = spans[top << 1]
            if formula is not None and formula != oracle_closure:
                closure_found.append((base | top << n, cases.ids, formula, oracle_closure))
            formula_rank = facts.rank + rank_offset
            if formula_rank != oracle_rank:
                rank_found.append((base | top << n, formula_rank, oracle_rank))
        if facts.cl == base:
            # A base flat F: F + top under each flat condition.
            for top, (_, _, _, condition, _) in enumerate(plans):
                lift = base | top << n
                if condition is not None and spans[top << 1][1] != lift:
                    flat_found.append((lift, condition))

    subsets = no_case = 0
    case_hits: dict[str, int] = {}
    for (signature, tops), hits in visits.items():
        plans = _plans(signature)
        for top in tops:
            _, cases, _, _, _ = plans[top]
            subsets += hits
            if not cases.ids:
                no_case += hits
            for case_id in cases.ids:
                case_hits[case_id] = case_hits.get(case_id, 0) + hits

    family_equal = set(predict_circuits(ctx).minimal) == set(oracle.circuits(masks=True))
    corollary_ok = oracle.rank_of(oracle.ground) == ctx.base.rank_of(ctx.base.ground) + 1

    # Report order, in every run mode: size, then positions.
    key = _mask_key(n + 2)
    for found in (closure_found, rank_found, flat_found):
        found.sort(key=lambda w: key(w[0]))
    closure_witnesses = _MaskList(ctx, closure_found, _mask_texts, _CLOSURE_FIELDS)
    rank_witnesses = _MaskList(ctx, rank_found, _mask_texts, _RANK_FIELDS)
    flat_violations = _MaskList(ctx, flat_found, _mask_texts, _FLAT_FIELDS)
    disagreements = (
        len(closure_witnesses)
        + len(rank_witnesses)
        + len(flat_violations)
        + (0 if family_equal else 1)
        + (0 if corollary_ok else 1)
    )
    summary = {
        "subsets": subsets,
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
    ``_mask_texts`` or ``_mask_join`` (see the module docstring).  The
    list renders into the pieces of the document that holds it, one
    piece per row, which only the document's join copies.
    """

    def __init__(self, ctx: SplitContext, rows: Iterable, render: Callable, fields=()):
        super().__init__(rows)
        self.ctx = ctx
        self.render = render
        self.fields = fields

    def json_parts(self, indent: str, out: list[str]) -> None:
        """Append the pieces of the list's text at ``indent`` to ``out``
        (see ``_json_parts``), one per row, each with the comma and
        indent in front of it; ``map`` renders the rows and ``extend``
        appends them, with no Python step per row.

        Each label is escaped once, with the indent of a label-list item
        in front, and each other value once if all of its column is hashable.
        """
        if not self:
            out.append("[]")
            return
        item = indent + "  "
        separator = "," + item
        inner = item + "  " if self.fields else item
        # A bare mask is a row, so its text takes the row's separator.
        front = "" if self.fields else separator
        label_list = self.render(
            self.ctx, lambda lab: inner + "  " + _encode_str(lab),
            front + "[", inner + "]", front + "[]",
        )
        if not self.fields:
            rows = map(label_list, self)
        else:
            @cache
            def plain(value: object) -> str:
                return _json_text(value, inner)

            def plain_column(column: tuple) -> Iterable[str]:
                try:
                    return list(map(plain, column))
                except TypeError:  # unhashable, as a list or a dict is
                    return map(plain.__wrapped__, column)

            # One %s per field; each column of fields is rendered in one pass.
            template = (
                separator
                + "{"
                + ",".join(inner + _encode_str(key) + ": %s" for key, _ in self.fields)
                + item
                + "}"
            )
            columns = [
                map(label_list, column) if is_mask else plain_column(column)
                for (_, is_mask), column in zip(self.fields, zip(*self))
            ]
            rows = map(template.__mod__, zip(*columns))
        first = len(out)
        out.extend(rows)
        # The first row opens the list in place of its comma.
        out[first] = "[" + out[first][1:]
        out.append(indent + "]")


def _mask_texts(
    ctx: SplitContext, text: Callable[[str], str], opening: str, closing: str, empty: str
) -> Callable[[int], str]:
    """A renderer of position masks, memoised per mask: ``empty`` for
    the empty set, else ``opening``, the ``text`` of each label in
    split-ground order joined by commas, and ``closing``.

    ``text`` is called once per label.  A mask is read one byte at a
    time, from a table per byte of the split ground, of the comma and
    text of each label of each byte value, in position order, the order
    of ``SplitContext.sorted_labels``.  Each table is built by doubling:
    the entries of the values with a new highest bit are those before
    them with that bit's label appended, one concatenation per entry.  A
    mask costs one lookup per byte and one join.
    """
    texts = ["," + text(lab) for lab in ctx.split_ground]
    tables = []
    for shift in range(0, len(texts), 8):
        table = [""]
        for label_text in texts[shift : shift + 8]:
            table += [entry + label_text for entry in table]
        tables.append(table)
    nbytes = len(tables)

    @cache
    def render(mask: int) -> str:
        if not mask:
            return empty
        joined = "".join(map(list.__getitem__, tables, mask.to_bytes(nbytes, "little")))
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


def _add_query_flags(sub: argparse.ArgumentParser, func, mode: bool, subset: bool | None) -> None:
    """The flags of an instance command; --subset is required (True),
    optional (False) or not taken (None)."""
    _add_instance_flags(sub)
    if mode:
        sub.add_argument("--mode", choices=("formula", "oracle", "both"), default="both")
    if subset is not None:
        sub.add_argument("--subset", required=subset, help="comma-separated labels of A'")
    sub.set_defaults(func=func)


def _add_check_flags(sub: argparse.ArgumentParser) -> None:
    _add_instance_flags(sub)
    sub.add_argument("--sample", type=_int_at_least(1), default=None, metavar="N")
    sub.add_argument("--seed", type=int, default=0, metavar="S")
    sub.set_defaults(func=cmd_check)


def _add_demo_flags(sub: argparse.ArgumentParser) -> None:
    sub.set_defaults(func=cmd_demo_fig2, format="text")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="essplit",
        description=_DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.choices = subparsers._name_parser_map = commands = _Commands()

    # Each command with whether it takes --subset: required, optional or not.
    for name, func, subset in (
        ("split", cmd_split, None),
        ("closure", cmd_closure, True),
        ("rank", cmd_rank, True),
        ("circuits", cmd_circuits, None),
        ("flats", cmd_flats, False),
    ):
        commands[name] = partial(_add_query_flags, func=func, mode=name != "split", subset=subset)
    commands["check"] = _add_check_flags
    commands["demo-fig2"] = _add_demo_flags
    return parser


def _unknown_before_command(argv: Sequence[str]) -> list[str]:
    """The options before the command name, none if one asks for help.

    The top-level parser takes only -h and --help, so every other option
    there is unknown.  argparse would name them only after the command
    parsed the rest of the line, so a command's own error, such as a
    missing flag, would hide them.  A lone "-", "--" or a negative
    number is an argument to argparse, and ends the scan."""
    unknown = []
    for arg in argv:
        if not arg.startswith("-") or arg in ("-", "--") or arg[1:2].isdigit():
            break
        if arg == "-h" or len(arg) > 2 and "--help".startswith(arg):
            return []
        unknown.append(arg)
    return unknown


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        unknown = _unknown_before_command(argv)
        if unknown:
            raise _UsageError("unrecognized arguments: " + " ".join(unknown))
        args = parser.parse_args(argv)
        code, payload, lines = args.func(args)
        if args.format == "json":
            _emit_json(payload)
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        # argparse ends the run itself after printing --help.
        sys.stdout.flush()
        return exc.code
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

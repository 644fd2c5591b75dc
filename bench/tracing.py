"""Per-layer tracing from outside the program.

``Tracer`` replaces every public function of ``essplit.gf2``,
``essplit.graphs``, ``essplit.matroid``, ``essplit.splitting`` and
``essplit.cli``, and every public method of ``BinaryMatroid``, with a
wrapper that records a span.  A name imported into another module (for
instance ``predict_closure`` into ``essplit.cli``) is replaced there
too, so every call path is seen.  ``cli.main`` is left alone: the
benchmark times it itself, and the time inside it that no span covers is
reported as ``cli.self_s``.  Leaving the ``with`` block restores every
replaced attribute.

A span's self time is its duration minus the durations of the spans it
called.  Counts and times are summed per name in memory; the first
``SPAN_LIMIT`` spans are also kept whole (id, parent id, name, start,
end) and written out with the totals at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
import weakref
from pathlib import Path

LAYERS = ("gf2", "graphs", "matroid", "splitting", "cli")
ENTRY_POINTS = {"cli.main", "cli.console_main"}
SPAN_LIMIT = 20000  # spans kept whole; the totals count every span


def _targets():
    """(span name, owner, attribute) of everything to wrap."""
    for layer in LAYERS:
        module = importlib.import_module(f"essplit.{layer}")
        for attr, value in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in ENTRY_POINTS
                and not inspect.isgeneratorfunction(value)
            ):
                yield name, module, attr
    yield "cli.emit_json", importlib.import_module("essplit.cli"), "_emit_json"
    from essplit.matroid import BinaryMatroid

    for attr, value in list(vars(BinaryMatroid).items()):
        if inspect.isfunction(value) and not attr.startswith("_") and not inspect.isgeneratorfunction(value):
            yield f"matroid.{attr}", BinaryMatroid, attr


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.top_level_s = 0.0
        self.enumerated: list[tuple[int, int, int]] = []  # (elements, rank, circuits found)
        self.flat_walks: list[tuple[int, int]] = []  # (flats found, subsets walked)
        self._seen: weakref.WeakSet = weakref.WeakSet()  # matroids enumerated
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._next_id = 0

    # -- install and restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            originals[id(original)] = original
            wrappers[id(original)] = self._wrap(name, original)
        self.rank_of = vars(importlib.import_module("essplit.matroid").BinaryMatroid)["rank_of"]
        owners = [m for n, m in list(sys.modules.items()) if n == "essplit" or n.startswith("essplit.")]
        from essplit.matroid import BinaryMatroid

        for owner in owners + [BinaryMatroid]:
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        after = {"matroid.circuits": self._after_circuits, "matroid.flats": self._after_flats}.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            first = after is not None and args[0] not in tracer._seen
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.top_level_s += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if len(spans) < SPAN_LIMIT:
                    spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(args[0], result, first)
            return result

        return traced

    def _after_circuits(self, matroid, result, first: bool) -> None:
        """Count first calls per matroid object: the cache misses.  Only
        sizes are kept, so the tracer holds no matroid alive."""
        if first:
            self._seen.add(matroid)
            rank = self.rank_of(matroid, matroid.ground)
            self.enumerated.append((len(matroid.ground), rank, len(result)))

    def _after_flats(self, matroid, result, first: bool) -> None:
        self.flat_walks.append((len(result), 2 ** len(matroid.ground)))


def _candidates(n: int, rank: int) -> int:
    """Subsets a size-ordered circuit search may test: sizes 1..rank+1."""
    return sum(math.comb(n, k) for k in range(1, min(n, rank + 1) + 1))


def layer_metrics(tracer: Tracer, rounds, untraced, probe) -> dict[str, float]:
    """Per-layer figures per traced round, plus the ratios.

    Span times are raw wall times; only the overhead ratio compares
    rounds at reference speed (see ``speed.py``).
    """
    count = len(rounds)
    metrics: dict[str, float] = {}
    for name, (calls, total, own) in sorted(tracer.stats.items()):
        metrics[f"{name}.calls"] = calls / count
        metrics[f"{name}.total_s"] = total / count
        metrics[f"{name}.self_s"] = own / count
    wall = sum(op.end - op.start for r in rounds for op in r.ops)
    subsets = sum(r.subsets for r in rounds)
    closure_calls = tracer.stats["matroid.closure_of"][0]
    found = sum(circuits for _, _, circuits in tracer.enumerated)
    candidates = sum(_candidates(n, rank) for n, rank, _ in tracer.enumerated)
    flats_found = sum(f for f, _ in tracer.flat_walks)
    walked = sum(w for _, w in tracer.flat_walks)
    metrics.update(
        {
            "matroid.closure_of.calls_per_subset": closure_calls / subsets if subsets else 0.0,
            "matroid.circuits.enumerations": len(tracer.enumerated) / count,
            "matroid.circuits.useful_ratio": found / candidates if candidates else 0.0,
            "matroid.flats.useful_ratio": flats_found / walked if walked else 0.0,
            "cli.output_bytes": sum(r.output_bytes for r in rounds) / count,
            "cli.self_s": (wall - tracer.top_level_s) / count,
            "trace.wall_s": wall / count,
            "trace.top_level_s": tracer.top_level_s / count,
            "trace.overhead_ratio": statistics.median(r.span.scaled(probe) for r in rounds)
            / untraced.span.scaled(probe),
        }
    )
    return metrics


def write_trace(tracer: Tracer, metrics: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "metrics": metrics,
        "span_fields": ["id", "parent", "name", "start_s", "end_s"],
        "spans_kept": len(tracer.spans),
        "spans_total": tracer._next_id,
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload))

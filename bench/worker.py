"""Run one benchmark workload in a fresh process and print one JSON line.

``run.py`` starts this script once per run, so that the peak resident
set size it reports belongs to that workload alone.  It also starts it
with ``--setup-only`` a few times to time set-up on its own.

Every timed call goes through a public entry point: ``essplit.cli.main``
with stdout captured, or ``essplit.graphs.parse_graph`` and
``verify_equivalence``.  Outputs are mapped back to canonical element
numbers and compared with the pinned reference after each round, outside
the timed calls.  A ``check`` report is written to disk after its call
has been timed, and waits there until the last round.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import instances
from speed import Span, SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN_DEMO = BENCH / "golden" / "demo-fig2.txt"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Capture:
    """Stdout sink that keeps the strings written to it without copying
    them, so that capturing adds nothing to the program's peak memory."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def size(self) -> int:
        return sum(map(len, self.parts))

    def getvalue(self) -> str:
        return "".join(self.parts)


def timed_cli(cli, argv: list[str], sink, probe: SpeedProbe | None = None) -> tuple[int | None, Span]:
    """One ``cli.main`` call with stdout into ``sink``: (exit code, span).

    A call that raises instead of returning an exit code is a failed
    operation; the exit code is then None.
    """
    span = Span(probe)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:
        print(f"{argv[0]} raised {exc!r}", file=sys.stderr)
        code = None
    return code, span.close(probe)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# -- canonical forms ----------------------------------------------------------
#
# ``index`` maps each presented label to its element number, so that
# outputs of differently presented copies of one instance compare equal.


def cset(index: dict[str, int], labels) -> list[int]:
    return sorted(index[label] for label in labels)


def canon_check(index, p: dict) -> dict:
    return {
        "subsets": p["subsets"],
        "case_hits": p["case_hits"],
        "no_case": p["no_case"],
        "closure_disagreements": sorted(
            [cset(index, w["subset"]), w["matched"], cset(index, w["formula"]), cset(index, w["oracle"])]
            for w in p["closure_disagreements"]
        ),
        "rank_disagreements": sorted(
            [cset(index, w["subset"]), w["formula"], w["oracle"]] for w in p["rank_disagreements"]
        ),
        "circuit_family_equal": p["circuit_family_equal"],
        "full_rank_increment_ok": p["full_rank_increment_ok"],
        "flat_condition_violations": sorted(
            [cset(index, w["subset"]), w["condition"]] for w in p["flat_condition_violations"]
        ),
        "disagreements": p["disagreements"],
    }


def check_summary(canon: dict) -> dict:
    """The pinned counts of a ``check`` report."""
    return {
        key: len(value) if isinstance(value, list) else value for key, value in canon.items()
    }


def canon_circuits(index, p: dict) -> dict:
    out = {"equal": p["equal"], "oracle": sorted(cset(index, c) for c in p["oracle"])}
    if "family" in p:
        family = p["family"]
        out["family"] = {
            name: sorted(cset(index, c) for c in family[name]) for name in ("c0", "c1", "c2", "c3")
        }
        out["delta"] = cset(index, family["delta"])
    return out


def canon_flats(index, p: dict):
    if "flats" in p:
        return sorted(([cset(index, row["flat"]), row["condition"]] for row in p["flats"]), key=lambda r: r[0])
    return {"subset": cset(index, p["subset"]), "is_flat": p["is_flat"], "condition": p["condition"]}


def canon_closure(index, p: dict) -> dict:
    return {
        "matched": p["matched"],
        "formula": None if p["formula"] is None else cset(index, p["formula"]),
        "oracle": None if p["oracle"] is None else cset(index, p["oracle"]),
        "agree": p["agree"],
    }


def rref(words: list[int]) -> list[int]:
    """Reduced row echelon form over GF(2) of bit-packed rows, pivots on
    the lowest set bits, in pivot order.  It is the same for every basis
    of one row space."""
    basis: list[int] = []
    for word in words:
        for row in basis:
            if word & (row & -row):
                word ^= row
        if word:
            pivot = word & -word
            basis = [row ^ word if row & pivot else row for row in basis]
            basis.append(word)
    return sorted(basis, key=lambda row: row & -row)


def canon_split(index, p: dict) -> list:
    """The split matrix's row space, in canonical column order."""
    order = sorted(range(len(p["col_labels"])), key=lambda i: index[p["col_labels"][i]])
    words = [sum(row[i] << k for k, i in enumerate(order)) for row in p["rows"]]
    return [[(word >> k) & 1 for k in range(len(order))] for word in rref(words)]


CANON = {
    "check": canon_check,
    "circuits": canon_circuits,
    "flats": canon_flats,
    "closure": canon_closure,
    "rank": lambda index, p: p,
    "split": canon_split,
}


def canonical_output(command: str, index: dict[str, int], stdout: str):
    return CANON[command](index, json.loads(stdout)) if stdout.strip() else None


# -- workloads ------------------------------------------------------------------


@dataclass
class Round:
    """One round of a workload: its timed operations and pending checks."""

    ops: list[Span] = field(default_factory=list)
    span: Span | None = None
    work: int = 0
    subsets: int = 0
    output_bytes: int = 0
    parts: dict[str, Span] = field(default_factory=dict)
    # (what, exit code, output, presented labels), checked after timing
    pending: list[tuple] = field(default_factory=list)


class Workload:
    """Rounds of timed calls.  Every round shows the program a new
    presentation of each instance, written before the round is timed,
    so no input repeats within a run."""

    check_each_round = True

    def __init__(self, instance_set: str, seed: int, workdir: Path, reference: dict | None):
        self.seed = seed
        self.workdir = workdir
        self.present(0)

    def rng(self, number: int):
        return instances.presentation_rng(self.seed, f"{self.name}:{number}")

    def run_round(self, cli, number: int, probe: SpeedProbe | None) -> Round:
        if self.presented_for != number:
            self.present(number)
            self.write_inputs()
        return self.timed_round(cli, number, probe)


class SweepCheck(Workload):
    """One exhaustive ``essplit check --format json`` per round."""

    name = "sweep-check"
    # Parsing a 6 MB report between rounds would raise the peak RSS of
    # this process above the program's own, so reports wait on disk.
    check_each_round = False

    def __init__(self, instance_set: str, seed: int, workdir: Path, reference: dict | None):
        self.structure = instances.sweep_structure(instance_set)
        self.path = workdir / "check.txt"
        self.subsets = 2 ** (self.structure.n + 2)
        super().__init__(instance_set, seed, workdir, reference)

    def present(self, number: int) -> None:
        self.presented = instances.present(self.rng(number), self.structure)
        self.presented_for = number

    def write_inputs(self) -> None:
        self.path.write_text(self.presented.text)

    def timed_round(self, cli, number: int, probe: SpeedProbe | None) -> Round:
        argv = ["check", *self.presented.args(str(self.path)), "--format", "json"]
        sink = Capture()
        code, span = timed_cli(cli, argv, sink, probe)
        out = self.workdir / f"check-{number}.json"
        with open(out, "w") as report:
            report.writelines(sink.parts)
        return Round(
            ops=[span],
            span=span,
            work=self.subsets,
            subsets=self.subsets,
            output_bytes=sink.size(),
            pending=[("check", code, out, self.presented.names)],
        )


class Enumerate(Workload):
    """Per round: ``circuits --mode both``, ``flats --mode both`` and a
    batch of ``verify_equivalence`` calls on edge-list graphs."""

    name = "enumerate"

    def __init__(self, instance_set: str, seed: int, workdir: Path, reference: dict | None):
        self.structures = instances.enumerate_structures(instance_set)
        self.circuits_path = workdir / "circuits.txt"
        self.flats_path = workdir / "flats.txt"
        # Work per round: circuits and flats listed, plus graphs verified.
        pinned = reference["enumerate"] if reference else None
        self.work = len(self.structures[2]) + (
            pinned["circuits"]["oracle_circuits"] + pinned["flats"]["flats"] if pinned else 0
        )
        super().__init__(instance_set, seed, workdir, reference)

    def present(self, number: int) -> None:
        circuits, flats, specs = self.structures
        rng = self.rng(number)
        self.circuits = instances.present(rng, circuits)
        self.flats = instances.present(rng, flats)
        self.graphs = [instances.present_split(rng, spec) for spec in specs]
        self.presented_for = number

    def write_inputs(self) -> None:
        self.circuits_path.write_text(self.circuits.text)
        self.flats_path.write_text(self.flats.text)

    def timed_round(self, cli, number: int, probe: SpeedProbe | None) -> Round:
        from essplit import graphs

        whole = Span(probe)
        circuits_out = Capture()
        circuits_argv = ["circuits", *self.circuits.args(str(self.circuits_path)), "--mode", "both", "--format", "json"]
        circuits_code, circuits_span = timed_cli(cli, circuits_argv, circuits_out, probe)
        flats_out = Capture()
        flats_argv = ["flats", *self.flats.args(str(self.flats_path)), "--mode", "both", "--format", "json"]
        flats_code, flats_span = timed_cli(cli, flats_argv, flats_out, probe)
        batch = Span(probe)
        verdicts = []
        for presented, spec in self.graphs:
            try:
                graph = graphs.parse_graph(presented.text)
                verdicts.append(graphs.verify_equivalence(graph, graphs.LineSplitSpec(*spec)))
            except Exception as exc:
                print(f"verify_equivalence raised {exc!r}", file=sys.stderr)
                verdicts.append(None)
        batch.close(probe)
        whole.close(probe)
        return Round(
            ops=[whole],
            span=whole,
            work=self.work,
            output_bytes=circuits_out.size() + flats_out.size(),
            parts={"circuits_s": circuits_span, "flats_s": flats_span, "equivalence_s": batch},
            pending=[
                ("circuits", circuits_code, circuits_out.getvalue(), self.circuits.names),
                ("flats", flats_code, flats_out.getvalue(), self.flats.names),
                ("equivalence", None, verdicts, None),
            ],
        )


class QueryMix(Workload):
    """A closed loop, one client: each round sends every query of the
    pool once, in a new order, one ``cli.main`` call per query."""

    name = "query-mix"

    def __init__(self, instance_set: str, seed: int, workdir: Path, reference: dict | None):
        self.pool = instances.query_pool(instance_set)
        super().__init__(instance_set, seed, workdir, reference)

    def present(self, number: int) -> None:
        rng = self.rng(number)
        self.order = rng.sample(range(len(self.pool)), len(self.pool))
        self.presented = []
        for i, query in enumerate(self.pool):
            presented = instances.present(rng, query.structure)
            argv = [query.command, *presented.args(str(self.workdir / f"q{i}.txt")), "--format", "json"]
            if query.subset is not None:
                argv += ["--subset", presented.labels(query.subset)]
            self.presented.append((argv, presented))
        self.presented_for = number

    def write_inputs(self) -> None:
        for i, (_, presented) in enumerate(self.presented):
            (self.workdir / f"q{i}.txt").write_text(presented.text)

    def timed_round(self, cli, number: int, probe: SpeedProbe | None) -> Round:
        result = Round(work=len(self.pool))
        whole = Span(probe)
        for i in self.order:
            argv, presented = self.presented[i]
            sink = Capture()
            code, span = timed_cli(cli, argv, sink, probe)
            result.ops.append(span)
            result.output_bytes += sink.size()
            result.pending.append((f"query {i}", code, sink.getvalue(), presented.names))
        result.span = whole.close(probe)
        return result


WORKLOADS = {w.name: w for w in (SweepCheck, Enumerate, QueryMix)}


# -- verification -------------------------------------------------------------------


def observed(what: str, code, output, names, pool) -> object:
    """The reference entry that one operation's result pins.

    ``names`` holds the presented label of each element, so outputs are
    compared in canonical element numbers.
    """
    if what == "equivalence":
        return list(output)
    index = {name: j for j, name in enumerate(names)}
    if what.startswith("query"):
        command = pool[int(what.split()[1])].command
        return [command, code, digest(canonical_output(command, index, output))]
    if what == "check":
        canon = canonical_output("check", index, Path(output).read_text())
        return {"code": code, "summary": check_summary(canon), "digest": digest(canon)}
    canon = canonical_output(what, index, output)
    if what == "circuits":
        return {"code": code, "equal": canon["equal"], "oracle_circuits": len(canon["oracle"]), "digest": digest(canon)}
    return {"code": code, "flats": len(canon), "digest": digest(canon)}


def expected(what: str, reference: dict):
    if what.startswith("query"):
        return reference["query-mix"][int(what.split()[1])]
    if what == "check":
        return reference["check"]
    return reference["enumerate"][what]


class Verdicts:
    """Running count of operations checked against the reference.

    Each graph of the equivalence batch is one operation; so is every
    CLI call and the ``demo-fig2`` golden comparison.
    """

    def __init__(self, reference: dict, pool=None):
        self.reference = reference
        self.pool = pool
        self.attempted = 0
        self.failed = 0

    def check(self, result: Round) -> None:
        """Check a round's outputs, then drop them."""
        reference, pool = self.reference, self.pool
        for what, code, output, names in result.pending:
            want = expected(what, reference)
            try:
                got = observed(what, code, output, names, pool)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                got = f"unreadable output: {exc!r}"
            if what == "equivalence":
                pairs = [(f"verify_equivalence {k}", got[k:k + 1], want[k:k + 1]) for k in range(len(want))]
            else:
                pairs = [(what, got, want)]
            for name, got_one, want_one in pairs:
                self.record(got_one == want_one, f"{name}: got {got_one!r}, expected {want_one!r}")
        result.pending = []

    def record(self, ok: bool, mismatch: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"mismatch in {mismatch}", file=sys.stderr)


def demo_matches(cli) -> bool:
    sink = Capture()
    code, _ = timed_cli(cli, ["demo-fig2"], sink)
    return code == 0 and sink.getvalue().encode() == GOLDEN_DEMO.read_bytes()


# -- measuring -----------------------------------------------------------------------


def run_rounds(workload, cli, seconds: float, probe: SpeedProbe, verdicts: Verdicts, first: int = 0) -> list[Round]:
    """Rounds until ``seconds`` of measured time, at least one."""
    rounds: list[Round] = []
    measured = 0.0
    while not rounds or measured < seconds:
        result = workload.run_round(cli, first + len(rounds), probe)
        rounds.append(result)
        measured += result.span.wall
        if workload.check_each_round:
            verdicts.check(result)
    return rounds


def end_to_end(rounds: list[Round], probe: SpeedProbe) -> tuple[dict, dict]:
    """Metrics at reference speed, and the raw figures beside them."""
    ops = [op.scaled(probe) for r in rounds for op in r.ops]
    raw_ops = [op.wall for r in rounds for op in r.ops]
    work = sum(r.work for r in rounds)
    metrics = {
        "op_p50_ms": statistics.median(ops) * 1000,
        "op_p90_ms": percentile(ops, 0.9) * 1000,
        "work_per_s": work / sum(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "rounds": len(rounds),
        "ops": len(ops),
        "raw_op_p50_ms": statistics.median(raw_ops) * 1000,
        "raw_op_p90_ms": percentile(raw_ops, 0.9) * 1000,
        "raw_work_per_s": work / sum(raw_ops),
        "probe_samples": len(probe.durations),
        "probe_median_us": statistics.median(probe.durations) * 1e6,
    }
    for part in rounds[0].parts:
        details[f"{part}_median"] = statistics.median(r.parts[part].scaled(probe) for r in rounds)
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", choices=sorted(instances.INSTANCE_SETS), default="main")
    parser.add_argument("--reference", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    reference = json.loads(args.reference.read_text())[args.instances]
    args.workdir.mkdir(parents=True, exist_ok=True)

    with SpeedProbe() as probe:
        setup = Span(probe)
        sys.path.insert(0, str(ROOT / "src"))
        from essplit import cli

        workload = WORKLOADS[args.workload](args.instances, args.seed, args.workdir, reference)
        setup.close(probe)
        if args.setup_only:
            print(json.dumps({"setup_s": setup.scaled(probe)}))
            return 0
        # Writing input files is left out of set-up time: the program has
        # no part in it, and its speed on a shared disk varies many-fold.
        workload.write_inputs()

        verdicts = Verdicts(reference, getattr(workload, "pool", None))
        if args.trace:
            import tracing

            untraced = workload.run_round(cli, 0, probe)
            with tracing.Tracer() as tracer:
                rounds = run_rounds(workload, cli, args.seconds, probe, verdicts, first=1)
            metrics = tracing.layer_metrics(tracer, rounds, untraced, probe)
            rounds = [untraced] + rounds
            details = {"rounds": len(rounds), "traced_rounds": len(rounds) - 1}
        else:
            rounds = run_rounds(workload, cli, args.seconds, probe, verdicts)
            metrics, details = end_to_end(rounds, probe)
            metrics["setup_s"] = setup.scaled(probe)
            details["raw_setup_s"] = setup.wall

    if args.trace and args.trace_out is not None:
        tracing.write_trace(tracer, metrics, args.trace_out)
    for result in rounds:
        verdicts.check(result)
    verdicts.record(demo_matches(cli), "demo-fig2: output differs from golden/demo-fig2.txt")
    print(json.dumps({"attempted": verdicts.attempted, "failed": verdicts.failed, "metrics": metrics, "details": details}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

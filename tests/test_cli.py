import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import essplit
from essplit import BinaryMatroid, GF2Matrix, cli, splitting
from essplit.cli import _json_text, main
from essplit.errors import FormulaDisagreement
from essplit.graphs import format_graph
from essplit.showcase import showcase_graph, showcase_matroid

from pins import COMMANDS, GOLDEN, LARGE40, LARGE40_QUERY, WHEEL


@pytest.fixture()
def wheel_matrix_file():
    return str(GOLDEN / "wheel.txt")


@pytest.fixture()
def wheel_graph_file(tmp_path):
    path = tmp_path / "wheel.graph"
    path.write_text(format_graph(showcase_graph()))
    return str(path)


@pytest.fixture()
def identity_file(tmp_path):
    rows = "\n".join(
        " ".join("1" if i == j else "0" for j in range(4)) for i in range(4)
    )
    path = tmp_path / "free.txt"
    path.write_text("1 2 3 4\n" + rows + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAboveTheCircuitCap:
    """``closure``, ``rank`` and ``flats --subset`` answer on 40 base
    elements; before the base facts came from ranks they exited 2."""

    @pytest.mark.parametrize("command", ["closure", "rank"])
    def test_query_agrees_with_the_oracle(self, capsys, command):
        code, out, err = run(
            capsys, command, *LARGE40, *LARGE40_QUERY, "--format", "json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["agree"] is True

    def test_flats_subset_answers(self, capsys):
        code, out, _ = run(
            capsys, "closure", *LARGE40, *LARGE40_QUERY, "--format", "json"
        )
        closed = ",".join(json.loads(out)["oracle"])
        code, out, err = run(
            capsys, "flats", *LARGE40, "--subset", closed, "--format", "json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["is_flat"] is True

    def test_check_keeps_its_caps(self, capsys):
        code, _, err = run(capsys, "check", *LARGE40, "--sample", "5")
        assert code == 2
        assert err == "error: 40 elements exceed the enumeration cap of 24\n"


class TestSplit:
    def test_text_output(self, capsys, wheel_matrix_file):
        code, out, _ = run(
            capsys, "split", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["1", "2", "3", "4", "5", "6", "x", "y", "a", "gamma"]
        assert len(lines) == 7
        assert all(len(line.split()) == 10 for line in lines[1:])

    def test_json_output(self, capsys, wheel_matrix_file):
        code, out, _ = run(
            capsys,
            "split",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["col_labels"][-2:] == ["a", "gamma"]
        assert len(payload["rows"]) == 6

    def test_graph_input(self, capsys, wheel_graph_file, wheel_matrix_file):
        code_g, out_g, _ = run(
            capsys,
            "split",
            "--input",
            wheel_graph_file,
            "--kind",
            "graph",
            "--X",
            "x,y",
            "--e",
            "y",
        )
        code_m, out_m, _ = run(
            capsys, "split", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y"
        )
        assert code_g == code_m == 0
        assert out_g == out_m

    def test_marked_element_outside_x(self, capsys, wheel_matrix_file):
        code, _, err = run(
            capsys, "split", "--input", wheel_matrix_file, "--X", "x", "--e", "y"
        )
        assert code == 2
        assert "X" in err

    def test_empty_x_rejected(self, capsys, wheel_matrix_file):
        code, _, _ = run(
            capsys, "split", "--input", wheel_matrix_file, "--X", "", "--e", "y"
        )
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "split", "--input", "no-such", "--X", "x", "--e", "x")
        assert code == 1
        assert "error" in err

    def test_bad_matrix(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b\n0 7\n")
        code, _, err = run(capsys, "split", "--input", str(bad), "--X", "a", "--e", "a")
        assert code == 1
        assert "bad.txt:2" in err

    def test_non_utf8_input(self, capsys, tmp_path):
        bad = tmp_path / "latin.txt"
        bad.write_bytes(b"a b\xff\n1 0\n")
        code, _, err = run(capsys, "split", "--input", str(bad), "--X", "a", "--e", "a")
        assert code == 1
        assert err.startswith("error: ") and "UTF-8" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "kind, text",
        [("matrix", "p,q r\n1 1\n"), ("graph", "p,q u v\nr v w\n")],
        ids=["matrix", "graph"],
    )
    def test_label_with_a_comma_rejected(self, capsys, tmp_path, kind, text):
        # --X, --e and --subset split on commas, so none could name it.
        path = tmp_path / "comma.txt"
        path.write_text(text)
        code, out, err = run(
            capsys, "check", "--kind", kind, "--input", str(path), "--X", "r", "--e", "r"
        )
        assert (code, out) == (1, "")
        assert err == f"error: {path}: label 'p,q' holds a comma\n"

    def test_byte_order_mark_in_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_text("\ufeffp q\n1 1\n", encoding="utf-8")
        code, out, err = run(capsys, "split", "--input", str(path), "--X", "p", "--e", "p")
        assert (code, err) == (0, "")
        assert out.splitlines()[0].split() == ["p", "q", "a", "gamma"]

    def test_comment_after_an_edge_in_graph_file(self, capsys, wheel_graph_file, tmp_path):
        # --help says # starts a comment; one may follow an edge.
        path = tmp_path / "commented.graph"
        lines = Path(wheel_graph_file).read_text().splitlines()
        path.write_text("".join(f"{line}  # edge {i}\n" for i, line in enumerate(lines)))
        argv = ["split", "--kind", "graph", "--X", "x,y", "--e", "y"]
        commented = run(capsys, *argv, "--input", str(path))
        assert commented == run(capsys, *argv, "--input", wheel_graph_file)
        assert commented[0] == 0

    def test_byte_order_mark_in_graph_file(self, capsys, wheel_graph_file, tmp_path):
        path = tmp_path / "bom.graph"
        path.write_text("\ufeff" + Path(wheel_graph_file).read_text(), encoding="utf-8")
        argv = ["split", "--kind", "graph", "--X", "x,y", "--e", "y"]
        with_bom = run(capsys, *argv, "--input", str(path))
        assert with_bom == run(capsys, *argv, "--input", wheel_graph_file)
        assert with_bom[0] == 0

    @pytest.mark.parametrize("n", [63, 64, 70])
    def test_split_wider_than_64_columns(self, capsys, tmp_path, n):
        path = tmp_path / "wide.txt"
        path.write_text(" ".join(f"c{j}" for j in range(n)) + "\n" + "1 " * n + "\n")
        code, out, err = run(capsys, "split", "--input", str(path), "--X", "c0", "--e", "c0")
        assert code == 0
        assert err == ""
        labels, row, parity = out.splitlines()
        assert labels.split() == [f"c{j}" for j in range(n)] + ["a", "gamma"]
        assert row.split() == ["1"] * n + ["0", "1"]
        assert parity.split() == ["1"] + ["0"] * (n - 1) + ["1", "0"]

    def test_graph_with_65_edges(self, capsys, tmp_path):
        path = tmp_path / "star.graph"
        path.write_text("".join(f"s{j} hub v{j}\n" for j in range(65)))
        code, out, err = run(
            capsys, "split", "--input", str(path), "--kind", "graph", "--X", "s0", "--e", "s0"
        )
        assert code == 0
        assert err == ""
        assert len(out.splitlines()[0].split()) == 67

    def test_negative_cap_rejected(self, capsys, wheel_matrix_file):
        code, _, err = run(
            capsys, "circuits", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y",
            "--cap", "-3",
        )
        assert code == 1
        assert err == "usage error: argument --cap: must be at least 0, got -3\n"

    @pytest.mark.parametrize("flag", ["--label-a", "--label-gamma"])
    @pytest.mark.parametrize("label", ["x y", "", "g,h", "g\th", " a"])
    def test_unreadable_new_label_rejected(self, capsys, wheel_matrix_file, flag, label):
        # The header would carry one label too many, or a label --subset
        # cannot name.
        code, out, err = run(
            capsys, "split", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y",
            flag, label,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"usage error: argument {flag}: {label!r} is not a label: it must be "
            "non-empty, with no whitespace or comma\n"
        )

    def test_new_labels_read_back(self, capsys, wheel_matrix_file, tmp_path):
        code, out, _ = run(
            capsys, "split", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y",
            "--label-a", "α", "--label-gamma", "g-1",
        )
        assert code == 0
        path = tmp_path / "split.txt"
        path.write_text(out)
        code, out, _ = run(
            capsys, "rank", "--input", str(path), "--X", "x", "--e", "x",
            "--subset", "α,g-1",
        )
        assert code == 0
        assert "oracle:  2" in out


class TestClosure:
    def test_json_payload(self, capsys, wheel_matrix_file):
        code, out, _ = run(
            capsys,
            "closure",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--subset",
            "2,6",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "matched": ["L3.5"],
            "formula": ["2", "6", "gamma"],
            "oracle": ["2", "6", "gamma"],
            "agree": True,
        }

    def test_byte_stable(self, capsys, wheel_matrix_file):
        args = (
            "closure",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--subset",
            "1,6,gamma",
            "--format",
            "json",
        )
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_disagreement_exit_code(self, capsys, wheel_matrix_file):
        code, out, _ = run(
            capsys,
            "closure",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--subset",
            "2,6,gamma",
            "--format",
            "json",
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["agree"] is False
        assert payload["oracle"] == ["2", "6", "gamma"]

    def test_full_ground_closes_to_itself(self, capsys, wheel_matrix_file):
        everything = "1,2,3,4,5,6,x,y,a,gamma"
        code, out, _ = run(
            capsys,
            "closure",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--subset",
            everything,
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"] == everything.split(",")
        assert payload["agree"] is True

    def test_formula_only(self, capsys, wheel_matrix_file):
        code, out, _ = run(
            capsys,
            "closure",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--subset",
            "2,6,gamma",
            "--mode",
            "formula",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["oracle"] is None

    def test_oracle_only_reports_no_cases(self, capsys, wheel_matrix_file):
        # No case is evaluated, so none is reported as matched or missed.
        instance = ("--input", wheel_matrix_file, "--X", "x,y", "--e", "y")
        argv = ("closure", *instance, "--subset", "2,6", "--mode", "oracle")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "matched": None, "formula": None, "oracle": ["2", "6", "gamma"], "agree": None
        }
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        assert out.splitlines() == ["A' = {2,6}", "oracle:  {2,6,gamma}"]

    def test_subset_required(self, capsys, wheel_matrix_file):
        code, _, err = run(
            capsys, "closure", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y"
        )
        assert code == 1
        assert "subset" in err


class TestRankAndCircuits:
    def test_rank_both_routes(self, capsys, wheel_matrix_file):
        code, out, _ = run(
            capsys,
            "rank",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--subset",
            "4,5,x",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out) == {"formula": 3, "oracle": 3, "agree": True}

    def test_circuit_family_matches(self, capsys, wheel_matrix_file):
        code, out, _ = run(
            capsys,
            "circuits",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["family"]["delta"] == ["y", "a", "gamma"]
        assert ["2", "6", "gamma"] in payload["family"]["c3"]


class TestFlats:
    def test_single_subset(self, capsys, wheel_matrix_file):
        code, out, _ = run(
            capsys,
            "flats",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--subset",
            "5,y",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "subset": ["5", "y"],
            "is_flat": True,
            "condition": 1,
        }

    def test_full_listing_contains_triangle(self, capsys, wheel_matrix_file):
        code, out, _ = run(
            capsys,
            "flats",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--format",
            "json",
        )
        assert code == 0
        flats = [tuple(row["flat"]) for row in json.loads(out)["flats"]]
        assert ("y", "a", "gamma") in flats

    def test_each_mode_reports_only_its_own_route(
        self, capsys, monkeypatch, wheel_matrix_file
    ):
        # null already means that no condition holds, so a route not
        # taken leaves its field out; the formula route builds no oracle.
        flags = ("--input", wheel_matrix_file, "--X", "x,y", "--e", "y")

        def flats(*argv):
            code, out, err = run(capsys, "flats", *flags, *argv, "--format", "json")
            assert (code, err) == (0, "")
            text = run(capsys, "flats", *flags, *argv, "--format", "text")
            assert text[0::2] == (0, "")
            return json.loads(out), text[1].splitlines()

        subset = ("--subset", "4,gamma", "--mode")
        assert flats(*subset, "both") == (
            {"subset": ["4", "gamma"], "is_flat": True, "condition": 5},
            ["{4,gamma} flat=True condition=5"],
        )
        assert flats(*subset, "oracle") == (
            {"subset": ["4", "gamma"], "is_flat": True}, ["{4,gamma} flat=True"]
        )
        listing, lines = flats("--mode", "oracle")
        assert {tuple(row) for row in listing["flats"]} == {("flat",)}
        assert lines[:2] == ["{}", "{1}"] and not any("condition" in line for line in lines)

        def no_oracle(ctx):
            raise AssertionError("the formula route built the split oracle")

        monkeypatch.setattr(cli, "split_matroid", no_oracle)
        assert flats(*subset, "formula") == (
            {"subset": ["4", "gamma"], "condition": 5}, ["{4,gamma} condition=5"]
        )
        assert flats("--subset", "1,2,5", "--mode", "formula") == (
            {"subset": ["1", "2", "5"], "condition": None}, ["{1,2,5} condition=None"]
        )

    @pytest.mark.parametrize("mode", ["both", "formula", "oracle"])
    def test_listing_builds_one_record_per_base_flat(
        self, capsys, monkeypatch, wheel_matrix_file, mode
    ):
        built = []
        init = splitting._BaseFacts.__init__

        def counting(facts, ctx, a, *spans):
            built.append(a)
            init(facts, ctx, a, *spans)

        monkeypatch.setattr(splitting._BaseFacts, "__init__", counting)
        code, out, _ = run(
            capsys, "flats", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y",
            "--mode", mode, "--format", "json",
        )
        assert code == 0
        base = showcase_matroid()
        base_flats = base.flats(masks=True)
        assert sorted(built) == ([] if mode == "oracle" else sorted(base_flats))
        # The listing holds split flats whose base part is no base flat.
        parts = {
            base._mask(set(row["flat"]) - {"a", "gamma"})
            for row in json.loads(out)["flats"]
        }
        assert parts - set(base_flats)


class TestCheck:
    def test_free_matroid_is_clean(self, capsys, identity_file):
        code, out, _ = run(
            capsys,
            "check",
            "--input",
            identity_file,
            "--X",
            "1,2",
            "--e",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["subsets"] == 64
        assert summary["disagreements"] == 0
        assert summary["no_case"] == 0
        assert summary["rank_disagreements"] == []
        assert summary["circuit_family_equal"] is True
        assert summary["full_rank_increment_ok"] is True

    def test_wheel_reports_known_disagreements(self, capsys, wheel_matrix_file):
        code, out, _ = run(
            capsys,
            "check",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--format",
            "json",
        )
        assert code == 3
        summary = json.loads(out)
        assert summary["subsets"] == 1024
        assert summary["no_case"] == 0
        assert summary["rank_disagreements"] == []
        assert summary["circuit_family_equal"] is True
        assert summary["full_rank_increment_ok"] is True
        assert summary["flat_condition_violations"] == []
        assert len(summary["closure_disagreements"]) == 183

    def test_sampled_mode_is_deterministic(self, capsys, wheel_matrix_file):
        args = (
            "check",
            "--input",
            wheel_matrix_file,
            "--X",
            "x,y",
            "--e",
            "y",
            "--sample",
            "64",
            "--seed",
            "11",
            "--format",
            "json",
        )
        assert run(capsys, *args) == run(capsys, *args)

    @pytest.mark.parametrize("sample", ["-5", "0"])
    def test_sample_must_be_positive(self, capsys, wheel_matrix_file, sample):
        code, out, err = run(
            capsys, "check", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y",
            "--sample", sample,
        )
        assert code == 1
        assert out == ""
        assert err == f"usage error: argument --sample: must be at least 1, got {sample}\n"

    @pytest.mark.parametrize("sample, subsets", [(200, 200), (1023, 1023), (5000, 1024)])
    def test_sample_counts_distinct_subsets(self, capsys, wheel_matrix_file, sample, subsets):
        # The wheel's split has 10 elements, so 2^10 = 1,024 subsets.
        _, out, _ = run(
            capsys, "check", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y",
            "--sample", str(sample), "--seed", "3", "--format", "json",
        )
        assert json.loads(out)["subsets"] == subsets == min(sample, 2**10)

    def test_large_ground_needs_sample(self, capsys, tmp_path):
        n = 19
        labels = " ".join(str(i) for i in range(n))
        rows = "\n".join(
            " ".join("1" if i == j else "0" for j in range(n)) for i in range(n)
        )
        path = tmp_path / "big.txt"
        path.write_text(labels + "\n" + rows + "\n")
        code, _, err = run(
            capsys, "check", "--input", str(path), "--X", "0,1", "--e", "0"
        )
        assert code == 2
        assert "--sample" in err

    @staticmethod
    def rank_6_base(tmp_path, n):
        """A base of n elements and rank 6: a unit column per row, the
        other columns the sums of two neighbouring rows."""
        columns = [1 << j if j < 6 else 3 << j % 5 for j in range(n)]
        rows = "\n".join(
            " ".join(str(word >> i & 1) for word in columns) for i in range(6)
        )
        path = tmp_path / "rank6.txt"
        path.write_text(" ".join(str(j) for j in range(n)) + "\n" + rows + "\n")
        return str(path)

    def test_no_sample_advice_above_the_all_subset_cap(self, capsys, tmp_path):
        # The base flats walk every subset of the base, so --sample cannot
        # get round a base of 21 elements.
        path = self.rank_6_base(tmp_path, 21)
        code, out, err = run(capsys, "check", "--input", path, "--X", "0,1", "--e", "0")
        assert (code, out) == (2, "")
        assert err == "error: 23 split elements exceed the exhaustive cap of 20\n"

    def test_no_sample_advice_above_the_enumeration_cap(self, capsys, tmp_path):
        path = self.rank_6_base(tmp_path, 19)
        code, _, err = run(
            capsys, "check", "--input", path, "--X", "0,1", "--e", "0", "--cap", "18"
        )
        assert code == 2
        assert err == "error: 21 split elements exceed the exhaustive cap of 20\n"
        code, _, err = run(
            capsys, "check", "--input", path, "--X", "0,1", "--e", "0", "--cap", "18",
            "--sample", "10",
        )
        assert code == 2
        assert err == "error: 19 elements exceed the enumeration cap of 18\n"

    def test_sample_above_the_all_subset_cap_fails_before_any_work(
        self, capsys, tmp_path, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("the check started its work")

        monkeypatch.setattr(essplit.cli, "predict_circuits", forbidden)
        for method in ("walk_closures", "closures_at"):
            monkeypatch.setattr(essplit.matroid.BinaryMatroid, method, forbidden)
        path = self.rank_6_base(tmp_path, 21)
        code, out, err = run(
            capsys, "check", "--input", path, "--X", "0,1", "--e", "0", "--sample", "10"
        )
        assert (code, out) == (2, "")
        assert err == "error: 21 elements exceed the all-subset cap of 20\n"

    def test_a_split_matrix_other_than_n_plus_gamma_fails_before_any_work(
        self, capsys, monkeypatch, wheel_matrix_file
    ):
        # The parity row loses x, a member of X, so the split matrix
        # without gamma is no longer N and its spans would not give the
        # base facts.
        build = splitting.build_split_matrix

        def mutant(ctx):
            matrix = build(ctx)
            parity = matrix.rows[-1] & ~ctx.mask_of({"x"})
            return GF2Matrix(matrix.rows[:-1] + (parity,), matrix.col_labels)

        def forbidden(*args, **kwargs):
            raise AssertionError("the check started its work")

        monkeypatch.setattr(splitting, "build_split_matrix", mutant)
        monkeypatch.setattr(essplit.cli, "predict_circuits", forbidden)
        for method in ("walk_closures", "closures_at"):
            monkeypatch.setattr(BinaryMatroid, method, forbidden)
        for fmt in ("text", "json"):
            code, out, err = run(
                capsys, "check", "--input", wheel_matrix_file, "--X", "x,y",
                "--e", "y", "--format", fmt,
            )
            assert (code, out) == (2, "")
            assert err == (
                "error: the split matrix without gamma is not the base matrix "
                "plus the parity row and a\n"
            )

    @staticmethod
    def count_eliminations(monkeypatch):
        """The calls of ``walk_closures``, ``closures_at`` and ``flats``,
        each as the size of the matroid's ground and the arguments."""
        calls = {"walk_closures": [], "closures_at": [], "flats": []}
        for name, log in calls.items():

            def counting(
                m, *args, method=getattr(BinaryMatroid, name), log=log, **kwargs
            ):
                log.append((len(m.ground), *args, *kwargs.values()))
                return method(m, *args, **kwargs)

            monkeypatch.setattr(BinaryMatroid, name, counting)
        return calls

    def test_exhaustive_check_walks_the_split_matrix_once(
        self, capsys, monkeypatch, wheel_matrix_file
    ):
        calls = self.count_eliminations(monkeypatch)
        code, _, _ = run(
            capsys, "check", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y",
            "--format", "json",
        )
        assert code == 3
        base = showcase_matroid()
        n, e = len(base.ground), base.ground.index("y")
        # One walk, of the split matrix with the extras e, a and gamma;
        # its last argument derives the span parts.
        assert [call[:3] for call in calls["walk_closures"]] == [(n + 2, (e, n, n + 1), n)]
        # The base flats are read off the walk: no flat is enumerated or
        # eliminated again.  Only the full-rank check's two ranks remain.
        assert calls["flats"] == []
        assert calls["closures_at"] == [
            (n + 2, (1 << n + 2) - 1, ()), (n, (1 << n) - 1, ())
        ]

    def test_sampled_check_queries_each_base_part_once(
        self, capsys, monkeypatch, wheel_matrix_file
    ):
        calls = self.count_eliminations(monkeypatch)
        code, _, _ = run(
            capsys, "check", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y",
            "--sample", "300", "--seed", "5", "--format", "json",
        )
        assert code == 3
        base = showcase_matroid()
        n, e = len(base.ground), base.ground.index("y")
        assert calls["flats"] == [(n, True)]
        rng, drawn = random.Random(5), {}
        while len(drawn) < 300:
            drawn.setdefault(rng.randrange(1 << n + 2), None)
        parts = {mask & (1 << n) - 1: None for mask in drawn}
        flats = base.flats(masks=True)
        assert len(parts) < len(drawn)
        assert set(flats) & set(parts) and not set(flats) <= set(parts)
        assert calls["walk_closures"] == []
        # Each drawn part in draw order, then each base flat not drawn,
        # one elimination each, and the full-rank check's two ranks.
        queried = [mask for _, mask, extra in calls["closures_at"] if extra]
        assert queried == list(dict.fromkeys([*parts, *flats]))
        assert {extra for *_, extra in calls["closures_at"]} == {(e, n, n + 1), ()}
        assert len(calls["closures_at"]) == len(queried) + 2


def test_closed_pipe_ends_silently(wheel_matrix_file):
    """A reader that stops early ends the run with exit 1 and no message."""
    src = str(Path(essplit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    read_end, write_end = os.pipe()
    if sys.platform == "linux":
        import fcntl

        # One page: the 66 kB report cannot fit before the reader closes.
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    argv = ["check", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "essplit.cli", *argv],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write_end)
    head = os.read(read_end, 10)
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert head == b'{\n  "subse'
    assert err == b""
    assert proc.returncode == 1


class TestDemo:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


class TestErrorExits:
    def test_sample_must_be_an_integer(self, capsys, wheel_matrix_file):
        code, out, err = run(
            capsys, "check", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y",
            "--sample", "abc",
        )
        assert (code, out) == (1, "")
        assert err == "usage error: argument --sample: invalid int value: 'abc'\n"

    def test_cases_that_disagree_exit_3(self, capsys, monkeypatch, wheel_matrix_file):
        def disagree(facts, cases):
            raise FormulaDisagreement("cases L3.2 and L3.5 disagree")

        monkeypatch.setattr(splitting._BaseFacts, "closure", disagree)
        code, out, err = run(
            capsys, "closure", "--input", wheel_matrix_file, "--X", "x,y", "--e", "y",
            "--subset", "2,6", "--mode", "formula",
        )
        assert (code, out) == (3, "")
        assert err == "error: cases L3.2 and L3.5 disagree\n"


def test_help_is_written_for_users(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "Exit codes" in out
    assert "cmd_" not in out


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help_returns_zero(capsys, command):
    assert main([command, "-h"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: essplit {command}")


REQUIRED = "the following arguments are required: "


class TestUsageErrors:
    """Each usage error is one stderr line and exit 1, byte for byte:
    argparse's message after ``usage error: ``."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), REQUIRED + "command"),
            (
                ("frobnicate",),
                "argument command: invalid choice: 'frobnicate' (choose from 'split', "
                "'closure', 'rank', 'circuits', 'flats', 'check', 'demo-fig2')",
            ),
            (("split",), REQUIRED + "--input, --X, --e"),
            (("closure",), REQUIRED + "--input, --X, --e, --subset"),
            (("rank",), REQUIRED + "--input, --X, --e, --subset"),
            (("circuits",), REQUIRED + "--input, --X, --e"),
            (("flats",), REQUIRED + "--input, --X, --e"),
            (("check",), REQUIRED + "--input, --X, --e"),
            # An unknown option before the command is named before the
            # command's own errors.
            (("--foo", "closure"), "unrecognized arguments: --foo"),
            (("--foo", "-x", "closure"), "unrecognized arguments: --foo -x"),
            (("--foo", "split", *WHEEL), "unrecognized arguments: --foo"),
            (("--foo=1", "--", "closure"), "unrecognized arguments: --foo=1"),
            (("demo-fig2", "--format", "json"), "unrecognized arguments: --format json"),
        ],
        ids=[
            "no-command", "unknown-command", *COMMANDS[:-1], "flag-before-command",
            "flags-before-command", "flag-before-a-full-command",
            "flag-before-a-double-dash", "demo-fig2-with-a-flag",
        ],
    )
    def test_one_line_and_exit_1(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv", [("--foo", "--help"), ("--foo", "--he", "closure")])
    def test_help_before_the_command_wins_over_an_unknown_flag(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        help_text = (GOLDEN / "help.txt").read_text(encoding="utf-8")
        assert run(capsys, *argv) == (0, help_text, "")

    def test_an_abbreviated_help_prints_the_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        help_text = (GOLDEN / "help-closure.txt").read_text(encoding="utf-8")
        assert run(capsys, "closure", "--he") == (0, help_text, "")


def command_parsers(parser):
    """The parser of each command, by name."""
    (action,) = (action for action in parser._actions if action.dest == "command")
    return action.choices


class TestFlagsOnFirstUse:
    """``build_parser`` makes the parser of every command, for the list
    of commands, but each adds its flags only when first used."""

    @pytest.fixture()
    def filled(self, monkeypatch):
        """The prog of every parser that gets the instance flags."""
        progs = []
        add = cli._add_instance_flags

        def recording(sub):
            progs.append(sub.prog)
            add(sub)

        monkeypatch.setattr(cli, "_add_instance_flags", recording)
        return progs

    @pytest.mark.parametrize(
        "argv",
        [
            ("split",),
            ("closure", "--subset", "2,6"),
            ("rank", "--subset", "2,6"),
            ("circuits",),
            ("flats",),
            ("check", "--sample", "5"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_only_the_invoked_command_is_filled(self, capsys, filled, argv):
        code, out, err = run(capsys, argv[0], *WHEEL, *argv[1:], "--format", "json")
        assert (code, err) in ((0, ""), (3, ""))
        assert json.loads(out)
        assert filled == [f"essplit {argv[0]}"]

    @pytest.mark.parametrize("argv", [("--help",), ("demo-fig2",)], ids=["help", "demo"])
    def test_no_command_flags_for_help_or_the_demo(self, capsys, filled, argv):
        assert main(list(argv)) == 0
        assert capsys.readouterr().out
        assert filled == []

    def test_abbreviated_flags_are_read(self, capsys):
        # The flags are in place before the command parses its arguments.
        code, out, err = run(
            capsys, "rank", "--in", WHEEL[1], "--X", "x,y", "--e", "y", "--sub", "2,6",
            "--form", "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == {"formula": 2, "oracle": 2, "agree": True}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_an_unparsed_command_formats_its_flags(self, monkeypatch, command):
        # Help and usage each fill the parser, as parsing does.
        monkeypatch.setenv("COLUMNS", "80")
        help_text = (GOLDEN / f"help-{command}.txt").read_text(encoding="utf-8")
        usage = help_text.split("\n\n")[0] + "\n"
        assert command_parsers(cli.build_parser())[command].format_help() == help_text
        assert command_parsers(cli.build_parser())[command].format_usage() == usage

    def test_each_call_builds_its_own_parser(self, capsys, filled, monkeypatch):
        # ``func`` is read when a command is filled, so a command patched
        # between calls is the one that runs.
        assert main(["split", *WHEEL]) == 0
        monkeypatch.setattr(cli, "cmd_split", lambda args: (0, {}, ["patched"]))
        assert main(["split", *WHEEL]) == 0
        assert capsys.readouterr().out.endswith("\npatched\n")
        assert filled == ["essplit split"] * 2


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(
        st.text() | st.integers() | st.booleans() | st.none(), inner, max_size=4
    ),
    max_leaves=20,
)


class TestJsonText:
    """``cli._json_text`` must give the bytes of ``json.dumps(indent=2)``."""

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_same_bytes_as_the_standard_library(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    def test_empty_containers_and_non_ascii(self):
        value = {"a": [], "b": {}, "c": ["é", "\n", " "], "d": [[], {}]}
        assert _json_text(value) == json.dumps(value, indent=2)

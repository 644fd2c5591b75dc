import hashlib
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
from essplit import BinaryMatroid, GF2Matrix, splitting
from essplit.cli import _json_text, main
from essplit.gf2 import format_matrix
from essplit.graphs import format_graph
from essplit.showcase import showcase_graph, showcase_matroid

from cli_golden import render
from reference import assert_same_output

GOLDEN = Path(__file__).parent / "golden" / "cli-wheel.txt"


@pytest.fixture()
def wheel_matrix_file(tmp_path):
    path = tmp_path / "wheel.txt"
    path.write_text(format_matrix(showcase_matroid().matrix))
    return str(path)


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


def test_every_command_matches_the_wheel_golden():
    assert_same_output(render(), GOLDEN.read_text())


# A 12-element base of rank 5 with a loop (p11, in X) and a parallel pair
# (p9, p12, one of them in X), drawn once from a seeded generator.  Its
# split has 89 circuits and 434 flats, enough for an ordering slip in the
# circuit trims or the flat listing to show.
MID_INSTANCE = ["--X", "p1,p2,p4,p8,p11,p12", "--e", "p2", "--mode", "both"]


@pytest.mark.parametrize("command", ["circuits", "flats"])
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_mid_instance_matches_its_golden(capsys, command, fmt, suffix):
    golden = GOLDEN.parent
    code, out, err = run(
        capsys, command, "--input", str(golden / "mid12.txt"),
        *MID_INSTANCE, "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert_same_output(out, (golden / f"mid12-{command}.{suffix}").read_text())


def golden_digests(name: str) -> dict[str, str]:
    """File name to sha256 hex digest, from a ``sha256sum`` listing."""
    text = (GOLDEN.parent / name).read_text()
    return {file: digest for digest, file in (line.split() for line in text.splitlines())}


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_mid_instance_sweep_matches_its_digest(capsys, fmt, suffix):
    # The exhaustive check covers all 16,384 subsets of the split and
    # finds 2,491 closure disagreements over 10 table cases, so it exits
    # 3.  The reports are pinned by digest: the JSON one is 1.3 MB.
    code, out, err = run(
        capsys, "check", "--input", str(GOLDEN.parent / "mid12.txt"),
        *MID_INSTANCE[:4], "--format", fmt,
    )
    assert (code, err) == (3, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == golden_digests("mid12-check.sha256")[f"mid12-check.{suffix}"]


# A 14-element base of rank 4 with loops at both ends (r01 outside X,
# r14 inside it), a parallel pair inside X (r05, r12) and one across X
# (r04 in it, r13 not), drawn once from a seeded generator.  Many base
# parts share a span, so the check walk meets each span from several
# bases; its 65,536 subsets give 5,906 closure disagreements, so exit 3.
MID14_INSTANCE = [
    "--input", str(GOLDEN.parent / "mid14.txt"),
    "--X", "r02,r04,r05,r07,r09,r10,r11,r12,r14", "--e", "r11",
]


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_shared_span_instance_sweep_matches_its_digest(capsys, fmt, suffix):
    code, out, err = run(capsys, "check", *MID14_INSTANCE, "--format", fmt)
    assert (code, err) == (3, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == golden_digests("mid14-check.sha256")[f"mid14-check.{suffix}"]


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_shared_span_instance_sample_matches_its_digest(capsys, fmt, suffix):
    # 5,000 distinct draws in draw order and the section on the base
    # flats, each base part queried on its own; 434 closure
    # disagreements, so exit 3.
    code, out, err = run(
        capsys, "check", *MID14_INSTANCE, "--sample", "5000", "--seed", "3",
        "--format", fmt,
    )
    assert (code, err) == (3, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == golden_digests("mid14-sample.sha256")[f"mid14-sample.{suffix}"]


# A 22-element base of rank 10 with a loop (q16) and a parallel pair
# (q14, q18), drawn once from a seeded generator.  Its split has 24
# elements, the enumeration cap, and rank 11, so the cycle-space walk
# visits 2^13 vectors; it has 1,701 circuits, pinned by digest.
MID22_INSTANCE = [
    "--input", str(GOLDEN.parent / "mid22.txt"),
    "--X", "q02,q03,q04,q05,q07,q08,q09,q11,q12,q14,q15,q16,q18,q19,q21,q22",
    "--e", "q07", "--mode", "both",
]


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_cap_instance_circuits_match_their_digest(capsys, fmt, suffix):
    code, out, err = run(capsys, "circuits", *MID22_INSTANCE, "--format", fmt)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == golden_digests("mid22-circuits.sha256")[f"mid22-circuits.{suffix}"]


# A 16-element base of rank 3 with two loops (s06, s10) and parallel
# classes, drawn once from a seeded generator.  Its split has 18
# elements and rank 4, and its 328 circuits, found by the cycle-space
# walk on the simplification and swapped over the parallel classes,
# are pinned by digest.
MID16_INSTANCE = [
    "--input", str(GOLDEN.parent / "mid16.txt"),
    "--X", "s01,s04,s05,s08,s09,s10,s11,s12,s14", "--e", "s14", "--mode", "both",
]


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_rank_three_instance_circuits_match_their_digest(capsys, fmt, suffix):
    code, out, err = run(capsys, "circuits", *MID16_INSTANCE, "--format", fmt)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == golden_digests("mid16-circuits.sha256")[f"mid16-circuits.{suffix}"]


# A 20-element base of rank 3 with four loops (t01, t07, t09, t17) and
# five parallel classes of two to four members, drawn once from a seeded
# generator.  It has 209 circuits; its split has 22 elements, rank 4
# and 695 circuits, pinned by digest.
LOW20_INSTANCE = [
    "--input", str(GOLDEN.parent / "low20.txt"),
    "--X", "t01,t02,t06,t09,t10,t11,t13,t14", "--e", "t14", "--mode", "both",
]


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_twenty_element_rank_three_circuits_match_their_digest(capsys, fmt, suffix):
    code, out, err = run(capsys, "circuits", *LOW20_INSTANCE, "--format", fmt)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == golden_digests("low20-circuits.sha256")[f"low20-circuits.{suffix}"]


# A 40-element base of rank 12 with a loop (v30) and parallel classes,
# drawn once from a seeded generator: above the 24-element circuit cap,
# which ``closure``, ``rank`` and ``flats --subset`` no longer reach.
LARGE_INSTANCE = [
    "--input", str(GOLDEN.parent / "large40.txt"),
    "--X", "v02,v04,v06,v08,v10,v11,v14,v15,v16,v17,v19,v20,v21,v22,v24,v27,v29,v31,v35,v37,v38",
    "--e", "v10",
]
LARGE_QUERY = ["--subset", "v06,v07,v09,v21,v25,v28,v37,gamma", "--mode", "both"]


@pytest.mark.parametrize("command", ["closure", "rank"])
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_large_instance_matches_its_golden(capsys, command, fmt, suffix):
    code, out, err = run(
        capsys, command, *LARGE_INSTANCE, *LARGE_QUERY, "--format", fmt
    )
    assert (code, err) == (0, "")
    assert_same_output(out, (GOLDEN.parent / f"large40-{command}.{suffix}").read_text())


class TestAboveTheCircuitCap:
    """``closure``, ``rank`` and ``flats --subset`` answer on 40 base
    elements; before the base facts came from ranks they exited 2."""

    @pytest.mark.parametrize("command", ["closure", "rank"])
    def test_query_agrees_with_the_oracle(self, capsys, command):
        code, out, err = run(
            capsys, command, *LARGE_INSTANCE, *LARGE_QUERY, "--format", "json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["agree"] is True

    def test_flats_subset_answers(self, capsys):
        code, out, _ = run(
            capsys, "closure", *LARGE_INSTANCE, *LARGE_QUERY, "--format", "json"
        )
        closed = ",".join(json.loads(out)["oracle"])
        code, out, err = run(
            capsys, "flats", *LARGE_INSTANCE, "--subset", closed, "--format", "json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["is_flat"] is True

    def test_check_keeps_its_caps(self, capsys):
        code, _, err = run(capsys, "check", *LARGE_INSTANCE, "--sample", "5")
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

    def test_byte_order_mark_in_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_text("\ufeffp q\n1 1\n", encoding="utf-8")
        code, out, err = run(capsys, "split", "--input", str(path), "--X", "p", "--e", "p")
        assert (code, err) == (0, "")
        assert out.splitlines()[0].split() == ["p", "q", "a", "gamma"]

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
        """The calls of ``walk_closures`` and ``closures_at``, each as the
        size of the matroid's ground and the arguments."""
        calls = {"walk_closures": [], "closures_at": []}
        for name, log in calls.items():

            def counting(m, *args, method=getattr(BinaryMatroid, name), log=log):
                log.append((len(m.ground), *args))
                return method(m, *args)

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
        assert calls["walk_closures"] == [(n + 2, (e, n, n + 1), n)]
        # The section on the base flats: one elimination per flat.
        flats = base.flats(masks=True)
        assert calls["closures_at"] == [(n + 2, f, (e, n, n + 1)) for f in flats]

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
        rng, drawn = random.Random(5), set()
        while len(drawn) < 300:
            drawn.add(rng.randrange(1 << n + 2))
        parts = {mask & (1 << n) - 1 for mask in drawn}
        assert len(parts) < len(drawn)
        assert calls["walk_closures"] == []
        queried = calls["closures_at"]
        assert {(size, extra) for size, _, extra in queried} == {(n + 2, (e, n, n + 1))}
        masks = [mask for _, mask, _ in queried]
        assert sorted(masks[: len(parts)]) == sorted(parts)
        assert masks[len(parts):] == list(base.flats(masks=True))


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
    def test_demo_runs_and_flags_known_defects(self, capsys):
        code, out, _ = run(capsys, "demo-fig2")
        assert code == 0
        assert "cl'({4,5,gamma}) = {3,4,5,gamma}" in out
        assert "rejected: {3,4,5,x,y,a}" in out
        assert "base rank: 4" in out
        assert "split rank: 5" in out

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


def test_help_is_written_for_users(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "Exit codes" in out
    assert "cmd_" not in out


@pytest.mark.parametrize(
    "command", ["split", "closure", "rank", "circuits", "flats", "check", "demo-fig2"]
)
def test_subcommand_help_returns_zero(capsys, command):
    assert main([command, "-h"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: essplit {command}")


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

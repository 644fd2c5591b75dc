import json
import random

import pytest

from essplit import (
    CLOSURE_RULE_CASE_IDS,
    BinaryMatroid,
    GF2Matrix,
    SplitContext,
    build_split_matrix,
    closure_rule,
    find_ox_subcircuit,
    predict_circuits,
    predict_closure,
    predict_is_flat,
    predict_rank,
    split_matroid,
)
from essplit import splitting
from essplit.splitting import _Key
from essplit.cli import main
from essplit.gf2 import format_matrix
from essplit.showcase import showcase_context
from essplit.errors import (
    BaseNotFlat,
    ElementNotInX,
    LabelCollision,
    PreconditionViolated,
    UnknownLabel,
)

from instances import (
    matroid_from_columns,
    random_columns,
    random_matroid,
    random_split_instance,
)
from reference import (
    OX,
    all_subsets,
    base_facts,
    circuits_by_overlap,
    classify_circuit,
    family_labels,
    plan_answers,
    predicted_circuits,
    reference_find_ox_subcircuit,
    span_sets,
)


def base_set(ctx, labels, field):
    """The set ``field`` (f, f_star or t) of A, in labels: f from the
    record of A, f_star and t from its span part."""
    facts = base_facts(ctx, labels)
    return ctx.labels_of({"f": facts.f, **span_sets(facts)}[field])


def shapes(ctx, masks):
    """Closure shapes of a record, as label sets."""
    return tuple(map(ctx.labels_of, masks))


class TestSplitContext:
    def test_label_collision(self, wheel_ctx):
        with pytest.raises(LabelCollision):
            SplitContext(wheel_ctx.base, frozenset("xy"), "y", label_a="x")
        with pytest.raises(LabelCollision):
            SplitContext(
                wheel_ctx.base, frozenset("xy"), "y", label_a="n", label_gamma="n"
            )

    def test_e_must_be_in_x(self, wheel_ctx):
        with pytest.raises(ElementNotInX):
            SplitContext(wheel_ctx.base, frozenset("x"), "y")

    def test_x_must_be_inside_ground(self, wheel_ctx):
        with pytest.raises(UnknownLabel):
            SplitContext(wheel_ctx.base, frozenset({"y", "zz"}), "y")


class TestBuildSplitMatrix:
    def test_shape_and_column_order(self, wheel_ctx):
        m = build_split_matrix(wheel_ctx)
        assert (m.n_rows, m.n_cols) == (6, 10)
        assert m.col_labels == wheel_ctx.base.ground + ("a", "gamma")

    def test_parity_row(self, wheel_ctx):
        m = build_split_matrix(wheel_ctx)
        ones = {lab for lab, bit in zip(m.col_labels, m.entries()[-1]) if bit}
        assert ones == {"x", "y", "a"}

    def test_gamma_column(self, wheel_ctx):
        m = build_split_matrix(wheel_ctx)
        assert m.column("gamma") == m.column("y") ^ m.column("a")


class TestSplitMatroid:
    def test_ground(self, wheel_ctx, wheel_split):
        assert wheel_split.ground == wheel_ctx.base.ground + ("a", "gamma")
        assert len(wheel_split.ground) == 10

    def test_rank_goes_up_by_one(self, wheel_ctx, wheel_split):
        assert wheel_split.rank_of(wheel_split.ground) == 5

    def test_triangle_circuit(self, wheel_split):
        assert frozenset({"y", "a", "gamma"}) in wheel_split.circuits()


class TestPredictCircuits:
    def test_wheel_examples(self, wheel_ctx):
        family = family_labels(wheel_ctx, predict_circuits(wheel_ctx))
        assert family["delta"] == frozenset({"y", "a", "gamma"})
        assert frozenset({"2", "6", "y", "a"}) in family["c2"]
        assert frozenset({"2", "6", "gamma"}) in family["c3"]

    def test_members_stay_inside_split_ground(self, wheel_ctx):
        universe = set(wheel_ctx.split_ground)
        for c in predicted_circuits(wheel_ctx):
            assert c <= universe

    def test_c1_members_are_minimal(self, wheel_ctx):
        c1 = family_labels(wheel_ctx, predict_circuits(wheel_ctx))["c1"]
        for u in c1:
            assert not any(v < u for v in c1)

    def test_family_matches_oracle_on_wheel(self, wheel_ctx, wheel_split):
        assert set(predicted_circuits(wheel_ctx)) == set(wheel_split.circuits())

    def test_spanned_marked_element_trims_gamma_extension(
        self, wheel_ctx, wheel_split
    ):
        # {2,3,6,x} has odd overlap and avoids y, but y is spanned by it,
        # so {2,3,6,x,y,gamma} holds the smaller circuit {3,x,y} and must
        # not be reported.
        bad = frozenset({"2", "3", "6", "x", "y", "gamma"})
        assert bad not in predicted_circuits(wheel_ctx)
        assert bad not in set(wheel_split.circuits())

    def test_paired_gamma_circuits_on_two_triangles(self):
        # Disjoint triangles, e on an even-overlap one: the gamma circuit
        # {p,q,r,s,t,gamma} comes from the even triangle through e plus
        # the odd one, a shape no single base circuit generates.
        cols = {
            "p": [1, 0, 0, 0],
            "q": [0, 1, 0, 0],
            "e": [1, 1, 0, 0],
            "r": [0, 0, 1, 0],
            "s": [0, 0, 0, 1],
            "t": [0, 0, 1, 1],
        }
        labels = list(cols)
        rows = [[cols[lab][i] for lab in labels] for i in range(4)]
        base = BinaryMatroid(GF2Matrix.from_rows(rows, labels))
        ctx = SplitContext(base, frozenset("epr"), "e", "a", "g")
        expected = frozenset({"p", "q", "r", "s", "t", "g"})
        assert expected in family_labels(ctx, predict_circuits(ctx))["c3"]
        assert set(predicted_circuits(ctx)) == set(split_matroid(ctx).circuits())

    def test_family_matches_oracle_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(30):
            ctx = random_split_instance(rng, rng.randint(4, 8))
            assert set(predicted_circuits(ctx)) == set(split_matroid(ctx).circuits())


class TestPredictRank:
    @pytest.mark.parametrize(
        "labels, expected",
        [(("a",), 1), (("2", "6", "gamma"), 2), (("4", "5", "x"), 3)],
    )
    def test_wheel_examples(self, wheel_ctx, labels, expected):
        assert predict_rank(wheel_ctx, labels) == expected

    def test_matches_oracle_exhaustively_on_wheel(self, wheel_ctx, wheel_split):
        for a_prime in all_subsets(wheel_split):
            assert predict_rank(wheel_ctx, a_prime) == wheel_split.rank_of(a_prime)


class TestBaseFacts:
    """``_BaseFacts`` reads rank(A), cl(A) and cl(A + e) off one basis of
    A; checked against ``rank_of`` and ``closure_of``, also when e is a
    loop, and one record serves all four queries of its A."""

    @staticmethod
    def random_contexts():
        rng = random.Random(6161)
        for _ in range(80):
            n = rng.randint(1, 8)
            m = matroid_from_columns(random_columns(rng, n, rng.randint(0, 5)), 5)
            loops = [lab for lab in m.ground if m.rank_of({lab}) == 0]
            e = rng.choice(loops if loops and rng.random() < 0.5 else m.ground)
            x = {e} | {lab for lab in m.ground if rng.random() < 0.5}
            yield SplitContext(m, x, e, "a", "g"), rng

    def test_rank_and_closures_match_the_oracle(self):
        e_loops = 0
        for ctx, rng in self.random_contexts():
            base = ctx.base
            e_loops += base.rank_of({ctx.e}) == 0
            for _ in range(8):
                a = frozenset(lab for lab in base.ground if rng.random() < 0.4)
                facts = base_facts(ctx, a)
                assert ctx.labels_of(facts.a) == a
                assert facts.rank == base.rank_of(a)
                assert ctx.labels_of(facts.cl) == base.closure_of(a)
                cl_e = span_sets(facts)["cl_e"]
                assert ctx.labels_of(cl_e) == base.closure_of(a | {ctx.e})
                assert _Key(facts.signature).e_in_cl == (ctx.e in base.closure_of(a))
        assert e_loops > 10

    # ``essplit check`` asks one record all four queries of its A; the
    # public predictors make a record per query.

    def test_shared_record_answers_like_fresh_ones(self):
        for ctx, rng in self.random_contexts():
            a = frozenset(lab for lab in ctx.base.ground if rng.random() < 0.5)
            facts = base_facts(ctx, a)
            for top, added in enumerate(((), ("a",), ("g",), ("a", "g"))):
                labels = a | set(added)
                answers = plan_answers(facts, top)
                matched, mask = answers["table"]
                report = predict_closure(ctx, labels)
                assert report.matched_cases == matched
                assert report.formula_result == (
                    None if mask is None else ctx.labels_of(mask)
                )
                assert answers["rank"] == predict_rank(ctx, labels)

    def test_closure_rule_reads_the_shared_record(self):
        for ctx, rng in self.random_contexts():
            a = frozenset(lab for lab in ctx.base.ground if rng.random() < 0.5)
            facts = base_facts(ctx, a)
            for top, added in enumerate(((), ("a",), ("g",), ("a", "g"))):
                matched, mask = plan_answers(facts, top)["rule"]
                report = closure_rule(ctx, a | set(added))
                assert report.matched_cases == matched
                assert report.formula_result == ctx.labels_of(mask)


class TestOxHelpers:
    """The odd-overlap facts of ``_BaseFacts``: whether A holds an OX
    circuit, T and F, on wheel examples."""

    def test_contains_ox_circuit(self, wheel_ctx):
        def ox_a(labels):
            return _Key(base_facts(wheel_ctx, labels).signature).ox_a

        assert not ox_a(frozenset())
        assert ox_a({"2", "6", "y"})
        assert not ox_a({"1", "5", "6"})

    def test_set_T_examples(self, wheel_ctx):
        assert base_set(wheel_ctx, {"4", "5"}, "t") == {"3"}
        assert base_set(wheel_ctx, {"1", "6"}, "t") == {"2"}
        assert base_set(wheel_ctx, wheel_ctx.base.ground, "t") == frozenset()

    def test_set_F_examples(self, wheel_ctx):
        assert base_set(wheel_ctx, {"4", "5"}, "f") == {"x"}
        assert base_set(wheel_ctx, {"2", "6"}, "f") == {"y"}
        assert base_set(wheel_ctx, {"1", "5"}, "f") == frozenset()

    def test_strict_containment_reading_is_untenable(self, wheel_ctx):
        # Reading the containment strictly (circuit a proper subset of
        # cl(A)) would empty F({4,5}): its witness circuit {4,5,x} IS the
        # whole closure.  The recorded value {x} pins the non-strict
        # reading.
        a = frozenset({"4", "5"})
        closure = wheel_ctx.base.closure_of(a)
        strict = frozenset(
            z
            for c in circuits_by_overlap(wheel_ctx)[0]
            if c < closure
            for z in c & (closure - a)
        )
        assert strict == frozenset()
        assert base_set(wheel_ctx, a, "f") == {"x"}


class TestFindOxSubcircuit:
    def test_wheel_instance(self, wheel_ctx):
        got = find_ox_subcircuit(
            wheel_ctx,
            frozenset({"2", "6", "y"}),
            frozenset({"3", "x", "y"}),
            frozenset({"2", "3", "6", "x"}),
        )
        assert got == frozenset({"2", "3", "6", "x"})
        assert "y" not in got
        assert got in wheel_ctx.base.circuits()

    def test_precondition_violations(self, wheel_ctx):
        c_ox = frozenset({"2", "6", "y"})
        c_ex = frozenset({"3", "x", "y"})
        with pytest.raises(PreconditionViolated, match="not a circuit"):
            find_ox_subcircuit(wheel_ctx, {"2", "6"}, c_ex, frozenset("236x"))
        with pytest.raises(PreconditionViolated, match="even overlap"):
            find_ox_subcircuit(wheel_ctx, c_ex, c_ex, frozenset("236x"))
        with pytest.raises(PreconditionViolated, match="inside"):
            find_ox_subcircuit(wheel_ctx, c_ox, c_ex, frozenset({"2", "6"}))

    def test_randomized_instances(self):
        rng = random.Random(77)
        found = 0
        while found < 25:
            ctx = random_split_instance(rng, rng.randint(4, 7))
            ox, ex = circuits_by_overlap(ctx)
            ox_e = [c for c in ox if ctx.e in c]
            ex_e = [c for c in ex if ctx.e in c]
            for c_ox in ox_e[:3]:
                for c_ex in ex_e[:3]:
                    a = (c_ox | c_ex) - {ctx.e}
                    got = find_ox_subcircuit(ctx, c_ox, c_ex, a)
                    assert got <= a
                    assert classify_circuit(got, ctx.x_set) == OX
                    assert got in ctx.base.circuits()
                    found += 1

    @staticmethod
    def outcome(find, ctx, c_ox, c_ex, a):
        """The circuit found, or the type and message of the refusal."""
        try:
            return "found", find(ctx, c_ox, c_ex, a)
        except (PreconditionViolated, UnknownLabel) as exc:
            return type(exc).__name__, str(exc)

    def test_matches_the_label_reference(self):
        # The mask version against its label-set form, on valid triples
        # and on triples that break each check in turn: circuits of the
        # wrong parity or missing e, sets that are no circuit (labels
        # outside the base ground among them), and parts A that are too
        # small or hold labels outside the base ground.
        rng = random.Random(4242)
        seen = set()
        for _ in range(80):
            ctx = random_split_instance(rng, rng.randint(4, 8))
            ground = list(ctx.base.ground)
            circuits = list(ctx.base.circuits())
            if not circuits:
                continue
            ox, ex = circuits_by_overlap(ctx)
            ox_e = [c for c in ox if ctx.e in c] or circuits
            ex_e = [c for c in ex if ctx.e in c] or circuits
            c = rng.choice(circuits)
            pool = circuits + [
                frozenset(rng.sample(ground, rng.randint(1, len(ground)))),
                c | {"zz"},
                c | {ctx.label_gamma},
                c - {rng.choice(sorted(c))},
            ]
            for _ in range(30):
                wanted = rng.random() < 0.6
                c_ox = rng.choice(ox_e if wanted else pool)
                c_ex = rng.choice(ex_e if rng.random() < 0.6 else pool)
                a = (c_ox | c_ex) - {ctx.e}
                roll = rng.random()
                if roll < 0.3 and a:
                    a = a - {rng.choice(sorted(a))}
                elif roll < 0.4:
                    a = a | {rng.choice(["zz", ctx.label_a, ctx.label_gamma])}
                elif roll < 0.6:
                    a = a | {rng.choice(ground)}
                got = self.outcome(find_ox_subcircuit, ctx, c_ox, c_ex, a)
                want = self.outcome(reference_find_ox_subcircuit, ctx, c_ox, c_ex, a)
                assert got == want, (c_ox, c_ex, a)
                seen.add(want[1] if want[0] == "PreconditionViolated" else want[0])
        assert seen == {
            "found",
            "UnknownLabel",
            "c_ox is not a circuit",
            "c_ex is not a circuit",
            "c_ox has even overlap with X",
            "c_ex has odd overlap with X",
            "e is missing from c_ox",
            "e is missing from c_ex",
            "c_ox is not inside A + e",
            "c_ex is not inside A + e",
        }


class TestPredictClosure:
    @pytest.mark.parametrize(
        "labels, cases, expected",
        [
            (("4", "5"), ("L3.2",), ("4", "5")),
            (("1", "5"), ("L3.2", "L3.3"), ("1", "5", "6")),
            (("1", "6", "a"), ("L3.4.2",), ("1", "5", "6", "a")),
            (("2", "6"), ("L3.5",), ("2", "6", "gamma")),
            (("4", "5", "gamma"), ("L3.6",), ("3", "4", "5", "gamma")),
            (("1", "6", "gamma"), ("L3.7",), ("1", "2", "5", "6", "gamma")),
            (("a", "gamma"), ("L3.8.1",), ("y", "a", "gamma")),
            (("2", "6", "a"), ("L3.8.2",), ("2", "6", "y", "a", "gamma")),
            (("2", "6", "y"), ("L3.8.5",), ("2", "6", "y", "a", "gamma")),
        ],
    )
    def test_sound_cases_agree_with_oracle(
        self, wheel_ctx, wheel_split, labels, cases, expected
    ):
        report = predict_closure(wheel_ctx, labels)
        assert report.matched_cases == cases
        assert report.formula_result == frozenset(expected)
        assert wheel_split.closure_of(labels) == frozenset(expected)

    def test_known_gamma_only_overshoot(self, wheel_ctx, wheel_split):
        # With gamma added to a set that spans y through odd circuits
        # only, the case formula claims a and y enter the closure; the
        # matrix says otherwise.  Pinned as the canonical disagreement.
        labels = ("2", "6", "gamma")
        report = predict_closure(wheel_ctx, labels)
        assert report.matched_cases == ("L3.8.4",)
        assert report.formula_result == frozenset({"2", "6", "y", "a", "gamma"})
        assert wheel_split.closure_of(labels) == frozenset({"2", "6", "gamma"})

    def test_known_missing_reachable_elements(self, wheel_ctx, wheel_split):
        # The all-new-elements formula omits elements that enter the
        # closure through gamma-rewritten circuits (here 3, via {3,4,5,y}).
        labels = ("4", "5", "x", "gamma")
        report = predict_closure(wheel_ctx, labels)
        assert report.matched_cases == ("L3.8.3",)
        assert report.formula_result == frozenset(
            {"4", "5", "x", "y", "a", "gamma"}
        )
        assert wheel_split.closure_of(labels) == frozenset(
            {"3", "4", "5", "x", "y", "a", "gamma"}
        )

    def test_known_oversubtraction(self, wheel_ctx, wheel_split):
        # 6 sits on an odd-overlap circuit inside cl({1,4,5}) and is
        # subtracted, yet the even circuit {1,5,6} keeps it reachable.
        labels = ("1", "4", "5")
        report = predict_closure(wheel_ctx, labels)
        assert report.matched_cases == ("L3.2",)
        assert report.formula_result == frozenset({"1", "4", "5"})
        assert wheel_split.closure_of(labels) == frozenset({"1", "4", "5", "6"})

    def test_every_wheel_query_hits_some_case(self, wheel_ctx, wheel_split):
        for a_prime in all_subsets(wheel_split):
            report = predict_closure(wheel_ctx, a_prime)
            assert report.matched_cases

    def test_report_dict_schema(self, wheel_ctx, tmp_path, capsys):
        # The report's JSON form is the payload of ``essplit closure``: a
        # route not taken reads null, and agree needs both routes.
        path = tmp_path / "wheel.txt"
        path.write_text(format_matrix(wheel_ctx.base.matrix))
        argv = ["closure", "--input", str(path), "--X", "x,y", "--e", "y"]
        closure = ["2", "6", "gamma"]
        expected = {
            "formula": {"matched": ["L3.5"], "formula": closure, "oracle": None, "agree": None},
            "oracle": {"matched": None, "formula": None, "oracle": closure, "agree": None},
            "both": {"matched": ["L3.5"], "formula": closure, "oracle": closure, "agree": True},
        }
        for mode, payload in expected.items():
            assert main([*argv, "--subset", "2,6", "--mode", mode, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == payload

    def test_unknown_label(self, wheel_ctx):
        message = r"labels \['zz'\] are not split elements"
        for predictor in (predict_closure, closure_rule, predict_rank, predict_is_flat):
            with pytest.raises(UnknownLabel, match=message):
                predictor(wheel_ctx, ("1", "zz"))


class TestClosureViaPredictedFamily:
    """The construction-level route is complete: applying the standard
    circuit description of closure to the predicted circuit family (base
    data only, no split matrix) reproduces the oracle closure on every
    query.  The case table's disagreements are therefore its own."""

    @staticmethod
    def closure_via_family(ctx, circuits, a_prime):
        out = set(a_prime)
        for z in ctx.split_ground:
            if z not in out and any(
                z in c and c <= a_prime | {z} for c in circuits
            ):
                out.add(z)
        return frozenset(out)

    def test_wheel_exhaustive(self, wheel_ctx, wheel_split):
        circuits = predicted_circuits(wheel_ctx)
        for a_prime in all_subsets(wheel_split):
            assert self.closure_via_family(
                wheel_ctx, circuits, a_prime
            ) == wheel_split.closure_of(a_prime)

    def test_random_instances(self):
        rng = random.Random(90)
        for _ in range(10):
            ctx = random_split_instance(rng, rng.randint(4, 6))
            oracle = split_matroid(ctx)
            circuits = predicted_circuits(ctx)
            for a_prime in all_subsets(oracle):
                assert self.closure_via_family(
                    ctx, circuits, a_prime
                ) == oracle.closure_of(a_prime)


class TestClosureShapes:
    def test_shapes_at_spoke_pair(self, wheel_ctx):
        found = shapes(wheel_ctx, base_facts(wheel_ctx, {"4", "5"}).shapes[:7])
        assert frozenset({"4", "5"}) in found  # closure minus F
        assert frozenset({"3", "4", "5", "gamma"}) in found
        assert frozenset({"4", "5", "x", "y", "a", "gamma"}) in found
        assert len(found) == 7


class TestClosureRule:
    @pytest.mark.parametrize(
        "labels, case, expected",
        [
            (("1", "6", "a"), "R1.1", ("1", "5", "6", "a")),
            (("2", "6", "y"), "R1.1", ("2", "6", "y", "a", "gamma")),
            (("4", "5", "x", "gamma"), "R1.2", ("3", "4", "5", "x", "y", "a", "gamma")),
            (("a", "gamma"), "R1.2", ("y", "a", "gamma")),
            (("1", "4", "5"), "R2", ("1", "4", "5", "6")),
            (("2", "6"), "R2", ("2", "6", "gamma")),
            (("2", "6", "gamma"), "R3.1", ("2", "6", "gamma")),
            (("3", "x", "gamma"), "R3.2", ("3", "x", "y", "a", "gamma")),
            (("4", "5", "gamma"), "R3.3", ("3", "4", "5", "gamma")),
            (("1", "6", "gamma"), "R3.3", ("1", "2", "5", "6", "gamma")),
        ],
    )
    def test_wheel_examples(self, wheel_ctx, wheel_split, labels, case, expected):
        report = closure_rule(wheel_ctx, labels)
        assert report.matched_cases == (case,)
        assert report.formula_result == frozenset(expected)
        assert wheel_split.closure_of(labels) == frozenset(expected)

    def test_wheel_exhaustive(self, wheel_ctx, wheel_split):
        hits = set()
        for a_prime in all_subsets(wheel_split):
            report = closure_rule(wheel_ctx, a_prime)
            assert len(report.matched_cases) == 1
            assert report.formula_result == wheel_split.closure_of(a_prime)
            rule_shapes = base_facts(wheel_ctx, a_prime).shapes[7:]
            assert report.formula_result in shapes(wheel_ctx, rule_shapes)
            hits.update(report.matched_cases)
        assert hits == set(CLOSURE_RULE_CASE_IDS)

    def test_random_instances_with_any_marked_element(self):
        # Unlike the shared generator this one may mark a loop; the
        # parity argument does not exclude it.
        rng = random.Random(1011)
        for _ in range(60):
            base = random_matroid(rng, rng.randint(1, 7), 4)
            e = rng.choice(base.ground)
            x = frozenset(
                [e] + [lab for lab in base.ground if lab != e and rng.random() < 0.5]
            )
            ctx = SplitContext(base, x, e, "a", "g")
            oracle = split_matroid(ctx)
            for a_prime in all_subsets(oracle):
                report = closure_rule(ctx, a_prime)
                assert len(report.matched_cases) == 1
                assert report.formula_result == oracle.closure_of(a_prime)

    def test_reads_base_data_only(self, wheel_ctx, wheel_split, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the split matroid was built")

        monkeypatch.setattr(splitting, "split_matroid", forbidden)
        monkeypatch.setattr(splitting, "build_split_matrix", forbidden)
        for a_prime in all_subsets(wheel_split):
            closure_rule(wheel_ctx, a_prime)
            base_facts(wheel_ctx, a_prime)

    def test_shapes_at_spoke_pair(self, wheel_ctx):
        rule_shapes = base_facts(wheel_ctx, {"4", "5"}).shapes[7:]
        assert shapes(wheel_ctx, rule_shapes) == (
            frozenset({"4", "5"}),
            frozenset({"4", "5", "gamma"}),
            frozenset({"3", "4", "5", "gamma"}),
            frozenset({"4", "5", "x", "a"}),
            frozenset({"3", "4", "5", "x", "y", "a", "gamma"}),
        )

    def test_set_F_star_keeps_even_reachable_elements(self, wheel_ctx):
        # 6 lies on an odd-overlap circuit inside cl({1,4,5}), so F drops
        # it, but no odd-overlap circuit through 6 lies inside {1,4,5,6}:
        # the even circuit {1,5,6} keeps it out of F*.
        assert base_set(wheel_ctx, {"1", "4", "5"}, "f") == {"6", "x"}
        assert base_set(wheel_ctx, {"1", "4", "5"}, "f_star") == {"x"}
        assert base_set(wheel_ctx, {"2", "6"}, "f_star") == {"y"}
        assert base_set(wheel_ctx, {"1", "5"}, "f_star") == frozenset()


class TestPredictIsFlat:
    def test_plain_flat(self, wheel_ctx):
        # Conditions 1 and 2 both hold; the first one wins.
        assert predict_is_flat(wheel_ctx, ("1", "5", "6")) == 1

    def test_a_extension(self, wheel_ctx):
        assert predict_is_flat(wheel_ctx, ("4", "5", "a", "x")) == 3

    def test_both_new_elements(self, wheel_ctx):
        assert predict_is_flat(wheel_ctx, ("y", "a", "gamma")) == 6

    def test_none_when_no_condition_holds(self, wheel_ctx, wheel_split):
        labels = ("5", "y", "gamma")
        assert predict_is_flat(wheel_ctx, labels) is None
        assert not wheel_split.is_flat(labels)

    def test_base_must_be_flat(self, wheel_ctx):
        with pytest.raises(BaseNotFlat):
            predict_is_flat(wheel_ctx, ("4", "5"))

    def test_flatness_is_checked_before_the_circuits(self, wheel_ctx):
        # A base part that is not a flat is refused without enumerating
        # the base circuits, so a base above the enumeration cap still
        # gives BaseNotFlat.
        base = BinaryMatroid(wheel_ctx.base.matrix, enumeration_cap=2)
        ctx = SplitContext(base, wheel_ctx.x_set, wheel_ctx.e)
        with pytest.raises(BaseNotFlat):
            predict_is_flat(ctx, ("4", "5"))
        assert base._circuits is None


class TestLoopMarkedElementDegeneracy:
    """A loop as the marked element breaks the triangle {e, a, gamma}:
    gamma duplicates the zero column, so {gamma} is itself a circuit.
    Generators therefore never mark a loop."""

    def make_ctx(self):
        base = BinaryMatroid(GF2Matrix.from_rows([[0, 1]], ["z", "p"]))
        return SplitContext(base, frozenset({"z"}), "z", "a", "g")

    def test_gamma_becomes_a_loop(self):
        ctx = self.make_ctx()
        oracle = split_matroid(ctx)
        assert frozenset({"g"}) in oracle.circuits()
        assert frozenset({"z", "a", "g"}) not in oracle.circuits()

    def test_family_still_matches_oracle(self):
        ctx = self.make_ctx()
        assert set(predicted_circuits(ctx)) == set(split_matroid(ctx).circuits())


class TestNoCircuitEnumeration:
    """The query predictors read ranks and closures of the base and of
    M' only: with ``BinaryMatroid.circuits`` raising, they still answer,
    and agree with the oracle."""

    def test_predictors_answer_without_circuits(self, monkeypatch):
        ctx = showcase_context()
        oracle = split_matroid(ctx)

        def forbidden(*args, **kwargs):
            raise AssertionError("circuits were enumerated")

        monkeypatch.setattr(BinaryMatroid, "circuits", forbidden)
        for a_prime in all_subsets(oracle):
            assert predict_rank(ctx, a_prime) == oracle.rank_of(a_prime)
            assert closure_rule(ctx, a_prime).formula_result == oracle.closure_of(a_prime)
            assert predict_closure(ctx, a_prime).matched_cases
        conditions = set()
        for flat in ctx.base.flats():
            for added in ((), ("a",), ("gamma",), ("a", "gamma")):
                condition = predict_is_flat(ctx, flat | set(added))
                if condition is not None:
                    assert oracle.is_flat(flat | set(added))
                conditions.add(condition)
        assert conditions - {None}
        with pytest.raises(AssertionError, match="enumerated"):
            predict_circuits(ctx)


class TestLargeBases:
    """``closure_rule`` and ``predict_rank`` at 40 and 60 base elements,
    far above the circuit cap, against the split oracle's
    ``closures_at`` on random queries.  The bases have loops and
    parallel classes, and e is sometimes a loop."""

    @pytest.mark.parametrize("n, n_rows, seed", [(40, 12, 4040), (60, 20, 6060)])
    def test_rule_and_rank_match_the_oracle(self, n, n_rows, seed):
        rng = random.Random(seed)
        e_loops = 0
        for _ in range(6):
            base = matroid_from_columns(random_columns(rng, n, n_rows), n_rows)
            loops = [lab for lab in base.ground if base.rank_of({lab}) == 0]
            e = rng.choice(loops if loops and rng.random() < 0.3 else base.ground)
            e_loops += e in loops
            x = {e} | {lab for lab in base.ground if rng.random() < 0.5}
            ctx = SplitContext(base, x, e, "a", "g")
            oracle = split_matroid(ctx)
            for _ in range(30):
                density = rng.choice((0.1, 0.25, 0.5))
                part = sum(1 << i for i in range(n) if rng.random() < density)
                spans = oracle.closures_at(part, (n, n + 1))
                for top, added in enumerate(((), ("a",), ("g",), ("a", "g"))):
                    labels = ctx.labels_of(part) | set(added)
                    rank, closure = spans[top]
                    assert predict_rank(ctx, labels) == rank
                    report = closure_rule(ctx, labels)
                    assert report.formula_result == ctx.labels_of(closure)
        assert e_loops >= 1

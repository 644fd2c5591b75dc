import random

import pytest

from essplit import (
    CLOSURE_RULE_CASE_IDS,
    BinaryMatroid,
    GF2Matrix,
    SplitContext,
    SplitQuery,
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
from essplit.errors import (
    BaseNotFlat,
    ElementNotInX,
    LabelCollision,
    PreconditionViolated,
    UnknownLabel,
)
from essplit.matroid import OX, classify_circuit

from instances import (
    matroid_from_columns,
    random_columns,
    random_matroid,
    random_split_instance,
)


def q_of(ctx, labels):
    return SplitQuery.of(ctx, labels)


def base_facts(ctx, labels):
    """The ``_BaseFacts`` record of the base part with these labels."""
    return splitting._BaseFacts.of(ctx, labels)


def base_set(ctx, labels, field):
    """The set ``field`` (f, f_star or t) of the record of A, in labels."""
    return ctx.labels_of(getattr(base_facts(ctx, labels), field))


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
        family = predict_circuits(wheel_ctx)
        assert family.delta == frozenset({"y", "a", "gamma"})
        assert frozenset({"2", "6", "y", "a"}) in family.c2
        assert frozenset({"2", "6", "gamma"}) in family.c3

    def test_members_stay_inside_split_ground(self, wheel_ctx):
        family = predict_circuits(wheel_ctx)
        universe = set(wheel_ctx.split_ground)
        for c in family.all_circuits():
            assert c <= universe

    def test_c1_members_are_minimal(self, wheel_ctx):
        family = predict_circuits(wheel_ctx)
        for u in family.c1:
            assert not any(v < u for v in family.c1)

    def test_family_matches_oracle_on_wheel(self, wheel_ctx, wheel_split):
        assert set(predict_circuits(wheel_ctx).all_circuits()) == set(
            wheel_split.circuits()
        )

    def test_spanned_marked_element_trims_gamma_extension(
        self, wheel_ctx, wheel_split
    ):
        # {2,3,6,x} has odd overlap and avoids y, but y is spanned by it,
        # so {2,3,6,x,y,gamma} holds the smaller circuit {3,x,y} and must
        # not be reported.
        family = predict_circuits(wheel_ctx)
        bad = frozenset({"2", "3", "6", "x", "y", "gamma"})
        assert bad not in family.all_circuits()
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
        family = predict_circuits(ctx)
        assert expected in family.c3
        assert set(family.all_circuits()) == set(split_matroid(ctx).circuits())

    def test_family_matches_oracle_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(30):
            ctx = random_split_instance(rng, rng.randint(4, 8))
            assert set(predict_circuits(ctx).all_circuits()) == set(
                split_matroid(ctx).circuits()
            )


class TestPredictRank:
    @pytest.mark.parametrize(
        "labels, expected",
        [(("a",), 1), (("2", "6", "gamma"), 2), (("4", "5", "x"), 3)],
    )
    def test_wheel_examples(self, wheel_ctx, labels, expected):
        assert predict_rank(wheel_ctx, q_of(wheel_ctx, labels)) == expected

    def test_matches_oracle_exhaustively_on_wheel(self, wheel_ctx, wheel_split):
        for a_prime in wheel_split.all_subsets():
            q = q_of(wheel_ctx, a_prime)
            assert predict_rank(wheel_ctx, q) == wheel_split.rank_of(a_prime)


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
                facts = splitting._BaseFacts.of(ctx, a)
                assert ctx.labels_of(facts.a) == a
                assert facts.rank == base.rank_of(a)
                assert ctx.labels_of(facts.cl) == base.closure_of(a)
                assert ctx.labels_of(facts.cl_e) == base.closure_of(a | {ctx.e})
                assert facts.e_in_cl == (ctx.e in base.closure_of(a))
        assert e_loops > 10

    def test_shared_record_answers_like_fresh_ones(self):
        for ctx, rng in self.random_contexts():
            a = frozenset(lab for lab in ctx.base.ground if rng.random() < 0.5)
            facts = splitting._BaseFacts.of(ctx, a)
            for added in ((), ("a",), ("g",), ("a", "g")):
                q = q_of(ctx, a | set(added))
                assert predict_closure(ctx, q, facts=facts) == predict_closure(ctx, q)
                assert predict_rank(ctx, q, facts=facts) == predict_rank(ctx, q)

    def test_closure_rule_reads_the_shared_record(self, wheel_ctx):
        for ctx, rng in self.random_contexts():
            a = frozenset(lab for lab in ctx.base.ground if rng.random() < 0.5)
            facts = splitting._BaseFacts.of(ctx, a)
            for added in ((), ("a",), ("g",), ("a", "g")):
                q = q_of(ctx, a | set(added))
                assert closure_rule(ctx, q, facts=facts) == closure_rule(ctx, q)
        facts = splitting._BaseFacts.of(wheel_ctx, {"1", "2"})
        with pytest.raises(ValueError):
            closure_rule(wheel_ctx, q_of(wheel_ctx, {"1", "gamma"}), facts=facts)

    def test_record_of_another_base_part_is_refused(self, wheel_ctx):
        facts = splitting._BaseFacts.of(wheel_ctx, {"1", "2"})
        with pytest.raises(ValueError):
            predict_rank(wheel_ctx, q_of(wheel_ctx, {"1", "a"}), facts=facts)
        with pytest.raises(ValueError):
            predict_closure(wheel_ctx, q_of(wheel_ctx, {"1", "3"}), facts=facts)


class TestOxHelpers:
    """The odd-overlap facts of ``_BaseFacts``: whether A holds an OX
    circuit, T and F, on wheel examples."""

    def test_contains_ox_circuit(self, wheel_ctx):
        assert not base_facts(wheel_ctx, frozenset()).ox_a
        assert base_facts(wheel_ctx, {"2", "6", "y"}).ox_a
        assert not base_facts(wheel_ctx, {"1", "5", "6"}).ox_a

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
            for c in wheel_ctx.ox_circuits
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
            ox_e = [c for c in ctx.ox_circuits if ctx.e in c]
            ex_e = [c for c in ctx.ex_circuits if ctx.e in c]
            for c_ox in ox_e[:3]:
                for c_ex in ex_e[:3]:
                    a = (c_ox | c_ex) - {ctx.e}
                    got = find_ox_subcircuit(ctx, c_ox, c_ex, a)
                    assert got <= a
                    assert classify_circuit(got, ctx.x_set) == OX
                    assert got in ctx.base.circuits()
                    found += 1


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
    def test_sound_cases_agree_with_oracle(self, wheel_ctx, labels, cases, expected):
        report = predict_closure(wheel_ctx, q_of(wheel_ctx, labels), with_oracle=True)
        assert report.matched_cases == cases
        assert report.formula_result == frozenset(expected)
        assert report.oracle_result == frozenset(expected)
        assert report.agreement is True

    def test_known_gamma_only_overshoot(self, wheel_ctx):
        # With gamma added to a set that spans y through odd circuits
        # only, the case formula claims a and y enter the closure; the
        # matrix says otherwise.  Pinned as the canonical disagreement.
        report = predict_closure(
            wheel_ctx, q_of(wheel_ctx, ("2", "6", "gamma")), with_oracle=True
        )
        assert report.matched_cases == ("L3.8.4",)
        assert report.formula_result == frozenset({"2", "6", "y", "a", "gamma"})
        assert report.oracle_result == frozenset({"2", "6", "gamma"})
        assert report.agreement is False

    def test_known_missing_reachable_elements(self, wheel_ctx):
        # The all-new-elements formula omits elements that enter the
        # closure through gamma-rewritten circuits (here 3, via {3,4,5,y}).
        report = predict_closure(
            wheel_ctx, q_of(wheel_ctx, ("4", "5", "x", "gamma")), with_oracle=True
        )
        assert report.matched_cases == ("L3.8.3",)
        assert report.formula_result == frozenset(
            {"4", "5", "x", "y", "a", "gamma"}
        )
        assert report.oracle_result == frozenset(
            {"3", "4", "5", "x", "y", "a", "gamma"}
        )
        assert report.agreement is False

    def test_known_oversubtraction(self, wheel_ctx):
        # 6 sits on an odd-overlap circuit inside cl({1,4,5}) and is
        # subtracted, yet the even circuit {1,5,6} keeps it reachable.
        report = predict_closure(
            wheel_ctx, q_of(wheel_ctx, ("1", "4", "5")), with_oracle=True
        )
        assert report.matched_cases == ("L3.2",)
        assert report.formula_result == frozenset({"1", "4", "5"})
        assert report.oracle_result == frozenset({"1", "4", "5", "6"})
        assert report.agreement is False

    def test_every_wheel_query_hits_some_case(self, wheel_ctx, wheel_split):
        for a_prime in wheel_split.all_subsets():
            report = predict_closure(wheel_ctx, q_of(wheel_ctx, a_prime))
            assert report.matched_cases

    def test_report_dict_schema(self, wheel_ctx):
        report = predict_closure(
            wheel_ctx, q_of(wheel_ctx, ("2", "6")), with_oracle=True
        )
        assert report.as_dict(wheel_ctx) == {
            "matched": ["L3.5"],
            "formula": ["2", "6", "gamma"],
            "oracle": ["2", "6", "gamma"],
            "agree": True,
        }

    def test_unknown_label(self, wheel_ctx):
        with pytest.raises(UnknownLabel):
            q_of(wheel_ctx, ("zz",))


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
        circuits = predict_circuits(wheel_ctx).all_circuits()
        for a_prime in wheel_split.all_subsets():
            assert self.closure_via_family(
                wheel_ctx, circuits, a_prime
            ) == wheel_split.closure_of(a_prime)

    def test_random_instances(self):
        rng = random.Random(90)
        for _ in range(10):
            ctx = random_split_instance(rng, rng.randint(4, 6))
            oracle = split_matroid(ctx)
            circuits = predict_circuits(ctx).all_circuits()
            for a_prime in oracle.all_subsets():
                assert self.closure_via_family(
                    ctx, circuits, a_prime
                ) == oracle.closure_of(a_prime)


class TestClosureShapes:
    def test_shapes_at_spoke_pair(self, wheel_ctx):
        found = shapes(wheel_ctx, base_facts(wheel_ctx, {"4", "5"}).table_shapes)
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
    def test_wheel_examples(self, wheel_ctx, labels, case, expected):
        report = closure_rule(wheel_ctx, q_of(wheel_ctx, labels), with_oracle=True)
        assert report.matched_cases == (case,)
        assert report.formula_result == frozenset(expected)
        assert report.agreement is True

    def test_wheel_exhaustive(self, wheel_ctx, wheel_split):
        hits = set()
        for a_prime in wheel_split.all_subsets():
            q = q_of(wheel_ctx, a_prime)
            report = closure_rule(wheel_ctx, q)
            assert len(report.matched_cases) == 1
            assert report.formula_result == wheel_split.closure_of(a_prime)
            rule_shapes = base_facts(wheel_ctx, q.a).rule_shapes
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
            for a_prime in oracle.all_subsets():
                report = closure_rule(ctx, q_of(ctx, a_prime))
                assert len(report.matched_cases) == 1
                assert report.formula_result == oracle.closure_of(a_prime)

    def test_reads_base_data_only(self, wheel_ctx, wheel_split, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the split matroid was built")

        monkeypatch.setattr(splitting, "split_matroid", forbidden)
        monkeypatch.setattr(splitting, "build_split_matrix", forbidden)
        for a_prime in wheel_split.all_subsets():
            q = q_of(wheel_ctx, a_prime)
            assert closure_rule(wheel_ctx, q).oracle_result is None
            base_facts(wheel_ctx, q.a)

    def test_shapes_at_spoke_pair(self, wheel_ctx):
        rule_shapes = base_facts(wheel_ctx, {"4", "5"}).rule_shapes
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
        assert predict_is_flat(wheel_ctx, q_of(wheel_ctx, ("1", "5", "6"))) == 1

    def test_a_extension(self, wheel_ctx):
        assert predict_is_flat(wheel_ctx, q_of(wheel_ctx, ("4", "5", "a", "x"))) == 3

    def test_both_new_elements(self, wheel_ctx):
        assert predict_is_flat(wheel_ctx, q_of(wheel_ctx, ("y", "a", "gamma"))) == 6

    def test_none_when_no_condition_holds(self, wheel_ctx, wheel_split):
        q = q_of(wheel_ctx, ("5", "y", "gamma"))
        assert predict_is_flat(wheel_ctx, q) is None
        assert not wheel_split.is_flat(q.a_prime)

    def test_base_must_be_flat(self, wheel_ctx):
        with pytest.raises(BaseNotFlat):
            predict_is_flat(wheel_ctx, q_of(wheel_ctx, ("4", "5")))


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
        assert set(predict_circuits(ctx).all_circuits()) == set(
            split_matroid(ctx).circuits()
        )

"""Driver tests: frozen corpus verdicts, the escalation ladder, option
handling, resource caps, and both report formats."""

import json
import sys
from collections import Counter

import pytest

from conftest import corpus_program

from termiarith.driver import (
    NO,
    NO_HEADLINE,
    YES,
    AnalysisOptions,
    analyse_termination,
    render_report,
    verdict_payload,
)
from termiarith.graph import find_integer_loops
from termiarith.modes import infer_argument_modes
from termiarith.norms import infer_size_relations
from termiarith.syntax import parse_query_pattern


def analyse(name, query, **kwargs):
    options = AnalysisOptions(**kwargs)
    return analyse_termination(
        corpus_program(name), parse_query_pattern(query), options
    )


# (corpus file, query, expected answer, expected method)
VERDICTS = [
    ("facts", "f(i)", YES, "acyclic program"),
    ("facts", "g(b, f)", YES, "acyclic program"),
    ("r", "r(i)", YES, "collected comparisons"),
    ("p_int", "p(i)", YES, "collected comparisons"),
    ("t", "t(i)", YES, "collected comparisons"),
    ("mod", "mod(i, i, f)", YES, "collected comparisons"),
    ("p_difficult", "p(i, i)", YES, "collected comparisons"),
    ("q_mixed", "q(b, f, i)", YES, "collected comparisons"),
    ("gcd", "gcd(i, i, f)", YES, "collected comparisons + answer abstraction"),
    (
        "mc91",
        "mc_carthy_91(i, f)",
        YES,
        "unfold x1 + inferred comparisons + answer abstraction",
    ),
    ("loop", "loop(i)", NO, None),
    ("s", "s(i)", NO, None),
    ("ex2_p", "p(i)", NO, None),
    ("ex2_q", "q(i)", NO, None),
]


class TestCorpusVerdicts:
    @pytest.mark.parametrize(
        "name,query,answer,method",
        VERDICTS,
        ids=[f"{name}:{query}" for name, query, _, _ in VERDICTS],
    )
    def test_answer_and_method(self, name, query, answer, method):
        verdict = analyse(name, query)
        assert verdict.answer == answer
        assert verdict.method == method

    def test_yes_loops_are_fully_proved(self):
        for name, query, answer, _ in VERDICTS:
            if answer != YES:
                continue
            verdict = analyse(name, query)
            for loop in verdict.loops:
                assert all(pair.proof is not None for pair in loop.pairs)

    def test_no_verdicts_explain_themselves(self):
        for name, query, answer, _ in VERDICTS:
            if answer != NO:
                continue
            verdict = analyse(name, query)
            assert verdict.diagnostics
            unproved = [
                pair
                for loop in verdict.loops
                for pair in loop.pairs
                if pair.proof is None
            ]
            assert unproved
            assert all(pair.trace for pair in unproved)

    def test_query_without_clauses_is_vacuously_terminating(self):
        verdict = analyse("facts", "h(i)")
        assert verdict.answer == YES
        assert verdict.method == "acyclic program"
        assert verdict.diagnostics == (
            "h/1 has no clauses; every query fails finitely",
        )
        assert verdict.loops == ()

    def test_determinism(self):
        first = analyse("gcd", "gcd(i, i, f)")
        second = analyse("gcd", "gcd(i, i, f)")
        assert first == second


class TestGateDiagnostics:
    def test_loop_without_arithmetic(self):
        verdict = analyse("loop", "loop(i)")
        assert (
            "loop over loop/1 performs no arithmetic on its head arguments"
            in verdict.diagnostics
        )
        assert (
            "no numerical loop: integer reasoning cannot go beyond the norm analysis"
            in verdict.diagnostics
        )

    def test_float_constants_are_named(self):
        verdict = analyse("ex2_p", "p(i)")
        assert "p/1 clause 1: float constant 0.0" in verdict.diagnostics
        assert (
            "p/1 clause 2: operator / in `X1 is X / 2` is not integer-safe"
            in verdict.diagnostics
        )
        assert (
            "a numerical loop is not integer based; the analysis does not apply"
            in verdict.diagnostics
        )

    def test_float_arithmetic_is_named(self):
        verdict = analyse("ex2_q", "q(i)")
        assert "q/1 clause 1: float constant 0.0" in verdict.diagnostics
        assert "q/1 clause 2: float constant 0.1" in verdict.diagnostics


class TestEscalationLadder:
    def test_mc91_rung_log(self):
        verdict = analyse("mc91", "mc_carthy_91(i, f)")
        assert verdict.diagnostics == (
            "structural attempt (simplified norm analysis): 0 of 1 circular pairs proved",
            "rung collected comparisons: 1 of 2 circular pairs proved",
            "rung inferred comparisons: 1 of 2 circular pairs proved",
            "rung unfold x1 + inferred comparisons: 2 of 3 circular pairs proved",
            "rung collected comparisons + answer abstraction: 1 of 2 circular pairs proved",
            "rung inferred comparisons + answer abstraction: 1 of 2 circular pairs proved",
            "rung unfold x1 + inferred comparisons + answer abstraction: 2 of 2 circular pairs proved",
        )

    def test_mc91_loop_evidence(self):
        verdict = analyse("mc91", "mc_carthy_91(i, f)")
        assert len(verdict.loops) == 1
        loop = verdict.loops[0]
        assert loop.predicates == ("mc_carthy_91/2",)
        assert loop.integer_based
        assert loop.domain["mc_carthy_91/2"] == (
            "arg1 =< 89",
            "arg1 > 100",
            "arg1 > 89, arg1 =< 100",
        )
        assert {pair.proof for pair in loop.pairs} == {
            "decreasing function 89 - arg1 (bound 0)",
            "decreasing function 100 - arg1 (bound 0)",
        }

    def test_ladder_stops_at_first_success(self):
        verdict = analyse("mod", "mod(i, i, f)")
        assert verdict.diagnostics == (
            "structural attempt (simplified norm analysis): 0 of 1 circular pairs proved",
            "rung collected comparisons: 1 of 1 circular pairs proved",
        )

    def test_gcd_needs_answer_abstraction(self):
        verdict = analyse("gcd", "gcd(i, i, f)", answer_abstraction="off")
        assert verdict.answer == NO
        assert all("answer" not in line for line in verdict.diagnostics)
        assert (
            verdict.diagnostics[-1]
            == "rung unfold x1 + inferred comparisons: 1 of 2 circular pairs proved"
        )

    def test_answers_on_skips_the_plain_pass(self):
        verdict = analyse("mod", "mod(i, i, f)", answer_abstraction="on")
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons + answer abstraction"
        assert verdict.diagnostics == (
            "structural attempt (simplified norm analysis): 0 of 1 circular pairs proved",
            "rung collected comparisons + answer abstraction: 1 of 1 circular pairs proved",
        )

    def test_mc91_needs_unfolding(self):
        verdict = analyse("mc91", "mc_carthy_91(i, f)", max_unfold=0)
        assert verdict.answer == NO
        assert all("unfold" not in line for line in verdict.diagnostics)

    def test_extra_unfold_rounds_change_nothing_once_proved(self):
        verdict = analyse("mc91", "mc_carthy_91(i, f)", max_unfold=2)
        assert verdict.answer == YES
        assert verdict.method == "unfold x1 + inferred comparisons + answer abstraction"

    def test_mc91_needs_inference(self):
        verdict = analyse("mc91", "mc_carthy_91(i, f)", use_inference=False)
        assert verdict.answer == NO
        assert verdict.diagnostics == (
            "structural attempt (simplified norm analysis): 0 of 1 circular pairs proved",
            "rung collected comparisons: 1 of 2 circular pairs proved",
            "rung collected comparisons + answer abstraction: 1 of 2 circular pairs proved",
        )


class TestStageReuse:
    """The stages that depend only on (program, pattern) run once per
    distinct program the ladder reaches."""

    STAGES = (infer_argument_modes, find_integer_loops, infer_size_relations)

    @pytest.mark.parametrize(
        "name,query,programs",
        [
            # the program and its unfolding, over both answer passes
            ("mc91", "mc_carthy_91(i, f)", 2),
            ("gcd", "gcd(i, i, f)", 2),
            # proved on the first rung: the unfolding is never built
            ("p_difficult", "p(i, i)", 1),
        ],
    )
    def test_each_rung_program_is_analysed_once(
        self, monkeypatch, name, query, programs
    ):
        calls = Counter()

        def counted(stage):
            def wrapper(*args, **kwargs):
                calls[stage.__name__] += 1
                return stage(*args, **kwargs)

            return wrapper

        for stage in self.STAGES:
            wrapper = counted(stage)
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("termiarith"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is stage:
                        monkeypatch.setattr(module, attr, wrapper)
        analyse(name, query)
        assert calls == {stage.__name__: programs for stage in self.STAGES}


class TestResourceCaps:
    def test_pair_cap_turns_into_no_with_diagnostics(self):
        verdict = analyse("gcd", "gcd(i, i, f)", pair_cap=20)
        assert verdict.answer == NO
        assert (
            "resource cap: query-mapping closure passed 20 pairs; "
            "raise the pair cap or simplify the query" in verdict.diagnostics
        )
        assert (
            "rung collected comparisons: aborted by resource cap"
            in verdict.diagnostics
        )

    def test_comparison_cap_guards_inference(self):
        verdict = analyse("mc91", "mc_carthy_91(i, f)", comparison_cap=1)
        assert verdict.answer == NO
        assert (
            "resource cap: comparison set of mc_carthy_91/2 has 2 atoms, "
            "past the configured cap of 1" in verdict.diagnostics
        )
        assert (
            "rung inferred comparisons: aborted by resource cap"
            in verdict.diagnostics
        )
        # The collected rung does not run inference and still executes.
        assert (
            "rung collected comparisons: 1 of 2 circular pairs proved"
            in verdict.diagnostics
        )

    def test_option_validation(self):
        with pytest.raises(ValueError, match="answer_abstraction"):
            AnalysisOptions(answer_abstraction="maybe")
        with pytest.raises(ValueError, match="format"):
            render_report(analyse("facts", "f(i)"), format="xml")
        with pytest.raises(ValueError, match="caps must be positive"):
            AnalysisOptions(pair_cap=0)
        with pytest.raises(ValueError, match="max_unfold"):
            AnalysisOptions(max_unfold=-1)


class TestReports:
    def test_yes_text(self):
        verdict = analyse("mod", "mod(i, i, f)")
        assert render_report(verdict) == "\n".join(
            [
                "YES: termination proved for query mod(i,i,f)",
                "method: collected comparisons",
                "loop mod/3 (integer based)",
                "  domain of mod/3:",
                "    arg1 < arg2, arg2 =< 0",
                "    arg1 < arg2, arg2 > 0",
                "    arg2 =< arg1, arg2 =< 0",
                "    arg2 =< arg1, arg2 > 0",
                "  proved: mod(i,i,f) where arg2 =< arg1, arg2 > 0"
                " by decreasing function arg1 (bound 0)",
            ]
        )

    def test_no_text(self):
        verdict = analyse("ex2_p", "p(i)")
        text = render_report(verdict)
        assert text.startswith(f"NO: {NO_HEADLINE} for query p(i)")
        assert "loop p/1 (not integer based)" in text
        assert "unproved: p(i) where true" in text
        assert "first unproven pair:" in text
        assert "pair p(i) where true" in text

    def test_trace_appends_pair_blocks(self):
        verdict = analyse("mod", "mod(i, i, f)")
        plain = render_report(verdict)
        traced = render_report(verdict, trace=True)
        assert traced.startswith(plain)
        assert "pair mod(i,i,f) where arg2 =< arg1, arg2 > 0" in traced
        assert "  edges: d2 = r2" in traced
        assert "  arcs: d1 > r1, d1 > r2" in traced
        assert "  proof: decreasing function arg1 (bound 0)" in traced

    def test_json_payload_schema(self):
        verdict = analyse("mod", "mod(i, i, f)")
        payload = verdict_payload(verdict)
        assert sorted(payload) == ["answer", "diagnostics", "loops"]
        loop = payload["loops"][0]
        assert sorted(loop) == ["domain", "integer_based", "pairs", "predicates"]
        assert sorted(loop["pairs"][0]) == ["constraint", "proof", "query"]
        assert payload["answer"] == YES

    def test_json_report_round_trips(self):
        verdict = analyse("gcd", "gcd(i, i, f)")
        text = render_report(verdict, format="json")
        assert json.loads(text) == verdict_payload(verdict)

    def test_json_report_is_reproducible(self):
        runs = [
            render_report(analyse("mc91", "mc_carthy_91(i, f)"), format="json")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

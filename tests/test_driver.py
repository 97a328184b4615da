"""Driver tests: frozen corpus verdicts, the escalation ladder, option
handling, resource caps, and both report formats."""

import json
import sys
import threading
import time
from collections import Counter

import pytest

from conftest import corpus_program
from helpers import driver_calls

from termiarith import domain, driver
from termiarith.answers import build_answer_domain, compute_abstract_answers
from termiarith.constraints import DeadlinePassed, deadline
from termiarith.driver import (
    NO,
    NO_HEADLINE,
    UNFOLD_LITERAL_CAP,
    YES,
    AnalysisOptions,
    _ProgramStages,
    _query_domains,
    analyse_termination,
    render_report,
    verdict_payload,
)
from termiarith.graph import find_integer_loops
from termiarith.modes import infer_argument_modes
from termiarith.norms import infer_size_relations
from termiarith.pairs import generate_pairs
from termiarith.syntax import (
    normalize_program,
    parse_program,
    parse_query_pattern,
    render_query_pattern,
)


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
    ("mc91", "mc_carthy_91(i, f)", YES, "collected comparisons + answer abstraction"),
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
            "a loop is not integer based; the analysis does not apply"
            in verdict.diagnostics
        )

    def test_integer_query_of_a_list_loop(self):
        # No clause head of p/1 unifies with an integer, so no pair is
        # circular; the loop used to read as non-numerical, and got NO.
        verdict = analyse_termination(
            normalize_program(parse_program("p([H|T]) :- H > 0, p(T).\np([]).\n")),
            parse_query_pattern("p(i)"),
        )
        assert verdict.answer == YES
        assert verdict.method == "no circular pairs reachable under the query modes"
        assert verdict.diagnostics[0] == (
            "mode conflict: no clause of p/1 matches an integer query of modes (i)"
        )

    def test_float_arithmetic_is_named(self):
        verdict = analyse("ex2_q", "q(i)")
        assert "q/1 clause 1: float constant 0.0" in verdict.diagnostics
        assert "q/1 clause 2: float constant 0.1" in verdict.diagnostics

    def test_loop_with_float_arithmetic_in_a_helper(self):
        # a/1 does no arithmetic of its own, but half/2 divides: from
        # start(1), a/1 runs forever on 0.5, 0.25, ...  The gate covers
        # every loop, not only the numerical d/1.
        source = (
            "start(N) :- d(N), a(N).\n"
            "d(0).\nd(N) :- N > 0, M is N - 1, d(M).\n"
            "a(X) :- half(X, Y), Y > 0, Y < 1, a(Y).\n"
            "half(X, Y) :- Y is X / 2.\n"
        )
        verdict = analyse_termination(
            normalize_program(parse_program(source)), parse_query_pattern("start(i)")
        )
        assert verdict.answer == NO
        assert (
            "half/2 clause 5: operator / in `Y is X / 2` is not integer-safe"
            in verdict.diagnostics
        )
        assert verdict.diagnostics[-1] == (
            "a loop is not integer based; the analysis does not apply"
        )


class TestRouting:
    """Only a task the gates keep off the ladder gets the structural
    attempt; every other task goes straight to the ladder, whose rungs
    run the structural test on each circular pair first."""

    LEN = "len([], 0).\nlen([_|T], N) :- N > 0, M is N - 1, len(T, M).\n"

    def test_only_gated_corpus_tasks_get_the_structural_attempt(self, monkeypatch):
        gated = []
        attempt = driver._attempt

        def counted(*args, numeric=True):
            if not numeric:
                gated.append(name)
            return attempt(*args, numeric=numeric)

        monkeypatch.setattr(driver, "_attempt", counted)
        for name, query, _, _ in VERDICTS:
            analyse(name, query)
        assert gated == ["loop", "s", "ex2_p", "ex2_q"]

    def test_list_length_is_proved_on_the_first_rung(self):
        verdict = analyse_termination(
            normalize_program(parse_program(self.LEN)), parse_query_pattern("len(b, i)")
        )
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons"
        (report,) = verdict.loops
        assert [pair.proof for pair in report.pairs] == ["structural norm decrease"]

    def test_integer_list_argument_leaves_no_circular_pair(self):
        verdict = analyse_termination(
            normalize_program(parse_program(self.LEN)), parse_query_pattern("len(i, i)")
        )
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons"
        assert [report.pairs for report in verdict.loops] == [()]


class TestNumericEquality:
    """A user's own `X >= Z, X =< Z` is two comparisons, not a numeric
    `=`: the Z they read is a free variable, as it is for `X >= Z`
    alone."""

    PAIR = "p(0, 0).\np(X, Z) :- X > 0, X >= Z, X =< Z, X1 is X - 1, p(X1, _).\n"
    LONE = "p(0, 0).\np(X, Z) :- X > 0, X >= Z, X1 is X - 1, p(X1, _).\n"

    def test_written_pair_is_not_an_equality(self):
        pattern = parse_query_pattern("p(i, f)")
        pair, lone = (
            analyse_termination(normalize_program(parse_program(source)), pattern)
            for source in (self.PAIR, self.LONE)
        )
        assert pair.answer == lone.answer == NO
        assert pair.loops == lone.loops
        lone_free = "p/2 clause 2: variable Z in `X >= Z` is not guaranteed to be an integer"
        pair_free = "p/2 clause 2: variable Z in `X =< Z` is not guaranteed to be an integer"
        assert lone_free in lone.diagnostics
        at = lone.diagnostics.index(lone_free) + 1
        assert pair.diagnostics == lone.diagnostics[:at] + (pair_free,) + lone.diagnostics[at:]
        assert (
            "a loop is not integer based; the analysis does not apply"
            in pair.diagnostics
        )

    def test_numeric_equality_still_equates(self):
        # The same clause with `X = Z` binds Z to the integer X.
        source = "p(0, 0).\np(X, Z) :- X > 0, X = Z, X1 is X - 1, p(X1, _).\n"
        verdict = analyse_termination(
            normalize_program(parse_program(source)), parse_query_pattern("p(i, f)")
        )
        assert verdict.answer == YES

    @pytest.mark.parametrize(
        "source, query",
        [
            (
                "count(0, _).\n"
                "count(X, L) :- X > 0, X1 is X - 1, copy(L, L2), count(X1, L2).\n"
                "copy(X, Y) :- X = Y.\n",
                "count(i, b)",
            ),
            ("p(0, _).\np(X, L) :- X > 0, L = M, X1 is X - 1, p(X1, M).\n", "p(i, f)"),
        ],
        ids=["helper", "inline"],
    )
    def test_equality_between_non_integers_is_unification(self, source, query):
        # `X = Y` and `L = M` relate only values that no integer position
        # binds, so the loop is integer based and proved like its twin
        # that passes L on directly.
        verdict = analyse_termination(
            normalize_program(parse_program(source)), parse_query_pattern(query)
        )
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons"
        assert all(report.integer_based for report in verdict.loops)


class TestUnrelatedHelpers:
    """The mode fixpoint walks every predicate reachable from the query,
    so a helper that neither does arithmetic nor calls a predicate that
    does still passes its answers on."""

    @pytest.mark.parametrize(
        "source, method",
        [
            (
                "start :- seed(N), down(N).\nseed(5).\n"
                "down(0).\ndown(N) :- N > 0, M is N - 1, down(M).\n",
                "collected comparisons",
            ),
            (
                "start :- seed(L), len(L).\nseed([a, b]).\n"
                "len([]).\nlen([_|T]) :- len(T).\n",
                "structural norm decrease (simplified analysis)",
            ),
        ],
        ids=["integer", "list"],
    )
    def test_fact_feeds_the_loop_its_instantiation(self, source, method):
        verdict = analyse_termination(
            normalize_program(parse_program(source)), parse_query_pattern("start")
        )
        assert verdict.answer == YES
        assert verdict.method == method
        assert all(report.integer_based for report in verdict.loops)


class TestDeadline:
    """A library caller bounds an analysis with `constraints.deadline`;
    a solver call that starts once it has passed raises
    `DeadlinePassed`."""

    @staticmethod
    def gcd():
        return analyse("gcd", "gcd(i, i, f)")

    def test_passed_deadline_raises_even_with_a_warm_cache(self):
        report = render_report(self.gcd(), "json", trace=True)
        with deadline(0):
            with pytest.raises(DeadlinePassed):
                self.gcd()
        verdict = self.gcd()
        assert verdict.answer == YES
        assert render_report(verdict, "json", trace=True) == report

    def test_deadline_of_one_thread_leaves_another_alone(self):
        entered, finished = threading.Event(), threading.Event()
        raised = []

        def bounded():
            with deadline(0):
                entered.set()
                try:
                    self.gcd()
                except DeadlinePassed:
                    raised.append(True)
                finished.wait(60)

        thread = threading.Thread(target=bounded)
        thread.start()
        try:
            assert entered.wait(60)
            verdict = self.gcd()  # while the other thread's deadline has passed
        finally:
            finished.set()
            thread.join(60)
        assert not thread.is_alive()
        assert verdict.answer == YES
        assert raised == [True]

    def test_nested_deadline_restores_the_outer_one(self):
        with deadline(0):
            with deadline(60):
                assert self.gcd().answer == YES
            with pytest.raises(DeadlinePassed):
                self.gcd()
        assert self.gcd().answer == YES


class TestEscalationLadder:
    def test_mc91_rung_log(self):
        verdict = analyse("mc91", "mc_carthy_91(i, f)")
        assert verdict.diagnostics == (
            "rung collected comparisons: 1 of 2 circular pairs proved",
            "rung collected comparisons + answer abstraction: 1 of 1 circular pairs proved",
        )

    def test_gcd_is_proved_before_any_unfolding(self):
        # The first rung with answers proves gcd, so the plain inferred
        # and unfolding rungs never run, whatever the unfolding bound.
        shallow = analyse("gcd", "gcd(i, i, f)", max_unfold=0)
        deep = analyse("gcd", "gcd(i, i, f)", max_unfold=4)
        assert shallow.diagnostics == deep.diagnostics == (
            "rung collected comparisons: 1 of 3 circular pairs proved",
            "rung collected comparisons + answer abstraction: 5 of 5 circular pairs proved",
        )

    def test_mc91_loop_evidence(self):
        verdict = analyse("mc91", "mc_carthy_91(i, f)")
        assert len(verdict.loops) == 1
        loop = verdict.loops[0]
        assert loop.predicates == ("mc_carthy_91/2",)
        assert loop.integer_based
        assert loop.domain["mc_carthy_91/2"] == ("arg1 =< 100", "arg1 > 100")
        # The answer entry arg1 < arg2 + 10 up to 100 gives the second
        # call an input above the head's, and both stay up to 100.
        assert [(pair.constraint, pair.proof) for pair in loop.pairs] == [
            ("arg1 =< 100", "decreasing function 100 - arg1 (bound 0)"),
        ]

    def test_ladder_stops_at_first_success(self):
        verdict = analyse("mod", "mod(i, i, f)")
        assert verdict.diagnostics == (
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

    def test_rungs_are_built_as_they_are_reached(self):
        # A ladder listed up front would hold 10**12 rungs before the
        # first one ran.
        verdict = analyse("mod", "mod(i, i, f)", max_unfold=10**12)
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons"

    def test_answers_on_skips_the_plain_pass(self):
        verdict = analyse("mod", "mod(i, i, f)", answer_abstraction="on")
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons + answer abstraction"
        assert verdict.diagnostics == (
            "rung collected comparisons + answer abstraction: 1 of 1 circular pairs proved",
        )

    @pytest.mark.parametrize(
        "options",
        [{}, {"max_unfold": 0}, {"answer_abstraction": "on"}],
        ids=["default", "max_unfold=0", "answers=on"],
    )
    def test_mc91_is_proved_on_the_first_answer_rung(self, options):
        verdict = analyse("mc91", "mc_carthy_91(i, f)", **options)
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons + answer abstraction"

    def test_mc91_needs_answer_abstraction(self):
        verdict = analyse("mc91", "mc_carthy_91(i, f)", answer_abstraction="off")
        assert verdict.answer == NO
        assert all("answer" not in line for line in verdict.diagnostics)

    def test_extra_unfold_rounds_change_nothing_once_proved(self):
        verdict = analyse("mc91", "mc_carthy_91(i, f)", max_unfold=2)
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons + answer abstraction"


class TestStagePins:
    """Stages that no default corpus verdict needs, each pinned by a
    program whose verdict it decides: without the stage it gets NO."""

    def test_inferred_rung_before_any_unfolding(self):
        # Y > 0 mentions no head variable, so nothing is collected; only
        # the inferred arg1 > 2 bounds the countdown.
        verdict = analyse_termination(
            normalize_program(parse_program("p(X) :- Y is X - 2, Y > 0, p(Y).\n")),
            parse_query_pattern("p(i)"),
            AnalysisOptions(max_unfold=0),
        )
        assert verdict.answer == YES
        assert verdict.method == "inferred comparisons"

    def test_answer_comparisons_copied_along_aliases(self):
        # mod/3 answers C = A after A < B; only the copy of A < B onto C
        # bounds its output, which gcd's recursive call reads.
        verdict = analyse("gcd", "gcd(i, i, f)", max_unfold=0)
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons + answer abstraction"

    def test_dead_resolvents_leave_the_unfolded_program(self, monkeypatch):
        # The swap needs one unfolding.  Its resolvent with the second
        # clause reads X > 0, Z is X - 1, Z < 0 and is dropped, so the
        # unfolded program keeps 5 + 1 body literals, within this cap.
        monkeypatch.setattr(driver, "UNFOLD_LITERAL_CAP", 6)
        verdict = analyse_termination(
            normalize_program(
                parse_program("p(X, Y) :- X > 0, Z is X - 1, p(Y, Z).\np(X, Y) :- Y < 0.\n")
            ),
            parse_query_pattern("p(i, i)"),
        )
        assert verdict.answer == YES
        assert verdict.method == "unfold x1 + inferred comparisons"

    @pytest.mark.parametrize(
        "source",
        [
            "p(X, Z) :- Y is X - 2, Y > Z, p(Y, Z).\n",
            # The same loop with the guard written on X: normalization
            # splits X - 2 > Z into its own arithmetic.
            "p(X, Z) :- X - 2 > Z, Y is X - 2, p(Y, Z).\n",
        ],
        ids=["bound-after", "bound-before"],
    )
    def test_inferred_difference_with_constant(self, source):
        # Only the inferred arg1 - arg2 > 2 bounds the countdown; the
        # difference atom keeps its constant.
        verdict = analyse_termination(
            normalize_program(parse_program(source)), parse_query_pattern("p(i, i)")
        )
        assert verdict.answer == YES
        assert verdict.method == "inferred comparisons"


class TestStageReuse:
    """Modes and loops run once per distinct program the ladder reaches;
    the size table at most once, and only for a program whose pairs
    relate b positions of both rows."""

    STAGES = (infer_argument_modes, find_integer_loops, infer_size_relations)

    # Size tables built per task.  Only q_mixed has a b position in both
    # rows of a pair: its table is built once, for the first rung, which
    # proves it.  The others have integer positions only.
    SIZE_TABLES = {"mc91": 0, "gcd": 0, "p_difficult": 0, "q_mixed": 1}

    @pytest.mark.parametrize(
        "name,query,programs",
        [
            # proved before the unfolding rung: the unfolding is never built
            ("mc91", "mc_carthy_91(i, f)", 1),
            ("gcd", "gcd(i, i, f)", 1),
            ("p_difficult", "p(i, i)", 1),
            ("q_mixed", "q(b, f, i)", 1),
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
        assert calls["infer_argument_modes"] == programs
        assert calls["find_integer_loops"] == programs
        assert calls["infer_size_relations"] == self.SIZE_TABLES[name]


# The corpus tasks whose loops are numerical, so the ladder runs.
NUMERICAL = [(name, query) for name, query, *_ in VERDICTS if name not in ("facts", "loop", "s")]


@pytest.mark.parametrize("name,query", NUMERICAL)
def test_attempt_key_holds_every_answer_entry_pair_generation_reads(name, query):
    # A rung attempt is reused when its answer entries agree on
    # `answer_reads` alone, so on each rung program of a numerical
    # corpus loop (collected, inferred, unfold x1) the pairs must not
    # change when the table keeps only the entries the key holds.
    pattern = parse_query_pattern(query)
    stages = _ProgramStages(corpus_program(name), pattern)
    for unfold, prefer_inference in [(False, False), (False, True), (True, True)]:
        if unfold:
            stages = stages.unfolded()
        domains = _query_domains(stages, prefer_inference)
        answer_domains = [build_answer_domain(loop, stages.modes) for loop in stages.loops]
        every = compute_abstract_answers(stages.loops, stages.modes, answer_domains)
        # The driver tables only the loops of the read predicates and of
        # those they call.
        answered = stages.answer_table
        keyed = {k: answered[k] for k in stages.answer_reads if answered.get(k)}

        def pairs(answers):
            return generate_pairs(stages.program, pattern, stages.modes, answers, domains=domains)

        assert pairs(every) == pairs(keyed), (unfold, prefer_inference)


class TestUnfoldingStep:
    """One unfolding step resolves every recursive clause against the
    program it starts from."""

    # Two guarded decrements and a guarded increment: NO.  No goal
    # repeats, so the looping-query search finds no query and the
    # ladder is climbed.
    GUARDS = (
        "g(X) :- X =< 0.\n"
        "g(X) :- X > 0, X =< 5, Y is X - 2, g(Y).\n"
        "g(X) :- X > 5, X =< 10, Y is X - 3, g(Y).\n"
        "g(X) :- X > 10, Y is X + 1, g(Y).\n"
    )

    def test_clause_count_does_not_compound(self):
        stages = _ProgramStages(
            corpus_program("p_difficult"), parse_query_pattern("p(i, i)")
        )
        # Two recursive clauses, each resolved against the three input
        # clauses, plus the base clause, gave 7 (resolving against
        # clauses already rewritten in the same step gave 9); one
        # resolvent's guards contradict each other, so 6 stay.
        assert len(stages.program.clauses) == 3
        assert len(stages.unfolded().program.clauses) == 6

    def test_second_step_resolves_against_the_first(self):
        program = normalize_program(parse_program(self.GUARDS))
        first = _ProgramStages(program, parse_query_pattern("g(i)")).unfolded()
        # 1 base clause + 3 recursive clauses x 4 resolvents, of which 7
        # have contradicting guards: the base clause, 1 resolvent without
        # a call and 4 recursive ones stay.
        assert len(first.program.clauses) == 6
        assert sum(first.loops[0].is_recursive_clause(c) for c in first.program.clauses) == 4
        # The 2 clauses without a call stay; 6 of the 4 x 6 resolvents of
        # the recursive ones are live.
        assert len(first.unfolded().program.clauses) == 2 + 6

    def test_renaming_keeps_variables_apart(self):
        # The second step renames apart a clause with variables X and
        # X_u1.  Were both to become X_u1_u1, the recursive resolvent
        # would read `X_u1_u1 is X_u1_u1 + 1` and look dead, and the
        # program, which runs forever from g(1), would be proved.
        program = normalize_program(
            parse_program("g(X) :- X =< 0.\ng(X) :- X > 0, Y is X + 1, g(Y).\n")
        )
        pattern = parse_query_pattern("g(i)")
        second = _ProgramStages(program, pattern).unfolded().unfolded()
        assert sum(second.loops[0].is_recursive_clause(c) for c in second.program.clauses) == 1
        verdict = analyse_termination(program, pattern, AnalysisOptions(max_unfold=2))
        assert verdict.answer == NO

    def test_contradiction_after_a_call_keeps_the_resolvent(self):
        # The call runs before the guards fail.
        program = normalize_program(parse_program("p(X) :- p(X), X > 0, X < 0.\n"))
        stages = _ProgramStages(program, parse_query_pattern("p(i)"))
        assert len(stages.unfolded().program.clauses) == 1

    @pytest.mark.parametrize("query,clauses", [("p(i)", 2), ("p(b)", 4)])
    def test_contradiction_is_dropped_only_over_integers(self, query, clauses):
        # A float X satisfies X > 0, X < 1; under p(b) the loop is not
        # integer based, so both cross resolvents stay.
        program = normalize_program(
            parse_program("p(X) :- X > 0, p(X).\np(X) :- X < 1, p(X).\n")
        )
        stages = _ProgramStages(program, parse_query_pattern(query))
        assert len(stages.unfolded().program.clauses) == clauses

    def test_two_unfolding_rungs_answer_no(self):
        verdict = analyse_termination(
            normalize_program(parse_program(self.GUARDS)),
            parse_query_pattern("g(i)"),
            AnalysisOptions(max_unfold=2, answer_abstraction="off"),
        )
        assert verdict.answer == NO
        # The live guards of the second unfolding give 14 comparisons,
        # partitioned in 169 solver checks.
        assert verdict.diagnostics[-2:] == (
            "rung unfold x1 + inferred comparisons: 0 of 1 circular pairs proved",
            "rung unfold x2 + inferred comparisons: 0 of 1 circular pairs proved",
        )


class TestResourceCaps:
    def test_pair_cap_turns_into_no_with_diagnostics(self):
        # gcd's rung closures hold 3 and 5 pairs, so a cap of 2 stops the
        # first rung.
        verdict = analyse("gcd", "gcd(i, i, f)", pair_cap=2)
        assert verdict.answer == NO
        assert (
            "resource cap: query-mapping closure passed 2 pairs; "
            "raise the pair cap or simplify the query" in verdict.diagnostics
        )
        assert (
            "rung collected comparisons: aborted by resource cap"
            in verdict.diagnostics
        )

    def test_answer_domain_notes_are_logged(self, monkeypatch):
        # mc91's answers are read (its recursive clause calls itself
        # twice).  Its collected and inferred query partitions take 3
        # and 7 checks, its 4-atom answer partition more than 7; so
        # does the unfolded program's query partition.
        monkeypatch.setattr(domain, "PARTITION_BUDGET", 7)
        verdict = analyse("mc91", "mc_carthy_91(i, f)")
        assert verdict.answer == NO
        cap = (
            "resource cap: comparison set of mc_carthy_91/2 has 4 atoms; "
            "its partition needs more than 7 solver checks"
        )
        assert verdict.diagnostics == (
            "rung collected comparisons: 1 of 2 circular pairs proved",
            cap,
            "rung collected comparisons + answer abstraction: aborted by resource cap",
            "rung inferred comparisons: 1 of 2 circular pairs proved",
            cap,
            "rung inferred comparisons + answer abstraction: aborted by resource cap",
            cap,
            "rung unfold x1 + inferred comparisons: aborted by resource cap",
        )

    def test_capped_answer_table_is_built_once(self, monkeypatch):
        # The collected and inferred rungs share one program, so the cap
        # the collected rung's answer domain hit is raised again on the
        # inferred rung without building that domain again.
        monkeypatch.setattr(domain, "PARTITION_BUDGET", 7)
        program, pattern = corpus_program("mc91"), parse_query_pattern("mc_carthy_91(i, f)")
        assert len(driver_calls(monkeypatch, "build_answer_domain", program, pattern)) == 1

    def test_unread_loop_does_not_abort_the_answer_pass(self, monkeypatch):
        # Only mod/3's answers are read, so outer/2's answer domain,
        # whose 22 comparisons pass this budget, is never built and
        # cannot abort the answer attempts.
        monkeypatch.setattr(domain, "PARTITION_BUDGET", 200)
        guards = [f"X > {k}" for k in range(1, 11)] + [f"Y < -{k}" for k in range(1, 11)]
        source = (
            "mod(A, B, C) :- A >= B, B > 0, D is A - B, mod(D, B, C).\n"
            "mod(A, B, C) :- A < B, A >= 0, A = C.\n"
            "outer(X, Y) :- Y > 0, mod(X, Y, U), outer(Y, U).\n"
            f"outer(X, Y) :- Y =< 0, {', '.join(guards)}.\n"
        )
        verdict = analyse_termination(
            normalize_program(parse_program(source)), parse_query_pattern("outer(i, i)")
        )
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons + answer abstraction"
        assert not any("resource cap" in line for line in verdict.diagnostics)

    def test_comparison_cap_guards_inference(self, monkeypatch):
        # The collected set takes 3 checks, the inferred one more.
        monkeypatch.setattr(domain, "PARTITION_BUDGET", 3)
        verdict = analyse("mc91", "mc_carthy_91(i, f)")
        assert verdict.answer == NO
        assert (
            "resource cap: comparison set of mc_carthy_91/2 has 2 atoms; "
            "its partition needs more than 3 solver checks" in verdict.diagnostics
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

    def test_unfolding_stops_at_the_literal_cap(self):
        # gcd's rung programs have 11, 25, 68, 214, 746 and 2770 body
        # literals; the one past the cap is never analysed, nor any
        # deeper one.
        verdict = analyse("gcd", "gcd(i, i, f)", answer_abstraction="off", max_unfold=12)
        assert verdict.answer == NO
        assert verdict.diagnostics[-2:] == (
            "rung unfold x4 + inferred comparisons: 1 of 2 circular pairs proved",
            "rung unfold x5 + inferred comparisons: not built; its program passes"
            f" the cap of {UNFOLD_LITERAL_CAP} body literals",
        )

    def test_unfolding_a_one_clause_loop_stops_at_the_literal_cap(self):
        # Unfolding keeps one clause, but its body doubles at every step
        # (3, 5, 9, ..., 513, 1025 literals).
        program = normalize_program(parse_program("p(X) :- X > 0, X1 is X + 1, p(X1).\n"))
        options = AnalysisOptions(max_unfold=12, answer_abstraction="off")
        started = time.perf_counter()
        verdict = analyse_termination(program, parse_query_pattern("p(i)"), options)
        assert time.perf_counter() - started < 20
        assert verdict.answer == NO
        assert verdict.diagnostics[-2:] == (
            "rung unfold x8 + inferred comparisons: 0 of 1 circular pairs proved",
            "rung unfold x9 + inferred comparisons: not built; its program passes"
            f" the cap of {UNFOLD_LITERAL_CAP} body literals",
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


def guard_program(g):
    """g guarded decrements of one argument, one per interval between
    thresholds 5 apart: every integer query terminates.  The comparison
    set has 2g - 1 atoms, but its partition only g + 1 elements."""
    lines = ["g(X) :- X =< 0."]
    for i in range(g):
        guards = [f"X > {5 * i}"] + ([f"X =< {5 * i + 5}"] if i + 1 < g else [])
        lines.append(f"g(X) :- {', '.join(guards)}, Y is X - 1, g(Y).")
    return normalize_program(parse_program("\n".join(lines) + "\n"))


def chain_program(k):
    """k arguments in a strict chain while the first counts down: every
    sign assignment of its k comparisons is satisfiable."""
    xs = [f"X{i}" for i in range(k)]
    head = f"c({', '.join(xs)})"
    guards = ["X0 > 0"] + [f"{xs[i]} < {xs[i + 1]}" for i in range(k - 1)]
    call = f"c({', '.join(['Y', *xs[1:]])})"
    source = f"{head} :- X0 =< 0.\n{head} :- {', '.join(guards)}, Y is X0 - 1, {call}.\n"
    return normalize_program(parse_program(source))


class TestPartitionBudget:
    """One budget of solver checks bounds every partition walk, so a
    comparison set is refused by the work its partition takes, not by
    its size."""

    @pytest.mark.parametrize("g", [8, 12])
    def test_many_guards_are_proved(self, g):
        verdict = analyse_termination(guard_program(g), parse_query_pattern("g(i)"))
        assert verdict.answer == YES
        assert verdict.method == "collected comparisons"

    def test_chain_trips_past_the_budget(self, monkeypatch):
        # k chain atoms take 2**(k+1) - 1 checks: 31 for four, 63 for five.
        monkeypatch.setattr(domain, "PARTITION_BUDGET", 2**5)
        four = analyse_termination(chain_program(4), parse_query_pattern("c(i,i,i,i)"))
        assert four.answer == YES
        assert four.method == "collected comparisons"
        five = analyse_termination(chain_program(5), parse_query_pattern("c(i,i,i,i,i)"))
        assert five.answer == NO
        assert (
            "resource cap: comparison set of c/5 has 5 atoms; "
            "its partition needs more than 32 solver checks" in five.diagnostics
        )

    def test_capped_rung_is_logged_once(self, monkeypatch):
        # A rung whose query domain passes the budget skips its answer
        # pass instead of logging the same stop again.
        monkeypatch.setattr(domain, "PARTITION_BUDGET", 2**5)
        verdict = analyse_termination(chain_program(5), parse_query_pattern("c(i,i,i,i,i)"))
        assert verdict.diagnostics == (
            "resource cap: comparison set of c/5 has 5 atoms; "
            "its partition needs more than 32 solver checks",
            "rung collected comparisons: aborted by resource cap",
            "resource cap: comparison set of c/5 has 6 atoms; "
            "its partition needs more than 32 solver checks",
            "rung inferred comparisons: aborted by resource cap",
            "resource cap: comparison set of c/5 has 8 atoms; "
            "its partition needs more than 32 solver checks",
            "rung unfold x1 + inferred comparisons: aborted by resource cap",
        )


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

    def test_rendered_queries_parse_back(self):
        tasks = [(corpus_program(name), query) for name, query, _, _ in VERDICTS]
        tasks.append((normalize_program(parse_program("p :- p.\n")), "p"))
        for program, query in tasks:
            pattern = parse_query_pattern(query)
            verdict = analyse_termination(program, pattern)
            assert parse_query_pattern(verdict.query) == pattern
            for loop in verdict.loops:
                for pair in loop.pairs:
                    parsed = parse_query_pattern(pair.query)
                    assert render_query_pattern(parsed.pred, parsed.modes) == pair.query
                    assert pair.trace.startswith(f"pair {pair.query} where ")

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

"""The looping-query search: a NO that names a ground integer query whose
derivation runs forever, checked here against the reference interpreter,
and never logged where no such query exists."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import corpus_program
from meta_interp import BudgetExceeded, run_query
from option_digests import OPTION_SETS
from test_acceptance import CORPUS

from termiarith import domain, driver
from termiarith.driver import NO, AnalysisOptions, _looping_query, analyse_termination
from termiarith.syntax import (
    IntConst,
    UserAtom,
    normalize_program,
    parse_program,
    parse_query_pattern,
)

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
from generators import FAMILIES  # noqa: E402

PARAMS = range(2, 9)
SEEDS = range(6)
PREFIX = "non-termination: "

NEST_DIV = (
    "l1(X) :- X =< 0.\n"
    "l1(X) :- X > 0, Y is X - 1, l2(Y), l1(Y).\n"
    "l2(X) :- X =< 0.\n"
    "l2(X) :- X > 0, Y is X, l2(Y).\n"
)
GUARD_DIV = (
    "g(X) :- X =< -3.\n"
    "g(X) :- X > -3, X =< 2, Y is X - 4, g(Y).\n"
    "g(X) :- X > 2, Y is X, g(Y).\n"
)


def family_tasks(family: str, divergent: bool):
    for param in PARAMS:
        for seed in SEEDS:
            yield FAMILIES[family](param, random.Random(f"{seed}/{family}/{param}"), divergent)


def analyse(source: str, query: str, options=AnalysisOptions()):
    program = normalize_program(parse_program(source))
    return analyse_termination(program, parse_query_pattern(query), options)


def looping_lines(verdict) -> list[str]:
    return [line for line in verdict.diagnostics if line.startswith(PREFIX)]


def logged_goal(line: str) -> UserAtom:
    name, args = re.match(r"non-termination: (\w+)(?:\((.*?)\))? ", line).groups()
    return UserAtom(name, tuple(IntConst(int(a)) for a in args.split(", ")) if args else ())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_divergent_variant_logs_a_query_that_loops(family):
    for task in family_tasks(family, divergent=True):
        verdict = analyse(task.source, task.query)
        assert verdict.answer == NO, task.task_id
        # The ladder stops after its first attempt.
        first, line = verdict.diagnostics
        assert first.startswith("rung collected comparisons: "), task.task_id
        assert line.startswith(PREFIX), task.task_id
        # Reaching the loop takes at most 16 steps here, and each round
        # of it at most 9 (guard 8 tries all its clauses), so 2,000 steps
        # go round it over 200 times.
        with pytest.raises(BudgetExceeded):
            run_query(parse_program(task.source), logged_goal(line), max_steps=2_000)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_no_yes_variant_has_a_looping_query(family):
    for task in family_tasks(family, divergent=False):
        program = normalize_program(parse_program(task.source))
        assert _looping_query(program, parse_query_pattern(task.query)) is None, task.task_id


@pytest.mark.parametrize(
    "options", [AnalysisOptions(), *OPTION_SETS.values()], ids=["default", *OPTION_SETS]
)
def test_no_corpus_task_logs_a_query(options):
    for name, query, _ in CORPUS:
        verdict = analyse_termination(corpus_program(name), parse_query_pattern(query), options)
        assert not looping_lines(verdict), (name, query)


def test_line_names_the_query_the_looping_goal_and_its_clause():
    assert looping_lines(analyse(NEST_DIV, "l1(i)")) == [
        "non-termination: l1(2) reaches l2(1), which calls itself again through l2/1 clause 2"
    ]
    assert looping_lines(analyse(GUARD_DIV, "g(i)")) == [
        "non-termination: g(3) calls itself again through g/1 clause 3"
    ]


@pytest.mark.parametrize(
    "options,first",
    [
        (
            {"answer_abstraction": "on"},
            ("rung collected comparisons + answer abstraction: 1 of 2 circular pairs proved",),
        ),
        (
            {"pair_cap": 1},
            (
                "resource cap: query-mapping closure passed 1 pairs; "
                "raise the pair cap or simplify the query",
                "rung collected comparisons: aborted by resource cap",
            ),
        ),
    ],
    ids=["answers=on", "pair_cap=1"],
)
def test_search_follows_the_first_attempt_made_or_aborted(options, first):
    assert analyse(GUARD_DIV, "g(i)", AnalysisOptions(**options)).diagnostics == (
        *first,
        "non-termination: g(3) calls itself again through g/1 clause 3",
    )


def test_search_follows_a_first_rung_whose_domain_is_too_large(monkeypatch):
    monkeypatch.setattr(domain, "PARTITION_BUDGET", 2)
    assert analyse(GUARD_DIV, "g(i)").diagnostics == (
        "resource cap: comparison set of g/1 has 3 atoms;"
        " its partition needs more than 2 solver checks",
        "rung collected comparisons: aborted by resource cap",
        "non-termination: g(3) calls itself again through g/1 clause 3",
    )


def test_logged_line_is_identical_across_hash_seeds(tmp_path):
    path = tmp_path / "nest-div.pl"
    path.write_text(NEST_DIV)
    src = Path(__file__).parent.parent / "src"
    errors = [
        subprocess.run(
            [sys.executable, "-m", "termiarith.cli", str(path), "--query", "l1(i)"],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
        ).stderr
        for seed in ("0", "1")
    ]
    assert errors[0] == errors[1]
    assert PREFIX.encode() in errors[0]


# Programs that are NO, or may loop, yet have no query the search can
# check.
UNCHECKED = {
    # X + X > 3 is no difference constraint.
    "non-difference guard": ("g(X) :- X =< 0.\ng(X) :- X + X > 3, Y is X, g(Y).\n", "g(i)"),
    # Z is unbound when `is` reads it: the constraint is satisfiable, and
    # only the concrete run refuses it.
    "unbound read": ("p(X) :- X =< 0.\np(X) :- X > 0, Y is Z + 1, W is X, p(W).\n", "p(i)"),
    # p/1 passes the unbound Z on to q/2, whose loop then reads it.
    "unbound call argument": (
        "p(X) :- X =< 0.\np(X) :- X > 0, q(Z, X).\nq(A, B) :- B > 0, C is B, q(A, C).\n",
        "p(i)",
    ),
    # q/1 is called before the loop's own call.
    "user call first": (
        "p(X) :- X =< 0.\np(X) :- X > 0, q(X), Y is X, p(Y).\nq(X) :- X > 0.\n",
        "p(i)",
    ),
}
# The same loop with a second argument that is not read as an integer.
WITH_TERM = "p(X, L) :- X =< 0.\np(X, L) :- X > 0, Y is X, p(Y, L).\n"


@pytest.mark.parametrize("source,query", UNCHECKED.values(), ids=UNCHECKED)
def test_search_finds_no_query_it_cannot_check(source, query):
    verdict = analyse(source, query)
    assert verdict.answer == NO
    assert not looping_lines(verdict)
    program = normalize_program(parse_program(source))
    assert _looping_query(program, parse_query_pattern(query)) is None


def test_search_stops_at_its_check_cap(monkeypatch):
    # Each of p0..p7 has two clauses, so 2^8 paths reach p8's loop, which
    # never repeats a goal: the uncapped search tests 766 conjunctions.
    source = "".join(
        f"p{i}(X) :- X > 0, p{i + 1}(X).\np{i}(X) :- X > 1, p{i + 1}(X).\n" for i in range(8)
    )
    source += "p8(X) :- X > 0, Y is X + 1, p8(Y).\n"
    tested = []
    graph = driver.difference_graph
    monkeypatch.setattr(driver, "difference_graph", lambda conj: tested.append(conj) or graph(conj))
    program = normalize_program(parse_program(source))
    assert _looping_query(program, parse_query_pattern("p0(i)")) is None
    assert len(tested) == driver.LOOP_SEARCH_CHECKS


@pytest.mark.parametrize("query", ["p(i,b)", "p(i,f)"])
def test_patterns_with_other_modes_keep_the_ladder(query):
    verdict = analyse(WITH_TERM, query)
    assert verdict.answer == NO
    assert not looping_lines(verdict)
    assert verdict.diagnostics[-1].startswith("rung unfold x1 + inferred comparisons")

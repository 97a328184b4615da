"""Acceptance checks.

One test per shipped guarantee, so `pytest -v tests/test_acceptance.py`
prints a single pass/fail line for each.  Everything here goes through
public entry points; expected values are stated inline and exact."""

import json
import random
from collections import Counter
from pathlib import Path

import numpy as np

from conftest import corpus_program
from meta_interp import BudgetExceeded, run_query
from family_digests import FAMILY_DIGESTS, task_digest
from option_digests import DIGESTS, corpus_digests

from termiarith.answers import build_answer_domain, compute_abstract_answers
from termiarith.constraints import (
    LinExpr,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    conjunction,
    implies,
    is_satisfiable,
)
from termiarith.domain import (
    build_domain,
    collect_answer_comparisons,
    collect_comparisons,
    unfold_once,
)
from termiarith.driver import (
    NO,
    YES,
    analyse_termination,
    render_report,
)
from termiarith.graph import find_integer_loops
from termiarith.modes import infer_argument_modes
from termiarith.syntax import (
    AtomConst,
    Compound,
    IntConst,
    UserAtom,
    Var,
    normalize_program,
    parse_program,
    parse_query_pattern,
)

A1 = LinExpr.var("arg1")
A2 = LinExpr.var("arg2")
A3 = LinExpr.var("arg3")

# Every corpus task with its expected verdict.  The YES rows double as
# the soundness-harness inputs of ac11.
CORPUS = [
    ("facts", "f(i)", YES),
    ("facts", "g(b,f)", YES),
    ("r", "r(i)", YES),
    ("p_int", "p(i)", YES),
    ("t", "t(i)", YES),
    ("mod", "mod(i,i,f)", YES),
    ("p_difficult", "p(i,i)", YES),
    ("q_mixed", "q(b,f,i)", YES),
    ("gcd", "gcd(i,i,f)", YES),
    ("mc91", "mc_carthy_91(i,f)", YES),
    ("loop", "loop(i)", NO),
    ("s", "s(i)", NO),
    ("ex2_p", "p(i)", NO),
    ("ex2_q", "q(i)", NO),
]


GOLDEN = Path(__file__).parent / "golden"


def analyse(name, query):
    return analyse_termination(corpus_program(name), parse_query_pattern(query))


def loop_of(name, query, unfold=None):
    program = corpus_program(name)
    if unfold is not None:
        program = unfold_once(program, *unfold)
    pattern = parse_query_pattern(query)
    modes = infer_argument_modes(program, pattern)
    (loop,) = find_integer_loops(program, pattern, modes)
    return loop, modes


def answer_table(name, query):
    program = corpus_program(name)
    pattern = parse_query_pattern(query)
    modes = infer_argument_modes(program, pattern)
    loops = find_integer_loops(program, pattern, modes)
    domains = [build_answer_domain(loop, modes) for loop in loops]
    return compute_abstract_answers(loops, modes, domains)


def test_ac01_mc91_is_proved_with_the_expected_evidence():
    verdict = analyse("mc91", "mc_carthy_91(i,f)")
    assert verdict.answer == YES
    (loop,) = verdict.loops
    assert set(loop.domain["mc_carthy_91/2"]) == {"arg1 =< 100", "arg1 > 100"}
    assert any(
        pair.proof == "decreasing function 100 - arg1 (bound 0)"
        for pair in loop.pairs
    )
    table = answer_table("mc91", "mc_carthy_91(i,f)")
    assert set(table[("mc_carthy_91", 2)]) == {
        conjunction([atom_gt(A1, 100), atom_le(A2 + 10, A1), atom_le(A1, A2 + 10)]),
        conjunction([atom_le(A1, 100), atom_lt(A1, A2 + 10)]),
    }


def test_ac02_unsatisfiable_guards_still_partition_exactly():
    loop, modes = loop_of("t", "t(i)")
    domain = build_domain(collect_comparisons(loop, modes))
    assert set(domain[("t", 1)]) == {
        conjunction([atom_lt(A1, 2)]),
        conjunction([atom_ge(A1, 2), atom_le(A1, 5)]),
        conjunction([atom_gt(A1, 5), atom_lt(A1, 8)]),
        conjunction([atom_ge(A1, 8)]),
    }


def test_ac03_mod_comparison_sets_and_answer_bound():
    loop, modes = loop_of("mod", "mod(i,i,f)")
    assert collect_comparisons(loop, modes) == {
        ("mod", 3): frozenset({atom_ge(A1, A2), atom_gt(A2, 0)})
    }
    assert collect_answer_comparisons(loop, modes) == {
        ("mod", 3): frozenset(
            {
                atom_ge(A1, A2),
                atom_gt(A2, 0),
                atom_lt(A1, A2),
                atom_ge(A1, 0),
                atom_ge(A1, A3),
                atom_le(A1, A3),
                atom_lt(A3, A2),
            }
        )
    }
    table = answer_table("mod", "mod(i,i,f)")
    entries = table[("mod", 3)]
    assert entries
    assert all(implies(e, atom_lt(A3, A2)) for e in entries)


def test_ac04_gcd_is_proved_through_answer_abstraction():
    verdict = analyse("gcd", "gcd(i,i,f)")
    assert verdict.answer == YES
    assert verdict.method == "collected comparisons + answer abstraction"


def test_ac05_alternating_loop_needs_the_difference_function():
    verdict = analyse("p_difficult", "p(i,i)")
    assert verdict.answer == YES
    (loop,) = verdict.loops
    assert any(
        pair.constraint == "arg1 > 0, arg1 < arg2"
        and pair.proof == "decreasing function arg2 - arg1 (bound 0)"
        for pair in loop.pairs
    )
    v1, v2, u1, u2 = (LinExpr.var(n) for n in ("v1", "v2", "u1", "u2"))
    antecedent = [
        atom_lt(v1, u1),
        atom_eq(v2, u2),
        atom_gt(v1, 0),
        atom_gt(u1, 0),
        atom_lt(v1, v2),
        atom_lt(u1, u2),
    ]
    assert implies(antecedent, atom_gt(v2 - v1, u2 - u1))


def test_ac06_mixed_loop_combines_numeric_and_structural_proofs():
    verdict = analyse("q_mixed", "q(b,f,i)")
    assert verdict.answer == YES
    (loop,) = verdict.loops
    proofs = {pair.constraint: pair for pair in loop.pairs}
    countdown = proofs["arg3 > 0"]
    assert countdown.proof == "decreasing function arg3 (bound 0)"
    structural = proofs["arg3 =< 0"]
    assert structural.proof == "structural norm decrease"
    assert "d1 > r1" in structural.trace


def test_ac07_non_integer_loops_are_rejected_with_named_culprits():
    halving = analyse("ex2_p", "p(i)")
    assert halving.answer == NO
    assert (
        "p/1 clause 2: operator / in `X1 is X / 2` is not integer-safe"
        in halving.diagnostics
    )
    stepping = analyse("ex2_q", "q(i)")
    assert stepping.answer == NO
    assert "q/1 clause 2: float constant 0.1" in stepping.diagnostics


def test_ac08_constant_guarded_loop_is_not_proved():
    verdict = analyse("loop", "loop(i)")
    assert verdict.answer == NO


def test_ac09_solver_agrees_with_the_integer_grid():
    rng = random.Random(64063)
    axis = np.arange(-60, 61)
    makers = {
        "lt": (atom_lt, lambda t: t < 0),
        "le": (atom_le, lambda t: t <= 0),
        "eq": (atom_eq, lambda t: t == 0),
        "gt": (atom_gt, lambda t: t > 0),
        "ge": (atom_ge, lambda t: t >= 0),
    }
    violations = []
    for case in range(200):
        nvars = rng.randint(1, 3)
        names = [f"v{i}" for i in range(nvars)]
        grids = np.meshgrid(*([axis] * nvars), indexing="ij", sparse=True)

        def sample():
            coeffs = {n: rng.randint(-20, 20) for n in names}
            const = rng.randint(-20, 20)
            make, on_grid = makers[rng.choice(sorted(makers))]
            expr = LinExpr.build(coeffs, const)
            total = const + sum(c * g for c, g in zip(coeffs.values(), grids))
            return make(expr, 0), on_grid(total)

        atoms, masks = zip(*(sample() for _ in range(rng.randint(1, 3))))
        feasible = np.ones((axis.size,) * nvars, dtype=bool)
        for mask in masks:
            feasible &= mask
        if feasible.any() and not is_satisfiable(atoms):
            violations.append(("sat", case))
        consequent, consequent_mask = sample()
        if implies(atoms, consequent) and (feasible & ~consequent_mask).any():
            violations.append(("implies", case))
    assert violations == []


def test_ac10_unfolding_preserves_answers_to_depth_12():
    program = corpus_program("mc91")
    unfolded = unfold_once(program, 1, 2)
    for x in (-5, 50, 99, 100, 150):
        goal = UserAtom("mc_carthy_91", (IntConst(x), Var("Result")))
        before = run_query(program, goal, max_depth=12)
        after = run_query(unfolded, goal, max_depth=12)
        assert Counter(before) == Counter(after)


def test_reference_interpreter_reads_a_normalized_numeric_equality():
    # normalize_program writes `X = 5` as Comparison(X, "=", 5); ac10
    # runs normalized programs.
    program = normalize_program(parse_program("q(X) :- X = 5.\n"))
    assert run_query(program, UserAtom("q", (IntConst(5),))) == [(IntConst(5),)]
    assert run_query(program, UserAtom("q", (IntConst(7),))) == []


def _sample_int(rng):
    digits = rng.choices((1, 2, 3, 4), weights=(35, 35, 25, 5))[0]
    low = 0 if digits == 1 else 10 ** (digits - 1)
    magnitude = rng.randrange(low, 10**digits)
    return -magnitude if rng.random() < 0.5 else magnitude


def _sample_chain(rng):
    term = AtomConst(rng.choice("ab"))
    for _ in range(rng.randint(0, 6)):
        term = Compound("s", (term,))
    return term


def test_ac11_yes_verdicts_survive_random_bounded_execution():
    exhausted = []
    rng = random.Random(411741)
    for name, query, answer in CORPUS:
        if answer != YES:
            continue
        program = corpus_program(name, normalize=False)
        pattern = parse_query_pattern(query)
        for _ in range(500):
            args = tuple(
                IntConst(_sample_int(rng))
                if mode == "i"
                else _sample_chain(rng)
                if mode == "b"
                else Var(f"Out{pos}")
                for pos, mode in enumerate(pattern.modes)
            )
            goal = UserAtom(pattern.pred, args)
            try:
                run_query(program, goal, max_steps=1_000_000)
            except BudgetExceeded:
                exhausted.append((name, goal))
    assert exhausted == []


def test_ac12_corpus_reports_are_byte_identical_across_runs():
    def full_run():
        return [
            render_report(analyse(name, query), format="json")
            for name, query, _ in CORPUS
        ]

    first = full_run()
    second = full_run()
    for chunk in first:
        json.loads(chunk)
    assert "\n".join(first).encode() == "\n".join(second).encode()


def golden_stem(name, query):
    """File stem of a corpus task's reports, e.g. ``gcd--gcd_iif``."""
    return f"{name}--{query.replace('(', '_').replace(',', '').rstrip(')')}"


def test_ac13_corpus_reports_match_the_golden_files():
    # The fixtures hold the default text report and the JSON report of
    # every corpus task, each as the CLI prints it (one trailing newline).
    mismatched = []
    for name, query, _ in CORPUS:
        verdict = analyse(name, query)
        for fmt, suffix in (("text", "txt"), ("json", "json")):
            path = GOLDEN / f"{golden_stem(name, query)}.{suffix}"
            report = render_report(verdict, format=fmt) + "\n"
            if report.encode() != path.read_bytes():
                mismatched.append(path.name)
    assert mismatched == []


def test_ac14_corpus_reports_under_other_options_match_their_digests():
    # One sha256 per corpus task and non-default option set, frozen by
    # `python3 tests/option_digests.py`.
    expected = json.loads(DIGESTS.read_text())
    assert corpus_digests(CORPUS) == expected


def test_ac15_family_reports_match_their_digests():
    # One sha256 per generated chain, guard and nest task under the
    # default options, frozen with its source by
    # `python3 tests/family_digests.py`.
    expected = json.loads(FAMILY_DIGESTS.read_text())
    got = {
        task_id: task_digest(task["source"], task["query"])
        for task_id, task in expected.items()
    }
    assert got == {task_id: task["sha256"] for task_id, task in expected.items()}

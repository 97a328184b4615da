"""Checks of the benchmark's own machinery.

    python3 -m pytest -q perfbench

The generated programs' expected verdicts are checked with the reference
interpreter `tests/meta_interp.py`, never with the prover: sampled
integer queries of every YES variant finish within the step budget, and
the witness query of every divergent variant exhausts it."""

import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", ROOT / "tests", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from meta_interp import BudgetExceeded, run_query  # noqa: E402
from termiarith import driver, pairs  # noqa: E402
from termiarith.syntax import IntConst, UserAtom, parse_program, parse_query_pattern  # noqa: E402

from generators import FAMILIES, NO, YES  # noqa: E402
from run import (  # noqa: E402
    DIVERGENT_PARAM,
    FAMILY_PARAMS,
    STREAM_PARAMS,
    communicate_with_backstop,
    corpus_tasks,
)
from tracer import Tracer  # noqa: E402

STEP_BUDGET = 1_000_000
SEEDS = range(3)
SAMPLES = 12


def _variants(divergent: bool):
    for seed in SEEDS:
        for family, make in FAMILIES.items():
            values = {DIVERGENT_PARAM} if divergent else (
                set(FAMILY_PARAMS[family]) | set(STREAM_PARAMS[family])
            )
            for value in sorted(values):
                yield make(value, random.Random(f"{seed}/{family}/{value}"), divergent)


def _sample_args(family: str, arity: int, rng: random.Random) -> tuple[int, ...]:
    if family == "nest":
        # Nested counting loops take about C(X - floor + d, d) steps, so
        # stay within a few steps of the lowest possible floor.
        return (rng.randint(-12, 0),)
    values = [rng.randint(-60, 60) for _ in range(arity)]
    # Half the chain queries satisfy the chain, so the recursion runs.
    return tuple(sorted(values)) if rng.random() < 0.5 else tuple(values)


def test_yes_variants_terminate_on_sampled_queries():
    exhausted = []
    rng = random.Random(7)
    for task in _variants(divergent=False):
        assert task.expected == YES
        program = parse_program(task.source)
        pattern = parse_query_pattern(task.query)
        for _ in range(SAMPLES):
            args = _sample_args(task.family, len(pattern.modes), rng)
            goal = UserAtom(pattern.pred, tuple(map(IntConst, args)))
            try:
                run_query(program, goal, max_steps=STEP_BUDGET)
            except BudgetExceeded:
                exhausted.append((task.task_id, args))
    assert exhausted == []


def test_divergent_variants_exhaust_the_budget_on_their_witness():
    for task in _variants(divergent=True):
        assert task.expected == NO
        pattern = parse_query_pattern(task.query)
        goal = UserAtom(pattern.pred, tuple(map(IntConst, task.witness)))
        with pytest.raises(BudgetExceeded):
            run_query(parse_program(task.source), goal, max_steps=100_000)


def test_corpus_expectations_come_from_the_acceptance_table():
    tasks = corpus_tasks()
    assert len(tasks) == 14
    assert sum(t.expected == YES for t in tasks) == 10
    assert sum(t.expected == NO for t in tasks) == 4


def test_backstop_kills_a_worker_that_ignores_sigalrm():
    ignoring = (
        "import signal, time\n"
        "signal.signal(signal.SIGALRM, signal.SIG_IGN)\n"
        "signal.setitimer(signal.ITIMER_REAL, 0.1)\n"
        "time.sleep(60)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", ignoring])
    start = time.monotonic()
    _, _, killed = communicate_with_backstop(proc, 1.0)
    assert killed
    assert proc.returncode == -signal.SIGKILL
    assert time.monotonic() - start < 30


def test_tracer_rebinds_every_importer():
    original = pairs.generate_pairs
    tracer = Tracer()
    tracer.install()
    try:
        assert driver.generate_pairs is pairs.generate_pairs is not original
        program = parse_program("r(0).\nr(X) :- X > 0, Y is X - 1, r(Y).\n")
        driver.analyse_termination(program, parse_query_pattern("r(i)"))
    finally:
        tracer.uninstall()
    assert driver.generate_pairs is pairs.generate_pairs is original
    names = {span[0] for span in tracer.spans}
    assert {"pairs.generate_pairs", "constraints.is_satisfiable"} <= names
    (root,) = [span for span in tracer.spans if span[3] == -1]
    assert root[0] == "driver.analyse_termination"
    totals = tracer.layer_totals()[""]
    assert totals["pairs.base"] > 0
    assert sum(v for k, v in totals.items() if k.endswith(".self_s")) == pytest.approx(
        root[2] - root[1]
    )


def test_self_time_is_duration_minus_child_spans_and_pauses():
    tracer = Tracer()
    tracer.spans[:] = [
        ("driver.analyse_termination", 0.0, 10.0, -1, "t"),
        ("pairs.generate_pairs", 1.0, 5.0, 0, "t"),
        ("constraints.implies", 2.0, 3.0, 1, "t"),
        ("constraints.implies", 6.0, 8.0, 0, "t"),
    ]
    # The second pause was noted for span 3 just after it ended, so it
    # belongs to span 0, the innermost span that encloses it.
    tracer.pauses[:] = [("pause", 3.5, 4.0, 1, "t"), ("pause", 8.5, 9.0, 3, "t")]
    totals = tracer.layer_totals()["t"]
    assert totals == {"driver.self_s": 3.5, "pairs.self_s": 2.5, "constraints.self_s": 3.0}

"""Parametric task generators for the benchmark.

Every generator returns a `Task` whose expected verdict follows from how
the program is built, never from the prover:

* a YES variant decrements one integer argument in every recursive
  clause and guards that clause with a lower bound on the same argument,
  so every integer query terminates;
* the divergent variant replaces one decrement with an identity step
  (`Y is X`) under a guard that a witness query satisfies, so that query
  recurses forever and the verdict must be NO.

The seed only varies constants and variable names, within ranges that
keep the order relations between them fixed; so the shape of the
program, and the work the prover does, depends on the parameter alone.
`perfbench/test_generators.py` checks both claims with the reference
interpreter."""

from __future__ import annotations

import random
from dataclasses import dataclass

YES = "YES"
NO = "NO"

# Variable-name stems the seed chooses from.  Distinct stems keep the
# generated clauses readable and never collide with `Y` below.
_STEMS = ("X", "A", "N", "V", "K", "Len", "Cnt", "Acc")
# Distance between consecutive guard thresholds.
_GUARD_GAP = 5


@dataclass(frozen=True)
class Task:
    """One prover task: program text, query pattern and the known answer.

    `witness` is a ground integer query (as argument values) that
    diverges under Prolog's selection rule; divergent variants carry
    one, YES variants do not."""

    task_id: str
    family: str
    param: int
    source: str
    query: str
    expected: str
    witness: tuple[int, ...] | None = None


def _task(family, param, source, query, witness) -> Task:
    if witness is None:
        return Task(f"{family}-{param}", family, param, source, query, YES)
    return Task(f"{family}-div-{param}", family, param, source, query, NO, witness)


def _names(rng: random.Random, count: int) -> list[str]:
    stem = rng.choice(_STEMS)
    return [f"{stem}{i}" for i in range(count)]


def chain(k: int, rng: random.Random, divergent: bool = False) -> Task:
    """k integer arguments held in a strict chain `X0 < X1 < ... < Xk-1`
    while `X0` counts down to a seeded floor."""
    if k < 2:
        raise ValueError("a chain needs at least two arguments")
    xs = _names(rng, k)
    floor = rng.randint(-20, 20)
    step = rng.randint(1, 3)
    head = f"c({', '.join(xs)})"
    guards = [f"{xs[0]} > {floor}"]
    guards += [f"{xs[i]} < {xs[i + 1]}" for i in range(k - 1)]
    update = f"Y is {xs[0]}" if divergent else f"Y is {xs[0]} - {step}"
    call = f"c({', '.join(['Y', *xs[1:]])})"
    source = (
        f"{head} :- {xs[0]} =< {floor}.\n"
        f"{head} :- {', '.join(guards)}, {update}, {call}.\n"
    )
    witness = tuple(floor + 1 + i for i in range(k)) if divergent else None
    return _task("chain", k, source, f"c({','.join('i' * k)})", witness)


def guard(g: int, rng: random.Random, divergent: bool = False) -> Task:
    """One integer argument and g guarded decrement clauses, one per
    interval between evenly spaced thresholds from a seeded base.  Every
    step is shorter than an interval, so a step lands in the same or the
    next lower interval whatever the seed.  The divergent variant keeps
    the identity step in the last, unbounded interval."""
    if g < 1:
        raise ValueError("a guard program needs at least one guard")
    (x,) = _names(rng, 1)
    base = rng.randint(-50, 20)
    cuts = [base + _GUARD_GAP * i for i in range(g)]
    lines = [f"g({x}) :- {x} =< {cuts[0]}."]
    for i, low in enumerate(cuts):
        step = rng.randint(1, _GUARD_GAP - 1)
        guards = [f"{x} > {low}"]
        if i + 1 < g:
            guards.append(f"{x} =< {cuts[i + 1]}")
        update = f"Y is {x}" if divergent and i + 1 == g else f"Y is {x} - {step}"
        lines.append(f"g({x}) :- {', '.join(guards)}, {update}, g(Y).")
    witness = (cuts[-1] + 1,) if divergent else None
    return _task("guard", g, "\n".join(lines) + "\n", "g(i)", witness)


def nest(d: int, rng: random.Random, divergent: bool = False) -> Task:
    """A chain of d counting loops down to one seeded floor: each `l<i>`
    counts down and calls `l<i+1>` on every step.  The divergent variant
    gives the innermost loop an identity step."""
    if d < 1:
        raise ValueError("a nest needs at least one loop")
    (x,) = _names(rng, 1)
    floor = rng.randint(-10, 10)
    lines = []
    for i in range(1, d + 1):
        last = i == d
        update = f"Y is {x}" if divergent and last else f"Y is {x} - 1"
        inner = "" if last else f"l{i + 1}(Y), "
        lines.append(f"l{i}({x}) :- {x} =< {floor}.")
        lines.append(f"l{i}({x}) :- {x} > {floor}, {update}, {inner}l{i}(Y).")
    # Each call passes X - 1 inward, so a start d steps above the floor
    # reaches the innermost loop above it.
    witness = (floor + d,) if divergent else None
    return _task("nest", d, "\n".join(lines) + "\n", "l1(i)", witness)


FAMILIES = {"chain": chain, "guard": guard, "nest": nest}

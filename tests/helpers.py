"""Small readers over the prover's values that only the tests need:
the true conjunction, the variables and equivalence of conjunctions,
widening a constraint into a partition, the mode order, the integer
positions of a predicate, and program text that round-trips through
`parse_program`."""

from typing import Iterable

from termiarith.constraints import (
    Conjunction,
    LinAtom,
    conjunction,
    implies_all,
    is_satisfiable,
)
from termiarith.modes import ModeAssignment
from termiarith.syntax import MODE_INT, Clause, PredKey, Program, literal_text, mode_meet

#: The empty conjunction is true.
TRUE: Conjunction = frozenset()


def conjunction_variables(conj: Iterable[LinAtom]) -> frozenset[str]:
    out: set[str] = set()
    for a in conj:
        out |= a.expr.variables()
    return frozenset(out)


def equivalent(a: Iterable[LinAtom], b: Iterable[LinAtom]) -> bool:
    return implies_all(a, b) and implies_all(b, a)


def widen(conj: Iterable[LinAtom], pieces: Iterable[Conjunction]) -> tuple[Conjunction, ...]:
    """The pieces a constraint can land in: those whose intersection
    with it is satisfiable."""
    conj = conjunction(conj)
    return tuple(p for p in pieces if is_satisfiable(conjunction(conj | p)))


def mode_leq(a: str, b: str) -> bool:
    """Mode lattice order: i below b below f."""
    return mode_meet(a, b) == a


def integer_positions(modes: ModeAssignment, key: PredKey) -> tuple[int, ...]:
    """The argument positions of `key` assigned mode i."""
    return tuple(p for p, m in enumerate(modes.modes_of(key)) if m == MODE_INT)


def clause_text(clause: Clause) -> str:
    head = literal_text(clause.head)
    if not clause.body:
        return f"{head}."
    body = ", ".join(literal_text(l) for l in clause.body)
    return f"{head} :- {body}."


def program_text(program: Program) -> str:
    return "\n".join(clause_text(c) for c in program.clauses) + "\n"

"""Small readers over the prover's values that only the tests need:
the true conjunction, the variables and equivalence of conjunctions,
widening a constraint into a partition, the brute-force filtered
product, the composition of two pairs, the naive composition closure
and answer fixpoint, the arguments the driver hands a stage, the mode
order, the modes and integer positions of a predicate, and program
text that round-trips through `parse_program`."""

from typing import Iterable, Iterator, Optional, Sequence

from termiarith import driver
from termiarith.answers import AnswerDomain, AnswerTable, call_option
from termiarith.constraints import (
    Conjunction,
    LinAtom,
    conjunction,
    implies_all,
    is_satisfiable,
)
from termiarith.domain import answer_positions, applicable_clauses, clause_constraint
from termiarith.graph import LoopInfo
from termiarith.modes import ModeAssignment
from termiarith.pairs import QueryMappingPair, _composition, _satisfiable_through
from termiarith.syntax import (
    MODE_INT,
    Clause,
    PredKey,
    Program,
    UserAtom,
    literal_text,
    mode_meet,
)

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


def product_reference(
    base: Iterable[LinAtom], levels: Sequence[Sequence[tuple[object, Conjunction]]]
) -> Iterator[tuple[tuple, Conjunction]]:
    """Every pick of one `(label, option)` per level in product order,
    conjoined with `base` all at once, keeping the satisfiable ones as
    `(labels, conjunction)`.  Nothing is pruned: every prefix reaches
    the next level."""
    base = list(base)

    def picks(index: int, labels: tuple, options: list) -> Iterator[tuple[tuple, Conjunction]]:
        if index == len(levels):
            conj = conjunction([*base, *(atom for option in options for atom in option)])
            if is_satisfiable(conj):
                yield labels, conj
            return
        for label, option in levels[index]:
            yield from picks(index + 1, (*labels, label), [*options, option])

    return picks(0, (), [])


def compose_pair(first: QueryMappingPair, second: QueryMappingPair) -> Optional[QueryMappingPair]:
    """The pair summarizing `first` followed by `second`, or None when
    they do not chain (range abstraction differs from the query) or the
    combined constraints are unsatisfiable."""
    if first.mapping.range_atom != second.query or not _satisfiable_through(first, second):
        return None
    return _composition(first, second)


def closure_reference(pairs: Iterable[QueryMappingPair]) -> frozenset[QueryMappingPair]:
    """The composition closure by brute force: compose every ordered
    pair of the current set with `compose_pair` until a round adds
    nothing."""
    closure = set(pairs)
    while True:
        found = {
            composed
            for first in closure
            for second in closure
            if (composed := compose_pair(first, second)) is not None
        }
        if found <= closure:
            return frozenset(closure)
        closure |= found


def answers_reference(
    loops: Sequence[LoopInfo], modes: ModeAssignment, domains: Sequence[AnswerDomain]
) -> AnswerTable:
    """`compute_abstract_answers` by naive rounds, without projection or
    pruning: each round reads every clause against a snapshot of the
    whole table, the candidates are the unpruned `product_reference` of
    the calls' entries, and each piece is tested against the whole
    candidate, clause variables included.  Tables are published in
    partition order."""
    pieces: dict[PredKey, dict[Conjunction, Conjunction]] = {}
    for answer_domain in domains:
        pieces.update(answer_domain.pieces)
    published: AnswerTable = {}
    for loop in loops:
        positions = answer_positions(loop, modes)
        table: dict[PredKey, list[Conjunction]] = {key: [] for key in loop.predicates}
        changed = True
        while changed:
            changed = False
            snapshot = {key: list(entries) for key, entries in published.items()}
            snapshot.update({key: list(found) for key, found in table.items()})
            for clause in applicable_clauses(loop, modes):
                levels = [
                    [call_option(element, lit.args) for element in snapshot[lit.key]]
                    for lit in clause.body
                    if isinstance(lit, UserAtom) and lit.key in snapshot
                ]
                base = conjunction(clause_constraint(clause, positions[clause.key]))
                for _, candidate in product_reference(base, levels):
                    for piece in pieces[clause.key]:
                        if piece not in table[clause.key] and is_satisfiable(candidate | piece):
                            table[clause.key].append(piece)
                            changed = True
        for key in sorted(loop.predicates):
            elements = dict.fromkeys(e for p, e in pieces[key].items() if p in table[key])
            published[key] = tuple(elements)
    return published


def driver_calls(monkeypatch, stage: str, program: Program, pattern, options=None) -> list:
    """The positional arguments of every call the driver makes to
    `stage` (a name the driver module imports) while it analyses the
    task under `options`, in call order."""
    calls = []
    original = getattr(driver, stage)

    def record(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(driver, stage, record)
    driver.analyse_termination(program, pattern, options or driver.AnalysisOptions())
    return calls


def mode_leq(a: str, b: str) -> bool:
    """Mode lattice order: i below b below f."""
    return mode_meet(a, b) == a


def modes_of(modes: ModeAssignment, key: PredKey) -> tuple[str, ...]:
    """The per-position assignment: the call mode, strengthened to i
    on positions whose every value is known to be an integer.  For
    the query's own predicate the declared pattern is authoritative,
    so the result is never weaker than it."""
    calls = modes.call_modes_of(key)
    typed = modes.integer_typed.get(key, (False,) * key[1])
    out = [MODE_INT if t else m for m, t in zip(calls, typed)]
    if key == modes.pattern.key:
        out = [mode_meet(m, d) for m, d in zip(out, modes.pattern.modes)]
    return tuple(out)


def integer_positions(modes: ModeAssignment, key: PredKey) -> tuple[int, ...]:
    """The argument positions of `key` assigned mode i."""
    return tuple(p for p, m in enumerate(modes_of(modes, key)) if m == MODE_INT)


def clause_text(clause: Clause) -> str:
    head = literal_text(clause.head)
    if not clause.body:
        return f"{head}."
    body = ", ".join(literal_text(l) for l in clause.body)
    return f"{head} :- {body}."


def program_text(program: Program) -> str:
    return "\n".join(clause_text(c) for c in program.clauses) + "\n"

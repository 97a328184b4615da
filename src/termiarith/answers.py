"""Abstract answer tables for numerical loops.

A loop's answers are summarized by elements of a finite partition of its
integer argument space.  The table is the least set of elements closed
under the loop's clauses: each clause body is read as a linear
constraint, calls are replaced by table entries, and every satisfiable
combination, a pick of `satisfiable_choices` with one level per call, is
widened back into the partition.  The fixpoint is semi-naive.  A round
reads the table as it stood when the round began, and a clause with
calls into the loop once per such call: that call takes the entries the
previous round added, the calls before it the older entries and the
calls after it all of them, so no combination is read twice.  A clause
without calls into the loop is read in the first round only.  Each
call's option for an entry, the entry instantiated on the call's
arguments, is built once per fixpoint and read in every round.  Pieces
mention only the argument positions, so a combination is projected onto
them (`eliminate_outside`) before the pieces not yet in the table are
tested against it, and not read at all once every piece is in.  Loops
are solved callee-first, so a published table stands in for the calls
an outer loop makes into an inner one.

When a loop's comparisons say nothing about some integer position
(typically an output computed by arithmetic), the partition used for
widening is the propagated one from `extend_domain`, further refined by
the sign levels of the non-recursive clauses' constraints through the
same walk; without the refinement the first widening step would forget
how outputs relate to inputs.  A refinement whose walk passes
`domain.PARTITION_BUDGET` solver checks is dropped with a note, as the
propagation is.  The published table still reports plain propagated
elements, in partition order; the refinement stays internal to the
fixpoint."""

from __future__ import annotations

from functools import cache
from typing import Mapping, NamedTuple, Sequence

from . import domain
from .constraints import (
    Conjunction,
    LinAtom,
    conjunction,
    eliminate_outside,
    is_satisfiable,
    make_atom,
    substitute,
)
from .domain import (
    Domain,
    DomainTooLarge,
    answer_positions,
    applicable_clauses,
    build_domain,
    clause_constraint,
    collect_answer_comparisons,
    extend_domain,
    infer_comparisons,
    linear_term,
    position_var,
    projected_halves,
    satisfiable_choices,
    sign_levels,
    unconstrained_positions,
)
from .graph import LoopInfo
from .modes import ModeAssignment
from .syntax import PredKey, Term, UserAtom

#: Per predicate, the partition elements (over arg1, arg2, ...) that
#: calls can succeed with, in partition order.
AnswerTable = Domain


class AnswerDomain(NamedTuple):
    """Widening targets for a loop's fixpoint: `pieces` maps the
    disjoint conjunctions the fixpoint widens into, in partition order,
    to the partition elements they report as."""

    pieces: dict[PredKey, dict[Conjunction, Conjunction]]
    notes: tuple[str, ...] = ()


def _refinement_atoms(
    loop: LoopInfo,
    modes: ModeAssignment,
    positions: Mapping[PredKey, tuple[int, ...]],
    notes: list[str],
) -> dict[PredKey, list[LinAtom]]:
    """Inequalities the non-recursive clauses impose on the answer
    positions, equalities split into their two halves."""
    out: dict[PredKey, list[LinAtom]] = {key: [] for key in positions}
    for clause in applicable_clauses(loop, modes):
        if loop.is_recursive_clause(clause):
            continue
        halves = projected_halves(clause, positions[clause.key])
        if halves is None:
            name, arity = clause.key
            notes.append(
                f"projection cap hit on a non-recursive clause of"
                f" {name}/{arity}; widening stays unrefined there"
            )
            continue
        found = out[clause.key]
        for half in halves:
            if half.expr.terms and half not in found:
                found.append(half)
    return out


def build_answer_domain(
    loop: LoopInfo,
    modes: ModeAssignment,
    query_domain: Domain,
    used_inference: bool = False,
) -> AnswerDomain:
    """The widening targets for the loop.

    When every integer position is mentioned by some collectable
    comparison, the targets are the partition generated by the answer
    comparisons (inferred ones included when the query domain needed
    inference).  Otherwise the query partition is propagated across
    positions and refined by the non-recursive clauses.  May raise
    `DomainTooLarge` like `build_domain`."""
    positions = answer_positions(loop, modes)
    notes: list[str] = []
    pieces: dict[PredKey, dict[Conjunction, Conjunction]] = {}
    collected = collect_answer_comparisons(loop, modes)
    if any(unconstrained_positions(loop, modes, collected).values()):
        extended = extend_domain(query_domain, loop)
        notes.extend(extended.notes)
        refinement = _refinement_atoms(loop, modes, positions, notes)
        for key, elements in extended.elements.items():
            # Each piece the elements split into, mapped to the first
            # element it came from.
            origin: dict[Conjunction, Conjunction] = {}
            levels = [[(element, element) for element in elements], *sign_levels(refinement[key])]
            try:
                for (element, *_), piece in satisfiable_choices(
                    frozenset(), levels, domain.PARTITION_BUDGET
                ):
                    origin.setdefault(piece, element)
            except DomainTooLarge:
                name, arity = key
                notes.append(
                    f"{name}/{arity}: refinement passed the budget of"
                    f" {domain.PARTITION_BUDGET} solver checks; widening stays unrefined"
                )
                origin = {element: element for element in elements}
            pieces[key] = origin
    else:
        comparisons = collected
        if used_inference:
            inferred = infer_comparisons(loop, modes, positions=positions)
            comparisons = {key: atoms | inferred[key] for key, atoms in collected.items()}
        partition = build_domain(comparisons)
        for key, elements in partition.items():
            pieces[key] = {element: element for element in elements}
    return AnswerDomain(pieces=pieces, notes=tuple(notes))


def instantiate_element(element: Conjunction, args: Sequence[Term]) -> list[LinAtom]:
    """Element constraints rewritten from position variables onto the
    call's argument terms.  Constraints that touch an argument with no
    linear reading are dropped, which only loses precision."""
    images = {position_var(j): linear_term(arg) for j, arg in enumerate(args)}
    return [
        make_atom(substitute(atom.expr, images), atom.rel)
        for atom in element
        if all(images.get(name) is not None for name in atom.expr.variables())
    ]


#: An answer element as a level option of `satisfiable_choices`: the
#: element with its constraints instantiated on a call's arguments.
CallOption = tuple[Conjunction, Conjunction]


def call_option(element: Conjunction, args: Sequence[Term]) -> CallOption:
    return element, frozenset(instantiate_element(element, args))


def compute_abstract_answers(
    loops: Sequence[LoopInfo],
    modes: ModeAssignment,
    domains: Sequence[AnswerDomain],
) -> AnswerTable:
    """Answer tables for the given loops, which must come callee-first
    (as `find_integer_loops` returns them) and carry one AnswerDomain
    per loop predicate between them."""
    pieces: dict[PredKey, dict[Conjunction, Conjunction]] = {}
    for answer_domain in domains:
        pieces.update(answer_domain.pieces)
    published: AnswerTable = {}
    # Each answer element instantiated on each call's arguments, once.
    option = cache(call_option)
    for loop in loops:
        positions = answer_positions(loop, modes)
        table: dict[PredKey, dict[Conjunction, None]] = {key: {} for key in loop.predicates}
        arguments = {key: [position_var(j) for j in range(key[1])] for key in loop.predicates}
        # Per clause: its key, its base constraint and its calls into this
        # loop or a published one, one level each.
        known = table.keys() | published.keys()
        clauses = []
        for clause in applicable_clauses(loop, modes):
            base = conjunction(clause_constraint(clause, positions[clause.key]))
            calls = [lit for lit in clause.body if isinstance(lit, UserAtom) and lit.key in known]
            clauses.append((clause.key, base, calls))
        older = None
        while True:
            entries = {key: tuple(found) for key, found in table.items()}
            if entries == older:
                break
            for key, base, calls in clauses:
                pivots = [i for i, lit in enumerate(calls) if lit.key in table]
                # The first round reads exactly the clauses without pivots.
                if bool(pivots) == (older is None):
                    continue
                for pivot in pivots or [0]:
                    levels = []
                    for i, lit in enumerate(calls):
                        if lit.key in published:
                            chosen = published[lit.key]
                        elif i < pivot:
                            chosen = older[lit.key]
                        elif i == pivot:
                            chosen = entries[lit.key][len(older[lit.key]) :]
                        else:
                            chosen = entries[lit.key]
                        levels.append([option(element, lit.args) for element in chosen])
                    for _, candidate in satisfiable_choices(base, levels):
                        unseen = [piece for piece in pieces[key] if piece not in table[key]]
                        if not unseen:
                            break
                        answer = eliminate_outside(candidate, arguments[key])
                        for piece in unseen:
                            if is_satisfiable(conjunction(answer | piece)):
                                table[key][piece] = None
            older = entries
        for key in sorted(loop.predicates):
            elements = dict.fromkeys(e for p, e in pieces[key].items() if p in table[key])
            published[key] = tuple(elements)
    return published

"""Abstract answer tables for numerical loops.

A loop's answers are summarized by elements of a finite partition of its
integer argument space, which `build_answer_domain` builds from the loop
and its modes alone.  The table is the least set of elements closed
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
arguments, is built once per fixpoint and read in every round.
Elements mention only the argument positions, so a combination is
projected onto them (`eliminate_outside`) before the elements not yet in
the table are tested against it, and not read at all once every element
is in.  Loops are solved callee-first, so a published table stands in
for the calls an outer loop makes into an inner one."""

from __future__ import annotations

from functools import cache
from typing import Sequence

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
    answer_positions,
    applicable_clauses,
    build_domain,
    clause_constraint,
    collect_answer_comparisons,
    infer_comparisons,
    linear_term,
    position_var,
    satisfiable_choices,
)
from .graph import LoopInfo
from .modes import ModeAssignment
from .syntax import PredKey, Term, UserAtom

#: Per predicate, the partition elements (over arg1, arg2, ...) that
#: calls can succeed with, in partition order.
AnswerTable = Domain


def build_answer_domain(loop: LoopInfo, modes: ModeAssignment) -> Domain:
    """The partition the loop's answers are widened into: `build_domain`
    over the collected answer comparisons and those inferred on the
    integer-typed positions.

    Any partition that covers the answer space is a sound widening
    target, and `build_domain`'s satisfiable sign assignments cover it:
    every integer answer satisfies one sign of each comparison.  May
    raise `DomainTooLarge` like `build_domain`."""
    collected = collect_answer_comparisons(loop, modes)
    inferred = infer_comparisons(loop, modes, positions=answer_positions(loop, modes))
    return build_domain({key: atoms | inferred[key] for key, atoms in collected.items()})


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
    domains: Sequence[Domain],
) -> AnswerTable:
    """Answer tables for the given loops, which must come callee-first
    (as `find_integer_loops` returns them) and carry one answer domain
    per loop between them."""
    pieces: Domain = {}
    for answer_domain in domains:
        pieces.update(answer_domain)
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
            published[key] = tuple(piece for piece in pieces[key] if piece in table[key])
    return published

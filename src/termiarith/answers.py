"""Abstract answer tables for numerical loops.

A loop's answers are summarized by pieces of a finite partition of its
integer argument space: the leaves of the sign tree over a set of
answer atoms (`domain.sign_tree`), which `build_answer_domain` reads
off the loop and its modes alone.  The table is the least set of pieces
closed under the loop's clauses: each clause body is read as a linear
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

Widening is lazy: the partition is never built.  A combination is
projected onto the argument positions (`eliminate_outside`), the answer
A, and the sign tree is walked under A.  The leaves reached are exactly
the pieces A meets, since the walk enters only satisfiable prefixes and
adding atoms never makes an unsatisfiable conjunction satisfiable.  A
piece entering the table is simplified once, from its signed atoms
without A, so it is the piece `build_domain` makes for that leaf, and
each predicate's entries are published in leaf order, which is
`build_domain`'s piece order.

The walk under A shares `PARTITION_BUDGET` with the walk of the whole
tree, and no answer rung that completes with the whole partition is
lost.  The walk under A checks A, then a node only when its parent
prefix with A is satisfiable, so its parent prefix is satisfiable and
the whole walk checks that node too.  So it makes at most as many
checks as the whole walk, A standing in for the whole walk's first
check of the empty conjunction, and aborts only when the whole
partition passes the budget too.  The reverse does not hold: a
partition past the budget can still be widened into answer by answer.

Loops are solved callee-first, so a published table stands in for the
calls an outer loop makes into an inner one."""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .constraints import (
    Conjunction,
    LinAtom,
    conjunction,
    eliminate_outside,
    make_atom,
    negate_atom,
    simplify,
    substitute,
)
from .domain import (
    Domain,
    answer_positions,
    applicable_clauses,
    clause_constraint,
    collect_answer_comparisons,
    infer_comparisons,
    linear_term,
    position_var,
    satisfiable_choices,
    sign_atoms,
    sign_tree,
)
from .graph import LoopInfo
from .modes import ModeAssignment
from .syntax import PredKey, Term, UserAtom

#: Per predicate, the partition elements (over arg1, arg2, ...) that
#: calls can succeed with, in partition order.
AnswerTable = Domain

#: Per predicate, the atoms whose sign tree partitions its answers.
AnswerAtoms = dict[PredKey, tuple[LinAtom, ...]]


def build_answer_domain(loop: LoopInfo, modes: ModeAssignment) -> AnswerAtoms:
    """The `sign_atoms` of each loop predicate's answer comparisons: the
    collected answer comparisons and those inferred on the integer-typed
    positions.  Their sign tree's leaves partition the answers.

    Any partition that covers the answer space is a sound widening
    target, and the satisfiable sign assignments cover it: every integer
    answer satisfies one sign of each comparison."""
    collected = collect_answer_comparisons(loop, modes)
    inferred = infer_comparisons(loop, modes, positions=answer_positions(loop, modes))
    return {key: sign_atoms(atoms | inferred[key]) for key, atoms in collected.items()}


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
    domains: Sequence[AnswerAtoms],
) -> AnswerTable:
    """Answer tables for the given loops, which must come callee-first
    (as `find_integer_loops` returns them) and carry one
    `build_answer_domain` per loop between them.  Raises DomainTooLarge,
    naming the predicate, when widening one answer passes
    `domain.PARTITION_BUDGET` (see the module docstring)."""
    atoms: AnswerAtoms = {}
    for answer_atoms in domains:
        atoms.update(answer_atoms)
    published: AnswerTable = {}
    # Each answer element instantiated on each call's arguments, once.
    option = cache(call_option)
    for loop in loops:
        positions = answer_positions(loop, modes)
        # Per predicate, the pieces reached, by their leaf labels, in the
        # order they were reached.
        table: dict[PredKey, dict[tuple[bool, ...], Conjunction]] = {
            key: {} for key in loop.predicates
        }
        arguments = {key: [position_var(j) for j in range(key[1])] for key in loop.predicates}
        described = {
            key: f"answer comparison set of {key[0]}/{key[1]} has {len(atoms[key])} atoms"
            for key in loop.predicates
        }
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
            entries = {key: tuple(found.values()) for key, found in table.items()}
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
                        answer = eliminate_outside(candidate, arguments[key])
                        for labels, _ in sign_tree(atoms[key], answer, described[key]):
                            if labels not in table[key]:
                                signed = (
                                    atom if sign else negate_atom(atom)
                                    for atom, sign in zip(atoms[key], labels)
                                )
                                table[key][labels] = simplify(signed)
            older = entries
        for key in sorted(loop.predicates):
            # In leaf order: the atom (True) before its negation at every level.
            leaves = sorted(table[key].items(), key=lambda leaf: [not sign for sign in leaf[0]])
            published[key] = tuple(piece for _, piece in leaves)
    return published

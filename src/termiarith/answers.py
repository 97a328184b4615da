"""Abstract answer tables for numerical loops.

A loop's answers are summarized by elements of a finite partition of its
integer argument space.  The table is the least set of elements closed
under the loop's clauses: each clause body is read as a linear
constraint, recursive calls are replaced by already-derived table
entries, and every satisfiable combination is widened back into the
partition.  Pieces mention only the argument positions, so a
combination is projected onto them (`eliminate_outside`) before the
pieces not yet in the table are tested against it, and not read at all
once every piece is in.  Loops are solved callee-first, so a published
table stands in for the calls an outer loop makes into an inner one.

When a loop's comparisons say nothing about some integer position
(typically an output computed by arithmetic), the partition used for
widening is the propagated one from `extend_domain`, further refined by
the constraints of the non-recursive clauses; without the refinement the
first widening step would forget how outputs relate to inputs.  The
published table still reports plain propagated elements, the refinement
stays internal to the fixpoint."""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Sequence

from .constraints import (
    Conjunction,
    LinAtom,
    atom_is_false,
    atom_is_true,
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
    extend_domain,
    infer_comparisons,
    linear_term,
    position_var,
    projected_halves,
    sign_pieces,
    unconstrained_positions,
)
from .graph import LoopInfo
from .modes import ModeAssignment
from .syntax import PredKey, Term, UserAtom

#: Refinement atoms per predicate; past this the fixpoint widens into
#: the unrefined partition.
REFINE_CAP = 6

#: Bound on elements times sign assignments during refinement.
PIECE_CAP = 4096

AnswerTable = dict[PredKey, tuple["AbstractAtom", ...]]


class AbstractAtom(NamedTuple):
    """One published answer: calls to `key` can succeed with argument
    values inside `element` (over arg1, arg2, ...)."""

    key: PredKey
    element: Conjunction


class AnswerDomain(NamedTuple):
    """Widening targets for a loop's fixpoint.

    `pieces` are the disjoint conjunctions the fixpoint widens into;
    `exposed` maps each piece to the partition element it reports as."""

    pieces: dict[PredKey, tuple[Conjunction, ...]]
    exposed: dict[PredKey, dict[Conjunction, Conjunction]]
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
            if not (atom_is_true(half) or atom_is_false(half) or half in found):
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
    pieces: dict[PredKey, tuple[Conjunction, ...]] = {}
    exposed: dict[PredKey, dict[Conjunction, Conjunction]] = {}
    query_domain = {
        key: elements
        for key, elements in query_domain.items()
        if key in loop.predicates
    }
    if any(unconstrained_positions(loop, modes).values()):
        extended = extend_domain(query_domain, loop)
        notes.extend(extended.notes)
        refinement = _refinement_atoms(loop, modes, positions, notes)
        for key, elements in extended.elements.items():
            name, arity = key
            atoms = refinement[key]
            if len(atoms) > REFINE_CAP:
                notes.append(
                    f"{name}/{arity}: {len(atoms)} refinement atoms is past"
                    f" the cap of {REFINE_CAP}; widening stays unrefined"
                )
                atoms = []
            if len(elements) * (2 ** len(atoms)) > PIECE_CAP:
                notes.append(
                    f"{name}/{arity}: refinement would pass {PIECE_CAP}"
                    " candidate pieces; widening stays unrefined"
                )
                atoms = []
            kept: list[Conjunction] = []
            origin: dict[Conjunction, Conjunction] = {}
            for element in elements:
                for piece in sign_pieces(atoms, element):
                    if piece in origin:
                        continue
                    kept.append(piece)
                    origin[piece] = element
            pieces[key] = tuple(kept)
            exposed[key] = origin
    else:
        comparisons = {k: set(v) for k, v in collect_answer_comparisons(loop, modes).items()}
        if used_inference:
            for key, atoms in infer_comparisons(loop, modes, positions=positions).items():
                comparisons[key] |= atoms
        domain = build_domain({k: frozenset(v) for k, v in comparisons.items()})
        for key, elements in domain.items():
            pieces[key] = elements
            exposed[key] = {element: element for element in elements}
    return AnswerDomain(pieces=pieces, exposed=exposed, notes=tuple(notes))


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


def answer_choices(
    base: Conjunction,
    calls: Sequence[tuple[UserAtom, Sequence[Conjunction]]],
) -> Iterator[Conjunction]:
    """`base` extended by every consistent choice of one answer element
    per call, instantiated on the call's arguments, pruned as soon as a
    prefix goes unsatisfiable.  A call's element list is read when the
    call is reached, so a list that grows while the choices are consumed
    is seen grown by the choices after the growth."""

    def extend(index: int, conj: Conjunction) -> Iterator[Conjunction]:
        if index == len(calls):
            yield conj
            return
        atom, elements = calls[index]
        for element in tuple(elements):
            grown = conjunction(conj | frozenset(instantiate_element(element, atom.args)))
            if is_satisfiable(grown):
                yield from extend(index + 1, grown)

    if is_satisfiable(base):
        yield from extend(0, base)


def compute_abstract_answers(
    loops: Sequence[LoopInfo],
    modes: ModeAssignment,
    domains: Sequence[AnswerDomain],
) -> AnswerTable:
    """Answer tables for the given loops, which must come callee-first
    (as `find_integer_loops` returns them) and carry one AnswerDomain
    per loop predicate between them."""
    pieces: dict[PredKey, tuple[Conjunction, ...]] = {}
    exposed: dict[PredKey, dict[Conjunction, Conjunction]] = {}
    for answer_domain in domains:
        pieces.update(answer_domain.pieces)
        exposed.update(answer_domain.exposed)
    published: AnswerTable = {}
    for loop in loops:
        positions = answer_positions(loop, modes)
        table: dict[PredKey, list[Conjunction]] = {key: [] for key in loop.predicates}
        seen: dict[PredKey, set[Conjunction]] = {key: set() for key in loop.predicates}
        arguments = {key: [position_var(j) for j in range(key[1])] for key in loop.predicates}
        # Per clause: its key, its base constraint and its calls into
        # this loop (the live table lists) or into published loops.
        clauses = []
        for clause in applicable_clauses(loop, modes):
            base = conjunction(clause_constraint(clause, positions[clause.key]))
            calls = []
            for lit in clause.body:
                if isinstance(lit, UserAtom) and lit.key in table:
                    calls.append((lit, table[lit.key]))
                elif isinstance(lit, UserAtom) and lit.key in published:
                    calls.append((lit, tuple(entry.element for entry in published[lit.key])))
            clauses.append((clause.key, base, calls))
        changed = True
        while changed:
            changed = False
            for key, base, calls in clauses:
                for candidate in answer_choices(base, calls):
                    unseen = [piece for piece in pieces[key] if piece not in seen[key]]
                    if not unseen:
                        break
                    answer = eliminate_outside(candidate, arguments[key])
                    for piece in unseen:
                        if is_satisfiable(conjunction(answer | piece)):
                            table[key].append(piece)
                            seen[key].add(piece)
                            changed = True
        for key in sorted(loop.predicates):
            entries: list[AbstractAtom] = []
            reported: set[Conjunction] = set()
            for piece in table[key]:
                element = exposed[key][piece]
                if element not in reported:
                    reported.add(element)
                    entries.append(AbstractAtom(key=key, element=element))
            published[key] = tuple(entries)
    return published

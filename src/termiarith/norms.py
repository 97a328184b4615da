"""Term-size norm and inter-argument size relations.

The term-size norm counts function symbols: a compound term weighs one
plus its arguments, constants and variables weigh nothing (a variable's
size is its own symbolic nonnegative variable).  On top of the norm a
bottom-up fixpoint derives, per predicate, linear relations between the
sizes of its arguments that hold for every computed answer.  Relations
are joined across clauses by keeping the atoms every clause implies, so
`q(s(X), X, _)` style heads yield strict facts like sz1 > sz2 even when
other clauses only give sz1 > sz2 + 2.

The pair builder consumes these relations through head_call_sizes,
which relates the sizes of a clause head's arguments to the sizes of
one body call's arguments, assuming everything before that call has
already succeeded.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from .constraints import (
    EQ,
    FALSE,
    Conjunction,
    LinAtom,
    LinExpr,
    atom_ge,
    conjunction,
    implies,
    is_satisfiable,
    make_atom,
    project,
    simplify,
    substitute,
    weak_halves,
)
from .graph import strongly_connected_components
from .modes import ModeAssignment, clause_applicable
from .syntax import (
    Clause,
    Compound,
    PredKey,
    Program,
    Term,
    UserAtom,
    Var,
    clause_vars,
)

MAX_ROUNDS = 20
REFINE_ROUNDS = 2


def size_var(pos: int) -> str:
    """Name of the size of argument position pos (0-based) in a relation."""
    return f"sz{pos + 1}"


def var_size(name: str) -> str:
    return f"sz_{name}"


def term_size(term: Term) -> LinExpr:
    if isinstance(term, Var):
        return LinExpr.var(var_size(term.name))
    if isinstance(term, Compound):
        total = LinExpr.of(1)
        for arg in term.args:
            total = total + term_size(arg)
        return total
    return LinExpr.of(0)


def _size_equations(
    clause: Clause,
    rows: Iterable[tuple[Callable[[int], str], tuple[Term, ...]]],
    calls: Iterable[UserAtom],
    table: Mapping[PredKey, Optional[Conjunction]],
) -> Optional[list[LinAtom]]:
    """Each (name, args) row's size variables name(0).. equal to the
    sizes of its terms, every clause variable's size nonnegative, and
    each call's relation from `table` instantiated on its arguments;
    None when some call has no relation yet."""
    atoms = [
        make_atom(LinExpr.var(name(pos)) - term_size(arg), EQ)
        for name, args in rows
        for pos, arg in enumerate(args)
    ]
    atoms += [atom_ge(LinExpr.var(var_size(v.name)), 0) for v in sorted(clause_vars(clause))]
    for call in calls:
        rel = table.get(call.key)
        if rel is None:
            return None
        mapping = {size_var(k): term_size(arg) for k, arg in enumerate(call.args)}
        atoms += [make_atom(substitute(a.expr, mapping), a.rel) for a in rel]
    return atoms


def _clause_projection(
    clause: Clause, table: Mapping[PredKey, Optional[Conjunction]]
) -> Optional[Conjunction]:
    """Size constraints over sz1..szn for one clause's answers, or None
    when some body call has no answers yet."""
    calls = [lit for lit in clause.body if isinstance(lit, UserAtom)]
    atoms = _size_equations(clause, [(size_var, clause.head.args)], calls, table)
    if atoms is None:
        return None
    conj = conjunction(atoms)
    if not is_satisfiable(conj):
        return None
    keep = {size_var(pos) for pos in range(len(clause.head.args))}
    return project(conj, keep)


def _common(candidates: Iterable[LinAtom], projections: list[Conjunction]) -> Conjunction:
    """The candidates every projection implies, simplified."""
    kept = [
        atom
        for atom in sorted(candidates)
        if all(implies(proj, atom) for proj in projections)
    ]
    return simplify(conjunction(kept))


def _join(projections: list[Conjunction], previous: Optional[Conjunction]) -> Conjunction:
    candidates: set[LinAtom] = set(previous or ())
    for proj in projections:
        for atom in proj:
            candidates.add(atom)
            candidates.update(weak_halves(atom))
    return _common(candidates, projections)


def infer_size_relations(
    program: Program, modes: Optional[ModeAssignment] = None
) -> dict[PredKey, Conjunction]:
    """For every predicate, a conjunction over sz1..szn that every
    computed answer satisfies.  Predicates without answers map to the
    unsatisfiable conjunction."""
    table: dict[PredKey, Optional[Conjunction]] = {}

    def clauses_of(key: PredKey) -> list[Clause]:
        picked = [program.clauses[i] for i in program.index.get(key, ())]
        if modes is not None and modes.is_reachable(key):
            call_modes = modes.call_modes_of(key)
            picked = [c for c in picked if clause_applicable(c, call_modes)]
        return picked

    for component in strongly_connected_components(program.callees):
        members = sorted(component)
        stable = False
        for round_ in range(MAX_ROUNDS):
            changed = False
            for key in members:
                projections = [
                    proj
                    for clause in clauses_of(key)
                    if (proj := _clause_projection(clause, table)) is not None
                ]
                previous = table.get(key)
                if not projections:
                    new: Optional[Conjunction] = None
                elif round_ < REFINE_ROUNDS or previous is None:
                    new = _join(projections, previous)
                else:
                    # Widen: only drop no-longer-implied atoms, so the
                    # iteration cannot oscillate.
                    new = _common(previous, projections)
                if new != previous:
                    table[key] = new
                    changed = True
            if not changed:
                stable = True
                break
        if not stable:
            # Give up on precision for this component rather than loop.
            for key in members:
                if table.get(key) is not None:
                    table[key] = frozenset()
    return {
        key: (rel if rel is not None else conjunction([FALSE]))
        for key, rel in ((k, table.get(k)) for k in sorted(program.callees))
    }


def head_size_var(pos: int) -> str:
    return f"szh{pos + 1}"


def call_size_var(pos: int) -> str:
    return f"szc{pos + 1}"


def head_call_sizes(
    clause: Clause,
    call_index: int,
    table: Mapping[PredKey, Conjunction],
) -> Conjunction:
    """Relate head argument sizes (szh1..) to the sizes of the call at
    body position call_index (szc1..), given that every user call before
    it has succeeded."""
    lit = clause.body[call_index]
    assert isinstance(lit, UserAtom)
    priors = [prior for prior in clause.body[:call_index] if isinstance(prior, UserAtom)]
    rows = [(head_size_var, clause.head.args), (call_size_var, lit.args)]
    atoms = _size_equations(clause, rows, priors, table)
    return conjunction([FALSE] if atoms is None else atoms)

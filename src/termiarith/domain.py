"""Finite integer abstraction domains for loop predicates.

Downstream reasoning needs a finite description of the integer values
that flow through a loop.  This module builds one as a partition of the
integer argument space of each loop predicate, generated by a finite
comparison set:

* `collect_comparisons` reads comparisons straight out of the bodies of
  recursive clauses (the cheap route; needs head integer positions to be
  distinct variables);
* `without_pass_through` drops from a set the atoms over positions the
  loop passes on unchanged (`pass_through_positions`);
* `infer_comparisons` projects everything a clause body implies onto the
  head integer positions, which subsumes collection;
* `unfold_once` performs one resolution step, typically splitting a
  clause so that a later inference pass finds sharper guards;
* `build_domain` turns a comparison set into the partition, the leaves
  of the sign tree over its `sign_atoms` (`sign_tree`);
* `extend_domain` spreads a partition across argument positions that
  exchange values (the prover does not call it; see its section);
* `satisfiable_choices` is the one walk over a finite product of
  options (sign assignments, partition copies, answer entries, row
  elements) that enters only satisfiable prefixes; the prover builds
  every finite abstraction through it;
* `collect_answer_comparisons` is the collection variant over all
  clauses and all integer positions, used to partition answers rather
  than queries.

A comparison is kept only in the variable/constant shape ``t1 rel t2``
with each side a position variable or an integer constant; that keeps
every comparison set finite no matter how inference is iterated.
Position variables are named after 1-based argument positions: ``arg1``,
``arg2``, ...
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial, inf
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .constraints import (
    EQ,
    FALSE,
    SIGNED_RELATIONS,
    Conjunction,
    LinAtom,
    LinExpr,
    atom_from_coeffs,
    conjunction,
    is_satisfiable,
    negate_atom,
    project_or_none,
    rename,
    simplify,
    weak_halves,
)
from .graph import LoopInfo
from .modes import ModeAssignment, clause_applicable
from .syntax import (
    Clause,
    Comparison,
    Compound,
    IntConst,
    Is,
    Literal,
    MODE_INT,
    PredKey,
    Program,
    Term,
    UserAtom,
    Var,
    clause_vars,
    is_numeric_operand,
    literal_terms,
    mode_meet,
    rename_clause,
    term_vars,
    unify_atoms,
    apply_subst_clause,
)

#: Solver checks one partition walk may make, its base check included:
#: the sign tree of a query or answer comparison set, or the propagation
#: of a domain (which also counts its permutations).  A 12-atom sign tree
#: has at most 2**13 - 1 nodes, so every such set is partitioned.
PARTITION_BUDGET = 2**13

ComparisonSet = dict[PredKey, frozenset[LinAtom]]
Domain = dict[PredKey, tuple[Conjunction, ...]]


class DomainTooLarge(Exception):
    """A partition walk needed more than `PARTITION_BUDGET` solver
    checks."""


def position_var(pos: int) -> str:
    """Canonical variable standing for argument position pos (0-based)."""
    return f"arg{pos + 1}"


def effective_call_modes(key: PredKey, modes: ModeAssignment) -> tuple[str, ...]:
    calls = modes.call_modes_of(key)
    if key == modes.pattern.key:
        calls = tuple(mode_meet(m, d) for m, d in zip(calls, modes.pattern.modes))
    return calls


def query_positions(loop: LoopInfo, modes: ModeAssignment) -> dict[PredKey, tuple[int, ...]]:
    """Per loop predicate, the head positions that every reachable call
    fills with an integer.  These are the positions a query-side domain
    can talk about."""
    out: dict[PredKey, tuple[int, ...]] = {}
    for key in sorted(loop.predicates):
        calls = effective_call_modes(key, modes)
        out[key] = tuple(j for j, m in enumerate(calls) if m == MODE_INT)
    return out


def answer_positions(loop: LoopInfo, modes: ModeAssignment) -> dict[PredKey, tuple[int, ...]]:
    """Per loop predicate, the integer-typed head positions.  Answers
    instantiate outputs too, so this is wider than `query_positions`."""
    out: dict[PredKey, tuple[int, ...]] = {}
    for key in sorted(loop.predicates):
        typed = modes.integer_typed.get(key, (False,) * key[1])
        out[key] = tuple(j for j, t in enumerate(typed) if t)
    return out


def applicable_clauses(loop: LoopInfo, modes: ModeAssignment) -> list[Clause]:
    return [
        clause
        for clause in loop.clauses
        if clause_applicable(clause, effective_call_modes(clause.key, modes))
    ]


# ---------------------------------------------------------------------------
# Terms as linear expressions.


def _add_linear(coeffs: dict[str, int], term: Term, k: int) -> Optional[int]:
    """Add k times the term's variable coefficients into `coeffs` and
    return k times its constant, in one pass with no expression per
    subterm; None when the term is not linear integer arithmetic, and
    `coeffs` is then partly filled."""
    if isinstance(term, Var):
        coeffs[term.name] = coeffs.get(term.name, 0) + k
        return 0
    if isinstance(term, IntConst):
        return k * term.value
    if not isinstance(term, Compound):
        return None
    functor, args = term
    if functor == "-" and len(args) == 1:
        return _add_linear(coeffs, args[0], -k)
    if len(args) != 2:
        return None
    lhs, rhs = args
    if functor in ("+", "-"):
        const = _add_linear(coeffs, lhs, k)
        rest = None if const is None else _add_linear(coeffs, rhs, k if functor == "+" else -k)
        return None if rest is None else const + rest
    if functor == "*":
        # A product is linear when a factor is variable-free: the other
        # factor is scaled by its value.
        for factor, scaled in ((lhs, rhs), (rhs, lhs)):
            inner: dict[str, int] = {}
            value = _add_linear(inner, factor, 1)
            if value is None:
                return None
            if not any(inner.values()):
                return _add_linear(coeffs, scaled, k * value)
    return None


def linear_term(term: Term) -> Optional[LinExpr]:
    """The term as a linear expression over its variable names, or None
    when it is not linear integer arithmetic."""
    coeffs: dict[str, int] = {}
    const = _add_linear(coeffs, term, 1)
    return None if const is None else LinExpr.build(coeffs, const)


def linear_atom(lhs: Term, op: str, rhs: Term) -> Optional[LinAtom]:
    """``RELATIONS[op](linear_term(lhs), linear_term(rhs))``, built from
    one dict that both sides add into with opposite signs; None when a
    side is not linear."""
    rel, sign = SIGNED_RELATIONS[op]
    coeffs: dict[str, int] = {}
    const = _add_linear(coeffs, lhs, sign)
    rest = None if const is None else _add_linear(coeffs, rhs, -sign)
    return None if rest is None else atom_from_coeffs(coeffs, const + rest, rel)


def literal_atoms(lit: Literal) -> list[LinAtom]:
    """The linear atom a body literal imposes: a comparison, or an
    ``is/2`` whose expression is linear read as an equality.  Literals
    outside linear integer arithmetic impose nothing."""
    if isinstance(lit, (Comparison, Is)):
        atom = linear_atom(lit.lhs, "=" if isinstance(lit, Is) else lit.op, lit.rhs)
        return [] if atom is None else [atom]
    return []


def clause_constraint(clause: Clause, positions: Iterable[int]) -> list[LinAtom]:
    """The clause read as a linear constraint: equalities tying position
    variables to the head terms at `positions` that are variables or
    integer constants, then the `literal_atoms` of the body."""
    atoms = [
        linear_atom(Var(position_var(j)), "=", arg)
        for j in positions
        if isinstance(arg := clause.head.args[j], (Var, IntConst))
    ]
    return atoms + [atom for lit in clause.body for atom in literal_atoms(lit)]


def projected_halves(clause: Clause, positions: tuple[int, ...]) -> Optional[list[LinAtom]]:
    """What `clause_constraint` implies on the position variables, in
    canonical order with every equality split into its weak halves;
    empty when the clause is unsatisfiable, None when the projection
    hits its cap."""
    projected = project_or_none(
        clause_constraint(clause, positions), [position_var(j) for j in positions]
    )
    if projected is None:
        return None
    if FALSE in projected:
        return []
    return [half for atom in sorted(projected) for half in weak_halves(atom)]


# ---------------------------------------------------------------------------
# Collection.


def _head_mapping(clause: Clause, positions: tuple[int, ...]) -> dict[str, str]:
    """Head variable name -> position variable of its first occurrence."""
    mapping: dict[str, str] = {}
    for j in positions:
        arg = clause.head.args[j]
        if isinstance(arg, Var):
            mapping.setdefault(arg.name, position_var(j))
    return mapping


def _position_atoms(literals: Iterable[Literal], mapping: Mapping[str, str]) -> set[LinAtom]:
    """The comparisons among `literals` whose sides are mapped variables
    or integer constants, as atoms over the position variables with
    every equality split into its weak halves, and the trivially true or
    false ones dropped."""
    return {
        half
        for lit in literals
        if isinstance(lit, Comparison)
        and all(is_numeric_operand(t) for t in literal_terms(lit))
        and all(v.name in mapping for t in literal_terms(lit) for v in term_vars(t))
        for atom in rename(literal_atoms(lit), mapping)
        if atom.expr.terms
        for half in weak_halves(atom)
    }


def collect_comparisons(
    loop: LoopInfo, modes: ModeAssignment
) -> Optional[ComparisonSet]:
    """Comparisons read off the bodies of the loop's recursive clauses,
    over the query integer positions of their heads.

    Requires the loop clauses to keep those head positions as distinct
    variables; returns None when some clause does not, and the caller
    should infer instead."""
    positions = query_positions(loop, modes)
    out: ComparisonSet = {key: frozenset() for key in positions}
    for clause in applicable_clauses(loop, modes):
        mapping = _head_mapping(clause, positions[clause.key])
        if len(mapping) != len(positions[clause.key]):
            return None
        if loop.is_recursive_clause(clause):
            out[clause.key] |= _position_atoms(clause.body, mapping)
    return out


def pass_through_positions(loop: LoopInfo) -> frozenset[int]:
    """The argument positions j at which every call to a loop predicate,
    in every clause of the loop, has the variable its clause's head has
    at j.  An argument there keeps its value along the loop, so an atom
    over such positions alone has one truth value at every call."""
    calls = [
        (clause.head.args, lit.args)
        for clause in loop.clauses
        for lit in clause.body
        if isinstance(lit, UserAtom) and lit.key in loop.predicates
    ]
    width = min((min(len(head), len(args)) for head, args in calls), default=0)
    return frozenset(
        j
        for j in range(width)
        if all(isinstance(args[j], Var) and args[j] == head[j] for head, args in calls)
    )


def without_pass_through(loop: LoopInfo, comparisons: ComparisonSet) -> ComparisonSet:
    """The comparison set less its atoms over pass-through positions
    only (`pass_through_positions`)."""
    through = {position_var(j) for j in pass_through_positions(loop)}
    return {
        key: frozenset(atom for atom in atoms if not atom.expr.variables() <= through)
        for key, atoms in comparisons.items()
    }


class _Classes:
    """Union-find over ordered items; a class is represented by its
    least member."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(self, a, b) -> None:
        a, b = self.find(a), self.find(b)
        if a != b:
            self.parent[max(a, b)] = min(a, b)

    def classes(self, items: Iterable) -> list[tuple]:
        """The classes of `items`, each in the given order, ordered by
        their first member."""
        out: dict = {}
        for x in items:
            out.setdefault(self.find(x), []).append(x)
        return [tuple(members) for members in out.values()]


def _alias_classes(clause: Clause) -> dict[str, tuple[str, ...]]:
    """Variable name -> its equality class, read from the ``=``
    comparisons between variables."""
    aliases = _Classes()
    for lit in clause.body:
        if (
            isinstance(lit, Comparison)
            and lit.op == "="
            and isinstance(lit.lhs, Var)
            and isinstance(lit.rhs, Var)
        ):
            aliases.union(lit.lhs.name, lit.rhs.name)
    names = sorted({x.name for x in clause_vars(clause)})
    return {v: members for members in aliases.classes(names) for v in members}


def collect_answer_comparisons(loop: LoopInfo, modes: ModeAssignment) -> ComparisonSet:
    """Comparisons read off every applicable clause of the loop, over all
    integer-typed head positions.

    Variable-to-variable comparisons are also copied along body equality
    aliases (``=`` comparisons between variables), so a comparison on a
    variable that is merely equated to an output position still lands on
    that position."""
    positions = answer_positions(loop, modes)
    out: ComparisonSet = {key: frozenset() for key in positions}
    for clause in applicable_clauses(loop, modes):
        aliases = _alias_classes(clause)
        copies = [
            Comparison(Var(a), lit.op, Var(b))
            for lit in clause.body
            if isinstance(lit, Comparison) and isinstance(lit.lhs, Var) and isinstance(lit.rhs, Var)
            for a in aliases[lit.lhs.name]
            for b in aliases[lit.rhs.name]
        ]
        mapping = _head_mapping(clause, positions[clause.key])
        out[clause.key] |= _position_atoms([*clause.body, *copies], mapping)
    return out


# ---------------------------------------------------------------------------
# Inference.


def _comparison_shape(atom: LinAtom) -> bool:
    names = sorted(atom.expr.variables())
    coeffs = [atom.expr.coeff(v) for v in names]
    if len(names) == 1:
        return abs(coeffs[0]) == 1
    if len(names) == 2:
        return sorted(coeffs) == [-1, 1]
    return False


def infer_comparisons(
    loop: LoopInfo,
    modes: ModeAssignment,
    positions: Optional[dict[PredKey, tuple[int, ...]]] = None,
) -> ComparisonSet:
    """Comparisons implied by the bodies of the loop's clauses, over the
    given head positions (query positions by default).

    Each clause body is read as a linear constraint (head bindings,
    comparisons, linear ``is/2``), projected onto its head positions and
    split into atoms; only the difference atoms ``±x + c`` and
    ``x - y + c`` are kept, which the solver's difference route
    (`constraints.difference_graph`) decides exactly, with no
    elimination.  Body comparisons over head position variables are
    always included verbatim, so the result extends anything collection
    can find, and they are all a clause gives when its projection hits
    the cap."""
    if positions is None:
        positions = query_positions(loop, modes)
    out: ComparisonSet = {key: frozenset() for key in positions}
    for clause in applicable_clauses(loop, modes):
        pos = positions[clause.key]
        found = _position_atoms(clause.body, _head_mapping(clause, pos))
        for half in projected_halves(clause, pos) or ():
            if _comparison_shape(half):
                found.add(half)
        out[clause.key] |= found
    return out


# ---------------------------------------------------------------------------
# The partition.


def satisfiable_choices(
    base: Conjunction,
    levels: Sequence[Sequence[tuple[object, Conjunction]]],
    budget: float = inf,
) -> Iterator[tuple[tuple, Conjunction]]:
    """Every pick of one `(label, option)` per level whose conjunction
    with `base` is satisfiable, as `(labels, conjunction)`, in the order
    of enumerating every pick (first option first at every level).

    The picks are walked as a tree, one level deep per level, and a
    branch is entered only when its prefix conjunction is satisfiable,
    `base` alone being the first prefix: adding atoms never makes an
    unsatisfiable conjunction satisfiable, so no pick is lost.  The
    levels are fixed while the picks are consumed.  The walk raises
    DomainTooLarge instead of making solver check `budget` + 1, the
    check of `base` being the first."""
    left = budget

    def satisfiable(conj: Conjunction) -> bool:
        nonlocal left
        left -= 1
        if left < 0:
            raise DomainTooLarge(f"a partition walk passed {budget} solver checks")
        return is_satisfiable(conj)

    def grow(index: int, labels: tuple, conj: Conjunction) -> Iterator[tuple[tuple, Conjunction]]:
        if index == len(levels):
            yield labels, conj
            return
        for label, option in levels[index]:
            grown = conjunction(conj | option)
            if satisfiable(grown):
                yield from grow(index + 1, labels + (label,), grown)

    if satisfiable(base):
        yield from grow(0, (), base)


def sign_levels(atoms: Sequence[LinAtom]) -> list[tuple[tuple[bool, Conjunction], ...]]:
    """One level per atom for `satisfiable_choices`: the atom labelled
    True, then its negation labelled False.  Their product is every sign
    assignment, all-true first."""
    return [
        ((True, frozenset((atom,))), (False, frozenset((negate_atom(atom),))))
        for atom in atoms
    ]


def sign_atoms(comparisons: frozenset[LinAtom]) -> tuple[LinAtom, ...]:
    """The atoms of a comparison set that get a level of its sign tree,
    in canonical order.  Of an atom and its negation only the first in
    canonical order gets one: the other's level would keep one branch,
    the same conjunction, so the pieces are those of the whole set.
    Raises ValueError on an equality."""
    if any(a.rel == EQ for a in comparisons):
        raise ValueError("comparison sets hold inequalities only")
    return tuple(
        sorted(a for a in comparisons if negate_atom(a) not in comparisons or a < negate_atom(a))
    )


def sign_tree(
    atoms: Sequence[LinAtom], within: Conjunction, described: str
) -> Iterator[tuple[tuple[bool, ...], Conjunction]]:
    """The leaves of the sign tree of `atoms` that meet `within`: the
    `satisfiable_choices` of `sign_levels(atoms)` from `within`.  A
    leaf's labels, one sign per atom, name its piece of the partition.
    Raises DomainTooLarge, saying that the partition of the set
    `described` needs more than `PARTITION_BUDGET` solver checks (read
    when the walk starts), before it makes check `PARTITION_BUDGET` + 1.
    Under `within` the walk checks `within` and then only nodes the walk
    of the whole tree checks, so the message holds for every `within`."""
    budget = PARTITION_BUDGET
    try:
        yield from satisfiable_choices(within, sign_levels(atoms), budget)
    except DomainTooLarge:
        raise DomainTooLarge(
            f"{described}; its partition needs more than {budget} solver checks"
        ) from None


def build_domain(comparisons: ComparisonSet) -> Domain:
    """All satisfiable sign assignments of each predicate's comparison
    set, as simplified conjunctions, in the order of the sign tree over
    its `sign_atoms`.  The result is a partition: elements are
    satisfiable, pairwise disjoint, and every assignment of the
    comparisons lands in exactly one element.  Raises DomainTooLarge,
    naming the predicate, when a set's sign tree needs more than
    `PARTITION_BUDGET` solver checks (`sign_tree`)."""
    out: Domain = {}
    for key in sorted(comparisons):
        collected = comparisons[key]
        name, arity = key
        described = f"comparison set of {name}/{arity} has {len(collected)} atoms"
        leaves = list(sign_tree(sign_atoms(collected), frozenset(), described))
        out[key] = tuple(simplify(p) for _, p in leaves)
    return out


# ---------------------------------------------------------------------------
# Unfolding.


def resolvents(program: Program, clause_index: int, atom_index: int) -> tuple[Clause, ...]:
    """The resolvents of one clause against its selected body atom: one
    clause per program clause whose head unifies with it, in program
    order."""
    clause = program.clauses[clause_index]
    selected = clause.body[atom_index]
    if not isinstance(selected, UserAtom):
        raise ValueError("only a user-defined body atom can be unfolded")
    outer_names = {v.name for v in clause_vars(clause)}
    out: list[Clause] = []
    for j in program.index.get(selected.key, ()):
        source = program.clauses[j]
        names = {v.name for v in clause_vars(source)}
        suffix_n = 1
        while any(f"{name}_u{suffix_n}" in outer_names | names for name in names):
            suffix_n += 1
        renamed = rename_clause(source, f"_u{suffix_n}")
        subst = unify_atoms(selected, renamed.head)
        if subst is None:
            continue
        body = clause.body[:atom_index] + renamed.body + clause.body[atom_index + 1 :]
        out.append(apply_subst_clause(Clause(clause.head, body), subst))
    return tuple(out)


def unfold_once(program: Program, clause_index: int, atom_index: int) -> Program:
    """Replace one clause by its `resolvents` against the selected body
    atom.  No head unifies -> the clause is simply deleted."""
    clauses = program.clauses
    return Program(
        clauses[:clause_index]
        + resolvents(program, clause_index, atom_index)
        + clauses[clause_index + 1 :]
    )


# ---------------------------------------------------------------------------
# Propagation across positions.  The prover calls neither function below;
# they stay because the benchmark tracer wraps `extend_domain` by name and
# fails on a name it cannot find.  Both can go once it drops that name.


class ExtendedDomain(NamedTuple):
    """A domain spread over every argument position a predicate's values
    can reach, with notes about any component where propagation was
    skipped."""

    elements: Domain
    notes: tuple[str, ...] = ()


def influence_components(loop: LoopInfo, key: PredKey) -> tuple[tuple[int, ...], ...]:
    """Connected groups of argument positions of the predicate that
    exchange values: positions are linked when some loop clause connects
    their variables through a chain of ``is/2`` or comparison literals,
    or mentions one variable at both positions."""
    positions = _Classes()
    for clause in loop.clauses:
        linked = _Classes()
        for lit in clause.body:
            if isinstance(lit, (Is, Comparison)):
                names = sorted(
                    v.name for t in literal_terms(lit) for v in term_vars(t)
                )
                for other in names[1:]:
                    linked.union(names[0], other)
        occurrences: list[tuple[int, str]] = []
        atoms = [clause.head] if clause.head.key == key else []
        atoms += [l for l in clause.body if isinstance(l, UserAtom) and l.key == key]
        for atom in atoms:
            for j, arg in enumerate(atom.args):
                if isinstance(arg, Var):
                    occurrences.append((j, linked.find(arg.name)))
        for (j, a), (k, b) in combinations(occurrences, 2):
            if a == b and j != k:
                positions.union(j, k)
    return tuple(positions.classes(range(key[1])))


def extend_domain(domain: Domain, loop: LoopInfo) -> ExtendedDomain:
    """Conjoin every way of permuting each predicate's domain within each
    influence component, dropping unsatisfiable combinations.  Positions
    that do not interact keep the original domain untouched.  A
    predicate whose permutations and product walk together pass
    `PARTITION_BUDGET` keeps its original domain, with a note."""
    elements: Domain = {}
    notes: list[str] = []
    for key in sorted(domain):
        base = domain[key]
        components = influence_components(loop, key)
        # Each permutation counts as one check, so past the budget the
        # walk stops at its base check and none is enumerated.
        left = PARTITION_BUDGET - sum(factorial(len(c)) for c in components)
        copies: dict[tuple[Conjunction, ...], None] = {}
        for component in components if left > 0 else ():
            for perm in permutations(component):
                mapping = {
                    position_var(a): position_var(b)
                    for a, b in zip(component, perm)
                    if a != b
                }
                copies[tuple(rename(e, mapping) for e in base)] = None
        levels = [[(element, element) for element in copy] for copy in copies]
        try:
            pieces = list(satisfiable_choices(frozenset(), levels, left))
        except DomainTooLarge:
            name, arity = key
            notes.append(
                f"{name}/{arity}: propagating the domain passed the budget of"
                f" {PARTITION_BUDGET} permutations and solver checks,"
                f" keeping the original domain"
            )
            elements[key] = base
        else:
            elements[key] = tuple(simplify(piece) for _, piece in pieces)
    return ExtendedDomain(elements=elements, notes=tuple(notes))

"""Finite integer abstraction domains for loop predicates.

Downstream reasoning needs a finite description of the integer values
that flow through a loop.  This module builds one as a partition of the
integer argument space of each loop predicate, generated by a finite
comparison set:

* `collect_comparisons` reads comparisons straight out of the bodies of
  recursive clauses (the cheap route; needs head integer positions to be
  distinct variables);
* `infer_comparisons` projects everything a clause body implies onto the
  head integer positions, which subsumes collection;
* `unfold_once` performs one resolution step, typically splitting a
  clause so that a later inference pass finds sharper guards;
* `build_domain` turns a comparison set into the partition;
* `extend_domain` spreads a partition across argument positions that
  exchange values, for predicates whose comparisons constrain only some
  of their integer positions;
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

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Mapping, Optional

from .constraints import (
    EQ,
    FALSE,
    LE,
    Conjunction,
    LinAtom,
    LinExpr,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_is_false,
    atom_is_true,
    atom_le,
    atom_lt,
    conjunction,
    is_satisfiable,
    make_atom,
    negate_atom,
    project_or_none,
    rename,
    simplify,
    sorted_atoms,
)
from .graph import LoopInfo
from .modes import ModeAssignment, clause_applicable, mode_meet
from .syntax import (
    Clause,
    Comparison,
    Compound,
    IntConst,
    Is,
    MODE_INT,
    PredKey,
    Program,
    Term,
    UserAtom,
    Var,
    clause_vars,
    literal_terms,
    rename_clause,
    term_vars,
    unify_atoms,
    apply_subst_clause,
)

#: Sign enumeration is exponential in the comparison set; past this size
#: `build_domain` refuses instead of running away.
COMPARISON_CAP = 12

#: Influence components larger than this are not permuted.
COMPONENT_CAP = 4

#: Working-set bound for the extended-domain product.
PRODUCT_CAP = 1024

ComparisonSet = dict[PredKey, frozenset[LinAtom]]
Domain = dict[PredKey, tuple[Conjunction, ...]]


class DomainTooLarge(Exception):
    """A comparison set outgrew the sign-enumeration cap."""


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


def linear_term(term: Term) -> Optional[LinExpr]:
    """The term as a linear expression over its variable names, or None
    when it is not linear integer arithmetic."""
    if isinstance(term, Var):
        return LinExpr.var(term.name)
    if isinstance(term, IntConst):
        return LinExpr.of(term.value)
    if isinstance(term, Compound):
        parts = [linear_term(a) for a in term.args]
        if any(p is None for p in parts):
            return None
        if term.functor == "+" and len(parts) == 2:
            return parts[0] + parts[1]
        if term.functor == "-" and len(parts) == 2:
            return parts[0] - parts[1]
        if term.functor == "-" and len(parts) == 1:
            return -parts[0]
        if term.functor == "*" and len(parts) == 2:
            lhs, rhs = parts
            if not lhs.variables():
                return rhs.scale(lhs.const)
            if not rhs.variables():
                return lhs.scale(rhs.const)
    return None


_ATOM_BUILDERS = {"<": atom_lt, "=<": atom_le, ">=": atom_ge, ">": atom_gt}


def body_constraint_atoms(clause: Clause) -> list[LinAtom]:
    """Linear atoms the clause body imposes on its variables: each
    comparison, and each ``is/2`` whose expression is linear read as an
    equality.  Body literals outside linear integer arithmetic impose
    nothing."""
    atoms: list[LinAtom] = []
    for lit in clause.body:
        if isinstance(lit, Comparison):
            lhs, rhs = linear_term(lit.lhs), linear_term(lit.rhs)
            if lhs is not None and rhs is not None:
                atoms.append(_ATOM_BUILDERS[lit.op](lhs, rhs))
        elif isinstance(lit, Is):
            lhs, rhs = linear_term(lit.lhs), linear_term(lit.rhs)
            if lhs is not None and rhs is not None:
                atoms.append(atom_eq(lhs, rhs))
    return atoms


def head_binding_atoms(clause: Clause, positions: Iterable[int]) -> list[LinAtom]:
    """Equalities tying position variables to the clause's head terms,
    for head arguments that are variables or integer constants."""
    atoms: list[LinAtom] = []
    for j in positions:
        arg = clause.head.args[j]
        if isinstance(arg, Var):
            atoms.append(atom_eq(LinExpr.var(position_var(j)), LinExpr.var(arg.name)))
        elif isinstance(arg, IntConst):
            atoms.append(atom_eq(LinExpr.var(position_var(j)), arg.value))
    return atoms


# ---------------------------------------------------------------------------
# Collection.


def _strict_mapping(clause: Clause, positions: tuple[int, ...]) -> Optional[dict[str, str]]:
    """Head variable name -> position variable, requiring the positions
    to hold pairwise-distinct variables."""
    mapping: dict[str, str] = {}
    for j in positions:
        arg = clause.head.args[j]
        if not isinstance(arg, Var) or arg.name in mapping:
            return None
        mapping[arg.name] = position_var(j)
    return mapping


def _lenient_mapping(clause: Clause, positions: tuple[int, ...]) -> dict[str, str]:
    """Head variable name -> position variable of its first occurrence."""
    mapping: dict[str, str] = {}
    for j in positions:
        arg = clause.head.args[j]
        if isinstance(arg, Var) and arg.name not in mapping:
            mapping[arg.name] = position_var(j)
    return mapping


def _operand_expr(term: Term, mapping: Mapping[str, str]) -> Optional[LinExpr]:
    if isinstance(term, Var):
        name = mapping.get(term.name)
        return None if name is None else LinExpr.var(name)
    if isinstance(term, IntConst):
        return LinExpr.of(term.value)
    return None


def _mapped_comparison(lit: Comparison, mapping: Mapping[str, str]) -> Optional[LinAtom]:
    lhs = _operand_expr(lit.lhs, mapping)
    rhs = _operand_expr(lit.rhs, mapping)
    if lhs is None or rhs is None:
        return None
    return _ATOM_BUILDERS[lit.op](lhs, rhs)


def _add_atom(store: set[LinAtom], atom: Optional[LinAtom]):
    if atom is not None and not atom_is_true(atom) and not atom_is_false(atom):
        store.add(atom)


def collect_comparisons(
    loop: LoopInfo, modes: ModeAssignment
) -> Optional[ComparisonSet]:
    """Comparisons read off the bodies of the loop's recursive clauses,
    over the query integer positions of their heads.

    Requires the loop clauses to keep those head positions as distinct
    variables; returns None when some clause does not, and the caller
    should infer instead."""
    positions = query_positions(loop, modes)
    clauses = applicable_clauses(loop, modes)
    mappings: dict[int, dict[str, str]] = {}
    for i, clause in enumerate(clauses):
        mapping = _strict_mapping(clause, positions[clause.key])
        if mapping is None:
            return None
        mappings[i] = mapping
    out: ComparisonSet = {key: frozenset() for key in positions}
    for i, clause in enumerate(clauses):
        if not loop.is_recursive_clause(clause):
            continue
        found: set[LinAtom] = set(out[clause.key])
        for lit in clause.body:
            if isinstance(lit, Comparison):
                _add_atom(found, _mapped_comparison(lit, mappings[i]))
        out[clause.key] = frozenset(found)
    return out


def _alias_classes(clause: Clause) -> dict[str, tuple[str, ...]]:
    """Variable name -> its equality class, read from adjacent
    ``>=``/``=<`` pairs (the normalized spelling of ``=``)."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    body = clause.body
    for k in range(len(body) - 1):
        lit, partner = body[k], body[k + 1]
        if not (isinstance(lit, Comparison) and isinstance(partner, Comparison)):
            continue
        if {lit.op, partner.op} != {">=", "=<"}:
            continue
        same = (partner.lhs, partner.rhs) == (lit.lhs, lit.rhs)
        flipped = (partner.lhs, partner.rhs) == (lit.rhs, lit.lhs)
        if not (same or flipped):
            continue
        if isinstance(lit.lhs, Var) and isinstance(lit.rhs, Var):
            a, b = find(lit.lhs.name), find(lit.rhs.name)
            if a != b:
                parent[max(a, b)] = min(a, b)
    names = sorted({x.name for x in clause_vars(clause)})
    classes: dict[str, list[str]] = {}
    for v in names:
        classes.setdefault(find(v), []).append(v)
    return {v: tuple(classes[find(v)]) for v in names}


def collect_answer_comparisons(loop: LoopInfo, modes: ModeAssignment) -> ComparisonSet:
    """Comparisons read off every applicable clause of the loop, over all
    integer-typed head positions.

    Variable-to-variable comparisons are also copied along body equality
    aliases (adjacent ``>=``/``=<`` pairs), so a comparison on a variable
    that is merely equated to an output position still lands on that
    position."""
    positions = answer_positions(loop, modes)
    out: ComparisonSet = {key: frozenset() for key in positions}
    for clause in applicable_clauses(loop, modes):
        mapping = _lenient_mapping(clause, positions[clause.key])
        aliases = _alias_classes(clause)
        found: set[LinAtom] = set(out[clause.key])
        for lit in clause.body:
            if not isinstance(lit, Comparison):
                continue
            _add_atom(found, _mapped_comparison(lit, mapping))
            if isinstance(lit.lhs, Var) and isinstance(lit.rhs, Var):
                for a in aliases.get(lit.lhs.name, (lit.lhs.name,)):
                    for b in aliases.get(lit.rhs.name, (lit.rhs.name,)):
                        copy = Comparison(Var(a), lit.op, Var(b))
                        _add_atom(found, _mapped_comparison(copy, mapping))
        out[clause.key] = frozenset(found)
    return out


def unconstrained_positions(
    loop: LoopInfo, modes: ModeAssignment
) -> dict[PredKey, tuple[int, ...]]:
    """Integer-typed positions that no collectable comparison mentions,
    even counting non-recursive clauses.  Nonempty means the loop needs
    its domain propagated across positions."""
    collected = collect_answer_comparisons(loop, modes)
    out: dict[PredKey, tuple[int, ...]] = {}
    for key, pos in answer_positions(loop, modes).items():
        mentioned: set[str] = set()
        for atom in collected[key]:
            mentioned |= atom.expr.variables()
        out[key] = tuple(j for j in pos if position_var(j) not in mentioned)
    return out


# ---------------------------------------------------------------------------
# Inference.


def _comparison_shape(atom: LinAtom) -> bool:
    names = sorted(atom.expr.variables())
    coeffs = [atom.expr.coeff(v) for v in names]
    if len(names) == 1:
        return abs(coeffs[0]) == 1
    if len(names) == 2:
        return sorted(coeffs) == [-1, 1] and atom.expr.const == 0
    return False


def _split_shaped(conj: Conjunction) -> list[LinAtom]:
    out: list[LinAtom] = []
    for atom in sorted_atoms(conj):
        halves = (
            [make_atom(atom.expr, LE), make_atom(-atom.expr, LE)]
            if atom.rel == EQ
            else [atom]
        )
        out.extend(h for h in halves if _comparison_shape(h))
    return out


def infer_comparisons(
    loop: LoopInfo,
    modes: ModeAssignment,
    positions: Optional[dict[PredKey, tuple[int, ...]]] = None,
    notes: Optional[list[str]] = None,
) -> ComparisonSet:
    """Comparisons implied by the bodies of the loop's clauses, over the
    given head positions (query positions by default).

    Each clause body is read as a linear constraint (head bindings,
    comparisons, linear ``is/2``), projected onto its head positions and
    split into atoms; only atoms of the variable/constant shape are kept.
    Body comparisons over head position variables are always included
    verbatim, so the result extends anything collection can find."""
    if positions is None:
        positions = query_positions(loop, modes)
    out: ComparisonSet = {key: frozenset() for key in positions}
    for clause in applicable_clauses(loop, modes):
        pos = positions[clause.key]
        mapping = _lenient_mapping(clause, pos)
        found: set[LinAtom] = set(out[clause.key])
        for lit in clause.body:
            if isinstance(lit, Comparison):
                _add_atom(found, _mapped_comparison(lit, mapping))
        constraint = head_binding_atoms(clause, pos) + body_constraint_atoms(clause)
        projected = project_or_none(constraint, [position_var(j) for j in pos])
        if projected is None:
            if notes is not None:
                name, arity = clause.key
                notes.append(
                    f"projection cap hit on a clause of {name}/{arity};"
                    " falling back to its collected comparisons"
                )
        elif FALSE not in projected:
            for atom in _split_shaped(projected):
                _add_atom(found, atom)
        out[clause.key] = frozenset(found)
    return out


# ---------------------------------------------------------------------------
# The partition.


def build_domain(comparisons: ComparisonSet, cap: int = COMPARISON_CAP) -> Domain:
    """All satisfiable sign assignments of each predicate's comparison
    set, as simplified conjunctions.  The result is a partition: elements
    are satisfiable, pairwise disjoint, and every assignment of the
    comparisons lands in exactly one element.  Raises DomainTooLarge for
    a set of more than `cap` atoms."""
    out: Domain = {}
    for key in sorted(comparisons):
        atoms = sorted_atoms(comparisons[key])
        if any(a.rel == EQ for a in atoms):
            raise ValueError("comparison sets hold inequalities only")
        if len(atoms) > cap:
            name, arity = key
            raise DomainTooLarge(
                f"comparison set of {name}/{arity} has {len(atoms)} atoms,"
                f" past the configured cap of {cap}"
            )
        elements: list[Conjunction] = []
        for signs in product((True, False), repeat=len(atoms)):
            conj = conjunction(
                a if s else negate_atom(a) for a, s in zip(atoms, signs)
            )
            if FALSE in conj or not is_satisfiable(conj):
                continue
            elements.append(simplify(conj))
        out[key] = tuple(elements)
    return out


# ---------------------------------------------------------------------------
# Unfolding.


def unfold_once(program: Program, clause_index: int, atom_index: int) -> Program:
    """Replace one clause by its resolvents against the selected body
    atom: one clause per program clause whose head unifies with it.  No
    head unifies -> the clause is simply deleted."""
    clause = program.clauses[clause_index]
    selected = clause.body[atom_index]
    if not isinstance(selected, UserAtom):
        raise ValueError("only a user-defined body atom can be unfolded")
    outer_names = {v.name for v in clause_vars(clause)}
    resolvents: list[Clause] = []
    for j in program.index.get(selected.key, ()):
        source = program.clauses[j]
        suffix_n = 0
        while True:
            suffix_n += 1
            renamed = rename_clause(source, f"_u{suffix_n}")
            if not ({v.name for v in clause_vars(renamed)} & outer_names):
                break
        subst = unify_atoms(selected, renamed.head)
        if subst is None:
            continue
        body = clause.body[:atom_index] + renamed.body + clause.body[atom_index + 1 :]
        resolvents.append(apply_subst_clause(Clause(clause.head, body), subst))
    clauses = (
        program.clauses[:clause_index]
        + tuple(resolvents)
        + program.clauses[clause_index + 1 :]
    )
    return Program(clauses)


# ---------------------------------------------------------------------------
# Propagation across positions.


@dataclass(frozen=True)
class ExtendedDomain:
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
    arity = key[1]
    links: set[tuple[int, int]] = set()
    for clause in loop.clauses:
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for lit in clause.body:
            if isinstance(lit, (Is, Comparison)):
                names = sorted(
                    v.name for t in literal_terms(lit) for v in term_vars(t)
                )
                for other in names[1:]:
                    a, b = find(names[0]), find(other)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        occurrences: list[tuple[int, str]] = []
        atoms = [clause.head] if clause.head.key == key else []
        atoms += [l for l in clause.body if isinstance(l, UserAtom) and l.key == key]
        for atom in atoms:
            for j, arg in enumerate(atom.args):
                if isinstance(arg, Var):
                    occurrences.append((j, find(arg.name)))
        for (j, a), (k, b) in combinations(occurrences, 2):
            if a == b and j != k:
                links.add((min(j, k), max(j, k)))

    group = list(range(arity))

    def root(j: int) -> int:
        while group[j] != j:
            group[j] = group[group[j]]
            j = group[j]
        return j

    for j, k in sorted(links):
        a, b = root(j), root(k)
        if a != b:
            group[max(a, b)] = min(a, b)
    buckets: dict[int, list[int]] = {}
    for j in range(arity):
        buckets.setdefault(root(j), []).append(j)
    return tuple(tuple(buckets[r]) for r in sorted(buckets))


def extend_domain(domain: Domain, loop: LoopInfo) -> ExtendedDomain:
    """Conjoin every way of permuting each predicate's domain within each
    influence component, dropping unsatisfiable combinations.  Positions
    that do not interact keep the original domain untouched."""
    elements: Domain = {}
    notes: list[str] = []
    for key in sorted(domain):
        base = domain[key]
        name, arity = key
        copies: list[tuple[Conjunction, ...]] = []
        for component in influence_components(loop, key):
            if len(component) > COMPONENT_CAP:
                notes.append(
                    f"{name}/{arity}: component of {len(component)} positions"
                    f" is past the cap of {COMPONENT_CAP}, not permuted"
                )
                perms: Iterable[tuple[int, ...]] = [component]
            else:
                perms = permutations(component)
            for perm in perms:
                mapping = {
                    position_var(a): position_var(b)
                    for a, b in zip(component, perm)
                    if a != b
                }
                copy = tuple(rename(e, mapping) for e in base)
                if copy not in copies:
                    copies.append(copy)
        working: list[Conjunction] = [frozenset()]
        capped = False
        for copy in copies:
            merged: list[Conjunction] = []
            for partial in working:
                for element in copy:
                    candidate = conjunction(partial | element)
                    if FALSE in candidate or not is_satisfiable(candidate):
                        continue
                    merged.append(candidate)
            if len(merged) > PRODUCT_CAP:
                notes.append(
                    f"{name}/{arity}: propagated domain grew past"
                    f" {PRODUCT_CAP} elements, keeping the original domain"
                )
                capped = True
                break
            working = merged
        if capped:
            elements[key] = base
        else:
            elements[key] = tuple(simplify(w) for w in working)
    return ExtendedDomain(elements=elements, notes=tuple(notes))

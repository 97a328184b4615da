"""Predicate dependency graph and loop classification.

The dependency graph is `Program.callees`: one node per predicate and
an arc (p, q) whenever some clause with head predicate p calls q in its
body.  Loops are the strongly connected components that contain a cycle
and are reachable from the query's predicate.  Each loop is classified:

* numerical: some clause of the loop computes `is/2` over a head
  argument, so the recursion steps through numbers;
* integer-based: the mode analysis found no way for a float or an
  unchecked non-integer value to enter the arithmetic of the loop or of
  the predicates it depends on.

Only integer-based loops are amenable to the exact integer reasoning
done downstream, so the classification carries the diagnostics that
explain a negative verdict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, NamedTuple, TypeVar

from .syntax import (
    Clause,
    Is,
    PredKey,
    Program,
    QueryPattern,
    UserAtom,
    Var,
    survey_arith,
)

if TYPE_CHECKING:
    from .modes import ModeAssignment

Node = TypeVar("Node", bound=Hashable)


def reachable_from(
    edges: Mapping[PredKey, Iterable[PredKey]], start: Iterable[PredKey]
) -> frozenset[PredKey]:
    """The keys in `start` and every key their edges lead to."""
    seen = set(start)
    todo = list(seen)
    while todo:
        key = todo.pop()
        for nxt in edges.get(key, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


def strongly_connected_components(
    callees: Mapping[Node, Iterable[Node]],
) -> tuple[frozenset[Node], ...]:
    """Tarjan's algorithm, iterative, over the keys of `callees` and the
    nodes their arcs lead to, started from the keys in the mapping's
    order.  Components come out callee-first: every arc leaving a
    component points into an earlier one."""
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[frozenset[Node]] = []
    counter = 0

    for root in callees:
        if root in index:
            continue
        work: list[tuple[Node, Iterable[Node]]] = [(root, iter(callees.get(root, ())))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(callees.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(frozenset(component))
    return tuple(components)


class LoopInfo(NamedTuple):
    predicates: frozenset[PredKey]
    clauses: tuple[Clause, ...]
    is_numerical: bool
    is_integer_based: bool
    diagnostics: tuple[str, ...]

    def is_recursive_clause(self, clause: Clause) -> bool:
        return any(
            isinstance(lit, UserAtom) and lit.key in self.predicates
            for lit in clause.body
        )


def _clause_is_numerical(clause: Clause) -> bool:
    head_vars = {a.name for a in clause.head.args if isinstance(a, Var)}
    for lit in clause.body:
        if not isinstance(lit, Is):
            continue
        if isinstance(lit.lhs, Var) and lit.lhs.name in head_vars:
            return True
        if survey_arith(lit.rhs).variables & head_vars:
            return True
    return False


def find_integer_loops(
    program: Program, pattern: QueryPattern, modes: ModeAssignment
) -> list[LoopInfo]:
    """One LoopInfo per cyclic component reachable from the query's
    predicate, in callee-first order."""
    callees = program.callees
    reachable = reachable_from(callees, (pattern.key,))
    loops: list[LoopInfo] = []
    for component in strongly_connected_components(callees):
        if not component & reachable:
            continue
        member = next(iter(component))
        cyclic = len(component) > 1 or member in callees[member]
        if not cyclic:
            continue
        clauses = tuple(c for c in program.clauses if c.key in component)
        support_preds = reachable_from(callees, component)
        numerical = any(_clause_is_numerical(c) for c in clauses)
        violations = modes.violations_for(support_preds)
        diagnostics: list[str] = []
        if not numerical:
            names = ", ".join(f"{n}/{a}" for n, a in sorted(component))
            diagnostics.append(
                f"loop over {names} performs no arithmetic on its head arguments"
            )
        diagnostics.extend(str(v) for v in violations)
        loops.append(
            LoopInfo(
                predicates=component,
                clauses=clauses,
                is_numerical=numerical,
                is_integer_based=not violations,
                diagnostics=tuple(diagnostics),
            )
        )
    return loops

"""A bounded reference interpreter for the analysed subset.

Plain left-to-right resolution with chronological backtracking, ground
arithmetic for ``is/2`` and the comparison operators, and structural
(dis)unification.  One step is one clause body entered; the budget
turns runaway derivations into BudgetExceeded.  The optional depth
bound silently abandons branches that need more clause applications,
which is what fixed-depth answer-set comparisons need."""

from typing import Optional

from termiarith.syntax import (
    AtomConst,
    Comparison,
    Compound,
    FloatConst,
    IntConst,
    Is,
    Program,
    TrueLit,
    Unify,
    UserAtom,
    Var,
)


class BudgetExceeded(Exception):
    """The step budget ran out before the search space was exhausted."""


def _compare(op: str, lhs, rhs) -> bool:
    if op == "<":
        return lhs < rhs
    if op == "=<":
        return lhs <= rhs
    if op == ">=":
        return lhs >= rhs
    return lhs > rhs


def run_query(
    program: Program,
    goal: UserAtom,
    *,
    max_steps: int = 1_000_000,
    max_depth: Optional[int] = None,
) -> list[tuple]:
    """All solutions of the single-atom goal, in discovery order, as
    tuples of its argument values under the answer substitution.
    Unbound solution variables render as fresh `_n` variables."""
    bindings: dict = {}
    trail: list = []
    steps = 0
    solutions: list[tuple] = []
    next_frame = 1

    def deref(term, frame):
        while type(term) is Var:
            bound = bindings.get((term.name, frame))
            if bound is None:
                return term, frame
            term, frame = bound
        return term, frame

    def undo(mark: int):
        while len(trail) > mark:
            del bindings[trail.pop()]

    def unify(a, af, b, bf) -> bool:
        a, af = deref(a, af)
        b, bf = deref(b, bf)
        if type(a) is Var:
            if type(b) is Var and a.name == b.name and af == bf:
                return True
            bindings[(a.name, af)] = (b, bf)
            trail.append((a.name, af))
            return True
        if type(b) is Var:
            bindings[(b.name, bf)] = (a, af)
            trail.append((b.name, bf))
            return True
        if type(a) is not type(b):
            return False
        if type(a) is IntConst:
            return a.value == b.value
        if type(a) is AtomConst:
            return a.name == b.name
        if type(a) is FloatConst:
            return float(a.text) == float(b.text)
        if a.functor != b.functor or len(a.args) != len(b.args):
            return False
        return all(unify(x, af, y, bf) for x, y in zip(a.args, b.args))

    def value_of(term, frame):
        """The number a ground arithmetic term denotes, or None."""
        term, frame = deref(term, frame)
        if type(term) is IntConst:
            return term.value
        if type(term) is FloatConst:
            return float(term.text)
        if type(term) is not Compound:
            return None
        if term.functor == "-" and len(term.args) == 1:
            inner = value_of(term.args[0], frame)
            return None if inner is None else -inner
        if len(term.args) != 2 or term.functor not in ("+", "-", "*", "/"):
            return None
        lhs = value_of(term.args[0], frame)
        rhs = value_of(term.args[1], frame)
        if lhs is None or rhs is None:
            return None
        if term.functor == "+":
            return lhs + rhs
        if term.functor == "-":
            return lhs - rhs
        if term.functor == "*":
            return lhs * rhs
        if rhs == 0:
            return None
        if isinstance(lhs, int) and isinstance(rhs, int) and lhs % rhs == 0:
            return lhs // rhs
        return lhs / rhs

    def resolve(term, frame, names: dict):
        term, frame = deref(term, frame)
        if type(term) is Var:
            key = (term.name, frame)
            if key not in names:
                names[key] = Var(f"_{len(names)}")
            return names[key]
        if type(term) is Compound:
            return Compound(
                term.functor, tuple(resolve(a, frame, names) for a in term.args)
            )
        return term

    # A choice point: [rest goals, call, call frame, clause indices,
    # next alternative, trail mark, depth at the call].
    choice_points: list[list] = []
    goals = ((goal, 0), None)
    depth = 0

    def backtrack() -> bool:
        """Resume at the youngest choice point with a viable clause."""
        nonlocal goals, depth, steps, next_frame
        while choice_points:
            top = choice_points[-1]
            rest, call, frame, indices, pos, mark, call_depth = top
            undo(mark)
            if pos >= len(indices):
                choice_points.pop()
                continue
            top[4] = pos + 1
            if max_depth is not None and call_depth >= max_depth:
                choice_points.pop()
                continue
            clause = program.clauses[indices[pos]]
            new_frame = next_frame
            next_frame += 1
            if not all(
                unify(x, frame, y, new_frame)
                for x, y in zip(call.args, clause.head.args)
            ):
                continue
            steps += 1
            if steps > max_steps:
                raise BudgetExceeded(f"no answer within {max_steps} steps")
            new_goals = rest
            for literal in reversed(clause.body):
                new_goals = ((literal, new_frame), new_goals)
            goals = new_goals
            depth = call_depth + 1
            return True
        return False

    live = True
    while live:
        if goals is None:
            names: dict = {}
            solutions.append(tuple(resolve(a, 0, names) for a in goal.args))
            live = backtrack()
            continue
        (literal, frame), rest = goals
        kind = type(literal)
        if kind is UserAtom:
            indices = program.index.get(literal.key, ())
            choice_points.append(
                [rest, literal, frame, indices, 0, len(trail), depth]
            )
            live = backtrack()
            continue
        if kind is TrueLit:
            ok = True
        elif kind is Comparison:
            lhs = value_of(literal.lhs, frame)
            rhs = value_of(literal.rhs, frame)
            ok = lhs is not None and rhs is not None and _compare(literal.op, lhs, rhs)
        elif kind is Is:
            result = value_of(literal.rhs, frame)
            if result is None:
                ok = False
            else:
                constant = (
                    IntConst(result)
                    if isinstance(result, int)
                    else FloatConst(repr(result))
                )
                ok = unify(literal.lhs, frame, constant, frame)
        elif kind is Unify:
            ok = unify(literal.lhs, frame, literal.rhs, frame)
        else:
            mark = len(trail)
            ok = not unify(literal.lhs, frame, literal.rhs, frame)
            undo(mark)
        if ok:
            goals = rest
        else:
            live = backtrack()
    return solutions

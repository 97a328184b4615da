"""A bounded reference interpreter for the analysed subset.

Plain left-to-right resolution with chronological backtracking, ground
arithmetic for ``is/2`` and the comparison operators, and structural
(dis)unification.  One step is one clause body entered; the budget
turns runaway derivations into BudgetExceeded.  The optional depth
bound silently abandons branches that need more clause applications,
which is what fixed-depth answer-set comparisons need.

Each clause is renamed once per program: its variables become slots of
the frame a clause is entered with, so a binding is a list store, not a
dict entry keyed by name and frame.  A call tries only the clauses
whose head's first argument can unify with the call's first argument
(first-argument indexing); the clauses it skips would fail head
unification without taking a step, so solutions, their order and the
step count are those of trying every clause."""

from functools import lru_cache
from typing import NamedTuple, Optional

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


class _Slot(NamedTuple):
    """A clause variable, renamed to its index in the clause's frame."""

    index: int


class _Call(NamedTuple):
    """A renamed body call."""

    key: tuple[str, int]
    args: tuple


class _Clause(NamedTuple):
    """A renamed clause: its frame size, its head arguments each marked
    whether it is a variable's first occurrence, and its body."""

    size: int
    head: tuple[tuple[bool, object], ...]
    body: tuple


def _compare(op: str, lhs, rhs) -> bool:
    if op == "=":
        return lhs == rhs
    if op == "<":
        return lhs < rhs
    if op == "=<":
        return lhs <= rhs
    if op == ">=":
        return lhs >= rhs
    return lhs > rhs


def _rename(term, slots: dict):
    if type(term) is Var:
        return _Slot(slots.setdefault(term.name, len(slots)))
    if type(term) is Compound:
        return Compound(term.functor, tuple(_rename(a, slots) for a in term.args))
    return term


def _rename_literal(literal, slots: dict):
    if type(literal) is UserAtom:
        return _Call(literal.key, tuple(_rename(a, slots) for a in literal.args))
    if type(literal) is TrueLit:
        return literal
    return type(literal)(*(f if type(f) is str else _rename(f, slots) for f in literal))


def _first_key(term):
    """What a first argument must equal for two to unify: None for a
    variable, which unifies with anything."""
    kind = type(term)
    if kind is IntConst:
        return kind, term.value
    if kind is AtomConst:
        return kind, term.name
    if kind is FloatConst:
        return kind, float(term.text)
    if kind is Compound:
        return kind, term.functor, len(term.args)
    return None


class _Predicate(NamedTuple):
    """A predicate's renamed clauses in program order: all of them, the
    ones whose head's first argument is a variable, and by each other
    first-argument key the clauses whose head can match it."""

    clauses: tuple
    var_first: tuple
    by_first: dict

    def candidates(self, first) -> tuple:
        if first is None:
            return self.clauses
        return self.by_first.get(first, self.var_first)


@lru_cache(maxsize=16)
def _index(program: Program) -> dict:
    out: dict = {}
    for key, positions in program.index.items():
        clauses = []
        for i in positions:
            clause = program.clauses[i]
            slots: dict = {}
            head = []
            for arg in clause.head.args:
                fresh = type(arg) is Var and arg.name not in slots
                head.append((fresh, _rename(arg, slots)))
            body = tuple(_rename_literal(lit, slots) for lit in clause.body)
            clauses.append(_Clause(len(slots), tuple(head), body))
        firsts = [_first_key(c.head[0][1]) if c.head else None for c in clauses]
        by_first = {
            first: tuple(c for c, f in zip(clauses, firsts) if f in (None, first))
            for first in set(firsts) - {None}
        }
        var_first = tuple(c for c, f in zip(clauses, firsts) if f is None)
        out[key] = _Predicate(tuple(clauses), var_first, by_first)
    return out


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
    index = _index(program)
    trail: list = []
    steps = 0
    solutions: list[tuple] = []

    def deref(term, frame):
        while type(term) is _Slot:
            bound = frame[term.index]
            if bound is None:
                return term, frame
            term, frame = bound
        return term, frame

    def undo(mark: int):
        while len(trail) > mark:
            frame, slot = trail.pop()
            frame[slot] = None

    def unify(a, af, b, bf) -> bool:
        while type(a) is _Slot and af[a.index] is not None:
            a, af = af[a.index]
        while type(b) is _Slot and bf[b.index] is not None:
            b, bf = bf[b.index]
        if type(a) is _Slot:
            if type(b) is _Slot and a.index == b.index and af is bf:
                return True
            af[a.index] = (b, bf)
            trail.append((af, a.index))
            return True
        if type(b) is _Slot:
            bf[b.index] = (a, af)
            trail.append((bf, b.index))
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
        for x, y in zip(a.args, b.args):
            if not unify(x, af, y, bf):
                return False
        return True

    def value_of(term, frame):
        """The number a ground arithmetic term denotes, or None."""
        while type(term) is _Slot:
            bound = frame[term.index]
            if bound is None:
                return None
            term, frame = bound
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
        if type(term) is _Slot:
            key = (term.index, id(frame))
            if key not in names:
                names[key] = Var(f"_{len(names)}")
            return names[key]
        if type(term) is Compound:
            return Compound(
                term.functor, tuple(resolve(a, frame, names) for a in term.args)
            )
        return term

    # A choice point: [rest goals, call arguments, call frame, candidate
    # clauses, next alternative, trail mark, depth at the call].  It is
    # popped when its last alternative is taken.
    choice_points: list[list] = []
    slots: dict = {}
    query = tuple(_rename(a, slots) for a in goal.args)
    top_frame = [None] * len(slots)
    goals = ((_Call(goal.key, query), top_frame), None)
    depth = 0

    def backtrack() -> bool:
        """Resume at the youngest choice point with a viable clause."""
        nonlocal goals, depth, steps
        while choice_points:
            top = choice_points[-1]
            rest, args, frame, clauses, pos, mark, call_depth = top
            undo(mark)
            if pos + 1 < len(clauses):
                top[4] = pos + 1
            else:
                choice_points.pop()
            clause = clauses[pos]
            new_frame = [None] * clause.size
            for x, (fresh, y) in zip(args, clause.head):
                # A variable's first occurrence in the head takes the call
                # argument; the new frame needs no trail, since only an
                # older choice point can undo its entry.
                if fresh:
                    new_frame[y.index] = deref(x, frame)
                elif not unify(x, frame, y, new_frame):
                    break
            else:
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
            solutions.append(tuple(resolve(a, top_frame, names) for a in query))
            live = backtrack()
            continue
        (literal, frame), rest = goals
        kind = type(literal)
        if kind is _Call:
            predicate = index.get(literal.key)
            if predicate is None or (max_depth is not None and depth >= max_depth):
                live = backtrack()
                continue
            args = literal.args
            first = _first_key(deref(args[0], frame)[0]) if args else None
            clauses = predicate.candidates(first)
            if clauses:
                choice_points.append([rest, args, frame, clauses, 0, len(trail), depth])
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

"""Argument mode and integer-type inference.

Answers two questions about every predicate reachable from the query
pattern, by a combined fixpoint over call modes and success modes:

* with what instantiation (i / b / f) can each argument position be
  called, and what does it look like on success;
* which positions are integer-typed, meaning every value that ever
  occupies them is an integer.

Call modes start from the query pattern and weaken toward f as call
sites are discovered; success modes start from the optimistic bottom
(everything integer) and weaken as clauses are evaluated.  A clause is
walked left to right, tracking a per-variable state in the same i/b/f
lattice: comparisons and `is/2` ground their operands, adjacent
``>=``/``=<`` pairs (the normalized form of a numeric equality) equate
their operand states, and user calls first contribute their argument
states to the callee's call modes and then import the callee's success
modes.

The walk also records integer violations: arithmetic over ``/`` or float
constants, and arithmetic consuming values not guaranteed to be
integers.  The loop classifier turns those into its integer-basedness
verdict and diagnostics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .syntax import (
    ARITH_OPS,
    AtomConst,
    Clause,
    Comparison,
    Compound,
    Disunify,
    FloatConst,
    IntConst,
    Is,
    MODE_BOUND,
    MODE_FREE,
    MODE_INT,
    PredKey,
    Program,
    QueryPattern,
    Term,
    TrueLit,
    Unify,
    UserAtom,
    Var,
    is_equality_pair,
    literal_terms,
    literal_text,
    mode_join,
    mode_meet,
    survey_arith,
    term_vars,
)


def clause_applicable(clause: Clause, call_modes: tuple[str, ...]) -> bool:
    """Can a query with these modes unify with the clause head?  An i
    position cannot match a non-numeric or float constant."""
    for arg, mode in zip(clause.head.args, call_modes):
        if mode == MODE_INT and isinstance(arg, (AtomConst, FloatConst)):
            return False
    return True


@dataclass(frozen=True)
class IntViolation:
    pred: PredKey
    clause_index: int
    detail: str

    def __str__(self) -> str:
        name, arity = self.pred
        return f"{name}/{arity} clause {self.clause_index + 1}: {self.detail}"


@dataclass
class ModeAssignment:
    pattern: QueryPattern
    call_modes: dict[PredKey, tuple[str, ...]]
    success_modes: dict[PredKey, tuple[str, ...]]
    integer_typed: dict[PredKey, tuple[bool, ...]]
    conflicts: tuple[str, ...] = ()
    violations: tuple[IntViolation, ...] = ()

    def is_reachable(self, key: PredKey) -> bool:
        return key in self.call_modes

    def call_modes_of(self, key: PredKey) -> tuple[str, ...]:
        return self.call_modes.get(key, (MODE_FREE,) * key[1])

    def modes_of(self, key: PredKey) -> tuple[str, ...]:
        """The per-position assignment: the call mode, strengthened to i
        on positions whose every value is known to be an integer.  For
        the query's own predicate the declared pattern is authoritative,
        so the result is never weaker than it."""
        calls = self.call_modes_of(key)
        typed = self.integer_typed.get(key, (False,) * key[1])
        out = [MODE_INT if t else m for m, t in zip(calls, typed)]
        if key == self.pattern.key:
            out = [mode_meet(m, d) for m, d in zip(out, self.pattern.modes)]
        return tuple(out)

    def violations_for(self, keys: Iterable[PredKey]) -> tuple[IntViolation, ...]:
        wanted = set(keys)
        return tuple(v for v in self.violations if v.pred in wanted)


def _call_edges(program: Program) -> dict[PredKey, set[PredKey]]:
    edges: dict[PredKey, set[PredKey]] = {}
    for clause in program.clauses:
        out = edges.setdefault(clause.key, set())
        for lit in clause.body:
            if isinstance(lit, UserAtom):
                out.add(lit.key)
    return edges


def _reach(start: Iterable[PredKey], edges: dict[PredKey, set[PredKey]]) -> set[PredKey]:
    seen = set(start)
    todo = list(seen)
    while todo:
        key = todo.pop()
        for nxt in edges.get(key, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


class _Engine:
    def __init__(self, program: Program, pattern: QueryPattern, restrict_to_numeric: bool):
        self.program = program
        self.pattern = pattern
        self.cm: dict[PredKey, list[str]] = {}
        self.si: dict[PredKey, list[str]] = {}
        self.conflicts: list[str] = []
        self.violations: list[IntViolation] = []
        # (callee, argument states, argument terms) of every user call
        # in an applicable clause of a walked predicate, after the fixpoint.
        self.call_sites: list[tuple[PredKey, tuple[str, ...], tuple[Term, ...]]] = []
        self.callers: dict[PredKey, set[PredKey]] = {}
        edges = _call_edges(program)
        for caller, callees in edges.items():
            for callee in callees:
                self.callers.setdefault(callee, set()).add(caller)
        if restrict_to_numeric:
            numeric = {
                c.key
                for c in program.clauses
                if any(isinstance(l, (Is, Comparison)) for l in c.body)
            }
            relevant = _reach(numeric, edges)
            self.walk_set = relevant | _reach(relevant, self.callers)
        else:
            self.walk_set = set(program.index) | set(edges)

    def si_of(self, key: PredKey) -> list[str]:
        got = self.si.get(key)
        if got is None:
            got = [MODE_INT] * key[1]
            self.si[key] = got
        return got

    def run(self) -> ModeAssignment:
        self._join_cm(self.pattern.key, self.pattern.modes)
        queue = deque([self.pattern.key])
        queued = {self.pattern.key}
        while queue:
            key = queue.popleft()
            queued.discard(key)
            for touched in self._process(key):
                if touched not in queued:
                    queued.add(touched)
                    queue.append(touched)
        self._final_pass()
        return ModeAssignment(
            pattern=self.pattern,
            call_modes={k: tuple(v) for k, v in sorted(self.cm.items())},
            success_modes={k: tuple(self.si_of(k)) for k in sorted(self.cm)},
            integer_typed=self._integer_typed(),
            conflicts=tuple(self.conflicts),
            violations=tuple(self.violations),
        )

    def _join_cm(self, key: PredKey, modes: Iterable[str]) -> bool:
        modes = list(modes)
        current = self.cm.get(key)
        if current is None:
            self.cm[key] = modes
            return True
        changed = False
        for i, m in enumerate(modes):
            joined = mode_join(current[i], m)
            if joined != current[i]:
                current[i] = joined
                changed = True
        return changed

    def _process(self, key: PredKey) -> list[PredKey]:
        touched: list[PredKey] = []
        if key not in self.cm or key not in self.program.index:
            return touched
        call_modes = tuple(self.cm[key])
        if key not in self.walk_set:
            # Outside the numeric-relevant set: do not type this
            # predicate, assume nothing of its answers, and propagate
            # maximally weak call modes to its callees.
            if self.si_of(key) != [MODE_FREE] * key[1]:
                self.si[key] = [MODE_FREE] * key[1]
                touched.extend(self.callers.get(key, ()))
            for index in self.program.index[key]:
                for lit in self.program.clauses[index].body:
                    if isinstance(lit, UserAtom):
                        if self._join_cm(lit.key, (MODE_FREE,) * lit.key[1]):
                            touched.append(lit.key)
            return touched

        new_si: Optional[list[str]] = None
        for index in self.program.index[key]:
            clause = self.program.clauses[index]
            if not clause_applicable(clause, call_modes):
                continue
            success, calls = self._walk(clause, call_modes)
            if new_si is None:
                new_si = list(success)
            else:
                new_si = [mode_join(a, b) for a, b in zip(new_si, success)]
            for callee, modes in calls:
                if self._join_cm(callee, modes):
                    touched.append(callee)
        if new_si is not None:
            current = self.si_of(key)
            joined = [mode_join(a, b) for a, b in zip(current, new_si)]
            if joined != current:
                self.si[key] = joined
                touched.extend(self.callers.get(key, ()))
                touched.append(key)
        return touched

    def _walk(
        self,
        clause: Clause,
        head_modes: tuple[str, ...],
        sink: Optional[list[str]] = None,
    ) -> tuple[tuple[str, ...], list[tuple[PredKey, tuple[str, ...]]]]:
        state: dict[str, str] = {}

        def term_state(t) -> str:
            if isinstance(t, Var):
                return state.get(t.name, MODE_FREE)
            if isinstance(t, IntConst):
                return MODE_INT
            if isinstance(t, (AtomConst, FloatConst)):
                return MODE_BOUND
            if all(term_state(v) != MODE_FREE for v in term_vars(t)):
                return MODE_BOUND
            return MODE_FREE

        def refine(t, mode: str):
            if isinstance(t, Var):
                state[t.name] = mode_meet(state.get(t.name, MODE_FREE), mode)
            elif isinstance(t, Compound) and mode in (MODE_INT, MODE_BOUND):
                for v in term_vars(t):
                    state[v.name] = mode_meet(state.get(v.name, MODE_FREE), MODE_BOUND)

        def note(detail: str):
            if sink is not None:
                sink.append(detail)

        for arg, mode in zip(clause.head.args, head_modes):
            refine(arg, mode)

        calls: list[tuple[PredKey, tuple[str, ...]]] = []
        body = clause.body
        k = 0
        while k < len(body):
            lit = body[k]
            if isinstance(lit, TrueLit) or isinstance(lit, Disunify):
                k += 1
            elif isinstance(lit, Comparison):
                if is_equality_pair(lit, body[k + 1] if k + 1 < len(body) else None):
                    met = mode_meet(term_state(lit.lhs), term_state(lit.rhs))
                    met = mode_meet(met, MODE_BOUND)
                    if met != MODE_INT:
                        note(f"operands of `{literal_text(lit)}` are not guaranteed integers")
                    refine(lit.lhs, met)
                    refine(lit.rhs, met)
                    k += 2
                else:
                    for side in (lit.lhs, lit.rhs):
                        if isinstance(side, Var) and term_state(side) != MODE_INT:
                            note(
                                f"variable {side.name} in `{literal_text(lit)}`"
                                " is not guaranteed to be an integer"
                            )
                        refine(side, MODE_BOUND)
                    k += 1
            elif isinstance(lit, Is):
                info = survey_arith(lit.rhs)
                for op in sorted(info.operators - set(ARITH_OPS)):
                    note(f"operator {op} in `{literal_text(lit)}` is not integer-safe")
                if info.non_arith:
                    note(f"non-numeric term in `{literal_text(lit)}`")
                result = MODE_INT if info.integer_safe else MODE_BOUND
                for name in sorted(info.variables):
                    if state.get(name, MODE_FREE) != MODE_INT:
                        note(
                            f"variable {name} in `{literal_text(lit)}`"
                            " is not guaranteed to be an integer"
                        )
                        result = MODE_BOUND
                    state[name] = mode_meet(state.get(name, MODE_FREE), MODE_BOUND)
                refine(lit.lhs, result)
                k += 1
            elif isinstance(lit, Unify):
                met = mode_meet(term_state(lit.lhs), term_state(lit.rhs))
                refine(lit.lhs, met)
                refine(lit.rhs, met)
                k += 1
            else:
                assert isinstance(lit, UserAtom)
                modes = tuple(term_state(a) for a in lit.args)
                calls.append((lit.key, modes))
                for arg, sm in zip(lit.args, self.si_of(lit.key)):
                    refine(arg, sm)
                k += 1

        success = tuple(term_state(a) for a in clause.head.args)
        return success, calls

    def _final_pass(self):
        for key in sorted(self.cm):
            if key not in self.program.index:
                continue
            call_modes = tuple(self.cm[key])
            applicable = 0
            for index in self.program.index[key]:
                clause = self.program.clauses[index]
                if not clause_applicable(clause, call_modes):
                    continue
                applicable += 1
                if key not in self.walk_set:
                    continue
                details: list[str] = []
                _, calls = self._walk(clause, call_modes, sink=details)
                call_literals = [l for l in clause.body if isinstance(l, UserAtom)]
                for (callee, states), lit in zip(calls, call_literals):
                    self.call_sites.append((callee, states, lit.args))
                for text in self._float_scan(clause):
                    details.append(text)
                seen = set()
                for detail in details:
                    if detail not in seen:
                        seen.add(detail)
                        self.violations.append(IntViolation(key, index, detail))
            if applicable == 0 and self.program.index[key]:
                name, arity = key
                self.conflicts.append(
                    f"mode conflict: no clause of {name}/{arity} matches an integer"
                    f" query of modes ({', '.join(call_modes)})"
                )

    def _float_scan(self, clause: Clause) -> list[str]:
        texts: list[str] = []

        def scan_term(t):
            if isinstance(t, FloatConst):
                texts.append(f"float constant {t.text}")
            elif isinstance(t, Compound):
                for a in t.args:
                    scan_term(a)

        for t in clause.head.args:
            scan_term(t)
        for lit in clause.body:
            for t in literal_terms(lit):
                scan_term(t)
        return texts

    def _integer_typed(self) -> dict[PredKey, tuple[bool, ...]]:
        typed: dict[PredKey, tuple[bool, ...]] = {}
        for key in sorted(self.cm):
            arity = key[1]
            flags = [True] * arity
            if key not in self.walk_set or key not in self.program.index:
                flags = [False] * arity
                typed[key] = tuple(flags)
                continue
            call_modes = tuple(self.cm[key])
            success = self.si_of(key)
            for pos in range(arity):
                if success[pos] != MODE_INT:
                    flags[pos] = False
            for index in self.program.index[key]:
                clause = self.program.clauses[index]
                if not clause_applicable(clause, call_modes):
                    continue
                for pos, arg in enumerate(clause.head.args):
                    if not isinstance(arg, (Var, IntConst)):
                        flags[pos] = False
            typed[key] = tuple(flags)

        # Call sites can push non-integer values into a position.
        for callee, arg_states, args in self.call_sites:
            if callee not in typed:
                continue
            flags = list(typed[callee])
            for pos, (s, arg) in enumerate(zip(arg_states, args)):
                if isinstance(arg, Var):
                    if s not in (MODE_INT, MODE_FREE):
                        flags[pos] = False
                elif not isinstance(arg, IntConst):
                    flags[pos] = False
            typed[callee] = tuple(flags)
        return typed


def infer_argument_modes(
    program: Program, pattern: QueryPattern, restrict_to_numeric: bool = True
) -> ModeAssignment:
    """Run the combined call-mode / success-mode fixpoint from the query
    pattern and derive the per-position assignment."""
    return _Engine(program, pattern, restrict_to_numeric).run()

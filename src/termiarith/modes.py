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
walked left to right, one literal at a time, tracking a per-variable
state in the same i/b/f lattice: comparisons and `is/2` ground their
operands, every ``=`` is unification and meets its operand states, and
user calls first contribute their argument states to the callee's call
modes and then import the callee's success modes.  A position is
integer-typed when its predicate succeeds with an integer there and no
call site passes a non-integer into it.

The walk also records integer violations, only from the literals that
do arithmetic: ``/`` or float constants under `is/2`, and `is/2` or a
comparison consuming values not guaranteed to be integers.  The loop
classifier turns those into its integer-basedness verdict and
diagnostics.  A numeric ``=`` needs no check of its own: it does no
arithmetic, and `is/2` and the comparisons are still checked where they
run.  The equality atom `literal_atoms` reads from it relates two
integers whenever either operand is one (the meet refines the other to
i), and otherwise variables that no integer position has bound yet;
unification makes those one term, so the atom holds of any integer
they later take.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional

from .syntax import (
    ARITH_OPS,
    AtomConst,
    Clause,
    Comparison,
    Compound,
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
    Unify,
    UserAtom,
    Var,
    literal_terms,
    literal_text,
    mode_join,
    mode_meet,
    survey_arith,
    term_vars,
)


def clause_applicable(clause: Clause, call_modes: tuple[str, ...]) -> bool:
    """Can a query with these modes unify with the clause head?  An i
    position cannot match an atom, a float or a compound term."""
    for arg, mode in zip(clause.head.args, call_modes):
        if mode == MODE_INT and isinstance(arg, (AtomConst, FloatConst, Compound)):
            return False
    return True


class IntViolation(NamedTuple):
    pred: PredKey
    clause_index: int
    detail: str

    def __str__(self) -> str:
        name, arity = self.pred
        return f"{name}/{arity} clause {self.clause_index + 1}: {self.detail}"


class ModeAssignment(NamedTuple):
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

    def violations_for(self, keys: Iterable[PredKey]) -> tuple[IntViolation, ...]:
        wanted = set(keys)
        return tuple(v for v in self.violations if v.pred in wanted)


#: A user call in a walked clause: callee, argument states, argument terms.
CallSite = tuple[PredKey, tuple[str, ...], tuple[Term, ...]]


class _Engine:
    def __init__(self, program: Program, pattern: QueryPattern):
        self.program = program
        self.pattern = pattern
        self.cm: dict[PredKey, list[str]] = {}
        self.si: dict[PredKey, list[str]] = {}
        # Per walked predicate, from its last walk (which runs on the
        # fixpoint's final modes): the integer violations and the user
        # calls of its applicable clauses.
        self.violations: dict[PredKey, list[IntViolation]] = {}
        self.call_sites: dict[PredKey, list[CallSite]] = {}
        self.callers: dict[PredKey, set[PredKey]] = {}
        for caller, callees in program.callees.items():
            for callee in callees:
                self.callers.setdefault(callee, set()).add(caller)

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
        return ModeAssignment(
            pattern=self.pattern,
            call_modes={k: tuple(v) for k, v in sorted(self.cm.items())},
            success_modes={k: tuple(self.si_of(k)) for k in sorted(self.cm)},
            integer_typed=self._integer_typed(),
            conflicts=tuple(self._conflicts()),
            violations=tuple(v for key in sorted(self.violations) for v in self.violations[key]),
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
        new_si: Optional[list[str]] = None
        violations = self.violations[key] = []
        call_sites = self.call_sites[key] = []
        for index in self.program.index[key]:
            clause = self.program.clauses[index]
            if not clause_applicable(clause, call_modes):
                continue
            details: list[str] = []
            success, calls = self._walk(clause, call_modes, sink=details)
            details += self._float_scan(clause)
            violations += (IntViolation(key, index, d) for d in dict.fromkeys(details))
            call_literals = (l for l in clause.body if isinstance(l, UserAtom))
            call_sites += ((c, states, l.args) for (c, states), l in zip(calls, call_literals))
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
        sink: list[str],
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

        note = sink.append

        for arg, mode in zip(clause.head.args, head_modes):
            refine(arg, mode)

        calls: list[tuple[PredKey, tuple[str, ...]]] = []
        for lit in clause.body:
            if isinstance(lit, Unify) or isinstance(lit, Comparison) and lit.op == "=":
                met = mode_meet(term_state(lit.lhs), term_state(lit.rhs))
                refine(lit.lhs, met)
                refine(lit.rhs, met)
            elif isinstance(lit, Comparison):
                for side in (lit.lhs, lit.rhs):
                    if isinstance(side, Var) and term_state(side) != MODE_INT:
                        note(
                            f"variable {side.name} in `{literal_text(lit)}`"
                            " is not guaranteed to be an integer"
                        )
                    refine(side, MODE_BOUND)
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
            elif isinstance(lit, UserAtom):
                modes = tuple(term_state(a) for a in lit.args)
                calls.append((lit.key, modes))
                for arg, sm in zip(lit.args, self.si_of(lit.key)):
                    refine(arg, sm)

        success = tuple(term_state(a) for a in clause.head.args)
        return success, calls

    def _conflicts(self) -> Iterator[str]:
        for key in sorted(self.cm):
            call_modes = tuple(self.cm[key])
            clauses = [self.program.clauses[i] for i in self.program.index.get(key, ())]
            if clauses and not any(clause_applicable(c, call_modes) for c in clauses):
                name, arity = key
                yield (
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
        typed = {
            key: tuple(key in self.program.index and m == MODE_INT for m in self.si_of(key))
            for key in sorted(self.cm)
        }
        # Call sites can push non-integer values into a position.
        for callee, arg_states, args in chain.from_iterable(self.call_sites.values()):
            flags = list(typed[callee])
            for pos, (s, arg) in enumerate(zip(arg_states, args)):
                if isinstance(arg, Var):
                    if s not in (MODE_INT, MODE_FREE):
                        flags[pos] = False
                elif not isinstance(arg, IntConst):
                    flags[pos] = False
            typed[callee] = tuple(flags)
        return typed


def infer_argument_modes(program: Program, pattern: QueryPattern) -> ModeAssignment:
    """Run the combined call-mode / success-mode fixpoint from the query
    pattern and derive the per-position assignment."""
    return _Engine(program, pattern).run()

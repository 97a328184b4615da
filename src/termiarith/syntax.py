"""Abstract syntax and parser for the mini-Prolog subset.

The accepted language: clauses terminated by ``.``, bodies of
comma-separated literals, ``is/2`` with ``+ - *`` (``/`` parses but is
tagged for the integer check), comparisons ``< =< >= >``, ``=`` and
``\\=``, ``true``, decimal integers, ``%`` comments, and list sugar
``[H|T]`` / ``[]`` desugared to ``'.'/2`` and ``[]``.  Cut, negation and
other non-logical features are parse errors.

`normalize_program` removes the sugar the analysis does not want to see:
disequalities become clause pairs with ``>`` / ``<``, numeric equalities
become one ``=`` comparison, and compound arithmetic operands of
comparisons are pulled out through fresh ``is/2`` literals, so every
comparison ends up with variable-or-integer operands.  The analysis
reads a normalized body one literal at a time.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Union

MODE_INT = "i"
MODE_BOUND = "b"
MODE_FREE = "f"

_MODE_RANK = {MODE_INT: 0, MODE_BOUND: 1, MODE_FREE: 2}


def mode_join(a: str, b: str) -> str:
    """The weaker of two modes (f beats b beats i)."""
    return a if _MODE_RANK[a] >= _MODE_RANK[b] else b


def mode_meet(a: str, b: str) -> str:
    """The stronger of two modes (i beats b beats f)."""
    return a if _MODE_RANK[a] <= _MODE_RANK[b] else b


PredKey = tuple[str, int]

ARITH_OPS = ("+", "-", "*")


def _same_record(self, other) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def _different_record(self, other) -> bool:
    return not _same_record(self, other)


def _record(cls):
    """Make a NamedTuple class equal only to records of its own class,
    so same-shaped records such as ``Var("X")`` and ``AtomConst("X")``
    stay unequal and separate dict keys.  Hashing stays the tuple's own:
    two such records share a hash, which is only a collision."""
    cls.__eq__ = _same_record
    cls.__ne__ = _different_record
    return cls


@_record
class Var(NamedTuple):
    name: str


@_record
class IntConst(NamedTuple):
    value: int


@_record
class FloatConst(NamedTuple):
    """A non-integer numeric literal, kept verbatim for diagnostics."""

    text: str


@_record
class AtomConst(NamedTuple):
    name: str


@_record
class Compound(NamedTuple):
    functor: str
    args: tuple["Term", ...]


Term = Union[Var, IntConst, FloatConst, AtomConst, Compound]


@_record
class UserAtom(NamedTuple):
    pred: str
    args: tuple[Term, ...] = ()

    @property
    def key(self) -> PredKey:
        return (self.pred, len(self.args))


@_record
class Is(NamedTuple):
    lhs: Term
    rhs: Term


@_record
class Comparison(NamedTuple):
    lhs: Term
    op: str  # one of < =< >= >, or = for a normalized numeric equality
    rhs: Term


@_record
class Unify(NamedTuple):
    """Structural ``=`` that survived normalization."""

    lhs: Term
    rhs: Term


@_record
class Disunify(NamedTuple):
    """Structural ``\\=`` that survived normalization."""

    lhs: Term
    rhs: Term


@_record
class TrueLit(NamedTuple):
    def __bool__(self) -> bool:  # an empty tuple would be falsy
        return True


Literal = Union[UserAtom, Is, Comparison, Unify, Disunify, TrueLit]

COMPARISON_OPS = ("<", "=<", ">=", ">")


@_record
class Clause(NamedTuple):
    head: UserAtom
    body: tuple[Literal, ...] = ()

    @property
    def key(self) -> PredKey:
        return self.head.key


class Program:
    """A program's clauses, with `index` mapping each predicate to the
    positions of its clauses.  Programs are equal when their clauses are."""

    def __init__(self, clauses: tuple[Clause, ...]):
        self.clauses = clauses
        index: dict[PredKey, list[int]] = {}
        for i, clause in enumerate(clauses):
            index.setdefault(clause.key, []).append(i)
        self.index = {k: tuple(v) for k, v in index.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, Program) and self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash(self.clauses)

    def __repr__(self) -> str:
        return f"Program(clauses={self.clauses!r})"

    @cached_property
    def callees(self) -> dict[PredKey, tuple[PredKey, ...]]:
        """The call graph: every predicate the program defines or calls,
        in sorted order, mapped to the predicates its clauses call,
        sorted."""
        calls: dict[PredKey, set[PredKey]] = {}
        for clause in self.clauses:
            out = calls.setdefault(clause.key, set())
            for lit in clause.body:
                if isinstance(lit, UserAtom):
                    out.add(lit.key)
                    calls.setdefault(lit.key, set())
        return {key: tuple(sorted(calls[key])) for key in sorted(calls)}

    def clauses_for(self, key: PredKey) -> tuple[Clause, ...]:
        return tuple(self.clauses[i] for i in self.index.get(key, ()))


class QueryPattern(NamedTuple):
    pred: str
    modes: tuple[str, ...]

    @property
    def key(self) -> PredKey:
        return (self.pred, len(self.modes))


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<float>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<punct>:-|=<|>=|\\=|[()\[\],|.<>=+\-*/])
  | (?P<var>[A-Z_]\w*)
  | (?P<atom>[a-z]\w*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # float | int | punct | var | atom | end
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line = 1
    col = 1
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "bad":
            if text == "!":
                raise ParseError("cut is not supported", line, col)
            raise ParseError(f"unexpected character {text!r}", line, col)
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.fresh = 0
        self.clause_vars: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "end":
            self.fail(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def fresh_var(self) -> Var:
        while True:
            self.fresh += 1
            name = f"_G{self.fresh}"
            if name not in self.clause_vars:
                self.clause_vars.add(name)
                return Var(name)

    def parse_program(self) -> Program:
        clauses = []
        while self.peek().kind != "end":
            clauses.append(self.parse_clause())
        return Program(tuple(clauses))

    def parse_clause(self) -> Clause:
        self.clause_vars = set()
        self.fresh = 0
        self._scan_clause_vars()
        head_term = self.parse_term()
        head = self._as_user_atom(head_term, "clause head")
        body: tuple[Literal, ...] = ()
        if self.peek().text == ":-":
            self.next()
            literals = [self.parse_literal()]
            while self.peek().text == ",":
                self.next()
                literals.append(self.parse_literal())
            body = tuple(literals)
        self.expect(".")
        return Clause(head, body)

    def _scan_clause_vars(self):
        # Collect named variables up to the terminating dot, so fresh
        # names for `_` never collide with user names.
        depth = self.pos
        while depth < len(self.tokens):
            tok = self.tokens[depth]
            if tok.kind == "end" or tok.text == ".":
                break
            if tok.kind == "var" and tok.text != "_":
                self.clause_vars.add(tok.text)
            depth += 1

    def _as_user_atom(self, term: Term, where: str) -> UserAtom:
        if isinstance(term, AtomConst):
            return UserAtom(term.name, ())
        if isinstance(term, Compound):
            if term.functor == ".":
                self.fail(f"{where} cannot be a list")
            return UserAtom(term.functor, term.args)
        self.fail(f"{where} must be a predicate atom")

    def parse_literal(self) -> Literal:
        tok = self.peek()
        if tok.kind == "atom" and tok.text == "true":
            after = self.tokens[self.pos + 1]
            if after.text != "(":
                self.next()
                return TrueLit()
        lhs = self.parse_arith_expr()
        tok = self.peek()
        if tok.kind == "atom" and tok.text == "is":
            self.next()
            rhs = self.parse_arith_expr()
            return Is(lhs, rhs)
        if tok.text in COMPARISON_OPS and tok.kind == "punct":
            self.next()
            rhs = self.parse_arith_expr()
            return Comparison(lhs, tok.text, rhs)
        if tok.text == "=" and tok.kind == "punct":
            self.next()
            return Unify(lhs, self.parse_term())
        if tok.text == "\\=" and tok.kind == "punct":
            self.next()
            return Disunify(lhs, self.parse_term())
        if _contains_operators(lhs):
            self.fail("arithmetic expression is not a goal")
        return self._as_user_atom(lhs, "body literal")

    def parse_arith_expr(self) -> Term:
        term = self.parse_arith_product()
        while self.peek().text in ("+", "-") and self.peek().kind == "punct":
            op = self.next().text
            rhs = self.parse_arith_product()
            term = Compound(op, (term, rhs))
        return term

    def parse_arith_product(self) -> Term:
        term = self.parse_arith_primary()
        while self.peek().text in ("*", "/") and self.peek().kind == "punct":
            op = self.next().text
            rhs = self.parse_arith_primary()
            term = Compound(op, (term, rhs))
        return term

    def parse_arith_primary(self) -> Term:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.parse_arith_expr()
            self.expect(")")
            return inner
        if tok.text == "-" and tok.kind == "punct":
            self.next()
            inner = self.parse_arith_primary()
            if isinstance(inner, IntConst):
                return IntConst(-inner.value)
            if isinstance(inner, FloatConst):
                return FloatConst("-" + inner.text)
            return Compound("-", (inner,))
        return self.parse_term()

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "int":
            return IntConst(int(tok.text))
        if tok.kind == "float":
            return FloatConst(tok.text)
        if tok.kind == "var":
            if tok.text == "_":
                return self.fresh_var()
            return Var(tok.text)
        if tok.kind == "atom":
            if self.peek().text == "(":
                self.next()
                args = [self.parse_term()]
                while self.peek().text == ",":
                    self.next()
                    args.append(self.parse_term())
                self.expect(")")
                return Compound(tok.text, tuple(args))
            return AtomConst(tok.text)
        if tok.text == "[":
            return self.parse_list()
        if tok.text == "-" and self.peek().kind in ("int", "float"):
            inner = self.next()
            if inner.kind == "int":
                return IntConst(-int(inner.text))
            return FloatConst("-" + inner.text)
        self.pos -= 1
        self.fail(f"expected a term, found {tok.text!r}")

    def parse_list(self) -> Term:
        if self.peek().text == "]":
            self.next()
            return AtomConst("[]")
        items = [self.parse_term()]
        while self.peek().text == ",":
            self.next()
            items.append(self.parse_term())
        tail: Term = AtomConst("[]")
        if self.peek().text == "|":
            self.next()
            tail = self.parse_term()
        self.expect("]")
        for item in reversed(items):
            tail = Compound(".", (item, tail))
        return tail


def _contains_operators(term: Term) -> bool:
    return isinstance(term, Compound) and term.functor in ("+", "-", "*", "/")


def parse_program(source: str) -> Program:
    return _Parser(source).parse_program()


_PATTERN_RE = re.compile(r"^\s*([a-z]\w*)\s*(?:\(\s*([^()]*?)\s*\))?\s*$")


def parse_query_pattern(text: str) -> QueryPattern:
    match = _PATTERN_RE.match(text)
    if not match:
        raise ParseError(f"malformed query pattern {text!r}", 1, 1)
    name, inner = match.groups()
    if inner == "":
        raise ParseError("query pattern with empty parentheses", 1, text.index("(") + 1)
    if inner is None:
        return QueryPattern(name, ())
    parts = []
    start = match.start(2)
    for raw in inner.split(","):
        token = raw.strip()
        if token not in (MODE_INT, MODE_BOUND, MODE_FREE):
            column = start + len(raw) - len(raw.lstrip()) + 1
            raise ParseError(f"unknown mode token {token!r}", 1, column)
        parts.append(token)
        start += len(raw) + 1
    return QueryPattern(name, tuple(parts))


def render_query_pattern(name: str, modes: tuple[str, ...]) -> str:
    """A call pattern as `parse_query_pattern` reads it back."""
    return f"{name}({','.join(modes)})" if modes else name


# ---------------------------------------------------------------------------
# Variable utilities, substitution, unification.


def term_vars(term: Term) -> Iterator[Var]:
    if isinstance(term, Var):
        yield term
    elif isinstance(term, Compound):
        for arg in term.args:
            yield from term_vars(arg)


def literal_terms(literal: Literal) -> tuple[Term, ...]:
    if isinstance(literal, UserAtom):
        return literal.args
    if isinstance(literal, (Is, Comparison, Unify, Disunify)):
        return (literal.lhs, literal.rhs)
    return ()


def literal_vars(literal: Literal) -> Iterator[Var]:
    for term in literal_terms(literal):
        yield from term_vars(term)


def clause_vars(clause: Clause) -> set[Var]:
    out = set(literal_vars(clause.head))
    for lit in clause.body:
        out.update(literal_vars(lit))
    return out


Subst = dict[Var, Term]


def walk(term: Term, subst: Subst) -> Term:
    while isinstance(term, Var) and term in subst:
        term = subst[term]
    return term


def apply_subst(term: Term, subst: Subst) -> Term:
    term = walk(term, subst)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(apply_subst(a, subst) for a in term.args))
    return term


def apply_subst_literal(literal: Literal, subst: Subst) -> Literal:
    if isinstance(literal, UserAtom):
        return UserAtom(literal.pred, tuple(apply_subst(a, subst) for a in literal.args))
    if isinstance(literal, (Is, Comparison, Unify, Disunify)):
        return literal._replace(
            lhs=apply_subst(literal.lhs, subst), rhs=apply_subst(literal.rhs, subst)
        )
    return literal


def apply_subst_clause(clause: Clause, subst: Subst) -> Clause:
    head = apply_subst_literal(clause.head, subst)
    assert isinstance(head, UserAtom)
    return Clause(head, tuple(apply_subst_literal(l, subst) for l in clause.body))


def _occurs(var: Var, term: Term, subst: Subst) -> bool:
    """Does `var` occur in `term` under the substitution?"""
    stack = [term]
    while stack:
        t = walk(stack.pop(), subst)
        if t == var:
            return True
        if isinstance(t, Compound):
            stack.extend(t.args)
    return False


def unify(a: Term, b: Term, subst: Optional[Subst] = None) -> Optional[Subst]:
    """Syntactic unification with the occurs check, returning an
    extended substitution or None.  A variable never gets bound to a
    term that contains it, so `Z` and `f(Z)` do not unify and every
    substitution returned is acyclic."""
    subst = dict(subst) if subst else {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = walk(x, subst)
        y = walk(y, subst)
        if x == y:
            continue
        if isinstance(x, Var):
            if _occurs(x, y, subst):
                return None
            subst[x] = y
        elif isinstance(y, Var):
            if _occurs(y, x, subst):
                return None
            subst[y] = x
        elif (
            isinstance(x, Compound)
            and isinstance(y, Compound)
            and x.functor == y.functor
            and len(x.args) == len(y.args)
        ):
            stack.extend(zip(x.args, y.args))
        else:
            return None
    return subst


def unify_atoms(a: UserAtom, b: UserAtom, subst: Optional[Subst] = None) -> Optional[Subst]:
    if a.key != b.key:
        return None
    subst = dict(subst) if subst else {}
    for x, y in zip(a.args, b.args):
        result = unify(x, y, subst)
        if result is None:
            return None
        subst = result
    return subst


def rename_clause(clause: Clause, suffix: str) -> Clause:
    """Rename every variable apart, for resolution against a clause.
    No new name may be one of the clause's: `apply_subst` chains them."""
    mapping: Subst = {v: Var(v.name + suffix) for v in clause_vars(clause)}
    return apply_subst_clause(clause, mapping)


def is_numeric_operand(term: Term) -> bool:
    return isinstance(term, (Var, IntConst))


# ---------------------------------------------------------------------------
# Normalization.


def normalize_program(program: Program) -> Program:
    """Split disequalities, rewrite numeric equalities into ``=``
    comparisons, and pull compound arithmetic out of comparison operands.

    Idempotent, and afterwards every Comparison literal has operands that
    are variables or integer constants.
    """
    clauses: list[Clause] = []
    for clause in program.clauses:
        for split in _split_disequalities(clause):
            clauses.append(_normalize_clause(split))
    return Program(tuple(clauses))


def _split_disequalities(clause: Clause) -> list[Clause]:
    for i, lit in enumerate(clause.body):
        if isinstance(lit, Disunify) and is_numeric_operand(lit.lhs) and is_numeric_operand(lit.rhs):
            out = []
            for op in (">", "<"):
                body = (
                    clause.body[:i]
                    + (Comparison(lit.lhs, op, lit.rhs),)
                    + clause.body[i + 1 :]
                )
                out.extend(_split_disequalities(Clause(clause.head, body)))
            return out
    return [clause]


def _normalize_clause(clause: Clause) -> Clause:
    used = {v.name for v in clause_vars(clause)}
    fresh_count = 0

    def fresh() -> Var:
        nonlocal fresh_count
        while True:
            fresh_count += 1
            name = f"_N{fresh_count}"
            if name not in used:
                used.add(name)
                return Var(name)

    body: list[Literal] = []
    for lit in clause.body:
        if isinstance(lit, Comparison):
            lhs, rhs = lit.lhs, lit.rhs
            if not is_numeric_operand(lhs) and not isinstance(lhs, FloatConst):
                v = fresh()
                body.append(Is(v, lhs))
                lhs = v
            if not is_numeric_operand(rhs) and not isinstance(rhs, FloatConst):
                v = fresh()
                body.append(Is(v, rhs))
                rhs = v
            body.append(Comparison(lhs, lit.op, rhs))
        elif isinstance(lit, Unify) and is_numeric_operand(lit.lhs) and is_numeric_operand(lit.rhs):
            body.append(Comparison(lit.lhs, "=", lit.rhs))
        else:
            body.append(lit)
    return Clause(clause.head, tuple(body))


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through parse_program).


def term_text(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, IntConst):
        return str(term.value)
    if isinstance(term, FloatConst):
        return term.text
    if isinstance(term, AtomConst):
        return term.name
    if term.functor == "." and len(term.args) == 2:
        return _list_text(term)
    if term.functor in ("+", "-", "*", "/") and len(term.args) == 2:
        return _arith_text(term, 0)
    if term.functor == "-" and len(term.args) == 1:
        return _arith_text(term, 0)
    args = ", ".join(term_text(a) for a in term.args)
    return f"{term.functor}({args})"


def _list_text(term: Term) -> str:
    items = []
    while isinstance(term, Compound) and term.functor == "." and len(term.args) == 2:
        items.append(term_text(term.args[0]))
        term = term.args[1]
    inner = ", ".join(items)
    if isinstance(term, AtomConst) and term.name == "[]":
        return f"[{inner}]"
    return f"[{inner}|{term_text(term)}]"


def _arith_text(term: Term, parent_level: int) -> str:
    # level 1 binds loosest (+ -), level 2 is (* /), level 3 atomic.
    if isinstance(term, Compound) and term.functor in ("+", "-", "*", "/"):
        if len(term.args) == 1:
            inner = _arith_text(term.args[0], 3)
            text = f"-{inner}"
            level = 3
        else:
            level = 1 if term.functor in ("+", "-") else 2
            lhs = _arith_text(term.args[0], level)
            rhs = _arith_text(term.args[1], level + 1)
            text = f"{lhs} {term.functor} {rhs}"
    else:
        text = term_text(term)
        level = 3
        if isinstance(term, IntConst) and term.value < 0:
            level = 0
    if level < parent_level:
        return f"({text})"
    return text


def literal_text(literal: Literal) -> str:
    if isinstance(literal, UserAtom):
        if not literal.args:
            return literal.pred
        args = ", ".join(term_text(a) for a in literal.args)
        return f"{literal.pred}({args})"
    if isinstance(literal, Is):
        return f"{term_text(literal.lhs)} is {_arith_text(literal.rhs, 0)}"
    if isinstance(literal, Comparison):
        return f"{_arith_text(literal.lhs, 0)} {literal.op} {_arith_text(literal.rhs, 0)}"
    if isinstance(literal, Unify):
        return f"{term_text(literal.lhs)} = {term_text(literal.rhs)}"
    if isinstance(literal, Disunify):
        return f"{term_text(literal.lhs)} \\= {term_text(literal.rhs)}"
    return "true"


# ---------------------------------------------------------------------------
# Arithmetic expression survey, used by the loop classifier and modes.


class ArithInfo(NamedTuple):
    variables: frozenset[str]
    operators: frozenset[str]
    float_texts: tuple[str, ...]
    non_arith: bool  # some subterm is not a number, variable or operator

    @property
    def integer_safe(self) -> bool:
        return (
            not self.float_texts
            and not self.non_arith
            and all(op in ARITH_OPS for op in self.operators)
        )


def survey_arith(term: Term) -> ArithInfo:
    variables: set[str] = set()
    operators: set[str] = set()
    floats: list[str] = []
    non_arith = False

    def go(t: Term):
        nonlocal non_arith
        if isinstance(t, Var):
            variables.add(t.name)
        elif isinstance(t, IntConst):
            pass
        elif isinstance(t, FloatConst):
            floats.append(t.text)
        elif isinstance(t, Compound) and t.functor in ("+", "-", "*", "/") and len(t.args) in (1, 2):
            operators.add(t.functor)
            for a in t.args:
                go(a)
        else:
            non_arith = True

    go(term)
    return ArithInfo(frozenset(variables), frozenset(operators), tuple(floats), non_arith)

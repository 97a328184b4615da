"""Exact linear constraint solving over the rationals.

This module is the arithmetic engine of the analyzer.  Everything it
handles is a conjunction of linear atoms ``expr rel 0`` with ``rel`` one
of ``<``, ``=<``, ``=``.  Satisfiability and projection are decided by
Gaussian elimination of equalities followed by Fourier-Motzkin
elimination of inequalities; implication is decided by refuting the
negated claim.  Every atom is scaled to coprime integer coefficients,
and both elimination phases combine two atoms with positive integer
multipliers, so all arithmetic is on Python ints: exact, with no
floating point and no rational numbers anywhere.

Rational reasoning is what the callers in this package need: they rely
only on the direction "unsatisfiable over the rationals implies
unsatisfiable over the integers".  When an elimination blows past the
atom cap the solver reports "unknown" internally, and each public entry
point maps that to its safe answer (satisfiable for `is_satisfiable`,
not-implied for `implies`, a weaker conjunction for `project`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import FrozenSet, Iterable, Mapping, Optional, Union

LT = "<"
LE = "=<"
EQ = "="

ExprLike = Union["LinExpr", str, int]

#: Cap on the working set of one elimination; past this the result is
#: "unknown" and public entry points degrade to their sound answer.
ATOM_LIMIT = 10_000

#: Conjunctions whose satisfiability verdict is kept, least recently
#: used first out, so a long-lived process does not grow without bound.
SAT_CACHE_SIZE = 1 << 16


@dataclass(frozen=True, order=True)
class LinExpr:
    """A linear expression: a sum of ``coeff*var`` terms plus a constant.

    Terms are kept sorted by variable name with no zero coefficients, so
    structural equality coincides with mathematical equality.  Numbers
    are stored as given; the package only ever passes ints.
    """

    terms: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def build(coeffs: Mapping[str, int], const: int = 0) -> "LinExpr":
        terms = tuple((v, c) for v, c in sorted(coeffs.items()) if c != 0)
        return LinExpr(terms, const)

    @staticmethod
    def var(name: str) -> "LinExpr":
        return LinExpr(((name, 1),), 0)

    @staticmethod
    def of(value: int) -> "LinExpr":
        return LinExpr((), value)

    def coeff(self, var: str) -> int:
        for v, c in self.terms:
            if v == var:
                return c
        return 0

    def variables(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.terms)

    def scale(self, k: int) -> "LinExpr":
        if k == 0:
            return LinExpr()
        return LinExpr(tuple((v, c * k) for v, c in self.terms), self.const * k)

    def substitute(self, var: str, replacement: "LinExpr") -> "LinExpr":
        c = self.coeff(var)
        if c == 0:
            return self
        rest = LinExpr(tuple(t for t in self.terms if t[0] != var), self.const)
        return rest + replacement.scale(c)

    def __add__(self, other: ExprLike) -> "LinExpr":
        other = to_expr(other)
        coeffs = dict(self.terms)
        for v, c in other.terms:
            coeffs[v] = coeffs.get(v, 0) + c
        return LinExpr.build(coeffs, self.const + other.const)

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self + to_expr(other).scale(-1)

    def __neg__(self) -> "LinExpr":
        return self.scale(-1)

    def __str__(self) -> str:
        return render_expr(self)


def to_expr(x: ExprLike) -> LinExpr:
    if isinstance(x, LinExpr):
        return x
    if isinstance(x, str):
        return LinExpr.var(x)
    return LinExpr.of(x)


@dataclass(frozen=True, order=True)
class LinAtom:
    """A canonical atom ``expr rel 0``.

    Built through `make_atom`, which scales coefficients to coprime
    integers (positively, preserving inequality direction) and fixes the
    sign of equalities, so equal constraints are equal values.
    """

    expr: LinExpr
    rel: str

    def __str__(self) -> str:
        return render_atom(self)


def make_atom(expr: ExprLike, rel: str) -> LinAtom:
    if rel not in (LT, LE, EQ):
        raise ValueError(f"unknown relation {rel!r}")
    expr = to_expr(expr)
    terms, const = expr.terms, expr.const
    if type(const) is not int or any(type(c) is not int for _, c in terms):
        # Rational input (numbers with a denominator): clear denominators.
        mult = lcm(const.denominator, *(c.denominator for _, c in terms))
        terms = tuple((v, int(c * mult)) for v, c in terms)
        const = int(const * mult)
        expr = LinExpr(terms, const)
    g = gcd(const, *(c for _, c in terms))
    if g > 1:
        expr = LinExpr(tuple((v, c // g) for v, c in terms), const // g)
    if rel == EQ and (expr.terms[0][1] if expr.terms else expr.const) < 0:
        expr = expr.scale(-1)
    return LinAtom(expr, rel)


def atom_lt(lhs: ExprLike, rhs: ExprLike) -> LinAtom:
    return make_atom(to_expr(lhs) - rhs, LT)


def atom_le(lhs: ExprLike, rhs: ExprLike) -> LinAtom:
    return make_atom(to_expr(lhs) - rhs, LE)


def atom_gt(lhs: ExprLike, rhs: ExprLike) -> LinAtom:
    return atom_lt(rhs, lhs)


def atom_ge(lhs: ExprLike, rhs: ExprLike) -> LinAtom:
    return atom_le(rhs, lhs)


def atom_eq(lhs: ExprLike, rhs: ExprLike) -> LinAtom:
    return make_atom(to_expr(lhs) - rhs, EQ)


def negate_atom(atom: LinAtom) -> LinAtom:
    """Negation of a strict or weak inequality (equalities have no
    single-atom negation; `implies` splits them instead)."""
    if atom.rel == LT:
        return make_atom(-atom.expr, LE)
    if atom.rel == LE:
        return make_atom(-atom.expr, LT)
    raise ValueError("cannot negate an equality into a single atom")


def atom_is_true(atom: LinAtom) -> bool:
    if atom.expr.terms:
        return False
    c = atom.expr.const
    if atom.rel == LT:
        return c < 0
    if atom.rel == LE:
        return c <= 0
    return c == 0


def atom_is_false(atom: LinAtom) -> bool:
    return not atom.expr.terms and not atom_is_true(atom)


#: The canonical contradiction, ``1 =< 0``.
FALSE = make_atom(1, LE)

Conjunction = FrozenSet[LinAtom]

#: The empty conjunction is true.
TRUE: Conjunction = frozenset()


def conjunction(atoms: Iterable[LinAtom]) -> Conjunction:
    """Normalize an atom collection: drop trivially true atoms and
    collapse anything containing a trivially false one to {FALSE}."""
    out = set()
    for a in atoms:
        if atom_is_false(a):
            return frozenset((FALSE,))
        if not atom_is_true(a):
            out.add(a)
    return frozenset(out)


def sorted_atoms(conj: Iterable[LinAtom]) -> list[LinAtom]:
    return sorted(conj)


def conjunction_variables(conj: Iterable[LinAtom]) -> frozenset[str]:
    out: set[str] = set()
    for a in conj:
        out |= a.expr.variables()
    return frozenset(out)


def rename_expr(expr: LinExpr, mapping: Mapping[str, str]) -> LinExpr:
    coeffs: dict[str, int] = {}
    for v, c in expr.terms:
        w = mapping.get(v, v)
        coeffs[w] = coeffs.get(w, 0) + c
    return LinExpr.build(coeffs, expr.const)


def rename(conj: Iterable[LinAtom], mapping: Mapping[str, str]) -> Conjunction:
    return conjunction(make_atom(rename_expr(a.expr, mapping), a.rel) for a in conj)


class _CapExceeded(Exception):
    pass


def _eliminate(
    atoms: Iterable[LinAtom], keep: frozenset[str], limit: int
) -> Optional[list[LinAtom]]:
    """Eliminate every variable outside `keep`.

    Returns the residual atoms (all over `keep` variables) or None when a
    contradiction is derived.  Raises `_CapExceeded` when the working set
    grows past `limit`.
    """
    work: set[LinAtom] = set()
    for a in atoms:
        if atom_is_false(a):
            return None
        if not atom_is_true(a):
            work.add(a)

    # Gaussian phase: the least equality (in canonical order) that
    # mentions a variable scheduled for elimination eliminates the least
    # such variable v from every other atom.  With c*v in the pivot a
    # and c_b*v in b, |c|*b - sign(c)*c_b*a is free of v and is a
    # positive multiple of b with v substituted out.
    while True:
        pivots = [a for a in work if a.rel == EQ and a.expr.variables() - keep]
        if not pivots:
            break
        a = min(pivots)
        v = min(a.expr.variables() - keep)
        work.discard(a)
        c = a.expr.coeff(v)
        nxt: set[LinAtom] = set()
        for b in work:
            cb = b.expr.coeff(v)
            if cb == 0:
                nxt.add(b)
                continue
            nb = make_atom(
                b.expr.scale(abs(c)) + a.expr.scale(-cb if c > 0 else cb), b.rel
            )
            if atom_is_false(nb):
                return None
            if not atom_is_true(nb):
                nxt.add(nb)
        work = nxt

    # Fourier-Motzkin phase, cheapest variable first: the one whose
    # elimination combines the fewest pairs, ties broken by name.
    while True:
        ups: dict[str, int] = {}
        downs: dict[str, int] = {}
        for a in work:
            for v, c in a.expr.terms:
                if v not in keep:
                    side = ups if c > 0 else downs
                    side[v] = side.get(v, 0) + 1
        if not ups and not downs:
            break
        v = min(
            ups.keys() | downs.keys(),
            key=lambda w: (ups.get(w, 0) * downs.get(w, 0), w),
        )
        upper: list[LinAtom] = []
        lower: list[LinAtom] = []
        untouched: set[LinAtom] = set()
        for a in work:
            c = a.expr.coeff(v)
            if c > 0:
                upper.append(a)
            elif c < 0:
                lower.append(a)
            else:
                untouched.add(a)
        upper.sort()
        lower.sort()
        work = untouched
        for up in upper:
            for lo in lower:
                alpha = up.expr.coeff(v)
                beta = -lo.expr.coeff(v)
                combined = up.expr.scale(beta) + lo.expr.scale(alpha)
                rel = LT if LT in (up.rel, lo.rel) else LE
                nb = make_atom(combined, rel)
                if atom_is_false(nb):
                    return None
                if not atom_is_true(nb):
                    work.add(nb)
                if len(work) > limit:
                    raise _CapExceeded()
    return sorted(work)


def _tighten(atom: LinAtom) -> LinAtom:
    """Integer sharpening of a strict atom.  Every variable this solver
    sees ranges over the integers (argument values, term sizes and their
    renamed copies), and every atom has integer coefficients, so
    a.x + c < 0 can be replaced by the stronger a.x + c + 1 =< 0 without
    losing any integer point."""
    if atom.rel != LT or not atom.expr.terms:
        return atom
    return make_atom(LinExpr(atom.expr.terms, atom.expr.const + 1), LE)


@lru_cache(maxsize=SAT_CACHE_SIZE)
def _solve_sat(conj: Conjunction) -> Optional[bool]:
    """True = satisfiable, False = unsatisfiable, None = cap exceeded."""
    try:
        tightened = [_tighten(a) for a in conj]
        return _eliminate(tightened, frozenset(), ATOM_LIMIT) is not None
    except _CapExceeded:
        return None


def is_satisfiable(conj: Iterable[LinAtom]) -> bool:
    """Satisfiability over the integers, decided by strict-atom
    sharpening followed by exact rational elimination; "unknown" maps to
    True (the sound side)."""
    verdict = _solve_sat(frozenset(conj))
    return True if verdict is None else verdict


def implies(conj: Iterable[LinAtom], atom: LinAtom) -> bool:
    """True iff conj entails atom over the integers, decided by checking
    that conj plus the negated atom is unsatisfiable; "unknown" maps to
    False (the sound side for a decrease proof).

    An equality is entailed iff both of its weak halves are.
    """
    if atom_is_true(atom):
        return True
    if atom.rel == EQ:
        return implies(conj, make_atom(atom.expr, LE)) and implies(
            conj, make_atom(-atom.expr, LE)
        )
    refuter = negate_atom(atom)
    verdict = _solve_sat(conjunction([*conj, refuter]))
    if verdict is None:
        return False
    return not verdict


def implies_all(conj: Iterable[LinAtom], atoms: Iterable[LinAtom]) -> bool:
    conj = frozenset(conj)
    return all(implies(conj, a) for a in sorted_atoms(atoms))


def equivalent(a: Iterable[LinAtom], b: Iterable[LinAtom]) -> bool:
    return implies_all(a, b) and implies_all(b, a)


def project_or_none(conj: Iterable[LinAtom], keep: Iterable[str]) -> Optional[Conjunction]:
    """Exact projection onto `keep`, or None when the cap was hit."""
    keep = frozenset(keep)
    try:
        res = _eliminate(conj, keep, ATOM_LIMIT)
    except _CapExceeded:
        return None
    if res is None:
        return frozenset((FALSE,))
    return simplify(res)


def project(conj: Iterable[LinAtom], keep: Iterable[str]) -> Conjunction:
    """Strongest rational consequence of conj on the `keep` variables.

    On cap exhaustion falls back to dropping every atom that mentions an
    eliminated variable, which is weaker but still sound.
    """
    exact = project_or_none(conj, keep)
    if exact is not None:
        return exact
    keep = frozenset(keep)
    return conjunction(a for a in conj if a.expr.variables() <= keep)


def simplify(conj: Iterable[LinAtom]) -> Conjunction:
    """Drop atoms implied by the rest of the conjunction (greedy, in
    canonical order, so the result is deterministic).

    An unsatisfiable conjunction implies every atom, so the greedy pass
    could shrink it to a subset the solver judges satisfiable (equalities
    get no divisibility test: {Y =< 0, 2*Y - 1 = 0} loses Y =< 0).  Such
    an input therefore simplifies to {FALSE}."""
    atoms = conjunction(conj)
    kept = sorted_atoms(atoms)
    for a in list(kept):
        if a not in kept:
            continue
        rest = [b for b in kept if b != a]
        if implies(frozenset(rest), a):
            kept = rest
    if len(kept) < len(atoms) and not is_satisfiable(atoms):
        return frozenset((FALSE,))
    return frozenset(kept)


def _format_term(var: str, coeff: int) -> str:
    if coeff == 1:
        return var
    return f"{coeff}*{var}"


def render_expr(expr: LinExpr) -> str:
    """Readable form with subtraction, e.g. ``100 - arg1``."""
    pieces: list[tuple[str, str]] = []
    for v, c in expr.terms:
        if c > 0:
            pieces.append(("+", _format_term(v, c)))
    if expr.const > 0:
        pieces.append(("+", str(expr.const)))
    for v, c in expr.terms:
        if c < 0:
            pieces.append(("-", _format_term(v, -c)))
    if expr.const < 0:
        pieces.append(("-", str(-expr.const)))
    if not pieces:
        return "0"
    sign, text = pieces[0]
    head = text if sign == "+" else "-" + text
    return head + "".join(f" {s} {t}" for s, t in pieces[1:])


def render_atom(atom: LinAtom) -> str:
    """Source comparison syntax, e.g. ``arg1 > 89`` or ``arg2 =< arg1``."""
    expr = atom.expr
    lhs_terms = [(v, c) for v, c in expr.terms if c > 0]
    rhs_terms = [(v, -c) for v, c in expr.terms if c < 0]
    lhs = _render_sum(lhs_terms, expr.const if expr.const > 0 else None)
    rhs = _render_sum(rhs_terms, -expr.const if expr.const < 0 else None)
    op = {LT: "<", LE: "=<", EQ: "="}[atom.rel]
    if not lhs_terms and rhs_terms:
        lhs, rhs = rhs, lhs
        op = {LT: ">", LE: ">=", EQ: "="}[atom.rel]
    return f"{lhs} {op} {rhs}"


def _render_sum(terms: list[tuple[str, int]], const: Optional[int]) -> str:
    parts = [_format_term(v, c) for v, c in terms]
    if const:
        parts.append(str(const))
    return " + ".join(parts) if parts else "0"


def render_conjunction(conj: Iterable[LinAtom]) -> str:
    atoms = sorted_atoms(conj)
    if not atoms:
        return "true"
    return ", ".join(render_atom(a) for a in atoms)

"""Exact linear constraint solving over integer variables.

This module is the arithmetic engine of the analyzer.  Everything it
handles is a conjunction of linear atoms ``expr rel 0`` with ``rel`` one
of ``<``, ``=<``, ``=``.  Projection is decided by Gaussian elimination
of equalities followed by Fourier-Motzkin elimination of inequalities,
both in `_eliminate`; implication is decided by refuting the negated
claim.  Every atom is scaled to coprime integer coefficients, and both
elimination phases build each new row ``kx*x + ky*y rel 0`` in one step
(`_combine`) with integer multipliers, so all arithmetic is on Python
ints: exact, with no floating point and no rational numbers anywhere.

Satisfiability, behind the one verdict cache `_solve_sat`, takes one of
two routes on the tightened atoms (see `_tighten`).  Almost every
conjunction the prover checks is a difference conjunction: each atom is
``±x + c rel 0`` or ``x - y + c rel 0``.  `difference_graph` reads such
a conjunction as a graph with an edge u -> v of weight w for each
``v - u =< w``, a zero node standing for constants, and it is
unsatisfiable exactly when the graph has a negative cycle.  Any other
conjunction goes to `_eliminate`.  The two routes agree: on the
tightened atoms Fourier-Motzkin answers a rational question exactly,
and for difference atoms the graph answers that same question exactly,
so every verdict is the same, except where elimination would pass
`ATOM_LIMIT` and answer "unknown": the graph, which has no cap, gives
the exact verdict there.  One Bellman-Ford routine, `_bellman_ford`,
answers every question the graph is asked (Cormen et al., Introduction
to Algorithms, 24.1 and 24.4): from every node at once it finds a
negative cycle or, failing that, distances that solve the conjunction
(`difference_point`), and from one start it bounds every
``v - start``, which is how `implied_orders` reads the order between
two variables.  With unit coefficients and integer constants the
shortest paths are integers, so on this route a rational solution
implies an integer one and the rational and integer answers coincide.

`LinExpr` and `LinAtom` are tuples, so hashing, equality and ordering
run in C: the prover makes thousands of small solver calls, each
building and hashing atoms by the dozen.  Their field order fixes the
canonical order of atoms.  An atom is built canonical in one step:
both sides of a relation are summed into one coefficient dict, with
the signs of `SIGNED_RELATIONS`, and `atom_from_coeffs` sorts and
divides it once, as `_combine` does for an elimination's rows.

Every variable ranges over the integers, so strict atoms are tightened
before either route runs and ``0 < X, X < 1`` is unsatisfiable.  The
invariant callers rely on is one-sided: a verdict of unsatisfiable means
the conjunction has no integer solution.  A verdict of satisfiable
means a rational solution of the tightened atoms exists; off the
difference route that solution may not be integral (``2*X = 1``).
When an elimination blows past the atom cap the solver reports
"unknown" internally, and each public entry point maps that to its safe
answer (satisfiable for `is_satisfiable`, not-implied for `implies`, a
weaker conjunction for `project`).

A time limit is a deadline held in a context variable and set by the
`deadline` context manager.  `is_satisfiable`, `implies` and
`implied_orders` read it on entry, before the verdict cache, and raise
`DeadlinePassed` once it has passed, so a warm cache cannot hide it.
Every partition walk, closure check, unfolding filter and norm round
goes through them.  A context variable is local to its thread (and
asyncio task), so a deadline stops only the analysis it was set for,
on any thread and any platform.

The per-layer tracer of the benchmark (`perfbench/tracer.py`) rebinds
the six public entry points `is_satisfiable`, `implies`, `implies_all`,
`project`, `project_or_none` and `simplify` by name, so they stay
module-level functions.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from math import gcd, inf
from time import monotonic
from typing import FrozenSet, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

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

#: Builds a tuple subclass from its fields without a Python-level call.
_new = tuple.__new__


def _no_arithmetic(self, other):
    return NotImplemented


class LinExpr(NamedTuple):
    """A linear expression: a sum of ``coeff*var`` terms plus a constant.

    A tuple ``(terms, const)``: terms are kept sorted by variable name
    with no zero coefficients, so structural equality coincides with
    mathematical equality, and tuple order (terms first, then the
    constant) is the canonical order.  Every number is an int.
    Arithmetic is linear: ``e + f`` adds, and ``k * e`` is a `TypeError`
    rather than tuple repetition (use `scale`).
    """

    terms: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def build(coeffs: Mapping[str, int], const: int = 0) -> "LinExpr":
        terms = tuple((v, c) for v, c in sorted(coeffs.items()) if c != 0)
        return _new(LinExpr, (terms, const))

    @staticmethod
    def var(name: str) -> "LinExpr":
        return _new(LinExpr, (((name, 1),), 0))

    @staticmethod
    def of(value: int) -> "LinExpr":
        return _new(LinExpr, ((), value))

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
        return _new(LinExpr, (tuple((v, c * k) for v, c in self.terms), self.const * k))

    def __add__(self, other: ExprLike, sign: int = 1) -> "LinExpr":
        """``self + sign * other``, the terms of both summed in one dict."""
        other = to_expr(other)
        coeffs = dict(self.terms)
        for v, c in other.terms:
            coeffs[v] = coeffs.get(v, 0) + sign * c
        return LinExpr.build(coeffs, self.const + sign * other.const)

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self.__add__(other, -1)

    def __neg__(self) -> "LinExpr":
        return self.scale(-1)

    __mul__ = __rmul__ = _no_arithmetic

    def __str__(self) -> str:
        return render_expr(self)


def to_expr(x: ExprLike) -> LinExpr:
    if isinstance(x, LinExpr):
        return x
    if isinstance(x, str):
        return LinExpr.var(x)
    return LinExpr.of(x)


class LinAtom(NamedTuple):
    """A canonical atom ``expr rel 0``, the tuple ``(expr, rel)``.

    Built through `make_atom` (or `_combine`), which scales coefficients
    to coprime integers (positively, preserving inequality direction)
    and fixes the sign of equalities, so equal constraints are equal
    values.  Tuple order (expression first, then relation) is the
    canonical order of atoms.
    """

    expr: LinExpr
    rel: str

    __add__ = __mul__ = __rmul__ = _no_arithmetic

    def __str__(self) -> str:
        return render_atom(self)


def _canonical(terms: Iterable[tuple[str, int]], const: int, rel: str) -> LinAtom:
    """The atom ``sum(terms) + const rel 0`` for int terms sorted by
    variable with no zero coefficient: divided by the gcd of all its
    numbers, negated too when it is an equality whose leading number is
    negative."""
    terms = tuple(terms)
    g = gcd(const, *[c for _, c in terms])
    if rel == EQ and (terms[0][1] if terms else const) < 0:
        g = -g
    if g > 1 or g < 0:
        terms = tuple([(v, c // g) for v, c in terms])
        const //= g
    return _new(LinAtom, (_new(LinExpr, (terms, const)), rel))


def atom_from_coeffs(coeffs: Mapping[str, int], const: int, rel: str) -> LinAtom:
    """The atom ``sum(c*v for v, c in coeffs) + const rel 0``, zero
    coefficients dropped, canonicalized once."""
    return _canonical([vc for vc in sorted(coeffs.items()) if vc[1]], const, rel)


def make_atom(expr: ExprLike, rel: str) -> LinAtom:
    if rel not in (LT, LE, EQ):
        raise ValueError(f"unknown relation {rel!r}")
    expr = to_expr(expr)
    return _canonical(expr.terms, expr.const, rel)


def _combine(x: LinExpr, kx: int, y: LinExpr, ky: int, rel: str) -> LinAtom:
    """``make_atom(x.scale(kx) + y.scale(ky), rel)`` for int multipliers,
    built in one step: the row combination of both elimination phases."""
    coeffs = {v: c * kx for v, c in x.terms}
    for v, c in y.terms:
        coeffs[v] = coeffs.get(v, 0) + c * ky
    return atom_from_coeffs(coeffs, x.const * kx + y.const * ky, rel)


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


def weak_halves(atom: LinAtom) -> tuple[LinAtom, ...]:
    """An equality as its two weak inequalities; any other atom as
    itself."""
    if atom.rel != EQ:
        return (atom,)
    return (make_atom(atom.expr, LE), make_atom(-atom.expr, LE))


#: The canonical contradiction, ``1 =< 0``.
FALSE = make_atom(1, LE)

Conjunction = FrozenSet[LinAtom]


def conjunction(atoms: Iterable[LinAtom]) -> Conjunction:
    """Normalize an atom collection: drop trivially true atoms and
    collapse anything containing a trivially false one to {FALSE}."""
    conj = set(atoms)
    if not all(a.expr.terms for a in conj):
        if any(atom_is_false(a) for a in conj):
            return frozenset((FALSE,))
        conj = {a for a in conj if a.expr.terms}
    # A frozenset copied from a set gets a table sized for its elements;
    # one built from a list can get twice that, and `_solve_sat` keeps
    # thousands of these as keys.
    return frozenset(conj)


def substitute(expr: LinExpr, mapping: Mapping[str, ExprLike]) -> LinExpr:
    """Replace every variable of `mapping` by its image (a variable
    name, a number or an expression), all at once, so images are never
    substituted into again."""
    coeffs: dict[str, int] = {}
    const = expr.const
    for v, c in expr.terms:
        image = mapping.get(v, v)
        if isinstance(image, str):
            coeffs[image] = coeffs.get(image, 0) + c
            continue
        image = to_expr(image)
        const += c * image.const
        for w, d in image.terms:
            coeffs[w] = coeffs.get(w, 0) + c * d
    return LinExpr.build(coeffs, const)


def rename(conj: Iterable[LinAtom], mapping: Mapping[str, str]) -> Conjunction:
    """The canonical atoms renamed by `mapping`, all at once.  The
    renaming must be one-to-one on the variables of `conj`: no two of
    them get the same name, and no image is a variable of `conj` that
    keeps its own name.  Then no two terms merge and an atom's numbers
    stay the same, so their gcd does too, and only the term order and
    the sign of an equality need fixing."""
    renamed = []
    for (terms, const), rel in conj:
        terms = sorted([(mapping.get(v, v), c) for v, c in terms])
        if rel == EQ and terms and terms[0][1] < 0:
            terms = [(v, -c) for v, c in terms]
            const = -const
        renamed.append(_new(LinAtom, (_new(LinExpr, (tuple(terms), const)), rel)))
    return conjunction(renamed)


class _CapExceeded(Exception):
    pass


def _eliminate(
    atoms: Iterable[LinAtom], keep: frozenset[str]
) -> Optional[list[LinAtom]]:
    """Eliminate every variable outside `keep`.

    Returns the residual atoms (all over `keep` variables) or None when a
    contradiction is derived.  Raises `_CapExceeded` when the working set
    grows past `ATOM_LIMIT`, read when the call runs.
    """
    work: set[LinAtom] = set()
    for a in atoms:
        if a.expr.terms:
            work.add(a)
        elif atom_is_false(a):
            return None

    # Gaussian phase: the least equality (in canonical order) that
    # mentions a variable scheduled for elimination eliminates the least
    # such variable v from every other atom.  With c*v in the pivot a
    # and c_b*v in b, |c|*b - sign(c)*c_b*a is free of v and is a
    # positive multiple of b with v substituted out.
    while True:
        pivot = None
        for a in work:
            if a.rel == EQ and (pivot is None or a < pivot):
                for v, c in a.expr.terms:
                    if v not in keep:
                        pivot, pv, pc = a, v, c
                        break
        if pivot is None:
            break
        work.discard(pivot)
        nxt: set[LinAtom] = set()
        for b in work:
            for v, cb in b.expr.terms:
                if v == pv:
                    nb = _combine(b.expr, abs(pc), pivot.expr, -cb if pc > 0 else cb, b.rel)
                    if nb.expr.terms:
                        nxt.add(nb)
                    elif atom_is_false(nb):
                        return None
                    break
            else:  # b does not mention pv
                nxt.add(b)
        work = nxt

    # Fourier-Motzkin phase, cheapest variable first: the one whose
    # elimination combines the fewest pairs, ties broken by name.  Each
    # round lists, per variable, the atoms bounding it from above
    # (alpha*v, alpha > 0) and from below (-beta*v, beta > 0);
    # beta*up + alpha*lo is free of v.
    while True:
        ups: dict[str, list[tuple[LinAtom, int]]] = defaultdict(list)
        downs: dict[str, list[tuple[LinAtom, int]]] = defaultdict(list)
        for a in work:
            for v, c in a.expr.terms:
                if v not in keep:
                    if c > 0:
                        ups[v].append((a, c))
                    else:
                        downs[v].append((a, -c))
        if not ups and not downs:
            break
        v = min(
            ups.keys() | downs.keys(),
            key=lambda w: (len(ups.get(w, ())) * len(downs.get(w, ())), w),
        )
        upper = sorted(ups.get(v, ()))
        lower = sorted(downs.get(v, ()))
        work.difference_update([a for a, _ in upper + lower])
        for up, alpha in upper:
            for lo, beta in lower:
                rel = LT if up.rel == LT or lo.rel == LT else LE
                nb = _combine(up.expr, beta, lo.expr, alpha, rel)
                if nb.expr.terms:
                    work.add(nb)
                elif atom_is_false(nb):
                    return None
                if len(work) > ATOM_LIMIT:
                    raise _CapExceeded()
    return sorted(work)


def _tighten(atom: LinAtom) -> LinAtom:
    """Integer sharpening of a strict atom.  Every variable this solver
    sees ranges over the integers (argument values, term sizes and their
    renamed copies), and every atom has integer coefficients, so
    a.x + c < 0 can be replaced by the stronger a.x + c + 1 =< 0 without
    losing any integer point."""
    expr = atom.expr
    if atom.rel != LT or not expr.terms:
        return atom
    return _canonical(expr.terms, expr.const + 1, LE)


def tightened(conj: Iterable[LinAtom]) -> Conjunction:
    """The conjunction with every strict atom sharpened (`_tighten`):
    the atoms both solver routes decide, with the same integer points.
    A conjunction mixed with `eliminate_outside` results, which come
    tightened, then holds no strict atom next to its sharpened twin,
    which would split the verdict cache's keys."""
    return frozenset([_tighten(a) for a in conj])


#: ``(u, v, w)``: the constraint ``v - u =< w``, an edge from u to v.
#: The node ``""`` is the zero node, the value every constant is
#: measured from.
Edge = tuple[str, str, int]


def difference_graph(conj: Iterable[LinAtom]) -> Optional[list[Edge]]:
    """The tightened atoms of `conj` as the edges of their difference
    graph, or None at the first atom that is not ``±x + c rel 0`` or
    ``x - y + c rel 0``.  An equality gives an edge each way; a false
    constant atom gives a negative loop on the zero node."""
    edges: list[Edge] = []
    for atom in conj:
        (terms, const), rel = atom
        if len(terms) == 1:
            ((plus, a),) = terms
            minus = ""
        elif len(terms) == 2:
            (plus, a), (minus, b) = terms
            if a != -b:
                return None
        elif terms:
            return None
        else:
            if not atom_is_true(atom):
                edges.append(("", "", -1))
            continue
        # a*(plus - minus) + const rel 0
        if a != 1 and a != -1:
            # Tightening divides by a gcd, which can make a unit.
            if rel != LT:
                return None
            (terms, const), rel = _tighten(atom)
            a = terms[0][1]
            if a != 1 and a != -1:
                return None
        elif rel == LT:
            # With a unit coefficient the gcd is 1, so `_tighten` would
            # only add one to the constant.
            const += 1
            rel = LE
        if a == -1:
            plus, minus = minus, plus
        # plus - minus + const rel 0
        edges.append((minus, plus, -const))
        if rel == EQ:
            edges.append((plus, minus, const))
    return edges


def _bellman_ford(edges: list[Edge], start: Optional[str] = None) -> Optional[dict[str, float]]:
    """Bellman-Ford distances, or None when it finds a negative cycle.
    With no `start` every node starts at 0, as from a virtual source
    with a zero edge to each, so every negative cycle is found.  From a
    `start`, ``dist[v]`` is the least upper bound of ``v - start``
    (`inf` when there is none), and only the cycles it reaches are
    found.  Without a negative cycle the distances settle within n - 1
    passes over n nodes, so distances that still fall in pass n + 1
    prove one."""
    if start is None:
        dist = {node: 0 for u, v, _ in edges for node in (u, v)}
    else:
        dist = {node: inf for u, v, _ in edges for node in (u, v)}
        dist[start] = 0
    for _ in range(len(dist) + 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return dist
    return None


def difference_point(conj: Iterable[LinAtom]) -> Optional[dict[str, int]]:
    """An integer value for each variable of `conj` that satisfies it,
    or None when `conj` is unsatisfiable or not a difference
    conjunction (see `difference_graph`).  The values are the
    Bellman-Ford distances from every node at once, less the zero
    node's."""
    edges = difference_graph(conj)
    dist = None if edges is None else _bellman_ford(edges)
    if dist is None:
        return None
    zero = dist.pop("", 0)
    return {var: value - zero for var, value in dist.items()}


#: The `monotonic` time after which a solver call raises, if any.
_DEADLINE: ContextVar[Optional[float]] = ContextVar("deadline", default=None)


class DeadlinePassed(Exception):
    """A solver call started after the deadline set by `deadline`."""


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise `DeadlinePassed` from every solver call that starts
    `seconds` or more from now, until the block ends; the outer
    deadline, if any, holds again after it."""
    token = _DEADLINE.set(monotonic() + seconds)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def _check_deadline() -> None:
    when = _DEADLINE.get()
    if when is not None and monotonic() >= when:
        raise DeadlinePassed()


@lru_cache(maxsize=SAT_CACHE_SIZE)
def _solve_sat(conj: Conjunction) -> Optional[bool]:
    """True = satisfiable, False = unsatisfiable, None = cap exceeded."""
    edges = difference_graph(conj)
    if edges is not None:
        return _bellman_ford(edges) is not None
    try:
        tightened = [_tighten(a) for a in conj]
        return _eliminate(tightened, frozenset()) is not None
    except _CapExceeded:
        return None


def is_satisfiable(conj: Iterable[LinAtom]) -> bool:
    """Satisfiability over the integers, decided by strict-atom
    sharpening followed by exact rational elimination; "unknown" maps to
    True (the sound side)."""
    _check_deadline()
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
        return all(implies(conj, half) for half in weak_halves(atom))
    refuter = negate_atom(atom)
    _check_deadline()
    verdict = _solve_sat(conjunction([*conj, refuter]))
    if verdict is None:
        return False
    return not verdict


def implies_all(conj: Iterable[LinAtom], atoms: Iterable[LinAtom]) -> bool:
    conj = frozenset(conj)
    return all(implies(conj, a) for a in sorted(atoms))


#: Each relation between two expressions as a constraint, by its
#: spelling in programs and pair relations.
RELATIONS = {"=": atom_eq, ">": atom_gt, "<": atom_lt, ">=": atom_ge, "=<": atom_le}

#: The same relations as the relation of their atom and the sign the
#: left side takes in it: ``x > y`` is ``y - x < 0``.
SIGNED_RELATIONS = {"=": (EQ, 1), "<": (LT, 1), "=<": (LE, 1), ">": (LT, -1), ">=": (LE, -1)}


def implied_orders(
    conj: Conjunction, pairs: Iterable[tuple[str, str]]
) -> dict[tuple[str, str], str]:
    """For each pair (x, y) of variables, the first of "=", ">", "<"
    between x and y that `conj` implies; a pair with none is absent.

    An unsatisfiable difference conjunction implies everything, so every
    pair gets "=".  A satisfiable one is read off its graph, one
    Bellman-Ford per distinct start: the search from y bounds x - y
    above, and the one from x bounds y - x above, so x - y below.  The
    bounds are exact, so these are the verdicts of `implies`, which
    every other conjunction takes, up to three calls per pair."""
    _check_deadline()
    edges = difference_graph(conj)
    if edges is None:
        orders = {}
        for x, y in pairs:
            for rel in ("=", ">", "<"):
                if implies(conj, RELATIONS[rel](x, y)):
                    orders[x, y] = rel
                    break
        return orders
    if not _solve_sat(conj):
        return dict.fromkeys(pairs, "=")
    pairs = list(pairs)
    bounds = {start: _bellman_ford(edges, start) for start in {v for pair in pairs for v in pair}}
    orders = {}
    for x, y in pairs:
        most, least = bounds[y].get(x, inf), -bounds[x].get(y, inf)
        if most <= 0 <= least:
            orders[x, y] = "="
        elif least >= 1:
            orders[x, y] = ">"
        elif most <= -1:
            orders[x, y] = "<"
    return orders


def project_or_none(conj: Iterable[LinAtom], keep: Iterable[str]) -> Optional[Conjunction]:
    """Exact projection onto `keep`, or None when the cap was hit."""
    keep = frozenset(keep)
    try:
        res = _eliminate(conj, keep)
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


def eliminate_outside(conj: Iterable[LinAtom], keep: Iterable[str]) -> Conjunction:
    """A conjunction over `keep` that the solver judges like `conj`
    once both are extended by atoms over `keep` only: `is_satisfiable`
    and `implies` give the same verdicts on either, so repeated checks
    on the result skip the eliminated variables.

    Strict atoms are tightened first, as `_solve_sat` does: eliminating
    first loses integer precision ({d1 = 2*Y, 0 < Y, Y < 1} has no
    solution, yet eliminating Y leaves 0 < d1 < 2, that is d1 = 1).
    Unsatisfiable input gives {FALSE}; past the atom cap the input comes
    back unchanged."""
    conj = frozenset(conj)
    try:
        res = _eliminate([_tighten(a) for a in conj], frozenset(keep))
    except _CapExceeded:
        return conj
    if res is None or not is_satisfiable(res):
        return frozenset((FALSE,))
    return frozenset(res)


def simplify(conj: Iterable[LinAtom]) -> Conjunction:
    """Drop atoms implied by the rest of the conjunction (greedy, in
    canonical order, so the result is deterministic).

    An unsatisfiable conjunction implies every atom, so the greedy pass
    could shrink it to a subset the solver judges satisfiable (equalities
    get no divisibility test: {Y =< 0, 2*Y - 1 = 0} loses Y =< 0).  Such
    an input therefore simplifies to {FALSE}."""
    atoms = conjunction(conj)
    kept = sorted(atoms)
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
    atoms = sorted(conj)
    if not atoms:
        return "true"
    return ", ".join(render_atom(a) for a in atoms)

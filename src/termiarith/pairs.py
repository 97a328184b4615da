"""Query-mapping pairs: the objects termination is argued on.

A pair summarizes one resolution step (or a composition of steps): the
abstraction of a call, the abstraction of that call after head
unification (the domain row), the abstraction of one selected body atom
(the range row), and the relations between the two rows that the step
implies.  Each relation is a triple (i, rel, j): position i of the domain
row is equal to ("="), greater than (">") or less than ("<") position j
of the range row.  Between integer positions it compares values, between
structurally instantiated positions it compares term-size norms.  The
report shows "=" relations as edges and the strict ones as arcs pointing
from the larger position to the smaller.

Only the recurrent pairs are generated and closed under composition:
those whose query and range atom lie on one cycle of the graph of
abstract queries, walked from the elements of the query pattern's
partition (`generate_pairs`), for every circular pair is a composition
of them alone.  The closure is finite because rows range over finite
partitions.  A circular pair (range abstraction equal to
the query) is suspicious; each one must be discharged either by the
structural test (a norm decrease along instantiated positions) or by a
linear function of the integer positions, guessed from the domain row
and at least 0 there, that provably shrinks from domain to range."""

from __future__ import annotations

from collections import deque
from functools import cache, cached_property, partial
from typing import Callable, Iterable, Mapping as MappingType, NamedTuple, Optional, Sequence

from .answers import AnswerTable, CallOption, call_option
from .constraints import (
    LE,
    LT,
    SIGNED_RELATIONS,
    Conjunction,
    LinAtom,
    LinExpr,
    atom_from_coeffs,
    conjunction,
    eliminate_outside,
    implied_orders,
    implies,
    is_satisfiable,
    make_atom,
    rename,
    render_conjunction,
    render_expr,
    substitute,
    tightened,
)
from .domain import (
    Domain,
    effective_call_modes,
    linear_atom,
    literal_atoms,
    position_var,
    satisfiable_choices,
)
from .graph import strongly_connected_components
from .modes import ModeAssignment, clause_applicable
from .norms import call_size_var, head_call_sizes, head_size_var, infer_size_relations
from .syntax import (
    IntConst,
    MODE_BOUND,
    MODE_INT,
    PredKey,
    Program,
    QueryPattern,
    Term,
    UserAtom,
    Var,
    mode_meet,
    render_query_pattern,
    term_vars,
)

#: Composition closure refuses to grow past this many pairs.
PAIR_CAP = 20_000

#: Termination-function candidates tried per circular pair.
CANDIDATE_CAP = 16

ROW_DOMAIN = "domain"
ROW_RANGE = "range"

#: Variable-name prefix of each row's positions; a composition meets
#: in the middle row m1, m2, ...
_PREFIX = {ROW_DOMAIN: "d", ROW_RANGE: "r"}
_MIDDLE = "m"


class PairCapExceeded(Exception):
    """The composition closure outgrew the pair cap."""


class AbstractQuery(NamedTuple):
    """Abstraction of a call: predicate, argument modes, and a
    constraint over its integer positions (arg1, arg2, ...)."""

    key: PredKey
    modes: tuple[str, ...]
    constraint: Conjunction


#: (domain position, "=" | ">" | "<", range position).
Relation = tuple[int, str, int]


class _MappingRows(NamedTuple):
    domain_atom: AbstractQuery
    range_atom: AbstractQuery
    relations: frozenset[Relation]


class Mapping(_MappingRows):
    """Domain and range rows with the relations between them.  A
    relation (i, rel, j) states value(d_i) rel value(r_j) when both
    positions are integer and norm(d_i) rel norm(r_j) when both are
    instantiated; each position's mode is read from its row.

    The fields are a tuple; the instance dict holds two blocks, each
    built when first read: the row constraints and integer relations on
    the names of a composition through the middle row m1, m2, ...  The
    first step's block (domain on d*, relations and range on m*) is also
    read by `verify_decrease`; the second step's has domain and
    relations on m* and range on r*.  Relation atoms are built on these
    names directly, in the canonical form renaming would give."""

    @cached_property
    def first_block(self) -> Conjunction:
        return self._block(_PREFIX[ROW_DOMAIN], _MIDDLE)

    @cached_property
    def second_block(self) -> Conjunction:
        return self._block(_MIDDLE, _PREFIX[ROW_RANGE])

    def _block(self, domain_prefix: str, range_prefix: str) -> Conjunction:
        domain, range_ = self.domain_atom, self.range_atom
        domain_names = _row_names(domain.key[1], domain_prefix)
        range_names = _row_names(range_.key[1], range_prefix)
        atoms = [*rename(domain.constraint, domain_names), *rename(range_.constraint, range_names)]
        domain_vars, range_vars = list(domain_names.values()), list(range_names.values())
        for i, rel, j in self.relations:
            if domain.modes[i] == MODE_INT and range_.modes[j] == MODE_INT:
                rel, sign = SIGNED_RELATIONS[rel]
                coeffs = {domain_vars[i]: sign, range_vars[j]: -sign}
                atoms.append(atom_from_coeffs(coeffs, 0, rel))
        return conjunction(atoms)


class QueryMappingPair(NamedTuple):
    query: AbstractQuery
    mapping: Mapping


class PairProof(NamedTuple):
    """How a circular pair was discharged: 'structural' for the norm
    test, 'function' with the witness otherwise: a linear function of
    arg1, arg2, ... that decreases and is at least 0 (`verify_decrease`)."""

    method: str
    function: Optional[LinExpr] = None

    def describe(self) -> str:
        if self.method == "structural":
            return "structural norm decrease"
        return f"decreasing function {render_expr(self.function)} (bound 0)"


def _row_var(row: str, position: int) -> str:
    return f"{_PREFIX[row]}{position + 1}"


def _row_names(arity: int, prefix: str) -> dict[str, str]:
    """Position variables arg1.. mapped to prefix1.."""
    return {position_var(j): f"{prefix}{j + 1}" for j in range(arity)}


def _theta_modes(modes: Sequence[str], args: Sequence[Term]) -> tuple[str, ...]:
    """Call modes strengthened by what head unification instantiates."""
    out = []
    for mode, arg in zip(modes, args):
        if isinstance(arg, IntConst):
            out.append(MODE_INT)
        elif next(term_vars(arg), None) is None:
            out.append(mode_meet(mode, MODE_BOUND))
        else:
            out.append(mode)
    return tuple(out)


# ---------------------------------------------------------------------------
# Generation.


def _value_bindings(modes: Sequence[str], args: Sequence[Term], row: str) -> list[LinAtom]:
    bindings = [
        linear_atom(Var(_row_var(row, j)), "=", arg)
        for j, (mode, arg) in enumerate(zip(modes, args))
        if mode == MODE_INT
    ]
    return [atom for atom in bindings if atom is not None]


def _relations(
    constraint: Conjunction,
    mode: str,
    domain_modes: Sequence[str],
    range_modes: Sequence[str],
    domain_var: Callable[[int], str],
    range_var: Callable[[int], str],
) -> set[Relation]:
    """Relations between the `mode` positions of the two rows that the
    constraint implies, position values being named by `domain_var` and
    `range_var`: values for i positions, term sizes for b ones."""
    positions = {
        (domain_var(i), range_var(j)): (i, j)
        for i, dmode in enumerate(domain_modes)
        if dmode == mode
        for j, rmode in enumerate(range_modes)
        if rmode == mode
    }
    orders = implied_orders(constraint, positions)
    return {(positions[pair][0], rel, positions[pair][1]) for pair, rel in orders.items()}


def generate_pairs(
    program: Program,
    pattern: QueryPattern,
    modes: ModeAssignment,
    answers: Optional[AnswerTable] = None,
    *,
    domains: Optional[Domain] = None,
    numeric: bool = True,
    size_table: Optional[Callable[[], MappingType[PredKey, Conjunction]]] = None,
) -> frozenset[QueryMappingPair]:
    """The recurrent pairs: one per reachable abstract query, applicable
    clause, body call, and consistent combination of range element and
    prior answer entries (a step) whose range atom lies in its query's
    strongly connected component of the abstract-query graph, which has
    one arc from each step's query to its range atom.  `domains`
    supplies the finite partition each row is widened into (absent
    predicates get the trivial partition); `answers` abstracts the calls
    before the selected one.  With `numeric` off only norm relations are
    produced: the structural reading the driver gives the tasks its
    gates keep off the ladder.

    The walk starts at one query per element of the pattern's
    partition: every query that matches the pattern lies in exactly one.
    A range atom is an element of its callee's partition, so every
    query's constraint Q is an element too.  Head unification leaves the
    call's values as they are, so a step's domain row lies in Q as well,
    and its domain atom is Q under the clause's domain modes.

    Closing the recurrent pairs instead of every step's pair is exact
    for every closure pair whose range atom lies in its query's
    component, circular pairs included.  A closure pair from q to s is a
    composition along a path of the graph; so if s lies in q's
    component, every middle query on the path is reached from q and
    reaches s, hence q, and lies in that component too.  By induction
    over compositions, the closure of the recurrent pairs is exactly the
    part of the full closure inside components, each composition with
    the same satisfiability check.  The circular pairs, their proofs and
    every report stay the same; only the pair cap sees fewer pairs.

    So relations are derived for the recurrent steps alone: the walk
    follows every step, and the components of their arcs, computed once
    it ends, select them.

    Norm relations relate b positions only, so they are derived only for
    a clause call whose domain row and range row both have one.  The
    size table they come from, `infer_size_relations(program, modes)`,
    is fetched at the first such call: from `size_table` when the caller
    holds it lazily, computed here otherwise, and never for a program
    without such a call.

    Whatever does not depend on a query's constraint is built once per
    predicate and query modes: each applicable clause's domain modes
    and, per call, its range modes, norm relations, range row level and
    step constraints: the head bindings, the guards before the call, one
    satisfiable pick of the answers of the calls before it and its own
    bindings, projected onto the rows by one `eliminate_outside` per
    pick.  Per query, only the range-row walks run, each over a step and
    the query's constraint Q renamed onto the domain row (`row_options`).
    This is exact: Q(d) mentions only kept variables, so projecting with
    it gives the atoms of projecting without it, plus Q(d); the head
    bindings make Q(d) equivalent to the Q(t) of instantiating Q on the
    head terms, and `instantiate_element` would drop no atom, since Q
    mentions only positions the query's modes fill with integers, where
    an applicable clause's head has a variable or an integer; a pick Q
    contradicts fails the walk's first check.  Only integer
    tightening can tell them apart, where substituting head terms raises
    a non-difference atom's gcd; Q(d) is then weaker, which is sound."""
    answers = answers or {}
    domains = domains or {}
    table: Optional[MappingType[PredKey, Conjunction]] = None

    def norm_relations(clause, index, domain_modes, range_modes):
        nonlocal table
        if MODE_BOUND not in domain_modes or MODE_BOUND not in range_modes:
            return set()
        if table is None:
            table = size_table() if size_table else infer_size_relations(program, modes)
        return _relations(
            head_call_sizes(clause, index, table),
            MODE_BOUND,
            domain_modes,
            range_modes,
            head_size_var,
            call_size_var,
        )

    def partition(key: PredKey) -> Sequence[Conjunction]:
        return domains.get(key, (frozenset(),)) if numeric else (frozenset(),)

    @cache
    def row_options(key: PredKey, row: str) -> dict[Conjunction, Conjunction]:
        """Each element of the key's partition mapped to its copy renamed
        onto `row` and `tightened`, like the step constraints it meets,
        built once per call of `generate_pairs`.  Both solver routes
        tighten, so no verdict or relation changes."""
        names = _row_names(key[1], _PREFIX[row])
        return {e: tightened(rename(e, names)) for e in partition(key)}

    @cache
    def skeletons(key: PredKey, query_modes: tuple[str, ...]) -> list[tuple]:
        """The applicable clauses of `key` under `query_modes`, each with
        its domain modes and calls (see the docstring)."""
        out = []
        for clause in program.clauses_for(key):
            if not clause_applicable(clause, query_modes):
                continue
            domain_modes = _theta_modes(query_modes, clause.head.args)
            calls = []
            # One level per call before the selected one: its answer
            # elements instantiated on its arguments.  A call without
            # entries would constrain nothing, so it gets no level; only
            # later calls read them, so the last call gets none either.
            priors: list[Sequence[CallOption]] = []
            # The head bindings, then the guards before each call.
            guards = _value_bindings(domain_modes, clause.head.args, ROW_DOMAIN) if numeric else []
            last_call = max(
                (k for k, lit in enumerate(clause.body) if isinstance(lit, UserAtom)),
                default=-1,
            )
            for index, literal in enumerate(clause.body):
                if not isinstance(literal, UserAtom):
                    if numeric:
                        guards.extend(literal_atoms(literal))
                    continue
                range_modes = effective_call_modes(literal.key, modes)
                # Term sizes implied by the clause and the calls before
                # the selected one.
                norms = norm_relations(clause, index, domain_modes, range_modes)
                bindings = _value_bindings(range_modes, literal.args, ROW_RANGE) if numeric else []
                # Row elements and relations mention only the row
                # variables, so the clause's own are eliminated once.
                rows = [
                    *_row_names(key[1], _PREFIX[ROW_DOMAIN]).values(),
                    *_row_names(literal.key[1], _PREFIX[ROW_RANGE]).values(),
                ]
                step_constraints = [
                    eliminate_outside(chosen.union(bindings), rows) if numeric else chosen
                    for _, chosen in satisfiable_choices(conjunction(guards), tuple(priors))
                ]
                row_levels = (tuple(row_options(literal.key, ROW_RANGE).items()),)
                calls.append((literal.key, range_modes, step_constraints, row_levels, norms))
                if index < last_call and (entries := answers.get(literal.key)):
                    priors.append([call_option(e, literal.args) for e in entries])
            out.append((domain_modes, calls))
        return out

    # Position i of the domain and range rows as a value variable.
    row_vars = (partial(_row_var, ROW_DOMAIN), partial(_row_var, ROW_RANGE))
    query_modes = effective_call_modes(pattern.key, modes)
    queue = deque(AbstractQuery(pattern.key, query_modes, e) for e in partition(pattern.key))
    seen = set(queue)
    # (query, domain atom, range atom, norm relations, row constraint)
    steps: list[tuple] = []
    while queue:
        query = queue.popleft()
        on_row = row_options(query.key, ROW_DOMAIN)[query.constraint]
        for domain_modes, calls in skeletons(query.key, query.modes):
            domain_atom = AbstractQuery(query.key, domain_modes, query.constraint)
            for callee, range_modes, step_constraints, row_levels, norms in calls:
                for step in step_constraints:
                    for (r_elem,), full in satisfiable_choices(conjunction(on_row | step), row_levels):
                        range_atom = AbstractQuery(callee, range_modes, r_elem)
                        steps.append((query, domain_atom, range_atom, norms, full))
                        if range_atom not in seen:
                            seen.add(range_atom)
                            queue.append(range_atom)

    arcs: dict[AbstractQuery, set[AbstractQuery]] = {}
    for query, _, range_atom, _, _ in steps:
        arcs.setdefault(query, set()).add(range_atom)
    component = {
        query: members
        for members in strongly_connected_components(arcs)
        for query in members
    }
    pairs: set[QueryMappingPair] = set()
    for query, domain_atom, range_atom, norms, full in steps:
        if range_atom not in component[query]:
            continue
        relations = norms
        if numeric:
            relations = norms | _relations(
                full, MODE_INT, domain_atom.modes, range_atom.modes, *row_vars
            )
        pairs.add(QueryMappingPair(query, Mapping(domain_atom, range_atom, frozenset(relations))))
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# Composition.

_COMPOSE = {
    ("=", "="): "=",
    ("=", ">"): ">",
    (">", "="): ">",
    (">", ">"): ">",
    ("=", "<"): "<",
    ("<", "="): "<",
    ("<", "<"): "<",
}


def _satisfiable_through(first: QueryMappingPair, second: QueryMappingPair) -> bool:
    """Whether the constraints of two chaining pairs are satisfiable
    together through their shared middle row."""
    combined = conjunction(first.mapping.first_block | second.mapping.second_block)
    return is_satisfiable(combined)


def _composition(first: QueryMappingPair, second: QueryMappingPair) -> QueryMappingPair:
    """The identity of `first` followed by `second`: query, rows and the
    relations composed through the middle row, whether or not the
    combined constraints are satisfiable."""
    relations = frozenset(
        (i, _COMPOSE[a, b], j)
        for i, a, m in first.mapping.relations
        for n, b, j in second.mapping.relations
        if m == n and (a, b) in _COMPOSE
    )
    return QueryMappingPair(
        query=first.query,
        mapping=Mapping(
            domain_atom=first.mapping.domain_atom,
            range_atom=second.mapping.range_atom,
            relations=relations,
        ),
    )


def _arc_key(relation: Relation) -> tuple[tuple[str, int], tuple[str, int]]:
    """The relation's two ends as (row, position), the larger end of a
    strict relation first and the domain end of an equality first."""
    i, rel, j = relation
    domain, range_ = (ROW_DOMAIN, i), (ROW_RANGE, j)
    return (range_, domain) if rel == "<" else (domain, range_)


def pair_sort_key(pair: QueryMappingPair, render=render_conjunction) -> tuple:
    """Query, rows as `render_conjunction` (or `render`) writes them, then
    the equalities by position and the strict relations by `_arc_key`."""
    relations = pair.mapping.relations
    return (
        pair.query.key,
        pair.query.modes,
        render(pair.query.constraint),
        pair.mapping.range_atom.key,
        render(pair.mapping.domain_atom.constraint),
        render(pair.mapping.range_atom.constraint),
        tuple(sorted((i, j) for i, rel, j in relations if rel == "=")),
        tuple(sorted(_arc_key(r) for r in relations if r[1] != "=")),
    )


def compose_until_fixpoint(
    pairs: Iterable[QueryMappingPair], cap: int = PAIR_CAP, render=render_conjunction
) -> frozenset[QueryMappingPair]:
    """Closure of the pairs under composition, sorted first with
    `pair_sort_key`.  Raises PairCapExceeded past `cap` pairs.

    A given-pair loop: each pending pair in turn is filed and composed
    only with the pairs filed before it, as the first step and as the
    second, and with itself once.  So every ordered combination of two
    closure pairs is considered exactly once, when the later of the two
    is filed.  A composition's identity needs no solver, so one already
    in the closure is skipped before its constraints are checked; only a
    new one costs a satisfiability check."""
    pending = deque(sorted(pairs, key=partial(pair_sort_key, render=render)))
    closure = set(pending)
    # Filed pairs by their query, where they chain as a second step, and
    # by their range, where they chain as a first step.
    by_query: dict[AbstractQuery, list[QueryMappingPair]] = {}
    by_range: dict[AbstractQuery, list[QueryMappingPair]] = {}

    def extend(first: QueryMappingPair, second: QueryMappingPair) -> None:
        composed = _composition(first, second)
        if composed not in closure and _satisfiable_through(first, second):
            closure.add(composed)
            pending.append(composed)

    while pending:
        pair = pending.popleft()
        by_query.setdefault(pair.query, []).append(pair)
        for second in by_query.get(pair.mapping.range_atom, ()):
            extend(pair, second)
        for first in by_range.get(pair.query, ()):
            extend(first, pair)
        by_range.setdefault(pair.mapping.range_atom, []).append(pair)
        if len(closure) > cap:
            raise PairCapExceeded(
                f"query-mapping closure passed {cap} pairs;"
                " raise the pair cap or simplify the query"
            )
    return frozenset(closure)


# ---------------------------------------------------------------------------
# The termination tests.


def is_circular(pair: QueryMappingPair) -> bool:
    return pair.mapping.range_atom == pair.query


def check_forward_positive_cycle(pair: QueryMappingPair) -> bool:
    """The structural test: some instantiated position reaches itself in
    the range row through at least one norm arc.  Only norm relations
    participate; integer values are not well-founded on their own.

    A walk moves either way along an equality and from the larger end
    of a strict relation to its smaller end."""
    domain_modes = pair.mapping.domain_atom.modes
    range_modes = pair.mapping.range_atom.modes
    moves: dict[tuple[str, int], set[tuple[tuple[str, int], bool]]] = {}
    for i, rel, j in pair.mapping.relations:
        if domain_modes[i] != MODE_BOUND or range_modes[j] != MODE_BOUND:
            continue
        domain, range_ = (ROW_DOMAIN, i), (ROW_RANGE, j)
        if rel != "<":
            moves.setdefault(domain, set()).add((range_, rel == ">"))
        if rel != ">":
            moves.setdefault(range_, set()).add((domain, rel == "<"))
    for position, mode in enumerate(domain_modes):
        if mode != MODE_BOUND:
            continue
        start = ((ROW_DOMAIN, position), False)
        frontier = deque([start])
        visited = {start}
        while frontier:
            node, through_arc = frontier.popleft()
            if node == (ROW_RANGE, position) and through_arc:
                return True
            for nxt, is_arc in moves.get(node, ()):
                state = (nxt, through_arc or is_arc)
                if state not in visited:
                    visited.add(state)
                    frontier.append(state)
    return False


def guess_termination_functions(pair: QueryMappingPair) -> list[LinExpr]:
    """Candidate bounded functions, simplest first, at most
    `CANDIDATE_CAP` of them.  Every inequality in the domain row's
    constraint suggests its slack, and every integer position that is
    provably non-negative suggests itself.

    On a circular pair the range row's constraint is the domain row's,
    so it would suggest the same: a generated pair's domain row carries
    its query's constraint, a composition keeps its first pair's query
    and domain row, and a circular pair's range atom is its query."""
    suggestions: list[LinExpr] = []

    def suggest(expr: LinExpr):
        if expr.variables() and expr not in suggestions:
            suggestions.append(expr)

    domain = pair.mapping.domain_atom.constraint
    for atom in sorted(domain):
        if atom.rel in (LT, LE):
            suggest(-atom.expr)
    for j, mode in enumerate(pair.mapping.domain_atom.modes):
        if mode == MODE_INT:
            expr = LinExpr.var(position_var(j))
            if implies(domain, make_atom(-expr, LE)):
                suggest(expr)
    ordered = sorted(
        suggestions, key=lambda e: (len(e.variables()), render_expr(e))
    )
    return ordered[:CANDIDATE_CAP]


def verify_decrease(pair: QueryMappingPair, function: LinExpr) -> bool:
    """True when the pair's relations and row constraints imply both a
    strict decrease of the function from domain to range and its bound
    0 on the domain."""
    mapping = pair.mapping
    collection = mapping.first_block
    f_domain = substitute(
        function, _row_names(mapping.domain_atom.key[1], _PREFIX[ROW_DOMAIN])
    )
    f_range = substitute(function, _row_names(mapping.range_atom.key[1], _MIDDLE))
    decrease = make_atom(f_range - f_domain, LT)
    bounded = make_atom(-f_domain, LE)
    return implies(collection, decrease) and implies(collection, bounded)


def prove_pair(pair: QueryMappingPair) -> Optional[PairProof]:
    """Evidence for a circular pair: the structural test first, then the
    candidate functions in order.  None when nothing discharges it."""
    if check_forward_positive_cycle(pair):
        return PairProof(method="structural")
    for function in guess_termination_functions(pair):
        if verify_decrease(pair, function):
            return PairProof(method="function", function=function)
    return None


# ---------------------------------------------------------------------------
# Rendering.


def _render_relation(relation: Relation) -> str:
    """The relation as the report writes it: an equality between the
    rows, or a strict one larger end first."""
    (larger, i), (smaller, j) = _arc_key(relation)
    symbol = "=" if relation[1] == "=" else ">"
    return f"{_row_var(larger, i)} {symbol} {_row_var(smaller, j)}"


def render_pair(pair: QueryMappingPair, proof: Optional[PairProof] = None) -> str:
    """The trace form of a pair: rows with modes, relations, constraints
    and, when given, the discharging evidence."""
    query = render_query_pattern(pair.query.key[0], pair.query.modes)
    lines = [f"pair {query} where {render_conjunction(pair.query.constraint)}"]
    for label, row in (
        ("domain", pair.mapping.domain_atom),
        ("range ", pair.mapping.range_atom),
    ):
        cells = " ".join(f"[{j + 1}:{mode}]" for j, mode in enumerate(row.modes))
        lines.append(f"  {label} {cells}  where {render_conjunction(row.constraint)}")
    relations = pair.mapping.relations
    edges = sorted(_render_relation(r) for r in relations if r[1] == "=")
    arcs = sorted(_render_relation(r) for r in relations if r[1] != "=")
    lines.append(f"  edges: {', '.join(edges) if edges else 'none'}")
    lines.append(f"  arcs: {', '.join(arcs) if arcs else 'none'}")
    if proof is not None:
        lines.append(f"  proof: {proof.describe()}")
    return "\n".join(lines)

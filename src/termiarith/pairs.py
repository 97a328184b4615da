"""Query-mapping pairs: the objects termination is argued on.

A pair summarizes one resolution step (or a composition of steps): the
abstraction of a call, the abstraction of that call after head
unification (the domain row), the abstraction of one selected body atom
(the range row), and the relations between the two rows that the step
implies.  Relations are undirected equality edges and directed
strict-decrease arcs; between integer positions they relate values,
between structurally instantiated positions they relate term-size norms.

Pairs are closed under composition, which is finite because rows range
over finite partitions.  A circular pair (range abstraction equal to the
query) is suspicious; each one must be discharged either by the
structural test (a norm decrease along instantiated positions) or by a
bounded linear function of the integer positions that provably shrinks
from domain to range."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Iterable, Mapping as MappingType, Optional, Sequence

from .answers import AnswerTable, answer_choices, instantiate_element
from .constraints import (
    LE,
    LT,
    Conjunction,
    LinAtom,
    LinExpr,
    atom_eq,
    atom_gt,
    conjunction,
    eliminate_outside,
    implies,
    is_satisfiable,
    make_atom,
    rename,
    render_conjunction,
    render_expr,
    sorted_atoms,
    substitute,
)
from .domain import (
    Domain,
    effective_call_modes,
    linear_term,
    literal_atoms,
    position_var,
)
from .modes import ModeAssignment, clause_applicable
from .norms import call_size_var, head_call_sizes, head_size_var, infer_size_relations
from .syntax import (
    IntConst,
    MODE_BOUND,
    MODE_FREE,
    MODE_INT,
    PredKey,
    Program,
    QueryPattern,
    Term,
    UserAtom,
    mode_meet,
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


@dataclass(frozen=True)
class Node:
    """One argument position in a mapping row."""

    position: int
    mode: str
    row: str


@dataclass(frozen=True)
class AbstractQuery:
    """Abstraction of a call: predicate, argument modes, and a
    constraint over its integer positions (arg1, arg2, ...)."""

    key: PredKey
    modes: tuple[str, ...]
    constraint: Conjunction


Relation = tuple[Node, Node]


@dataclass(frozen=True)
class Mapping:
    """Domain and range rows with the relations between them.  An arc
    (a, b) asserts a strict decrease from a to b: value(a) > value(b)
    for integer positions, norm(a) > norm(b) for instantiated ones."""

    domain_atom: AbstractQuery
    range_atom: AbstractQuery
    edges: frozenset[Relation]
    arcs: frozenset[Relation]

    @property
    def domain_nodes(self) -> tuple[Node, ...]:
        return tuple(
            Node(j, mode, ROW_DOMAIN) for j, mode in enumerate(self.domain_atom.modes)
        )

    @property
    def range_nodes(self) -> tuple[Node, ...]:
        return tuple(
            Node(j, mode, ROW_RANGE) for j, mode in enumerate(self.range_atom.modes)
        )

    @property
    def domain_constraint(self) -> Conjunction:
        return self.domain_atom.constraint

    @property
    def range_constraint(self) -> Conjunction:
        return self.range_atom.constraint

    @cached_property
    def chain_blocks(self) -> tuple[Conjunction, Conjunction]:
        """The row constraints and integer relations renamed for a
        composition through the shared middle row m1, m2, ...: as the
        first step (domain on d*, relations and range on m*) and as the
        second step (domain and relations on m*, range on r*).  Built
        once, when the mapping is first composed or checked."""
        domain_arity = self.domain_atom.key[1]
        range_arity = self.range_atom.key[1]
        relations = conjunction(_relation_atoms(self))
        range_middle = {_row_var(ROW_RANGE, j): f"{_MIDDLE}{j + 1}" for j in range(range_arity)}
        domain_middle = {_row_var(ROW_DOMAIN, j): f"{_MIDDLE}{j + 1}" for j in range(domain_arity)}
        as_first = (
            rename(self.domain_constraint, _row_names(domain_arity, _PREFIX[ROW_DOMAIN]))
            | rename(relations, range_middle)
            | rename(self.range_constraint, _row_names(range_arity, _MIDDLE))
        )
        as_second = (
            rename(self.domain_constraint, _row_names(domain_arity, _MIDDLE))
            | rename(relations, domain_middle)
            | rename(self.range_constraint, _row_names(range_arity, _PREFIX[ROW_RANGE]))
        )
        return conjunction(as_first), conjunction(as_second)


@dataclass(frozen=True)
class QueryMappingPair:
    query: AbstractQuery
    mapping: Mapping


@dataclass(frozen=True)
class TerminationFunction:
    """A linear function of one row's integer positions, admissible for
    a pair once the domain constraint implies expr >= lower_bound."""

    expr: LinExpr
    lower_bound: int = 0

    def describe(self) -> str:
        return f"{render_expr(self.expr)} (bound {self.lower_bound})"


@dataclass(frozen=True)
class PairProof:
    """How a circular pair was discharged: 'structural' for the norm
    test, 'function' with the witness otherwise."""

    method: str
    function: Optional[TerminationFunction] = None

    def describe(self) -> str:
        if self.method == "structural":
            return "structural norm decrease"
        return f"decreasing function {self.function.describe()}"


def _row_var(row: str, position: int) -> str:
    return f"{_PREFIX[row]}{position + 1}"


def _row_names(arity: int, prefix: str) -> dict[str, str]:
    """Position variables arg1.. mapped to prefix1.."""
    return {position_var(j): f"{prefix}{j + 1}" for j in range(arity)}


def _node_key(node: Node) -> tuple[str, int]:
    return (node.row, node.position)


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


def _relation_atoms(mapping: Mapping) -> list[LinAtom]:
    """The mapping's integer edges and arcs as constraints over the
    d1../r1.. row variables (norm relations carry no value atoms)."""
    atoms: list[LinAtom] = []
    for relations, relate in ((mapping.edges, atom_eq), (mapping.arcs, atom_gt)):
        for a, b in sorted(relations, key=lambda e: tuple(map(_node_key, e))):
            if a.mode == MODE_INT and b.mode == MODE_INT:
                atoms.append(relate(_row_var(a.row, a.position), _row_var(b.row, b.position)))
    return atoms


# ---------------------------------------------------------------------------
# Generation.


def _value_bindings(modes: Sequence[str], args: Sequence[Term], row: str) -> list[LinAtom]:
    atoms: list[LinAtom] = []
    for j, (mode, arg) in enumerate(zip(modes, args)):
        if mode != MODE_INT:
            continue
        expr = linear_term(arg)
        if expr is not None:
            atoms.append(atom_eq(LinExpr.var(_row_var(row, j)), expr))
    return atoms


def _relations(
    constraint: Conjunction,
    mode: str,
    domain_modes: Sequence[str],
    range_modes: Sequence[str],
    domain_var: Callable[[int], str],
    range_var: Callable[[int], str],
) -> tuple[set[Relation], set[Relation]]:
    """Edges and arcs between the `mode` positions of the two rows that
    the constraint implies, position values being named by `domain_var`
    and `range_var`: values for i positions, term sizes for b ones."""
    edges: set[Relation] = set()
    arcs: set[Relation] = set()
    for i, dmode in enumerate(domain_modes):
        if dmode != mode:
            continue
        dvar = LinExpr.var(domain_var(i))
        dnode = Node(i, dmode, ROW_DOMAIN)
        for j, rmode in enumerate(range_modes):
            if rmode != mode:
                continue
            rvar = LinExpr.var(range_var(j))
            rnode = Node(j, rmode, ROW_RANGE)
            if implies(constraint, atom_eq(dvar, rvar)):
                edges.add((dnode, rnode))
            elif implies(constraint, atom_gt(dvar, rvar)):
                arcs.add((dnode, rnode))
            elif implies(constraint, atom_gt(rvar, dvar)):
                arcs.add((rnode, dnode))
    return edges, arcs


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
    """One pair per reachable abstract query, applicable clause, body
    call, and consistent combination of row elements and prior answer
    entries.  `domains` supplies the finite partition each row is
    widened into (absent predicates get the trivial partition);
    `answers` abstracts the calls before the selected one.  With
    `numeric` off only norm relations are produced, which is the purely
    structural reading used as a first attempt.

    Norm relations relate b positions only, so they are derived only for
    a clause call whose domain row and range row both have one.  The
    size table they come from, `infer_size_relations(program, modes)`,
    is fetched at the first such call: from `size_table` when the caller
    holds it lazily, computed here otherwise, and never for a program
    without such a call."""
    answers = answers or {}
    domains = domains or {}
    table: Optional[MappingType[PredKey, Conjunction]] = None

    def norm_relations(clause, index, domain_modes, range_modes):
        nonlocal table
        if MODE_BOUND not in domain_modes or MODE_BOUND not in range_modes:
            return set(), set()
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

    @cache
    def row_options(key: PredKey, row: str) -> tuple[tuple[Conjunction, Conjunction], ...]:
        """Each element of the key's partition with its copy renamed
        onto `row`, renamed once per call of `generate_pairs`."""
        elements = domains.get(key, (frozenset(),)) if numeric else (frozenset(),)
        names = _row_names(key[1], _PREFIX[row])
        return tuple((e, rename(e, names)) for e in elements)

    initial = AbstractQuery(
        key=pattern.key,
        modes=effective_call_modes(pattern.key, modes),
        constraint=frozenset(),
    )
    pairs: set[QueryMappingPair] = set()
    seen = {initial}
    queue = [initial]
    while queue:
        query = queue.pop(0)
        for clause in program.clauses_for(query.key):
            if not clause_applicable(clause, query.modes):
                continue
            domain_modes = _theta_modes(query.modes, clause.head.args)
            base_atoms: list[LinAtom] = []
            if numeric:
                base_atoms += _value_bindings(domain_modes, clause.head.args, ROW_DOMAIN)
                base_atoms += instantiate_element(query.constraint, clause.head.args)
            base = conjunction(base_atoms)
            # The calls before the selected one, each with its answer
            # elements; a call with none constrains nothing.
            priors: list[tuple[UserAtom, Sequence[Conjunction]]] = []
            guards: list[LinAtom] = []
            for index, literal in enumerate(clause.body):
                if not isinstance(literal, UserAtom):
                    if numeric:
                        guards.extend(literal_atoms(literal))
                    continue
                range_modes = effective_call_modes(literal.key, modes)
                # Term sizes implied by the clause and the calls before
                # the selected one.
                norm_edges, norm_arcs = norm_relations(clause, index, domain_modes, range_modes)
                prefix = conjunction(base | frozenset(guards)) if numeric else base
                bindings = (
                    _value_bindings(range_modes, literal.args, ROW_RANGE)
                    if numeric
                    else []
                )
                # Row elements and relations mention only the row
                # variables, so the clause's own are eliminated once.
                rows = [
                    *_row_names(query.key[1], _PREFIX[ROW_DOMAIN]).values(),
                    *_row_names(literal.key[1], _PREFIX[ROW_RANGE]).values(),
                ]
                for chosen in answer_choices(prefix, priors):
                    grown = conjunction(chosen | frozenset(bindings))
                    if numeric:
                        grown = eliminate_outside(grown, rows)
                    if not is_satisfiable(grown):
                        continue
                    for d_elem, d_row in row_options(query.key, ROW_DOMAIN):
                        with_domain = conjunction(grown | d_row)
                        if not is_satisfiable(with_domain):
                            continue
                        for r_elem, r_row in row_options(literal.key, ROW_RANGE):
                            full = conjunction(with_domain | r_row)
                            if not is_satisfiable(full):
                                continue
                            edges, arcs = set(norm_edges), set(norm_arcs)
                            if numeric:
                                value_edges, value_arcs = _relations(
                                    full,
                                    MODE_INT,
                                    domain_modes,
                                    range_modes,
                                    partial(_row_var, ROW_DOMAIN),
                                    partial(_row_var, ROW_RANGE),
                                )
                                edges |= value_edges
                                arcs |= value_arcs
                            range_atom = AbstractQuery(
                                key=literal.key, modes=range_modes, constraint=r_elem
                            )
                            pairs.add(
                                QueryMappingPair(
                                    query=query,
                                    mapping=Mapping(
                                        domain_atom=AbstractQuery(
                                            key=query.key,
                                            modes=domain_modes,
                                            constraint=d_elem,
                                        ),
                                        range_atom=range_atom,
                                        edges=frozenset(edges),
                                        arcs=frozenset(arcs),
                                    ),
                                )
                            )
                            if range_atom not in seen:
                                seen.add(range_atom)
                                queue.append(range_atom)
                if numeric:
                    entries = answers.get(literal.key)
                    elements = [e.element for e in entries] if entries else [frozenset()]
                    priors.append((literal, elements))
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


def _half_relations(mapping: Mapping, anchor_row: str) -> list[tuple[Node, int, str]]:
    """Relations of the mapping read from the other row toward
    anchor_row: (other node, anchor position, relation of other to
    anchor)."""
    out: list[tuple[Node, int, str]] = []
    for a, b in mapping.edges:
        if a.row == anchor_row:
            out.append((b, a.position, "="))
        else:
            out.append((a, b.position, "="))
    for a, b in mapping.arcs:
        if b.row == anchor_row:
            out.append((a, b.position, ">"))
        else:
            out.append((b, a.position, "<"))
    return out


def _satisfiable_through(first: QueryMappingPair, second: QueryMappingPair) -> bool:
    """Whether the constraints of two chaining pairs are satisfiable
    together through their shared middle row."""
    combined = conjunction(first.mapping.chain_blocks[0] | second.mapping.chain_blocks[1])
    return is_satisfiable(combined)


def compose_pair(
    first: QueryMappingPair, second: QueryMappingPair
) -> Optional[QueryMappingPair]:
    """The pair summarizing `first` followed by `second`, or None when
    they do not chain (range abstraction differs from the query) or the
    combined constraints are unsatisfiable."""
    if first.mapping.range_atom != second.query or not _satisfiable_through(first, second):
        return None
    return _composition(first, second)


def _composition(first: QueryMappingPair, second: QueryMappingPair) -> QueryMappingPair:
    """The identity of `first` followed by `second`: query, rows and the
    relations composed through the middle row, whether or not the
    combined constraints are satisfiable."""
    left = _half_relations(first.mapping, ROW_RANGE)
    right = _half_relations(second.mapping, ROW_DOMAIN)
    edges: set[Relation] = set()
    arcs: set[Relation] = set()
    for dnode, i, rel_a in left:
        if dnode.row != ROW_DOMAIN:
            continue
        for rnode, j, rel_b in right:
            if rnode.row != ROW_RANGE or i != j:
                continue
            composed = _COMPOSE.get((rel_a, _FLIP[rel_b]))
            if composed == "=":
                edges.add((dnode, rnode))
            elif composed == ">":
                arcs.add((dnode, rnode))
            elif composed == "<":
                arcs.add((rnode, dnode))
    return QueryMappingPair(
        query=first.query,
        mapping=Mapping(
            domain_atom=first.mapping.domain_atom,
            range_atom=second.mapping.range_atom,
            edges=frozenset(edges),
            arcs=frozenset(arcs),
        ),
    )


_FLIP = {"=": "=", ">": "<", "<": ">"}


def pair_sort_key(pair: QueryMappingPair) -> tuple:
    return (
        pair.query.key,
        pair.query.modes,
        render_conjunction(pair.query.constraint),
        pair.mapping.range_atom.key,
        render_conjunction(pair.mapping.domain_constraint),
        render_conjunction(pair.mapping.range_constraint),
        tuple(sorted(map(lambda e: tuple(map(_node_key, e)), pair.mapping.edges))),
        tuple(sorted(map(lambda e: tuple(map(_node_key, e)), pair.mapping.arcs))),
    )


def compose_until_fixpoint(
    pairs: Iterable[QueryMappingPair], cap: int = PAIR_CAP
) -> frozenset[QueryMappingPair]:
    """Closure of the pairs under composition.  Raises PairCapExceeded
    past `cap` pairs.

    Each pending pair is composed with every pair it chains with, as the
    first step and as the second.  A composition's identity needs no
    solver, so one already in the closure is skipped before its
    constraints are checked; only a new one costs a satisfiability
    check, and the pairs are added in the same order as by checking
    every composition with `compose_pair`."""
    closure: set[QueryMappingPair] = set()
    # Each pair is filed by its query as a second step and by its range
    # as a first step.
    by_query: dict[AbstractQuery, list[QueryMappingPair]] = {}
    by_range: dict[AbstractQuery, list[QueryMappingPair]] = {}
    pending: list[QueryMappingPair] = []

    def add(pair: QueryMappingPair) -> None:
        closure.add(pair)
        by_query.setdefault(pair.query, []).append(pair)
        by_range.setdefault(pair.mapping.range_atom, []).append(pair)
        pending.append(pair)

    def extend(first: QueryMappingPair, second: QueryMappingPair) -> None:
        composed = _composition(first, second)
        if composed not in closure and _satisfiable_through(first, second):
            add(composed)

    for pair in sorted(pairs, key=pair_sort_key):
        add(pair)
    while pending:
        pair = pending.pop(0)
        for second in list(by_query.get(pair.mapping.range_atom, ())):
            extend(pair, second)
        for first in list(by_range.get(pair.query, ())):
            extend(first, pair)
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
    participate; integer values are not well-founded on their own."""
    moves: dict[Node, set[tuple[Node, bool]]] = {}

    def structural(a: Node, b: Node) -> bool:
        return a.mode == MODE_BOUND and b.mode == MODE_BOUND

    for a, b in pair.mapping.edges:
        if structural(a, b):
            moves.setdefault(a, set()).add((b, False))
            moves.setdefault(b, set()).add((a, False))
    for a, b in pair.mapping.arcs:
        if structural(a, b):
            moves.setdefault(a, set()).add((b, True))
    for start in pair.mapping.domain_nodes:
        if start.mode == MODE_FREE:
            continue
        frontier = [(start, False)]
        visited = {(start, False)}
        while frontier:
            node, through_arc = frontier.pop(0)
            if node.row == ROW_RANGE and node.position == start.position and through_arc:
                return True
            for nxt, is_arc in moves.get(node, ()):
                state = (nxt, through_arc or is_arc)
                if state not in visited:
                    visited.add(state)
                    frontier.append(state)
    return False


def guess_termination_functions(pair: QueryMappingPair) -> list[TerminationFunction]:
    """Candidate bounded functions, simplest first, at most
    `CANDIDATE_CAP` of them.  Every inequality in the row constraints
    suggests its slack, and every integer position that is provably
    non-negative suggests itself."""
    suggestions: list[LinExpr] = []

    def suggest(expr: LinExpr):
        if expr.variables() and expr not in suggestions:
            suggestions.append(expr)

    for constraint in (pair.mapping.domain_constraint, pair.mapping.range_constraint):
        for atom in sorted_atoms(constraint):
            if atom.rel in (LT, LE):
                suggest(-atom.expr)
    domain = pair.mapping.domain_constraint
    for j, mode in enumerate(pair.mapping.domain_atom.modes):
        if mode == MODE_INT:
            expr = LinExpr.var(position_var(j))
            if implies(domain, make_atom(-expr, LE)):
                suggest(expr)
    ordered = sorted(
        suggestions, key=lambda e: (len(e.variables()), render_expr(e))
    )
    return [TerminationFunction(expr=e) for e in ordered[:CANDIDATE_CAP]]


def verify_decrease(pair: QueryMappingPair, function: TerminationFunction) -> bool:
    """True when the pair's relations and row constraints imply both a
    strict decrease of the function from domain to range and its lower
    bound on the domain."""
    mapping = pair.mapping
    collection = mapping.chain_blocks[0]
    f_domain = substitute(
        function.expr, _row_names(mapping.domain_atom.key[1], _PREFIX[ROW_DOMAIN])
    )
    f_range = substitute(function.expr, _row_names(mapping.range_atom.key[1], _MIDDLE))
    decrease = make_atom(f_range - f_domain, LT)
    bounded = make_atom(LinExpr.of(function.lower_bound) - f_domain, LE)
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


def _render_relation(relation: Relation, symbol: str) -> str:
    a, b = relation
    return f"{_row_var(a.row, a.position)} {symbol} {_row_var(b.row, b.position)}"


def render_pair(pair: QueryMappingPair, proof: Optional[PairProof] = None) -> str:
    """The trace form of a pair: rows with modes, relations, constraints
    and, when given, the discharging evidence."""
    name, _ = pair.query.key
    query_modes = ",".join(pair.query.modes)
    lines = [
        f"pair {name}({query_modes}) where {render_conjunction(pair.query.constraint)}"
    ]
    for label, nodes, constraint in (
        ("domain", pair.mapping.domain_nodes, pair.mapping.domain_constraint),
        ("range ", pair.mapping.range_nodes, pair.mapping.range_constraint),
    ):
        cells = " ".join(f"[{n.position + 1}:{n.mode}]" for n in nodes)
        lines.append(f"  {label} {cells}  where {render_conjunction(constraint)}")
    edges = sorted(
        _render_relation(e, "=") for e in pair.mapping.edges
    )
    arcs = sorted(_render_relation(a, ">") for a in pair.mapping.arcs)
    lines.append(f"  edges: {', '.join(edges) if edges else 'none'}")
    lines.append(f"  arcs: {', '.join(arcs) if arcs else 'none'}")
    if proof is not None:
        lines.append(f"  proof: {proof.describe()}")
    return "\n".join(lines)

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
from typing import Iterable, Iterator, Mapping as MappingType, Optional, Sequence

from .answers import AnswerTable, instantiate_element
from .constraints import (
    FALSE,
    LE,
    LT,
    Conjunction,
    LinAtom,
    LinExpr,
    atom_eq,
    atom_gt,
    conjunction,
    implies,
    is_satisfiable,
    make_atom,
    rename,
    rename_expr,
    render_conjunction,
    render_expr,
    sorted_atoms,
)
from .domain import (
    Domain,
    body_constraint_atoms,
    effective_call_modes,
    linear_term,
    position_var,
)
from .modes import ModeAssignment, clause_applicable, mode_meet
from .norms import call_size_var, head_call_sizes, head_size_var, infer_size_relations
from .syntax import (
    Clause,
    Comparison,
    IntConst,
    Is,
    MODE_BOUND,
    MODE_FREE,
    MODE_INT,
    PredKey,
    Program,
    QueryPattern,
    Term,
    UserAtom,
    term_vars,
)

#: Composition closure refuses to grow past this many pairs.
PAIR_CAP = 20_000

#: Termination-function candidates tried per circular pair.
CANDIDATE_CAP = 16

ROW_DOMAIN = "domain"
ROW_RANGE = "range"


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
    return f"{'d' if row == ROW_DOMAIN else 'r'}{position + 1}"


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


def _rename_onto_row(constraint: Conjunction, arity: int, row: str) -> Conjunction:
    mapping = {position_var(j): _row_var(row, j) for j in range(arity)}
    return rename(constraint, mapping)


def _relation_atoms(mapping: Mapping) -> list[LinAtom]:
    """The mapping's integer edges and arcs as constraints over the
    d1../r1.. row variables (norm relations carry no value atoms)."""
    atoms: list[LinAtom] = []
    for a, b in sorted(mapping.edges, key=lambda e: tuple(map(_node_key, e))):
        if a.mode == MODE_INT and b.mode == MODE_INT:
            atoms.append(
                atom_eq(
                    LinExpr.var(_row_var(a.row, a.position)),
                    LinExpr.var(_row_var(b.row, b.position)),
                )
            )
    for a, b in sorted(mapping.arcs, key=lambda e: tuple(map(_node_key, e))):
        if a.mode == MODE_INT and b.mode == MODE_INT:
            atoms.append(
                atom_gt(
                    LinExpr.var(_row_var(a.row, a.position)),
                    LinExpr.var(_row_var(b.row, b.position)),
                )
            )
    return atoms


# ---------------------------------------------------------------------------
# Generation.


def _guard_atoms(literal) -> list[LinAtom]:
    clause = Clause(UserAtom("true", ()), (literal,))
    return body_constraint_atoms(clause)


def _answer_options(
    atom: UserAtom, answers: MappingType[PredKey, tuple]
) -> list[list[LinAtom]]:
    entries = answers.get(atom.key)
    if not entries:
        return [[]]
    return [instantiate_element(entry.element, atom.args) for entry in entries]


def _prefix_choices(
    base: Conjunction,
    priors: Sequence[UserAtom],
    answers: MappingType[PredKey, tuple],
) -> Iterator[Conjunction]:
    """The base constraint extended by every consistent choice of answer
    elements for the calls preceding the selected atom."""

    def extend(index: int, conj: Conjunction) -> Iterator[Conjunction]:
        if index == len(priors):
            yield conj
            return
        for atoms in _answer_options(priors[index], answers):
            grown = conjunction(conj | frozenset(atoms))
            if FALSE in grown or not is_satisfiable(grown):
                continue
            yield from extend(index + 1, grown)

    if FALSE in base or not is_satisfiable(base):
        return
    yield from extend(0, base)


def _value_bindings(modes: Sequence[str], args: Sequence[Term], row: str) -> list[LinAtom]:
    atoms: list[LinAtom] = []
    for j, (mode, arg) in enumerate(zip(modes, args)):
        if mode != MODE_INT:
            continue
        expr = linear_term(arg)
        if expr is not None:
            atoms.append(atom_eq(LinExpr.var(_row_var(row, j)), expr))
    return atoms


def _numeric_relations(
    constraint: Conjunction,
    domain_modes: Sequence[str],
    range_modes: Sequence[str],
) -> tuple[set[Relation], set[Relation]]:
    edges: set[Relation] = set()
    arcs: set[Relation] = set()
    for i, dmode in enumerate(domain_modes):
        if dmode != MODE_INT:
            continue
        dvar = LinExpr.var(_row_var(ROW_DOMAIN, i))
        dnode = Node(i, dmode, ROW_DOMAIN)
        for j, rmode in enumerate(range_modes):
            if rmode != MODE_INT:
                continue
            rvar = LinExpr.var(_row_var(ROW_RANGE, j))
            rnode = Node(j, rmode, ROW_RANGE)
            if implies(constraint, atom_eq(dvar, rvar)):
                edges.add((dnode, rnode))
            elif implies(constraint, atom_gt(dvar, rvar)):
                arcs.add((dnode, rnode))
            elif implies(constraint, atom_gt(rvar, dvar)):
                arcs.add((rnode, dnode))
    return edges, arcs


def _norm_relations(
    clause: Clause,
    call_index: int,
    size_table,
    domain_modes: Sequence[str],
    range_modes: Sequence[str],
) -> tuple[set[Relation], set[Relation]]:
    """Term-size edges and arcs between instantiated positions, using
    the sizes implied by the clause and the calls before the selected
    one."""
    sizes = head_call_sizes(clause, call_index, size_table)
    edges: set[Relation] = set()
    arcs: set[Relation] = set()
    for i, dmode in enumerate(domain_modes):
        if dmode == MODE_FREE:
            continue
        hvar = LinExpr.var(head_size_var(i))
        dnode = Node(i, dmode, ROW_DOMAIN)
        for j, rmode in enumerate(range_modes):
            if rmode == MODE_FREE:
                continue
            cvar = LinExpr.var(call_size_var(j))
            rnode = Node(j, rmode, ROW_RANGE)
            if dmode == MODE_BOUND and rmode == MODE_BOUND:
                if implies(sizes, atom_eq(hvar, cvar)):
                    edges.add((dnode, rnode))
                elif implies(sizes, atom_gt(hvar, cvar)):
                    arcs.add((dnode, rnode))
                elif implies(sizes, atom_gt(cvar, hvar)):
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
    size_table: Optional[MappingType[PredKey, Conjunction]] = None,
) -> frozenset[QueryMappingPair]:
    """One pair per reachable abstract query, applicable clause, body
    call, and consistent combination of row elements and prior answer
    entries.  `domains` supplies the finite partition each row is
    widened into (absent predicates get the trivial partition);
    `answers` abstracts the calls before the selected one; `size_table`
    is `infer_size_relations(program, modes)`, computed here when the
    caller does not hold it.  With `numeric` off only norm relations are
    produced, which is the purely structural reading used as a first
    attempt."""
    answers = answers or {}
    domains = domains or {}
    if size_table is None:
        size_table = infer_size_relations(program, modes)

    def row_options(key: PredKey, row: str) -> list[tuple[Conjunction, Conjunction]]:
        elements = domains.get(key, (frozenset(),)) if numeric else (frozenset(),)
        return [(e, _rename_onto_row(e, key[1], row)) for e in elements]

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
            priors: list[UserAtom] = []
            guards: list[LinAtom] = []
            for index, literal in enumerate(clause.body):
                if not isinstance(literal, UserAtom):
                    if numeric and isinstance(literal, (Is, Comparison)):
                        guards.extend(_guard_atoms(literal))
                    continue
                range_modes = effective_call_modes(literal.key, modes)
                norm_edges, norm_arcs = _norm_relations(
                    clause, index, size_table, domain_modes, range_modes
                )
                prefix = conjunction(base | frozenset(guards)) if numeric else base
                bindings = (
                    _value_bindings(range_modes, literal.args, ROW_RANGE)
                    if numeric
                    else []
                )
                for chosen in _prefix_choices(prefix, priors if numeric else [], answers):
                    grown = conjunction(chosen | frozenset(bindings))
                    if FALSE in grown or not is_satisfiable(grown):
                        continue
                    for d_elem, d_row in row_options(query.key, ROW_DOMAIN):
                        with_domain = conjunction(grown | d_row)
                        if FALSE in with_domain or not is_satisfiable(with_domain):
                            continue
                        for r_elem, r_row in row_options(literal.key, ROW_RANGE):
                            full = conjunction(with_domain | r_row)
                            if FALSE in full or not is_satisfiable(full):
                                continue
                            edges, arcs = set(norm_edges), set(norm_arcs)
                            if numeric:
                                value_edges, value_arcs = _numeric_relations(
                                    full, domain_modes, range_modes
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
                priors.append(literal)
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


def _chain_blocks(mapping: Mapping) -> tuple[Conjunction, Conjunction]:
    """The mapping's row constraints and integer relations renamed for
    a composition through the shared middle row m1, m2, ...: as the
    first step (domain on d*, relations and range on m*) and as the
    second step (domain and relations on m*, range on r*)."""
    domain_arity = mapping.domain_atom.key[1]
    range_arity = mapping.range_atom.key[1]
    relations = conjunction(_relation_atoms(mapping))
    domain_row = _rename_onto_row(mapping.domain_constraint, domain_arity, ROW_DOMAIN)
    range_row = _rename_onto_row(mapping.range_constraint, range_arity, ROW_RANGE)
    range_middle = {_row_var(ROW_RANGE, j): f"m{j + 1}" for j in range(range_arity)}
    domain_middle = {_row_var(ROW_DOMAIN, j): f"m{j + 1}" for j in range(domain_arity)}
    as_first = (
        domain_row | rename(relations, range_middle) | rename(range_row, range_middle)
    )
    as_second = (
        rename(domain_row, domain_middle) | rename(relations, domain_middle) | range_row
    )
    return conjunction(as_first), conjunction(as_second)


def compose_pair(
    first: QueryMappingPair, second: QueryMappingPair
) -> Optional[QueryMappingPair]:
    """The pair summarizing `first` followed by `second`, or None when
    they do not chain (range abstraction differs from the query) or the
    combined constraints are unsatisfiable."""
    if first.mapping.range_atom != second.query:
        return None
    as_first, _ = _chain_blocks(first.mapping)
    _, as_second = _chain_blocks(second.mapping)
    return _compose_blocks(first, as_first, second, as_second)


def _compose_blocks(
    first: QueryMappingPair,
    as_first: Conjunction,
    second: QueryMappingPair,
    as_second: Conjunction,
) -> Optional[QueryMappingPair]:
    """`compose_pair` for chaining pairs, given their `_chain_blocks`."""
    combined = conjunction(as_first | as_second)
    if FALSE in combined or not is_satisfiable(combined):
        return None
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
    past `cap` pairs."""
    closure: set[QueryMappingPair] = set()
    # Each pair is filed with its `_chain_blocks`, built once when the
    # pair joins the closure: by its query as a second step, by its
    # range as a first step, and in `pending` with both.
    by_query: dict[AbstractQuery, list[tuple[QueryMappingPair, Conjunction]]] = {}
    by_range: dict[AbstractQuery, list[tuple[QueryMappingPair, Conjunction]]] = {}
    pending: list[tuple[QueryMappingPair, Conjunction, Conjunction]] = []

    def add(pair: QueryMappingPair) -> None:
        as_first, as_second = _chain_blocks(pair.mapping)
        closure.add(pair)
        by_query.setdefault(pair.query, []).append((pair, as_second))
        by_range.setdefault(pair.mapping.range_atom, []).append((pair, as_first))
        pending.append((pair, as_first, as_second))

    for pair in sorted(pairs, key=pair_sort_key):
        add(pair)
    while pending:
        pair, as_first, as_second = pending.pop(0)
        for second, second_block in list(by_query.get(pair.mapping.range_atom, ())):
            composed = _compose_blocks(pair, as_first, second, second_block)
            if composed is not None and composed not in closure:
                add(composed)
        for first, first_block in list(by_range.get(pair.query, ())):
            composed = _compose_blocks(first, first_block, pair, as_second)
            if composed is not None and composed not in closure:
                add(composed)
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


def guess_termination_functions(
    pair: QueryMappingPair, cap: int = CANDIDATE_CAP
) -> list[TerminationFunction]:
    """Candidate bounded functions, simplest first.  Every inequality in
    the row constraints suggests its slack, and every integer position
    that is provably non-negative suggests itself."""
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
    return [TerminationFunction(expr=e) for e in ordered[:cap]]


def verify_decrease(pair: QueryMappingPair, function: TerminationFunction) -> bool:
    """True when the pair's relations and row constraints imply both a
    strict decrease of the function from domain to range and its lower
    bound on the domain."""
    domain_arity = pair.mapping.domain_atom.key[1]
    range_arity = pair.mapping.range_atom.key[1]
    v = {position_var(j): f"v{j + 1}" for j in range(domain_arity)}
    u = {position_var(j): f"u{j + 1}" for j in range(range_arity)}
    rows = {_row_var(ROW_DOMAIN, j): f"v{j + 1}" for j in range(domain_arity)}
    rows.update({_row_var(ROW_RANGE, j): f"u{j + 1}" for j in range(range_arity)})
    constraints = list(rename(pair.mapping.domain_constraint, v))
    constraints += list(rename(pair.mapping.range_constraint, u))
    constraints += list(rename(conjunction(_relation_atoms(pair.mapping)), rows))
    collection = conjunction(constraints)
    f_domain = rename_expr(function.expr, v)
    f_range = rename_expr(function.expr, u)
    decrease = make_atom(f_range - f_domain, LT)
    bounded = make_atom(LinExpr.of(function.lower_bound) - f_domain, LE)
    return implies(collection, decrease) and implies(collection, bounded)


def prove_pair(
    pair: QueryMappingPair, candidate_cap: int = CANDIDATE_CAP
) -> Optional[PairProof]:
    """Evidence for a circular pair: the structural test first, then the
    candidate functions in order.  None when nothing discharges it."""
    if check_forward_positive_cycle(pair):
        return PairProof(method="structural")
    for function in guess_termination_functions(pair, cap=candidate_cap):
        if verify_decrease(pair, function):
            return PairProof(method="function", function=function)
    return None


# ---------------------------------------------------------------------------
# Rendering.


def _render_relation(relation: Relation, symbol: str) -> str:
    a, b = relation
    tag = {ROW_DOMAIN: "d", ROW_RANGE: "r"}
    return f"{tag[a.row]}{a.position + 1} {symbol} {tag[b.row]}{b.position + 1}"


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

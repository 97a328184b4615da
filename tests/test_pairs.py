"""Query-mapping pair tests: generation over the corpus, the
composition algebra, the structural cycle test, and function-based
decrease proofs."""

import operator
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_program
from helpers import closure_reference, compose_pair, driver_calls
from test_acceptance import CORPUS

from termiarith import constraints, driver, pairs
from termiarith.answers import build_answer_domain, call_option, compute_abstract_answers
from termiarith.constraints import (
    EQ,
    LE,
    LT,
    LinExpr,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    implies,
    make_atom,
    rename,
    render_expr,
)
from termiarith.domain import (
    build_domain,
    collect_comparisons,
    infer_comparisons,
    unfold_once,
)
from termiarith.graph import find_integer_loops, reachable_from
from termiarith.modes import infer_argument_modes
from termiarith.pairs import (
    ROW_DOMAIN,
    ROW_RANGE,
    AbstractQuery,
    Mapping,
    PairCapExceeded,
    QueryMappingPair,
    check_forward_positive_cycle,
    compose_until_fixpoint,
    generate_pairs,
    guess_termination_functions,
    is_circular,
    pair_sort_key,
    prove_pair,
    render_pair,
    verify_decrease,
)
from termiarith.syntax import (
    MODE_BOUND,
    MODE_INT,
    UserAtom,
    normalize_program,
    parse_program,
    parse_query_pattern,
)

A1 = LinExpr.var("arg1")
A2 = LinExpr.var("arg2")
A3 = LinExpr.var("arg3")


def pipeline(
    source,
    query,
    *,
    infer=False,
    unfold=None,
    answers=False,
    numeric=True,
    inline=False,
):
    if inline:
        program = normalize_program(parse_program(source))
    else:
        program = corpus_program(source)
    if unfold is not None:
        program = unfold_once(program, *unfold)
    pattern = parse_query_pattern(query)
    modes = infer_argument_modes(program, pattern)
    loops = find_integer_loops(program, pattern, modes)
    domains = {}
    answer_domains = []
    for loop in loops:
        comparisons = None if infer else collect_comparisons(loop, modes)
        if comparisons is None:
            comparisons = infer_comparisons(loop, modes)
        domains.update(build_domain(comparisons))
        if answers:
            answer_domains.append(build_answer_domain(loop, modes))
    table = (
        compute_abstract_answers(loops, modes, answer_domains) if answers else None
    )
    base = generate_pairs(
        program,
        pattern,
        modes,
        table,
        domains=domains if numeric else None,
        numeric=numeric,
    )
    return compose_until_fixpoint(base), base


def every_step(monkeypatch):
    """Make `generate_pairs` keep every step's pair, as if each step lay
    on a cycle of the abstract-query graph: the base the recurrent pairs
    are selected from."""
    monkeypatch.setattr(pairs, "_may_recur", lambda *step: True)
    monkeypatch.setattr(
        pairs,
        "strongly_connected_components",
        lambda arcs: (frozenset(arcs).union(*arcs.values()),),
    )


def circular(closure):
    return sorted((p for p in closure if is_circular(p)), key=pair_sort_key)


def constraint_of(pair):
    return pair.query.constraint


def arc_positions(pair):
    """Strict relations as ((row, position) of the larger end,
    (row, position) of the smaller end)."""
    arcs = set()
    for i, rel, j in pair.mapping.relations:
        if rel == ">":
            arcs.add(((ROW_DOMAIN, i), (ROW_RANGE, j)))
        elif rel == "<":
            arcs.add(((ROW_RANGE, j), (ROW_DOMAIN, i)))
    return arcs


def edge_positions(pair):
    return {
        ((ROW_DOMAIN, i), (ROW_RANGE, j))
        for i, rel, j in pair.mapping.relations
        if rel == "="
    }


D1, D2 = ("domain", 0), ("domain", 1)
R1, R2 = ("range", 0), ("range", 1)
D3, R3 = ("domain", 2), ("range", 2)


def atom_set(*atoms):
    return frozenset(atoms)


class TestGeneration:
    def test_initial_query_has_no_constraint(self, monkeypatch):
        # r's partition has no empty element, so the constraint-free
        # initial query is no range atom: it starts pairs, but no
        # recurrent one.  Those all start at arg1 > 0.
        closure, base = pipeline("r", "r(i)")
        assert base and all(p.query.constraint == frozenset({_gt(A1)}) for p in base)
        every_step(monkeypatch)
        _, every = pipeline("r", "r(i)")
        assert any(p.query.constraint == frozenset() for p in every)
        assert all(
            p.query.constraint in (frozenset(), frozenset({_gt(A1)})) for p in every
        )

    def test_unsatisfiable_guard_generates_nothing(self):
        closure, base = pipeline("t", "t(i)")
        assert base == frozenset()
        assert closure == frozenset()

    def test_corpus_pair_counts(self, monkeypatch):
        # Recurrent base and closure, then with every step's pair kept.
        table = [
            ("r", "r(i)", {}, 1, 1, 4, 4),
            ("p_int", "p(i)", {}, 1, 1, 4, 4),
            ("mod", "mod(i,i,f)", {}, 1, 1, 4, 6),
            ("p_difficult", "p(i,i)", {}, 4, 7, 16, 34),
            ("q_mixed", "q(b,b,i)", {}, 3, 3, 8, 12),
            ("gcd", "gcd(i,i,f)", {}, 2, 3, 16, 62),
            ("gcd", "gcd(i,i,f)", {"answers": True}, 3, 5, 16, 51),
        ]
        for name, query, kwargs, *counts in table:
            closure, base = pipeline(name, query, **kwargs)
            with monkeypatch.context() as patched:
                every_step(patched)
                every_closure, every = pipeline(name, query, **kwargs)
            assert [len(base), len(closure), len(every), len(every_closure)] == counts, name

    def test_head_constants_strengthen_domain_modes(self):
        closure, base = pipeline(
            "w(X, 3) :- w(X, X).", "w(b,b)", inline=True, numeric=False
        )
        assert base
        for pair in base:
            assert pair.mapping.domain_atom.modes == (MODE_BOUND, MODE_INT)

    def test_range_modes_follow_the_callee(self):
        closure, _ = pipeline("gcd", "gcd(i,i,f)")
        mod_ranges = {
            p.mapping.range_atom.modes
            for p in closure
            if p.mapping.range_atom.key == ("mod", 3)
        }
        assert mod_ranges == {(MODE_INT, MODE_INT, "f")}

    def test_each_partition_is_renamed_once_per_row(self, monkeypatch):
        program = corpus_program("gcd")
        pattern = parse_query_pattern("gcd(i,i,f)")
        modes = infer_argument_modes(program, pattern)
        domains = {}
        for loop in find_integer_loops(program, pattern, modes):
            domains.update(build_domain(infer_comparisons(loop, modes)))
        renamed = []

        def recording(conj, mapping):
            renamed.append((conj, tuple(sorted(mapping.items()))))
            return rename(conj, mapping)

        monkeypatch.setattr(pairs, "rename", recording)
        generate_pairs(program, pattern, modes, domains=domains)
        # Every element of gcd's and mod's partitions, once onto the
        # domain row and once onto the range row.
        assert len(renamed) == len(set(renamed))
        assert len(renamed) == 2 * sum(len(elements) for elements in domains.values())

    @pytest.mark.parametrize(
        "name,query,steps",
        [
            ("r", "r(i)", [1]),
            # gcd's calls of mod and gcd, and mod's own call; with
            # answers, gcd's call reads two entries of mod's table.
            ("gcd", "gcd(i,i,f)", [3, 4]),
            # mc91's two calls; with answers, the second reads both
            # entries of the first's table.
            ("mc91", "mc_carthy_91(i,f)", [2, 3]),
        ],
    )
    def test_each_step_is_projected_once(self, monkeypatch, name, query, steps):
        # Over every attempt of the task: one elimination per clause
        # call and satisfiable pick of prior answer entries, made once
        # per `generate_pairs` call, not once per abstract query.
        eliminated = []
        eliminate = pairs.eliminate_outside
        generate = driver.generate_pairs

        def recording(conj, keep):
            eliminated[-1].append((conj, tuple(keep)))
            return eliminate(conj, keep)

        def counting(*args, **kwargs):
            eliminated.append([])
            return generate(*args, **kwargs)

        monkeypatch.setattr(pairs, "eliminate_outside", recording)
        monkeypatch.setattr(driver, "generate_pairs", counting)
        driver.analyse_termination(corpus_program(name), parse_query_pattern(query))
        assert [len(calls) for calls in eliminated] == steps
        assert all(len(set(calls)) == len(calls) for calls in eliminated)

    def test_projections_do_not_grow_with_the_queries(self, monkeypatch):
        # gcd under the trivial partition reaches one query per
        # predicate, under its inferred partition many more; both make
        # the same three eliminations.
        program = corpus_program("gcd")
        pattern = parse_query_pattern("gcd(i,i,f)")
        modes = infer_argument_modes(program, pattern)
        domains = {}
        for loop in find_integer_loops(program, pattern, modes):
            domains.update(build_domain(infer_comparisons(loop, modes)))
        eliminate, may_recur = pairs.eliminate_outside, pairs._may_recur
        counts = []
        for partition in ({}, domains):
            eliminated, queries = [], set()

            def recording(conj, keep):
                eliminated.append(conj)
                return eliminate(conj, keep)

            def reached(query, *rest):
                queries.add(query)
                return may_recur(query, *rest)

            monkeypatch.setattr(pairs, "eliminate_outside", recording)
            monkeypatch.setattr(pairs, "_may_recur", reached)
            generate_pairs(program, pattern, modes, domains=partition)
            counts.append((len(eliminated), len(queries)))
        (trivial_steps, trivial_queries), (inferred_steps, inferred_queries) = counts
        assert trivial_steps == inferred_steps == 3
        assert trivial_queries == 2 < inferred_queries

    def test_integer_reasoning_prunes_value_ranges(self):
        # r counts down from a positive integer, so the recursive call
        # can never carry a negative argument.
        closure, _ = pipeline("r", "r(i)")
        negative = frozenset({_lt(A1)})
        assert all(p.mapping.range_atom.constraint != negative for p in closure)


    def test_answer_priors_are_built_only_before_a_later_call(self, monkeypatch):
        # Only the calls after a call read its answer options, so gcd's
        # clauses build them for mod(X, Y, U) alone, which gcd(Y, U, Z)
        # follows; neither last call builds any.
        built = set()

        def recording(element, args):
            built.add(tuple(args))
            return call_option(element, args)

        monkeypatch.setattr(pairs, "call_option", recording)
        closure, base = pipeline("gcd", "gcd(i,i,f)", answers=True)
        assert (len(base), len(closure)) == (3, 5)
        earlier = {
            tuple(lit.args)
            for clause in corpus_program("gcd").clauses
            for lit in clause.body[:-1]
            if isinstance(lit, UserAtom)
        }
        assert len(earlier) == 1 and built == earlier


def _implied_relations(context, mode, domain_modes, range_modes):
    """`pairs._relations` as one `implies` check per relation tried."""
    found = set()
    for i, dmode in enumerate(domain_modes):
        for j, rmode in enumerate(range_modes):
            if dmode == rmode == mode:
                d, r = f"d{i + 1}", f"r{j + 1}"
                for rel, relate in (("=", atom_eq), (">", atom_gt), ("<", atom_lt)):
                    if implies(context, relate(d, r)):
                        found.add((i, rel, j))
                        break
    return found


def _row_relations(context, domain_modes, range_modes, mode=MODE_INT):
    return pairs._relations(
        context, mode, domain_modes, range_modes, lambda i: f"d{i + 1}", lambda j: f"r{j + 1}"
    )


_row_positions = st.sampled_from(["d1", "d2", "d3", "r1", "r2", "r3"])
_row_modes = st.tuples(*[st.sampled_from([MODE_INT, MODE_BOUND])] * 3)


@st.composite
def _difference_contexts(draw):
    """Difference atoms over the row variables, constants in -8..8."""
    atoms = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        x, y = draw(_row_positions), draw(st.one_of(st.none(), _row_positions))
        sign = draw(st.sampled_from([1, -1]))
        coeffs = {x: sign} if y in (None, x) else {x: sign, y: -sign}
        const = draw(st.integers(min_value=-8, max_value=8))
        atoms.append(make_atom(LinExpr.build(coeffs, const), draw(st.sampled_from([LT, LE, EQ]))))
    return frozenset(atoms)


#: gcd's recursive clause selecting gcd(Y, U, Z): d1 = d2 + r1 comes
#: from mod's answer, and is not a difference atom.
_GCD_CONTEXT = frozenset(
    {
        atom_le("d2", "d1"),
        atom_eq("d1", LinExpr.var("d2") + "r1"),
        atom_gt("d2", 0),
        atom_ge("d2", 1),
        atom_eq("d2", "r2"),
        atom_le("r2", "r1"),
        atom_gt("r2", 0),
    }
)


class TestRelations:
    @settings(deadline=None)
    @given(_difference_contexts(), _row_modes, _row_modes)
    @example(frozenset({atom_lt("d1", "r1"), atom_lt("r1", "d1")}), (MODE_INT,) * 3, (MODE_INT,) * 3)
    @example(frozenset({atom_le("d1", "r2"), atom_lt("r2", "d2"), atom_eq("d2", "d1")}), (MODE_INT,) * 3, (MODE_INT,) * 3)
    def test_closure_matches_implication(self, context, domain_modes, range_modes):
        for mode in (MODE_INT, MODE_BOUND):
            got = _row_relations(context, domain_modes, range_modes, mode)
            assert got == _implied_relations(context, mode, domain_modes, range_modes)

    def test_difference_context_takes_no_implication(self, monkeypatch):
        calls = []
        monkeypatch.setattr(constraints, "implies", lambda *args: calls.append(args) or implies(*args))
        context = _GCD_CONTEXT - {atom_eq("d1", LinExpr.var("d2") + "r1")}
        modes = (MODE_INT, MODE_INT, "f")
        assert _row_relations(context, modes, modes) == {(1, "=", 1)}
        assert calls == []

    def test_gcd_context_takes_the_implication_loop(self, monkeypatch):
        calls = []
        monkeypatch.setattr(constraints, "implies", lambda *args: calls.append(args) or implies(*args))
        modes = (MODE_INT, MODE_INT, "f")
        assert _row_relations(_GCD_CONTEXT, modes, modes) == {
            (0, ">", 0),
            (0, ">", 1),
            (1, "=", 1),
        }
        assert calls and all(context == _GCD_CONTEXT for context, _ in calls)

    def test_unreached_negative_cycle_relates_everything(self):
        # A search from the row positions never meets the cycle between
        # X and Y, so the satisfiability check must come first.
        context = frozenset({atom_lt("X", "Y"), atom_lt("Y", "X")})
        assert _row_relations(context, (MODE_INT,), (MODE_INT,)) == {(0, "=", 0)}


def _gt(expr):
    return atom_gt(expr, 0)


def _lt(expr):
    return atom_lt(expr, 0)


def _single_query(constraint=frozenset()):
    return AbstractQuery(key=("z", 1), modes=(MODE_INT,), constraint=constraint)


def _single_pair(relation):
    """One-position pair whose only relation between domain and range is
    `relation`: '=', '>' (domain bigger) or '<' (range bigger)."""
    q = _single_query()
    return QueryMappingPair(
        query=q,
        mapping=Mapping(domain_atom=q, range_atom=q, relations=frozenset({(0, relation, 0)})),
    )


_HOLDS = {"=": operator.eq, ">": operator.gt, "<": operator.lt}


def _int_row(values):
    return AbstractQuery(
        key=("z", len(values)), modes=(MODE_INT,) * len(values), constraint=frozenset()
    )


@st.composite
def _true_relations(draw, left, right):
    """A random subset of the relations that hold between two integer rows."""
    holding = [
        (i, rel, j)
        for i, a in enumerate(left)
        for j, b in enumerate(right)
        for rel, holds in _HOLDS.items()
        if holds(a, b)
    ]
    return frozenset(draw(st.lists(st.sampled_from(holding), unique=True)))


_ROW = st.lists(st.integers(-3, 3), min_size=1, max_size=3)


class TestComposition:
    def test_relation_chaining(self):
        expected = {
            ("=", "="): "=",
            ("=", ">"): ">",
            (">", "="): ">",
            (">", ">"): ">",
            ("=", "<"): "<",
            ("<", "="): "<",
            ("<", "<"): "<",
            (">", "<"): None,
            ("<", ">"): None,
        }
        for (ra, rb), rel in expected.items():
            got = compose_pair(_single_pair(ra), _single_pair(rb))
            assert got is not None
            composed = frozenset({(0, rel, 0)}) if rel else frozenset()
            assert got.mapping.relations == composed, (ra, rb)

    @settings(deadline=None)
    @given(st.data(), _ROW, _ROW, _ROW)
    def test_composed_relations_hold_between_the_outer_rows(self, data, d, m, r):
        def step(left, right):
            relations = data.draw(_true_relations(left, right))
            return QueryMappingPair(
                query=_int_row(left),
                mapping=Mapping(_int_row(left), _int_row(right), relations),
            )

        composed = pairs._composition(step(d, m), step(m, r))
        for i, rel, j in composed.mapping.relations:
            assert _HOLDS[rel](d[i], r[j]), (i, rel, j)

    def test_mismatched_interface_does_not_chain(self):
        p = _single_pair("=")
        other_query = _single_query(frozenset({_gt(A1)}))
        q = QueryMappingPair(
            query=other_query,
            mapping=Mapping(
                domain_atom=other_query,
                range_atom=other_query,
                relations=frozenset(),
            ),
        )
        assert compose_pair(p, q) is None

    def test_contradictory_interface_is_dropped(self):
        positive = _single_query(frozenset({_gt(A1)}))
        negative = _single_query(frozenset({_lt(A1)}))
        first = QueryMappingPair(
            query=positive,
            mapping=Mapping(
                domain_atom=positive,
                range_atom=positive,
                relations=frozenset(),
            ),
        )
        second = QueryMappingPair(
            query=positive,
            mapping=Mapping(
                domain_atom=negative,
                range_atom=negative,
                relations=frozenset(),
            ),
        )
        # The shared interface forces arg1 > 0 and arg1 < 0 on the same
        # middle row.
        assert compose_pair(first, second) is None

    def test_closure_is_closed(self):
        closure, _ = pipeline("p_difficult", "p(i,i)")
        for first in closure:
            for second in closure:
                composed = compose_pair(first, second)
                assert composed is None or composed in closure

    def test_fixpoint_is_idempotent(self):
        closure, _ = pipeline("mod", "mod(i,i,f)")
        assert compose_until_fixpoint(closure) == closure

    def test_cap_is_enforced(self):
        # gcd's recurrent pairs with answers close to 5 pairs.
        _, base = pipeline("gcd", "gcd(i,i,f)", answers=True)
        assert len(compose_until_fixpoint(base, cap=5)) == 5
        with pytest.raises(PairCapExceeded):
            compose_until_fixpoint(base, cap=4)


def nest_source(depth):
    """`depth` counting loops, each calling the next on every step."""
    lines = []
    for i in range(1, depth + 1):
        inner = f"l{i + 1}(Y), " if i < depth else ""
        lines.append(f"l{i}(X) :- X =< 0.")
        lines.append(f"l{i}(X) :- X > 0, Y is X - 1, {inner}l{i}(Y).")
    return "\n".join(lines) + "\n"


RUNG_TASKS = [
    (corpus_program("gcd"), "gcd(i,i,f)"),
    (corpus_program("mc91"), "mc_carthy_91(i,f)"),
    (normalize_program(parse_program(nest_source(6))), "l1(i)"),
]


def closed_bases(monkeypatch, program, query):
    """Every base the driver closes, in order: one structural base for a
    task the gates keep off the ladder, one per numeric attempt the
    driver makes for any other."""
    calls = driver_calls(
        monkeypatch, "compose_until_fixpoint", program, parse_query_pattern(query)
    )
    return [base for base, in calls]


class TestClosureReference:
    """The closure of each numeric rung equals the brute-force fixpoint,
    and the solver is asked only about compositions not yet in it."""

    @pytest.mark.parametrize("program,query", RUNG_TASKS, ids=["gcd", "mc91", "nest-6"])
    def test_closure_matches_brute_force(self, monkeypatch, program, query):
        bases = closed_bases(monkeypatch, program, query)
        assert bases
        for base in bases:
            assert compose_until_fixpoint(base) == closure_reference(base)

    @pytest.mark.parametrize("program,query", RUNG_TASKS, ids=["gcd", "mc91", "nest-6"])
    def test_solver_checks_only_new_compositions(self, monkeypatch, program, query):
        bases = closed_bases(monkeypatch, program, query)
        verdicts = []

        def recorded(conj):
            verdicts.append(is_satisfiable(conj))
            return verdicts[-1]

        is_satisfiable = pairs.is_satisfiable
        monkeypatch.setattr(pairs, "is_satisfiable", recorded)
        for base in bases:
            verdicts.clear()
            closure = compose_until_fixpoint(base)
            # every satisfiable check adds one pair, every other pair
            # is a base pair
            assert verdicts.count(True) == len(closure) - len(base)
            # a closed set is only asked about its unsatisfiable
            # compositions
            verdicts.clear()
            assert compose_until_fixpoint(closure) == closure
            assert True not in verdicts


    def test_no_combination_is_checked_twice(self, monkeypatch):
        # Each numeric rung's closure of gcd and of mc91, one record of
        # checked (first, second) combinations per closure.
        bases = [
            base
            for program, query in RUNG_TASKS[:2]
            for base in closed_bases(monkeypatch, program, query)
        ]
        checked = []

        def recorded(first, second):
            checked[-1].append((first, second))
            return satisfiable_through(first, second)

        satisfiable_through = pairs._satisfiable_through
        monkeypatch.setattr(pairs, "_satisfiable_through", recorded)
        for base in bases:
            checked.append([])
            compose_until_fixpoint(base)
        assert any(checked)
        assert [len(set(combinations)) for combinations in checked] == list(map(len, checked))


def generated_bases(monkeypatch, program, query):
    """Each base the driver closes (`closed_bases`) after the base of
    every step's pair (`every_step`) the driver closes in its place, as
    (every, recurrent) pairs.  Asserts a base for every task with a
    loop."""
    with monkeypatch.context() as patched:
        every_step(patched)
        every = closed_bases(patched, program, query)
    recurrent = closed_bases(monkeypatch, program, query)
    pattern = parse_query_pattern(query)
    assert recurrent or not find_integer_loops(
        program, pattern, infer_argument_modes(program, pattern)
    )
    assert len(every) == len(recurrent)
    return list(zip(every, recurrent))


def on_cycles(closure, base):
    """The pairs of `closure` whose range atom leads back to their query
    along the arcs of `base`, one arc from each pair's query to its
    range atom."""
    arcs = {}
    for pair in base:
        arcs.setdefault(pair.query, set()).add(pair.mapping.range_atom)
    return frozenset(
        p for p in closure if p.query in reachable_from(arcs, [p.mapping.range_atom])
    )


EXACTNESS_TASKS = [(corpus_program(name), query) for name, query, _ in CORPUS] + RUNG_TASKS


def _row_query(key, constraint=frozenset()):
    return AbstractQuery(key=key, modes=(MODE_INT,), constraint=constraint)


class TestRecurrentPairs:
    """Closing the recurrent pairs alone gives exactly the part of the
    full closure that lies on cycles, circular pairs included."""

    @pytest.mark.parametrize(
        "program,query",
        EXACTNESS_TASKS,
        ids=[f"{name}-{query}" for name, query, _ in CORPUS] + ["gcd", "mc91", "nest-6"],
    )
    def test_recurrent_closure_is_the_cyclic_part(self, monkeypatch, program, query):
        for every, base in generated_bases(monkeypatch, program, query):
            assert base == on_cycles(every, every)
            full = compose_until_fixpoint(every)
            recurrent = compose_until_fixpoint(base)
            assert recurrent == on_cycles(full, every)
            assert set(filter(is_circular, recurrent)) == set(filter(is_circular, full))

    def test_numeric_bases_are_checked(self, monkeypatch):
        # The gates send loop, s, ex2_p and ex2_q to the structural
        # attempt alone; every base of the other tasks is numeric.
        gated = ("loop", "s", "ex2_p", "ex2_q")
        ladder = [(corpus_program(n), query) for n, query, _ in CORPUS if n not in gated]
        bases = [
            pair
            for program, query in ladder + RUNG_TASKS
            for pair in generated_bases(monkeypatch, program, query)
        ]
        assert len(bases) >= 10
        assert any(every != base for every, base in bases)

    def test_entry_and_callee_pairs_are_dropped(self, monkeypatch):
        # l1 calls l2 before itself: the steps from the constraint-free
        # initial query and those into l2 are followed, so l2 is
        # explored, but none of them is recurrent.
        source = nest_source(2)
        closure, base = pipeline(source, "l1(i)", inline=True)
        with monkeypatch.context() as patched:
            every_step(patched)
            full, every = pipeline(source, "l1(i)", inline=True)
        start = _row_query(("l1", 1))
        up = _row_query(("l1", 1), frozenset({_gt(A1)}))
        inner = _row_query(("l2", 1), frozenset({_gt(A1)}))
        arcs = {(p.query, p.mapping.range_atom) for p in every}
        assert {(start, up), (up, inner), (up, up), (inner, inner)} <= arcs
        assert {(p.query, p.mapping.range_atom) for p in base} == {(up, up), (inner, inner)}
        assert base == on_cycles(every, every)
        assert closure == on_cycles(full, every)
        assert {(p.query, p.mapping.range_atom) for p in filter(is_circular, closure)} == {
            (up, up),
            (inner, inner),
        }
        # The full closure also leaves the start and enters the callee.
        assert len(full) > len(closure)

    @pytest.mark.parametrize(
        "name,query,derived,picks", [("r", "r(i)", 1, 4), ("gcd", "gcd(i,i,f)", 5, 32)]
    )
    def test_relations_are_derived_for_recurrent_steps_alone(
        self, monkeypatch, name, query, derived, picks
    ):
        # Over every attempt of the task.  With every step's pair kept,
        # each step derives its relations once and gives a pair of its
        # own, so the pairs closed count the steps; neither task has a b
        # position, so no norm relations are derived.  Otherwise only
        # the recurrent steps derive theirs.
        def derivations(patch):
            calls = []
            relations = pairs._relations

            def counted(*args):
                calls.append(args)
                return relations(*args)

            patch.setattr(pairs, "_relations", counted)
            bases = closed_bases(patch, corpus_program(name), query)
            return len(calls), sum(map(len, bases))

        with monkeypatch.context() as patched:
            every_step(patched)
            assert derivations(patched) == (picks, picks)
        assert derivations(monkeypatch) == (derived, derived)

    def test_gcd_closure_sizes(self, monkeypatch):
        # The collected rung without and with answers; all of gcd's
        # pairs closed they numbered 62 and 51.
        program, query = RUNG_TASKS[0]
        bases = driver_calls(
            monkeypatch, "compose_until_fixpoint", program, parse_query_pattern(query)
        )
        assert [len(compose_until_fixpoint(base)) for base, in bases] == [3, 5]


class TestStructuralTest:
    def test_value_relations_do_not_make_cycles(self):
        closure, _ = pipeline("loop", "loop(i)")
        (pair,) = circular(closure)
        assert edge_positions(pair) == {(D1, R1)}
        assert not check_forward_positive_cycle(pair)

    def test_norm_decrease_is_found(self):
        closure, _ = pipeline("q_mixed", "q(b,b,i)")
        decreasing = [
            p
            for p in circular(closure)
            if (("domain", 0), ("range", 0)) in arc_positions(p)
        ]
        assert decreasing
        assert all(check_forward_positive_cycle(p) for p in decreasing)

    def test_numeric_loop_is_not_structural(self):
        closure, _ = pipeline("q_mixed", "q(b,b,i)")
        countdown = [
            p for p in circular(closure) if constraint_of(p) == atom_set(_gt(A3))
        ]
        (pair,) = countdown
        assert not check_forward_positive_cycle(pair)

    def test_integer_arcs_are_ignored(self):
        pair = _single_pair(">")
        assert not check_forward_positive_cycle(pair)

    @staticmethod
    def bound_pair(relations):
        q = AbstractQuery(
            key=("z", 2), modes=(MODE_BOUND, MODE_BOUND), constraint=frozenset()
        )
        return QueryMappingPair(
            query=q,
            mapping=Mapping(domain_atom=q, range_atom=q, relations=frozenset(relations)),
        )

    def test_bound_arc_through_an_edge(self):
        with_arc = self.bound_pair({(0, "=", 1), (1, ">", 1)})
        assert check_forward_positive_cycle(with_arc)
        edges_only = self.bound_pair({(0, "=", 0), (1, "=", 1)})
        assert not check_forward_positive_cycle(edges_only)

    def test_path_runs_backwards_along_a_less_than(self):
        # d1 = r2 > d2 = r1: the walk from d1 reaches r1 by stepping from
        # r2 down to d2, against the domain-to-range direction.
        pair = self.bound_pair({(0, "=", 1), (1, "<", 1), (1, "=", 0)})
        assert check_forward_positive_cycle(pair)


class TestGuessing:
    def test_mod_candidates_simplest_first(self):
        closure, _ = pipeline("mod", "mod(i,i,f)")
        (pair,) = circular(closure)
        rendered = [render_expr(f) for f in guess_termination_functions(pair)]
        assert rendered == ["arg1", "arg2", "arg1 - arg2"]

    def test_mc91_candidates_start_with_the_slack(self):
        closure, _ = pipeline(
            "mc91", "mc_carthy_91(i,f)", unfold=(1, 2), infer=True, answers=True
        )
        med = [
            p
            for p in circular(closure)
            if constraint_of(p) == atom_set(atom_gt(A1, 89), atom_le(A1, 100))
        ]
        (pair,) = med
        rendered = [render_expr(f) for f in guess_termination_functions(pair)]
        assert rendered[0] == "100 - arg1"

    @pytest.mark.parametrize(
        "program,query",
        EXACTNESS_TASKS,
        ids=[f"{name}-{query}" for name, query, _ in CORPUS] + ["gcd", "mc91", "nest-6"],
    )
    def test_a_circular_range_row_is_its_domain_row(self, monkeypatch, program, query):
        # Why only the domain row suggests slacks.
        for base in closed_bases(monkeypatch, program, query):
            for pair in circular(compose_until_fixpoint(base)):
                assert pair.mapping.range_atom.constraint == pair.mapping.domain_atom.constraint

    def test_cap_limits_candidates(self, monkeypatch):
        closure, _ = pipeline("mod", "mod(i,i,f)")
        (pair,) = circular(closure)
        assert len(guess_termination_functions(pair)) > 1
        monkeypatch.setattr(pairs, "CANDIDATE_CAP", 1)
        assert len(guess_termination_functions(pair)) == 1


class TestVerification:
    def qmdl_pair(self):
        closure, _ = pipeline("p_difficult", "p(i,i)")
        increasing = [
            p
            for p in circular(closure)
            if constraint_of(p) == atom_set(_gt(A1), _lt(A1 - A2))
            and (R1, D1) in arc_positions(p)
        ]
        (pair,) = increasing
        return pair

    def test_difference_function_verifies(self):
        pair = self.qmdl_pair()
        assert edge_positions(pair) >= {(D2, R2)}
        assert verify_decrease(pair, A2 - A1)

    def test_single_arguments_fail_on_the_increasing_loop(self):
        pair = self.qmdl_pair()
        assert not verify_decrease(pair, A1)
        assert not verify_decrease(pair, A2)

    def test_lower_bound_is_checked(self):
        closure, _ = pipeline("r", "r(i)")
        (pair,) = circular(closure)
        assert verify_decrease(pair, A1)
        # arg1 - 10 decreases too, but arg1 > 0 does not bound it by 0.
        assert not verify_decrease(pair, A1 - 10)

    def test_verify_matches_grid_enumeration(self):
        closure, _ = pipeline("mod", "mod(i,i,f)")
        (pair,) = circular(closure)
        proof = prove_pair(pair)
        assert proof is not None and proof.method == "function"
        f = proof.function
        span = range(-6, 7)
        seen = 0
        for v1, v2, u1, u2 in product(span, repeat=4):
            # Domain and range elements plus the pair's relations.
            if not (v1 >= v2 > 0 and u1 >= u2 > 0):
                continue
            if not (v2 == u2 and v1 > u1 and v1 > u2):
                continue
            seen += 1
            fv = f.const + f.coeff("arg1") * v1 + f.coeff("arg2") * v2
            fu = f.const + f.coeff("arg1") * u1 + f.coeff("arg2") * u2
            assert fv > fu
            assert fv >= 0
        assert seen > 20


class TestCircularProofs:
    def test_mod_is_discharged(self):
        closure, _ = pipeline("mod", "mod(i,i,f)")
        (pair,) = circular(closure)
        assert constraint_of(pair) == atom_set(_gt(A2), atom_le(A2, A1))
        assert edge_positions(pair) == {(D2, R2)}
        assert arc_positions(pair) == {(D1, R1), (D1, R2)}
        proof = prove_pair(pair)
        assert proof.method == "function"

    def test_gcd_needs_the_answer_table(self):
        without, _ = pipeline("gcd", "gcd(i,i,f)")
        gcd_pairs = [
            p for p in circular(without) if p.query.key == ("gcd", 3)
        ]
        assert gcd_pairs
        assert all(prove_pair(p) is None for p in gcd_pairs)
        withtable, _ = pipeline("gcd", "gcd(i,i,f)", answers=True)
        gcd_pairs = [
            p for p in circular(withtable) if p.query.key == ("gcd", 3)
        ]
        assert gcd_pairs
        for pair in gcd_pairs:
            proof = prove_pair(pair)
            assert proof is not None and proof.method == "function"

    def test_mc91_collect_rung_fails(self):
        # without answers
        closure, _ = pipeline("mc91", "mc_carthy_91(i,f)")
        undischarged = [p for p in circular(closure) if prove_pair(p) is None]
        assert undischarged

    def test_mc91_collect_rung_is_discharged_with_answers(self):
        # The entry arg1 < arg2 + 10 up to 100 puts the second call's
        # input above the head's.
        closure, _ = pipeline("mc91", "mc_carthy_91(i,f)", answers=True)
        (pair,) = circular(closure)
        assert constraint_of(pair) == atom_set(atom_le(A1, 100))
        assert arc_positions(pair) == {(R1, D1)}
        assert render_expr(prove_pair(pair).function) == "100 - arg1"

    def test_mc91_refined_rung_uses_the_slack_functions(self):
        closure, _ = pipeline(
            "mc91", "mc_carthy_91(i,f)", unfold=(1, 2), infer=True, answers=True
        )
        pairs = circular(closure)
        assert len(pairs) == 2
        functions = {
            render_expr(prove_pair(p).function) for p in pairs
        }
        assert functions == {"100 - arg1", "89 - arg1"}

    def test_q_mixed_has_both_proof_styles(self):
        closure, _ = pipeline("q_mixed", "q(b,b,i)")
        methods = {prove_pair(p).method for p in circular(closure)}
        assert methods == {"structural", "function"}
        countdown = [
            p for p in circular(closure) if constraint_of(p) == atom_set(_gt(A3))
        ]
        (pair,) = countdown
        proof = prove_pair(pair)
        assert proof.method == "function"
        assert proof.describe() == "decreasing function arg3 (bound 0)"

    def test_p_difficult_all_pairs_discharge(self):
        closure, _ = pipeline("p_difficult", "p(i,i)")
        pairs = circular(closure)
        assert len(pairs) == 4
        assert all(prove_pair(p) is not None for p in pairs)

    def test_loop_stays_unproved(self):
        closure, _ = pipeline("loop", "loop(i)")
        (pair,) = circular(closure)
        assert prove_pair(pair) is None

    def test_plain_self_recursion_stays_unproved(self):
        closure, _ = pipeline("s", "s(b)", numeric=False)
        (pair,) = circular(closure)
        assert prove_pair(pair) is None


class TestRendering:
    def test_loop_pair_trace(self):
        closure, _ = pipeline("loop", "loop(i)")
        (pair,) = circular(closure)
        assert render_pair(pair) == (
            "pair loop(i) where arg1 > 0\n"
            "  domain [1:i]  where arg1 > 0\n"
            "  range  [1:i]  where arg1 > 0\n"
            "  edges: d1 = r1\n"
            "  arcs: none"
        )

    def test_proof_line_is_appended(self):
        closure, _ = pipeline("r", "r(i)")
        (pair,) = circular(closure)
        text = render_pair(pair, prove_pair(pair))
        assert text.endswith("proof: decreasing function arg1 (bound 0)")

    def test_runs_are_deterministic(self):
        first, _ = pipeline("p_difficult", "p(i,i)")
        second, _ = pipeline("p_difficult", "p(i,i)")
        assert [render_pair(p) for p in sorted(first, key=pair_sort_key)] == [
            render_pair(p) for p in sorted(second, key=pair_sort_key)
        ]

"""Dependency graph and loop classification tests."""

from conftest import corpus_program

from termiarith.graph import (
    find_integer_loops,
    reachable_from,
    strongly_connected_components,
)
from termiarith.modes import infer_argument_modes
from termiarith.syntax import normalize_program, parse_program, parse_query_pattern


def loops_in(program, pattern):
    pattern = parse_query_pattern(pattern)
    return find_integer_loops(program, pattern, infer_argument_modes(program, pattern))


def loops_for(name, pattern):
    return loops_in(corpus_program(name), pattern)


class TestGraph:
    """The dependency graph is `Program.callees`."""

    def test_self_recursion(self):
        key = ("mc_carthy_91", 2)
        assert corpus_program("mc91").callees == {key: (key,)}

    def test_gcd_arcs(self):
        gcd, mod = ("gcd", 3), ("mod", 3)
        assert corpus_program("gcd").callees == {gcd: (gcd, mod), mod: (mod,)}

    def test_facts_have_no_arcs(self):
        assert corpus_program("facts").callees == {("f", 1): (), ("g", 2): ()}

    def test_undefined_callee_becomes_node(self):
        callees = parse_program("p(X) :- q(X).").callees
        assert callees == {("p", 1): (("q", 1),), ("q", 1): ()}

    def test_reachability(self):
        callees = corpus_program("gcd").callees
        gcd, mod = ("gcd", 3), ("mod", 3)
        assert reachable_from(callees, [gcd]) == frozenset({gcd, mod})
        assert reachable_from(callees, [mod]) == frozenset({mod})
        assert reachable_from(callees, [("none", 1)]) == frozenset({("none", 1)})
        assert reachable_from({mod: [gcd]}, [mod]) == frozenset({gcd, mod})


class TestComponents:
    def test_callee_first_order(self):
        components = strongly_connected_components(corpus_program("gcd").callees)
        assert components == (frozenset({("mod", 3)}), frozenset({("gcd", 3)}))

    def test_partition(self):
        source = """
        a(X) :- b(X), c(X).
        b(X) :- a(X).
        c(X) :- d(X).
        d(0).
        """
        callees = parse_program(source).callees
        components = strongly_connected_components(callees)
        seen = [key for comp in components for key in comp]
        assert sorted(seen) == sorted(callees)
        assert len(seen) == len(set(seen))

    def test_arcs_point_backwards(self):
        for name in ["gcd", "q_mixed", "p_int", "facts"]:
            callees = corpus_program(name).callees
            components = strongly_connected_components(callees)
            position = {k: i for i, comp in enumerate(components) for k in comp}
            for p, successors in callees.items():
                for q in successors:
                    assert position[q] <= position[p]


class TestLoops:
    def test_91_single_integer_loop(self):
        loops = loops_for("mc91", "mc_carthy_91(i,f)")
        assert len(loops) == 1
        loop = loops[0]
        assert loop.predicates == frozenset({("mc_carthy_91", 2)})
        assert len(loop.clauses) == 2
        assert loop.is_numerical
        assert loop.is_integer_based
        assert loop.diagnostics == ()
        recursive = [c for c in loop.clauses if loop.is_recursive_clause(c)]
        assert recursive == [loop.clauses[1]]

    def test_gcd_two_loops_callee_first(self):
        loops = loops_for("gcd", "gcd(i,i,f)")
        assert [l.predicates for l in loops] == [
            frozenset({("mod", 3)}),
            frozenset({("gcd", 3)}),
        ]
        mod_loop, gcd_loop = loops
        assert mod_loop.is_numerical
        assert mod_loop.is_integer_based
        assert not gcd_loop.is_numerical
        assert gcd_loop.is_integer_based
        recursive = [c for c in gcd_loop.clauses if gcd_loop.is_recursive_clause(c)]
        assert len(recursive) == 1

    def test_float_loop_not_integer_based(self):
        loops = loops_for("ex2_p", "p(f)")
        assert len(loops) == 1
        loop = loops[0]
        assert loop.is_numerical
        assert not loop.is_integer_based
        text = " ".join(loop.diagnostics)
        assert "operator /" in text or "float constant" in text

    def test_pure_structural_loop(self):
        loops = loops_for("s", "s(f)")
        assert len(loops) == 1
        assert not loops[0].is_numerical
        assert "no arithmetic" in loops[0].diagnostics[0]

    def test_countdown_integer_based_only_under_i(self):
        assert loops_for("r", "r(i)")[0].is_integer_based
        assert not loops_for("r", "r(f)")[0].is_integer_based
        assert not loops_for("r", "r(b)")[0].is_integer_based

    def test_atom_clause_filtered_under_integer_query(self):
        assert loops_for("p_int", "p(i)")[0].is_integer_based
        assert not loops_for("p_int", "p(f)")[0].is_integer_based

    def test_only_reachable_loops(self):
        source = """
        a(X) :- X > 0, X1 is X - 1, a(X1).
        b(X) :- X > 0, b(X).
        """
        program = normalize_program(parse_program(source))
        loops = loops_in(program, "a(i)")
        assert [l.predicates for l in loops] == [frozenset({("a", 1)})]

    def test_absent_predicate(self):
        assert loops_for("mc91", "missing(i)") == []

    def test_acyclic_program(self):
        assert loops_for("facts", "f(i)") == []
        program = normalize_program(parse_program("p(X) :- X > 0, q(X).\nq(0)."))
        assert loops_in(program, "p(i)") == []

    def test_copy_loop_not_numerical(self):
        loops = loops_for("loop", "loop(i)")
        assert len(loops) == 1
        assert not loops[0].is_numerical
        assert loops[0].is_integer_based

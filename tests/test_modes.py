"""Mode and integer-type inference tests."""

from conftest import corpus_program
from helpers import integer_positions, modes_of

from termiarith.modes import clause_applicable, infer_argument_modes, mode_meet
from termiarith.syntax import (
    MODE_BOUND,
    MODE_FREE,
    MODE_INT,
    normalize_program,
    parse_program,
    parse_query_pattern,
)


def infer(name, pattern):
    program = corpus_program(name)
    return infer_argument_modes(program, parse_query_pattern(pattern))


class TestAssignment:
    def test_91_both_positions_integer(self):
        modes = infer("mc91", "mc_carthy_91(i,f)")
        key = ("mc_carthy_91", 2)
        assert modes.call_modes[key] == ("i", "f")
        assert modes_of(modes, key) == ("i", "i")
        assert integer_positions(modes, key) == (0, 1)
        assert not modes.violations
        assert not modes.conflicts

    def test_integer_query_skips_atom_clause(self):
        modes = infer("p_int", "p(i)")
        assert modes_of(modes, ("p", 1)) == ("i",)
        assert not modes.violations

    def test_free_query_stays_free(self):
        modes = infer("p_int", "p(f)")
        assert modes_of(modes, ("p", 1)) == ("f",)
        assert modes.violations

    def test_mixed_structural_numeric(self):
        modes = infer("q_mixed", "q(b,b,i)")
        key = ("q", 3)
        assert modes_of(modes, key) == ("b", "b", "i")
        assert integer_positions(modes, key) == (2,)
        assert not modes.violations

    def test_gcd_types_all_positions(self):
        modes = infer("gcd", "gcd(i,i,f)")
        assert modes_of(modes, ("gcd", 3)) == ("i", "i", "i")
        assert modes.call_modes[("mod", 3)] == ("i", "i", "f")
        assert modes_of(modes, ("mod", 3)) == ("i", "i", "i")
        assert not modes.violations
        # mod's `A = C` makes its output an integer, alone as under gcd.
        for query, keys in (("gcd(i,i,f)", ("gcd", "mod")), ("mod(i,i,f)", ("mod",))):
            modes = infer(keys[0], query)
            assert modes.call_modes == {(k, 3): ("i", "i", "f") for k in keys}
            assert modes.success_modes == {(k, 3): ("i", "i", "i") for k in keys}
            assert modes.integer_typed == {(k, 3): (True, True, True) for k in keys}
            assert not modes.conflicts and not modes.violations

    def test_countdown_depends_on_query_mode(self):
        assert modes_of(infer("r", "r(i)"), ("r", 1)) == ("i",)
        assert not infer("r", "r(i)").violations
        assert modes_of(infer("r", "r(f)"), ("r", 1)) == ("f",)
        assert infer("r", "r(f)").violations
        assert infer("r", "r(b)").violations

    def test_unreached_predicate_defaults_to_free(self):
        modes = infer("mc91", "mc_carthy_91(i,f)")
        assert modes_of(modes, ("nowhere", 2)) == ("f", "f")
        assert not modes.is_reachable(("nowhere", 2))


class TestNumericEquality:
    """A normalized numeric `=` is one comparison that the walk reads as
    unification: it equates the states of its operands and does no
    arithmetic of its own."""

    def test_equality_between_free_operands_unifies(self):
        # Only the comparison that reads X is flagged; Y stays free.
        program = normalize_program(parse_program("p(X, Y) :- Y = X, X > 0."))
        modes = infer_argument_modes(program, parse_query_pattern("p(f,f)"))
        assert modes.success_modes[("p", 2)] == ("b", "f")
        assert [v.detail for v in modes.violations] == [
            "variable X in `X > 0` is not guaranteed to be an integer",
        ]

    def test_equality_passes_an_integer_on(self):
        program = normalize_program(parse_program("p(X, Y) :- Y = X, Y > 0."))
        modes = infer_argument_modes(program, parse_query_pattern("p(i,f)"))
        assert modes.success_modes[("p", 2)] == ("i", "i")
        assert not modes.violations


class TestSuccessModes:
    def test_91_success_integers(self):
        modes = infer("mc91", "mc_carthy_91(i,f)")
        assert modes.success_modes[("mc_carthy_91", 2)] == ("i", "i")

    def test_mod_success_integers(self):
        modes = infer("gcd", "gcd(i,i,f)")
        assert modes.success_modes[("mod", 3)] == ("i", "i", "i")
        assert modes.success_modes[("gcd", 3)] == ("i", "i", "i")

    def test_structural_success_is_bound(self):
        modes = infer("q_mixed", "q(b,b,i)")
        assert modes.success_modes[("q", 3)] == ("b", "b", "i")


class TestViolations:
    def test_division_flagged(self):
        modes = infer("ex2_p", "p(i)")
        details = [v.detail for v in modes.violations]
        assert any("operator /" in d for d in details)

    def test_float_constant_flagged(self):
        modes = infer("ex2_q", "q(i)")
        details = [v.detail for v in modes.violations]
        assert any("float constant 0.1" in d for d in details)

    def test_float_head_reached_under_free_query(self):
        modes = infer("ex2_p", "p(f)")
        details = [v.detail for v in modes.violations]
        assert any("float constant 0.0" in d for d in details)

    def test_guarded_copy_loop_is_clean(self):
        modes = infer("loop", "loop(i)")
        assert not modes.violations

    def test_violations_carry_predicate(self):
        modes = infer("r", "r(f)")
        assert all(v.pred == ("r", 1) for v in modes.violations)
        assert all(str(v).startswith("r/1 clause") for v in modes.violations)


class TestConflicts:
    def test_all_clauses_filtered(self):
        program = normalize_program(parse_program("p(a).\np(b)."))
        modes = infer_argument_modes(program, parse_query_pattern("p(i)"))
        assert modes.conflicts
        assert "p/1" in modes.conflicts[0]

    def test_compound_heads_do_not_match_an_integer(self):
        program = normalize_program(parse_program("p([H|T]) :- H > 0, p(T).\np([])."))
        modes = infer_argument_modes(program, parse_query_pattern("p(i)"))
        assert modes.conflicts == (
            "mode conflict: no clause of p/1 matches an integer query of modes (i)",
        )
        assert not modes.violations

    def test_no_conflict_when_some_clause_matches(self):
        program = normalize_program(parse_program("p(a).\np(0)."))
        modes = infer_argument_modes(program, parse_query_pattern("p(i)"))
        assert not modes.conflicts


class TestHelpers:
    def test_clause_applicable(self):
        program = parse_program("p(a).\np(0).\np(0.5).\np(X) :- p(X).\np(s(X)).")
        a, zero, half, var, compound = program.clauses
        assert not clause_applicable(a, (MODE_INT,))
        assert clause_applicable(zero, (MODE_INT,))
        assert not clause_applicable(half, (MODE_INT,))
        assert clause_applicable(var, (MODE_INT,))
        assert not clause_applicable(compound, (MODE_INT,))
        assert clause_applicable(a, (MODE_BOUND,))
        assert clause_applicable(half, (MODE_FREE,))
        assert clause_applicable(compound, (MODE_BOUND,))

    def test_mode_meet(self):
        assert mode_meet(MODE_INT, MODE_FREE) == MODE_INT
        assert mode_meet(MODE_BOUND, MODE_FREE) == MODE_BOUND
        assert mode_meet(MODE_BOUND, MODE_INT) == MODE_INT
        assert mode_meet(MODE_FREE, MODE_FREE) == MODE_FREE


class TestStability:
    CASES = [
        ("mc91", "mc_carthy_91(i,f)"),
        ("gcd", "gcd(i,i,f)"),
        ("q_mixed", "q(b,b,i)"),
        ("p_difficult", "p(i,i)"),
        ("r", "r(i)"),
        ("r", "r(f)"),
        ("ex2_p", "p(f)"),
        ("p_int", "p(i)"),
    ]

    def test_deterministic(self):
        for name, pattern in self.CASES:
            first = infer(name, pattern)
            second = infer(name, pattern)
            assert first.call_modes == second.call_modes
            assert first.success_modes == second.success_modes
            assert first.integer_typed == second.integer_typed
            assert first.violations == second.violations

    def test_weaker_query_never_strengthens(self):
        rank = {MODE_INT: 0, MODE_BOUND: 1, MODE_FREE: 2}
        for name, pred in [("r", "r"), ("p_int", "p"), ("loop", "loop")]:
            strong = modes_of(infer(name, f"{pred}(i)"), (pred, 1))
            mid = modes_of(infer(name, f"{pred}(b)"), (pred, 1))
            weak = modes_of(infer(name, f"{pred}(f)"), (pred, 1))
            assert rank[strong[0]] <= rank[mid[0]] <= rank[weak[0]]


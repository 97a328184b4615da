"""Mode and integer-type inference tests."""

from conftest import corpus_program
from helpers import integer_positions

from termiarith.modes import clause_applicable, infer_argument_modes, mode_meet
from termiarith.syntax import (
    MODE_BOUND,
    MODE_FREE,
    MODE_INT,
    normalize_program,
    parse_program,
    parse_query_pattern,
)


def infer(name, pattern, **kwargs):
    program = corpus_program(name)
    return infer_argument_modes(program, parse_query_pattern(pattern), **kwargs)


class TestAssignment:
    def test_91_both_positions_integer(self):
        modes = infer("mc91", "mc_carthy_91(i,f)")
        key = ("mc_carthy_91", 2)
        assert modes.call_modes[key] == ("i", "f")
        assert modes.modes_of(key) == ("i", "i")
        assert integer_positions(modes, key) == (0, 1)
        assert not modes.violations
        assert not modes.conflicts

    def test_integer_query_skips_atom_clause(self):
        modes = infer("p_int", "p(i)")
        assert modes.modes_of(("p", 1)) == ("i",)
        assert not modes.violations

    def test_free_query_stays_free(self):
        modes = infer("p_int", "p(f)")
        assert modes.modes_of(("p", 1)) == ("f",)
        assert modes.violations

    def test_mixed_structural_numeric(self):
        modes = infer("q_mixed", "q(b,b,i)")
        key = ("q", 3)
        assert modes.modes_of(key) == ("b", "b", "i")
        assert integer_positions(modes, key) == (2,)
        assert not modes.violations

    def test_gcd_types_all_positions(self):
        modes = infer("gcd", "gcd(i,i,f)")
        assert modes.modes_of(("gcd", 3)) == ("i", "i", "i")
        assert modes.call_modes[("mod", 3)] == ("i", "i", "f")
        assert modes.modes_of(("mod", 3)) == ("i", "i", "i")
        assert not modes.violations

    def test_countdown_depends_on_query_mode(self):
        assert infer("r", "r(i)").modes_of(("r", 1)) == ("i",)
        assert not infer("r", "r(i)").violations
        assert infer("r", "r(f)").modes_of(("r", 1)) == ("f",)
        assert infer("r", "r(f)").violations
        assert infer("r", "r(b)").violations

    def test_unreached_predicate_defaults_to_free(self):
        modes = infer("mc91", "mc_carthy_91(i,f)")
        assert modes.modes_of(("nowhere", 2)) == ("f", "f")
        assert not modes.is_reachable(("nowhere", 2))


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

    def test_no_conflict_when_some_clause_matches(self):
        program = normalize_program(parse_program("p(a).\np(0)."))
        modes = infer_argument_modes(program, parse_query_pattern("p(i)"))
        assert not modes.conflicts


class TestHelpers:
    def test_clause_applicable(self):
        program = parse_program("p(a).\np(0).\np(0.5).\np(X) :- p(X).")
        a, zero, half, var = program.clauses
        assert not clause_applicable(a, (MODE_INT,))
        assert clause_applicable(zero, (MODE_INT,))
        assert not clause_applicable(half, (MODE_INT,))
        assert clause_applicable(var, (MODE_INT,))
        assert clause_applicable(a, (MODE_BOUND,))
        assert clause_applicable(half, (MODE_FREE,))

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
            strong = infer(name, f"{pred}(i)").modes_of((pred, 1))
            mid = infer(name, f"{pred}(b)").modes_of((pred, 1))
            weak = infer(name, f"{pred}(f)").modes_of((pred, 1))
            assert rank[strong[0]] <= rank[mid[0]] <= rank[weak[0]]

    def test_restriction_toggle_agrees_on_numeric_corpus(self):
        for name, pattern in self.CASES:
            on = infer(name, pattern)
            off = infer(name, pattern, restrict_to_numeric=False)
            keys = set(on.call_modes)
            assert set(off.call_modes) == keys
            for key in keys:
                assert on.modes_of(key) == off.modes_of(key)

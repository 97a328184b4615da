"""Solver tests: frozen examples, brute-force oracles, property tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grid_oracle
from helpers import TRUE, conjunction_variables, equivalent
from termiarith import constraints as lc
from termiarith.constraints import (
    EQ,
    FALSE,
    LE,
    LT,
    LinExpr,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    implies,
    is_satisfiable,
    make_atom,
    negate_atom,
    project,
    project_or_none,
    render_atom,
    render_conjunction,
    render_expr,
    rename,
    simplify,
)


def X(name="X"):
    return LinExpr.var(name)


class TestCanonicalForm:
    def test_integer_scaling(self):
        halves = LinExpr.build({"X": Fraction(1, 2)}, Fraction(-5, 2))
        assert make_atom(halves, LT) == atom_lt("X", 5)

    def test_ge_is_swapped_le(self):
        assert atom_ge("X", "Y") == atom_le("Y", "X")

    def test_equality_sign_normalized(self):
        assert atom_eq("X", "Y") == atom_eq("Y", "X")

    def test_double_negation(self):
        a = atom_lt(X() - X("Y"), 7)
        assert negate_atom(negate_atom(a)) == a

    def test_negating_equality_rejected(self):
        with pytest.raises(ValueError):
            negate_atom(atom_eq("X", 0))

    def test_conjunction_drops_trivial(self):
        assert lc.conjunction([atom_le(0, 1), atom_lt("X", 2)]) == frozenset(
            [atom_lt("X", 2)]
        )

    def test_conjunction_collapses_false(self):
        assert lc.conjunction([atom_lt("X", 2), atom_le(1, 0)]) == frozenset([FALSE])


class TestValueSemantics:
    """`LinExpr` and `LinAtom` are tuples: order, equality and hashing
    are the tuple's, and no tuple operation passes for arithmetic."""

    def test_sorted_is_terms_then_const_then_rel(self):
        atoms = [
            atom_lt("X", 2),
            atom_le("X", 2),
            atom_eq("X", 2),
            atom_lt("Y", "X"),
            atom_le(X().scale(3), "Y"),
            atom_eq(X() + "Y", 0),
            atom_lt(0, "Z"),
            atom_le("Z", 7),
            atom_lt("Y", -4),
            FALSE,
            make_atom(-1, LT),
        ]
        key = lambda a: (a.expr.terms, a.expr.const, a.rel)
        assert sorted(atoms) == sorted(atoms, key=key)
        assert sorted(reversed(atoms)) == sorted(atoms, key=key)

    def test_equal_atoms_built_differently(self):
        built = [
            atom_ge("X", "Y"),
            atom_le("Y", "X"),
            make_atom(LinExpr.build({"X": -2, "Y": 2}), LE),
            make_atom(LinExpr.build({"X": Fraction(-1, 3), "Y": Fraction(1, 3)}), LE),
            lc._combine(X("Y"), 3, X(), -3, LE),
            negate_atom(atom_lt("X", "Y")),
        ]
        for a in built:
            assert a == built[0]
            assert hash(a) == hash(built[0])
        assert len({*built}) == 1

    def test_equal_expressions_hash_equal(self):
        e = X() + "Y"
        assert e == X("Y") + "X" == LinExpr.build({"Y": 1, "X": 1})
        assert hash(e) == hash(X("Y") + "X")

    def test_no_tuple_repetition(self):
        e = X() + 1
        with pytest.raises(TypeError):
            2 * e
        with pytest.raises(TypeError):
            e * 2
        with pytest.raises(TypeError):
            2 * atom_lt("X", 1)

    def test_addition_is_linear(self):
        e = X() - X("Y").scale(2) + 3
        assert e + e == e.scale(2) == LinExpr.build({"X": 2, "Y": -4}, 6)
        assert e - e == LinExpr()


class TestCombine:
    """`_combine` builds ``make_atom(x.scale(kx) + y.scale(ky), rel)``
    in one step."""

    @pytest.mark.parametrize(
        "x, kx, y, ky, rel, expected",
        [
            # gcd > 1: 2X + 2Y + 4 =< 0 is X + Y + 2 =< 0.
            (X() + 2, 2, X("Y"), 2, LE, atom_le(X() + "Y", -2)),
            # An equality's leading coefficient is made positive.
            (X(), -1, X("Y") + 1, 1, EQ, atom_eq("X", X("Y") + 1)),
            # Cancelling every variable leaves a constant atom: true,
            # then false twice.
            (X() - 1, 1, X(), -1, LT, make_atom(-1, LT)),
            (X() + 1, 1, X(), -1, LT, make_atom(1, LT)),
            (X() + 3, 2, X().scale(2), -1, EQ, make_atom(1, EQ)),
        ],
    )
    def test_cases(self, x, kx, y, ky, rel, expected):
        got = lc._combine(x, kx, y, ky, rel)
        assert got == make_atom(x.scale(kx) + y.scale(ky), rel) == expected


class TestSatisfiability:
    def test_empty_interval(self):
        assert not is_satisfiable({atom_gt("X", 5), atom_lt("X", 2)})

    def test_between_90_and_100(self):
        assert is_satisfiable({atom_gt("X", 89), atom_le("X", 100)})

    def test_true_is_satisfiable(self):
        assert is_satisfiable(TRUE)

    def test_false_is_not(self):
        assert not is_satisfiable({FALSE})

    def test_equality_chain(self):
        conj = {atom_eq("X", X("Y") + 1), atom_eq("Y", X("Z") + 1), atom_lt("X", "Z")}
        assert not is_satisfiable(conj)

    def test_verdict_cache_is_bounded(self):
        # A long-lived process checks ever new conjunctions; the cache of
        # verdicts must not keep all of them.
        maxsize = lc._solve_sat.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


class TestImplication:
    def test_difference_grows(self):
        conj = {
            atom_lt("V1", "U1"),
            atom_eq("V2", "U2"),
            atom_gt("V1", 0),
            atom_gt("U1", 0),
            atom_lt("V1", "V2"),
            atom_lt("U1", "U2"),
        }
        target = atom_gt(X("V2") - "V1", X("U2") - "U1")
        assert implies(conj, target)

    def test_equality_implies_le(self):
        assert implies({atom_eq("X", "Y")}, atom_le("X", "Y"))

    def test_bounded_from_below(self):
        conj = {atom_ge("arg1", 90), atom_le("arg1", 100)}
        assert implies(conj, atom_ge(LinExpr.of(100) - "arg1", 0))

    def test_equality_target_needs_both_sides(self):
        assert not implies({atom_le("X", "Y")}, atom_eq("X", "Y"))
        assert implies({atom_le("X", "Y"), atom_ge("X", "Y")}, atom_eq("X", "Y"))

    def test_unsat_implies_anything(self):
        assert implies({FALSE}, atom_lt("X", 0))


class TestProjection:
    def test_transitivity(self):
        got = project({atom_lt("X", "Y"), atom_lt("Y", "Z")}, {"X", "Z"})
        assert got == frozenset([atom_lt("X", "Z")])

    def test_substituted_guard(self):
        got = project({atom_eq("Z", X() + 11), atom_gt("Z", 100)}, {"X"})
        assert got == frozenset([atom_gt("X", 89)])

    def test_defined_difference_adds_nothing(self):
        conj = {atom_ge("A", "B"), atom_gt("B", 0), atom_eq("D", X("A") - "B")}
        assert project(conj, {"A", "B"}) == frozenset(
            [atom_ge("A", "B"), atom_gt("B", 0)]
        )

    def test_unsat_projects_to_false(self):
        got = project({atom_gt("X", 5), atom_lt("X", 2)}, {"Y"})
        assert got == frozenset([FALSE])

    def test_eliminated_equality_keeps_the_direction(self):
        # The canonical equality is 3*X - Y = 0, so X is eliminated with
        # a positive pivot here and with a negative one (X - 3*Y = 0,
        # eliminating Y) in the mirrored case.
        got = project({atom_eq(X("Y") - X().scale(3), 0), atom_lt("X", 2)}, {"Y"})
        assert got == frozenset([atom_lt("Y", 6)])
        got = project({atom_eq(X() - X("Y").scale(3), 0), atom_lt("Y", 2)}, {"X"})
        assert got == frozenset([atom_lt("X", 6)])

    def test_cap_falls_back_to_weaker(self, monkeypatch):
        monkeypatch.setattr(lc, "ATOM_LIMIT", 1)
        conj = {
            atom_lt("X", "T"),
            atom_lt("T", "Y"),
            atom_lt("Y", "T"),
            atom_lt("A", "B"),
        }
        assert project_or_none(conj, {"X", "Y", "A", "B"}) is None
        weak = project(conj, {"X", "Y", "A", "B"})
        assert weak == frozenset([atom_lt("A", "B")])


class TestSimplify:
    def test_drops_implied(self):
        got = simplify({atom_le("X", 89), atom_le("X", 100)})
        assert got == frozenset([atom_le("X", 89)])

    def test_keeps_interval(self):
        conj = frozenset([atom_gt("X", 89), atom_le("X", 100)])
        assert simplify(conj) == conj


class TestRendering:
    def test_function_text(self):
        assert render_expr(LinExpr.of(100) - "arg1") == "100 - arg1"

    def test_difference_text(self):
        assert render_expr(X("arg2") - "arg1") == "arg2 - arg1"

    def test_atom_flips_to_variable_side(self):
        assert render_atom(atom_gt("X", 89)) == "X > 89"
        assert render_atom(atom_le("X", 100)) == "X =< 100"

    def test_true_conjunction_text(self):
        assert render_conjunction(TRUE) == "true"

    def test_zero_expr(self):
        assert render_expr(LinExpr()) == "0"


class TestGridOracle:
    def test_satisfiability_agrees(self):
        rng = random.Random(90125)
        hits = 0
        for _ in range(200):
            conj = grid_oracle.random_conjunction(rng)
            if grid_oracle.grid_satisfiable(conj):
                hits += 1
                assert is_satisfiable(conj), render_conjunction(conj)
        assert hits >= 40

    def test_implication_has_no_counterexample(self):
        rng = random.Random(5517)
        proved = 0
        for _ in range(200):
            conj = grid_oracle.random_conjunction(rng)
            atom = grid_oracle.random_atom(rng)
            if implies(conj, atom):
                proved += 1
                assert not grid_oracle.grid_counterexample(conj, atom)
        assert proved >= 10

    def test_single_variable_exact(self):
        rng = random.Random(733)
        compared = 0
        for _ in range(300):
            conj = grid_oracle.random_conjunction(rng, max_vars=1)
            expected = grid_oracle.interval_satisfiable(conj)
            if expected is None:
                continue
            compared += 1
            assert is_satisfiable(conj) == expected, render_conjunction(conj)
        assert compared >= 200


_names = st.sampled_from(["X", "Y", "Z"])
_coeffs = st.integers(min_value=-8, max_value=8)


@st.composite
def _exprs(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    coeffs = {draw(_names): draw(_coeffs) for _ in range(n)}
    return LinExpr.build(coeffs, draw(_coeffs))


@st.composite
def _atoms(draw):
    return make_atom(draw(_exprs()), draw(st.sampled_from([LT, LE, EQ])))


@st.composite
def _conjunctions(draw):
    return frozenset(draw(st.lists(_atoms(), min_size=0, max_size=4)))


@settings(deadline=None)
@given(_conjunctions())
def test_projection_preserves_satisfiability(conj):
    # Projection is rational, so it can only overapproximate the
    # integer-sharpened satisfiability check; never the other way.
    for keep in (set(), {"X"}, {"X", "Y"}):
        if is_satisfiable(conj):
            assert is_satisfiable(project(conj, keep))


@settings(deadline=None)
@given(_conjunctions())
def test_projection_mentions_only_kept(conj):
    got = project(conj, {"X"})
    assert conjunction_variables(got) <= {"X"}


@settings(deadline=None)
@given(_conjunctions())
def test_conjunction_implies_own_atoms(conj):
    for a in conj:
        assert implies(conj, a)


@settings(deadline=None)
@given(_conjunctions())
# Unsatisfiable only through an equality's divisibility: greedy dropping
# used to leave just the equality, which the solver judges satisfiable.
@example(
    frozenset(
        {
            make_atom(LinExpr.var("X"), LT),
            make_atom(LinExpr.var("Y"), LE),
            make_atom(LinExpr.build({"Y": 2}, -1), EQ),
        }
    )
)
@example(
    frozenset(
        {
            make_atom(LinExpr.var("X"), LT),
            make_atom(LinExpr.build({"Y": 1}, 1), LT),
            make_atom(LinExpr.build({"Y": 2}, 3), EQ),
        }
    )
)
def test_simplify_is_equivalent(conj):
    assert equivalent(simplify(conj), lc.conjunction(conj))


@settings(deadline=None)
@given(_atoms())
def test_make_atom_idempotent(atom):
    assert make_atom(atom.expr, atom.rel) == atom


@settings(deadline=None)
@given(_conjunctions())
def test_rename_round_trip(conj):
    fwd = {"X": "d1", "Y": "d2", "Z": "d3"}
    back = {v: k for k, v in fwd.items()}
    assert rename(rename(conj, fwd), back) == lc.conjunction(conj)


def _int_coefficients(conj):
    numbers = [c for a in conj for c in (a.expr.const, *dict(a.expr.terms).values())]
    return all(type(c) is int for c in numbers)


@settings(deadline=None)
@given(_conjunctions())
def test_solver_output_has_int_coefficients(conj):
    assert _int_coefficients(conj)
    assert _int_coefficients(rename(conj, {"X": "d1", "Y": "X"}))
    for keep in (set(), {"X"}, {"X", "Y"}):
        assert _int_coefficients(project(conj, keep))


_multipliers = st.integers(min_value=-6, max_value=6)


@settings(deadline=None)
@given(_exprs(), _multipliers, _exprs(), _multipliers, st.sampled_from([LT, LE, EQ]))
@example(X().scale(2) + 4, 3, X("Y").scale(6), 1, LE)  # gcd 6
@example(X(), -1, X("Y"), 1, EQ)  # equality sign fixed
@example(X() + 1, 2, X().scale(2), -1, LT)  # constant false
@example(X() - 1, 1, X(), -1, LE)  # constant true
@example(X(), 0, X("Y"), 0, EQ)  # both multipliers zero
def test_combine_matches_make_atom(x, kx, y, ky, rel):
    got = lc._combine(x, kx, y, ky, rel)
    assert got == make_atom(x.scale(kx) + y.scale(ky), rel)
    assert _int_coefficients([got])

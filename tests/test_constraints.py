"""Solver tests: frozen examples, brute-force oracles, property tests."""

import random
from math import inf

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
    DeadlinePassed,
    LinExpr,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    deadline,
    implied_orders,
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
    substitute,
)


def X(name="X"):
    return LinExpr.var(name)


class TestCanonicalForm:
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


class TestDeadline:
    CONJ = frozenset({atom_lt("X", "Y"), atom_le("Y", 10)})

    def calls(self):
        return (
            lambda: is_satisfiable(self.CONJ),
            lambda: implies(self.CONJ, atom_lt("X", 10)),
            lambda: implied_orders(self.CONJ, [("X", "Y")]),
        )

    def test_every_entry_point_reads_it_before_the_cache(self):
        answers = [call() for call in self.calls()]  # warm the cache
        assert answers == [True, True, {("X", "Y"): "<"}]
        with deadline(0):
            for call in self.calls():
                with pytest.raises(DeadlinePassed):
                    call()
        assert [call() for call in self.calls()] == answers


class TestDifferenceGraph:
    def test_edges_of_each_atom_shape(self):
        # Each edge (u, v, w) states v - u =< w; "" is the zero node.
        assert lc.difference_graph([atom_le("X", "Y")]) == [("Y", "X", 0)]
        assert lc.difference_graph([atom_lt("X", 3)]) == [("", "X", 2)]
        assert lc.difference_graph([atom_ge("X", 3)]) == [("X", "", -3)]
        assert sorted(lc.difference_graph([atom_eq("X", X("Y") + 1)])) == [
            ("X", "Y", -1),
            ("Y", "X", 1),
        ]

    def test_false_constant_is_a_negative_loop(self):
        assert lc.difference_graph([FALSE]) == [("", "", -1)]
        assert lc.difference_graph([make_atom(-1, LT)]) == []

    def test_other_atoms_are_not_read(self):
        assert lc.difference_graph([atom_le("X", "Y"), atom_le(X().scale(2), "Y")]) is None
        assert lc.difference_graph([atom_eq(X("D1"), X("D2") + "R1")]) is None
        assert lc.difference_graph([atom_le(X() + "Y", 3)]) is None

    def test_strict_atoms_are_tightened_into_differences(self):
        # 2*X - 2*Y + 1 < 0 tightens to X - Y + 1 =< 0.
        atom = make_atom(LinExpr.build({"X": 2, "Y": -2}, 1), LT)
        assert lc.difference_graph([atom]) == [("Y", "X", -1)]
        # 2*X + 1 < 0 tightens to X + 1 =< 0.
        atom = make_atom(LinExpr.build({"X": 2}, 1), LT)
        assert lc.difference_graph([atom]) == [("", "X", -1)]
        # 1 - 2*X < 0 tightens to 1 - X =< 0, that is 0 - X =< -1.
        atom = make_atom(LinExpr.build({"X": -2}, 1), LT)
        assert lc.difference_graph([atom]) == [("X", "", -1)]

    def test_tightening_that_leaves_a_coefficient_is_not_read(self):
        # 3*X - 3*Y + 1 < 0 tightens to 3*X - 3*Y + 2 =< 0: no unit.
        atom = make_atom(LinExpr.build({"X": 3, "Y": -3}, 1), LT)
        assert lc.difference_graph([atom]) is None
        # Only strict atoms are tightened.
        assert lc.difference_graph([make_atom(LinExpr.build({"X": 2}, 1), LE)]) is None
        assert lc.difference_graph([make_atom(LinExpr.build({"X": 2, "Y": -2}, 1), EQ)]) is None

    def test_shortest_paths_bound_every_difference(self):
        edges = lc.difference_graph([atom_lt("X", "Y"), atom_lt("Y", "Z"), atom_le("Z", 10)])
        from_z, from_zero = lc._bellman_ford(edges, "Z"), lc._bellman_ford(edges, "")
        assert from_z["X"] == -2  # X - Z =< -2
        assert from_zero["X"] == 8  # X =< 8
        assert from_zero["Y"] == 9
        # X is unbounded below, so Z - X and -X are unbounded above.
        assert lc._bellman_ford(edges, "X") == {"X": 0, "Y": inf, "Z": inf, "": inf}

    def test_shortest_paths_of_a_negative_cycle(self):
        edges = lc.difference_graph([atom_lt("X", "Y"), atom_le("Y", "X")])
        assert lc._bellman_ford(edges) is None
        assert lc._bellman_ford(edges, "X") is None
        assert lc._bellman_ford([]) == {}

    def test_difference_path_is_exact_past_the_atom_cap(self, monkeypatch):
        # Elimination past the cap would answer "unknown", read as
        # satisfiable; the graph has no cap and finds the cycle.
        monkeypatch.setattr(lc, "ATOM_LIMIT", 0)
        conj = {atom_lt("P", "Q"), atom_lt("Q", "S"), atom_lt("S", "P")}
        assert not is_satisfiable(conj)


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

    def test_elimination_tightens_before_projecting(self):
        assert lc.eliminate_outside(_PARITY_GAP, {"X"}) == frozenset({FALSE})
        assert project(_PARITY_GAP, {"X"}) == frozenset({atom_gt("X", 0), atom_lt("X", 2)})

    def test_elimination_past_the_cap_returns_its_input(self, monkeypatch):
        monkeypatch.setattr(lc, "ATOM_LIMIT", 1)
        conj = frozenset({atom_lt("X", "T"), atom_lt("Y", "T"), atom_lt("T", "A"), atom_lt("T", "B")})
        assert lc.eliminate_outside(conj, {"X", "Y", "A", "B"}) == conj


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


# Tightening before elimination keeps integer precision: eliminating Z
# first would leave 0 < X < 2, which tightens to the satisfiable X = 1.
_PARITY_GAP = frozenset(
    {
        make_atom(X().scale(-1) + X("Z").scale(2), EQ),
        make_atom(X("Z").scale(-1), LT),
        make_atom(X("Z") - 1, LT),
    }
)


@settings(deadline=None)
@given(_conjunctions(), _atoms())
@example(_PARITY_GAP, make_atom(X(), LE))
def test_elimination_keeps_verdicts_on_kept_variables(conj, atom):
    kept = {"X", "Y"}
    atom = make_atom(substitute(atom.expr, {"Z": "Y"}), atom.rel)
    projected = lc.eliminate_outside(conj, kept)
    assert conjunction_variables(projected) <= kept
    assert is_satisfiable(projected) == is_satisfiable(conj)
    assert is_satisfiable(projected | {atom}) == is_satisfiable(conj | {atom})
    assert implies(projected, atom) == implies(conj, atom)


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


@settings(deadline=None)
@given(_conjunctions(), st.permutations(["X", "Y", "Z", "d1", "d2", "d3"]))
def test_rename_equals_the_substitution_round_trip(conj, images):
    # A one-to-one renaming of X, Y and Z, possibly onto each other;
    # a variable that keeps its name is left out of the mapping.
    mapping = {v: image for v, image in zip("XYZ", images) if image != v}
    expected = lc.conjunction(make_atom(substitute(a.expr, mapping), a.rel) for a in conj)
    assert rename(conj, mapping) == expected


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


_difference_names = st.sampled_from(["W", "X", "Y", "Z"])


@st.composite
def _difference_atoms(draw, scales=st.just(1)):
    """``±k*x + c rel 0`` or ``k*(x - y) + c rel 0`` with c in -8..8 and
    k drawn from `scales`, 1 by default."""
    x, y = draw(_difference_names), draw(st.one_of(st.none(), _difference_names))
    sign = draw(st.sampled_from([1, -1])) * draw(scales)
    coeffs = {x: sign} if y in (None, x) else {x: sign, y: -sign}
    return make_atom(LinExpr.build(coeffs, draw(_coeffs)), draw(st.sampled_from([LT, LE, EQ])))


@st.composite
def _difference_conjunctions(draw):
    """A conjunction of difference atoms, sometimes with one atom of any
    shape mixed in, and whether it was drawn from difference atoms only."""
    atoms = draw(st.lists(_difference_atoms(), max_size=6))
    mixed = draw(st.lists(_atoms(), max_size=1))
    return frozenset(atoms + mixed), not mixed


@settings(deadline=None)
@given(_difference_conjunctions())
@example((frozenset({atom_lt("X", "Y"), atom_lt("Y", "Z"), atom_le("Z", "X")}), True))
@example((frozenset({atom_eq("X", X("Y") + 1), atom_le("X", "Y"), atom_lt("W", 3)}), True))
@example((frozenset({atom_le("X", "Y"), make_atom(LinExpr.build({"X": 2, "Z": 3}, 1), EQ)}), False))
def test_difference_verdicts_match_elimination(drawn):
    conj, pure = drawn
    verdict = lc._solve_sat(conj)
    tightened = [lc._tighten(a) for a in conj]
    assert verdict == (lc._eliminate(tightened, frozenset()) is not None)
    names = conjunction_variables(conj)
    if len(names) <= 3:
        # A satisfiable difference conjunction over n variables whose
        # tightened constants are at most 9 in size has an integer
        # solution within 9*n of zero (shortest paths over n + 1 nodes),
        # so on pure ones the grid decides both ways.
        on_grid = grid_oracle.grid_satisfiable(conj, names, -27, 27)
        assert verdict or not on_grid
        if pure:
            assert verdict == on_grid


@settings(deadline=None)
@given(st.lists(st.one_of(_difference_atoms(st.integers(1, 3)), _atoms()), max_size=5))
@example([make_atom(LinExpr.build({"X": 2}, 1), LT), atom_lt("X", "Y")])
def test_unit_strict_atoms_need_no_tightening(atoms):
    # `difference_graph` adds one to the constant of a strict atom whose
    # coefficients are all ±1 and tightens every other one.
    assert lc.difference_graph(atoms) == lc.difference_graph([lc._tighten(a) for a in atoms])


@settings(deadline=None)
@given(_difference_conjunctions())
@example((frozenset({atom_lt("X", "Y"), atom_lt("Y", "Z"), atom_le("Z", "X")}), True))
@example((frozenset({atom_eq("X", X("Y") + 1), atom_lt("Y", -4), atom_ge("W", 3)}), True))
def test_difference_point_solves_its_conjunction(drawn):
    # A point exactly when the conjunction is a satisfiable difference
    # conjunction: an integer value for each of its variables that makes
    # every atom true.
    conj, _ = drawn
    point = lc.difference_point(conj)
    if lc.difference_graph(conj) is None or not is_satisfiable(conj):
        assert point is None
        return
    assert set(point) == conjunction_variables(conj)
    assert all(isinstance(value, int) for value in point.values())
    assert all(lc.atom_is_true(make_atom(substitute(a.expr, point), a.rel)) for a in conj)

"""Abstraction-domain tests: comparison discovery, partition building,
unfolding, and propagation across positions.

Extended-domain sizes (44, 27, 13) are frozen from the brute-force sign
enumeration in domain_census.py, which recounts them without going
through the permuted-copy product."""

import json
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_program
from family_digests import FAMILY_DIGESTS
from helpers import atom_reference, linear_term_reference, product_reference, program_text
from test_acceptance import CORPUS

from termiarith import domain as domain_module
from termiarith.constraints import (
    EQ,
    LE,
    LT,
    RELATIONS,
    LinExpr,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    conjunction,
    is_satisfiable,
    make_atom,
    negate_atom,
    render_atom,
    simplify,
)
from termiarith.domain import (
    DomainTooLarge,
    pass_through_positions,
    without_pass_through,
    answer_positions,
    build_domain,
    clause_constraint,
    collect_answer_comparisons,
    collect_comparisons,
    extend_domain,
    infer_comparisons,
    influence_components,
    linear_atom,
    linear_term,
    literal_atoms,
    position_var,
    query_positions,
    resolvents,
    satisfiable_choices,
    sign_atoms,
    sign_levels,
    unfold_once,
)
from termiarith.graph import find_integer_loops
from termiarith.modes import infer_argument_modes
from termiarith.pairs import ROW_DOMAIN, _value_bindings
from termiarith.syntax import (
    MODE_INT,
    AtomConst,
    Clause,
    Comparison,
    Compound,
    FloatConst,
    IntConst,
    Is,
    UserAtom,
    Var,
    normalize_program,
    parse_program,
    parse_query_pattern,
)

A1 = LinExpr.var("arg1")
A2 = LinExpr.var("arg2")
A3 = LinExpr.var("arg3")


def loop_setup(source_or_name, query, inline=False):
    if inline:
        program = normalize_program(parse_program(source_or_name))
    else:
        program = corpus_program(source_or_name)
    pattern = parse_query_pattern(query)
    modes = infer_argument_modes(program, pattern)
    loops = find_integer_loops(program, pattern, modes)
    (loop,) = [l for l in loops if pattern.key in l.predicates]
    return program, pattern, modes, loop


def holds(atom, env):
    total = atom.expr.const + sum(
        atom.expr.coeff(v) * env[v] for v in atom.expr.variables()
    )
    if atom.rel == LT:
        return total < 0
    if atom.rel == LE:
        return total <= 0
    return total == 0


def members(elements, env):
    return [e for e in elements if all(holds(a, env) for a in e)]


class TestPositions:
    def test_query_positions_follow_call_modes(self):
        _, _, modes, loop = loop_setup("mod", "mod(i,i,f)")
        assert query_positions(loop, modes) == {("mod", 3): (0, 1)}

    def test_answer_positions_follow_integer_typing(self):
        _, _, modes, loop = loop_setup("mod", "mod(i,i,f)")
        assert answer_positions(loop, modes) == {("mod", 3): (0, 1, 2)}

    def test_free_output_still_integer_typed(self):
        _, _, modes, loop = loop_setup("mc91", "mc_carthy_91(i,f)")
        assert query_positions(loop, modes) == {("mc_carthy_91", 2): (0,)}
        assert answer_positions(loop, modes) == {("mc_carthy_91", 2): (0, 1)}

    def test_structural_positions_excluded(self):
        _, _, modes, loop = loop_setup("q_mixed", "q(b,f,i)")
        assert query_positions(loop, modes) == {("q", 3): (2,)}
        assert answer_positions(loop, modes) == {("q", 3): (2,)}


_terms = st.recursive(
    st.one_of(
        st.builds(Var, st.sampled_from(["X", "Y", "Z"])),
        st.builds(IntConst, st.integers(min_value=-6, max_value=6)),
        st.sampled_from([FloatConst("1.5"), AtomConst("a")]),
    ),
    lambda inner: st.one_of(
        st.builds(lambda op, a, b: Compound(op, (a, b)), st.sampled_from("+-*/"), inner, inner),
        st.builds(lambda a: Compound("-", (a,)), inner),
    ),
    max_leaves=8,
)


class TestLinearTerm:
    def test_plus_and_minus(self):
        term = Compound("-", (Compound("+", (Var("X"), IntConst(1))), Var("Y")))
        assert linear_term(term) == LinExpr.var("X") + 1 - LinExpr.var("Y")

    def test_unary_minus(self):
        assert linear_term(Compound("-", (Var("X"),))) == -LinExpr.var("X")

    def test_constant_multiplication(self):
        term = Compound("*", (IntConst(3), Var("X")))
        assert linear_term(term) == LinExpr.var("X").scale(3)

    def test_nonlinear_multiplication_rejected(self):
        assert linear_term(Compound("*", (Var("X"), Var("Y")))) is None

    def test_division_rejected(self):
        assert linear_term(Compound("/", (Var("X"), IntConst(2)))) is None

    @settings(deadline=None)
    @given(_terms, st.sampled_from(sorted(RELATIONS)), _terms)
    @example(Compound("*", (Var("X"), IntConst(3))), ">=", Compound("-", (Var("X"),)))
    @example(Compound("*", (Compound("-", (Var("X"), Var("X"))), Var("Y"))), "<", IntConst(0))
    @example(Compound("*", (Var("X"), Var("Y"))), "=", Var("X"))
    @example(Var("X"), ">", Compound("/", (Var("X"), IntConst(2))))
    def test_one_pass_builders_match_the_generic_reference(self, lhs, op, rhs):
        expected = atom_reference(lhs, op, rhs)
        assert linear_term(lhs) == linear_term_reference(lhs)
        assert linear_atom(lhs, op, rhs) == expected
        literal = Is(lhs, rhs) if op == "=" else Comparison(lhs, op, rhs)
        assert literal_atoms(literal) == ([] if expected is None else [expected])
        binding = atom_reference(Var("d1"), "=", rhs)
        assert _value_bindings((MODE_INT,), (rhs,), ROW_DOMAIN) == ([] if binding is None else [binding])
        if isinstance(rhs, (Var, IntConst)):
            head = Clause(UserAtom("p", (rhs,)))
            assert clause_constraint(head, (0,)) == [atom_reference(Var("arg1"), "=", rhs)]
        left, right = linear_term(lhs), linear_term(rhs)
        if left is not None and right is not None:
            assert left - right == left + right.scale(-1)


class TestCollect:
    def test_keeps_guards_of_an_unsatisfiable_body(self):
        _, _, modes, loop = loop_setup("t", "t(i)")
        comparisons = collect_comparisons(loop, modes)
        assert comparisons == {
            ("t", 1): frozenset({atom_gt(A1, 5), atom_lt(A1, 8), atom_lt(A1, 2)})
        }

    def test_mod_guards(self):
        _, _, modes, loop = loop_setup("mod", "mod(i,i,f)")
        comparisons = collect_comparisons(loop, modes)
        assert comparisons == {
            ("mod", 3): frozenset({atom_ge(A1, A2), atom_gt(A2, 0)})
        }

    def test_only_the_recursive_clause_contributes(self):
        _, _, modes, loop = loop_setup("mc91", "mc_carthy_91(i,f)")
        comparisons = collect_comparisons(loop, modes)
        assert comparisons == {("mc_carthy_91", 2): frozenset({atom_le(A1, 100)})}

    def test_comparisons_on_other_variables_are_dropped(self):
        _, _, modes, loop = loop_setup("q_mixed", "q(b,f,i)")
        comparisons = collect_comparisons(loop, modes)
        assert comparisons == {
            ("q", 3): frozenset({atom_gt(A3, 0), atom_le(A3, 0)})
        }

    def test_constant_in_head_position_blocks_collection(self):
        for name, query in [("gcd", "gcd(i,i,f)"), ("p_difficult", "p(i,i)"), ("p_int", "p(i)")]:
            _, _, modes, loop = loop_setup(name, query)
            assert collect_comparisons(loop, modes) is None

    def test_repeated_head_variable_blocks_collection(self):
        source = "p(X, X) :- X > 0, Y is X - 1, p(Y, Y).\n"
        _, _, modes, loop = loop_setup(source, "p(i,i)", inline=True)
        assert collect_comparisons(loop, modes) is None


class TestPassThrough:
    def test_chain_passes_all_but_its_counter(self):
        source = "c(X, Y, Z) :- X > 0, X < Y, Y < Z, W is X - 1, c(W, Y, Z).\n"
        _, _, modes, loop = loop_setup(source, "c(i,i,i)", inline=True)
        assert pass_through_positions(loop) == {1, 2}
        assert without_pass_through(loop, collect_comparisons(loop, modes)) == {
            ("c", 3): frozenset({atom_gt(A1, 0), atom_lt(A1, A2)})
        }

    def test_swapping_loop_keeps_all_its_atoms(self):
        source = "p(A, B) :- A > 0, B > 0, C is A - 1, p(B, C).\n"
        _, _, modes, loop = loop_setup(source, "p(i,i)", inline=True)
        collected = collect_comparisons(loop, modes)
        assert pass_through_positions(loop) == frozenset()
        assert without_pass_through(loop, collected) == collected

    def test_position_must_pass_through_every_call_of_the_component(self):
        # N is passed on by both predicates' calls; X changes.  Atoms
        # over N alone go, atoms that mention X stay.
        source = (
            "p(X, N) :- X > 0, N > 0, X < N, Y is X - 1, q(Y, N).\n"
            "q(X, N) :- X > 1, N < 100, Y is X - 2, p(Y, N).\n"
        )
        _, _, modes, loop = loop_setup(source, "p(i,i)", inline=True)
        assert loop.predicates == {("p", 2), ("q", 2)}
        assert pass_through_positions(loop) == {1}
        collected = collect_comparisons(loop, modes)
        assert collected == {
            ("p", 2): frozenset({atom_gt(A1, 0), atom_gt(A2, 0), atom_lt(A1, A2)}),
            ("q", 2): frozenset({atom_gt(A1, 1), atom_lt(A2, 100)}),
        }
        assert without_pass_through(loop, collected) == {
            ("p", 2): frozenset({atom_gt(A1, 0), atom_lt(A1, A2)}),
            ("q", 2): frozenset({atom_gt(A1, 1)}),
        }
        # q passing N on as its first argument passes nothing through.
        swapped = source.replace("p(Y, N)", "p(N, Y)")
        _, _, _, loop = loop_setup(swapped, "p(i,i)", inline=True)
        assert pass_through_positions(loop) == frozenset()


class TestCollectAnswers:
    def test_mod_alias_copies(self):
        _, _, modes, loop = loop_setup("mod", "mod(i,i,f)")
        comparisons = collect_answer_comparisons(loop, modes)
        assert comparisons == {
            ("mod", 3): frozenset(
                {
                    atom_ge(A1, A2),
                    atom_gt(A2, 0),
                    atom_lt(A1, A2),
                    atom_ge(A1, 0),
                    atom_ge(A1, A3),
                    atom_le(A1, A3),
                    atom_lt(A3, A2),
                }
            )
        }

    def test_aliases_copy_only_variable_comparisons(self):
        _, _, modes, loop = loop_setup("mod", "mod(i,i,f)")
        rendered = {
            render_atom(a)
            for a in collect_answer_comparisons(loop, modes)[("mod", 3)]
        }
        assert "arg3 >= 0" not in rendered

    def test_nonrecursive_clause_contributes(self):
        _, _, modes, loop = loop_setup("r", "r(i)")
        assert collect_answer_comparisons(loop, modes) == {
            ("r", 1): frozenset({atom_gt(A1, 0)})
        }


class TestInfer:
    def test_extends_collection(self):
        for name, query in [
            ("t", "t(i)"),
            ("mod", "mod(i,i,f)"),
            ("mc91", "mc_carthy_91(i,f)"),
            ("q_mixed", "q(b,f,i)"),
        ]:
            _, _, modes, loop = loop_setup(name, query)
            collected = collect_comparisons(loop, modes)
            inferred = infer_comparisons(loop, modes)
            for key, atoms in collected.items():
                assert atoms <= inferred[key]

    def test_unsatisfiable_body_keeps_its_guards(self):
        _, _, modes, loop = loop_setup("t", "t(i)")
        assert infer_comparisons(loop, modes) == collect_comparisons(loop, modes)

    def test_head_constants_become_split_equalities(self):
        _, _, modes, loop = loop_setup("gcd", "gcd(i,i,f)")
        assert infer_comparisons(loop, modes) == {
            ("gcd", 3): frozenset(
                {atom_gt(A2, 0), atom_gt(A1, 0), atom_le(A2, 0), atom_ge(A2, 0)}
            )
        }

    def test_counting_loop(self):
        _, _, modes, loop = loop_setup("p_int", "p(i)")
        assert infer_comparisons(loop, modes) == {
            ("p", 1): frozenset({atom_gt(A1, 0), atom_le(A1, 0), atom_ge(A1, 0)})
        }

    def test_projection_hides_the_output_relation(self):
        _, _, modes, loop = loop_setup("mc91", "mc_carthy_91(i,f)")
        inferred = infer_comparisons(loop, modes)
        assert inferred == {
            ("mc_carthy_91", 2): frozenset({atom_le(A1, 100), atom_gt(A1, 100)})
        }

    def test_difficult_loop(self):
        _, _, modes, loop = loop_setup("p_difficult", "p(i,i)")
        assert infer_comparisons(loop, modes) == {
            ("p", 2): frozenset(
                {
                    atom_gt(A1, 0),
                    atom_le(A1, 0),
                    atom_ge(A1, 0),
                    atom_lt(A1, A2),
                    atom_ge(A1, A2),
                }
            )
        }


class TestBuildDomain:
    def test_guard_partition(self):
        _, _, modes, loop = loop_setup("t", "t(i)")
        domain = build_domain(collect_comparisons(loop, modes))
        assert set(domain[("t", 1)]) == {
            conjunction([atom_lt(A1, 2)]),
            conjunction([atom_ge(A1, 2), atom_le(A1, 5)]),
            conjunction([atom_gt(A1, 5), atom_lt(A1, 8)]),
            conjunction([atom_ge(A1, 8)]),
        }

    def test_mod_partition(self):
        _, _, modes, loop = loop_setup("mod", "mod(i,i,f)")
        domain = build_domain(collect_comparisons(loop, modes))
        assert set(domain[("mod", 3)]) == {
            conjunction([atom_ge(A1, A2), atom_gt(A2, 0)]),
            conjunction([atom_ge(A1, A2), atom_le(A2, 0)]),
            conjunction([atom_lt(A1, A2), atom_gt(A2, 0)]),
            conjunction([atom_lt(A1, A2), atom_le(A2, 0)]),
        }

    def test_empty_comparisons_single_element(self):
        assert build_domain({("p", 1): frozenset()}) == {("p", 1): (frozenset(),)}

    def test_partition_properties(self):
        for name, query, lo, hi in [
            ("t", "t(i)", -3, 10),
            ("mc91", "mc_carthy_91(i,f)", 95, 105),
            ("p_int", "p(i)", -2, 3),
        ]:
            _, _, modes, loop = loop_setup(name, query)
            comparisons = collect_comparisons(loop, modes) or infer_comparisons(loop, modes)
            elements = build_domain(comparisons)[next(iter(loop.predicates))]
            for element in elements:
                assert is_satisfiable(element)
            for value in range(lo, hi):
                assert len(members(elements, {"arg1": value})) == 1

    def test_two_variable_partition_is_exhaustive(self):
        _, _, modes, loop = loop_setup("mod", "mod(i,i,f)")
        elements = build_domain(collect_comparisons(loop, modes))[("mod", 3)]
        for a, b in product(range(-3, 4), repeat=2):
            assert len(members(elements, {"arg1": a, "arg2": b})) == 1

    def test_disjointness(self):
        _, _, modes, loop = loop_setup("p_difficult", "p(i,i)")
        elements = build_domain(infer_comparisons(loop, modes))[("p", 2)]
        for i, first in enumerate(elements):
            for second in elements[i + 1 :]:
                assert not is_satisfiable(conjunction(first | second))

    def test_cap(self, monkeypatch):
        # Independent atoms: every sign assignment is satisfiable, so k
        # atoms take 2**(k+1) - 1 checks, 31 for four and 63 for five.
        monkeypatch.setattr(domain_module, "PARTITION_BUDGET", 2**5)
        atoms = [atom_gt(LinExpr.var(f"arg{i}"), 0) for i in range(1, 6)]
        assert len(build_domain({("p", 4): frozenset(atoms[:4])})[("p", 4)]) == 16
        with pytest.raises(
            DomainTooLarge,
            match="^comparison set of p/5 has 5 atoms; its partition needs more than 32 solver checks$",
        ):
            build_domain({("p", 5): frozenset(atoms)})

    def test_equalities_rejected(self):
        with pytest.raises(ValueError):
            build_domain({("p", 1): frozenset({atom_eq(A1, 0)})})
        with pytest.raises(ValueError):
            sign_atoms(frozenset({atom_eq(A1, 0)}))

    def test_sign_atoms_keep_one_atom_of_each_negation_pair(self):
        # arg1 > 0, that is -arg1 < 0, comes before its negation
        # arg1 =< 0 in canonical order, so it alone gets a level.
        atoms = frozenset({atom_gt(A1, 0), atom_le(A1, 0), atom_lt(A1, A2)})
        assert atom_gt(A1, 0) < atom_le(A1, 0)
        assert sign_atoms(atoms) == (atom_gt(A1, 0), atom_lt(A1, A2))

    def test_an_atom_and_its_negation_share_one_level(self, monkeypatch):
        # guard-6's 11 collected atoms hold 5 pairs X =< c, X > c: its
        # sign tree takes 43 checks, not the 113 of one level per atom.
        fixture = json.loads(FAMILY_DIGESTS.read_text())["guard-6"]
        _, _, modes, loop = loop_setup(fixture["source"], fixture["query"], inline=True)
        comparisons = collect_comparisons(loop, modes)
        checks = []
        satisfiable = domain_module.is_satisfiable
        monkeypatch.setattr(
            domain_module, "is_satisfiable", lambda conj: checks.append(conj) or satisfiable(conj)
        )
        pieces = build_domain(comparisons)[("g", 1)]
        assert len(comparisons[("g", 1)]) == 11
        assert len(checks) == 43
        assert len(pieces) == 7

    def test_pieces_match_the_whole_sign_tree(self):
        # Every query and answer comparison set of the corpus and of the
        # seed-7 family tasks is partitioned into the pieces, in order,
        # of the sign tree with one level per atom.
        tasks = [(corpus_program(name), query) for name, query, _ in CORPUS]
        tasks += [
            (normalize_program(parse_program(task["source"])), task["query"])
            for task in json.loads(FAMILY_DIGESTS.read_text()).values()
        ]
        sets = paired = 0
        for program, query in tasks:
            pattern = parse_query_pattern(query)
            modes = infer_argument_modes(program, pattern)
            for loop in find_integer_loops(program, pattern, modes):
                collected = collect_comparisons(loop, modes)
                answers = infer_comparisons(loop, modes, answer_positions(loop, modes))
                candidates = [
                    infer_comparisons(loop, modes),
                    {k: a | answers[k] for k, a in collect_answer_comparisons(loop, modes).items()},
                ]
                if collected is not None:
                    candidates += [collected, without_pass_through(loop, collected)]
                for comparisons in candidates:
                    for key, atoms in comparisons.items():
                        whole = satisfiable_choices(frozenset(), sign_levels(sorted(atoms)))
                        assert build_domain({key: atoms})[key] == tuple(
                            simplify(piece) for _, piece in whole
                        ), (query, key)
                        sets += 1
                        paired += any(negate_atom(atom) in atoms for atom in atoms)
        # 710 of the 1,308 sets hold an atom and its negation.
        assert (sets, paired) == (1308, 710)


@st.composite
def _sign_atoms(draw, rels):
    names = ["arg1", "arg2"]
    coeffs = {n: draw(st.integers(min_value=-3, max_value=3)) for n in names}
    const = draw(st.integers(min_value=-6, max_value=6))
    return make_atom(LinExpr.build(coeffs, const), draw(st.sampled_from(rels)))


def signs_reference(atoms):
    """One level per atom: the atom labelled True, then its negation
    labelled False."""
    return [
        ((True, frozenset({a})), (False, frozenset({negate_atom(a)}))) for a in atoms
    ]


def sign_pieces_of(atoms, within=()):
    return [piece for _, piece in satisfiable_choices(conjunction(within), sign_levels(atoms))]


@st.composite
def _option_levels(draw):
    """Up to three levels of up to three labelled options, each a
    conjunction of up to two atoms."""
    options = st.lists(_sign_atoms([LT, LE, EQ]), max_size=2).map(conjunction)
    levels = draw(st.lists(st.lists(options, max_size=3), max_size=3))
    return [
        [(f"{i}.{j}", option) for j, option in enumerate(level)]
        for i, level in enumerate(levels)
    ]


class TestSatisfiableChoices:
    @settings(deadline=None)
    @given(st.lists(_sign_atoms([LT, LE, EQ]), max_size=2), _option_levels())
    def test_matches_the_filtered_product_in_order(self, base, levels):
        walked = satisfiable_choices(conjunction(base), levels)
        assert list(walked) == list(product_reference(base, levels))

    def test_unsatisfiable_base_yields_nothing(self):
        levels = [[("a", frozenset())]]
        base = conjunction([atom_lt(A1, 0), atom_gt(A1, 0)])
        assert list(satisfiable_choices(base, levels)) == []

    @pytest.mark.parametrize("budget", [1, 2, 8, 14])
    def test_budget_raises_on_the_check_past_it(self, monkeypatch, budget):
        calls = []

        def counted(conj):
            calls.append(conj)
            return is_satisfiable(conj)

        monkeypatch.setattr(domain_module, "is_satisfiable", counted)
        # Three independent atoms: the full sign tree, 15 checks with the base.
        levels = sign_levels([atom_gt(LinExpr.var(f"arg{i}"), 0) for i in (1, 2, 3)])
        with pytest.raises(DomainTooLarge):
            list(satisfiable_choices(frozenset(), levels, budget))
        assert len(calls) == budget
        calls.clear()
        assert len(list(satisfiable_choices(frozenset(), levels, 15))) == 8
        assert len(calls) == 15


class TestSignPieces:
    @settings(deadline=None)
    @given(
        st.lists(_sign_atoms([LT, LE]), max_size=5),
        st.one_of(st.just([]), st.lists(_sign_atoms([LT, LE, EQ]), min_size=1, max_size=3)),
    )
    def test_matches_the_satisfiable_assignments_in_order(self, atoms, within):
        assert list(satisfiable_choices(conjunction(within), sign_levels(atoms))) == list(
            product_reference(within, signs_reference(atoms))
        )

    def test_unsatisfiable_prefixes_are_not_expanded(self, monkeypatch):
        calls = []

        def counting(conj):
            calls.append(conj)
            return is_satisfiable(conj)

        # patched where the walk looks it up
        monkeypatch.setattr(domain_module, "is_satisfiable", counting)
        thresholds = [atom_gt(A1, k) for k in range(12)]
        assert len(sign_pieces_of(thresholds)) == 13
        assert 13 <= len(calls) < 2 * 13 * 12
        assert sign_pieces_of([], [atom_lt(A1, 0), atom_gt(A1, 0)]) == []


class TestUnfold:
    def test_mc91_unfolds_into_guarded_clauses(self):
        program = corpus_program("mc91")
        unfolded = unfold_once(program, 1, 2)
        assert program_text(unfolded).strip().splitlines() == [
            "mc_carthy_91(X, Y) :- X > 100, Y is X - 10.",
            "mc_carthy_91(X, Y) :- X =< 100, X_u1 is X + 11, X_u1 > 100,"
            " Y_u1 is X_u1 - 10, mc_carthy_91(Y_u1, Y).",
            "mc_carthy_91(X, Y) :- X =< 100, X_u1 is X + 11, X_u1 =< 100,"
            " Z_u1 is X_u1 + 11, mc_carthy_91(Z_u1, Z1_u1),"
            " mc_carthy_91(Z1_u1, Y_u1), mc_carthy_91(Y_u1, Y).",
        ]

    def test_unfolding_splices_the_resolvents_in(self):
        # gcd's recursive clause, its call gcd(Y, U, Z) resolved with
        # both gcd clauses, lands between the clauses around it.
        program = corpus_program("gcd")
        found = resolvents(program, 1, 2)
        assert [c.key for c in found] == [("gcd", 3)] * 2
        clauses = program.clauses
        assert unfold_once(program, 1, 2).clauses == clauses[:1] + found + clauses[2:]

    def test_unfolded_program_is_already_normal(self):
        program = corpus_program("mc91")
        unfolded = unfold_once(program, 1, 2)
        assert normalize_program(unfolded) == unfolded

    def test_inference_after_unfolding_finds_the_inner_threshold(self):
        program = corpus_program("mc91")
        unfolded = unfold_once(program, 1, 2)
        pattern = parse_query_pattern("mc_carthy_91(i,f)")
        modes = infer_argument_modes(unfolded, pattern)
        (loop,) = find_integer_loops(unfolded, pattern, modes)
        inferred = infer_comparisons(loop, modes)
        assert inferred == {
            ("mc_carthy_91", 2): frozenset(
                {
                    atom_le(A1, 89),
                    atom_gt(A1, 89),
                    atom_le(A1, 100),
                    atom_gt(A1, 100),
                }
            )
        }
        domain = build_domain(inferred)
        assert set(domain[("mc_carthy_91", 2)]) == {
            conjunction([atom_le(A1, 89)]),
            conjunction([atom_gt(A1, 89), atom_le(A1, 100)]),
            conjunction([atom_gt(A1, 100)]),
        }

    def test_only_user_atoms_unfold(self):
        program = corpus_program("mc91")
        with pytest.raises(ValueError):
            unfold_once(program, 1, 0)

    def test_no_matching_clause_deletes(self):
        program = normalize_program(parse_program("q(X) :- p(X).\np(a).\nq(0).\n"))
        unfolded = unfold_once(program, 0, 0)
        assert program_text(unfolded).strip().splitlines() == [
            "q(a).",
            "p(a).",
            "q(0).",
        ]
        deleted = unfold_once(
            normalize_program(parse_program("q(X) :- p(s(X)).\np(0).\nq(1).\n")), 0, 0
        )
        assert program_text(deleted).strip().splitlines() == ["p(0).", "q(1)."]

    def test_resolution_against_facts(self):
        program = normalize_program(parse_program("q(X) :- p(X), r(X).\np(0).\nr(0).\n"))
        unfolded = unfold_once(program, 0, 0)
        assert program_text(unfolded).strip().splitlines() == [
            "q(0) :- r(0).",
            "p(0).",
            "r(0).",
        ]

    def test_a_head_the_selected_atom_occurs_in_does_not_resolve(self):
        # q(Z, f(Z)) against q(X, X) needs Z = f(Z); without the occurs
        # check the cyclic binding sent apply_subst into RecursionError.
        program = normalize_program(
            parse_program("q(X, X).\nq(N, Y) :- N > 0, q(Z, f(Z)), q(Z, Y).\n")
        )
        unfolded = unfold_once(program, 1, 1)
        assert program_text(unfolded).strip().splitlines() == [
            "q(X, X).",
            "q(N, Y) :- N > 0, N_u1 > 0, q(Z_u1, f(Z_u1)), q(Z_u1, f(N_u1)), q(N_u1, Y).",
        ]


class TestInfluence:
    def test_output_linked_through_arithmetic(self):
        _, _, modes, loop = loop_setup("mc91", "mc_carthy_91(i,f)")
        assert influence_components(loop, ("mc_carthy_91", 2)) == ((0, 1),)

    def test_structural_and_numeric_positions_stay_apart(self):
        _, _, modes, loop = loop_setup("q_mixed", "q(b,f,i)")
        assert influence_components(loop, ("q", 3)) == ((0, 1), (2,))

    def test_shared_head_variable_links_positions(self):
        _, _, modes, loop = loop_setup("gcd", "gcd(i,i,f)")
        assert influence_components(loop, ("gcd", 3)) == ((0, 1, 2),)

    def test_single_position(self):
        _, _, modes, loop = loop_setup("p_int", "p(i)")
        assert influence_components(loop, ("p", 1)) == ((0,),)


def uncovered(loop, modes):
    """Per predicate, the integer-typed positions that no collected
    answer comparison mentions.  The inferred comparisons mention each
    of them, so every answer partition bounds every position."""
    collected = collect_answer_comparisons(loop, modes)
    inferred = infer_comparisons(loop, modes, positions=answer_positions(loop, modes))
    out = {}
    for key, positions in answer_positions(loop, modes).items():
        out[key] = tuple(j for j in positions if not _mention(collected[key], j))
        assert all(_mention(inferred[key], j) for j in out[key])
    return out


def _mention(atoms, position):
    return any(position_var(position) in atom.expr.variables() for atom in atoms)


class TestUnconstrained:
    def test_mc91_output_is_uncovered(self):
        _, _, modes, loop = loop_setup("mc91", "mc_carthy_91(i,f)")
        assert uncovered(loop, modes) == {("mc_carthy_91", 2): (1,)}

    def test_mod_output_is_covered(self):
        _, _, modes, loop = loop_setup("mod", "mod(i,i,f)")
        assert uncovered(loop, modes) == {("mod", 3): ()}

    def test_gcd_output_is_uncovered(self):
        _, _, modes, loop = loop_setup("gcd", "gcd(i,i,f)")
        assert uncovered(loop, modes) == {("gcd", 3): (2,)}


class TestExtendDomain:
    def mc91_extension(self):
        program = corpus_program("mc91")
        unfolded = unfold_once(program, 1, 2)
        pattern = parse_query_pattern("mc_carthy_91(i,f)")
        modes = infer_argument_modes(unfolded, pattern)
        (loop,) = find_integer_loops(unfolded, pattern, modes)
        domain = build_domain(infer_comparisons(loop, modes))
        return extend_domain(domain, loop), loop

    def test_mc91_pairs(self):
        extended, _ = self.mc91_extension()
        expected = {
            conjunction(first + second)
            for first in [[atom_le(A1, 89)], [atom_gt(A1, 89), atom_le(A1, 100)], [atom_gt(A1, 100)]]
            for second in [[atom_le(A2, 89)], [atom_gt(A2, 89), atom_le(A2, 100)], [atom_gt(A2, 100)]]
        }
        assert set(extended.elements[("mc_carthy_91", 2)]) == expected
        assert extended.notes == ()

    def test_mc91_extension_refines_the_domain(self):
        extended, loop = self.mc91_extension()
        for element in extended.elements[("mc_carthy_91", 2)]:
            assert is_satisfiable(element)

    def test_counts_match_brute_force_census(self):
        for name, query, comparisons_of, count in [
            ("mod", "mod(i,i,f)", collect_comparisons, 44),
            ("gcd", "gcd(i,i,f)", infer_comparisons, 27),
            ("p_difficult", "p(i,i)", infer_comparisons, 13),
        ]:
            _, pattern, modes, loop = loop_setup(name, query)
            domain = build_domain(comparisons_of(loop, modes))
            extended = extend_domain(domain, loop)
            assert len(extended.elements[pattern.key]) == count, name

    def test_isolated_component_keeps_domain(self):
        _, _, modes, loop = loop_setup("q_mixed", "q(b,f,i)")
        domain = build_domain(collect_comparisons(loop, modes))
        extended = extend_domain(domain, loop)
        assert extended.elements == domain

    def test_wide_component_skipped_with_note(self, monkeypatch):
        source = (
            "p(A, B, C, D, E) :- A > 0, S is A + B + C + D + E, S > 0,"
            " p(B, C, D, E, A).\n"
        )
        _, _, modes, loop = loop_setup(source, "p(i,i,i,i,i)", inline=True)
        domain = build_domain(infer_comparisons(loop, modes))
        # The 5-position component has 120 permutations.
        monkeypatch.setattr(domain_module, "PARTITION_BUDGET", 100)
        calls = []
        monkeypatch.setattr(domain_module, "permutations", lambda c: calls.append(c) or ())
        extended = extend_domain(domain, loop)
        assert extended.elements == domain
        assert extended.notes == (
            "p/5: propagating the domain passed the budget of 100 permutations"
            " and solver checks, keeping the original domain",
        )
        assert calls == []

    def test_product_cap_keeps_domain_with_note(self, monkeypatch):
        _, _, modes, loop = loop_setup("mod", "mod(i,i,f)")
        domain = build_domain(collect_comparisons(loop, modes))
        monkeypatch.setattr(domain_module, "PARTITION_BUDGET", 8)
        extended = extend_domain(domain, loop)
        assert extended.elements == domain
        assert extended.notes == (
            "mod/3: propagating the domain passed the budget of 8 permutations"
            " and solver checks, keeping the original domain",
        )

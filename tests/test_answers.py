"""Abstract answer-table tests: widening targets, the fixpoint, and the
published tables for the corpus loops."""

from itertools import product

import pytest

from conftest import corpus_program
from test_acceptance import CORPUS
from helpers import answers_reference, driver_calls, widen

from termiarith import answers, driver
from termiarith.answers import (
    build_answer_domain,
    call_option,
    compute_abstract_answers,
    instantiate_element,
)
from termiarith.constraints import (
    LE,
    LT,
    LinExpr,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    atom_is_true,
    conjunction,
    implies,
)
from termiarith.domain import (
    build_domain,
    collect_comparisons,
    infer_comparisons,
    satisfiable_choices,
    unfold_once,
)
from termiarith.driver import analyse_termination
from termiarith.graph import find_integer_loops
from termiarith.modes import infer_argument_modes
from termiarith.syntax import (
    Compound,
    IntConst,
    Var,
    normalize_program,
    parse_program,
    parse_query_pattern,
)

A1 = LinExpr.var("arg1")
A2 = LinExpr.var("arg2")
A3 = LinExpr.var("arg3")


def analysis(name, query, unfold=None, used_inference=False, infer=False):
    program = corpus_program(name)
    if unfold is not None:
        program = unfold_once(program, *unfold)
    pattern = parse_query_pattern(query)
    modes = infer_argument_modes(program, pattern)
    loops = find_integer_loops(program, pattern, modes)
    domains = []
    for loop in loops:
        comparisons = None if infer else collect_comparisons(loop, modes)
        if comparisons is None:
            comparisons = infer_comparisons(loop, modes)
        query_domain = build_domain(comparisons)
        domains.append(
            build_answer_domain(loop, modes, query_domain, used_inference=used_inference)
        )
    table = compute_abstract_answers(loops, modes, domains)
    return table, domains, loops, modes


def holds(atom, env):
    total = atom.expr.const + sum(
        atom.expr.coeff(v) * env[v] for v in atom.expr.variables()
    )
    if atom.rel == LT:
        return total < 0
    if atom.rel == LE:
        return total <= 0
    return total == 0


class TestAnswerDomain:
    def test_mod_widens_into_the_answer_partition(self):
        _, domains, _, _ = analysis("mod", "mod(i,i,f)")
        (domain,) = domains
        assert len(domain.pieces[("mod", 3)]) == 24
        assert all(
            domain.pieces[("mod", 3)][piece] == piece
            for piece in domain.pieces[("mod", 3)]
        )

    def test_mod_partition_is_exhaustive_and_disjoint(self):
        _, domains, _, _ = analysis("mod", "mod(i,i,f)")
        pieces = domains[0].pieces[("mod", 3)]
        for a, b, c in product(range(-2, 4), repeat=3):
            env = {"arg1": a, "arg2": b, "arg3": c}
            assert sum(all(holds(atom, env) for atom in p) for p in pieces) == 1

    def test_mc91_refined_pieces_expose_propagated_elements(self):
        _, domains, _, _ = analysis(
            "mc91", "mc_carthy_91(i,f)", unfold=(1, 2), used_inference=True, infer=True
        )
        (domain,) = domains
        key = ("mc_carthy_91", 2)
        assert len(domain.pieces[key]) == 18
        assert len({domain.pieces[key][p] for p in domain.pieces[key]}) == 9
        assert domain.notes == ()

    def test_unpropagated_loop_reuses_its_partition(self):
        _, domains, _, _ = analysis("p_difficult", "p(i,i)", used_inference=True, infer=True)
        (domain,) = domains
        assert len(domain.pieces[("p", 2)]) == 6

    def test_refine_cap_leaves_widening_unrefined(self, monkeypatch):
        # mod's answer partition takes 107 checks.  gcd's propagation
        # needs more than 120 and keeps the 6-element query domain, and
        # refining that by 8 atoms needs more than 120 too.
        monkeypatch.setattr("termiarith.domain.PARTITION_BUDGET", 120)
        _, domains, _, _ = analysis("gcd", "gcd(i,i,f)", used_inference=True, infer=True)
        domain = [d for d in domains if ("gcd", 3) in d.pieces][0]
        assert domain.notes == (
            "gcd/3: propagating the domain passed the budget of 120"
            " permutations and solver checks, keeping the original domain",
            "gcd/3: refinement passed the budget of 120 solver checks;"
            " widening stays unrefined",
        )
        assert len(domain.pieces[("gcd", 3)]) == 6
        assert all(
            domain.pieces[("gcd", 3)][piece] == piece
            for piece in domain.pieces[("gcd", 3)]
        )

    def test_product_cap_leaves_widening_unrefined(self, monkeypatch):
        # extend_domain builds mc91's 9 propagated elements in 13 checks,
        # and the refinement into 18 pieces takes 72
        monkeypatch.setattr("termiarith.domain.PARTITION_BUDGET", 40)
        _, domains, _, _ = analysis(
            "mc91", "mc_carthy_91(i,f)", unfold=(1, 2), used_inference=True, infer=True
        )
        (domain,) = domains
        key = ("mc_carthy_91", 2)
        assert domain.notes == (
            "mc_carthy_91/2: refinement passed the budget of 40 solver checks;"
            " widening stays unrefined",
        )
        assert len(domain.pieces[key]) == 9
        assert all(domain.pieces[key][piece] == piece for piece in domain.pieces[key])


class TestWiden:
    def pieces(self):
        _, domains, _, _ = analysis(
            "mc91", "mc_carthy_91(i,f)", unfold=(1, 2), used_inference=True, infer=True
        )
        return domains[0]

    def test_point_lands_in_one_piece(self):
        domain = self.pieces()
        key = ("mc_carthy_91", 2)
        hits = widen([atom_eq(A1, 100), atom_eq(A2, 91)], domain.pieces[key])
        assert len(hits) == 1
        assert domain.pieces[key][hits[0]] == conjunction(
            [atom_gt(A1, 89), atom_le(A1, 100), atom_gt(A2, 89), atom_le(A2, 100)]
        )

    def test_open_constraint_hits_every_compatible_piece(self):
        _, domains, _, _ = analysis("mc91", "mc_carthy_91(i,f)", unfold=(1, 2), infer=True)
        elements = build_domain(
            {("mc_carthy_91", 2): frozenset({atom_le(A1, 89), atom_le(A1, 100)})}
        )[("mc_carthy_91", 2)]
        hits = widen([atom_gt(A1, 95)], elements)
        assert set(hits) == {
            conjunction([atom_gt(A1, 89), atom_le(A1, 100)]),
            conjunction([atom_gt(A1, 100)]),
        }

    def test_pieces_are_fixed_points(self):
        domain = self.pieces()
        for piece in domain.pieces[("mc_carthy_91", 2)]:
            assert widen(piece, domain.pieces[("mc_carthy_91", 2)]) == (piece,)

    def test_unsatisfiable_constraint_hits_nothing(self):
        domain = self.pieces()
        hits = widen(
            [atom_gt(A1, 100), atom_le(A1, 89)], domain.pieces[("mc_carthy_91", 2)]
        )
        assert hits == ()


class TestInstantiate:
    def test_constants_substitute_through(self):
        element = conjunction([atom_gt(A1, 0), atom_le(A2, A1)])
        atoms = instantiate_element(element, (IntConst(5), Var("W")))
        kept = [a for a in atoms if not atom_is_true(a)]
        assert kept == [atom_le(LinExpr.var("W"), 5)]

    def test_structural_argument_drops_its_constraints(self):
        element = conjunction([atom_gt(A1, 0), atom_gt(A2, 0)])
        atoms = instantiate_element(element, (Compound("s", (Var("X"),)), IntConst(3)))
        assert atoms == [atom_gt(LinExpr.of(3), 0)]


class TestTables:
    def test_mc91(self):
        table, _, _, _ = analysis(
            "mc91", "mc_carthy_91(i,f)", unfold=(1, 2), used_inference=True, infer=True
        )
        assert set(table[("mc_carthy_91", 2)]) == {
            conjunction([atom_gt(A1, 100), atom_gt(A2, 100)]),
            conjunction([atom_gt(A1, 100), atom_gt(A2, 89), atom_le(A2, 100)]),
            conjunction(
                [atom_gt(A1, 89), atom_le(A1, 100), atom_gt(A2, 89), atom_le(A2, 100)]
            ),
            conjunction([atom_le(A1, 89), atom_gt(A2, 89), atom_le(A2, 100)]),
        }

    def test_mod_entries_bound_the_output(self):
        table, _, _, _ = analysis("mod", "mod(i,i,f)")
        entries = table[("mod", 3)]
        assert len(entries) == 2
        assert all(implies(e, atom_lt(A3, A2)) for e in entries)

    def test_mod_exact_entries(self):
        table, _, _, _ = analysis("mod", "mod(i,i,f)")
        assert set(table[("mod", 3)]) == {
            conjunction(
                [atom_ge(A1, 0), atom_le(A3, A1), atom_le(A1, A3), atom_lt(A3, A2)]
            ),
            conjunction([atom_ge(A1, A2), atom_gt(A2, 0), atom_lt(A3, A2)]),
        }

    def test_gcd_uses_the_inner_table(self):
        table, _, _, _ = analysis("gcd", "gcd(i,i,f)", used_inference=True, infer=True)
        entries = table[("gcd", 3)]
        assert len(entries) == 3
        assert all(implies(e, atom_gt(A3, 0)) for e in entries)
        assert table == {
            ("mod", 3): (
                conjunction([atom_le(A2, A1), atom_gt(A2, 0), atom_lt(A3, A2)]),
                conjunction(
                    [atom_ge(A1, 0), atom_le(A3, A1), atom_le(A1, A3), atom_lt(A3, A2)]
                ),
            ),
            ("gcd", 3): (
                conjunction([atom_gt(A1, 0), atom_gt(A2, 0), atom_gt(A3, 0)]),
                conjunction(
                    [atom_gt(A1, 0), atom_ge(A2, 0), atom_le(A2, 0), atom_gt(A3, 0)]
                ),
                conjunction(
                    [atom_ge(A1, 0), atom_le(A1, 0), atom_gt(A2, 0), atom_gt(A3, 0)]
                ),
            ),
        }
        assert analysis("mod", "mod(i,i,f)")[0] == {("mod", 3): table[("mod", 3)]}

    def test_loop_without_successful_answers(self):
        table, _, _, _ = analysis("t", "t(i)")
        assert table[("t", 1)] == ()

    def test_counting_loop(self):
        table, _, _, _ = analysis("p_int", "p(i)", used_inference=True, infer=True)
        assert set(table[("p", 1)]) == {
            conjunction([atom_ge(A1, 0), atom_le(A1, 0)]),
            conjunction([atom_gt(A1, 0)]),
        }

    def test_structural_loop_succeeds_everywhere(self):
        table, _, _, _ = analysis("q_mixed", "q(b,f,i)")
        assert set(table[("q", 3)]) == {
            conjunction([atom_gt(A3, 0)]),
            conjunction([atom_le(A3, 0)]),
        }

    def test_difficult_loop(self):
        table, _, _, _ = analysis("p_difficult", "p(i,i)", used_inference=True, infer=True)
        assert set(table[("p", 2)]) == {
            conjunction([atom_ge(A1, 0), atom_le(A1, 0), atom_ge(A1, A2)]),
            conjunction([atom_ge(A1, 0), atom_le(A1, 0), atom_lt(A1, A2)]),
            conjunction([atom_gt(A1, 0), atom_ge(A1, A2)]),
            conjunction([atom_gt(A1, 0), atom_lt(A1, A2)]),
        }

    # Every corpus task but the acyclic `facts` ones has integer loops.
    @pytest.mark.parametrize("inferred", [False, True], ids=["collected", "inferred"])
    @pytest.mark.parametrize(
        "name,query", [(name, query) for name, query, _ in CORPUS if name != "facts"]
    )
    def test_entries_are_distinct_elements_in_partition_order(self, name, query, inferred):
        table, domains, _, _ = analysis(name, query, used_inference=inferred, infer=inferred)
        assert domains
        for answer_domain in domains:
            for key, pieces in answer_domain.pieces.items():
                entries = table[key]
                order = [e for e in dict.fromkeys(pieces.values()) if e in entries]
                assert list(entries) == order, key

    def test_tables_grow_monotonically_with_entries(self):
        table, domains, loops, modes = analysis("mod", "mod(i,i,f)")
        again = compute_abstract_answers(loops, modes, domains)
        assert again == table


# The divergent variants of the benchmark's chain, guard and nest
# families at parameter 2 (`perfbench/generators.py`): each climbs every
# rung, without and then with answers, and gets NO.
DIVERGENT = [
    "c(X, Z) :- X =< 17.\nc(X, Z) :- X > 17, X < Z, Y is X, c(Y, Z).\n",
    "g(X) :- X =< -3.\n"
    "g(X) :- X > -3, X =< 2, Y is X - 4, g(Y).\n"
    "g(X) :- X > 2, Y is X, g(Y).\n",
    "l1(X) :- X =< 5.\n"
    "l1(X) :- X > 5, Y is X - 1, l2(Y), l1(Y).\n"
    "l2(X) :- X =< 5.\n"
    "l2(X) :- X > 5, Y is X, l2(Y).\n",
]

# Two mutually recursive integer predicates: the recursive clause of p
# calls q and then p, so the fixpoint pivots over calls into both.
MUTUAL = (
    "p(X, Y) :- X =< 0, Y is 0.\n"
    "p(X, Y) :- X > 0, Z is X - 1, q(Z, W), p(W, Y).\n"
    "q(X, Y) :- X =< 0, Y is X.\n"
    "q(X, Y) :- X > 0, Z is X - 1, p(Z, Y).\n"
)


class TestAnswerReference:
    """On every answer rung the driver reaches, the tables equal the
    fixpoint that tests each piece against the unprojected candidate."""

    @pytest.mark.parametrize(
        "program,query,rungs",
        [
            # proved on the first answer rung
            (corpus_program("gcd"), "gcd(i,i,f)", 1),
            # proved on the unfold x1 rung, the third
            (corpus_program("mc91"), "mc_carthy_91(i,f)", 3),
            # Each clause of the chain and guard variants makes one call,
            # so no answer is read and no answer domain is built; the
            # nest variant reads l2/1's answers on every rung.
            *(
                (normalize_program(parse_program(source)), query, rungs)
                for source, query, rungs in zip(
                    DIVERGENT, ("c(i,i)", "g(i)", "l1(i)"), (0, 0, 3)
                )
            ),
            # proved on the first answer rung
            (normalize_program(parse_program(MUTUAL)), "p(i,f)", 1),
        ],
        ids=["gcd", "mc91", "chain-div-2", "guard-div-2", "nest-div-2", "mutual"],
    )
    def test_tables_match_unprojected_reference(self, monkeypatch, program, query, rungs):
        # The driver computes no table that no clause reads, so each
        # answer rung's table is computed here from the answer domains
        # the driver built: one per loop whose answers are read or that
        # such a loop calls, in loop order, with the rung program's modes.
        built = []

        def record(loop, modes, *args, **kwargs):
            built.append((loop, modes, build_answer_domain(loop, modes, *args, **kwargs)))
            return built[-1][2]

        monkeypatch.setattr(driver, "build_answer_domain", record)
        analyse_termination(program, parse_query_pattern(query))
        calls = []
        for loop, modes, answer_domain in built:
            if not calls or loop in calls[-1][0] or modes is not calls[-1][1]:
                calls.append(([], modes, []))
            calls[-1][0].append(loop)
            calls[-1][2].append(answer_domain)
        assert len(calls) == rungs
        for args in calls:
            table = compute_abstract_answers(*args)
            assert any(table.values())
            assert table == answers_reference(*args)


def test_each_rung_is_tried_plain_then_with_answers():
    verdict = analyse_termination(
        normalize_program(parse_program(DIVERGENT[1])), parse_query_pattern("g(i)")
    )
    assert verdict.answer == "NO"
    assert verdict.diagnostics == (
        "rung collected comparisons: 1 of 2 circular pairs proved",
        "rung collected comparisons + answer abstraction: 1 of 2 circular pairs proved",
        "rung inferred comparisons: 1 of 2 circular pairs proved",
        "rung inferred comparisons + answer abstraction: 1 of 2 circular pairs proved",
        "rung unfold x1 + inferred comparisons: 0 of 1 circular pairs proved",
        "rung unfold x1 + inferred comparisons + answer abstraction: 0 of 1 circular pairs proved",
    )


@pytest.mark.parametrize(
    "program,query,generated,tabled,answer_domains",
    [
        # Each clause makes one call, so no clause reads the answer
        # table: no answer domain or table is built, each answer attempt
        # repeats the plain one, and the inferred rung repeats the
        # collected one.
        (normalize_program(parse_program(DIVERGENT[1])), "g(i)", 2, 0, 0),
        (normalize_program(parse_program(DIVERGENT[0])), "c(i,i)", 2, 0, 0),
        # l1/1 reads l2/1's answers, so each of the three answer rungs
        # builds l2/1's answer domain alone; l1/1's is never read.
        (normalize_program(parse_program(DIVERGENT[2])), "l1(i)", 4, 3, 3),
        # gcd/3 reads mod/3's answers on its first answer rung; gcd/3's
        # own loop is never read.
        (corpus_program("gcd"), "gcd(i,i,f)", 2, 1, 1),
        # The inferred rung builds the collected rung's domain and table.
        (corpus_program("mc91"), "mc_carthy_91(i,f)", 4, 3, 3),
    ],
    ids=["guard-div-2", "chain-div-2", "nest-div-2", "gcd", "mc91"],
)
def test_each_distinct_attempt_is_made_once(
    monkeypatch, program, query, generated, tabled, answer_domains
):
    # The guard-div-2 and mc91 rung logs are pinned: see the test above
    # and `test_driver.py::TestEscalationLadder::test_mc91_rung_log`.
    pattern = parse_query_pattern(query)
    assert len(driver_calls(monkeypatch, "generate_pairs", program, pattern)) == generated
    assert len(driver_calls(monkeypatch, "compute_abstract_answers", program, pattern)) == tabled
    assert len(driver_calls(monkeypatch, "build_answer_domain", program, pattern)) == answer_domains


class TestSemiNaive:
    """The answer fixpoint reads every combination once: no
    `(base, labels)` pick repeats within one call."""

    @pytest.mark.parametrize(
        "name,query,rungs", [("gcd", "gcd(i,i,f)", 1), ("mc91", "mc_carthy_91(i,f)", 3)]
    )
    def test_each_pick_is_read_once(self, monkeypatch, name, query, rungs):
        program, pattern = corpus_program(name), parse_query_pattern(query)
        calls = driver_calls(monkeypatch, "compute_abstract_answers", program, pattern)
        assert len(calls) == rungs
        for args in calls:
            picks = []

            def recording(base, levels):
                for labels, conj in satisfiable_choices(base, levels):
                    picks.append((base, labels))
                    yield labels, conj

            monkeypatch.setattr(answers, "satisfiable_choices", recording)
            compute_abstract_answers(*args)
            assert picks
            assert len(set(picks)) == len(picks)

    def test_each_option_is_built_once(self, monkeypatch):
        # Every round and pivot reads the options of mc91's calls into
        # its loop; each (literal, element) option is built once per
        # fixpoint.
        program, pattern = corpus_program("mc91"), parse_query_pattern("mc_carthy_91(i,f)")
        calls = driver_calls(monkeypatch, "compute_abstract_answers", program, pattern)
        built = []

        def recording(element, args):
            built.append((element, tuple(args)))
            return call_option(element, args)

        monkeypatch.setattr(answers, "call_option", recording)
        counts = []
        for args in calls:
            built.clear()
            compute_abstract_answers(*args)
            assert len(built) == len(set(built))
            counts.append(len(built))
        # Built per round and pivot instead, the three fixpoints would
        # build 13, 13 and 58 options.
        assert counts == [6, 6, 12]

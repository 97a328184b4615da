"""Abstract answer-table tests: widening targets, the fixpoint, and the
published tables for the corpus loops."""

from itertools import combinations, product

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
    is_satisfiable,
)
from termiarith.domain import (
    DomainTooLarge,
    answer_positions,
    build_domain,
    collect_answer_comparisons,
    infer_comparisons,
    position_var,
    satisfiable_choices,
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


def analysis(name, query, answer_domain=build_answer_domain):
    """Every loop's answer table over the partitions `answer_domain`
    builds, with those partitions, the loops and the modes."""
    program = corpus_program(name)
    pattern = parse_query_pattern(query)
    modes = infer_argument_modes(program, pattern)
    loops = find_integer_loops(program, pattern, modes)
    domains = [answer_domain(loop, modes) for loop in loops]
    table = compute_abstract_answers(loops, modes, domains)
    return table, domains, loops, modes


def collected_answer_domain(loop, modes):
    """The partition of the collected answer comparisons alone."""
    return build_domain(collect_answer_comparisons(loop, modes))


def holds(atom, env):
    total = atom.expr.const + sum(
        atom.expr.coeff(v) * env[v] for v in atom.expr.variables()
    )
    if atom.rel == LT:
        return total < 0
    if atom.rel == LE:
        return total <= 0
    return total == 0


def assert_partition(pieces, names):
    """The pieces are satisfiable and pairwise disjoint, and every point
    of an integer grid over `names` lies in exactly one of them.  The
    grid's axis holds every sum of two of the pieces' constants or their
    negations, give or take 3, so for `x - y + c` atoms it reaches both
    sides of each bound."""
    assert all(is_satisfiable(piece) for piece in pieces)
    for a, b in combinations(pieces, 2):
        assert not is_satisfiable(conjunction(a | b))
    constants = {0} | {sign * atom.expr.const for p in pieces for atom in p for sign in (1, -1)}
    axis = sorted({a + b + d for a in constants for b in constants for d in range(-3, 4)})
    for values in product(axis, repeat=len(names)):
        env = dict(zip(names, values))
        assert sum(all(holds(atom, env) for atom in p) for p in pieces) == 1, env


class TestAnswerDomain:
    def test_mod_widens_into_the_answer_partition(self):
        _, domains, _, _ = analysis("mod", "mod(i,i,f)")
        (domain,) = domains
        assert len(domain[("mod", 3)]) == 24

    def test_mod_partition_is_exhaustive_and_disjoint(self):
        _, domains, _, _ = analysis("mod", "mod(i,i,f)")
        assert_partition(domains[0][("mod", 3)], ["arg1", "arg2", "arg3"])

    # Every other corpus task with integer loops.  The driver builds the
    # answer domains of mod/3 (under gcd), mc91 and q_mixed; the others
    # are the tables no clause of the corpus reads.
    @pytest.mark.parametrize(
        "name,query",
        [(name, query) for name, query, _ in CORPUS if name not in ("facts", "mod")],
    )
    def test_every_answer_partition_is_exhaustive_and_disjoint(self, name, query):
        _, domains, loops, modes = analysis(name, query)
        for loop, domain in zip(loops, domains):
            for key, positions in answer_positions(loop, modes).items():
                assert_partition(domain[key], [position_var(j) for j in positions])

    def test_mc91_output_is_bounded_by_its_input(self):
        # No comparison mentions mc91's output; the inferred difference
        # atoms of its base clause relate it to the input.
        _, domains, _, _ = analysis("mc91", "mc_carthy_91(i,f)")
        assert set(domains[0][("mc_carthy_91", 2)]) == {
            conjunction([atom_gt(A1, 100), atom_le(A2 + 10, A1), atom_le(A1, A2 + 10)]),
            conjunction([atom_gt(A1, 100), atom_lt(A2 + 10, A1)]),
            conjunction([atom_gt(A1, 100), atom_lt(A1, A2 + 10)]),
            conjunction([atom_le(A1, 100), atom_le(A2 + 10, A1), atom_le(A1, A2 + 10)]),
            conjunction([atom_le(A1, 100), atom_lt(A2 + 10, A1)]),
            conjunction([atom_le(A1, 100), atom_lt(A1, A2 + 10)]),
        }

    def test_unpropagated_loop_reuses_its_partition(self):
        # Both positions of p/2 are inputs, and the collected answer
        # comparisons are among the inferred ones: the answer partition
        # is the inferred query partition.
        _, domains, (loop,), modes = analysis("p_difficult", "p(i,i)")
        (domain,) = domains
        assert len(domain[("p", 2)]) == 6
        assert domain == build_domain(infer_comparisons(loop, modes))

    def test_refine_cap_leaves_widening_unrefined(self, monkeypatch):
        # gcd/3's collected answer comparisons are partitioned in 7
        # checks, with the inferred ones in 87.  Past the budget the
        # builder raises; it never falls back to the coarser partition.
        program = corpus_program("gcd")
        pattern = parse_query_pattern("gcd(i,i,f)")
        modes = infer_argument_modes(program, pattern)
        loops = find_integer_loops(program, pattern, modes)
        (loop,) = [loop for loop in loops if ("gcd", 3) in loop.predicates]
        monkeypatch.setattr("termiarith.domain.PARTITION_BUDGET", 86)
        assert len(collected_answer_domain(loop, modes)[("gcd", 3)]) == 4
        with pytest.raises(DomainTooLarge) as raised:
            build_answer_domain(loop, modes)
        assert str(raised.value) == (
            "comparison set of gcd/3 has 6 atoms; its partition needs more than 86 solver checks"
        )

    def test_product_cap_leaves_widening_unrefined(self, monkeypatch):
        # The budget bounds the one sign tree of mc91's 4 answer atoms,
        # which takes 23 checks; no product of partitions is walked on
        # top of it.
        monkeypatch.setattr("termiarith.domain.PARTITION_BUDGET", 23)
        _, domains, _, _ = analysis("mc91", "mc_carthy_91(i,f)")
        assert len(domains[0][("mc_carthy_91", 2)]) == 6
        monkeypatch.setattr("termiarith.domain.PARTITION_BUDGET", 22)
        with pytest.raises(DomainTooLarge) as raised:
            analysis("mc91", "mc_carthy_91(i,f)")
        assert str(raised.value) == (
            "comparison set of mc_carthy_91/2 has 4 atoms; its partition needs more than 22"
            " solver checks"
        )


class TestWiden:
    def pieces(self):
        _, domains, _, _ = analysis("mc91", "mc_carthy_91(i,f)")
        return domains[0][("mc_carthy_91", 2)]

    def test_point_lands_in_one_piece(self):
        hits = widen([atom_eq(A1, 100), atom_eq(A2, 91)], self.pieces())
        assert hits == (conjunction([atom_le(A1, 100), atom_lt(A1, A2 + 10)]),)

    def test_open_constraint_hits_every_compatible_piece(self):
        elements = build_domain(
            {("mc_carthy_91", 2): frozenset({atom_le(A1, 89), atom_le(A1, 100)})}
        )[("mc_carthy_91", 2)]
        hits = widen([atom_gt(A1, 95)], elements)
        assert set(hits) == {
            conjunction([atom_gt(A1, 89), atom_le(A1, 100)]),
            conjunction([atom_gt(A1, 100)]),
        }

    def test_pieces_are_fixed_points(self):
        pieces = self.pieces()
        for piece in pieces:
            assert widen(piece, pieces) == (piece,)

    def test_unsatisfiable_constraint_hits_nothing(self):
        hits = widen([atom_gt(A1, 100), atom_le(A1, 89)], self.pieces())
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
        # The base clause answers arg2 = arg1 - 10 above 100; the
        # recursive one answers more than arg1 - 10 up to 100.
        table, _, _, _ = analysis("mc91", "mc_carthy_91(i,f)")
        assert table[("mc_carthy_91", 2)] == (
            conjunction([atom_gt(A1, 100), atom_le(A2 + 10, A1), atom_le(A1, A2 + 10)]),
            conjunction([atom_le(A1, 100), atom_lt(A1, A2 + 10)]),
        )

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
        # gcd(0, B, G) answers G = B through mod(0, B, 0): the last
        # entry, whose output lies above a non-positive input.
        table, _, _, _ = analysis("gcd", "gcd(i,i,f)")
        assert table == {
            ("mod", 3): (
                conjunction([atom_le(A2, A1), atom_gt(A2, 0), atom_lt(A3, A2)]),
                conjunction(
                    [atom_ge(A1, 0), atom_le(A3, A1), atom_le(A1, A3), atom_lt(A3, A2)]
                ),
            ),
            ("gcd", 3): (
                conjunction(
                    [atom_gt(A1, 0), atom_le(A3, A1), atom_le(A1, A3), atom_gt(A2, 0)]
                ),
                conjunction(
                    [
                        atom_gt(A1, 0),
                        atom_le(A3, A1),
                        atom_le(A1, A3),
                        atom_ge(A2, 0),
                        atom_le(A2, 0),
                    ]
                ),
                conjunction([atom_gt(A1, 0), atom_lt(A3, A1), atom_gt(A2, 0)]),
                conjunction([atom_gt(A1, 0), atom_lt(A1, A3), atom_gt(A2, 0)]),
                conjunction([atom_le(A1, 0), atom_lt(A1, A3), atom_gt(A2, 0)]),
            ),
        }
        assert analysis("mod", "mod(i,i,f)")[0] == {("mod", 3): table[("mod", 3)]}

    def test_loop_without_successful_answers(self):
        table, _, _, _ = analysis("t", "t(i)")
        assert table[("t", 1)] == ()

    def test_counting_loop(self):
        table, _, _, _ = analysis("p_int", "p(i)")
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
        table, _, _, _ = analysis("p_difficult", "p(i,i)")
        assert set(table[("p", 2)]) == {
            conjunction([atom_ge(A1, 0), atom_le(A1, 0), atom_ge(A1, A2)]),
            conjunction([atom_ge(A1, 0), atom_le(A1, 0), atom_lt(A1, A2)]),
            conjunction([atom_gt(A1, 0), atom_ge(A1, A2)]),
            conjunction([atom_gt(A1, 0), atom_lt(A1, A2)]),
        }

    # Every corpus task but the acyclic `facts` ones has integer loops.
    # Any partition is a sound widening target: the tables over the
    # collected answer comparisons alone are published the same way.
    @pytest.mark.parametrize("inferred", [False, True], ids=["collected", "inferred"])
    @pytest.mark.parametrize(
        "name,query", [(name, query) for name, query, _ in CORPUS if name != "facts"]
    )
    def test_entries_are_distinct_elements_in_partition_order(self, name, query, inferred):
        builder = build_answer_domain if inferred else collected_answer_domain
        table, domains, _, _ = analysis(name, query, answer_domain=builder)
        assert domains
        for answer_domain in domains:
            for key, pieces in answer_domain.items():
                entries = table[key]
                assert list(entries) == [piece for piece in pieces if piece in entries], key

    def test_tables_grow_monotonically_with_entries(self):
        table, domains, loops, modes = analysis("mod", "mod(i,i,f)")
        again = compute_abstract_answers(loops, modes, domains)
        assert again == table


# The divergent variants of the benchmark's chain, guard and nest
# families at parameter 2 (`perfbench/generators.py`), with each looping
# step made to grow an argument by 1 instead of passing it on unchanged.
# So no goal repeats, the looping-query search finds no query, and each
# climbs every rung, without and then with answers, and gets NO, with
# the rung log of the variant itself.
DIVERGENT = [
    "c(X, Z) :- X =< 17.\nc(X, Z) :- X > 17, X < Z, W is Z + 1, c(X, W).\n",
    "g(X) :- X =< -3.\n"
    "g(X) :- X > -3, X =< 2, Y is X - 4, g(Y).\n"
    "g(X) :- X > 2, Y is X + 1, g(Y).\n",
    "l1(X) :- X =< 5.\n"
    "l1(X) :- X > 5, Y is X - 1, l2(Y), l1(Y).\n"
    "l2(X) :- X =< 5.\n"
    "l2(X) :- X > 5, Y is X + 1, l2(Y).\n",
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
            # proved on the first answer rung
            (corpus_program("mc91"), "mc_carthy_91(i,f)", 1),
            # Each clause of the chain and guard variants makes one call,
            # so no answer is read and no answer domain is built; the
            # nest variant reads l2/1's answers on every rung, whose
            # collected and inferred rungs share one program and table.
            *(
                (normalize_program(parse_program(source)), query, rungs)
                for source, query, rungs in zip(
                    DIVERGENT, ("c(i,i)", "g(i)", "l1(i)"), (0, 0, 2)
                )
            ),
            # proved on the first answer rung
            (normalize_program(parse_program(MUTUAL)), "p(i,f)", 1),
        ],
        ids=["gcd", "mc91", "chain-div-2", "guard-div-2", "nest-div-2", "mutual"],
    )
    def test_tables_match_unprojected_reference(self, monkeypatch, program, query, rungs):
        # The driver computes no table that no clause reads, so each
        # rung program's table is computed here from the answer domains
        # the driver built: one per loop whose answers are read or that
        # such a loop calls, in loop order, with the program's modes.
        built = []

        def record(loop, modes):
            built.append((loop, modes, build_answer_domain(loop, modes)))
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
        # l1/1 reads l2/1's answers, so each of the two rung programs
        # builds l2/1's answer domain alone, once for its collected and
        # inferred rungs; l1/1's is never read.
        (normalize_program(parse_program(DIVERGENT[2])), "l1(i)", 4, 2, 2),
        # gcd/3 reads mod/3's answers on its first answer rung; gcd/3's
        # own loop is never read.
        (corpus_program("gcd"), "gcd(i,i,f)", 2, 1, 1),
        # mc91 is proved on its first answer rung.
        (corpus_program("mc91"), "mc_carthy_91(i,f)", 2, 1, 1),
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


@pytest.mark.parametrize(
    "program,query",
    [
        (corpus_program("gcd"), "gcd(i,i,f)"),
        (corpus_program("mc91"), "mc_carthy_91(i,f)"),
        (normalize_program(parse_program(DIVERGENT[2])), "l1(i)"),
        (normalize_program(parse_program(MUTUAL)), "p(i,f)"),
    ],
    ids=["gcd", "mc91", "nest-div-2", "mutual"],
)
@pytest.mark.parametrize("answers", ["auto", "on"])
def test_each_rung_program_tables_its_answers_once(monkeypatch, program, query, answers):
    # The answer table is a stage of the rung program: the collected and
    # inferred rungs, which analyse one program with one set of modes,
    # share it, so no two tables are computed with the same modes.
    options = driver.AnalysisOptions(answer_abstraction=answers)
    pattern = parse_query_pattern(query)
    calls = driver_calls(monkeypatch, "compute_abstract_answers", program, pattern, options)
    assert calls
    assert len({id(modes) for _, modes, _ in calls}) == len(calls)


class TestSemiNaive:
    """The answer fixpoint reads every combination once: no
    `(base, labels)` pick repeats within one call."""

    @pytest.mark.parametrize(
        "name,query,rungs", [("gcd", "gcd(i,i,f)", 1), ("mc91", "mc_carthy_91(i,f)", 1)]
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
        # Built per round and pivot instead, the fixpoint would build 8
        # options.
        assert counts == [4]

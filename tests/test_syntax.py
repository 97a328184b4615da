"""Parser, normalizer and pretty-printer tests."""

import pytest

from helpers import clause_text, mode_leq, program_text
from termiarith.syntax import (
    AtomConst,
    Clause,
    Comparison,
    Compound,
    Disunify,
    FloatConst,
    IntConst,
    Is,
    ParseError,
    QueryPattern,
    TrueLit,
    Unify,
    UserAtom,
    Var,
    is_numeric_operand,
    literal_vars,
    mode_join,
    normalize_program,
    parse_program,
    parse_query_pattern,
    rename_clause,
    survey_arith,
    term_text,
    unify,
    unify_atoms,
)

NINETY_ONE = """
mc_carthy_91(X, Y) :- X > 100, Y is X - 10.
mc_carthy_91(X, Y) :- X =< 100, Z is X + 11, mc_carthy_91(Z, Z1), mc_carthy_91(Z1, Y).
"""

MOD = """
mod(A, B, C) :- A >= B, B > 0, D is A - B, mod(D, B, C).
mod(A, B, C) :- A < B, A >= 0, A = C.
"""


class TestParseProgram:
    def test_single_fact(self):
        program = parse_program("p(0).")
        assert len(program.clauses) == 1
        clause = program.clauses[0]
        assert clause.head == UserAtom("p", (IntConst(0),))
        assert clause.body == ()

    def test_91_function(self):
        program = parse_program(NINETY_ONE)
        assert len(program.clauses) == 2
        assert program.index == {("mc_carthy_91", 2): (0, 1)}
        second = program.clauses[1]
        assert second.body == (
            Comparison(Var("X"), "=<", IntConst(100)),
            Is(Var("Z"), Compound("+", (Var("X"), IntConst(11)))),
            UserAtom("mc_carthy_91", (Var("Z"), Var("Z1"))),
            UserAtom("mc_carthy_91", (Var("Z1"), Var("Y"))),
        )

    def test_mod(self):
        program = parse_program(MOD)
        assert len(program.clauses) == 2
        assert set(program.index) == {("mod", 3)}
        assert isinstance(program.clauses[1].body[2], Unify)

    def test_comments_and_negatives(self):
        program = parse_program("% a fact\np(-5).  % trailing\n")
        assert program.clauses[0].head.args == (IntConst(-5),)

    def test_float_is_tagged_not_rejected(self):
        program = parse_program("p(0.0).\np(X) :- X1 is X / 2, p(X1).")
        assert program.clauses[0].head.args == (FloatConst("0.0"),)
        rhs = program.clauses[1].body[0].rhs
        info = survey_arith(rhs)
        assert "/" in info.operators
        assert not info.integer_safe

    def test_lists_desugar(self):
        program = parse_program("p([a, b|T]).\nq([]).")
        ab = program.clauses[0].head.args[0]
        assert ab == Compound(
            ".", (AtomConst("a"), Compound(".", (AtomConst("b"), Var("T"))))
        )
        assert program.clauses[1].head.args == (AtomConst("[]"),)

    def test_anonymous_variables_are_fresh(self):
        program = parse_program("p(_, _).")
        a, b = program.clauses[0].head.args
        assert isinstance(a, Var) and isinstance(b, Var)
        assert a != b

    def test_cut_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_program("p(0) :- !.")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(X) :- q(X)\nr(X).")
        assert "line" in str(err.value)

    def test_zero_arity_clauses(self):
        program = parse_program("main :- go.\ngo.")
        assert program.clauses[0].head == UserAtom("main", ())
        assert program.clauses[0].body == (UserAtom("go", ()),)


class TestQueryPattern:
    def test_91_pattern(self):
        assert parse_query_pattern("mc_carthy_91(i,f)") == QueryPattern(
            "mc_carthy_91", ("i", "f")
        )

    def test_gcd_pattern(self):
        assert parse_query_pattern("gcd(i, i, f)") == QueryPattern("gcd", ("i", "i", "f"))

    def test_unary_pattern(self):
        assert parse_query_pattern("p(f)") == QueryPattern("p", ("f",))

    def test_unknown_mode(self):
        with pytest.raises(ParseError):
            parse_query_pattern("p(x)")

    @pytest.mark.parametrize(
        "text, column",
        [("gcd(i,i,x)", 9), ("gcd(i, i,  x)", 12), ("p(i,,f)", 5), (" p( x )", 5)],
    )
    def test_unknown_mode_reports_its_column(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_query_pattern(text)
        assert (err.value.line, err.value.col) == (1, column)
        assert str(err.value).endswith(f"at line 1, column {column}")

    @pytest.mark.parametrize("text, column", [("gcd()", 4), ("gcd ( )", 5)])
    def test_empty_parentheses_report_their_column(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_query_pattern(text)
        assert "empty parentheses" in str(err.value)
        assert (err.value.line, err.value.col) == (1, column)

    def test_mode_lattice(self):
        assert mode_leq("i", "b") and mode_leq("b", "f") and mode_leq("i", "f")
        assert not mode_leq("f", "b")
        assert mode_join("i", "f") == "f"
        assert mode_join("b", "i") == "b"


class TestNormalize:
    def test_disequality_splits(self):
        program = normalize_program(parse_program("a(X, Y) :- X \\= Y."))
        assert len(program.clauses) == 2
        assert program.clauses[0].body == (Comparison(Var("X"), ">", Var("Y")),)
        assert program.clauses[1].body == (Comparison(Var("X"), "<", Var("Y")),)

    def test_numeric_equality_becomes_one_comparison(self):
        program = normalize_program(parse_program("a(X, Y) :- X = Y, Y = 3, b(X)."))
        assert program.clauses[0].body == (
            Comparison(Var("X"), "=", Var("Y")),
            Comparison(Var("Y"), "=", IntConst(3)),
            UserAtom("b", (Var("X"),)),
        )
        assert normalize_program(program) == program

    def test_structural_equality_survives(self):
        program = normalize_program(parse_program("a(X) :- X = f(Y), a(Y)."))
        assert isinstance(program.clauses[0].body[0], Unify)

    def test_structural_disequality_survives(self):
        program = normalize_program(parse_program("a(X) :- X \\= f(a)."))
        assert isinstance(program.clauses[0].body[0], Disunify)

    def test_identity_without_equalities(self):
        program = parse_program(NINETY_ONE)
        assert normalize_program(program) == program

    def test_compound_comparison_extracted(self):
        program = normalize_program(parse_program("a(X, Y) :- X + 1 < Y."))
        body = program.clauses[0].body
        assert isinstance(body[0], Is)
        assert isinstance(body[1], Comparison)
        assert is_numeric_operand(body[1].lhs) and is_numeric_operand(body[1].rhs)

    def test_idempotent(self):
        program = parse_program("a(X, Y) :- X \\= Y, X + 1 < Y, X = Y.")
        once = normalize_program(program)
        assert normalize_program(once) == once

    def test_all_comparisons_flat(self):
        source = "a(X, Y) :- X * 2 >= Y - 3, b(X).\nb(X) :- X > 1 + 2."
        program = normalize_program(parse_program(source))
        for clause in program.clauses:
            for lit in clause.body:
                if isinstance(lit, Comparison):
                    assert is_numeric_operand(lit.lhs)
                    assert is_numeric_operand(lit.rhs)


class TestRoundTrip:
    SOURCES = [
        NINETY_ONE,
        MOD,
        "p(0).",
        "p([a, b|T]) :- q(T, []).",
        "a(X) :- X = f(Y), Y \\= g(Z), a(Z).",
        "t(X) :- X > 5, X < 8, X < 2, X1 is X + 1, X1 < 5, t(X1).",
        "p(X) :- X1 is -X + 3 * (X - 2), p(X1).",
        "q(s(s(X)), Z, N) :- N =< 0, N1 is N - 1, q(s(X), Y, N1), q(Y, Z, N1).",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_print_then_parse(self, source):
        program = parse_program(source)
        assert parse_program(program_text(program)) == program

    @pytest.mark.parametrize("source", SOURCES)
    def test_normalized_print_then_parse(self, source):
        # A numeric `=` prints as `A = C` and parses back as a Unify,
        # which normalization turns into the `=` comparison again.
        program = normalize_program(parse_program(source))
        assert normalize_program(parse_program(program_text(program))) == program

    def test_term_text_examples(self):
        program = parse_program("p([1, 2], f(g(X), -3)).")
        assert term_text(program.clauses[0].head.args[0]) == "[1, 2]"
        assert term_text(program.clauses[0].head.args[1]) == "f(g(X), -3)"


class TestUnification:
    def test_basic(self):
        subst = unify(
            Compound("f", (Var("X"), AtomConst("a"))),
            Compound("f", (IntConst(1), Var("Y"))),
        )
        assert subst == {Var("X"): IntConst(1), Var("Y"): AtomConst("a")}

    def test_clash(self):
        assert unify(AtomConst("a"), AtomConst("b")) is None

    def test_occurs_check_rejects_a_cyclic_binding(self):
        z = Var("Z")
        assert unify(z, Compound("f", (z,))) is None
        assert unify(Compound("f", (z,)), z) is None

    def test_occurs_check_follows_earlier_bindings(self):
        # X = Y, then Y = g(X): Y would contain itself through X.
        x, y = Var("X"), Var("Y")
        assert unify(Compound("f", (x, y)), Compound("f", (y, Compound("g", (x,))))) is None
        g_w = Compound("g", (Var("W"),))
        assert unify(Compound("f", (x, y)), Compound("f", (y, g_w))) == {x: g_w, y: g_w}

    def test_atoms_and_rename(self):
        clause = parse_program("p(X, f(X)).").clauses[0]
        renamed = rename_clause(clause, "@1")
        assert not (set(literal_vars(clause.head)) & set(literal_vars(renamed.head)))
        subst = unify_atoms(UserAtom("p", (IntConst(2), Var("Out"))), renamed.head)
        assert subst is not None
        v = Var("X@1")
        assert subst[v] == IntConst(2)

    def test_clause_text(self):
        clause = parse_program("p(X) :- X > 0, q(X).").clauses[0]
        assert clause_text(clause) == "p(X) :- X > 0, q(X)."


class TestRecords:
    """The term, literal and clause records behave as frozen values that
    carry their class: same-shaped records of two classes never meet."""

    SAME_SHAPE = [
        (Var("X"), AtomConst("X"), FloatConst("X")),
        (
            Is(Var("A"), Var("B")),
            Unify(Var("A"), Var("B")),
            Disunify(Var("A"), Var("B")),
        ),
        (UserAtom("f", (Var("X"),)), Compound("f", (Var("X"),))),
    ]

    @pytest.mark.parametrize("group", SAME_SHAPE, ids=["constants", "binary", "atoms"])
    def test_same_shaped_records_differ(self, group):
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                assert a != b and b != a
                assert not (a == b)
        table = {record: i for i, record in enumerate(group)}
        assert [table[record] for record in group] == list(range(len(group)))

    def test_equal_records_are_one_key(self):
        assert Compound("f", (Var("X"),)) == Compound("f", (Var("X"),))
        assert len({Var("X"), Var("X")}) == 1

    def test_true_literal_is_truthy(self):
        assert TrueLit()
        assert TrueLit() == TrueLit()

    @pytest.mark.parametrize(
        "record, attr",
        [
            (Var("X"), "name"),
            (Compound("f", ()), "args"),
            (UserAtom("p"), "pred"),
            (Clause(UserAtom("p")), "body"),
            (QueryPattern("p", ("i",)), "modes"),
        ],
    )
    def test_records_are_frozen(self, record, attr):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)

    def test_variables_sort_by_name(self):
        names = ["Z", "A", "_G1", "M"]
        assert sorted(Var(n) for n in names) == [Var(n) for n in sorted(names)]

    def test_defaults_and_keywords(self):
        assert UserAtom("p").args == ()
        assert UserAtom("p").key == ("p", 0)
        head = UserAtom("p", (Var("X"),))
        assert Clause(head).body == ()
        body = (TrueLit(),)
        assert Clause(head=head, body=body) == Clause(head, body)
        assert Comparison(lhs=Var("X"), op="<", rhs=IntConst(1)).op == "<"

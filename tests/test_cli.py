"""Command line tests: exit codes, stream separation, flags, and reports
that do not depend on the hash seed."""

import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_path

from termiarith import cli
from termiarith.cli import EXIT_INPUT, EXIT_NO, EXIT_TIMEOUT, EXIT_YES, main
from termiarith.driver import AnalysisOptions

HAS_ALARM = hasattr(signal, "SIGALRM")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_proved_is_zero(self, capsys):
        code, out, err = run(
            capsys, str(corpus_path("mod")), "--query", "mod(i,i,f)"
        )
        assert code == EXIT_YES
        assert out.startswith("YES: termination proved for query mod(i,i,f)")
        assert "rung collected comparisons: 1 of 1 circular pairs proved" in err

    def test_unproved_is_one(self, capsys):
        code, out, err = run(capsys, str(corpus_path("loop")), "--query", "loop(i)")
        assert code == EXIT_NO
        assert out.startswith("NO: no termination proof found for query loop(i)")
        assert (
            "no numerical loop: integer reasoning cannot go beyond the norm analysis"
            in err
        )

    def test_missing_file_is_two(self, capsys):
        code, out, err = run(capsys, "no_such_file.pl", "--query", "p(i)")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:")

    def test_parse_error_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.pl"
        bad.write_text("p(X) :- X > .\n")
        code, _, err = run(capsys, str(bad), "--query", "p(i)")
        assert code == EXIT_INPUT
        assert err.startswith("error:")

    def test_bad_query_pattern_is_two(self, capsys):
        code, _, err = run(capsys, str(corpus_path("mod")), "--query", "mod(i,x,f)")
        assert code == EXIT_INPUT
        assert err.startswith("error:")

    def test_unknown_flag_value_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([str(corpus_path("mod")), "--query", "mod(i,i,f)", "--answers", "x"])
        assert info.value.code == 2

    @pytest.mark.parametrize("seconds", ["-1", "nan", "inf", "0"])
    def test_timeout_that_is_not_a_positive_number_is_two(self, capsys, seconds):
        argv = (str(corpus_path("mod")), "--query", "mod(i,i,f)", "--timeout", seconds)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: --timeout")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "source,query",
        [
            ("p(" + "s(" * 3000 + "z" + ")" * 3000 + ").\n", "p(i)"),
            ("q(X,Y) :- Y is X" + " + 1" * 3000 + ".\n", "q(i,f)"),
        ],
        ids=["nested-fact", "long-sum"],
    )
    def test_input_nested_too_deeply_is_two(self, capsys, tmp_path, source, query):
        deep = tmp_path / "deep.pl"
        deep.write_text(source)
        code, out, err = run(capsys, str(deep), "--query", query)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_recursion_limit_during_analysis_is_two(self, capsys, monkeypatch):
        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("termiarith.cli.analyse_termination", too_deep)
        code, out, err = run(capsys, str(corpus_path("mod")), "--query", "mod(i,i,f)")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_program_that_is_not_utf8_is_two(self, capsys, tmp_path):
        latin = tmp_path / "latin.pl"
        latin.write_bytes("p(0). % caf\xe9\n".encode("latin-1"))
        code, out, err = run(capsys, str(latin), "--query", "p(i)")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_cap_abort_is_still_one(self, capsys):
        code, _, err = run(
            capsys,
            str(corpus_path("gcd")),
            "--query",
            "gcd(i,i,f)",
            "--pair-cap",
            "2",
        )
        assert code == EXIT_NO
        assert "resource cap" in err


class TestFlags:
    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            str(corpus_path("gcd")),
            "--query",
            "gcd(i,i,f)",
            "--format",
            "json",
        )
        assert code == EXIT_YES
        payload = json.loads(out)
        assert payload["answer"] == "YES"
        assert payload["loops"]

    def test_json_output_is_reproducible(self, capsys):
        argv = (str(corpus_path("mc91")), "--query", "mc_carthy_91(i,f)",
                "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_trace_renders_pairs(self, capsys):
        _, out, _ = run(
            capsys, str(corpus_path("mod")), "--query", "mod(i,i,f)", "--trace"
        )
        assert "pair mod(i,i,f) where arg2 =< arg1, arg2 > 0" in out
        assert "  arcs: d1 > r1, d1 > r2" in out

    def test_answers_off(self, capsys):
        code, out, _ = run(
            capsys,
            str(corpus_path("gcd")),
            "--query",
            "gcd(i,i,f)",
            "--answers",
            "off",
        )
        assert code == EXIT_NO
        assert out.startswith("NO:")

    def test_max_unfold_zero(self, capsys):
        code, _, _ = run(
            capsys,
            str(corpus_path("mc91")),
            "--query",
            "mc_carthy_91(i,f)",
            "--max-unfold",
            "0",
        )
        assert code == EXIT_NO

    def test_zero_arity_query_is_rendered_as_written(self, capsys, tmp_path):
        program = tmp_path / "p.pl"
        program.write_text("p :- p.\n")
        code, out, _ = run(capsys, str(program), "--query", "p", "--trace")
        assert code == EXIT_NO
        assert out.startswith("NO: no termination proof found for query p\n")
        assert "  unproved: p where true\n" in out
        assert "\npair p where true\n" in out
        assert "()" not in out

    def test_analysis_options_are_the_cli_flags(self, capsys, monkeypatch):
        # Every AnalysisOptions field is set from a flag, so no field
        # exists that only tests can set.
        passed = []

        def recording(**kwargs):
            passed.append(kwargs)
            return AnalysisOptions(**kwargs)

        monkeypatch.setattr(cli, "AnalysisOptions", recording)
        run(capsys, str(corpus_path("mod")), "--query", "mod(i,i,f)")
        (kwargs,) = passed
        assert set(kwargs) == set(AnalysisOptions._fields)


MOD = str(corpus_path("mod"))
MOD_QUERY = "mod(i,i,f)"

BAD_ARGUMENTS = {
    "no-arguments": [],
    "missing-query": [MOD],
    "missing-value": [MOD, "--query"],
    "two-programs": [MOD, MOD, "--query", MOD_QUERY],
    "unknown-flag": [MOD, "--query", MOD_QUERY, "--stats"],
    "ambiguous-prefix": [MOD, "--query", MOD_QUERY, "--t", "1"],
    "switch-with-value": [MOD, "--query", MOD_QUERY, "--trace=1"],
    "format-choice": [MOD, "--query", MOD_QUERY, "--format", "xml"],
    "answers-choice": [MOD, "--query", MOD_QUERY, "--answers", "x"],
    "max-unfold-not-int": [MOD, "--query", MOD_QUERY, "--max-unfold", "x"],
    "pair-cap-not-int": [MOD, "--query", MOD_QUERY, "--pair-cap", "1.5"],
    "timeout-not-float": [MOD, "--query", MOD_QUERY, "--timeout", "abc"],
    # `--` ends the flags, so `--query` after it is a second program.
    "flags-after-double-dash": ["--", MOD, "--query", MOD_QUERY],
}

CANONICAL = [MOD, "--query", MOD_QUERY, "--max-unfold", "0", "--format", "json"]
# Each spelling means the same as CANONICAL: the same exit code, report
# and diagnostics.
SPELLINGS = {
    "equals-sign": [MOD, "--query=" + MOD_QUERY, "--max-unfold=0", "--format=json"],
    "unique-prefix": [MOD, "--q", MOD_QUERY, "--max-u", "0", "--fo", "json"],
    "flags-around-program": ["--query", MOD_QUERY, MOD, "--max-unfold", "0", "--format", "json"],
    "double-dash": ["--query", MOD_QUERY, "--max-unfold", "0", "--format", "json", "--", MOD],
}


class TestParser:
    @pytest.mark.parametrize("argv", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
    def test_bad_arguments_exit_two_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == EXIT_INPUT
        assert out == ""
        assert err.startswith("usage: termi-arith ")
        assert "\ntermi-arith: error: " in err

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_every_flag_and_exits_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main([flag])
        out, err = capsys.readouterr()
        assert info.value.code == 0
        assert err == ""
        for name in ("program", "--query", "--format", "--max-unfold", "--answers",
                     "--trace", "--pair-cap", "--timeout", "-h, --help"):
            assert name in out

    @pytest.mark.parametrize("argv", SPELLINGS.values(), ids=SPELLINGS)
    def test_spellings_give_the_canonical_report(self, capsys, argv):
        expected = run(capsys, *CANONICAL)
        assert expected[0] == EXIT_YES
        assert run(capsys, *argv) == expected

    def test_parse_ignores_posixly_correct(self, capsys, monkeypatch):
        # GNU getopt stops at the first program path when this is set;
        # the parser reads flags after the program all the same.
        expected = run(capsys, *CANONICAL)
        monkeypatch.setenv("POSIXLY_CORRECT", "1")
        assert run(capsys, *CANONICAL) == expected
        assert run(capsys, *SPELLINGS["flags-around-program"]) == expected

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["termi-arith", *CANONICAL])
        expected = run(capsys, *CANONICAL)
        code = main(None)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected


@pytest.mark.parametrize(
    "name,query", [("gcd", "gcd(i,i,f)"), ("mc91", "mc_carthy_91(i,f)")]
)
def test_json_report_is_identical_across_hash_seeds(name, query):
    src = Path(__file__).parent.parent / "src"
    argv = [sys.executable, "-m", "termiarith.cli", str(corpus_path(name))]
    outputs = [
        subprocess.run(
            [*argv, "--query", query, "--format", "json"],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]


def alarm_handler():
    """The SIGALRM handler, which `main` leaves as it found it."""
    return signal.getsignal(signal.SIGALRM) if HAS_ALARM else None


class TestTimeout:
    """`--timeout` is a deadline that every solver call reads, so it
    needs no signal and holds on any thread."""

    def test_timeout_is_three(self, capsys):
        # Without answer abstraction gcd climbs four unfolding rungs: even
        # with the solver cache warm it runs several times longer than
        # the limit.
        code, out, err = run(
            capsys,
            str(corpus_path("gcd")),
            "--query",
            "gcd(i,i,f)",
            "--answers",
            "off",
            "--max-unfold",
            "4",
            "--timeout",
            "0.05",
        )
        assert code == EXIT_TIMEOUT
        assert out == ""
        assert "timed out after 0.05 seconds" in err

    def test_generous_timeout_restores_the_handler(self, capsys):
        before = alarm_handler()
        code, _, _ = run(
            capsys,
            str(corpus_path("mod")),
            "--query",
            "mod(i,i,f)",
            "--timeout",
            "60",
        )
        assert code == EXIT_YES
        assert alarm_handler() is before

    def test_timeout_shorter_than_the_setup_is_three(self, capsys):
        # The deadline can pass before the analysis makes its first
        # solver call.
        before = alarm_handler()
        code, out, err = run(
            capsys, str(corpus_path("gcd")), "--query", "gcd(i,i,f)", "--timeout", "1e-6"
        )
        assert code == EXIT_TIMEOUT
        assert out == ""
        assert "timed out after 1e-06 seconds" in err
        assert alarm_handler() is before

    def test_timeout_past_any_timer_range_is_zero(self, capsys):
        before = alarm_handler()
        code, out, err = run(
            capsys, str(corpus_path("mod")), "--query", "mod(i,i,f)", "--timeout", "1e12"
        )
        assert code == EXIT_YES
        assert out.startswith("YES")
        assert "timed out" not in err
        assert alarm_handler() is before

    @staticmethod
    def off_the_main_thread(capsys, argv):
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(argv)))
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        captured = capsys.readouterr()
        assert len(codes) == 1
        return codes[0], captured.out, captured.err

    def test_timeout_off_the_main_thread_is_three(self, capsys):
        argv = [str(corpus_path("gcd")), "--query", "gcd(i,i,f)", "--timeout", "1e-6"]
        code, out, err = self.off_the_main_thread(capsys, argv)
        assert code == EXIT_TIMEOUT
        assert out == ""
        assert "timed out after 1e-06 seconds" in err

    def test_generous_timeout_off_the_main_thread_is_zero(self, capsys):
        argv = [str(corpus_path("mod")), "--query", "mod(i,i,f)", "--timeout", "60"]
        code, out, err = self.off_the_main_thread(capsys, argv)
        assert code == EXIT_YES
        assert out.startswith("YES")
        assert "timed out" not in err


COUNTDOWN = b"p(0).\np(X) :- X > 0, Y is X - 1, p(Y).\n"

# The grammar's tokens: atoms, variables, integers, comparisons,
# arithmetic operators and punctuation.
TERM_TOKENS = ("p", "q", "a", "X", "Y", "_", "0", "1", "2")
COMPARE_TOKENS = ("<", "=<", ">=", ">", "=", "\\=")
ARITH_TOKENS = ("+", "-", "*")
TOKENS = TERM_TOKENS + COMPARE_TOKENS + ARITH_TOKENS + (":-", "(", ")", ",", ".", "is")

_term = st.sampled_from(TERM_TOKENS)
_literal = st.one_of(
    st.tuples(st.sampled_from(("p", "q")), st.just("("), _term, st.just(")")),
    st.tuples(_term, st.sampled_from(COMPARE_TOKENS), _term),
    st.tuples(_term, st.just("is"), _term, st.sampled_from(ARITH_TOKENS), _term),
    st.tuples(st.sampled_from(TOKENS)),  # a stray token
)


@st.composite
def token_programs(draw) -> bytes:
    """At most three clauses and 40 tokens: `p(T)` heads with bodies of
    calls, comparisons and `is` steps, any of which may be a stray
    token, so most programs parse and reach the analysis and some do
    not."""
    tokens: list[str] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        tokens += ["p", "(", draw(_term), ")"]
        body = draw(st.lists(_literal, max_size=2))
        for i, literal in enumerate(body):
            tokens.append(":-" if i == 0 else ",")
            tokens += literal
        tokens.append(".")
    return " ".join(tokens[:40]).encode()


@settings(max_examples=60, deadline=timedelta(seconds=1))
@example(case=(COUNTDOWN, 1e12), max_unfold=1, pair_cap=100)
@example(case=(COUNTDOWN, 1e-9), max_unfold=2, pair_cap=1)
@given(
    # Raw bytes with any timeout, or token programs with a timeout short
    # enough that an analysis run keeps to the deadline.
    case=st.one_of(
        st.tuples(st.binary(max_size=200), st.floats(min_value=1e-9, max_value=1e12)),
        st.tuples(token_programs(), st.floats(min_value=1e-9, max_value=0.25)),
    ),
    max_unfold=st.integers(min_value=0, max_value=2),
    pair_cap=st.integers(min_value=1, max_value=100),
)
def test_any_input_gets_a_contract_exit_code(case, max_unfold, pair_cap):
    source, timeout = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.pl"
        path.write_bytes(source)
        argv = [
            str(path),
            "--query",
            "p(i)",
            "--timeout",
            repr(timeout),
            "--max-unfold",
            str(max_unfold),
            "--pair-cap",
            str(pair_cap),
        ]
        before = alarm_handler()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # the parser rejects the arguments
                code = exc.code
    assert code in (EXIT_YES, EXIT_NO, EXIT_INPUT, EXIT_TIMEOUT)
    assert alarm_handler() is before

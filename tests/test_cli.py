"""Command line tests: exit codes, stream separation, flags."""

import json
import signal

import pytest

from conftest import corpus_path

from termiarith.cli import EXIT_INPUT, EXIT_NO, EXIT_TIMEOUT, EXIT_YES, main

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

    def test_cap_abort_is_still_one(self, capsys):
        code, _, err = run(
            capsys,
            str(corpus_path("gcd")),
            "--query",
            "gcd(i,i,f)",
            "--pair-cap",
            "20",
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


@pytest.mark.skipif(not HAS_ALARM, reason="needs SIGALRM")
class TestTimeout:
    def test_timeout_is_three(self, capsys):
        # gcd is the slowest corpus task: even with the solver cache warm
        # from earlier tests it runs several times longer than the limit.
        code, out, err = run(
            capsys,
            str(corpus_path("gcd")),
            "--query",
            "gcd(i,i,f)",
            "--timeout",
            "0.05",
        )
        assert code == EXIT_TIMEOUT
        assert out == ""
        assert "timed out after 0.05 seconds" in err

    def test_generous_timeout_restores_the_handler(self, capsys):
        before = signal.getsignal(signal.SIGALRM)
        code, _, _ = run(
            capsys,
            str(corpus_path("mod")),
            "--query",
            "mod(i,i,f)",
            "--timeout",
            "60",
        )
        assert code == EXIT_YES
        assert signal.getsignal(signal.SIGALRM) is before

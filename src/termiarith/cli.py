"""Command line front end; `HELP` lists its flags and exit codes.

The arguments are read by one short loop, not `argparse` or `getopt`:
building an `argparse` parser imports `locale` through its first
`gettext` call, and `getopt` imports `gettext` for its messages, which
together cost about 3 ms of every cold run before any analysis starts."""

import math
import os
import sys
from contextlib import nullcontext
from typing import Optional

from .constraints import DeadlinePassed, deadline
from .driver import (
    AnalysisOptions,
    analyse_termination,
    render_report,
)
from .pairs import PAIR_CAP
from .syntax import ParseError, normalize_program, parse_program, parse_query_pattern

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_TIMEOUT = 3
EXIT_OUTPUT = 4

# Terms are read and walked recursively, so nesting thousands deep runs
# out of interpreter stack: bad input, not a failed proof.
_TOO_DEEP = "the program nests terms too deeply to be analysed"


HELP = f"""\
usage: termi-arith [-h] --query PATTERN [--format {{text,json}}]
                   [--max-unfold N] [--answers {{on,off,auto}}] [--trace]
                   [--pair-cap N] [--timeout SECONDS]
                   program

Prove universal termination of a logic program with integer arithmetic for
every query matching the given pattern.

positional arguments:
  program               program file to analyse

options:
  -h, --help            show this help message and exit
  --query PATTERN       query pattern with one mode (i, b or f) per argument,
                        e.g. "gcd(i,i,f)"
  --format {{text,json}}  report format (default text)
  --max-unfold N        rounds of unfolding tried while refining the domain
                        (default 1)
  --answers {{on,off,auto}}
                        answer abstraction: always, never, or on each rung
                        after a plain try (default)
  --trace               render every circular pair of the reported run
  --pair-cap N          abort a run whose closure of the pairs on a cycle of
                        the query graph passes this many (default {PAIR_CAP})
  --timeout SECONDS     give up on the whole analysis after this long (a
                        positive number)

exit codes: 0 termination proved, 1 no proof found, 2 bad input, 3 timeout,
4 the report could not be written (stdout closed or full).
The report goes to stdout, diagnostics go to stderr.  A NO whose
diagnostics hold a "non-termination:" line names a ground query that runs
forever.
"""
_USAGE = HELP[: HELP.index("\n\n") + 1]

# Every flag that takes a value, with its default; `--help` and
# `--trace` are switches.
_DEFAULTS = {"--query": None, "--format": "text", "--max-unfold": 1,
             "--answers": "auto", "--pair-cap": PAIR_CAP, "--timeout": None}
_CHOICES = {"--format": ("text", "json"), "--answers": ("on", "off", "auto")}
_TYPES = {"--max-unfold": int, "--pair-cap": int, "--timeout": float}
_FLAGS = ("--help", "--trace", *_DEFAULTS)


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}termi-arith: error: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _flag(name: str) -> str:
    """The flag that `name` is, or is a unique prefix of."""
    if name == "-h":
        return "--help"
    matches = [flag for flag in _FLAGS if name.startswith("--") and flag.startswith(name)]
    if len(matches) != 1:
        _usage_error(f"ambiguous option: {name} could match {', '.join(matches)}"
                     if matches else f"unrecognized arguments: {name}")
    return matches[0]


def _parse_args(argv: list[str]) -> tuple[str, dict]:
    """The program path and every flag's value, its default if absent.
    Flags may follow the program, and may be written `--flag=value` or
    as a unique prefix; `--` ends them.  Bad arguments print the usage
    and exit 2."""
    args = {**_DEFAULTS, "--trace": False}
    positional = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            positional += rest
            break
        if not arg.startswith("-") or arg == "-":
            positional.append(arg)
            continue
        name, explicit, value = arg.partition("=")
        flag = _flag(name)
        if flag in _DEFAULTS:
            if not explicit and (value := next(rest, None)) is None:
                _usage_error(f"argument {flag}: expected one argument")
            if flag in _CHOICES and value not in _CHOICES[flag]:
                choices = ", ".join(map(repr, _CHOICES[flag]))
                _usage_error(f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
            elif flag in _TYPES:
                try:
                    value = _TYPES[flag](value)
                except ValueError:
                    _usage_error(f"argument {flag}: invalid {_TYPES[flag].__name__} value: {value!r}")
        elif explicit:
            _usage_error(f"argument {flag}: ignored explicit argument {value!r}")
        elif flag == "--help":
            sys.stdout.write(HELP)
            raise SystemExit(0)
        else:
            value = True
        args[flag] = value
    missing = [name for name, absent in (("program", not positional),
                                         ("--query", args["--query"] is None)) if absent]
    if missing:
        _usage_error("the following arguments are required: " + ", ".join(missing))
    if len(positional) > 1:
        _usage_error("unrecognized arguments: " + " ".join(positional[1:]))
    return positional[0], args


def _input_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def main(argv: Optional[list[str]] = None) -> int:
    path, args = _parse_args(sys.argv[1:] if argv is None else argv)
    timeout = args["--timeout"]
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        return _input_error(f"--timeout must be a positive number of seconds, not {timeout}")
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return _input_error(exc)
    except UnicodeDecodeError as exc:
        return _input_error(f"{path} is not UTF-8 text: {exc}")
    try:
        program = normalize_program(parse_program(source))
        pattern = parse_query_pattern(args["--query"])
        options = AnalysisOptions(
            max_unfold=args["--max-unfold"],
            answer_abstraction=args["--answers"],
            pair_cap=args["--pair-cap"],
        )
    except (ParseError, ValueError) as exc:
        return _input_error(exc)
    except RecursionError:
        return _input_error(_TOO_DEEP)

    try:
        with nullcontext() if timeout is None else deadline(timeout):
            verdict = analyse_termination(program, pattern, options)
    except DeadlinePassed:
        print(
            f"error: analysis timed out after {timeout} seconds",
            file=sys.stderr,
        )
        return EXIT_TIMEOUT
    except RecursionError:
        return _input_error(_TOO_DEEP)

    failure = _write_report(render_report(verdict, args["--format"], trace=args["--trace"]))
    for line in verdict.diagnostics:
        print(line, file=sys.stderr)
    if failure is not None:
        print(f"error: the report could not be written: {failure}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_YES if verdict.answer == "YES" else EXIT_NO


def _write_report(text: str) -> Optional[str]:
    """Write the report to stdout; None, or why it could not be."""
    if sys.stdout is None:
        return "stdout is closed"
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        # The interpreter flushes stdout again at exit; aimed at devnull,
        # that flush cannot fail and print "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return exc.strerror or str(exc)
    return None


if __name__ == "__main__":
    sys.exit(main())

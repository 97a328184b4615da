"""Command line front end.

Exit codes: 0 termination proved, 1 no proof found, 2 bad input,
3 timeout.  The report goes to stdout, diagnostics go to stderr."""

import argparse
import math
import signal
import sys
from typing import Optional

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

# Terms are read and walked recursively, so nesting thousands deep runs
# out of interpreter stack: bad input, not a failed proof.
_TOO_DEEP = "the program nests terms too deeply to be analysed"


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termi-arith",
        description=(
            "Prove universal termination of a logic program with integer"
            " arithmetic for every query matching the given pattern."
        ),
    )
    parser.add_argument("program", help="program file to analyse")
    parser.add_argument(
        "--query",
        required=True,
        metavar="PATTERN",
        help='query pattern with one mode (i, b or f) per argument, e.g. "gcd(i,i,f)"',
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--max-unfold",
        type=int,
        default=1,
        metavar="N",
        help="rounds of unfolding tried while refining the domain (default 1)",
    )
    parser.add_argument(
        "--answers",
        choices=("on", "off", "auto"),
        default="auto",
        help="answer abstraction: always, never, or as a re-run after NO (default)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="render every circular pair of the reported run",
    )
    parser.add_argument(
        "--pair-cap",
        type=int,
        default=PAIR_CAP,
        metavar="N",
        help=f"abort a run past this many pairs (default {PAIR_CAP})",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up on the whole analysis after this long (a positive number)",
    )
    return parser


def _input_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.timeout is not None and not (
        math.isfinite(args.timeout) and args.timeout > 0
    ):
        return _input_error(
            f"--timeout must be a positive number of seconds, not {args.timeout}"
        )
    try:
        with open(args.program, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return _input_error(exc)
    try:
        program = normalize_program(parse_program(source))
        pattern = parse_query_pattern(args.query)
        options = AnalysisOptions(
            max_unfold=args.max_unfold,
            answer_abstraction=args.answers,
            pair_cap=args.pair_cap,
        )
    except (ParseError, ValueError) as exc:
        return _input_error(exc)
    except RecursionError:
        return _input_error(_TOO_DEEP)

    timed = args.timeout is not None and hasattr(signal, "SIGALRM")
    if timed:
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, args.timeout)
    try:
        verdict = analyse_termination(program, pattern, options)
    except _Timeout:
        print(
            f"error: analysis timed out after {args.timeout} seconds",
            file=sys.stderr,
        )
        return EXIT_TIMEOUT
    except RecursionError:
        return _input_error(_TOO_DEEP)
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    print(render_report(verdict, args.format, trace=args.trace))
    for line in verdict.diagnostics:
        print(line, file=sys.stderr)
    return EXIT_YES if verdict.answer == "YES" else EXIT_NO


if __name__ == "__main__":
    sys.exit(main())

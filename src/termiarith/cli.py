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


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.timeout is not None and not (
        math.isfinite(args.timeout) and args.timeout > 0
    ):
        print(
            f"error: --timeout must be a positive number of seconds, not {args.timeout}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    try:
        with open(args.program, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        program = normalize_program(parse_program(source))
        pattern = parse_query_pattern(args.query)
        options = AnalysisOptions(
            max_unfold=args.max_unfold,
            answer_abstraction=args.answers,
            pair_cap=args.pair_cap,
            trace=args.trace,
            format=args.format,
        )
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

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
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    print(render_report(verdict, options.format, trace=options.trace))
    for line in verdict.diagnostics:
        print(line, file=sys.stderr)
    return EXIT_YES if verdict.answer == "YES" else EXIT_NO


if __name__ == "__main__":
    sys.exit(main())

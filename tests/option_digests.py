"""Report digests of the corpus under non-default analysis options.

The golden text and JSON files pin the default options only.  This
module pins every other option set the ladder reacts to: one sha256 per
corpus task and option set, over the text, JSON and trace reports, the
method and the diagnostics.  `test_acceptance.py` checks the frozen
digests; a change that alters any report under these options must argue
for it and regenerate the file.

Run:  PYTHONPATH=src python3 tests/option_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import corpus_program

from termiarith.driver import AnalysisOptions, analyse_termination, render_report
from termiarith.syntax import parse_query_pattern

DIGESTS = Path(__file__).parent / "golden" / "option_digests.json"

OPTION_SETS = {
    "answers=on": AnalysisOptions(answer_abstraction="on"),
    "answers=off": AnalysisOptions(answer_abstraction="off"),
    "max_unfold=0": AnalysisOptions(max_unfold=0),
    "max_unfold=2": AnalysisOptions(max_unfold=2),
    "pair_cap=20": AnalysisOptions(pair_cap=20),
}


def report_digest(program, query: str, options: AnalysisOptions) -> str:
    """sha256 over every report of one task, its method and diagnostics."""
    verdict = analyse_termination(program, parse_query_pattern(query), options)
    parts = [
        render_report(verdict),
        render_report(verdict, format="json"),
        render_report(verdict, trace=True),
        str(verdict.method),
        *verdict.diagnostics,
    ]
    return hashlib.sha256("\n\0".join(parts).encode()).hexdigest()


def corpus_digests(corpus) -> dict[str, dict[str, str]]:
    """Task (``name query``) -> option set -> digest."""
    return {
        f"{name} {query}": {
            label: report_digest(corpus_program(name), query, options)
            for label, options in OPTION_SETS.items()
        }
        for name, query, _ in corpus
    }


if __name__ == "__main__":
    from test_acceptance import CORPUS

    DIGESTS.write_text(json.dumps(corpus_digests(CORPUS), indent=2) + "\n")

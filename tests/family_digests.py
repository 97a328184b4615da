"""Report digests of generated scaling-family tasks under the default options.

The corpus golden files pin fourteen hand-written tasks.  This module
pins the chain, guard and nest families of `perfbench/generators.py`
(chain 2-9, guard 2-16, nest 2-16, YES and divergent variants, seed 7):
one sha256 per task over the text, JSON and trace reports, the method
and the diagnostics.  The fixture stores each task's source and query,
so checking it needs nothing outside `tests/`; only regenerating it
reads the generators.

Run:  PYTHONPATH=src python3 tests/family_digests.py
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from option_digests import report_digest

from termiarith.driver import AnalysisOptions
from termiarith.syntax import normalize_program, parse_program

FAMILY_DIGESTS = Path(__file__).parent / "golden" / "family_digests.json"

SEED = 7
PARAMS = {"chain": range(2, 10), "guard": range(2, 17), "nest": range(2, 17)}


def task_digest(source: str, query: str) -> str:
    program = normalize_program(parse_program(source))
    return report_digest(program, query, AnalysisOptions())


def family_task(family: str, value: int, divergent: bool = False):
    """One task of the benchmark generators at `SEED`."""
    perfbench = str(Path(__file__).parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    from generators import FAMILIES

    return FAMILIES[family](value, random.Random(f"{SEED}/{family}/{value}"), divergent)


def generated_tasks() -> dict[str, dict[str, str]]:
    """Task id -> source and query, from the benchmark generators."""
    tasks = {}
    for family, values in PARAMS.items():
        for value in values:
            for divergent in (False, True):
                task = family_task(family, value, divergent)
                tasks[task.task_id] = {"source": task.source, "query": task.query}
    return tasks


if __name__ == "__main__":
    fixture = {
        task_id: {**task, "sha256": task_digest(task["source"], task["query"])}
        for task_id, task in generated_tasks().items()
    }
    FAMILY_DIGESTS.write_text(json.dumps(fixture, indent=2) + "\n")

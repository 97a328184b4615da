"""Per-layer tracing from outside the program.

The tracer wraps the public entry points of each `termiarith` module and
rebinds every name under which a loaded `termiarith` module holds the
original function.  Rebinding matters: `driver` does
`from .pairs import generate_pairs`, so patching `pairs` alone would
miss every call the driver makes.

Each wrapped call records one span `(name, start, end, parent, task)`
in memory; nothing is written while the program runs.  A layer is named
after its module, and its self time is the sum over its spans of the
span's duration minus the durations of its direct child spans.  A few
counters are taken at the same boundaries from the calls' arguments and
results, so ratios are measured where the work happens."""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from collections.abc import Iterator
from time import perf_counter

# Wrapped entry points per layer.  Helpers called per term or per atom
# (and generators) stay unwrapped: their cost lands in the caller's
# self time.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "syntax": ("parse_program", "parse_query_pattern", "normalize_program"),
    "driver": ("analyse_termination", "render_report"),
    "modes": ("infer_argument_modes",),
    "graph": ("find_integer_loops",),
    "domain": (
        "collect_comparisons",
        "collect_answer_comparisons",
        "infer_comparisons",
        "build_domain",
        "extend_domain",
        "unfold_once",
    ),
    "answers": ("build_answer_domain", "compute_abstract_answers"),
    "norms": ("infer_size_relations",),
    "pairs": (
        "generate_pairs",
        "compose_until_fixpoint",
        "is_circular",
        "prove_pair",
        "check_forward_positive_cycle",
    ),
    "constraints": (
        "is_satisfiable",
        "implies",
        "implies_all",
        "project",
        "project_or_none",
        "simplify",
    ),
}


def _materialise(args: tuple) -> tuple:
    """Arguments with one-shot iterators turned into tuples, so the key
    below can read them without consuming what the callee needs."""
    return tuple(tuple(a) if isinstance(a, Iterator) else a for a in args)


def _freeze(value):
    return frozenset(value) if isinstance(value, (set, frozenset, list, tuple)) else value


def _argument_key(name: str, args: tuple, kwargs: dict) -> tuple:
    """A hashable key for a solver call.  Conjunctions and variable lists
    are sets, so every collection argument is keyed by its elements."""
    return (
        name,
        *map(_freeze, args),
        *((key, _freeze(value)) for key, value in sorted(kwargs.items())),
    )


class Tracer:
    """Spans and counters of one process.  `task` labels the spans of
    the task in flight; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans: list = []
        self.pauses: list = []
        self.task: str = ""
        self._stack: list[int] = []
        self._seen: set = set()
        self._restore: list[tuple[object, str, object]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"termiarith.{layer}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(layer, name, original)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("termiarith"):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._restore.append((loaded, attr, original))
                            setattr(loaded, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, name: str, original):
        spans = self.spans
        stack = self._stack
        label = f"{layer}.{name}"
        count = self._count_hook(layer, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if layer == "constraints":
                args = _materialise(args)
                self._note_repeat(name, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.task)
            if count is not None:
                count(self.counts[self.task], result)
            return result

        return wrapper

    def note_pause(self, start: float, end: float) -> None:
        """An interval spent outside the program (a signal handler of the
        benchmark) while the innermost open span was running.  Called
        between any two bytecodes, so it only appends."""
        self.pauses.append(("pause", start, end, self._stack[-1] if self._stack else -1, self.task))

    # -- counters ---------------------------------------------------------

    def _note_repeat(self, name: str, args: tuple, kwargs: dict) -> None:
        counts = self.counts[self.task]
        key = _argument_key(name, args, kwargs)
        counts["constraints.calls"] += 1
        if key in self._seen:
            counts["constraints.repeats"] += 1
        else:
            self._seen.add(key)

    @staticmethod
    def _count_hook(layer: str, name: str):
        def add(metric, amount):
            def hook(counts, result):
                counts[metric] += amount(result)

            return hook

        if name == "generate_pairs":
            return add("pairs.base", len)
        if name == "compose_until_fixpoint":
            return add("pairs.closure", len)
        if name == "is_circular":
            return add("pairs.circular", bool)
        if name == "build_domain":
            return add("domain.pieces", lambda d: sum(len(v) for v in d.values()))
        if name == "prove_pair":
            def hook(counts, result):
                counts["pairs.prove_calls"] += 1
                counts["pairs.proved"] += result is not None

            return hook
        if layer in ("modes", "graph"):
            return add(f"{layer}.calls", lambda _: 1)
        return None

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per task: each layer's self time (`<layer>.self_s`) plus the
        counters, as plain numbers.  Pauses count as child time of the
        innermost span that encloses them."""
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for _, start, end, parent, _ in self.pauses:
            while parent >= 0 and not self.spans[parent][1] <= start <= end <= self.spans[parent][2]:
                parent = self.spans[parent][3]
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (label, start, end, _, task), children in zip(self.spans, child_time):
            layer = label.split(".", 1)[0]
            totals[task][f"{layer}.self_s"] += end - start - children
        for task, counts in self.counts.items():
            totals[task].update(counts)
        return {task: dict(values) for task, values in totals.items()}

    def write_spans(self, path) -> None:
        """Every span, then every pause, as one JSON array per line,
        written once."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans + self.pauses:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")

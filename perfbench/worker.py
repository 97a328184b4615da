"""Benchmark worker process.

Started by `perfbench/run.py` with `src` on the path, in one of three
modes:

* `cli RESULT_FD SPANS_PATH -- ARGV...` runs one task through
  `termiarith.cli.main(ARGV)`, exactly as the command line does: the
  report goes to stdout, diagnostics to stderr, and the exit code is
  the process's.  Timings, memory and (when SPANS_PATH is not `-`) the
  per-layer totals go to the inherited pipe RESULT_FD as one JSON line.
* `stream SPANS_PATH` stays alive and answers one JSON line on stdout
  for each JSON task line read from stdin, through `analyse_termination`
  and `render_report`, the way a library caller would.  An empty line
  ends the stream; the worker then answers with its totals.
* `probe` prints its start-up record and exits.

Every mode reports `ready`, the CLOCK_MONOTONIC reading once
`termiarith.cli` is imported (before anything else), which the parent
turns into the set-up time, and `ready_reference`, the CPU speed right
after it (see `CpuSpeed`)."""

import time

import termiarith.cli as cli

READY = time.monotonic()

# The remaining imports come after READY, so set-up time is the import's.
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024

# CPU time between two speed samples while a task runs.
SAMPLE_EVERY = 0.05


def rss_kb() -> int:
    """Resident set size of this process now."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_KB


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _reference_job(iterations: int) -> None:
    """Pure Python shaped like the prover's hot path: Fraction
    arithmetic, frozenset hashing, dict updates."""
    total = Fraction(0)
    counts: dict = {}
    for i in range(1, iterations + 1):
        total += Fraction(i, i % 7 + 1) * Fraction(3, 5)
        key = frozenset((i % 13, i % 17, i % 19))
        counts[key] = counts.get(key, 0) + 1


def reference_seconds() -> float:
    """Time of a fixed slice of the reference job on this CPU now, about
    1.5 ms on an uncontended core.  A short unmeasured run first warms
    the job's code and data, and the cyclic collector is off, so the
    time does not depend on what ran before or on the heap it left."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _reference_job(30)
        start = time.perf_counter()
        _reference_job(300)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class CpuSpeed:
    """How fast the CPU ran while a task ran.

    On a shared host a CPU runs up to twice as slow for seconds to
    minutes while another tenant uses its core.  This times the
    reference slice twice before the task, every SAMPLE_EVERY seconds of
    CPU time during it (from a SIGPROF handler) and twice after it.
    `reference` is the slice time weighted like the task's time (the
    harmonic mean, as each sample stands for an equal stretch of CPU
    time); `inside` is what the in-task samples took, which the caller
    takes off the task's time.  `on_sample(start, end)` lets a tracer
    take each in-task sample off the self time of the span it
    interrupted."""

    def __init__(self, on_sample=None):
        self.samples: list[float] = []
        self.inside = 0.0
        self._on_sample = on_sample

    def _sample_inside(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        end = time.perf_counter()
        self.inside += end - start
        if self._on_sample is not None:
            self._on_sample(start, end)

    def __enter__(self):
        self.samples += [reference_seconds(), reference_seconds()]
        self._previous = signal.signal(signal.SIGPROF, self._sample_inside)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.samples += [reference_seconds(), reference_seconds()]
        return False

    @property
    def reference(self) -> float:
        return statistics.harmonic_mean(self.samples)


def _tracer(spans_path: str):
    if spans_path == "-":
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _speed(tracer) -> CpuSpeed:
    return CpuSpeed(None if tracer is None else tracer.note_pause)


def run_cli(startup: dict, result_fd: int, spans_path: str, argv: list[str]) -> int:
    tracer = _tracer(spans_path)
    record = dict(startup)
    rss_ready = rss_kb()
    with _speed(tracer) as speed:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # reported as a failed task, never dropped
            code = None
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["elapsed"] = time.perf_counter() - start - speed.inside
    record["reference"] = speed.reference
    sys.stdout.flush()
    record.update(code=code, rss_ready_kb=rss_ready, rss_end_kb=rss_kb(),
                  peak_rss_kb=peak_rss_kb())
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_totals().get("", {})
        tracer.write_spans(spans_path)
    with os.fdopen(result_fd, "w", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\n")
    return 1 if code is None else code


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_stream(startup: dict, spans_path: str) -> int:
    from termiarith import driver, syntax

    tracer = _tracer(spans_path)
    signal.signal(signal.SIGALRM, _alarm)
    print(json.dumps({**startup, "rss_kb": rss_kb()}), flush=True)
    for line in sys.stdin:
        if not line.strip():
            break
        task = json.loads(line)
        if tracer is not None:
            tracer.task = task["id"]
        reply = {}
        with _speed(tracer) as speed:
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, task["timeout"])
            try:
                program = syntax.normalize_program(syntax.parse_program(task["source"]))
                pattern = syntax.parse_query_pattern(task["query"])
                verdict = driver.analyse_termination(program, pattern)
                report = driver.render_report(verdict) + "\n"
            except _Timeout:
                reply["error"] = "timeout"
            except Exception as exc:  # reported as a failed task, never dropped
                reply["error"] = f"{type(exc).__name__}: {exc}"
            else:
                reply.update(
                    verdict=verdict.answer,
                    sha256=hashlib.sha256(report.encode("utf-8")).hexdigest(),
                    diagnostics=list(verdict.diagnostics),
                )
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start - speed.inside
        reply.update(elapsed=elapsed, reference=speed.reference, rss_kb=rss_kb())
        print(json.dumps(reply), flush=True)
    final = {"peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        tracer.uninstall()
        final["layers"] = tracer.layer_totals()
        tracer.write_spans(spans_path)
    print(json.dumps(final), flush=True)
    return 0


def main(argv: list[str]) -> int:
    startup = {
        "ready": READY,
        "ready_reference": statistics.harmonic_mean(reference_seconds() for _ in range(4)),
    }
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        result_fd, spans_path, separator, *cli_argv = rest
        if separator != "--":
            raise SystemExit("usage: worker.py cli RESULT_FD SPANS_PATH -- ARGV...")
        return run_cli(startup, int(result_fd), spans_path, cli_argv)
    if mode == "stream":
        (spans_path,) = rest
        return run_stream(startup, spans_path)
    if mode == "probe":
        print(json.dumps(startup))
        return 0
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""termiarith benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (one client, closed loop:
the next task starts only after the previous verdict is in):

* `corpus-cold`: the 14 `tests/corpus` tasks, each in a fresh worker
  through `termiarith.cli.main` with `--timeout`; the seed orders them.
  This is how command-line users run the tool, with every cache empty.
* `families-cold`: generated chain, guard-count and nested-loop programs
  plus one divergent variant per family, each in a fresh worker; the
  seed varies constants and variable names.  YES tasks stop at the first
  numeric rung, so cost scales with the parameter, not the ladder.
* `library-warm`: one long-lived worker fed a stream through
  `analyse_termination` + `render_report`: the corpus, then its repeats
  mixed with as many fresh seeded family variants and their repeats.
  Half the stream repeats earlier tasks unchanged, as an editor or CI
  re-checking programs would send, so the process-global solver caches
  are used the opposite way from the cold workloads.

A run repeats the workload's task list ("batch") a fixed number of
times set by `--seconds` (see `batch_count`), and reports medians over
batches and tasks.  Times are reported at a reference CPU speed: each
worker times a fixed slice of pure Python before, during and after its
task (`worker.CpuSpeed`) and scales the task's measured time by
REFERENCE_S over that.  On a shared host a CPU runs up to twice as slow
for minutes while another tenant uses its core, which repeats cannot
average away; the measured times stay in the per-task rows.

Expected verdicts never come from the prover: the corpus table in
`tests/test_acceptance.py` and the construction of each generated
program fix them.  A task fails on a wrong verdict, an exit code outside
0/1, an exception, running past the time limit, or report bytes that
differ from an earlier repeat of the same task.

End-to-end metrics (`--trace 0`): `batch_s`, the sum of one batch's
verdict times (median over batches); `verdict_s.p50`, `.tail` and
`.geomean` over the tasks' verdict times (see `end_to_end`); `setup_s`,
spawn to `termiarith.cli` imported (median over every worker and
SETUP_PROBES probes); `peak_rss_mb`, the largest worker peak RSS;
`rss_growth_mb`, on `library-warm` the RSS after the stream minus after
its first quarter, on the cold workloads the largest growth of one
worker from ready to exit (median over batches).  `failed_share` is
printed with them and is the result's `failed` over `attempted`.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` untraced and traced batches alternate and it carries
the per-layer metrics of the traced ones (see `perfbench/tracer.py`).
Every run also writes its per-task rows, host description and seed to
`perfbench/out/<workload>-seed<N>-trace<T>.json`."""

from __future__ import annotations

import argparse
import ast
import functools
import hashlib
import json
import math
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generators import FAMILIES, NO, YES, Task

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS_DIR = ROOT / "tests" / "corpus"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

# Per-task limit handed to the prover (`--timeout`, or an alarm in the
# library worker); the harness kills a worker that has not answered
# BACKSTOP_GRACE seconds after it.
TASK_TIMEOUT = 30.0
BACKSTOP_GRACE = 5.0
# Workers started only to time interpreter start plus import.
SETUP_PROBES = 5
# The tail percentile is the highest of these with at least
# MIN_BEYOND_TAIL samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10

# families-cold rows: the parameters of each family's YES variants, and
# the small parameter of its divergent variant.  Every task decides well
# within TASK_TIMEOUT; guard programs past 6 guards exceed the prover's
# comparison cap and would get NO.
FAMILY_PARAMS = {"chain": (2, 3, 4, 5), "guard": (2, 3, 4, 5, 6), "nest": (2, 4, 6, 8, 10)}
DIVERGENT_PARAM = 2
# library-warm: the fresh variants streamed after the corpus, as many
# tasks as the corpus has (with one divergent variant per family), so the
# stream's first quarter is exactly the corpus's first pass.
STREAM_PARAMS = {"chain": (2, 3, 4), "guard": (2, 3, 4, 5), "nest": (4, 6, 8, 10)}

# The reference slice's time (`worker.reference_seconds`) on an
# uncontended CPU of a 2-vCPU Xeon VM; timings are reported at this speed.
REFERENCE_S = 0.0015

# Seconds of a run allotted to one batch (about its wall time, worker
# start-ups included, on that VM when its CPU is contended).  A run does `--seconds` over this many
# batches rather than stopping by the clock, so both sides of a
# comparison do the same work and take the tail at the same percentile
# however fast either one is.
BATCH_SECONDS = {"corpus-cold": 13.0, "families-cold": 13.0, "library-warm": 20.0}

LAYER_TIMES = (
    "constraints", "pairs", "driver", "modes", "graph",
    "domain", "answers", "norms", "syntax", "cli",
)
LAYER_COUNTS = (
    "constraints.calls", "pairs.base", "pairs.closure", "pairs.circular",
    "modes.calls", "graph.calls", "domain.pieces",
)


class SetupError(Exception):
    """The checkout lacks what the benchmark needs."""


# ---------------------------------------------------------------------------
# Tasks.


def check_checkout() -> None:
    if not ACCEPTANCE.is_file() or not (SRC / "termiarith").is_dir():
        raise SetupError(f"run from the root of a termiarith checkout ({ROOT} is not one)")


def corpus_tasks() -> list[Task]:
    """The corpus rows of `tests/test_acceptance.py`, read without
    importing the test module: `CORPUS = [(name, query, YES|NO), ...]`."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CORPUS" for t in node.targets
        ):
            rows = node.value
            break
    else:
        raise SetupError(f"no CORPUS table in {ACCEPTANCE}")
    tasks = []
    for row in rows.elts:
        name, query, expected = row.elts
        answer = {"YES": YES, "NO": NO}[expected.id]
        path = CORPUS_DIR / f"{name.value}.pl"
        tasks.append(
            Task(f"{name.value}:{query.value}", "corpus", 0,
                 path.read_text(encoding="utf-8"), query.value, answer)
        )
    return tasks


def family_tasks(rng: random.Random, params: dict) -> list[Task]:
    tasks = []
    for family, values in params.items():
        make = FAMILIES[family]
        tasks += [make(value, rng) for value in values]
        tasks.append(make(DIVERGENT_PARAM, rng, divergent=True))
    return tasks


def warm_stream(rng: random.Random) -> list[Task]:
    """The corpus once, then its repeats mixed with fresh family variants
    and their repeats, each repeat after its first copy.  Every distinct
    task appears twice, so the repeat share is one half, and the first
    quarter (which the RSS growth starts from) is the same on every seed."""
    corpus = corpus_tasks()
    fresh = family_tasks(rng, STREAM_PARAMS)
    if len(fresh) != len(corpus):
        raise ValueError("the fresh variants must match the corpus in number")
    rng.shuffle(corpus)
    rest = corpus + fresh * 2
    rng.shuffle(rest)
    return corpus + rest


# ---------------------------------------------------------------------------
# Workers.


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def communicate_with_backstop(proc: subprocess.Popen, limit: float):
    """(stdout, stderr, killed): wait at most `limit` seconds, then kill
    the process, which also covers a worker that ignores SIGALRM."""
    try:
        out, err = proc.communicate(timeout=limit)
        return out, err, False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return out, err, True


def setup_seconds(spawned: float, startup: dict) -> float:
    """Seconds from spawning a worker to `termiarith.cli` imported, at
    the reference CPU speed."""
    return (startup["ready"] - spawned) * REFERENCE_S / startup["ready_reference"]


def probe_setup() -> float:
    """Set-up time of a worker that does nothing else."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "probe"],
        stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT,
    )
    out, _, killed = communicate_with_backstop(proc, TASK_TIMEOUT)
    if killed or proc.returncode != 0:
        raise SetupError("the interpreter could not import termiarith.cli")
    return setup_seconds(start, json.loads(out))


def _rungs(diagnostics) -> int:
    """Distinct escalation rungs in the driver's rung log."""
    return len({line[5:].split(": ", 1)[0] for line in diagnostics if line.startswith("rung ")})


def _judge(task: Task, row: dict, digests: dict) -> None:
    """Fill in `ok` and `reason` from the verdict and report digest."""
    reason = row.get("reason")
    if reason is None and row["verdict"] != task.expected:
        reason = f"verdict {row['verdict']}, expected {task.expected}"
    if reason is None:
        first = digests.setdefault(task.task_id, row["sha256"])
        if first != row["sha256"]:
            reason = "report bytes differ from an earlier repeat"
    row["ok"] = reason is None
    row["reason"] = reason


def _row(task: Task, batch: int, traced: bool) -> dict:
    return {
        "batch": batch, "traced": traced, "task": task.task_id,
        "family": task.family, "param": task.param, "expected": task.expected,
        "verdict": None, "reason": None, "sha256": None, "rungs": 0,
    }


def run_cold_task(task: Task, path: Path, batch: int, traced: bool, digests: dict) -> dict:
    """One task in a fresh worker through `termiarith.cli.main`."""
    row = _row(task, batch, traced)
    spans = OUT / "spans" / f"{_file_stem(task.task_id)}.jsonl"
    read_fd, write_fd = os.pipe()
    cmd = [
        sys.executable, str(WORKER), "cli", str(write_fd),
        str(spans) if traced else "-", "--",
        str(path), "--query", task.query, "--timeout", str(TASK_TIMEOUT),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(write_fd,), env=_worker_env(), cwd=ROOT,
        )
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd, "rb") as result:
        out, err, killed = communicate_with_backstop(proc, TASK_TIMEOUT + BACKSTOP_GRACE)
        payload = result.read()
    record = json.loads(payload) if payload.strip() else {}
    row["code"] = proc.returncode
    if killed:
        row["reason"] = "killed by the harness backstop"
        row["time_s"] = time.monotonic() - spawned
    elif "error" in record:
        row["reason"] = f"exception: {record['error']}"
    elif not record:
        row["reason"] = f"worker died with exit code {proc.returncode}"
    elif record["code"] not in (0, 1):
        row["reason"] = f"exit code {record['code']}"
    else:
        row["verdict"] = YES if record["code"] == 0 else NO
        if not out.startswith(f"{row['verdict']}:".encode()):
            row["reason"] = "report headline disagrees with the exit code"
    if record:
        row.update(
            time_s=record["elapsed"],
            reference_s=record["reference"],
            setup_s=setup_seconds(spawned, record),
            peak_rss_mb=record["peak_rss_kb"] / 1024,
            rss_growth_mb=(record["rss_end_kb"] - record["rss_ready_kb"]) / 1024,
            layers=record.get("layers"),
        )
    row["sha256"] = hashlib.sha256(out).hexdigest()
    row["rungs"] = _rungs(err.decode("utf-8", "replace").splitlines())
    _judge(task, row, digests)
    return row


def run_cold_batch(tasks, paths, batch, traced, digests) -> dict:
    rows = [run_cold_task(t, paths[t.task_id], batch, traced, digests) for t in tasks]
    return {
        "rows": rows,
        "setup": [r["setup_s"] for r in rows if "setup_s" in r],
        "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in rows),
        "rss_growth_mb": max(r.get("rss_growth_mb", 0.0) for r in rows),
    }


class _LineReader:
    """Whole lines from a worker's stdout, each within a deadline."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buffer = b""

    def readline(self, limit: float):
        deadline = time.monotonic() + limit
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 65536)
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)


def run_warm_batch(stream, batch, traced, digests) -> dict:
    """The whole stream through one library worker."""
    spans = OUT / "spans" / "library-warm.jsonl"
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "stream", str(spans) if traced else "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT,
    )
    reader = _LineReader(proc.stdout)
    rows = []
    try:
        hello = reader.readline(TASK_TIMEOUT)
        if hello is None:
            raise SetupError("the library worker did not start")
        rss = [hello["rss_kb"]]
        alive = True
        for position, task in enumerate(stream):
            row = _row(task, batch, traced)
            rows.append(row)
            if not alive:
                row["reason"] = "not run: the worker was killed"
                _judge(task, row, digests)
                continue
            message = {"id": str(position), "source": task.source,
                       "query": task.query, "timeout": TASK_TIMEOUT}
            proc.stdin.write((json.dumps(message) + "\n").encode())
            proc.stdin.flush()
            reply = reader.readline(TASK_TIMEOUT + BACKSTOP_GRACE)
            if reply is None:
                proc.kill()
                alive = False
                row["reason"] = "killed by the harness backstop"
                row["time_s"] = TASK_TIMEOUT + BACKSTOP_GRACE
            elif "error" in reply:
                row["reason"] = f"exception: {reply['error']}"
            else:
                row.update(verdict=reply["verdict"], sha256=reply["sha256"],
                           rungs=_rungs(reply["diagnostics"]))
            if reply is not None:
                row["time_s"] = reply["elapsed"]
                row["reference_s"] = reply["reference"]
                rss.append(reply["rss_kb"])
            _judge(task, row, digests)
        final = {}
        if alive:
            proc.stdin.write(b"\n")
            proc.stdin.flush()
            final = reader.readline(TASK_TIMEOUT) or {}
        for position, layers in final.get("layers", {}).items():
            rows[int(position)]["layers"] = layers
    finally:
        proc.stdin.close()
        if proc.poll() is None:
            try:
                proc.wait(timeout=BACKSTOP_GRACE)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    quarter = rss[min(len(rss) - 1, max(1, len(stream) // 4))]
    return {
        "rows": rows,
        "setup": [setup_seconds(spawned, hello)],
        "peak_rss_mb": final.get("peak_rss_kb", 0) / 1024,
        "rss_growth_mb": (rss[-1] - quarter) / 1024,
    }


# ---------------------------------------------------------------------------
# Metrics.


def tail_percentile(n: int) -> float:
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= MIN_BEYOND_TAIL:
            return p
    return TAIL_PERCENTILES[-1]


def percentile(values, p: float) -> float:
    """Linear interpolation between the closest ranks (numpy's default)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def verdict_seconds(row: dict) -> float:
    """A task's time to its verdict at the reference CPU speed: the
    measured time scaled by REFERENCE_S over the reference slice's time
    while the task ran.  A killed task has no reference and keeps its
    measured time."""
    return row["time_s"] * REFERENCE_S / row.get("reference_s", REFERENCE_S)


def batch_seconds(batch: dict) -> float:
    """Time to decide the task list once: the sum of per-task verdict
    times (one task in flight, worker start-up excluded)."""
    return sum(verdict_seconds(r) for r in batch["rows"] if "time_s" in r)


def end_to_end(batches, probes) -> tuple[dict, dict]:
    """The end-to-end metrics of the untraced batches.  The p50 is the
    median over tasks of each task's median time, so it is not read off
    the extremes of two neighbouring tasks' samples; the tail is over
    all samples, as its percentile depends on their number."""
    by_task: dict = {}
    for batch in batches:
        for row in batch["rows"]:
            if "time_s" in row:
                by_task.setdefault(row["task"], []).append(verdict_seconds(row))
    times = [t for task_times in by_task.values() for t in task_times]
    tail = tail_percentile(len(times))
    metrics = {
        "batch_s": (statistics.median(batch_seconds(b) for b in batches), "s"),
        "verdict_s.p50": (statistics.median(map(statistics.median, by_task.values())), "s"),
        "verdict_s.tail": (percentile(times, tail), "s"),
        "verdict_s.geomean": (math.exp(statistics.fmean(math.log(t) for t in times)), "s"),
        "setup_s": (statistics.median(probes + [s for b in batches for s in b["setup"]]), "s"),
        "peak_rss_mb": (max(b["peak_rss_mb"] for b in batches), "MB"),
        "rss_growth_mb": (statistics.median(b["rss_growth_mb"] for b in batches), "MB"),
    }
    return metrics, {"tail_percentile": tail, "samples": len(times)}


def _batch_layers(batch: dict) -> dict:
    """Per-layer totals of a traced batch; self times are scaled to the
    reference CPU speed like the task's verdict time, so they sum to it."""
    total: dict = {"driver.rungs": 0}
    for row in batch["rows"]:
        total["driver.rungs"] += row["rungs"]
        scale = REFERENCE_S / row.get("reference_s", REFERENCE_S)
        for key, value in (row.get("layers") or {}).items():
            total[key] = total.get(key, 0) + (value * scale if key.endswith(".self_s") else value)
    return total


def per_layer(traced, untraced) -> dict:
    sums = [_batch_layers(b) for b in traced]

    def med(key):
        return statistics.median(s.get(key, 0) for s in sums)

    def share(part, whole):
        return statistics.median(s.get(part, 0) / max(s.get(whole, 0), 1) for s in sums)

    metrics = {f"{layer}.self_s": (med(f"{layer}.self_s"), "s") for layer in LAYER_TIMES}
    metrics.update({key: (med(key), "count") for key in LAYER_COUNTS})
    metrics["driver.rungs"] = (med("driver.rungs"), "count")
    metrics["constraints.repeat_share"] = (share("constraints.repeats", "constraints.calls"), "share")
    metrics["pairs.proved_share"] = (share("pairs.proved", "pairs.prove_calls"), "share")
    metrics["trace.overhead_s"] = (
        statistics.median(map(batch_seconds, traced))
        - statistics.median(map(batch_seconds, untraced)),
        "s",
    )
    return metrics


# ---------------------------------------------------------------------------
# Driver.


def host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def _file_stem(task_id: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in task_id)


def prepare(workload: str, rng: random.Random):
    """(run one batch, tasks) for the workload.  Cold tasks reach the
    CLI as program files written here; each batch reorders them."""
    if workload == "library-warm":
        stream = warm_stream(rng)
        return functools.partial(run_warm_batch, stream), stream
    tasks = corpus_tasks() if workload == "corpus-cold" else family_tasks(rng, FAMILY_PARAMS)
    (OUT / "programs").mkdir(parents=True, exist_ok=True)
    paths = {}
    for task in tasks:
        paths[task.task_id] = OUT / "programs" / f"{_file_stem(task.task_id)}.pl"
        paths[task.task_id].write_text(task.source, encoding="utf-8")

    def run_batch(batch, traced, digests):
        order = list(tasks)
        rng.shuffle(order)
        return run_cold_batch(order, paths, batch, traced, digests)

    return run_batch, tasks


def repeat_share(workload: str, tasks: list[Task]) -> float:
    """Share of a batch's tasks that one process has seen before."""
    if workload != "library-warm":
        return 0.0
    seen: set = set()
    repeats = 0
    for task in tasks:
        repeats += task.task_id in seen
        seen.add(task.task_id)
    return repeats / len(tasks)


def batch_count(workload: str, seconds: float, trace: bool) -> int:
    """Batches per run; a traced run does pairs of an untraced and a
    traced batch in about the same time."""
    batches = seconds / BATCH_SECONDS[workload]
    return max(1, int(batches / 2)) if trace else max(1, round(batches))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    check_checkout()
    rng = random.Random(f"{workload}/{seed}")
    run_batch, tasks = prepare(workload, rng)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    probes = [probe_setup() for _ in range(SETUP_PROBES)]
    digests: dict = {}
    untraced, traced = [], []
    for _ in range(batch_count(workload, seconds, trace)):
        untraced.append(run_batch(len(untraced) + len(traced), False, digests))
        if trace:
            traced.append(run_batch(len(untraced) + len(traced), True, digests))
    rows = [r for b in untraced + traced for r in b["rows"]]
    failed = sum(1 for r in rows if not r["ok"])
    metrics, tail = end_to_end(untraced, probes)
    if trace:
        metrics = per_layer(traced, untraced)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host(), "tasks": len(tasks),
        "batches": {"untraced": len(untraced), "traced": len(traced)},
        "repeat_share": repeat_share(workload, tasks),
        "tail": tail, "setup_probes_s": probes,
        "attempted": len(rows), "failed": failed,
        "failed_share": failed / len(rows),
        "reports_sha256": hashlib.sha256(
            "".join(f"{k} {v}\n" for k, v in sorted(digests.items())).encode()
        ).hexdigest(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "rows": rows,
    }


def summary(result: dict) -> list[str]:
    """Human-readable lines: host, one row per task (sorted by family and
    parameter, so growth with the parameter shows), failures, metrics.
    `median_s` is at the reference CPU speed, `raw_s` as measured; traced
    cold runs add each task's closure size and solver self time."""
    h = result["host"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
        f"  python {h['python']}  nproc {h['nproc']}  cpu {h['cpu']}",
        f"batches {result['batches']['untraced']} untraced + {result['batches']['traced']} traced"
        f" of {result['tasks']} tasks; repeat share {result['repeat_share']}",
        f"{'task':26} {'verdict':7} {'n':>3} {'median_s':>9} {'raw_s':>9} {'rungs':>5}"
        f" {'closure':>7} {'solver_s':>8}  sha256",
    ]
    def median(values, width, digits):
        return f"{statistics.median(values):{width}.{digits}f}" if values else f"{'-':>{width}}"

    by_task: dict = {}
    for row in result["rows"]:
        by_task.setdefault((row["family"], row["param"], row["task"]), []).append(row)
    for (_, _, task), rows in sorted(by_task.items()):
        timed = [r for r in rows if "time_s" in r and not r["traced"]]
        layers = [r["layers"] for r in rows if r.get("layers")]
        lines.append(" ".join([
            f"{task:26} {str(rows[0]['verdict']):7} {len(timed):3d}",
            median([verdict_seconds(r) for r in timed], 9, 4),
            median([r["time_s"] for r in timed], 9, 4),
            f"{rows[0]['rungs']:5d}",
            median([l.get("pairs.closure", 0) for l in layers], 7, 0),
            median([l.get("constraints.self_s", 0) for l in layers], 8, 3),
            f" {(rows[0]['sha256'] or '-')[:16]}",
        ]))
    for row in result["rows"]:
        if not row["ok"]:
            lines.append(f"FAILED {row['task']} (batch {row['batch']}): {row['reason']}")
    lines.append(
        f"failed_share {result['failed_share']:.4f} share"
        f" ({result['failed']} of {result['attempted']} attempted)"
    )
    if not result["trace"]:
        lines.append(
            f"tail = p{result['tail']['tail_percentile']:g} over {result['tail']['samples']} samples"
        )
    for name, metric in result["metrics"].items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"reports sha256 {result['reports_sha256']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus-cold", "families-cold", "library-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1), encoding="utf-8")
    for line in summary(result):
        print(line)
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

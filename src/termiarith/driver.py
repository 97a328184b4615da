"""Analysis driver.

Runs the whole pipeline for one (program, query pattern) task: a first
attempt with structural norms only, the integer-basedness gates, then
an escalation ladder over comparison sources (collected, inferred,
inferred after unfolding), optionally re-run with answer abstraction.
The verdict carries per-loop, per-pair evidence and feeds the text and
JSON report emitters.

Every attempt is one `_attempt`: generate pairs, close them, prove the
circular ones, report per loop.  The structural attempt goes through
`prove_pair` too: its pairs carry empty row constraints, so no
termination function is suggested and the proof is the structural test.

Modes, loops and the size table depend only on the rung program, so
each distinct program (the input and each unfolding, built only when
its rung is reached) is analysed once.  A rung's query domains are built
once and shared by both answer passes; a rung stopped by a cap or by
disabled inference logs its lines again in the second pass."""

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .answers import build_answer_domain, compute_abstract_answers
from .constraints import render_conjunction
from .domain import (
    COMPARISON_CAP,
    DomainTooLarge,
    build_domain,
    collect_comparisons,
    infer_comparisons,
    unfold_once,
)
from .graph import LoopInfo, find_integer_loops
from .modes import infer_argument_modes
from .norms import infer_size_relations
from .pairs import (
    CANDIDATE_CAP,
    PAIR_CAP,
    PairCapExceeded,
    PairProof,
    compose_until_fixpoint,
    generate_pairs,
    is_circular,
    pair_sort_key,
    prove_pair,
    render_pair,
)
from .syntax import Program, QueryPattern, UserAtom

YES = "YES"
NO = "NO"

NO_HEADLINE = "no termination proof found"


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs for one analysis run.  Caps must stay positive; they turn
    blow-ups into NO verdicts with diagnostics instead of long runs."""

    max_unfold: int = 1
    answer_abstraction: str = "auto"
    use_inference: bool = True
    candidate_cap: int = CANDIDATE_CAP
    pair_cap: int = PAIR_CAP
    comparison_cap: int = COMPARISON_CAP

    def __post_init__(self):
        if self.answer_abstraction not in ("on", "off", "auto"):
            raise ValueError("answer_abstraction must be on, off or auto")
        if min(self.candidate_cap, self.pair_cap, self.comparison_cap) <= 0:
            raise ValueError("caps must be positive")
        if self.max_unfold < 0:
            raise ValueError("max_unfold must be non-negative")


@dataclass(frozen=True)
class PairEvidence:
    """One circular pair of the final run: its query in report form and
    either the discharging proof or None."""

    query: str
    constraint: str
    proof: Optional[str]
    trace: str


@dataclass(frozen=True)
class LoopReport:
    predicates: tuple[str, ...]
    integer_based: bool
    domain: dict[str, tuple[str, ...]]
    pairs: tuple[PairEvidence, ...]


@dataclass(frozen=True)
class Verdict:
    """YES only when every circular pair of the reported run carries a
    proof; diagnostics explain NO verdicts and record the rung log."""

    answer: str
    query: str
    loops: tuple[LoopReport, ...]
    diagnostics: tuple[str, ...]
    method: Optional[str] = None


def _render_query(pattern: QueryPattern) -> str:
    return f"{pattern.pred}({','.join(pattern.modes)})"


def _pred_name(key) -> str:
    name, arity = key
    return f"{name}/{arity}"


def _loop_reports(
    loops: list[LoopInfo],
    domains: dict,
    proofs: list,
) -> tuple[LoopReport, ...]:
    reports = []
    for loop in loops:
        names = tuple(_pred_name(k) for k in sorted(loop.predicates))
        rendered_domain = {
            _pred_name(key): tuple(
                sorted(render_conjunction(piece) for piece in domains[key])
            )
            for key in sorted(loop.predicates)
            if key in domains
        }
        pairs = []
        for pair, found in proofs:
            if pair.query.key not in loop.predicates:
                continue
            name, _ = pair.query.key
            query = f"{name}({','.join(pair.query.modes)})"
            pairs.append(
                PairEvidence(
                    query=query,
                    constraint=render_conjunction(pair.query.constraint),
                    proof=found.describe() if found is not None else None,
                    trace=render_pair(pair, found),
                )
            )
        reports.append(
            LoopReport(
                predicates=names,
                integer_based=loop.is_integer_based,
                domain=rendered_domain,
                pairs=tuple(pairs),
            )
        )
    return tuple(reports)


class _ProgramStages:
    """A program the ladder analyses, with the stages that depend only
    on it and the query pattern, each computed once."""

    def __init__(self, program: Program, pattern: QueryPattern):
        self.program = program
        self.pattern = pattern
        self.modes = infer_argument_modes(program, pattern)
        self.loops = find_integer_loops(program, pattern, self.modes)

    @cached_property
    def size_table(self):
        return infer_size_relations(self.program, self.modes)

    def unfolded(self) -> "_ProgramStages":
        """The program with the first in-loop body atom of each recursive
        clause unfolded once, last clause first so that unfolding one
        clause does not shift the next."""
        component = {key: loop.predicates for loop in self.loops for key in loop.predicates}
        program = self.program
        for i in reversed(range(len(program.clauses))):
            clause = self.program.clauses[i]
            preds = component.get(clause.key, ())
            for j, lit in enumerate(clause.body):
                if isinstance(lit, UserAtom) and lit.key in preds:
                    program = unfold_once(program, i, j)
                    break
        return _ProgramStages(program, self.pattern)


def _query_domains(stages: _ProgramStages, options: AnalysisOptions, prefer_inference):
    """Each loop's query domain on one rung, with whether inference built
    it, up to the first loop that stops the rung; and what stopped it:
    None, a note, or the DomainTooLarge a resource cap raised."""
    built = []
    for loop in stages.loops:
        comparisons = None if prefer_inference else collect_comparisons(loop, stages.modes)
        used_inference = comparisons is None
        if used_inference:
            if not options.use_inference:
                return built, (
                    f"comparisons of loop {loop.describe()} cannot be read off"
                    " directly and inference is disabled"
                )
            comparisons = infer_comparisons(loop, stages.modes)
        try:
            domain = build_domain(comparisons, cap=options.comparison_cap)
        except DomainTooLarge as exc:
            return built, exc
        built.append((loop, domain, used_inference))
    return built, None


def _attempt(stage, stages, options, log, domains, table, numeric=True):
    """Generate the pairs of one rung program, close them and prove the
    circular ones.  Logs the tally under `stage` and returns whether
    every circular pair was proved, with the loop reports.  Raises
    PairCapExceeded when the closure passes the pair cap."""
    base = generate_pairs(
        stages.program,
        stages.pattern,
        stages.modes,
        table,
        domains=domains,
        numeric=numeric,
        size_table=stages.size_table,
    )
    closure = compose_until_fixpoint(base, cap=options.pair_cap)
    circular = sorted((p for p in closure if is_circular(p)), key=pair_sort_key)
    proofs = [(p, prove_pair(p, candidate_cap=options.candidate_cap)) for p in circular]
    proved = sum(1 for _, found in proofs if found is not None)
    log(f"{stage}: {proved} of {len(proofs)} circular pairs proved")
    return proved == len(proofs), _loop_reports(stages.loops, domains, proofs)


def _log_abort(log, stage: str, exc: Exception):
    log(f"resource cap: {exc}")
    log(f"{stage}: aborted by resource cap")


def analyse_termination(
    program: Program,
    pattern: QueryPattern,
    options: AnalysisOptions = AnalysisOptions(),
) -> Verdict:
    """Decide YES (universal termination proved for the query pattern)
    or NO (no proof found).  Never raises on resource caps."""
    query = _render_query(pattern)
    diagnostics: list[str] = []
    log = diagnostics.append

    top = _ProgramStages(program, pattern)
    diagnostics.extend(top.modes.conflicts)
    loops = top.loops

    if not loops:
        if pattern.key not in program.index:
            log(f"{_pred_name(pattern.key)} has no clauses; every query fails finitely")
        else:
            log(
                "no recursive loop is reachable from the query;"
                " every derivation is finitely deep"
            )
        return Verdict(YES, query, (), tuple(diagnostics), method="acyclic program")

    stage = "structural attempt (simplified norm analysis)"
    try:
        all_proved, reports = _attempt(stage, top, options, log, {}, None, numeric=False)
    except PairCapExceeded as exc:
        _log_abort(log, stage, exc)
        all_proved, reports = False, ()
    if all_proved:
        if any(report.pairs for report in reports):
            method = "structural norm decrease (simplified analysis)"
        else:
            method = "no circular pairs reachable under the query modes"
        return Verdict(YES, query, reports, tuple(diagnostics), method=method)
    fallback_reports = reports or _loop_reports(loops, {}, [])

    if not any(loop.is_numerical for loop in loops):
        for loop in loops:
            diagnostics.extend(loop.diagnostics)
        log("no numerical loop: integer reasoning cannot go beyond the norm analysis")
        return Verdict(NO, query, fallback_reports, tuple(diagnostics))

    gate = [l for l in loops if l.is_numerical and not l.is_integer_based]
    if gate:
        for loop in gate:
            diagnostics.extend(loop.diagnostics)
        log("a numerical loop is not integer based; the analysis does not apply")
        return Verdict(NO, query, fallback_reports, tuple(diagnostics))

    # (label, unfolding depth of the rung program, prefer inference)
    rungs = [("collected comparisons", 0, False)]
    if options.use_inference:
        rungs.append(("inferred comparisons", 0, True))
        rungs += [
            (f"unfold x{depth} + inferred comparisons", depth, True)
            for depth in range(1, options.max_unfold + 1)
        ]

    answer_passes = {"on": (True,), "off": (False,), "auto": (False, True)}[
        options.answer_abstraction
    ]

    # Built when a rung first needs them, shared by both answer passes.
    programs = {0: top}
    query_domains = {}
    for with_answers in answer_passes:
        for index, (label, depth, prefer_inference) in enumerate(rungs):
            name = label + (" + answer abstraction" if with_answers else "")
            if depth not in programs:
                programs[depth] = programs[depth - 1].unfolded()
            stages = programs[depth]
            if index not in query_domains:
                query_domains[index] = _query_domains(stages, options, prefer_inference)
            built, stop = query_domains[index]
            try:
                answer_domains = [
                    build_answer_domain(loop, stages.modes, domain, used_inference=inferred)
                    for loop, domain, inferred in (built if with_answers else ())
                ]
                if isinstance(stop, DomainTooLarge):
                    raise stop
                if stop is not None:
                    log(f"rung {name}: {stop}")
                    continue
                table = (
                    compute_abstract_answers(stages.loops, stages.modes, answer_domains)
                    if with_answers
                    else None
                )
                domains = {k: v for _, domain, _ in built for k, v in domain.items()}
                ok, rung_reports = _attempt(
                    f"rung {name}", stages, options, log, domains, table
                )
            except (DomainTooLarge, PairCapExceeded) as exc:
                _log_abort(log, f"rung {name}", exc)
                continue
            if ok:
                return Verdict(YES, query, rung_reports, tuple(diagnostics), method=name)
            if rung_reports:
                fallback_reports = rung_reports

    return Verdict(NO, query, fallback_reports, tuple(diagnostics))


# ---------------------------------------------------------------------------
# Reports.


def verdict_payload(verdict: Verdict) -> dict:
    """The stable JSON shape of a verdict."""
    return {
        "answer": verdict.answer,
        "loops": [
            {
                "predicates": list(report.predicates),
                "integer_based": report.integer_based,
                "domain": {k: list(v) for k, v in report.domain.items()},
                "pairs": [
                    {
                        "query": pair.query,
                        "constraint": pair.constraint,
                        "proof": pair.proof,
                    }
                    for pair in report.pairs
                ],
            }
            for report in verdict.loops
        ],
        "diagnostics": list(verdict.diagnostics),
    }


def render_report(verdict: Verdict, format: str = "text", trace: bool = False) -> str:
    """Human-readable text or the stable JSON document.  Diagnostics are
    part of the JSON payload only; text callers emit them separately."""
    if format == "json":
        return json.dumps(verdict_payload(verdict), indent=2)
    if format != "text":
        raise ValueError("format must be text or json")

    lines: list[str] = []
    if verdict.answer == YES:
        lines.append(f"YES: termination proved for query {verdict.query}")
        if verdict.method is not None:
            lines.append(f"method: {verdict.method}")
    else:
        lines.append(f"NO: {NO_HEADLINE} for query {verdict.query}")
    for report in verdict.loops:
        basis = "integer based" if report.integer_based else "not integer based"
        lines.append(f"loop {', '.join(report.predicates)} ({basis})")
        for pred, pieces in sorted(report.domain.items()):
            lines.append(f"  domain of {pred}:")
            for piece in pieces:
                lines.append(f"    {piece}")
        for pair in report.pairs:
            if pair.proof is None:
                lines.append(f"  unproved: {pair.query} where {pair.constraint}")
            else:
                lines.append(
                    f"  proved: {pair.query} where {pair.constraint}"
                    f" by {pair.proof}"
                )
    if verdict.answer == NO:
        unproven = [
            pair
            for report in verdict.loops
            for pair in report.pairs
            if pair.proof is None
        ]
        if unproven:
            lines.append("first unproven pair:")
            lines.append(unproven[0].trace)
    if trace:
        for report in verdict.loops:
            for pair in report.pairs:
                lines.append(pair.trace)
    return "\n".join(lines)

"""Analysis driver.

Runs the whole pipeline for one (program, query pattern) task.  The
gates come first: a task with no numerical loop, or with any loop that
is not integer based, gets only the attempt with structural norms, a
YES or the gate's NO.  Every other task climbs the escalation ladder
over comparison sources (collected, inferred, inferred after
unfolding), each rung without, then with answers.  The verdict carries
per-loop, per-pair evidence and feeds the text and JSON report emitters.

Every attempt is one `_attempt`: generate the recurrent pairs (those
on a cycle of the query graph, the only factors of a circular pair),
close them, prove the circular ones, report per loop.  Structural
pairs carry no row constraints, so `prove_pair` suggests no function.
A completed rung proves all the structural attempt would: a circular
pair of it has the norm relations of the structural circular pair over
the same clause path, since the modes and size table are the same and
an integer relation never links two b positions (`_theta_modes` only
strengthens modes), and `prove_pair` runs the structural test first.
Only a rung that a cap aborts could lose such a YES.

The ladder is climbed once.  Each rung builds its program (the input,
or one more unfolding of the previous rung's program), that program's
modes and loops, and its query domains, then tries them without answer
abstraction and, if that fails under `--answers auto`, with it; the
next unfolding is built only when both attempts fail, and the ladder
stops at one whose body literals would pass `UNFOLD_LITERAL_CAP`.  A
program's size table is built only if pair generation asks for it.
Its answer table is a stage of the program too: a loop's answer
partition depends only on the loop and its modes, so the collected and
inferred rungs share one table, built when the first answer attempt
asks for it.

A rung attempt depends only on the rung program, its query domains
(every rung is numeric) and the answer-table entries pair generation
reads: those of the predicates some clause calls before a later call
(`_ProgramStages.answer_reads`), an empty entry reading as no entry.
Pair generation collects every satisfiable pick of partition elements
and entries into a set of pairs, and reports sort what they render, so
domains and entries are compared as sets.  An attempt whose inputs
equal an earlier one's in the same `analyse_termination` call is not
made again: its tally is logged under its own label and the earlier
verdict and reports are reused.  Answer domains and tables are built
only for the loops of the read predicates and of all they call, kept
callee-first.  No entry read, so no attempt key, changes: a loop's
entries depend only on its clauses, its modes and its callees'
tables.

When the query pattern's modes are all `i` and the first attempt fails
or a cap aborts it, one search for a looping query runs
(`_looping_query`).  If it finds one, the ladder stops there with NO,
the first attempt's reports and one `non-termination:` line naming the
query.  This never changes a verdict.  The query is a ground integer
query, so it matches the pattern, and a run in plain Python has shown
that its leftmost derivation reaches a goal that is resolved with a
clause whose first call is that goal again, after arithmetic that
succeeds deterministically.  So that derivation repeats forever: the
SLD tree of the query has an infinite branch.  With no cut, nothing
prunes a branch, so some query of the pattern does not terminate, and
a sound rung could never prove YES."""

import json
from functools import cached_property
from itertools import takewhile
from typing import NamedTuple, Optional, Union

from .answers import AnswerTable, build_answer_domain, compute_abstract_answers
from .constraints import (
    RELATIONS,
    _bellman_ford,
    atom_eq,
    atom_is_true,
    difference_graph,
    is_satisfiable,
    render_conjunction,
    substitute,
)
from .domain import (
    Domain,
    DomainTooLarge,
    build_domain,
    collect_comparisons,
    infer_comparisons,
    linear_term,
    literal_atoms,
    unfold_once,
)
from .graph import LoopInfo, find_integer_loops, reachable_from
from .modes import infer_argument_modes
from .norms import infer_size_relations
from .pairs import (
    PAIR_CAP,
    PairCapExceeded,
    compose_until_fixpoint,
    generate_pairs,
    is_circular,
    pair_sort_key,
    prove_pair,
    render_pair,
)
from .syntax import (
    MODE_INT,
    Clause,
    IntConst,
    Is,
    PredKey,
    Program,
    QueryPattern,
    UserAtom,
    Var,
    rename_clause,
    render_query_pattern,
    term_vars,
)

YES = "YES"
NO = "NO"

NO_HEADLINE = "no termination proof found"

#: Body literals an unfolded rung program may have, over all its
#: clauses.  Unfolding can double a program at every step, in clauses
#: (gcd: 4, 6, 10, 18, 34, 66, 130) or in the body of one clause (a
#: one-clause loop: 3, 5, 9, 17, 33, 65, 129 literals), so the ladder
#: stops before building a rung program past this cap.
UNFOLD_LITERAL_CAP = 1024


class _OptionFields(NamedTuple):
    max_unfold: int = 1
    answer_abstraction: str = "auto"
    pair_cap: int = PAIR_CAP


class AnalysisOptions(_OptionFields):
    """The settings of one analysis run, one field per CLI flag
    (`--max-unfold`, `--answers`, `--pair-cap`).  Every other cap is a
    module constant.  The pair cap must stay positive; it turns a
    blow-up into a NO verdict with diagnostics instead of a long run."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.answer_abstraction not in ("on", "off", "auto"):
            raise ValueError("answer_abstraction must be on, off or auto")
        if self.pair_cap <= 0:
            raise ValueError("caps must be positive")
        if self.max_unfold < 0:
            raise ValueError("max_unfold must be non-negative")
        return self


class PairEvidence(NamedTuple):
    """One circular pair of the final run: its query in report form and
    either the discharging proof or None."""

    query: str
    constraint: str
    proof: Optional[str]
    trace: str


class LoopReport(NamedTuple):
    predicates: tuple[str, ...]
    integer_based: bool
    domain: dict[str, tuple[str, ...]]
    pairs: tuple[PairEvidence, ...]


class Verdict(NamedTuple):
    """YES only when every circular pair of the reported run carries a
    proof; diagnostics explain NO verdicts and record the rung log."""

    answer: str
    query: str
    loops: tuple[LoopReport, ...]
    diagnostics: tuple[str, ...]
    method: Optional[str] = None


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
        pairs = tuple(
            PairEvidence(
                query=render_query_pattern(pair.query.key[0], pair.query.modes),
                constraint=render_conjunction(pair.query.constraint),
                proof=found.describe() if found is not None else None,
                trace=render_pair(pair, found),
            )
            for pair, found in proofs
            if pair.query.key in loop.predicates
        )
        reports.append(
            LoopReport(
                predicates=names,
                integer_based=loop.is_integer_based,
                domain=rendered_domain,
                pairs=pairs,
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
    def answer_reads(self) -> frozenset[PredKey]:
        """The predicates some clause calls before a later call: the only
        answer-table entries `generate_pairs` reads."""
        calls = [[l.key for l in c.body if isinstance(l, UserAtom)] for c in self.program.clauses]
        return frozenset(key for keys in calls for key in keys[:-1])

    @cached_property
    def size_table(self):
        return infer_size_relations(self.program, self.modes)

    @property
    def answer_table(self) -> AnswerTable:
        """The answer tables of the loops of the `answer_reads` predicates
        and of all they call, callee-first; no other table is read.
        Raises DomainTooLarge if an answer partition passes
        `domain.PARTITION_BUDGET`, and raises it again when read again."""
        table = self._answer_table
        if isinstance(table, DomainTooLarge):
            raise table
        return table

    @cached_property
    def _answer_table(self) -> Union[AnswerTable, DomainTooLarge]:
        called = reachable_from(self.program.callees, self.answer_reads)
        tabled = [loop for loop in self.loops if loop.predicates & called]
        try:
            domains = [build_answer_domain(loop, self.modes) for loop in tabled]
        except DomainTooLarge as exc:
            return exc
        return compute_abstract_answers(tabled, self.modes, domains) if tabled else {}

    def unfolded(self) -> Optional["_ProgramStages"]:
        """The program with the first in-loop body atom of each recursive
        clause unfolded once, or None when its clauses would hold more
        than `UNFOLD_LITERAL_CAP` body literals in all.  Every clause is
        resolved against this program, never against clauses rewritten
        in the same step, so one step replaces a clause by at most as
        many resolvents as its selected atom has clauses, each body at
        most the two bodies together.  In integer-based loops (a float
        satisfies X > 0, X < 1) a resolvent is dropped when its arithmetic
        before its first call is unsatisfiable: it fails before any call."""
        loops = {key: loop for loop in self.loops for key in loop.predicates}
        clauses: list[Clause] = []
        for i, clause in enumerate(self.program.clauses):
            loop = loops.get(clause.key)
            for j, lit in enumerate(clause.body):
                if loop and isinstance(lit, UserAtom) and lit.key in loop.predicates:
                    # unfold_once keeps the clauses after i at the end.
                    resolved = unfold_once(self.program, i, j).clauses
                    after = len(self.program.clauses) - i - 1
                    clauses.extend(
                        c
                        for c in resolved[i : len(resolved) - after]
                        if not loop.is_integer_based or _may_call(c)
                    )
                    break
            else:
                clauses.append(clause)
        if sum(len(c.body) for c in clauses) > UNFOLD_LITERAL_CAP:
            return None
        return _ProgramStages(Program(tuple(clauses)), self.pattern)


def _may_call(clause: Clause) -> bool:
    """Whether the arithmetic before the clause's first call is
    satisfiable over the integers."""
    prefix = takewhile(lambda lit: not isinstance(lit, UserAtom), clause.body)
    return is_satisfiable([atom for lit in prefix for atom in literal_atoms(lit)])


def _query_domains(stages: _ProgramStages, prefer_inference) -> Domain:
    """The query domains of a rung's loops.  Raises DomainTooLarge when a
    comparison set's partition passes `domain.PARTITION_BUDGET`, which
    stops the rung."""
    domains: Domain = {}
    for loop in stages.loops:
        comparisons = None if prefer_inference else collect_comparisons(loop, stages.modes)
        if comparisons is None:
            comparisons = infer_comparisons(loop, stages.modes)
        domains.update(build_domain(comparisons))
    return domains


def _rungs(options: AnalysisOptions):
    """The ladder, one rung at a time as it is reached: (label, unfold
    the previous rung's program once more, prefer inference)."""
    yield "collected comparisons", False, False
    yield "inferred comparisons", False, True
    for depth in range(1, options.max_unfold + 1):
        yield f"unfold x{depth} + inferred comparisons", True, True


def _attempt(stages, options, domains, table, numeric=True):
    """Generate the recurrent pairs of one rung program, close them and
    prove the circular ones.  Returns the tally the rung log shows,
    whether every circular pair was proved, and the loop reports.
    Raises PairCapExceeded when the closure passes the pair cap."""
    base = generate_pairs(
        stages.program,
        stages.pattern,
        stages.modes,
        table,
        domains=domains,
        numeric=numeric,
        size_table=lambda: stages.size_table,
    )
    closure = compose_until_fixpoint(base, cap=options.pair_cap)
    circular = sorted((p for p in closure if is_circular(p)), key=pair_sort_key)
    proofs = [(p, prove_pair(p)) for p in circular]
    proved = sum(1 for _, found in proofs if found is not None)
    tally = f"{proved} of {len(proofs)} circular pairs proved"
    return tally, proved == len(proofs), _loop_reports(stages.loops, domains, proofs)


def _ladder(top: _ProgramStages, options: AnalysisOptions, reports, log):
    """The numeric attempts of the ladder, made in order as they are
    read: (method, proved, reports).  An attempt a cap aborts, and a
    rung whose query domain a cap aborts, yields proved False with the
    reports of the last attempt made.  Equal attempts are made once
    (see the module docstring)."""
    answer_passes = {"on": (True,), "off": (False,), "auto": (False, True)}[
        options.answer_abstraction
    ]
    attempts = {}
    stages = top
    for label, unfold, prefer_inference in _rungs(options):
        if unfold:
            stages = stages.unfolded()
            if stages is None:
                log(
                    f"rung {label}: not built; its program passes the cap of"
                    f" {UNFOLD_LITERAL_CAP} body literals"
                )
                return
        try:
            domains = _query_domains(stages, prefer_inference)
        except DomainTooLarge as exc:
            _log_abort(log, f"rung {label}", exc)
            yield label, False, reports
            continue
        for with_answers in answer_passes:
            name = label + (" + answer abstraction" if with_answers else "")
            try:
                table = stages.answer_table if with_answers else {}
                key = (
                    stages,
                    frozenset((k, frozenset(v)) for k, v in domains.items()),
                    frozenset((k, frozenset(table[k])) for k in stages.answer_reads if table.get(k)),
                )
                if key not in attempts:
                    attempts[key] = _attempt(stages, options, domains, table)
                tally, ok, reports = attempts[key]
                log(f"rung {name}: {tally}")
            except (DomainTooLarge, PairCapExceeded) as exc:
                _log_abort(log, f"rung {name}", exc)
                ok = False
            yield name, ok, reports


def _log_abort(log, stage: str, exc: Exception):
    log(f"resource cap: {exc}")
    log(f"{stage}: aborted by resource cap")


#: Path checks one looping-query search may make.  The paths branch at
#: each predicate with several clauses, so their number can grow
#: exponentially; the benchmark's families need at most 16 checks.
LOOP_SEARCH_CHECKS = 256


def _plain(terms) -> bool:
    return all(isinstance(term, (Var, IntConst)) for term in terms)


def _step(clause: Clause) -> Optional[int]:
    """The index of the clause's first call, when its head and call
    arguments are variables or integers and each literal before the call
    is linear arithmetic: a comparison, or `is/2` into a variable or an
    integer.  None otherwise."""
    body = clause.body
    j = next((j for j, lit in enumerate(body) if isinstance(lit, UserAtom)), None)
    if j is None or not _plain(clause.head.args + body[j].args):
        return None
    for lit in body[:j]:
        if not literal_atoms(lit) or isinstance(lit, Is) and not _plain([lit.lhs]):
            return None
    return j


def _value(term, env: dict[str, int]) -> Optional[int]:
    """The linear term's integer value, or None if it reads an unbound
    variable."""
    if any(var.name not in env for var in term_vars(term)):
        return None
    return substitute(linear_term(term), env).const


def _replay(path: list[tuple[Clause, int]], values: tuple[int, ...]) -> Optional[tuple]:
    """Run the path from the ground query `values` in plain Python, as
    Prolog would: unify each clause head with the values, run the
    literals before the call taken, and pass the call's arguments on.
    Returns the arguments the last clause was entered with if its call
    repeats them; None if a step fails, reads an unbound variable or
    passes one on."""
    for clause, j in path:
        entered, env = values, {}
        for arg, value in zip(clause.head.args, values):
            bound = arg.value if isinstance(arg, IntConst) else env.setdefault(arg.name, value)
            if bound != value:
                return None
        for lit in clause.body[:j]:
            lhs, rhs = _value(lit.lhs, env), _value(lit.rhs, env)
            if isinstance(lit, Is) and isinstance(lit.lhs, Var) and lit.lhs.name not in env:
                lhs = env[lit.lhs.name] = rhs
            if lhs is None or rhs is None:
                return None
            if not atom_is_true(RELATIONS["=" if isinstance(lit, Is) else lit.op](lhs, rhs)):
                return None
        values = tuple(_value(arg, env) for arg in clause.body[j].args)
        if None in values:
            return None
    return entered if values == entered else None


def _ground(name: str, values: tuple[int, ...]) -> str:
    return f"{name}({', '.join(map(str, values))})" if values else name


def _looping_query(program: Program, pattern: QueryPattern) -> Optional[str]:
    """A diagnostic naming a ground integer query whose derivation runs
    forever, or None when none is found.

    The query runs a path of clauses, one per predicate, from the
    query's predicate to a clause C whose call repeats the goal C was
    entered with.  Each clause on the path passes `_step`, and its call
    taken is its first.  The search conjoins the path's arithmetic, the
    links from each call to the next head, and C's call arguments equal
    to its head arguments.  It takes a point only when the conjunction
    is a difference-constraint graph (`difference_graph`, exact over the
    integers) without a negative cycle: the query is read off the
    Bellman-Ford distances, measured from the zero node.  `_replay`
    then runs the path on those integers, so the solver is never the
    only evidence.  A prefix whose conjunction fails the test is not
    extended, since adding atoms cannot mend it; at most
    `LOOP_SEARCH_CHECKS` conjunctions are tested."""
    budget = LOOP_SEARCH_CHECKS

    def search(key, path, atoms, args) -> Optional[str]:
        nonlocal budget
        for number, index in enumerate(program.index.get(key, ()), 1):
            clause = program.clauses[index]
            j = _step(clause)
            if j is None:
                continue
            if budget == 0:
                return None
            renamed = rename_clause(clause, f"#{len(path)}")
            call = renamed.body[j]
            links = list(zip(args, renamed.head.args))
            if call.key == key:
                links += zip(call.args, renamed.head.args)
            elif any(call.key == c.key for c, _ in path):
                continue
            conj = atoms + [atom_eq(linear_term(a), linear_term(b)) for a, b in links]
            conj += [atom for lit in renamed.body[:j] for atom in literal_atoms(lit)]
            budget -= 1
            edges = difference_graph(conj)
            dist = None if edges is None else _bellman_ford(edges)
            if dist is None:
                continue
            steps = path + [(clause, j)]
            if call.key != key:
                found = search(call.key, steps, conj, call.args)
                if found:
                    return found
                continue
            zero = dist.get("", 0)
            values = tuple(
                a.value if isinstance(a, IntConst) else dist.get(f"{a.name}#0", 0) - zero
                for a in steps[0][0].head.args
            )
            goal = _replay(steps, values)
            if goal is not None:
                text = _ground(pattern.pred, values)
                if len(steps) > 1:
                    text += f" reaches {_ground(clause.head.pred, goal)}, which"
                where = f"{_pred_name(key)} clause {number}"
                return f"non-termination: {text} calls itself again through {where}"
        return None

    return search(pattern.key, [], [], ())


def analyse_termination(
    program: Program,
    pattern: QueryPattern,
    options: AnalysisOptions = AnalysisOptions(),
) -> Verdict:
    """Decide YES (universal termination proved for the query pattern)
    or NO (no proof found).  Never raises on resource caps; raises
    `constraints.DeadlinePassed` when a solver call starts after the
    deadline of an enclosing `constraints.deadline` block."""
    query = render_query_pattern(pattern.pred, pattern.modes)
    diagnostics: list[str] = []
    log = diagnostics.append

    top = _ProgramStages(program, pattern)
    diagnostics.extend(top.modes.conflicts)

    if not top.loops:
        if pattern.key not in program.index:
            log(f"{_pred_name(pattern.key)} has no clauses; every query fails finitely")
        else:
            log(
                "no recursive loop is reachable from the query;"
                " every derivation is finitely deep"
            )
        return Verdict(YES, query, (), tuple(diagnostics), method="acyclic program")

    # The reports of the last attempt made, or of the loops without pairs.
    reports = _loop_reports(top.loops, {}, [])
    numerical = any(loop.is_numerical for loop in top.loops)
    unsafe = [loop for loop in top.loops if not loop.is_integer_based]
    if not numerical or unsafe:
        stage = "structural attempt (simplified norm analysis)"
        try:
            tally, all_proved, reports = _attempt(top, options, {}, None, numeric=False)
            log(f"{stage}: {tally}")
        except PairCapExceeded as exc:
            _log_abort(log, stage, exc)
            all_proved = False
        if all_proved:
            method = "no circular pairs reachable under the query modes"
            if any(report.pairs for report in reports):
                method = "structural norm decrease (simplified analysis)"
            return Verdict(YES, query, reports, tuple(diagnostics), method=method)
        for loop in unsafe if numerical else top.loops:
            diagnostics.extend(loop.diagnostics)
        if numerical:
            log("a loop is not integer based; the analysis does not apply")
        else:
            log("no numerical loop: integer reasoning cannot go beyond the norm analysis")
        return Verdict(NO, query, reports, tuple(diagnostics))

    for number, (name, ok, reports) in enumerate(_ladder(top, options, reports, log)):
        if ok:
            return Verdict(YES, query, reports, tuple(diagnostics), method=name)
        if number == 0 and all(mode == MODE_INT for mode in pattern.modes):
            if found := _looping_query(program, pattern):
                log(found)
                break

    return Verdict(NO, query, reports, tuple(diagnostics))


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

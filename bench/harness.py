"""One run of one workload: set up, warm up, measure, gate, summarise.

A closed loop with one client and no threads: each request starts only
after the previous one has finished. A pass sends, for every request of
the workload in order (cheap ones `repeat` times):

1. the CLI solve, as a fresh `python -m fdplace` process;
2. the CLI eval of the witness that solve returned;
3. the same solve as a library call on a model parsed beforehand.

Steps 2 and 3 repeat while they are cheap (CHEAP_MIN_S, QUERY_MIN_S).

Untraced, requests go round until the run's seconds are up, after one
whole pass at least; traced, whole passes repeat while another one of
average length fits. Every request is gated (see check_solve,
check_eval) and a failed gate counts in `failed`.

End-to-end metrics, tracing off. Every time is a wall time scaled to a
host of fixed speed (hostspeed.py): a shared host can drift by a
quarter or more within a minute, which moves every sample of a run
alike, and a calibration task timed around each sample takes that drift
out. The results file keeps every sample's start and unscaled wall time
and every calibration. Each request's samples of a kind are reduced to
their median first, so a request in the middle of the workload rests on
all its samples, not on one:

- cli_p50_s: median over requests of the CLI solve wall time, spawn to
  exit with stdout read, on the benchmark's clock.
- cli_total_s: sum over requests of the same, one typical pass.
- eval_p50_s: as cli_p50_s for the CLI eval of each witness.
- query_p50_s: as cli_p50_s for the library call.
- peak_rss_mb: the largest ru_maxrss of any CLI process (wait4).
- setup_s: median time to generate and write the workload's models,
  set up at least SETUP_REPS times and for at least SETUP_MIN_S.

With tracing on, each request also runs in-process through
fdplace.cli.main with spans around the package's functions, and the
library call runs a second time under the tracer to price it. The
per-layer metrics (PER_LAYER) are totals over one pass, median over
passes; a layer that a workload never calls reports 0. Span times are
not scaled.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from fdplace import cli
from fdplace.errors import ModelError
from fdplace.metrics import MultiPlacement, Placement, failure_aggregate, multi_aggregate
from fdplace.model import FailureModel, parse_model

import workloads
from hostspeed import HostSpeed
from spawner import Spawner
from tracer import QUERY_WRAPS, REQUEST_WRAPS, SETUP_WRAPS, Tracer
from workloads import Request, Workload

ROOT = Path(__file__).resolve().parents[1]
REPORT_KEYS = ["command", "model_digest", "objective", "witness", "wall_time_ms", "algorithm"]
# Set-up repeats at least this often and until it has taken this long.
SETUP_REPS = 3
SETUP_MIN_S = 3.0
# Calibrations before the first set-up and after each; a set-up is a
# single sample that lasts a second or more, so it takes a few.
SETUP_CALIBRATIONS = 3
# The CLI eval of a request repeats, up to MAX_REPS times, until the
# repetitions have taken CHEAP_MIN_S, and the library call until they
# have taken QUERY_MIN_S, so that a cheap one rests on several samples.
# The library call repeats longer: its samples spread more than those
# of a whole CLI process.
CHEAP_MIN_S = 0.3
QUERY_MIN_S = 0.8
MAX_REPS = 4
# CLI requests still running this long after the run started are
# killed and fail, so that a hang cannot keep the run from ending.
RUN_DEADLINE_S = 150.0

END_TO_END = {
    "cli_p50_s": "s",
    "cli_total_s": "s",
    "eval_p50_s": "s",
    "query_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> (key in Tracer.totals, or one run_request adds;
# unit). generate.* come from the set-up repetitions instead of passes.
PER_LAYER = {
    "model.parse_s": ("model.parse_s", "s"),
    "model.parse_bytes": ("model.parse_bytes", "bytes"),
    "model.nodes": ("model.nodes", "count"),
    "model.leaves": ("model.leaves", "count"),
    "model.postorder_calls": ("model.postorder_calls", "count"),
    "model.postorder_s": ("model.postorder_s", "s"),
    "model.subtree_stats_s": ("model.subtree_stats_s", "s"),
    "single.solve_fast_s": ("single.solve_fast_s", "s"),
    "single.self_s": ("single.solve_fast_self_s", "s"),
    "single.label_children_calls": ("single.label_children_calls", "count"),
    "single.label_children_s": ("single.label_children_s", "s"),
    "single.select_heavy_calls": ("single.select_heavy_calls", "count"),
    "single.select_heavy_s": ("single.select_heavy_s", "s"),
    "multi.solve_s": ("multi.solve_s", "s"),
    "multi.build_phi_s": ("multi.build_phi_s", "s"),
    "multi.phi_pairs": ("multi.phi_pairs", "count"),
    "multi.phi_supports": ("multi.phi_supports", "count"),
    "multi.self_s": ("multi.solve_self_s", "s"),
    "metrics.failure_aggregate_s": ("metrics.failure_aggregate_s", "s"),
    "metrics.multi_aggregate_s": ("metrics.multi_aggregate_s", "s"),
    "metrics.parse_placement_s": ("metrics.parse_placement_s", "s"),
    "cli.main_s": ("cli.main_s", "s"),
    "cli.self_s": ("cli.main_self_s", "s"),
    "cli.startup_s": ("cli.startup_s", "s"),
    "cli.reported_wall_ms": ("cli.reported_wall_ms", "ms"),
    "generate.random_model_s": ("generate.random_model_s", "s"),
    "generate.render_model_s": ("generate.render_model_s", "s"),
}


class References:
    """Reference objectives by base-shape fingerprint and request key:
    the committed table first, then a cache of ones computed here."""

    def __init__(self, committed: Path, cache: Path) -> None:
        self.committed = json.loads(committed.read_text()) if committed.is_file() else {}
        self.cache_path = cache
        self.cache = json.loads(cache.read_text()) if cache.is_file() else {}

    def get(self, fingerprint: str, request: Request, base: FailureModel) -> list[int]:
        for table in (self.committed, self.cache):
            hit = table.get(fingerprint, {}).get(request.key)
            if hit is not None:
                return hit
        value = workloads.compute_reference(base, request)
        self.cache.setdefault(fingerprint, {})[request.key] = value
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        self.cache_path.write_text(json.dumps(self.cache))
        return value


@dataclass
class Tally:
    deadline: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # request label -> sample kind -> [start, unscaled wall time], in
    # the order measured
    samples: dict[str, dict[str, list[list[float]]]] = field(default_factory=dict)
    maxrss_kb: list[int] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    passes: int = 0
    layer_passes: list[dict[str, float]] = field(default_factory=list)
    # (request label, witness, objective) -> problems, so that a witness
    # seen again is not evaluated again
    witness_checks: dict[tuple[str, str, str], list[str]] = field(default_factory=dict)

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def add(self, label: str, kind: str, start: float, wall: float) -> None:
        self.samples.setdefault(label, {}).setdefault(kind, []).append([start, wall])

    def add_spawned(self, label: str, kind: str, spawned: dict) -> None:
        """A CLI sample and the calibrations the spawner took around it."""
        self.add(label, kind, spawned["start"], spawned["wall_s"])
        self.maxrss_kb.append(spawned["maxrss_kb"])
        for calibration in spawned["calibrations"]:
            self.speed.add(calibration)

    def all(self, kind: str) -> list[float]:
        """Every sample of one kind, scaled."""
        return [self.speed.scaled(*sample) for by_kind in self.samples.values() for sample in by_kind.get(kind, [])]

    def per_request(self, kind: str) -> list[float]:
        """The median of each request's scaled samples of one kind."""
        return [
            statistics.median(self.speed.scaled(*sample) for sample in by_kind[kind])
            for by_kind in self.samples.values() if by_kind.get(kind)
        ]

    def check_witness(self, label: str, model: FailureModel, request: Request,
                      witness: object, objective: object) -> list[str]:
        key = (label, json.dumps(witness), json.dumps(objective))
        if key not in self.witness_checks:
            self.witness_checks[key] = check_witness(model, request, witness, objective)
        return self.witness_checks[key]


@dataclass
class ModelFile:
    path: Path
    digest: str
    fingerprint: str
    nodes: int
    leaves: int


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "fdplace", *args]


def check_report(stdout: str, command: str, algorithm: str, digest: str) -> tuple[dict | None, list[str]]:
    """The stdout report: one JSON object, keys in the tested order."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return None, ["stdout is not one JSON report"]
    if not isinstance(report, dict) or list(report) != REPORT_KEYS:
        return None, [f"report keys are not {REPORT_KEYS}"]
    problems = [
        f"{key} is {report[key]!r}, expected {want!r}"
        for key, want in (("command", command), ("algorithm", algorithm), ("model_digest", digest))
        if report[key] != want
    ]
    return report, problems


def check_witness(model: FailureModel, request: Request, witness: object, objective: object) -> list[str]:
    """Block sizes, leaf capacities, and re-evaluation to the objective."""
    try:
        if request.multi:
            blocks = witness["blocks"]
            sizes = [len(block) for block in blocks]
            if sizes != list(request.sizes):
                return [f"block sizes {sizes}, expected {list(request.sizes)}"]
            if any(len(set(block)) != len(block) for block in blocks):
                return ["a block lists a leaf twice"]
            # multi_aggregate rejects unknown leaves and exceeded capacities.
            agg = multi_aggregate(model, MultiPlacement(tuple(frozenset(b) for b in blocks)))
        else:
            leaves = witness["leaves"]
            if len(set(leaves)) != len(leaves) or len(leaves) != request.rho:
                return [f"{len(leaves)} leaves listed, expected {request.rho} distinct"]
            # failure_aggregate rejects unknown leaves and internal nodes.
            agg = failure_aggregate(model, Placement(frozenset(leaves)), request.rho)
    except (KeyError, TypeError, ModelError) as exc:
        return [f"witness rejected: {exc}"]
    if list(agg.entries) != objective:
        return ["witness re-evaluates to another objective"]
    return []


def check_solve(tally: Tally, label: str, code: int, stdout: str, stderr: str, model: FailureModel,
                mf: ModelFile, request: Request, reference: list[int]) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit code {code}: {stderr.strip()[-300:]}"]
    command, algorithm = ("solve-multi", "dp") if request.multi else ("solve-single", "fast")
    report, problems = check_report(stdout, command, algorithm, mf.digest)
    if report is None:
        return None, problems
    problems += tally.check_witness(label, model, request, report["witness"], report["objective"])
    if report["objective"] != reference:
        problems.append("objective differs from the reference")
    return report, problems


def check_eval(code: int, stdout: str, stderr: str, mf: ModelFile, witness: dict,
               reference: list[int]) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit code {code}: {stderr.strip()[-300:]}"]
    report, problems = check_report(stdout, "eval", "eval", mf.digest)
    if report is None:
        return None, problems
    if report["witness"] != witness:
        problems.append("eval echoes another witness")
    if report["objective"] != reference:
        problems.append("objective differs from the reference")
    return report, problems


def as_witness(found) -> dict:
    if isinstance(found, MultiPlacement):
        return {"blocks": [sorted(block) for block in found.blocks]}
    return {"leaves": sorted(found.leaves)}


def timed_query(tally: Tally, label: str, kind: str, model: FailureModel, request: Request):
    """The library call, after a collection so that garbage left by
    earlier requests is not collected inside the timed region, between
    two calibrations; adds the sample and returns what the call did."""
    gc.collect()
    tally.speed.calibrate()
    start = time.perf_counter()
    agg, found = workloads.query(model, request)
    tally.add(label, kind, start, time.perf_counter() - start)
    tally.speed.calibrate()
    return agg, found


def run_main(tracer: Tracer, argv: list[str]) -> tuple[int, str, str, float]:
    """fdplace.cli.main in-process and traced; returns the exit code,
    stdout, stderr and the duration of the cli.main span.

    The benchmark's own objects, parsed models among them, are frozen
    out of garbage collection meanwhile, so that collections inside
    main() cost what they would in a fresh CLI process."""
    out, err = io.StringIO(), io.StringIO()
    index = len(tracer.spans)
    gc.collect()
    gc.freeze()
    try:
        with tracer.installed(REQUEST_WRAPS), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span("cli.main"):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
    finally:
        gc.unfreeze()
    _name, start, end, _parent, _req = tracer.spans[index]
    return code, out.getvalue(), err.getvalue(), end - start


def repeat_while_cheap(step: Callable[[], None], min_s: float) -> None:
    """Calls step until its calls have taken min_s, at most MAX_REPS
    times."""
    start = time.perf_counter()
    for _ in range(MAX_REPS):
        step()
        if time.perf_counter() - start >= min_s:
            return


def run_request(request: Request, mf: ModelFile, model: FailureModel, reference: list[int],
                spawner: Spawner, tracer: Tracer | None, tally: Tally, witness_dir: Path) -> None:
    """Solve, eval and library call for one request; with a tracer, the
    traced in-process CLI runs too."""
    label = f"{request.model} {request.key}"
    solve_args = request.solve_args(mf.path)
    solved = spawner.run(cli_argv(solve_args), tally.timeout())
    tally.add_spawned(label, "solve", solved)
    report, problems = check_solve(
        tally, label, solved["code"], solved["stdout"], solved["stderr"], model, mf, request, reference
    )
    tally.check(f"{label} solve", problems)
    if report is None:
        tally.check(f"{label} eval", ["no witness to evaluate"])
        return

    witness = report["witness"]
    witness_path = witness_dir / f"{request.model}-{request.key.replace(':', '-').replace(',', '_')}.json"
    witness_path.write_text(json.dumps(witness), encoding="utf-8")
    eval_args = request.eval_args(mf.path, witness_path)
    evaluations = []

    def evaluate() -> None:
        evaluated = spawner.run(cli_argv(eval_args), tally.timeout())
        tally.add_spawned(label, "eval", evaluated)
        eval_report, problems = check_eval(
            evaluated["code"], evaluated["stdout"], evaluated["stderr"], mf, witness, reference
        )
        tally.check(f"{label} eval", problems)
        evaluations.append((evaluated, eval_report))

    def query() -> None:
        agg, found = timed_query(tally, label, "query", model, request)
        objective = list(agg.entries)
        problems = tally.check_witness(label, model, request, as_witness(found), objective)
        if objective != reference:
            problems = problems + ["objective differs from the reference"]
        tally.check(f"{label} query", problems)

    repeat_while_cheap(evaluate, CHEAP_MIN_S)
    repeat_while_cheap(query, QUERY_MIN_S)
    evaluated, eval_report = evaluations[-1]

    if tracer is not None:
        layers = tally.layer_passes[-1]
        layers["cli.reported_wall_ms"] += report["wall_time_ms"]
        if eval_report is not None:
            layers["cli.reported_wall_ms"] += eval_report["wall_time_ms"]
        for argv, wall, kind in ((solve_args, solved["wall_s"], "solve"), (eval_args, evaluated["wall_s"], "eval")):
            tracer.request += 1
            layers["requests"].add(tracer.request)
            code, out, err, main_s = run_main(tracer, argv)
            layers["cli.startup_s"] += wall - main_s
            if kind == "solve":
                problems = check_solve(tally, label, code, out, err, model, mf, request, reference)[1]
            else:
                problems = check_eval(code, out, err, mf, witness, reference)[1]
            tally.check(f"{label} traced {kind}", problems)
        with Tracer().installed(QUERY_WRAPS):
            timed_query(tally, label, "query_traced", model, request)


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
        out_dir: Path, spawner: Spawner, references: References) -> dict:
    """Runs one workload and returns {"result": the result line,
    "details": what the results file records besides}."""
    tally = Tally(deadline=time.perf_counter() + RUN_DEADLINE_S)
    tracer = Tracer()
    model_dir = out_dir / f"{name}-seed{seed}"
    setup_layers = []
    setup_wall_s = 0.0
    for _ in range(SETUP_CALIBRATIONS):
        tally.speed.calibrate()
    while len(setup_layers) < SETUP_REPS or setup_wall_s < SETUP_MIN_S:
        tracer.request += 1
        start = time.perf_counter()
        with tracer.installed(SETUP_WRAPS) if trace else contextlib.nullcontext():
            bases = workloads.setup(workload, seed, model_dir)
        took = time.perf_counter() - start
        setup_wall_s += took
        tally.add("setup", "setup", start, took)
        for _ in range(SETUP_CALIBRATIONS):
            tally.speed.calibrate()
        setup_layers.append(tracer.totals({tracer.request}))

    files = {}
    for model_name, base in bases.items():
        path = model_dir / f"{model_name}.json"
        files[model_name] = ModelFile(
            path=path,
            digest=hashlib.sha256(path.read_bytes()).hexdigest(),
            fingerprint=workloads.fingerprint(base),
            nodes=len(base.nodes),
            leaves=len(base.leaves),
        )
    refs = {
        r: references.get(files[r.model].fingerprint, r, bases[r.model]) for r in workload.requests
    }
    del bases
    models = {n: parse_model(mf.path.read_text(encoding="utf-8")) for n, mf in files.items()}

    # Compiles the package's bytecode and warms the page cache.
    spawner.run(cli_argv(["gen", "--leaves", "3", "--seed", "0"]), tally.timeout())

    start = time.perf_counter()
    if trace:
        # Whole passes, because the per-layer metrics are pass totals.
        while not tally.passes or (time.perf_counter() - start) * (1 + 1 / tally.passes) <= seconds:
            tally.layer_passes.append(defaultdict(float, requests=set()))
            for r in workload.requests:
                run_request(r, files[r.model], models[r.model], refs[r], spawner, tracer, tally, model_dir)
            tally.passes += 1
    else:
        # Requests go round in workload order until the time is up, after
        # one whole pass at least; the last pass may be cut short.
        order = [r for r in workload.requests for _ in range(r.repeat)]
        sent = 0
        while sent < len(order) or time.perf_counter() - start < seconds:
            r = order[sent % len(order)]
            run_request(r, files[r.model], models[r.model], refs[r], spawner, None, tally, model_dir)
            sent += 1
        tally.passes = round(sent / len(order), 2)
    measured_s = time.perf_counter() - start

    if trace:
        metrics = {}
        for layers in tally.layer_passes:
            layers.update(tracer.totals(layers.pop("requests")))
        for metric, (key, unit) in PER_LAYER.items():
            passes = setup_layers if key.startswith("generate.") else tally.layer_passes
            value = statistics.median(p.get(key, 0.0) for p in passes)
            if unit != "s" and value == int(value):
                value = int(value)
            metrics[metric] = {"value": value, "unit": unit}
    else:
        solve_s, eval_s, query_s = (tally.per_request(k) for k in ("solve", "eval", "query"))
        values = {
            "cli_p50_s": statistics.median(solve_s),
            "cli_total_s": sum(solve_s),
            "eval_p50_s": statistics.median(eval_s) if eval_s else 0.0,
            "query_p50_s": statistics.median(query_s) if query_s else 0.0,
            "peak_rss_mb": max(tally.maxrss_kb) / 1024,
            "setup_s": statistics.median(tally.all("setup")),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}

    violations = tracer.violations()
    result = {
        "correct": not tally.failures and violations == 0,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "measured_s": measured_s,
        "passes": tally.passes,
        "failed_frac": {"value": len(tally.failures) / tally.attempted, "unit": "1"},
        "failures": tally.failures,
        "setup_s": tally.all("setup"),
        "samples": tally.samples,
        "maxrss_kb": tally.maxrss_kb,
        "calibrations": [list(c) for c in zip(tally.speed.starts, tally.speed.walls)],
        "context": context(files),
    }
    if trace:
        untraced, traced = tally.all("query"), tally.all("query_traced")
        details["span_violations"] = violations
        details["query_p50_untraced_s"] = statistics.median(untraced) if untraced else None
        details["query_p50_traced_s"] = statistics.median(traced) if traced else None
        if untraced and traced:
            details["trace_overhead_s"] = details["query_p50_traced_s"] - details["query_p50_untraced_s"]
        details["spans"] = tracer.spans
    return {"result": result, "details": details}


def context(files: dict[str, ModelFile]) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "models": {
            name: {"digest": mf.digest, "fingerprint": mf.fingerprint, "nodes": mf.nodes, "leaves": mf.leaves}
            for name, mf in files.items()
        },
    }


def git_sha(root: Path) -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"

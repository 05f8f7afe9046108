"""The in-process ``exec-warm`` workload, and the per-layer metrics shared
by every workload that runs the DBT.

exec-warm runs seeded :func:`repro.workloads.mutate_profile` variants of
the 12 SPEC stand-in profiles through :class:`repro.dbt.DBTEngine` under
the ``condition`` stage of the quick training set (rules learned from two
benchmarks, then parameterized).  Every run's final state is compared with
the reference :class:`repro.dbt.GuestInterpreter`, computed untimed.

The plain run times the set-up (SystemSetup build plus the cold first run
of every program) and gates the exact dynamic counts of the warm runs.
Warm-run speed (``exec_guest_mips``) swings with the host's speed by more
than any regression bound, so it is a per-layer metric of the traced run.
"""

from __future__ import annotations

import dataclasses
import random
from time import perf_counter
from typing import Any, Dict, List, Tuple

from common import (
    BenchError,
    Gate,
    RunDir,
    fresh_process_caches,
    median,
    reference_snapshot,
    snapshot_mismatch,
)
from tracer import DBT_SPANS, OFFLINE_SPANS, Tracer

STAGE = "condition"
#: exec-warm: the profiles' repeat counts are scaled up so warm execution,
#: not per-run overhead, dominates each timed run.
REPEAT_SCALE = 2
#: fewest set-ups per run; ``setup_s`` is their median.  A run repeats
#: set-up plus one warm round until ``--seconds`` have passed.
SETUP_REPEATS = 3
#: warm rounds (every program once) per pass of a traced exec-warm run.
TRACED_ROUNDS = 3


@dataclasses.dataclass
class Program:
    name: str
    unit: Any
    reference: Dict[str, Any]


def make_program(profile, variant_seed: int, repeats: int) -> Program:
    """Compile one seeded profile variant and run the reference on it."""
    from repro.lang import compile_pair
    from repro.workloads import generate_source, mutate_profile

    variant = dataclasses.replace(mutate_profile(profile, variant_seed), repeats=repeats)
    pair = compile_pair(variant.name, generate_source(variant), pic=variant.pic)
    return Program(variant.name, pair.guest, reference_snapshot(pair.guest))


def training_config():
    from repro.difftest.oracle import training_setup

    return training_setup().configs[STAGE]


class RunTotals:
    """Exact counts summed over RunMetrics."""

    FIELDS = (
        "guest_dynamic", "covered_dynamic", "block_executions",
        "chained_executions", "blocks_translated", "trace_entries",
        "trace_guard_exits",
    )

    def __init__(self) -> None:
        self.values = dict.fromkeys(self.FIELDS + ("host",), 0)

    def add(self, metrics) -> None:
        for name in self.FIELDS:
            self.values[name] += getattr(metrics, name)
        self.values["host"] += metrics.total_host


def check_run(gate: Gate, program: Program, result) -> None:
    """Gate one run against its reference (untimed)."""
    mismatch = snapshot_mismatch(program.reference, result.architectural_snapshot())
    gate.op(None if mismatch is None else f"{program.name}: {mismatch}", wrong=True)


def run_checked(gate: Gate, program: Program, engine) -> Tuple[float, Any]:
    """(seconds, result) of one timed run; errors count as failed ops."""
    start = perf_counter()
    try:
        result = engine.run()
    except Exception as exc:  # any program error is a failed op, not a crash
        gate.op(f"{program.name}: {type(exc).__name__}: {exc}")
        return perf_counter() - start, None
    elapsed = perf_counter() - start
    check_run(gate, program, result)
    return elapsed, result


def dbt_layer_metrics(tracer: Tracer, totals=None) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the translate, compile and execute layers.

    *totals* (summed RunMetrics) adds the execute-layer counts; a client
    of the server does not see RunMetrics, so it passes None.
    """
    translate, lookup = tracer.span("translate"), tracer.span("lookup")
    guest = tracer.count("translate.guest")
    metrics = {
        "translate.blocks": (translate["count"], "count"),
        "translate.self_s": (translate["self_s"], "s"),
        "translate.static_coverage": (
            tracer.count("translate.covered") / guest if guest else 0.0, "ratio",
        ),
        "lookup.probes": (lookup["count"], "count"),
        "lookup.hit_ratio": (
            tracer.count("lookup.hits") / lookup["count"] if lookup["count"] else 0.0,
            "ratio",
        ),
        "lookup.self_s": (lookup["self_s"], "s"),
        "compile.blocks": (tracer.span("compile.pycompile")["count"], "count"),
        "compile.codegen_s": (tracer.span("compile.codegen")["self_s"], "s"),
        "compile.pycompile_s": (tracer.span("compile.pycompile")["self_s"], "s"),
        "compile.source_bytes": (tracer.count("compile.source_bytes"), "bytes"),
        "engine.self_s": (tracer.span("engine")["self_s"], "s"),
    }
    if totals is not None:
        blocks = totals.values["block_executions"]
        metrics.update({
            "engine.block_executions": (blocks, "count"),
            "engine.chain_rate": (
                totals.values["chained_executions"] / blocks if blocks else 0.0, "ratio",
            ),
        })
    return metrics


def trace_tier_metrics(tracer: Tracer, totals: RunTotals) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the trace tier (``backend="trace"`` runs)."""
    entries = totals.values["trace_entries"]
    return {
        "trace.formed": (tracer.count("trace.formed"), "count"),
        "trace.form_s": (tracer.span("trace.form")["self_s"], "s"),
        "trace.entries": (entries, "count"),
        "trace.guard_exit_ratio": (
            totals.values["trace_guard_exits"] / entries if entries else 0.0, "ratio",
        ),
    }


def offline_layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of learning, verification and parameterization."""
    check = tracer.span("verify.check")
    return {
        "learn.extract_s": (tracer.span("learn.extract")["self_s"], "s"),
        "learn.candidates": (tracer.count("learn.candidates"), "count"),
        "verify.checks": (check["count"], "count"),
        "verify.check_s": (check["self_s"], "s"),
        "verify.accept_ratio": (
            tracer.count("verify.accepted") / check["count"] if check["count"] else 0.0,
            "ratio",
        ),
        "param.derive_s": (tracer.span("param.derive")["self_s"], "s"),
        "param.seqderive_s": (tracer.span("param.seqderive")["self_s"], "s"),
        "param.derived_unique": (tracer.count("param.derived_unique"), "count"),
        "param.instantiated_rules": (tracer.count("param.instantiated_rules"), "count"),
    }


def span_share(tracer: Tracer, wall: float) -> float:
    """Share of a single-threaded pass's wall time inside any busy span.

    Self times partition the time under the outermost spans, so their sum
    is the time the spans account for.
    """
    covered = sum(
        row[2] for name, row in tracer.spans.items() if tracer.kinds[name] == "busy"
    )
    return covered / wall


# -- exec-warm ---------------------------------------------------------------------


def exec_programs(seed: int) -> List[Program]:
    from repro.workloads import PROFILES

    rng = random.Random(f"exec-warm/{seed}")
    return [
        make_program(profile, rng.randrange(1 << 30), profile.repeats * REPEAT_SCALE)
        for profile in PROFILES
    ]


def exec_setup(run_dir: RunDir, programs: List[Program], gate: Gate, totals: RunTotals):
    """One cold set-up: SystemSetup build + the first run of every program."""
    from repro.dbt import DBTEngine

    fresh_process_caches(run_dir)
    start = perf_counter()
    config = training_config()
    engines = []
    results = []
    for program in programs:
        engine = DBTEngine(program.unit, config, backend="trace", chaining=True)
        try:
            results.append(engine.run())
        except Exception as exc:
            raise BenchError(f"{program.name}: cold run failed: {exc}") from exc
        engines.append(engine)
    elapsed = perf_counter() - start
    for program, result in zip(programs, results):
        check_run(gate, program, result)
        totals.add(result.metrics)
    return elapsed, engines


def exec_round(programs, engines, gate: Gate, totals: RunTotals, exact: Dict):
    """Every program once, warm; returns (seconds, guest insns)."""
    seconds = 0.0
    guest = 0
    for program, engine in zip(programs, engines):
        elapsed, result = run_checked(gate, program, engine)
        seconds += elapsed
        if result is None:
            continue
        metrics = result.metrics
        guest += metrics.guest_dynamic
        totals.add(metrics)
        counts = (metrics.guest_dynamic, metrics.covered_dynamic, metrics.total_host)
        if exact.setdefault(program.name, counts) != counts:
            raise BenchError(f"{program.name}: warm-run counts differ between runs")
    return seconds, guest


def run_exec_warm(args, run_dir: RunDir):
    gate = Gate()
    programs = exec_programs(args.seed)
    exact: Dict[str, Tuple[int, int, int]] = {}
    if args.trace:
        return _trace_exec_warm(run_dir, programs, gate, exact)

    setups = []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(setups) < SETUP_REPEATS:
        elapsed, engines = exec_setup(run_dir, programs, gate, RunTotals())
        setups.append(elapsed)
        exec_round(programs, engines, gate, RunTotals(), exact)

    guest = sum(counts[0] for counts in exact.values())
    covered = sum(counts[1] for counts in exact.values())
    host = sum(counts[2] for counts in exact.values())
    metrics = {
        "setup_s": (median(setups), "s"),
        "ok_ratio": (gate.ok_ratio(), "ratio"),
        "dyn_coverage": (covered / guest, "ratio"),
        "host_per_guest": (host / guest, "ratio"),
    }
    samples = {
        "setup_s": len(setups),
        "warm_runs": len(setups) * len(programs),
        "dyn_coverage": len(programs),
        "host_per_guest": len(programs),
    }
    return gate, metrics, samples, {"programs": exact}, []


def _exec_pass(run_dir, programs, gate, exact):
    """(wall seconds, totals, guest insns/s of each warm round)."""
    totals = RunTotals()
    start = perf_counter()
    _, engines = exec_setup(run_dir, programs, gate, totals)
    rates = []
    for _ in range(TRACED_ROUNDS):
        seconds, guest = exec_round(programs, engines, gate, totals, exact)
        rates.append(guest / seconds)
    return perf_counter() - start, totals, rates


def _trace_exec_warm(run_dir, programs, gate, exact):
    plain, _, rates = _exec_pass(run_dir, programs, gate, exact)
    tracer = Tracer()
    tracer.install(DBT_SPANS + OFFLINE_SPANS)
    try:
        traced, totals, _ = _exec_pass(run_dir, programs, gate, exact)
    finally:
        tracer.uninstall()
    metrics = {"exec_guest_mips": (median(rates) / 1e6, "Minsn/s")}
    metrics.update(dbt_layer_metrics(tracer, totals))
    metrics.update(trace_tier_metrics(tracer, totals))
    metrics.update(offline_layer_metrics(tracer))
    metrics["spans.share"] = (span_share(tracer, traced), "ratio")
    metrics["trace_overhead_ratio"] = (traced / plain, "ratio")
    metrics["failed_ratio"] = (1 - gate.ok_ratio(), "ratio")
    samples = {"programs": len(programs), "warm_rounds_per_pass": TRACED_ROUNDS}
    exact_counts = {
        "programs": exact,
        "totals": totals.values,
        "translate.blocks": metrics["translate.blocks"][0],
        "param.instantiated_rules": metrics["param.instantiated_rules"][0],
    }
    return gate, metrics, samples, exact_counts, tracer.rows()

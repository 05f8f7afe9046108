"""The ``offline-publish`` workload: one fresh ``repro pipeline run`` per op.

Each op spawns ``python -m repro.cli pipeline run`` with a new workdir, an
empty ``REPRO_CACHE_DIR`` and home, a seeded corpus of ``CORPUS_SIZE``
benchmarks and a seeded ``--verify-seed``: corpus -> learn -> derive ->
verify -> publish, timed from spawn to exit.  Corpora are dealt in rounds:
each round is a seeded shuffle of the 12 benchmarks cut into corpora, so
every round learns every benchmark once.

An op succeeds when the pipeline exits 0 with a published ruleset whose
stored body matches the reported digest, and the published ``condition``
config runs seeded programs to the reference interpreter's final state.
The first corpus of a run is published twice and must give the same body
digest both times.

Each ruleset of the first round also runs the benchmarks its corpus left
out (:class:`HeldOut`); those checked runs give the end-to-end
``dyn_coverage`` and ``host_per_guest``.  ``setup_s`` is the CLI start-up
every op pays (``pipeline status``), and ``publish_s_p50`` a per-layer
metric of the traced run.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BenchError,
    Gate,
    RunDir,
    log,
    median,
    reference_snapshot,
    snapshot_mismatch,
)
from dbt_workloads import dbt_layer_metrics, offline_layer_metrics
from tracer import Tracer

HERE = Path(__file__).resolve().parent
#: benchmarks per corpus: each round's corpora are the two halves of one
#: shuffle, so a round always learns the whole suite once.
CORPUS_SIZE = 6
#: fewest rounds per run.
MIN_ROUNDS = 2
#: set-ups before the first op; one more follows every op.
SETUP_REPEATS = 3
#: seeded programs each published ruleset must run correctly.
CHECK_PROGRAMS = 2
OP_TIMEOUT_S = 120


def corpora(seed: int):
    """Endless (corpus, verify seed) stream, dealt in rounds."""
    from repro.workloads import BENCHMARK_NAMES

    rng = random.Random(f"offline-publish/{seed}")
    while True:
        order = list(BENCHMARK_NAMES)
        rng.shuffle(order)
        yield [
            (tuple(sorted(order[i:i + CORPUS_SIZE])), rng.randrange(1 << 16))
            for i in range(0, len(order), CORPUS_SIZE)
        ]


def _spawn(run_dir: RunDir, argv: List[str], timeout: float = OP_TIMEOUT_S):
    env = run_dir.child_env("pipeline")
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable] + argv, env=env, cwd=str(run_dir.root),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[:4]} timed out after {timeout} s") from exc
    return perf_counter() - start, proc


def cli_startup(run_dir: RunDir) -> float:
    """Spawn to exit of ``pipeline status`` on an empty workdir."""
    workdir = run_dir.fresh("status")
    elapsed, proc = _spawn(
        run_dir, ["-m", "repro.cli", "pipeline", "status", "--workdir", str(workdir)])
    if proc.returncode != 0:
        raise BenchError(f"pipeline status failed: {proc.stderr[-2000:]}")
    return elapsed


def publish(run_dir: RunDir, corpus: Tuple[str, ...], verify_seed: int,
            spans_to: Optional[Path] = None):
    """One op: (seconds, pipeline report or None, failure or None, the
    published ``condition`` config or None)."""
    workdir = run_dir.fresh("pipeline")
    args = ["pipeline", "run", "--workdir", str(workdir),
            "--benchmarks", ",".join(corpus), "--verify-seed", str(verify_seed),
            "--json", "--quiet"]
    if spans_to is None:
        argv = ["-m", "repro.cli"] + args
    else:
        argv = [str(HERE / "pipeline_traced.py"), str(spans_to)] + args
    elapsed, proc = _spawn(run_dir, argv)
    if proc.returncode != 0:
        return elapsed, None, f"{corpus}: exit {proc.returncode}: {proc.stderr[-500:]}", None
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        return elapsed, None, f"{corpus}: unreadable report", None
    return (elapsed, report) + _check_published(workdir, report)


def _check_published(workdir: Path, report: Dict[str, Any]):
    """(failure or None, config or None): the store holds the reported
    version, and its rebuilt ``condition`` config runs correctly."""
    from repro.dbt import DBTEngine
    from repro.difftest import ProgramGenerator
    from repro.difftest.oracle import assemble_program
    from repro.errors import ReproError
    from repro.pipeline import RulesetStore, serving_ruleset_from_body

    if not report.get("ok"):
        return "pipeline reported ok=false", None
    ruleset = report["ruleset"]
    store = RulesetStore(workdir / "rulesets")
    if store.latest_version() != ruleset["version"]:
        return f"latest is {store.latest_version()}, published {ruleset['version']}", None
    try:
        loaded = store.load_version(ruleset["version"])  # digest-verified
    except ReproError as exc:
        return f"published body unreadable: {exc}", None
    if loaded["body_sha256"] != ruleset["body_sha256"]:
        return "stored body digest differs from the reported one", None
    config = serving_ruleset_from_body(
        loaded["body"], version=ruleset["version"]).configs["condition"]
    generator = ProgramGenerator(int(ruleset["body_sha256"][:8], 16))
    for index in range(CHECK_PROGRAMS):
        unit = assemble_program(list(generator.generate(index).lines))
        result = DBTEngine(unit, config, backend="jit").run()
        mismatch = snapshot_mismatch(reference_snapshot(unit), result.architectural_snapshot())
        if mismatch is not None:
            return f"published rules diverge on program {index}: {mismatch}", None
    return None, config


class HeldOut:
    """Runs a published config on the benchmarks its corpus left out.

    Over one round (the two halves of a shuffled suite) every benchmark is
    run once, under rules learned without it: the dynamic coverage and
    host instructions the paper measures on unseen programs (fig. 12, 13).
    Each run is checked against the reference interpreter.
    """

    def __init__(self) -> None:
        self.guest = self.covered = self.host = self.runs = 0
        self._units: Dict[str, Any] = {}

    def run(self, gate: Gate, corpus: Tuple[str, ...], config) -> None:
        from repro.dbt import DBTEngine
        from repro.workloads import BENCHMARK_NAMES, compiled_benchmark

        for bench in BENCHMARK_NAMES:
            if bench in corpus:
                continue
            if bench not in self._units:
                unit = compiled_benchmark(bench).guest
                self._units[bench] = (unit, reference_snapshot(unit))
            unit, reference = self._units[bench]
            try:
                result = DBTEngine(unit, config, backend="jit").run()
            except Exception as exc:  # a program error is a failed op
                gate.op(f"held-out {bench}: {type(exc).__name__}: {exc}")
                continue
            mismatch = snapshot_mismatch(reference, result.architectural_snapshot())
            if gate.op(None if mismatch is None else f"held-out {bench}: {mismatch}",
                       wrong=True):
                metrics = result.metrics
                self.guest += metrics.guest_dynamic
                self.covered += metrics.covered_dynamic
                self.host += metrics.total_host
                self.runs += 1

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        if not self.guest:
            raise BenchError("no held-out run to measure coverage on")
        return {
            "dyn_coverage": (self.covered / self.guest, "ratio"),
            "host_per_guest": (self.host / self.guest, "ratio"),
        }


def _op(gate: Gate, run_dir, corpus, verify_seed, spans_to=None):
    """(seconds, digest or None, config or None) of one checked publish."""
    elapsed, report, failure, config = publish(run_dir, corpus, verify_seed, spans_to)
    gate.op(failure, wrong=report is not None and failure is not None)
    digest = report["ruleset"]["body_sha256"] if report else None
    return elapsed, digest, config


def _repeat_check(gate: Gate, run_dir, first, digest) -> None:
    """The same (corpus, verify seed) must publish the same body again."""
    _, again, _ = _op(gate, run_dir, *first)
    if again is not None and again != digest:
        gate.op(f"{first}: republished digest {again[:12]} != {digest[:12]}", wrong=True)


def run_offline_publish(args, run_dir: RunDir):
    gate = Gate()
    rounds = corpora(args.seed)
    if args.trace:
        return _trace_offline_publish(run_dir, next(rounds), gate)
    # set-ups are spread over the run (some first, then one after each op),
    # so their median samples the host's speed over the whole run.
    setups = [cli_startup(run_dir) for _ in range(SETUP_REPEATS)]
    times: List[float] = []
    digests: Dict[str, Optional[str]] = {}
    held_out = HeldOut()
    start = perf_counter()
    first_round = next(rounds)
    ops, done = first_round, 0
    while True:
        for op in ops:
            elapsed, digest, config = _op(gate, run_dir, *op)
            times.append(elapsed)
            if ops is first_round:
                digests[_key(op)] = digest
                if config is not None:
                    held_out.run(gate, op[0], config)
            setups.append(cli_startup(run_dir))
        done += 1
        if done >= MIN_ROUNDS and perf_counter() - start >= args.seconds:
            break
        ops = next(rounds)
    _repeat_check(gate, run_dir, first_round[0], digests[_key(first_round[0])])
    metrics = {"setup_s": (median(setups), "s"), "ok_ratio": (gate.ok_ratio(), "ratio")}
    metrics.update(held_out.metrics())
    samples = {"setup_s": len(setups), "publish_ops": len(times),
               "held_out_runs": held_out.runs}
    log(f"publish_s_p50 {median(times):.3f} s over {len(times)} ops "
        "(a per-layer metric of a traced run)")
    exact = {"digests": digests,
             "held_out": [held_out.guest, held_out.covered, held_out.host]}
    return gate, metrics, samples, exact, []


def _key(op) -> str:
    corpus, verify_seed = op
    return f"{','.join(corpus)}@{verify_seed}"


def _trace_offline_publish(run_dir: RunDir, ops, gate: Gate):
    """One round, each op plain and traced (order alternating)."""
    tracer = Tracer()
    plain: List[float] = []
    traced = 0.0
    digests: Dict[str, Optional[str]] = {}
    for index, op in enumerate(ops):
        for traced_now in ((False, True) if index % 2 else (True, False)):
            spans = run_dir.fresh("spans") / "pipeline.json" if traced_now else None
            elapsed, digest, _ = _op(gate, run_dir, *op, spans_to=spans)
            if traced_now:
                traced += elapsed
                tracer.merge(json.loads(spans.read_text()))
            else:
                plain.append(elapsed)
            if digests.setdefault(_key(op), digest) != digest:
                gate.op(f"{op}: traced and plain publish differ", wrong=True)
    metrics = {"publish_s_p50": (median(plain), "s")}
    metrics.update(dbt_layer_metrics(tracer))
    metrics.update(offline_layer_metrics(tracer))
    gate_span = tracer.span("pipeline.verify_gate")
    metrics["pipeline.verify_gate_s"] = (gate_span["self_s"], "s")
    metrics["pipeline.verify_gate_programs"] = (
        tracer.count("pipeline.verify_gate_programs"), "count")
    metrics["pipeline.publish_s"] = (tracer.span("pipeline.publish")["self_s"], "s")
    busy = sum(row[2] for row in tracer.spans.values())
    metrics["spans.share"] = (busy / traced, "ratio")
    metrics["trace_overhead_ratio"] = (traced / sum(plain), "ratio")
    metrics["failed_ratio"] = (1 - gate.ok_ratio(), "ratio")
    exact = {
        "digests": digests,
        "param.instantiated_rules": metrics["param.instantiated_rules"][0],
        "verify.checks": metrics["verify.checks"][0],
    }
    return gate, metrics, {"ops_per_mode": len(ops)}, exact, tracer.rows()

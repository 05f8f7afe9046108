"""Shared plumbing for the benchmark: paths, isolation, statistics, checks.

Nothing here imports ``repro``: the program under test is imported only
after :func:`bootstrap` has pointed every cache at a run-owned directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout root (the benchmark is run from it; paths never leave it).
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: per-run scratch (caches, workdirs, stores); deleted when the run ends.
RUNS_DIR = ROOT / ".perfbench-runs"
#: exact counts per (workload, seed, source digest), compared across runs.
STATE_DIR = ROOT / ".perfbench-state"

#: guest registers the correctness gate compares (flags are excluded: the
#: translator legitimately leaves dead guest flags unmaterialized).
GATE_REGS = tuple(f"r{i}" for i in range(13)) + ("sp", "lr")


#: every result line carries all of one of these sets, name -> unit (the
#: metrics of ``BENCHMARK.json``).  ``--trace 0``: the end-to-end metrics,
#: which every workload measures.  ``--trace 1``: the per-layer metrics; a
#: layer a workload never calls reads 0 there (see README.md).
END_TO_END = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "dyn_coverage": "ratio",
    "host_per_guest": "ratio",
}
PER_LAYER = {
    "exec_guest_mips": "Minsn/s",
    "serve_lo_ms_p50": "ms",
    "serve_lo_ms_p95": "ms",
    "serve_hi_ms_p50": "ms",
    "serve_hi_ms_p95": "ms",
    "serve_max_rps": "1/s",
    "publish_s_p50": "s",
    "translate.blocks": "count",
    "translate.self_s": "s",
    "translate.static_coverage": "ratio",
    "lookup.probes": "count",
    "lookup.hit_ratio": "ratio",
    "lookup.self_s": "s",
    "compile.blocks": "count",
    "compile.codegen_s": "s",
    "compile.pycompile_s": "s",
    "compile.source_bytes": "bytes",
    "engine.self_s": "s",
    "engine.block_executions": "count",
    "engine.chain_rate": "ratio",
    "trace.formed": "count",
    "trace.form_s": "s",
    "trace.entries": "count",
    "trace.guard_exit_ratio": "ratio",
    "serve.run_small_ms_p50": "ms",
    "serve.run_bench_ms_p50": "ms",
    "serve.run_cold_ms_p50": "ms",
    "serve.translate_ms_p50": "ms",
    "serve.coverage_ms_p50": "ms",
    "serve.lateness_ms_p99": "ms",
    "serve.late_share": "ratio",
    "codecache.hit_ratio": "ratio",
    "codecache.coalesced": "count",
    "codecache.evictions": "count",
    "server.backpressure": "count",
    "server.timeouts": "count",
    "serve.handle_self_s": "s",
    "serve.ensure_wait_s": "s",
    "serve.execute_s": "s",
    "serve.snapshot_s": "s",
    "serve.encode_s": "s",
    "learn.extract_s": "s",
    "learn.candidates": "count",
    "verify.checks": "count",
    "verify.check_s": "s",
    "verify.accept_ratio": "ratio",
    "param.derive_s": "s",
    "param.seqderive_s": "s",
    "param.derived_unique": "count",
    "param.instantiated_rules": "count",
    "pipeline.verify_gate_s": "s",
    "pipeline.verify_gate_programs": "count",
    "pipeline.publish_s": "s",
    "spans.share": "ratio",
    "trace_overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a valid result (exit non-zero, no result)."""


# -- statistics ----------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (``q`` in [0, 1])."""
    if not values:
        raise BenchError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def require_samples(name: str, values: Sequence[float], q: float) -> None:
    """A quantile is reported only with at least ten samples beyond it."""
    needed = int(round(10 / (1 - q))) if q < 1 else 1
    if len(values) < needed:
        raise BenchError(f"{name}: {len(values)} samples, need >= {needed}")


# -- isolation -------------------------------------------------------------------


class RunDir:
    """A run-owned directory tree under the checkout, removed at exit."""

    def __init__(self, workload: str) -> None:
        self.root = RUNS_DIR / f"{workload}-{os.getpid()}-{time.time_ns()}"
        self._count = 0

    def __enter__(self) -> "RunDir":
        self.root.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()  # only when no concurrent run still owns it
        except OSError:
            pass

    def fresh(self, label: str) -> Path:
        """A new, empty directory (a cache root, workdir, or home)."""
        self._count += 1
        path = self.root / f"{self._count:04d}-{label}"
        path.mkdir()
        return path

    def child_env(self, label: str) -> Dict[str, str]:
        """Environment for a program subprocess: empty cache, private home."""
        home = self.fresh(f"{label}-home")
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(SRC),
            REPRO_CACHE_DIR=str(home / "cache"),
            HOME=str(home),
            PYTHONDONTWRITEBYTECODE="1",
        )
        env.pop("REPRO_CACHE_DISABLE", None)
        return env


def bootstrap(run_dir: RunDir) -> None:
    """Make ``repro`` importable from the checkout, with isolated caches."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    os.environ["REPRO_CACHE_DIR"] = str(run_dir.fresh("cache"))
    os.environ.pop("REPRO_CACHE_DISABLE", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_process_caches(run_dir: RunDir) -> None:
    """Point the in-process disk cache at a new empty root and drop memos.

    Lets one process repeat a cold set-up: without it the second build
    would read what the first one cached.
    """
    from repro.cache import clear_all_caches, reset_disk_cache

    reset_disk_cache(run_dir.fresh("cache"))
    clear_all_caches()


# -- correctness -----------------------------------------------------------------


def reference_snapshot(unit) -> Dict[str, Any]:
    """Final state from the reference interpreter (untimed oracle)."""
    from repro.dbt import GuestInterpreter

    return GuestInterpreter(unit).run().architectural_snapshot()


def normalize_snapshot(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Registers + non-zero guest memory, with JSON's string keys undone."""
    return {
        "regs": {name: int(snapshot["regs"][name]) for name in GATE_REGS},
        "memory": {
            int(addr): int(value)
            for addr, value in snapshot["memory"].items()
            if int(value)
        },
    }


def snapshot_mismatch(reference: Dict[str, Any], got: Dict[str, Any]) -> Optional[str]:
    """First difference between two snapshots, or None when they agree."""
    ref, out = normalize_snapshot(reference), normalize_snapshot(got)
    for name in GATE_REGS:
        if ref["regs"][name] != out["regs"][name]:
            return f"{name}: reference {ref['regs'][name]:#x} != {out['regs'][name]:#x}"
    ref_mem, out_mem = ref["memory"], out["memory"]
    addrs = sorted(
        a for a in set(ref_mem) | set(out_mem) if ref_mem.get(a) != out_mem.get(a)
    )
    if addrs:
        return f"memory differs at {len(addrs)} word(s), first {addrs[0] * 4:#x}"
    return None


class Gate:
    """Counts attempted and failed ops; keeps the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: List[str] = []

    def op(self, failure: Optional[str] = None, wrong: bool = False) -> bool:
        """Record one op; *failure* is None on success. Returns success."""
        self.attempted += 1
        if failure is None:
            return True
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.reasons) < 8:
            self.reasons.append(failure)
        return False

    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    @property
    def correct(self) -> bool:
        return self.wrong == 0


# -- determinism -----------------------------------------------------------------


def source_digest() -> str:
    """sha256 over the program's and the benchmark's own sources."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_repeatable(workload: str, seed: int, mode: str, counts: Dict[str, Any]) -> List[str]:
    """Compare exact counts with an earlier run of the same seed and code.

    The first run of a (workload, seed, mode, source digest) records its
    counts; every later one must reproduce them bit for bit.  Returns the
    names that differ.
    """
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"{workload}-{mode}-seed{seed}-{source_digest()[:16]}.json"
    encoded = json.loads(json.dumps(counts, sort_keys=True))
    if path.exists():
        try:
            recorded = json.loads(path.read_text())
        except ValueError:
            recorded = None
        if isinstance(recorded, dict):
            return sorted(
                key for key in set(recorded) | set(encoded)
                if recorded.get(key) != encoded.get(key)
            )
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(encoded, sort_keys=True))
    os.replace(tmp, path)
    return []


# -- reporting -------------------------------------------------------------------


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def stamp(args, samples: Dict[str, Any]) -> Dict[str, Any]:
    """Provenance of one result: code, host, seed, and sample counts."""
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def complete_metrics(metrics: Dict[str, Tuple[float, str]], trace: bool
                     ) -> Dict[str, Tuple[float, str]]:
    """The result's metrics: every name of the mode's set, in the set's order.

    A metric outside the set, or in another unit, is a bug of the
    benchmark.  An end-to-end metric must be measured; a per-layer one the
    workload does not reach reads 0.
    """
    expected = PER_LAYER if trace else END_TO_END
    for name, (_, unit) in metrics.items():
        if expected.get(name) != unit:
            raise BenchError(f"metric {name} [{unit}] is not in the result set")
    missing = [name for name in expected if name not in metrics]
    if missing and not trace:
        raise BenchError(f"end-to-end metrics not measured: {missing}")
    if missing:
        log("not on this workload's path (reported as 0): " + ", ".join(missing))
    return {
        name: metrics.get(name, (0.0, unit)) for name, unit in expected.items()
    }


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def format_table(rows: Iterable[Sequence[Any]]) -> str:
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rows
    )

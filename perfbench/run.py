"""Benchmark entry point.

    python3 perfbench/run.py --workload exec-warm --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics, which every workload
measures; with ``--trace 1`` a separate traced run gives the per-layer
metrics (0 for a layer the workload never calls).  A human
report (layer table, provenance stamp, sample counts) goes to standard
error.  ``--self-test`` plants a wrong rule and shows the correctness gate
counts the failures.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BenchError,
    RunDir,
    bootstrap,
    check_repeatable,
    complete_metrics,
    format_table,
    log,
    stamp,
)

WORKLOADS = ("exec-warm", "serve-mix", "offline-publish")

#: every run must end well inside the 180 s a run is allowed.
WATCHDOG_SECONDS = 170


def _runner(workload: str):
    if workload == "exec-warm":
        from dbt_workloads import run_exec_warm as runner
    elif workload == "serve-mix":
        from serve_workload import run_serve_mix as runner
    else:
        from publish_workload import run_offline_publish as runner
    return runner


def _watchdog(signum, frame) -> None:
    raise BenchError(f"run exceeded {WATCHDOG_SECONDS} s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="exec-warm")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="plant a wrong rule; exit 0 only if the gate catches it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        with RunDir(args.workload) as run_dir:
            bootstrap(run_dir)
            if args.self_test:
                from selftest import run_self_test

                return run_self_test(run_dir)
            gate, metrics, samples, exact, rows = _runner(args.workload)(args, run_dir)
            metrics = complete_metrics(metrics, bool(args.trace))
    except BenchError as exc:
        log(f"invalid run: {exc}")
        return 2
    finally:
        signal.alarm(0)

    mode = "traced" if args.trace else "plain"
    drift = check_repeatable(args.workload, args.seed, mode, exact)
    if drift:
        log(f"exact counts differ from an earlier run of seed {args.seed}: {drift}")
        return 3
    if rows:
        log("spans of the traced pass:\n" + format_table(rows))
    for reason in gate.reasons:
        log(f"failed op: {reason}")
    log("stamp: " + json.dumps(stamp(args, samples), sort_keys=True))
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pre-fork worker pool: multi-core serving behind one listener.

``repro serve`` (PR 5) is one asyncio process — one Python core is its
throughput ceiling.  This module scales the same server across cores the
way classic UNIX network servers do:

* the **parent** loads the frozen :class:`~repro.param.engine.SystemSetup`
  once, binds the listening socket, then ``fork()``s N workers.  Rules and
  derived payloads are shared copy-on-write; the port is known (and
  printed) before any worker exists, so an ephemeral-port pool is still
  scriptable;
* each **worker** runs the unchanged asyncio serving loop
  (:class:`~repro.service.server.ServiceServer`) with ``accept()`` on the
  inherited socket — the kernel distributes connections across workers;
* workers share compiled blocks through the **cross-process disk code
  cache** (:mod:`repro.service.diskcode`) under the pool runtime
  directory: a block's source generated by any worker is a warm
  ``compile()``-only hit for every other, with lockfile claim-or-wait
  extending single-flight across processes;
* the parent **supervises**: a crashed worker (segfault, OOM-kill,
  ``SIGKILL``) is reaped, recorded in the exit accounting, and respawned
  without disturbing in-flight requests on its siblings; SIGTERM to the
  parent fans out SIGTERM to every worker, waits for their graceful
  drains, and exits 0 — byte-for-byte the single-process drain contract.

Observability crosses the process boundary through files in the pool
runtime directory (all writes atomic-rename): the parent maintains
``pool.json`` (worker table, respawn/exit accounting) and each worker
periodically publishes ``stats/worker-<index>.json``; any worker's
``stats`` endpoint aggregates the lot (merged latency histograms, summed
cache counters) so one request shows the whole pool.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import json
import os
import signal
import socket
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cache import atomic_write_text
from repro.service.server import PoolContext, ServiceConfig, start_server
from repro.service.stats import merge_endpoint_payloads

#: How often each worker publishes its stats snapshot (seconds).
STATS_FLUSH_INTERVAL = 0.5


@dataclass
class PoolConfig:
    """Tunables for one pool (parent + N workers)."""

    workers: int = 2
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: pool runtime directory (stats files, disk code cache, pool.json);
    #: None creates a fresh temp directory.
    directory: Optional[str] = None
    #: total worker respawns before the parent gives up and shuts down.
    max_respawns: int = 32
    #: seconds to wait for worker drains after SIGTERM fan-out before
    #: escalating to SIGKILL.
    drain_timeout: float = 30.0


# ---------------------------------------------------------------------------
# Worker-side: stats publication


def publish_worker_stats(service, context: PoolContext) -> None:
    """Atomically publish this worker's mergeable stats snapshot."""
    ruleset = service.ruleset
    payload = {
        "index": context.worker_index,
        "pid": os.getpid(),
        "updated": time.time(),
        "uptime_seconds": round(service.uptime(), 3),
        "requests_total": service.requests_total,
        "errors_by_code": dict(service.error_counts),
        "endpoints_raw": service.endpoints.raw_payload(),
        "code_cache": service.code_cache.stats(),
        "ruleset_version": ruleset.version,
        "ruleset_digest": ruleset.digest,
        "ruleset_swaps": service.ruleset_swaps,
    }
    path = (
        Path(context.directory) / "stats" / f"worker-{context.worker_index}.json"
    )
    try:
        atomic_write_text(path, json.dumps(payload, sort_keys=True))
    except OSError:
        pass  # stats publication must never hurt serving


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def aggregate_pool_stats(directory: str) -> Dict[str, Any]:
    """The pool-wide stats section: parent accounting + per-worker snapshots
    + cluster aggregates (merged histograms, summed cache counters)."""
    root = Path(directory)
    parent = _read_json(root / "pool.json") or {}
    snapshots: List[Dict[str, Any]] = []
    stats_dir = root / "stats"
    if stats_dir.is_dir():
        for path in sorted(stats_dir.glob("worker-*.json")):
            snapshot = _read_json(path)
            if snapshot is not None:
                snapshots.append(snapshot)
    snapshots.sort(key=lambda s: s.get("index", 0))

    errors: Dict[str, int] = {}
    cache_totals: Dict[str, int] = {}
    disk_totals: Dict[str, int] = {}
    for snapshot in snapshots:
        for code, count in (snapshot.get("errors_by_code") or {}).items():
            errors[code] = errors.get(code, 0) + int(count)
        cache = snapshot.get("code_cache") or {}
        for key in ("hits", "misses", "compiles", "coalesced", "evictions"):
            if key in cache:
                cache_totals[key] = cache_totals.get(key, 0) + int(cache[key])
        disk = cache.get("disk") or {}
        for key, value in disk.items():
            if isinstance(value, int):
                disk_totals[key] = disk_totals.get(key, 0) + value

    workers = [
        {
            "index": s.get("index"),
            "pid": s.get("pid"),
            "uptime_seconds": s.get("uptime_seconds"),
            "requests_total": s.get("requests_total", 0),
            "code_cache_compiles": (s.get("code_cache") or {}).get("compiles", 0),
            "ruleset_version": s.get("ruleset_version"),
        }
        for s in snapshots
    ]
    # version -> worker count; one key means the pool has converged after a
    # hot reload, two means a rolling swap is still in flight.
    ruleset_versions: Dict[str, int] = {}
    for snapshot in snapshots:
        version = snapshot.get("ruleset_version")
        if version is not None:
            ruleset_versions[version] = ruleset_versions.get(version, 0) + 1
    return {
        "parent": parent,
        "workers": workers,
        "aggregate": {
            "requests_total": sum(s.get("requests_total", 0) for s in snapshots),
            "errors_by_code": errors,
            "endpoints": merge_endpoint_payloads(
                [s.get("endpoints_raw") or {} for s in snapshots]
            ),
            "code_cache": cache_totals,
            "disk_code": disk_totals,
            "ruleset_versions": ruleset_versions,
        },
    }


# ---------------------------------------------------------------------------
# Worker-side: main loop


def _worker_main(
    index: int, sock: socket.socket, config: PoolConfig, ruleset
) -> int:
    """One forked worker: the asyncio server over the inherited socket."""
    # The fork inherited the parent's supervisor signal handlers; running
    # those in a worker would fan out kills to siblings.  Default them
    # until the worker's own loop installs its graceful-drain handlers.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    context = PoolContext(
        directory=config.directory,
        worker_index=index,
        workers=config.workers,
    )

    async def amain() -> int:
        server = await start_server(
            config.service, sock=sock, pool_context=context, ruleset=ruleset
        )
        server.install_signal_handlers()
        service = server.service

        async def flusher() -> None:
            while True:
                publish_worker_stats(service, context)
                await asyncio.sleep(STATS_FLUSH_INTERVAL)

        flush_task = asyncio.create_task(flusher())
        print(
            f"repro serve: worker {index} ready (pid={os.getpid()})",
            flush=True,
        )
        await server.wait_closed()
        flush_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await flush_task
        publish_worker_stats(service, context)
        print(
            f"repro serve: worker {index} drained cleanly (pid={os.getpid()})",
            flush=True,
        )
        return 0

    try:
        return asyncio.run(amain())
    except KeyboardInterrupt:
        return 0


# ---------------------------------------------------------------------------
# Parent-side: supervisor


class PoolSupervisor:
    """Parent process: bind, fork, reap, respawn, fan out drains."""

    def __init__(self, config: PoolConfig) -> None:
        if config.workers < 1:
            raise ValueError("pool needs at least one worker")
        self.config = config
        self._live: Dict[int, int] = {}  # pid -> worker index
        self._respawns = 0
        self._exits: List[Dict[str, Any]] = []
        self._shutting_down = False
        self._started = time.time()
        self.sock: Optional[socket.socket] = None
        self.port: Optional[int] = None

    # -- pool.json accounting -------------------------------------------------

    def _write_pool_file(self) -> None:
        payload = {
            "parent_pid": os.getpid(),
            "started": self._started,
            "workers": [
                {"index": index, "pid": pid}
                for pid, index in sorted(
                    self._live.items(), key=lambda kv: kv[1]
                )
            ],
            "respawns": self._respawns,
            "exits": self._exits,
            "draining": self._shutting_down,
        }
        try:
            atomic_write_text(
                Path(self.config.directory) / "pool.json",
                json.dumps(payload, sort_keys=True),
            )
        except OSError:
            pass

    # -- lifecycle ------------------------------------------------------------

    def _prepare(self, setup=None):
        config = self.config
        if config.directory is None:
            config.directory = tempfile.mkdtemp(prefix="repro-pool-")
        root = Path(config.directory)
        (root / "stats").mkdir(parents=True, exist_ok=True)
        if not config.service.disk_code_dir:
            config.service = dataclasses.replace(
                config.service, disk_code_dir=str(root / "codecache")
            )
        # Resolve the serving ruleset once, pre-fork: workers share the
        # rules (store-loaded or trained) copy-on-write.
        from repro.service.server import resolve_ruleset

        ruleset = resolve_ruleset(config.service, setup=setup)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((config.service.host, config.service.port))
        sock.listen(128)
        sock.set_inheritable(True)
        self.sock = sock
        self.port = sock.getsockname()[1]
        return ruleset

    def _spawn(self, index: int, ruleset) -> None:
        pid = os.fork()
        if pid == 0:
            # Child: never return into the parent's stack.  os._exit skips
            # the parent's atexit/finalizers, which belong to the parent.
            code = 1
            try:
                code = _worker_main(index, self.sock, self.config, ruleset)
            except BaseException as exc:  # noqa: BLE001 - last-resort report
                print(
                    f"repro serve: worker {index} crashed: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                    flush=True,
                )
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        self._live[pid] = index

    def _fan_out(self, signum: int) -> None:
        for pid in list(self._live):
            with contextlib.suppress(ProcessLookupError, OSError):
                os.kill(pid, signum)

    def _begin_shutdown(self, *_args) -> None:
        if self._shutting_down:
            return
        self._shutting_down = True
        self._fan_out(signal.SIGTERM)

    def _record_exit(self, pid: int, status: int, respawned: bool) -> None:
        index = self._live.pop(pid)
        entry: Dict[str, Any] = {"index": index, "pid": pid, "respawned": respawned}
        if os.WIFSIGNALED(status):
            entry["signal"] = os.WTERMSIG(status)
            entry["exitcode"] = None
        else:
            entry["signal"] = None
            entry["exitcode"] = os.WEXITSTATUS(status)
        self._exits.append(entry)

    def run(self, setup=None) -> int:
        """Blocking supervisor loop; returns the pool's exit code."""
        config = self.config
        ruleset = self._prepare(setup=setup)
        # Freeze the pre-fork heap: workers inherit it out of the cyclic
        # collector's reach, so no collection stalls a request walking the
        # rules, and no collection dirties the shared copy-on-write pages.
        gc.freeze()
        print(
            f"repro serve: listening on {config.service.host}:{self.port} "
            f"(stage={config.service.stage}, "
            f"training={config.service.training}, "
            f"ruleset={ruleset.version}, "
            f"workers={config.workers}, "
            f"handlers={config.service.handlers}, "
            f"pool_dir={config.directory}, pid={os.getpid()})",
            flush=True,
        )
        previous = {
            signum: signal.signal(signum, self._begin_shutdown)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        for index in range(config.workers):
            self._spawn(index, ruleset)
        self._write_pool_file()
        failed = False
        kill_deadline: Optional[float] = None
        try:
            while self._live:
                if self._shutting_down and kill_deadline is None:
                    kill_deadline = time.monotonic() + config.drain_timeout
                if kill_deadline is not None and time.monotonic() > kill_deadline:
                    self._fan_out(signal.SIGKILL)
                    kill_deadline = time.monotonic() + config.drain_timeout
                try:
                    pid, status = os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    break
                except InterruptedError:
                    continue
                if pid == 0:
                    time.sleep(0.05)
                    continue
                if pid not in self._live:
                    continue
                index = self._live[pid]
                if self._shutting_down:
                    self._record_exit(pid, status, respawned=False)
                    if status != 0:
                        failed = True
                elif self._respawns < config.max_respawns:
                    self._respawns += 1
                    self._record_exit(pid, status, respawned=True)
                    print(
                        f"repro serve: worker {index} (pid={pid}) exited "
                        f"unexpectedly; respawning "
                        f"({self._respawns}/{config.max_respawns})",
                        flush=True,
                    )
                    self._spawn(index, ruleset)
                else:
                    failed = True
                    self._record_exit(pid, status, respawned=False)
                    print(
                        f"repro serve: worker {index} (pid={pid}) exited and "
                        "the respawn budget is exhausted; shutting down",
                        flush=True,
                    )
                    self._begin_shutdown()
                self._write_pool_file()
        finally:
            for signum, handler in previous.items():
                with contextlib.suppress(ValueError, OSError):
                    signal.signal(signum, handler)
            if self.sock is not None:
                with contextlib.suppress(OSError):
                    self.sock.close()
            self._write_pool_file()
        if failed:
            print("repro serve: pool shut down with failures", flush=True)
            return 1
        print("repro serve: pool drained cleanly", flush=True)
        return 0


def serve_pool(config: PoolConfig) -> int:
    """Blocking entry point for ``repro serve --workers N`` (N > 1)."""
    return PoolSupervisor(config).run()

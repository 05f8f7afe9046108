"""The ``serve-mix`` workload: ``repro serve`` under an open-loop mix.

One server process (``python -m repro.cli serve --port 0``: jit backend,
quick training, one worker) and one client process — this one — with two
pipelined connections.  Requests are sent on a seeded schedule at evenly
spaced due times, whether or not earlier ones were answered (an open
loop: independent users), and every latency is measured from the request's
due time, so a stall also charges the requests queued behind it.

The mix is the service mix the repository states for its own load
generator, ``repro.service.loadgen.MIX`` (run-bench 45, run-fuzz 20,
translate 15, coverage 10, stats 5, ping 5), dealt in decks of 20:

* ``bench``  — 9: warm ``run`` of the SPEC stand-ins by name (execution
  dominates);
* ``small``  — 3 and ``cold`` — 1: loadgen's run-fuzz share.  ``small``
  repeats a few generated programs (serve overhead dominates); ``cold``
  sends a never-seen generated program, which inserts into the code cache
  and pays translate + compile;
* ``translate`` — 3 and ``coverage`` — 2, on the SPEC stand-ins by name,
  as loadgen sends them;
* ``stats`` — 1 and ``ping`` — 1.

An untraced run plays one fixed-rate phase, ``hi``, and reports set-up
time, the share of correct answers and the coverage of the code served.
A traced run, which reports the latencies, plays ``lo`` and ``hi`` at
fixed rates against a plain server, then climbs a rate ladder up from
``hi`` for ``serve_max_rps``, then replays ``lo`` and ``hi`` against a
traced server.  There a fixed-rate phase whose generator fell behind or
whose backlog grew is invalid (the run exits non-zero); a ladder step
that misses the p95 limit, fails a request, or grows its backlog ends
the climb.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BenchError,
    Gate,
    RunDir,
    log,
    median,
    quantile,
    reference_snapshot,
    require_samples,
    snapshot_mismatch,
)
from dbt_workloads import dbt_layer_metrics, offline_layer_metrics
from tracer import Tracer

HERE = Path(__file__).resolve().parent

#: requests per phase unit: a whole number of class decks.  Each class
#: deals its SPEC names from a shuffled pile, so within a phase every name
#: comes up equally often, give or take one.
PHASE_UNIT = 120
#: requests per ladder step (a p95 needs >= 200: ten class decks).
STEP_REQUESTS = 200
#: lo and hi each get their fewest phase units (FIXED_PHASES), and more if
#: needed to last SHARE of ``--seconds``.
SHARE = 0.3
#: the fixed rates, requests/s.
LO_RPS = 15.0
HI_RPS = 20.0
#: (name, rate in requests/s, fewest phase units).  ``hi`` keeps the
#: server's interpreter lock busy about a third of the time: queueing
#: amplifies the host's own speed swings, the more so the busier it is.
FIXED_PHASES = (("lo", LO_RPS, 3), ("hi", HI_RPS, 3))
#: ladder: climb by this factor until a step fails, then bisect.  The first
#: step is two factors above ``hi``: one factor above it always passes.
LADDER_FACTOR = 1.4
LADDER_MAX_STEPS = 9
LADDER_BISECTIONS = 3
#: the benchmark's latency limit on a step's p95, from due time.  It sits
#: where p95 turns steeply upward as the server nears its capacity; at a
#: lower limit the step that first misses it is decided by queueing noise
#: at moderate load (one rate of 49 rps gave p95s of 83-245 ms).
P95_LIMIT_MS = 250.0
#: a backlog grew when the last third's median latency exceeds twice the
#: first third's and the first third's plus this.
GROWTH_MS = 37.5
#: a request sent later than this after its due time counts as late.
LATE_MS = 2.0
#: a phase whose generator lateness p95 exceeds this is invalid: the
#: generator fell behind, not just lost the CPU once or twice.
BEHIND_MS = 15.0
#: how long to wait for the last responses of a phase.
DRAIN_TIMEOUT_S = 20.0
SETUP_REPEATS = 5
#: loadgen's default rotation of generated programs.
SMALL_PROGRAMS = 6
#: requests of each class per shuffled deck of 20: ``loadgen.MIX`` / 5,
#: with run-fuzz split into warm repeats (``small``) and never-seen
#: programs (``cold``), which loadgen does not send.
MIX = (("bench", 9), ("small", 3), ("cold", 1), ("translate", 3), ("coverage", 2),
       ("stats", 1), ("ping", 1))
CLASSES = tuple(name for name, _ in MIX)
DECK = sum(count for _, count in MIX)
#: classes that run or translate a unit, and so get a per-class latency.
UNIT_CLASSES = ("small", "bench", "cold", "translate", "coverage")


@dataclass
class Request:
    cls: str
    key: str
    body: Dict[str, Any]
    offset: float = 0.0
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    #: the raw answer line; parsed only after the phase (see ``response``).
    raw: Optional[bytes] = field(default=None, repr=False)

    @functools.cached_property
    def response(self) -> Optional[Dict[str, Any]]:
        return None if self.raw is None else json.loads(self.raw)

    @property
    def ok(self) -> bool:
        return bool((self.response or {}).get("ok"))

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1e3


class Inputs:
    """Seeded units: small programs, SPEC names, a never-seen program stream."""

    def __init__(self, seed: int) -> None:
        from repro.difftest import ProgramGenerator
        from repro.workloads import BENCHMARK_NAMES

        rng = random.Random(f"serve-mix/{seed}")
        self.rng = rng
        small_gen = ProgramGenerator(rng.randrange(1 << 30))
        self.small = [list(small_gen.generate(i).lines) for i in range(SMALL_PROGRAMS)]
        self.benches = list(BENCHMARK_NAMES)
        self._cold_gen = ProgramGenerator(rng.randrange(1 << 30))
        self._cold_next = 0
        self._references: Dict[str, Dict[str, Any]] = {}
        self._decks: Dict[str, List[Any]] = {}

    def cold_program(self) -> List[str]:
        """A program never sent before (the reference must accept it)."""
        from repro.errors import ReproError

        while True:
            lines = list(self._cold_gen.generate(self._cold_next).lines)
            self._cold_next += 1
            try:
                self.reference(_program_key(lines), lines)
            except ReproError:  # the reference rejects it: not a valid input
                continue
            return lines

    def reference(self, key: str, lines=None, bench: Optional[str] = None):
        snap = self._references.get(key)
        if snap is None:
            if bench is not None:
                from repro.workloads import compiled_benchmark

                unit = compiled_benchmark(bench).guest
            else:
                from repro.difftest.oracle import assemble_program

                unit = assemble_program(lines)
            snap = self._references[key] = reference_snapshot(unit)
        return snap

    def _deal(self, deck: str, cards: List[Any]) -> Any:
        """Draw from a shuffled deck, refilled when empty: every card comes up
        equally often, so short phases still see the intended mix."""
        pile = self._decks.setdefault(deck, [])
        if not pile:
            pile.extend(cards)
            self.rng.shuffle(pile)
        return pile.pop()

    def request(self, cls: str) -> Request:
        if cls == "small":
            lines = self._deal(cls, self.small)
            return Request(cls, _program_key(lines), {"op": "run", "program": lines})
        if cls == "cold":
            lines = self.cold_program()
            return Request(cls, _program_key(lines), {"op": "run", "program": lines})
        if cls in ("stats", "ping"):
            return Request(cls, cls, {"op": cls})
        name = self._deal(cls, self.benches)
        op = "run" if cls == "bench" else cls
        return Request(cls, f"bench:{name}", {"op": op, "benchmark": name})

    def warmup(self) -> List[Request]:
        """Every warm unit once per op it is used with (untimed)."""
        requests = [Request("small", _program_key(p), {"op": "run", "program": p})
                    for p in self.small]
        for op in ("run", "translate", "coverage"):
            requests += [Request("bench" if op == "run" else op, f"bench:{b}",
                                 {"op": op, "benchmark": b}) for b in self.benches]
        return requests

    def schedule(self, rate: float, count: int) -> List[Request]:
        """``count`` requests at evenly spaced due times, dealt in seeded
        shuffled decks of DECK that hold the MIX counts exactly; fresh
        decks per phase."""
        deck = [name for name, count in MIX for _ in range(count)]
        self._decks = {}
        requests = []
        for index in range(count):
            if index % DECK == 0:
                self.rng.shuffle(deck)
            request = self.request(deck[index % DECK])
            request.offset = index / rate
            requests.append(request)
        return requests


def _program_key(lines: List[str]) -> str:
    return "prog:" + hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# -- server process ----------------------------------------------------------------


class Server:
    """One ``repro serve`` process; ``setup_s`` is spawn to "listening"."""

    def __init__(self, run_dir: RunDir, traced_to: Optional[Path] = None) -> None:
        env = run_dir.child_env("serve")
        if traced_to is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"), str(traced_to)]
        self.log_path = run_dir.fresh("serve-log") / "stderr.txt"
        self._stderr = open(self.log_path, "w")
        start = perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=env, cwd=str(run_dir.root),
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = perf_counter() - start
            if "listening on" not in line:
                raise BenchError(f"server did not start: {line!r} {self.log_tail()}")
            self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def log_tail(self) -> str:
        return self.log_path.read_text()[-2000:]

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return self.proc.returncode


# -- client ------------------------------------------------------------------------


class Client:
    """Open-loop client over two pipelined connections (requests by id).

    A sender (the caller's thread) sleeps until each due time and writes;
    one reader thread per connection timestamps each answer line as it
    arrives and files it under its request id.  Answers are parsed only
    after the phase, so the readers stay quick.
    """

    def __init__(self, port: int, connections: int = 2) -> None:
        self.socks = []
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=DRAIN_TIMEOUT_S)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
        self.pending: Dict[int, Request] = {}
        self.lock = threading.Lock()
        self.idle = threading.Event()
        self.idle.set()
        self.next_id = 0
        self.readers = [
            threading.Thread(target=self._read, args=(sock,), daemon=True)
            for sock in self.socks
        ]
        for reader in self.readers:
            reader.start()

    def _read(self, sock) -> None:
        with sock.makefile("rb") as stream:
            for line in stream:
                done = perf_counter()
                with self.lock:
                    request = self.pending.pop(_answer_id(line), None)
                    if request is not None:
                        request.done, request.raw = done, line
                    if not self.pending:
                        self.idle.set()

    def send(self, request: Request) -> None:
        with self.lock:
            self.next_id += 1
            ident = self.next_id
            self.pending[ident] = request
            self.idle.clear()
        request.sent = perf_counter()
        line = json.dumps({"id": ident, **request.body}).encode() + b"\n"
        self.socks[ident % len(self.socks)].sendall(line)

    def play(self, requests: List[Request]) -> None:
        """Send on schedule, then wait for every answer (bounded)."""
        start = perf_counter() + 0.01
        for request in requests:
            request.due = start + request.offset
            delay = request.due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.send(request)
        self.idle.wait(DRAIN_TIMEOUT_S)

    def call(self, body: Dict[str, Any]) -> Dict[str, Any]:
        request = Request("admin", "", body)
        self.play([request])
        if request.raw is None:
            raise BenchError(f"no answer to {body}")
        return request.response

    def close(self) -> None:
        for sock in self.socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for reader in self.readers:
            reader.join(timeout=10)


def _answer_id(line: bytes) -> Optional[int]:
    """The id of an answer line (sorted keys put ``id`` first unless the
    answer is an error)."""
    if line.startswith(b'{"id":'):
        return int(line[6:line.index(b",", 6)])
    try:
        return json.loads(line).get("id")
    except ValueError:
        return None


# -- phases ------------------------------------------------------------------------


@dataclass
class Phase:
    name: str
    rate: float
    requests: List[Request]

    def answered(self) -> List[Request]:
        return [r for r in self.requests if r.raw is not None]

    def latencies(self) -> List[float]:
        return [r.latency_ms for r in self.answered()]

    def lateness(self) -> List[float]:
        return [r.lateness_ms for r in self.requests]

    def behind(self) -> bool:
        return quantile(self.lateness(), 0.95) > BEHIND_MS

    def growing(self) -> bool:
        """Backlog grew: unanswered requests, or the last third much slower."""
        if len(self.answered()) < len(self.requests):
            return True
        third = len(self.requests) // 3
        first = median([r.latency_ms for r in self.requests[:third]])
        last = median([r.latency_ms for r in self.requests[-third:]])
        return last > max(2 * first, first + GROWTH_MS)

    def errors(self) -> int:
        return sum(1 for r in self.requests if not r.ok)

    def p95(self) -> float:
        values = self.latencies()
        return quantile(values, 0.95) if values else float("inf")

    def meets_limit(self) -> bool:
        return (not self.errors() and not self.behind() and not self.growing()
                and self.p95() <= P95_LIMIT_MS)


def phase_requests(rate: float, seconds: float, min_units: int) -> int:
    """Whole phase units covering SHARE of the run, and at least the floor."""
    units = max(min_units, math.ceil(SHARE * seconds * rate / PHASE_UNIT))
    return units * PHASE_UNIT


def _phase(client: Client, inputs: Inputs, name: str, rate: float, count: int) -> Phase:
    phase = Phase(name, rate, inputs.schedule(rate, count))
    client.play(phase.requests)
    time.sleep(0.2)
    return phase


def _session(port: int, inputs: Inputs, seconds: float, ladder: bool, fixed):
    client = Client(port)
    try:
        warm = inputs.warmup()  # pipelined and closed: all due at once
        client.play(warm)
        phases = [
            _phase(client, inputs, name, rate, phase_requests(rate, seconds, units))
            for name, rate, units in fixed
        ]
        if ladder:
            require_valid(phases)
        steps = _ladder(client, inputs, phases) if ladder else []
        stats = client.call({"op": "stats"})["result"]
    finally:
        client.close()
    return warm, phases, steps, stats


def require_valid(phases: List[Phase]) -> None:
    """Latencies are reported only from phases the generator kept up with
    and whose backlog did not grow."""
    for phase in phases:
        if phase.behind():
            raise BenchError(f"{phase.name}: generator fell behind "
                             f"(lateness p95 {quantile(phase.lateness(), 0.95):.1f} ms)")
        if phase.growing():
            raise BenchError(f"{phase.name}: backlog grew at a fixed rate of {phase.rate} rps")


def _ladder(client: Client, inputs: Inputs, phases: List[Phase]) -> List[Phase]:
    """Climb from two factors above ``hi`` until a step fails, then bisect."""
    steps: List[Phase] = []
    passed = max((p.rate for p in phases if p.meets_limit()), default=None)
    if passed is None:
        return steps
    failed = None
    rate = passed * LADDER_FACTOR
    for _ in range(LADDER_MAX_STEPS):
        rate *= LADDER_FACTOR
        step = _phase(client, inputs, f"ladder@{rate:.0f}", rate, STEP_REQUESTS)
        steps.append(step)
        if not step.meets_limit():
            failed = rate
            break
        passed = rate
    for _ in range(LADDER_BISECTIONS if failed else 0):
        rate = (passed * failed) ** 0.5
        step = _phase(client, inputs, f"ladder@{rate:.0f}", rate, STEP_REQUESTS)
        steps.append(step)
        if step.meets_limit():
            passed = rate
        else:
            failed = rate
    return steps


def max_rps(phases: List[Phase], steps: List[Phase]) -> float:
    """Achieved rate of the fastest step that met the limit: its answers
    per second, from its first due time to its last answer."""
    passing = [p for p in phases + steps if p.meets_limit()]
    if not passing:
        raise BenchError(f"no rate met the p95 limit of {P95_LIMIT_MS} ms")
    best = max(passing, key=lambda p: p.rate)
    span = max(r.done for r in best.requests) - best.requests[0].due
    return len(best.requests) / span


# -- correctness -------------------------------------------------------------------


def gate_requests(inputs: Inputs, requests: List[Request], gate: Gate,
                  identical: Dict[Tuple[str, str], str], overload: bool = False) -> None:
    """Check each answer: run snapshots against the reference, translate and
    coverage answers identical for the same unit, and no error responses.

    With ``overload`` (a ladder step past the limit, which probes where the
    server gives out) missing or error answers are the measurement, not
    failed ops; the answers that did come back are still checked.
    """
    for request in requests:
        response = request.response
        if overload and not request.ok:
            continue
        if response is None:
            gate.op(f"{request.cls} {request.key}: no answer in {DRAIN_TIMEOUT_S} s")
            continue
        if not response.get("ok"):
            gate.op(f"{request.cls} {request.key}: error {response.get('error')}")
            continue
        result = response["result"]
        if request.cls in ("stats", "ping"):
            gate.op(None)
            continue
        if request.body["op"] == "run":
            bench = request.body.get("benchmark")
            reference = inputs.reference(request.key, request.body.get("program"), bench)
            mismatch = snapshot_mismatch(reference, result["snapshot"])
            gate.op(None if mismatch is None else f"{request.key}: {mismatch}", wrong=True)
            continue
        digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
        first = identical.setdefault((request.body["op"], request.key), digest)
        gate.op(None if first == digest else
                f"{request.body['op']} {request.key}: answer changed", wrong=True)


def _spawn_setup(run_dir: RunDir) -> float:
    """One more set-up measurement: spawn a server to "listening", stop it."""
    server = Server(run_dir)
    code = server.stop()
    if code != 0:
        raise BenchError(f"server exited with {code}: {server.log_tail()}")
    return server.setup_s


def _serve_pass(run_dir: RunDir, inputs: Inputs, seconds: float, ladder: bool,
                traced_to: Optional[Path] = None, setups: int = 1, fixed=FIXED_PHASES):
    """Set up and drive the session.  With ``setups`` > 1 the extra set-ups
    are spread before and after the session, so their median samples the
    host's speed over the whole run, not over one moment of it."""
    before = (setups - 1) // 2
    times = [_spawn_setup(run_dir) for _ in range(before)]
    server = Server(run_dir, traced_to)
    times.append(server.setup_s)
    # The load generator must not pause to collect its own garbage while
    # it holds requests' timestamps; the server is untouched.
    gc.collect()
    gc.disable()
    try:
        warm, phases, steps, stats = _session(server.port, inputs, seconds, ladder, fixed)
    finally:
        gc.enable()
        code = server.stop()
    if code != 0:
        raise BenchError(f"server exited with {code}: {server.log_tail()}")
    times += [_spawn_setup(run_dir) for _ in range(setups - 1 - before)]
    return times, warm, phases, steps, stats


def _stamp_phase(phase: Phase) -> Dict[str, Any]:
    return {
        "rate": round(phase.rate, 2), "requests": len(phase.requests),
        "p95_ms": round(phase.p95(), 3), "meets_limit": phase.meets_limit(),
        "lateness_p99_ms": round(quantile(phase.lateness(), 0.99), 3),
    }


def run_serve_mix(args, run_dir: RunDir):
    gate = Gate()
    inputs = Inputs(args.seed)
    for bench in inputs.benches:  # references ahead of time (untimed)
        inputs.reference(f"bench:{bench}", bench=bench)
    identical: Dict[Tuple[str, str], str] = {}
    if args.trace:
        return _trace_serve_mix(args, run_dir, inputs, gate, identical)

    # No latency is reported here, so one fixed-rate phase (hi) serves.
    setups, warm, phases, _, _ = _serve_pass(
        run_dir, inputs, args.seconds, ladder=False, setups=SETUP_REPEATS,
        fixed=FIXED_PHASES[1:])
    requests = warm + [r for p in phases for r in p.requests]
    gate_requests(inputs, requests, gate, identical)
    coverage, host_per_guest, units = run_quality(requests)
    metrics = {
        "setup_s": (median(setups), "s"),
        "ok_ratio": (gate.ok_ratio(), "ratio"),
        "dyn_coverage": (coverage, "ratio"),
        "host_per_guest": (host_per_guest, "ratio"),
    }
    samples = {"setup_s": len(setups), "requests": len(requests),
               "dyn_coverage": units, "host_per_guest": units}
    log("phases (latencies are per-layer metrics of a traced run): "
        + json.dumps([_stamp_phase(p) for p in phases]))
    exact = {"answers": _answers(identical), "quality": [coverage, host_per_guest, units]}
    return gate, metrics, samples, exact, []


def run_quality(requests: List[Request]) -> Tuple[float, float, int]:
    """(dyn_coverage, host_per_guest, units) over the distinct units run:
    each unit's first answered ``run``, weighted by its guest instructions.
    """
    seen: Dict[str, Tuple[int, float, float]] = {}
    for request in requests:
        if request.body["op"] == "run" and request.ok and request.key not in seen:
            answer = request.response["result"]["metrics"]
            seen[request.key] = (
                answer["guest_dynamic"], answer["coverage"], answer["total_ratio"])
    guest = sum(count for count, _, _ in seen.values())
    if not guest:
        raise BenchError("no run answers to measure coverage on")
    covered = sum(count * coverage for count, coverage, _ in seen.values())
    host = sum(count * ratio for count, _, ratio in seen.values())
    return covered / guest, host / guest, len(seen)


def _answers(identical: Dict[Tuple[str, str], str]) -> Dict[str, str]:
    return {f"{op} {key}": digest for (op, key), digest in sorted(identical.items())}


def _trace_serve_mix(args, run_dir, inputs, gate, identical):
    """The same lo + hi schedule against a plain server, then a traced one;
    the plain pass goes on to the rate ladder for ``serve_max_rps``."""
    state = inputs.rng.getstate()
    _, warm, phases, steps, stats = _serve_pass(run_dir, inputs, args.seconds, ladder=True)
    inputs.rng.setstate(state)  # same classes and units; new cold programs
    spans_path = run_dir.fresh("spans") / "serve.json"
    _, warm_t, phases_t, _, _ = _serve_pass(
        run_dir, inputs, args.seconds, ladder=False, traced_to=spans_path)
    for group in [warm, warm_t] + [p.requests for p in phases + phases_t]:
        gate_requests(inputs, group, gate, identical)
    exact = {"answers": _answers(identical)}  # before the timing-dependent ladder
    for step in steps:
        gate_requests(inputs, step.requests, gate, identical, overload=not step.meets_limit())
    log("phases: " + json.dumps([_stamp_phase(p) for p in phases + steps]))
    tracer = Tracer()
    tracer.merge(json.loads(spans_path.read_text()))

    lo = phases[0]
    metrics: Dict[str, Tuple[float, str]] = {"serve_max_rps": (max_rps(phases, steps), "1/s")}
    for phase in phases:
        values = phase.latencies()
        require_samples(f"serve_{phase.name}_ms_p95", values, 0.95)
        metrics[f"serve_{phase.name}_ms_p50"] = (median(values), "ms")
        metrics[f"serve_{phase.name}_ms_p95"] = (quantile(values, 0.95), "ms")
    for cls in UNIT_CLASSES:
        values = [r.latency_ms for r in lo.requests if r.cls == cls and r.raw]
        name = f"serve.run_{cls}_ms_p50" if cls in ("small", "bench", "cold") else f"serve.{cls}_ms_p50"
        metrics[name] = (median(values), "ms")
    lateness = [x for p in phases for x in p.lateness()]
    metrics["serve.lateness_ms_p99"] = (quantile(lateness, 0.99), "ms")
    metrics["serve.late_share"] = (sum(x > LATE_MS for x in lateness) / len(lateness), "ratio")
    cache = stats["code_cache"]
    metrics["codecache.hit_ratio"] = (cache["hit_rate"], "ratio")
    metrics["codecache.coalesced"] = (cache["coalesced"], "count")
    metrics["codecache.evictions"] = (cache["evictions"], "count")
    metrics["server.backpressure"] = (stats["server"]["backpressure_rejections"], "count")
    metrics["server.timeouts"] = (stats["requests"]["errors_by_code"].get("timeout", 0), "count")

    handle = tracer.span("serve.handle")
    ensure = tracer.span("serve.ensure_wait")
    execute = tracer.span("serve.execute")
    context = tracer.span("serve.context")
    snapshot = tracer.span("snapshot")
    metrics["serve.handle_self_s"] = (
        handle["total_s"] - ensure["total_s"] - execute["total_s"]
        - context["total_s"] - snapshot["total_s"], "s")
    metrics["serve.ensure_wait_s"] = (ensure["total_s"], "s")
    metrics["serve.execute_s"] = (execute["total_s"], "s")
    metrics["serve.snapshot_s"] = (snapshot["total_s"], "s")
    metrics["serve.encode_s"] = (tracer.span("serve.encode")["total_s"], "s")
    metrics.update(dbt_layer_metrics(tracer, None))
    metrics.update(offline_layer_metrics(tracer))
    plain = sum(sum(p.latencies()) for p in phases)
    traced = sum(sum(p.latencies()) for p in phases_t)
    client_ms = traced + sum(r.latency_ms for r in warm_t if r.raw)
    metrics["spans.share"] = (handle["total_s"] * 1e3 / client_ms, "ratio")
    metrics["trace_overhead_ratio"] = (traced / plain, "ratio")
    metrics["failed_ratio"] = (1 - gate.ok_ratio(), "ratio")
    samples = {"lo": len(lo.requests), "hi": len(phases[1].requests),
               "per_class_lo": {c: sum(r.cls == c for r in lo.requests) for c in CLASSES},
               "serve_max_rps_steps": len(steps)}
    return gate, metrics, samples, exact, tracer.rows()

"""Span tracing from outside the program: wrap public functions per layer.

A :class:`Tracer` replaces named functions and methods of ``repro``
modules with timing wrappers, and restores them on :meth:`uninstall`.
Each name is patched where its caller looks it up (``compile_block`` in
both ``repro.dbt.engine`` and ``repro.service.server``, which import it by
name), so no call escapes.

Sync spans keep a per-thread stack: a span's *self* time is its duration
minus the durations of the spans it directly encloses on the same thread.
Async spans (coroutines on the server's event loop) interleave, so they
record wall time only, which includes waiting (``kind = wait``).

Spans are aggregated in memory — count, total, self, failures — and
written out once, at the end (:meth:`dump`).  Aggregating instead of
keeping every span keeps the traced run's memory flat: a translate-heavy
run makes hundreds of thousands of rule-index probes.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def _translated(tracer, args, tb) -> None:
    tracer.add("translate.guest", tb.guest_count)
    tracer.add("translate.covered", tb.covered_count)


def _probed(tracer, args, rule) -> None:
    if rule is not None:
        tracer.add("lookup.hits", 1)


def _generated(tracer, args, source) -> None:
    tracer.add("compile.source_bytes", len(source.text))


def _formed(tracer, args, result) -> None:
    if result[0] is not None:
        tracer.add("trace.formed", 1)


def _extracted(tracer, args, result) -> None:
    tracer.add("learn.candidates", result.candidate_count)


def _checked(tracer, args, result) -> None:
    if result.equivalent:
        tracer.add("verify.accepted", 1)


def _derived(tracer, args, result) -> None:
    tracer.add("param.derived_unique", result.counts.derived_unique)
    tracer.add("param.instantiated_rules", result.counts.instantiated_rules)


def _gated(tracer, args, report) -> None:
    tracer.add("pipeline.verify_gate_programs", report["checked"])


def _response_failed(response) -> bool:
    return not response.get("ok")


#: span name -> (targets "module:attr[.attr]", result observer).  Every
#: target of one span is the same function under another importer's name.
SYNC_SPANS: Dict[str, Tuple[Tuple[str, ...], Optional[Callable]]] = {
    "translate": (("repro.dbt.translator:BlockTranslator.translate",), _translated),
    "lookup": (("repro.learning.ruleset:RuleSet.lookup_canonical",), _probed),
    "compile": (
        ("repro.dbt.engine:compile_block", "repro.service.server:compile_block"),
        None,
    ),
    "compile.codegen": (
        (
            "repro.dbt.compiler:generate_block_source",
            "repro.service.server:generate_block_source",
        ),
        _generated,
    ),
    "compile.pycompile": (
        (
            "repro.dbt.compiler:compile_block_source",
            "repro.service.server:compile_block_source",
        ),
        None,
    ),
    "engine": (("repro.dbt.engine:DBTEngine.run",), None),
    "trace.form": (("repro.dbt.engine:form_trace",), _formed),
    "snapshot": (("repro.dbt.engine:DBTRunResult.architectural_snapshot",), None),
    "learn.extract": (("repro.learning.learn:extract",), _extracted),
    "verify.check": (
        (
            "repro.learning.learn:check_equivalence",
            "repro.param.derive:check_equivalence",
            "repro.param.seqderive:check_equivalence",
        ),
        _checked,
    ),
    "param.derive": (
        ("repro.param.derive:derive_rules", "repro.param.engine:derive_rules"),
        _derived,
    ),
    "param.seqderive": (
        (
            "repro.param.seqderive:derive_sequence_rules",
            "repro.param.engine:derive_sequence_rules",
        ),
        None,
    ),
    "pipeline.verify_gate": (
        ("repro.verify.acceptance:verify_serving_configs",),
        _gated,
    ),
    "pipeline.publish": (("repro.pipeline.store:RulesetStore.publish",), None),
    "serve.context": (("repro.service.server:TranslationService._build_context",), None),
    "serve.execute": (("repro.service.server:TranslationService._execute",), None),
    "serve.encode": (("repro.service.protocol:encode",), None),
}

#: async span name -> (target, failure predicate on the result or None).
ASYNC_SPANS: Dict[str, Tuple[str, Optional[Callable]]] = {
    "serve.handle": (
        "repro.service.server:TranslationService.handle_request",
        _response_failed,
    ),
    "serve.ensure_wait": (
        "repro.service.codecache:SingleFlightCodeCache.get_or_compile",
        None,
    ),
}

#: the spans each layer group installs.
DBT_SPANS = (
    "translate", "lookup", "compile", "compile.codegen", "compile.pycompile",
    "engine", "trace.form",
)
OFFLINE_SPANS = (
    "learn.extract", "verify.check", "param.derive", "param.seqderive",
)
PIPELINE_SPANS = OFFLINE_SPANS + ("pipeline.verify_gate", "pipeline.publish")
#: the snapshot is the server's work only: the engine's own runs never take
#: one, and exec-warm's snapshots are the benchmark's correctness gate.
SERVE_SPANS = DBT_SPANS + ("snapshot", "serve.context", "serve.execute", "serve.encode")


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """In-memory span aggregates plus named counters."""

    def __init__(self) -> None:
        #: span -> [count, total_s, self_s, failures]
        self.spans: Dict[str, List[float]] = {}
        self.kinds: Dict[str, str] = {}
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _record(self, name: str, duration: float, own: float, failed: bool) -> None:
        with self._lock:
            row = self.spans.get(name)
            if row is None:
                row = self.spans[name] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += duration
            row[2] += own
            row[3] += failed

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- patching ----------------------------------------------------------------

    def _patch(self, target: str, make: Callable[[Any], Any]) -> None:
        owner, attr = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def _sync_wrapper(self, name: str, observe: Optional[Callable]):
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                stack = tracer._stack()
                stack.append(0.0)
                failed = True
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                    failed = False
                finally:
                    duration = perf_counter() - start
                    enclosed = stack.pop()
                    if stack:
                        stack[-1] += duration
                    tracer._record(name, duration, duration - enclosed, failed)
                if observe is not None:
                    observe(tracer, args, result)
                return result

            return traced

        return make

    def _async_wrapper(self, name: str, failed_if: Optional[Callable]):
        tracer = self

        def make(original):
            async def traced(*args, **kwargs):
                failed = True
                start = perf_counter()
                try:
                    result = await original(*args, **kwargs)
                    failed = bool(failed_if(result)) if failed_if else False
                    return result
                finally:
                    duration = perf_counter() - start
                    tracer._record(name, duration, duration, failed)

            return traced

        return make

    def install(self, sync: Sequence[str], asynchronous: Sequence[str] = ()) -> None:
        for name in sync:
            targets, observe = SYNC_SPANS[name]
            self.kinds[name] = "busy"
            for target in targets:
                self._patch(target, self._sync_wrapper(name, observe))
        for name in asynchronous:
            target, failed_if = ASYNC_SPANS[name]
            self.kinds[name] = "wait"
            self._patch(target, self._async_wrapper(name, failed_if))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def span(self, name: str) -> Dict[str, float]:
        count, total, own, failures = self.spans.get(name, (0, 0.0, 0.0, 0))
        return {"count": count, "total_s": total, "self_s": own, "failures": failures}

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)

    def to_dict(self) -> Dict[str, Any]:
        return {"spans": self.spans, "kinds": self.kinds, "counts": self.counts}

    def merge(self, data: Dict[str, Any]) -> None:
        for name, row in data["spans"].items():
            mine = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(row):
                mine[i] += value
        self.kinds.update(data["kinds"])
        for name, value in data["counts"].items():
            self.add(name, value)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)

    def rows(self) -> List[List[str]]:
        """Report rows: span, kind, count, total, self, failures."""
        rows = [["span", "kind", "count", "total_s", "self_s", "failures"]]
        for name in sorted(self.spans):
            count, total, own, failures = self.spans[name]
            rows.append([
                name, self.kinds.get(name, "busy"), str(int(count)),
                f"{total:.4f}", f"{own:.4f}", str(int(failures)),
            ])
        return rows

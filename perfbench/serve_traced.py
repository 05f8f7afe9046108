"""Launch ``repro serve`` (port 0, default settings) with span wrappers.

    python3 perfbench/serve_traced.py SPANS_JSON

Installs the serve-layer wrappers of :mod:`tracer`, and the learn /
verify / param ones (the server learns and derives its rules at start), runs
:func:`repro.service.server.serve` until SIGTERM drains it, then writes
the span aggregates to SPANS_JSON.  ``PYTHONPATH`` must reach ``src``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import OFFLINE_SPANS, SERVE_SPANS, Tracer  # noqa: E402


def main() -> int:
    from repro.service.server import ServiceConfig, serve

    tracer = Tracer()
    tracer.install(SERVE_SPANS + OFFLINE_SPANS, ("serve.handle", "serve.ensure_wait"))
    try:
        return serve(ServiceConfig(port=0))
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())

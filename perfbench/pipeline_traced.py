"""Run ``repro pipeline ...`` with the offline-layer span wrappers.

    python3 perfbench/pipeline_traced.py SPANS_JSON pipeline run [ARGS...]

Installs the learn / verify / param / pipeline wrappers of :mod:`tracer`,
and the translate / compile / engine ones (the verify gate runs programs),
calls :func:`repro.cli.main` with the remaining arguments, then writes the
span aggregates to SPANS_JSON.  ``PYTHONPATH`` must reach ``src``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import DBT_SPANS, PIPELINE_SPANS, Tracer  # noqa: E402


def main() -> int:
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install(PIPELINE_SPANS + DBT_SPANS)
    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())

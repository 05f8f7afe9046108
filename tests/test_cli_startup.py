"""Import layering of the ``repro`` command line.

Commands that only print help, list experiments or read the pipeline's
state must start without loading the learner, verifier or DBT.  Each light
command runs in a fresh interpreter that reports its ``sys.modules`` after
``main`` returns; none of the heavy packages may be there.  The shared
names those commands print come from :mod:`repro.names`, and the layers
that own them re-export the very same objects.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

HEAVY_PACKAGES = (
    "learning",
    "param",
    "verify",
    "symir",
    "dbt",
    "isa",
    "lang",
    "difftest",
    "service",
    "workloads",
    "experiments",
)

_PROBE = """
import json, sys
from repro.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stderr.write("\\nMODULES " + json.dumps(sorted(sys.modules)) + "\\n")
sys.exit(code or 0)
"""


def _run_cli(argv, cache_dir: Path):
    """Run ``repro <argv>`` in a fresh interpreter; (stdout, module names)."""
    env = dict(
        os.environ,
        REPRO_CACHE_DIR=str(cache_dir),
        PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    marker = proc.stderr.rindex("MODULES ")
    modules = json.loads(proc.stderr[marker + len("MODULES "):])
    return proc.stdout, modules


def _heavy(modules):
    return sorted(
        name
        for name in modules
        if name.startswith("repro.") and name.split(".")[1] in HEAVY_PACKAGES
    )


@pytest.fixture(scope="module")
def published_workdir(tmp_path_factory):
    """A pipeline workdir holding a last-run report and a published store."""
    from repro.pipeline import Pipeline, PipelineConfig

    workdir = tmp_path_factory.mktemp("startup") / "work"
    report = Pipeline(
        PipelineConfig(workdir=str(workdir), benchmarks=("mcf",), verify_programs=0)
    ).run()
    assert report["ok"]
    return workdir


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["list"],
        ["pipeline", "--help"],
        ["pipeline", "status", "--workdir", "{empty}"],
        ["pipeline", "status", "--workdir", "{empty}", "--json"],
        ["pipeline", "invalidate", "--workdir", "{empty}"],
        ["pipeline", "status", "--workdir", "{published}"],
        ["pipeline", "status", "--workdir", "{published}", "--json"],
        ["pipeline", "invalidate", "--workdir", "{published}", "--stage", "verify"],
    ],
    ids=lambda argv: " ".join(argv).replace("{", "").replace("}", ""),
)
def test_light_commands_import_no_heavy_layer(argv, tmp_path, request):
    paths = {"{empty}": str(tmp_path / "empty")}
    if "{published}" in argv:
        paths["{published}"] = str(request.getfixturevalue("published_workdir"))
    argv = [paths.get(arg, arg) for arg in argv]
    stdout, modules = _run_cli(argv, tmp_path / "cache")
    assert stdout
    assert _heavy(modules) == []


def test_published_status_reads_the_store(published_workdir, tmp_path):
    stdout, _ = _run_cli(
        ["pipeline", "status", "--workdir", str(published_workdir), "--json"],
        tmp_path / "cache",
    )
    status = json.loads(stdout)
    assert status["latest"].startswith("v000000-")
    assert status["store"]["versions"] == 1


def _choices(parser, command, option):
    sub = next(
        action for action in parser._actions
        if isinstance(action.choices, dict) and command in action.choices
    )
    subparser = sub.choices[command]
    return next(
        action.choices for action in subparser._actions
        if option in action.option_strings
    )


def test_parser_choices_are_the_layers_own_objects():
    from repro.dbt import BACKENDS
    from repro.difftest.oracle import FAULTS, TRAINING_BENCHMARKS
    from repro.param import STAGES
    from repro import names

    parser = build_parser()
    for command in ("translate", "difftest", "serve", "loadgen", "distill"):
        assert _choices(parser, command, "--stage") is STAGES
    for command in ("translate", "difftest", "distill"):
        assert _choices(parser, command, "--backend") is BACKENDS
    assert _choices(parser, "difftest", "--fault") is FAULTS
    for command in ("serve", "pipeline", "distill"):
        assert _choices(parser, command, "--training") is names.TRAINING_SETS
    assert STAGES is names.STAGES
    assert BACKENDS is names.BACKENDS
    assert FAULTS is names.FAULTS
    assert TRAINING_BENCHMARKS is names.TRAINING_BENCHMARKS


def test_experiment_table_follows_names():
    from repro.experiments import EXPERIMENTS
    from repro.names import EXPERIMENT_MODULES

    assert list(EXPERIMENTS) == list(EXPERIMENT_MODULES)
    for ident, runner in EXPERIMENTS.items():
        assert runner.__module__ == f"repro.experiments.{EXPERIMENT_MODULES[ident]}"


def test_cache_stats_lists_the_named_memos(tmp_path):
    stdout, _ = _run_cli(["cache", "stats", "--json"], tmp_path / "cache")
    payload = json.loads(stdout)
    assert [memo["name"] for memo in payload["memos"]] == [
        "symir.simplify",
        "verify.shape_class",
        "symir.row_eval",
        "verify.exprs_equal",
        "verify.boundary_rows",
        "verify.guest_run",
        "verify.host_probe",
        "verify.host_run",
    ]

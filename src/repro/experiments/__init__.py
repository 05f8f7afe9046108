"""Experiment harnesses — one module per paper table/figure."""

from importlib import import_module

from repro.experiments.charts import render_chart, render_series
from repro.experiments.report import ExperimentResult, format_table
from repro.names import EXPERIMENT_MODULES

EXPERIMENTS = {
    ident: import_module(f"{__name__}.{module}").run
    for ident, module in EXPERIMENT_MODULES.items()
}

__all__ = ["EXPERIMENTS", "ExperimentResult", "format_table", "render_chart", "render_series"]

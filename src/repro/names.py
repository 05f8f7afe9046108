"""Names shared by the command line and the layers behind it.

This module imports nothing.  ``repro --help``, ``repro list`` and
``repro pipeline status|invalidate`` read their argparse ``choices`` and
listings from here, so they start without loading the learner, verifier
or DBT.  The layers that own these names re-export the same objects
(``repro.param.STAGES``, ``repro.dbt.BACKENDS``,
``repro.difftest.oracle.FAULTS``/``TRAINING_BENCHMARKS``), so each list
exists exactly once.
"""

#: Translator configurations, in the order the paper's figures use.
STAGES = ("qemu", "wopara", "opcode", "addrmode", "condition", "seqparam", "manual")

#: DBT execution backends; ``interp`` is the reference oracle.
BACKENDS = ("interp", "jit", "trace")

#: Translator faults the differential fuzzer can plant (oracle self-check).
FAULTS = ("swap-operands", "flag-lie")

#: Rule-training corpora: ``quick`` learns from :data:`TRAINING_BENCHMARKS`,
#: ``full`` from the whole workload suite.
TRAINING_SETS = ("quick", "full")

#: The benchmarks the ``quick`` corpus (and the fuzzer's rule set) learns
#: from.  Deliberately small, the paper's premise: most of the difftest
#: bucket universe is reachable only through parameterized derived rules.
TRAINING_BENCHMARKS = ("mcf", "libquantum")

#: Experiment id → module under :mod:`repro.experiments`, in run order.
EXPERIMENT_MODULES = {
    "fig02": "fig02_rule_growth",
    "table1": "table1_learning_stats",
    "fig11": "fig11_speedup",
    "fig12": "fig12_coverage",
    "fig13": "fig13_ratio",
    "table2": "table2_host_insns",
    "fig14": "fig14_coverage_factors",
    "fig15": "fig15_perf_factors",
    "fig16": "fig16_training_size",
    "table3": "table3_rule_counts",
}

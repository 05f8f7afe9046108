"""Self-test of the correctness gate: a planted wrong rule must be caught.

    python3 perfbench/run.py --self-test

Runs the exec-warm programs of seed 0 plus seeded generated programs
twice through the gate the workloads use: once under the clean
``condition`` config, once under a :func:`repro.difftest.config_with_fault`
copy of it whose derived rule swaps two source operands.  Exits 0 only if
the clean config fails no op and the faulty one fails at least one.
"""

from __future__ import annotations

from common import Gate, RunDir, log, reference_snapshot
from dbt_workloads import Program, check_run, exec_programs, training_config

GENERATED = 40


def _programs():
    from repro.difftest import ProgramGenerator
    from repro.difftest.oracle import assemble_program

    programs = exec_programs(0)
    generator = ProgramGenerator(0)
    for index in range(GENERATED):
        unit = assemble_program(list(generator.generate(index).lines))
        programs.append(Program(f"gen{index}", unit, reference_snapshot(unit)))
    return programs


def _gate(config, programs) -> Gate:
    from repro.dbt import DBTEngine

    gate = Gate()
    for program in programs:
        try:
            result = DBTEngine(program.unit, config, backend="jit", chaining=True).run()
        except Exception as exc:
            gate.op(f"{program.name}: {type(exc).__name__}: {exc}")
            continue
        check_run(gate, program, result)
    return gate


def run_self_test(run_dir: RunDir) -> int:
    from repro.difftest import config_with_fault

    programs = _programs()
    config = training_config()
    clean = _gate(config, programs)
    faulty = _gate(config_with_fault(config, "swap-operands"), programs)
    log(f"clean config: {clean.failed}/{clean.attempted} ops failed")
    log(f"planted swap-operands: {faulty.failed}/{faulty.attempted} ops failed"
        f" ({faulty.wrong} wrong outputs); first: {faulty.reasons[:1]}")
    ok = clean.failed == 0 and faulty.wrong > 0
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1

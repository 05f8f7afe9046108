"""Deterministic replay of the difftest regression corpus.

Every entry in ``tests/corpus/`` is a shrunk (or hand-written) guest program
with an expected differential verdict; replaying them makes each fuzz-found
bug a permanent tier-1 regression test.  Entries are JSON so a failing
fuzz run can append to the corpus without touching test code.
"""

import os

import pytest

from repro.difftest.corpus import load_corpus
from repro.difftest.oracle import run_oracle, stage_config

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

CORPUS = load_corpus(CORPUS_DIR)


def test_corpus_is_seeded():
    # The issue requires >= 10 hand-written reproducers; keep the floor.
    assert len(CORPUS) >= 10


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_replay(entry):
    outcome = run_oracle(entry.lines, stage_config(entry.stage))
    if entry.expect == "pass":
        assert outcome.divergence is None, (
            f"{entry.name}: unexpected divergence {outcome.divergence}\n"
            f"  {entry.description}"
        )
    else:
        assert outcome.divergence is not None, (
            f"{entry.name}: expected a divergence but reference and DBT agree"
        )


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_roundtrip(entry, tmp_path):
    # Corpus files are canonical JSON: saving an entry again reproduces the
    # original file byte for byte (needed for determinism guarantees).
    from repro.difftest.corpus import save_reproducer

    path = save_reproducer(entry, str(tmp_path))
    with open(path) as handle:
        rewritten = handle.read()
    with open(os.path.join(CORPUS_DIR, f"{entry.name}.json")) as handle:
        original = handle.read()
    assert rewritten == original


def test_snapshot_memory_matches_brute_force_filter():
    # The snapshot drops environment slots by a precomputed word range; it
    # must equal, key order included, a per-word filter by address, also
    # with words planted on both edges of the environment.
    import json

    from repro.dbt.engine import DBTEngine
    from repro.dbt.runtime import ENV_WORDS, is_env_address
    from repro.difftest.oracle import assemble_program
    from repro.errors import ExecutionError

    env_lo, env_hi = ENV_WORDS
    checked = 0
    for entry in CORPUS:
        unit = assemble_program(entry.lines)
        try:
            result = DBTEngine(unit, stage_config(entry.stage), backend="jit").run()
        except ExecutionError:
            continue
        memory = result.state.memory
        for word in (env_lo - 1, env_lo, env_hi - 1, env_hi):
            memory.setdefault(word, 0x5A5A)
        expected = {
            word: value
            for word, value in memory.items()
            if value and not is_env_address(word * 4)
        }
        snapshot = result.architectural_snapshot()["memory"]
        assert json.dumps(snapshot) == json.dumps(expected), entry.name
        assert env_lo - 1 in snapshot and env_hi in snapshot
        assert any(env_lo <= word < env_hi for word in memory)
        checked += 1
    assert checked >= 10

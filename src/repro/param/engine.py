"""Parameterization orchestration: rule sets and DBT configurations.

Builds the five system configurations the evaluation compares (QEMU, the
learning baseline, and the three cumulative parameterization stages of
figs. 14/15), from one learned rule set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cache import MISS, BoundedMemo
from repro.dbt.translator import TranslationConfig
from repro.learning.ruleset import RuleSet
from repro.learning.store import ruleset_fingerprint
from repro.names import STAGES  # re-exported: the configuration keys
from repro.param.derive import ParamCounts, ParamResult, derive_rules
from repro.param.seqderive import derive_sequence_rules


@dataclass
class SystemSetup:
    """Everything the experiments need for one learned rule set."""

    learned: RuleSet
    param: ParamResult
    configs: Dict[str, TranslationConfig]


#: Setups are memoized by rule-set content, so e.g. the same training subset
#: drawn twice in a sweep (or in two stages of one experiment) derives once.
#: Returned SystemSetups are shared, so every RuleSet inside one is frozen:
#: a caller mutating a returned setup gets a loud error instead of silently
#: poisoning every later cache hit (use ``.copy()`` for a mutable set).
_SETUP_MEMO = BoundedMemo(maxsize=64)


def build_setup(learned: RuleSet) -> SystemSetup:
    """Derive rules and assemble one TranslationConfig per stage."""
    fingerprint = ruleset_fingerprint(learned)
    memoized = _SETUP_MEMO.get(fingerprint)
    if memoized is not MISS:
        return memoized
    setup = _build_setup_uncached(learned)
    _SETUP_MEMO.put(fingerprint, setup)
    return setup


def _build_setup_uncached(learned: RuleSet) -> SystemSetup:
    # Snapshot the caller's set: the memoized setup must not alias an object
    # the caller can keep mutating (same content ⇒ same derivation output).
    learned = learned.copy()
    param = derive_rules(learned, include_addrmode=True)

    opcode_rules = learned.copy()
    opcode_rules.extend(param.derived.by_origin("opcode-param"))

    all_rules = learned.copy()
    all_rules.extend(param.derived.rules)

    seq_rules = all_rules.copy()
    seq_rules.extend(derive_sequence_rules(learned).rules)

    configs = {
        "qemu": TranslationConfig("qemu", rules=None),
        "wopara": TranslationConfig("w/o para.", rules=learned),
        "opcode": TranslationConfig("opcode", rules=opcode_rules),
        "addrmode": TranslationConfig(
            "addr mode", rules=all_rules, pc_constraint=True
        ),
        "condition": TranslationConfig(
            "condition", rules=all_rules, condition=True, pc_constraint=True
        ),
        # Extension (the paper's future work, §V-D): sequence-rule
        # parameterization on top of the full system.
        "seqparam": TranslationConfig(
            "seq param",
            rules=seq_rules,
            condition=True,
            pc_constraint=True,
        ),
        # Extension (§V-B2's closing note): manual rules for the seven
        # unlearnable instructions on top of the full parameterized system.
        "manual": TranslationConfig(
            "manual",
            rules=all_rules,
            condition=True,
            pc_constraint=True,
            manual_other=True,
        ),
    }
    for ruleset in (learned, param.derived, opcode_rules, all_rules, seq_rules):
        ruleset.freeze()
    return SystemSetup(learned=learned, param=param, configs=configs)

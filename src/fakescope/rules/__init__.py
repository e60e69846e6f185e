"""Rule-based detectors: scoring algorithm, blogger signals, fakeness checks."""

from .catalog import (
    ALL_RULE_IDS,
    CC,
    MEANS_FAKE,
    MEANS_HUMAN,
    SB,
    SOS,
    RuleId,
    RuleOutcome,
    describe,
    evaluate_rule,
    rule_ids,
)
from .context import (
    DEFAULT_SPAM_PHRASES,
    DUPLICATE_PICTURE_MIN,
    AccountContext,
    capped_ratio,
    iter_contexts,
)
from .report import RuleEvaluation, RulesetRun, rule_report, run_ruleset
from .scoring import (
    MAX_HUMAN_POINTS,
    VERDICT_BOT,
    VERDICT_HUMAN,
    VERDICT_NEUTRAL,
    CcScore,
    api_only,
    cc_classify,
)

__all__ = [
    "ALL_RULE_IDS",
    "AccountContext",
    "CC",
    "CcScore",
    "DEFAULT_SPAM_PHRASES",
    "DUPLICATE_PICTURE_MIN",
    "MAX_HUMAN_POINTS",
    "MEANS_FAKE",
    "MEANS_HUMAN",
    "RuleEvaluation",
    "RuleId",
    "RuleOutcome",
    "RulesetRun",
    "SB",
    "SOS",
    "VERDICT_BOT",
    "VERDICT_HUMAN",
    "VERDICT_NEUTRAL",
    "api_only",
    "capped_ratio",
    "cc_classify",
    "describe",
    "evaluate_rule",
    "iter_contexts",
    "rule_ids",
    "rule_report",
    "run_ruleset",
]

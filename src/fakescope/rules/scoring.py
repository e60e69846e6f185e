"""Aggregation of the 22 scoring rules into a human/neutral/bot verdict.

Each satisfied rule is worth one human point, except the retweeted-tweet
rule (2 points) and the multiple-clients rule (3 points). Each failed rule
costs one bot point except rules 8 and 13-17, which cost nothing, and the
retweeted-tweet rule, which costs two. An account that tweets exclusively
through non-web clients takes two extra bot points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import CC, evaluate_rule, rule_ids
from .context import AccountContext

HUMAN_POINTS = {21: 2, 22: 3}
FAIL_BOT_POINTS = {21: 2}
NO_BOT_POINT_ON_FAIL = frozenset({8, 13, 14, 15, 16, 17})

VERDICT_HUMAN = "human"
VERDICT_NEUTRAL = "neutral"
VERDICT_BOT = "bot"

MAX_HUMAN_POINTS = sum(HUMAN_POINTS.get(i, 1) for i in range(1, 23))


@dataclass(frozen=True)
class CcScore:
    human_points: int
    bot_points: int

    @property
    def score(self) -> int:
        return self.human_points - self.bot_points

    @property
    def verdict(self) -> str:
        if self.score > 0:
            return VERDICT_HUMAN
        if self.score >= -4:
            return VERDICT_NEUTRAL
        return VERDICT_BOT


def api_only(ctx: AccountContext) -> bool:
    """True when the account tweeted and never through the website."""
    if not ctx.tweets:
        return False
    counts = ctx.timeline_counts
    return counts.api == counts.tweets


def cc_classify(ctx: AccountContext) -> CcScore:
    human = 0
    bot = 0
    for rule in rule_ids(CC):
        outcome = evaluate_rule(rule, ctx)
        if outcome.satisfied:
            human += HUMAN_POINTS.get(rule.index, 1)
        elif rule.index not in NO_BOT_POINT_ON_FAIL:
            bot += FAIL_BOT_POINTS.get(rule.index, 1)
    if api_only(ctx):
        bot += 2
    return CcScore(human_points=human, bot_points=bot)

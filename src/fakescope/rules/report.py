"""Dataset-level rule runs and the single-rule-as-classifier report."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..corpus.model import FAKE, HUMAN, LabeledDataset
from ..metrics import ConfusionMatrix, MetricError, info_gain, pearson, summarize
from .catalog import ALL_RULE_IDS, CC, MEANS_HUMAN, RuleId, describe, evaluate_rule, rule_ids
from .context import AccountContext, iter_contexts
from .scoring import CcScore, cc_classify

RULESETS = ("CC", "SOS", "SB")


@dataclass
class RulesetRun:
    ruleset: str
    verdicts: dict[str, str]  # only for the scoring ruleset
    outcomes: dict[str, dict[int, bool]]
    scores: dict[str, CcScore]

    def as_rows(self) -> list[dict[str, object]]:
        rows: list[dict[str, object]] = []
        if self.ruleset == CC:
            for uid in sorted(self.verdicts):
                score = self.scores[uid]
                rows.append(
                    {
                        "account": uid,
                        "human_points": score.human_points,
                        "bot_points": score.bot_points,
                        "score": score.score,
                        "verdict": score.verdict,
                    }
                )
        else:
            for uid in sorted(self.outcomes):
                row: dict[str, object] = {"account": uid}
                for index, value in sorted(self.outcomes[uid].items()):
                    row[f"rule_{index}"] = int(value)
                rows.append(row)
        return rows


def run_ruleset(
    ruleset: str,
    dataset: LabeledDataset,
    *,
    contexts: Optional[Sequence[AccountContext]] = None,
) -> RulesetRun:
    """One verdict (scoring rules) or per-rule booleans per account.

    ``contexts``, a list of the dataset's contexts from ``iter_contexts``,
    lets several runs and reports over one dataset share each account's
    timeline aggregates and rule outcomes.
    """
    ruleset = ruleset.upper()
    if ruleset not in RULESETS:
        raise ValueError(f"unknown ruleset {ruleset!r}")
    verdicts: dict[str, str] = {}
    outcomes: dict[str, dict[int, bool]] = {}
    scores: dict[str, CcScore] = {}
    if contexts is None:
        contexts = iter_contexts(dataset)
    for ctx in contexts:
        uid = ctx.account.user_id
        if ruleset == CC:
            score = cc_classify(ctx)
            scores[uid] = score
            verdicts[uid] = score.verdict
        else:
            outcomes[uid] = {
                rule.index: evaluate_rule(rule, ctx).satisfied for rule in rule_ids(ruleset)
            }
    return RulesetRun(ruleset=ruleset, verdicts=verdicts, outcomes=outcomes, scores=scores)


@dataclass(frozen=True)
class RuleEvaluation:
    rule: RuleId
    description: str
    accuracy: float
    precision: float
    recall: float
    f_measure: float
    mcc: float
    i_gain: float
    i_gain_star: float
    pcc: float
    pcc_star: float

    def as_row(self) -> dict[str, object]:
        return {
            "rule_id": str(self.rule),
            "description": self.description,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
            "mcc": self.mcc,
            "i_gain": self.i_gain,
            "i_gain_star": self.i_gain_star,
            "pcc": self.pcc,
            "pcc_star": self.pcc_star,
        }


def rule_report(
    dataset: LabeledDataset,
    rules: Optional[tuple[RuleId, ...]] = None,
    *,
    contexts: Optional[Sequence[AccountContext]] = None,
) -> list[RuleEvaluation]:
    """Evaluate every rule as a one-rule classifier over a labeled dataset.

    Satisfied-means-human rules predict fake on failure and vice versa. The
    starred measures use the rule's underlying attribute where one exists,
    falling back to the 0/1 outcome for purely boolean rules. ``contexts``
    is as for ``run_ruleset``.
    """
    rules = rules or ALL_RULE_IDS
    labeled = [a for a in dataset.accounts.values() if a.label in (HUMAN, FAKE)]
    n_fake = sum(1 for a in labeled if a.label == FAKE)
    if n_fake == 0 or n_fake == len(labeled):
        raise MetricError("rule_report needs both classes present")
    if contexts is None:
        contexts = iter_contexts(dataset)
    contexts = [ctx for ctx in contexts if ctx.account.label in (HUMAN, FAKE)]
    y = np.array([ctx.account.label == FAKE for ctx in contexts], dtype=np.float64)

    report: list[RuleEvaluation] = []
    for rule in rules:
        outcomes = [evaluate_rule(rule, ctx) for ctx in contexts]
        outputs = np.array([o.satisfied for o in outcomes], dtype=np.float64)
        predicted = 1.0 - outputs if rule.direction == MEANS_HUMAN else outputs
        cm = ConfusionMatrix.from_predictions(y, predicted)
        base = summarize(cm)
        attributes = np.array(
            [
                o.attribute_value if o.attribute_value is not None else float(o.satisfied)
                for o in outcomes
            ],
            dtype=np.float64,
        )
        has_attribute = any(o.attribute_value is not None for o in outcomes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant rules are reported, not suppressed
            i_gain = info_gain(outputs, y, discrete=True)
            i_gain_star = info_gain(attributes, y, discrete=not has_attribute)
            pcc = abs(pearson(outputs, y))
            pcc_star = abs(pearson(attributes, y))
        report.append(
            RuleEvaluation(
                rule=rule,
                description=describe(rule),
                accuracy=base.accuracy,
                precision=base.precision,
                recall=base.recall,
                f_measure=base.f_measure,
                mcc=base.mcc,
                i_gain=i_gain,
                i_gain_star=i_gain_star,
                pcc=pcc,
                pcc_star=pcc_star,
            )
        )
    return report

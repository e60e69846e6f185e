"""Numeric feature extraction over a corpus.

All ratios are kept finite: x/0 is 0 for a zero numerator and a large cap
otherwise. Boolean features are encoded 0/1. Rows are ordered by account id
and each account's values depend on that account's context alone, so
extraction is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from ..corpus.errors import InsufficientDataError
from ..corpus.model import Account, LabeledDataset, RelationshipGraph, Tweet
from ..manifest import write_csv
from ..metrics import MetricError
from ..rules.catalog import RuleId, account_age_days, evaluate_rule
from ..rules.context import AccountContext, capped_ratio, fraction, iter_contexts
from .catalog import CLASS_A, CLASS_B, CLASS_C, FeatureSpec, by_name

SIMILARITY_WINDOW = 15
SIMILARITY_RUN = 4


def _word_runs(text: str, run_length: int) -> set[tuple[str, ...]]:
    words = text.lower().split()
    return {tuple(words[i : i + run_length]) for i in range(len(words) - run_length + 1)}


def message_similarity(
    tweets: Sequence[Tweet],
    window: int = SIMILARITY_WINDOW,
    run_length: int = SIMILARITY_RUN,
) -> bool:
    """True when two of the newest `window` tweets share `run_length`
    consecutive words (case-insensitive, whitespace tokens)."""
    seen: set[tuple[str, ...]] = set()  # the runs of every newer tweet
    for tweet in tweets[:window]:
        runs = _word_runs(tweet.text, run_length)
        if not seen.isdisjoint(runs):
            return True
        seen |= runs
    return False


def api_tweet_similarity(
    tweets: Sequence[Tweet],
    window: int = SIMILARITY_WINDOW,
    run_length: int = SIMILARITY_RUN,
) -> bool:
    """Message similarity restricted to tweets posted from non-web sources."""
    return message_similarity(
        [t for t in tweets if t.from_api], window=window, run_length=run_length
    )


def bidirectional_link_ratio(account: Account, graph: RelationshipGraph) -> float:
    friends = graph.friends_of(account.user_id)
    if not friends:
        return 0.0
    mutual = sum(1 for friend in friends if graph.has_edge(friend, account.user_id))
    return mutual / len(friends)


def _rule_flag(ruleset: str, index: int) -> Callable[[AccountContext], float]:
    rule = RuleId(ruleset, index)

    def fn(ctx: AccountContext) -> float:
        return float(evaluate_rule(rule, ctx).satisfied)

    return fn


#: The data each cost class reads: A the profile, B the timeline, C the graph.
_REQUIREMENTS = {CLASS_A: "profile", CLASS_B: "timeline", CLASS_C: "graph"}

_FUNCTIONS: dict[str, Callable[[AccountContext], float]] = {
    # Class A: profile only
    "friends_followers_sq_ratio": lambda ctx: capped_ratio(
        ctx.account.friends_count, ctx.account.followers_count**2
    ),
    "age_days": account_age_days,
    "statuses_count": lambda ctx: float(ctx.account.statuses_count),
    "has_name": _rule_flag("CC", 1),
    "friends_count": lambda ctx: float(ctx.account.friends_count),
    "has_profile_url": _rule_flag("CC", 9),
    "following_rate": lambda ctx: capped_ratio(ctx.account.friends_count, account_age_days(ctx)),
    "default_image_after_two_months": _rule_flag("SB", 7),
    "in_public_list": _rule_flag("CC", 6),
    "has_custom_image": _rule_flag("CC", 2),
    "friends_per_follower_ge_50": _rule_flag("SB", 1),
    "bot_in_biography": _rule_flag("SOS", 1),
    "shares_profile_picture": _rule_flag("SOS", 4),
    "double_followers_cover_friends": _rule_flag("CC", 19),
    "friends_per_follower_ge_100": _rule_flag("SOS", 2),
    "has_location": _rule_flag("CC", 3),
    "empty_profile_many_friends": _rule_flag("SB", 8),
    "has_biography": _rule_flag("CC", 4),
    "followers_count": lambda ctx: float(ctx.account.followers_count),
    # Class B: timeline
    "has_geolocalized_tweet": _rule_flag("CC", 8),
    "has_favourites": _rule_flag("CC", 10),
    "uses_punctuation": _rule_flag("CC", 11),
    "uses_hashtags": _rule_flag("CC", 12),
    "used_iphone": _rule_flag("CC", 13),
    "used_android": _rule_flag("CC", 14),
    "used_foursquare": _rule_flag("CC", 15),
    "used_instagram": _rule_flag("CC", 16),
    "used_web_client": _rule_flag("CC", 17),
    "mentions_users": _rule_flag("CC", 18),
    "tweets_beyond_urls": _rule_flag("CC", 20),
    "has_retweeted_tweet": _rule_flag("CC", 21),
    "uses_multiple_clients": _rule_flag("CC", 22),
    "repeats_sentence_to_accounts": _rule_flag("SOS", 3),
    "tweets_from_api": _rule_flag("SOS", 5),
    "spam_phrase_heavy": _rule_flag("SB", 2),
    "repeats_same_tweet": _rule_flag("SB", 3),
    "mostly_retweets": _rule_flag("SB", 4),
    "mostly_links": _rule_flag("SB", 5),
    "num_retweets": lambda ctx: float(ctx.timeline_counts.retweets),
    "num_url_tweets": lambda ctx: float(ctx.timeline_counts.urls),
    "message_similarity": lambda ctx: float(message_similarity(ctx.timeline())),
    "url_ratio": lambda ctx: fraction(ctx.timeline_counts.urls, ctx.timeline_counts.tweets),
    "api_ratio": lambda ctx: fraction(ctx.timeline_counts.api, ctx.timeline_counts.tweets),
    "api_url_ratio": lambda ctx: fraction(ctx.timeline_counts.api_urls, ctx.timeline_counts.api),
    "api_tweet_similarity": lambda ctx: float(api_tweet_similarity(ctx.timeline())),
    # Class C: relationships
    "bidirectional_link_ratio": lambda ctx: bidirectional_link_ratio(
        ctx.account, ctx.need_graph()
    ),
    "avg_neighbor_followers": lambda ctx: ctx.neighbors.avg_neighbors_followers,
    "avg_neighbor_tweets": lambda ctx: ctx.neighbors.avg_neighbors_tweets,
    "friends_to_median_neighbor_followers": (
        lambda ctx: ctx.neighbors.friends_to_median_neighbors_followers
    ),
}

#: name -> (the data the feature needs, its extractor)
_EXTRACTORS: dict[str, tuple[str, Callable[[AccountContext], float]]] = {
    name: (_REQUIREMENTS[by_name(name).cost_class], fn) for name, fn in _FUNCTIONS.items()
}


@dataclass
class FeatureMatrix:
    specs: tuple[FeatureSpec, ...]
    account_ids: tuple[str, ...]
    values: np.ndarray
    labels: tuple[Optional[str], ...]
    provenance: dict

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    @property
    def n_rows(self) -> int:
        return len(self.account_ids)

    def column(self, name: str) -> np.ndarray:
        idx = self.feature_names.index(name)
        return self.values[:, idx]

    def y01(self) -> np.ndarray:
        if any(label not in ("human", "fake") for label in self.labels):
            raise MetricError("matrix has unlabeled rows")
        return np.asarray([1.0 if label == "fake" else 0.0 for label in self.labels])

    def take_rows(self, indices: Sequence[int]) -> "FeatureMatrix":
        idx = list(indices)
        return FeatureMatrix(
            specs=self.specs,
            account_ids=tuple(self.account_ids[i] for i in idx),
            values=self.values[idx, :].copy(),
            labels=tuple(self.labels[i] for i in idx),
            provenance=dict(self.provenance),
        )

    def drop_feature(self, name: str) -> "FeatureMatrix":
        keep = [i for i, spec in enumerate(self.specs) if spec.name != name]
        if len(keep) == len(self.specs):
            raise KeyError(f"feature {name!r} not in matrix")
        return FeatureMatrix(
            specs=tuple(self.specs[i] for i in keep),
            account_ids=self.account_ids,
            values=self.values[:, keep].copy(),
            labels=self.labels,
            provenance=dict(self.provenance),
        )

    def to_csv(self, path) -> Path:
        rows = [
            [uid, *[repr(float(v)) for v in self.values[i]], self.labels[i] or ""]
            for i, uid in enumerate(self.account_ids)
        ]
        return write_csv(path, ["account_id", *self.feature_names, "label"], rows)

    def to_jsonl(self, path) -> Path:
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "type": "metadata",
                "features": list(self.feature_names),
                "provenance": self.provenance,
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, uid in enumerate(self.account_ids):
                record = {
                    "account_id": uid,
                    "label": self.labels[i],
                    "values": [float(v) for v in self.values[i]],
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path


def extract(dataset: LabeledDataset, specs: Sequence[FeatureSpec]) -> FeatureMatrix:
    """Extract the requested features for every account, rows by account id."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("no feature specs given")
    for name, (requirement, _) in ((s.name, _EXTRACTORS[s.name]) for s in specs):
        if requirement == "timeline" and dataset.tweets is None:
            raise InsufficientDataError(f"feature {name!r} needs tweets, which were not loaded")
        if requirement == "graph" and dataset.graph is None:
            raise InsufficientDataError(f"feature {name!r} needs the graph, which was not loaded")

    rows = np.empty((len(dataset), len(specs)), dtype=np.float64)
    labels: list[Optional[str]] = []
    for i, ctx in enumerate(iter_contexts(dataset)):
        for j, spec in enumerate(specs):
            rows[i, j] = _EXTRACTORS[spec.name][1](ctx)
        labels.append(ctx.account.label)
    if not np.all(np.isfinite(rows)):
        raise ValueError("extraction produced non-finite values")
    return FeatureMatrix(
        specs=specs,
        account_ids=dataset.account_ids,
        values=rows,
        labels=tuple(labels),
        provenance={
            "dataset": dataset.provenance,
            "reference_time": dataset.reference_time.isoformat(),
            "age_unit": "days",
        },
    )

"""The per-account context that the rule catalog and the feature extractors
read, and the pure helpers both share."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from ..corpus.errors import DanglingReferenceError, InsufficientDataError
from ..corpus.model import (
    WEB_SOURCES,
    Account,
    LabeledDataset,
    RelationshipGraph,
    Tweet,
    normalize_source,
    strip_urls,
)

DEFAULT_SPAM_PHRASES = ("diet", "make money", "work from home")

#: Accounts sharing one picture fingerprint with at least this many dataset
#: accounts (themselves included) count as using a duplicate picture.
DUPLICATE_PICTURE_MIN = 3

PUNCTUATION = frozenset(".,;:!?")

#: Client keywords whose tweets the scoring rules count.
SOURCE_KEYWORDS = ("iphone", "android", "foursquare", "instagram")

#: Newest tweets the same-sentence rule looks at.
SAME_SENTENCE_WINDOW = 20

#: x/0 with a positive numerator maps to this cap so ratios stay finite.
RATIO_CAP = 1e9


def capped_ratio(numerator: float, denominator: float) -> float:
    if denominator > 0:
        return numerator / denominator
    return 0.0 if numerator == 0 else RATIO_CAP


def fraction(count: int, total: int) -> float:
    """count / total; 0 for an empty total (a timeline with no tweets)."""
    return count / total if total else 0.0


@dataclass(frozen=True)
class TimelineCounts:
    """Counts of a timeline's tweets by their fields; ``sources`` maps each
    normalized source to its tweets."""

    tweets: int
    geo: int
    hashtag: int
    mention: int
    retweeted: int
    retweets: int
    urls: int
    web: int
    api: int
    api_urls: int
    sources: dict[str, int]
    source_keywords: dict[str, int]


def timeline_counts(tweets: Sequence[Tweet]) -> TimelineCounts:
    """Every count of ``TimelineCounts`` in one pass over ``tweets``."""
    geo = hashtag = mention = retweeted = retweets = urls = api_urls = 0
    sources: dict[str, int] = {}
    for t in tweets:
        if t.is_geolocalized:
            geo += 1
        if t.num_hashtags >= 1:
            hashtag += 1
        if t.num_mentions >= 1:
            mention += 1
        if t.retweet_count >= 1:
            retweeted += 1
        if t.is_retweet:
            retweets += 1
        if t.num_urls >= 1:
            urls += 1
        source = normalize_source(t.source)
        sources[source] = sources.get(source, 0) + 1
        if source not in WEB_SOURCES and t.num_urls >= 1:
            api_urls += 1
    web = sum(count for source, count in sources.items() if source in WEB_SOURCES)
    return TimelineCounts(
        tweets=len(tweets),
        geo=geo,
        hashtag=hashtag,
        mention=mention,
        retweeted=retweeted,
        retweets=retweets,
        urls=urls,
        web=web,
        api=len(tweets) - web,
        api_urls=api_urls,
        sources=sources,
        source_keywords={
            keyword: sum(count for source, count in sources.items() if keyword in source)
            for keyword in SOURCE_KEYWORDS
        },
    )


@dataclass(frozen=True)
class TextCounts:
    """What the rules read of a timeline's texts: tweets with punctuation,
    with content beyond URLs and with a spam phrase, the most times one
    text was sent, and whether one of the newest 20 was sent at least twice,
    each time mentioning someone."""

    punctuation: int
    beyond_urls: int
    spam: int
    top_repeat: int
    same_sentence: bool


def text_counts(tweets: Sequence[Tweet], phrases: Sequence[str]) -> TextCounts:
    """Every count of ``TextCounts`` in one pass over ``tweets`` (newest
    first); a tweet is spam when it holds one of ``phrases``."""
    phrases = tuple(p.lower() for p in phrases)
    punctuation = beyond_urls = spam = 0
    repeats: dict[str, int] = {}
    for t in tweets:
        text = t.text
        if not PUNCTUATION.isdisjoint(text):
            punctuation += 1
        if (strip_urls(text) if "http" in text else text).strip():
            beyond_urls += 1
        lower = text.lower()
        for phrase in phrases:
            if phrase in lower:
                spam += 1
                break
        stripped = text.strip()
        if stripped:
            repeats[stripped] = repeats.get(stripped, 0) + 1
    sent: dict[str, int] = {}
    all_mention: dict[str, bool] = {}
    for t in tweets[:SAME_SENTENCE_WINDOW]:
        text = t.text.strip()
        if text:
            sent[text] = sent.get(text, 0) + 1
            all_mention[text] = all_mention.get(text, True) and t.num_mentions >= 1
    return TextCounts(
        punctuation=punctuation,
        beyond_urls=beyond_urls,
        spam=spam,
        top_repeat=max(repeats.values(), default=0),
        same_sentence=any(count >= 2 and all_mention[text] for text, count in sent.items()),
    )


@dataclass(frozen=True)
class NeighborStats:
    avg_neighbors_followers: float
    avg_neighbors_tweets: float
    friends_to_median_neighbors_followers: float


def _neighbor_values(graph: RelationshipGraph, ids: Iterable[str], field: str) -> list[int]:
    values = []
    for nid in ids:
        summary = graph.stats_for(nid)
        if summary is None:
            raise DanglingReferenceError(f"no summary for neighbor {nid}")
        values.append(getattr(summary, field))
    return values


def neighbor_stats(account: Account, graph: RelationshipGraph) -> NeighborStats:
    """Relationship statistics; zero-degree accounts impute to zero."""
    friends = graph.friends_of(account.user_id)
    followers = graph.followers_of(account.user_id)
    friend_followers = _neighbor_values(graph, friends, "followers_count")
    follower_statuses = _neighbor_values(graph, followers, "statuses_count")
    avg_friends = sum(friend_followers) / len(friend_followers) if friend_followers else 0.0
    avg_followers = (
        sum(follower_statuses) / len(follower_statuses) if follower_statuses else 0.0
    )
    if friend_followers:
        median = statistics.median(friend_followers)
        ratio = capped_ratio(account.friends_count, median)
    else:
        ratio = 0.0
    return NeighborStats(
        avg_neighbors_followers=avg_friends,
        avg_neighbors_tweets=avg_followers,
        friends_to_median_neighbors_followers=ratio,
    )


@dataclass(frozen=True)
class AccountContext:
    """Everything a rule or a feature extractor may look at for one account.

    ``tweets`` is None when the timeline was withheld (not merely empty),
    and ``graph`` when the relationships were; ``fingerprint_counts`` maps
    picture fingerprints to how many dataset accounts carry them, and is
    None when dataset-level aggregates are unavailable.
    """

    account: Account
    tweets: Optional[tuple[Tweet, ...]]
    reference_time: datetime
    fingerprint_counts: Optional[dict[str, int]] = None
    graph: Optional[RelationshipGraph] = None

    def timeline(self) -> tuple[Tweet, ...]:
        if self.tweets is None:
            raise InsufficientDataError(
                f"the timeline of {self.account.user_id} is needed, but tweets were not loaded"
            )
        return self.tweets

    def need_graph(self) -> RelationshipGraph:
        if self.graph is None:
            raise InsufficientDataError(
                f"the relationships of {self.account.user_id} are needed, "
                "but the graph was not loaded"
            )
        return self.graph

    @cached_property
    def timeline_counts(self) -> TimelineCounts:
        """Counts of the timeline's tweets, computed on first use."""
        return timeline_counts(self.timeline())

    @cached_property
    def text_counts(self) -> TextCounts:
        """Counts of the timeline's texts, computed on first use."""
        return text_counts(self.timeline(), DEFAULT_SPAM_PHRASES)

    @cached_property
    def neighbors(self) -> NeighborStats:
        """The account's neighbor statistics, computed on first use."""
        return neighbor_stats(self.account, self.need_graph())

    @cached_property
    def outcomes(self) -> dict:
        """Rule outcomes evaluated so far, by (ruleset, index); filled by
        ``evaluate_rule``."""
        return {}


def picture_counts(dataset: LabeledDataset) -> dict[str, int]:
    counts: dict[str, int] = {}
    for account in dataset.accounts.values():
        fp = account.profile_image_fingerprint
        if fp:
            counts[fp] = counts.get(fp, 0) + 1
    return counts


def iter_contexts(dataset: LabeledDataset) -> Iterator[AccountContext]:
    """One context per account in dataset order, sharing the dataset's
    picture counts and graph."""
    counts = picture_counts(dataset)
    for uid, account in dataset.accounts.items():
        yield AccountContext(
            account=account,
            tweets=None if dataset.tweets is None else dataset.timeline(uid),
            reference_time=dataset.reference_time,
            fingerprint_counts=counts,
            graph=dataset.graph,
        )

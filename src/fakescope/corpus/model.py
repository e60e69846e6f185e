"""Core data model: accounts, tweets, the relationship graph, and datasets.

All objects are immutable (or treated as such) once a dataset is built, so
they can be read from any number of workers without locking.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Iterable, Mapping, Optional

HUMAN = "human"
FAKE = "fake"
LABELS = (HUMAN, FAKE)

#: Source strings (normalized) that count as posting "from the website".
WEB_SOURCES = frozenset({"web", "twitter.com"})

_HASHTAG_RE = re.compile(r"#\w+")
_MENTION_RE = re.compile(r"@\w+")
_URL_RE = re.compile(r"https?://\S*")


def normalize_source(source: str) -> str:
    return source.strip().lower()


def is_web_source(source: str) -> bool:
    return normalize_source(source) in WEB_SOURCES


def count_entities(text: str) -> tuple[int, int, int]:
    """Derive (hashtags, mentions, urls) from raw tweet text."""
    return (
        len(_HASHTAG_RE.findall(text)),
        len(_MENTION_RE.findall(text)),
        len(_URL_RE.findall(text)),
    )


def strip_urls(text: str) -> str:
    return _URL_RE.sub(" ", text)


@dataclass(frozen=True, slots=True)
class Account:
    user_id: str
    screen_name: str
    name: str
    created_at: datetime
    followers_count: int
    friends_count: int
    statuses_count: int
    listed_count: int
    favourites_count: int
    url: Optional[str] = None
    location: Optional[str] = None
    description: Optional[str] = None
    default_profile_image: bool = False
    profile_image_fingerprint: Optional[str] = None
    label: Optional[str] = None

    def count_fields(self) -> dict[str, int]:
        return {
            "followers_count": self.followers_count,
            "friends_count": self.friends_count,
            "statuses_count": self.statuses_count,
            "listed_count": self.listed_count,
            "favourites_count": self.favourites_count,
        }


@dataclass(frozen=True, slots=True)
class Tweet:
    tweet_id: str
    user_id: str
    created_at: datetime
    text: str
    source: str
    is_retweet: bool = False
    retweet_count: int = 0
    is_geolocalized: bool = False
    num_hashtags: int = 0
    num_mentions: int = 0
    num_urls: int = 0

    @property
    def from_api(self) -> bool:
        return not is_web_source(self.source)


@dataclass(frozen=True, slots=True)
class NeighborSummary:
    followers_count: int
    statuses_count: int


class RelationshipGraph:
    """Directed follow edges plus profile summaries for off-dataset neighbors.

    Edges are stored exactly as given (``validate`` reports self-loops or
    duplicates); adjacency views are computed once over the distinct edges.
    """

    def __init__(
        self,
        edges: Iterable[tuple[str, str]] = (),
        neighbor_summaries: Mapping[str, NeighborSummary] | None = None,
    ):
        self.edges: tuple[tuple[str, str], ...] = tuple(edges)
        self.neighbor_summaries: dict[str, NeighborSummary] = dict(neighbor_summaries or {})
        self._stats: dict[str, NeighborSummary] = dict(self.neighbor_summaries)
        friends: defaultdict[str, set[str]] = defaultdict(set)
        followers: defaultdict[str, set[str]] = defaultdict(set)
        for src, dst in self.edges:
            friends[src].add(dst)
            followers[dst].add(src)
        self._friends = {k: tuple(sorted(v)) for k, v in friends.items()}
        self._followers = {k: tuple(sorted(v)) for k, v in followers.items()}

    def friends_of(self, user_id: str) -> tuple[str, ...]:
        """Accounts this user follows."""
        return self._friends.get(user_id, ())

    def followers_of(self, user_id: str) -> tuple[str, ...]:
        return self._followers.get(user_id, ())

    def has_edge(self, src: str, dst: str) -> bool:
        friends = self._friends.get(src, ())
        i = bisect_left(friends, dst)
        return i < len(friends) and friends[i] == dst

    def attach_account_stats(self, stats: Mapping[str, NeighborSummary]) -> None:
        """Register in-dataset accounts so every neighbor can be resolved."""
        self._stats.update(stats)

    def stats_for(self, user_id: str) -> Optional[NeighborSummary]:
        return self._stats.get(user_id)


@dataclass
class LabeledDataset:
    """A corpus: accounts, per-account timelines, follow graph, reference time.

    ``tweets`` or ``graph`` may be None when that part of the corpus was
    withheld (profile-only extraction); an empty timeline is an empty tuple,
    which is different from withheld data.
    """

    accounts: dict[str, Account]
    tweets: Optional[dict[str, tuple[Tweet, ...]]]
    graph: Optional[RelationshipGraph]
    reference_time: datetime
    provenance: str = ""

    def __post_init__(self):
        self.accounts = {uid: self.accounts[uid] for uid in sorted(self.accounts)}
        if self.tweets is not None:
            given = self.tweets
            order = list(self.accounts) + sorted(set(given) - set(self.accounts))
            self.tweets = {
                uid: tuple(
                    sorted(
                        given.get(uid, ()),
                        key=lambda t: (t.created_at, t.tweet_id),
                        reverse=True,
                    )
                )
                for uid in order
            }
        if self.graph is not None:
            self.graph.attach_account_stats(
                {
                    a.user_id: NeighborSummary(a.followers_count, a.statuses_count)
                    for a in self.accounts.values()
                }
            )

    @property
    def account_ids(self) -> tuple[str, ...]:
        return tuple(self.accounts)

    def __len__(self) -> int:
        return len(self.accounts)

    def timeline(self, user_id: str) -> tuple[Tweet, ...]:
        """Newest-first timeline; raises KeyError if tweets were withheld."""
        if self.tweets is None:
            raise KeyError("tweets withheld from this dataset")
        return self.tweets.get(user_id, ())

    def class_counts(self) -> dict[str, int]:
        counts = {HUMAN: 0, FAKE: 0}
        for a in self.accounts.values():
            if a.label in counts:
                counts[a.label] += 1
        return counts

    def without_tweets(self) -> "LabeledDataset":
        return replace(self, tweets=None)

    def without_graph(self) -> "LabeledDataset":
        return replace(self, graph=None)

    def subset(self, ids: Iterable[str], provenance: str = "") -> "LabeledDataset":
        keep = set(ids)
        missing = keep - set(self.accounts)
        if missing:
            raise KeyError(f"unknown account ids: {sorted(missing)[:5]}")
        accounts = {uid: a for uid, a in self.accounts.items() if uid in keep}
        tweets = None
        if self.tweets is not None:
            tweets = {uid: self.tweets[uid] for uid in accounts}
        graph = None
        if self.graph is not None:
            edges = [(s, d) for s, d in self.graph.edges if s in keep or d in keep]
            # accounts that fell outside the subset become plain neighbors,
            # so the subset stays self-contained when serialized
            summaries = dict(self.graph.neighbor_summaries)
            for src, dst in edges:
                for uid in (src, dst):
                    if uid not in keep and uid not in summaries:
                        dropped = self.accounts.get(uid)
                        if dropped is not None:
                            summaries[uid] = NeighborSummary(
                                dropped.followers_count, dropped.statuses_count
                            )
            graph = RelationshipGraph(edges, summaries)
        return LabeledDataset(
            accounts=accounts,
            tweets=tweets,
            graph=graph,
            reference_time=self.reference_time,
            provenance=provenance or self.provenance,
        )

    def relabeled(self, labels: Mapping[str, Optional[str]]) -> "LabeledDataset":
        """Copy with some labels replaced (used by shuffled-label controls)."""
        accounts = {
            uid: (replace(a, label=labels[uid]) if uid in labels else a)
            for uid, a in self.accounts.items()
        }
        return replace(self, accounts=accounts)


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, subject: str, message: str) -> None:
        self.violations.append(Violation(code, subject, message))

    def __len__(self) -> int:
        return len(self.violations)


def utc(dt: datetime) -> datetime:
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def validate(dataset: LabeledDataset) -> ValidationReport:
    """Check every dataset invariant; violations become report entries."""
    report = ValidationReport()
    ref = dataset.reference_time
    for a in dataset.accounts.values():
        for name, value in a.count_fields().items():
            if value < 0:
                report.add("negative_count", a.user_id, f"{name} = {value}")
        if a.created_at > ref:
            report.add(
                "future_account",
                a.user_id,
                f"created_at {a.created_at.isoformat()} after reference_time",
            )
        if a.label is not None and a.label not in LABELS:
            report.add("bad_label", a.user_id, f"label {a.label!r}")
    if dataset.tweets is not None:
        for uid, timeline in dataset.tweets.items():
            if uid not in dataset.accounts:
                report.add("dangling_tweet_owner", uid, "tweets for unknown account")
            for t in timeline:
                if t.created_at > ref:
                    report.add(
                        "future_tweet",
                        t.tweet_id,
                        f"created_at {t.created_at.isoformat()} after reference_time",
                    )
                for name in ("retweet_count", "num_hashtags", "num_mentions", "num_urls"):
                    if getattr(t, name) < 0:
                        report.add("negative_count", t.tweet_id, f"{name} < 0")
    if dataset.graph is not None:
        seen = set()
        for src, dst in dataset.graph.edges:
            if src == dst:
                report.add("self_loop", src, "account follows itself")
            if (src, dst) in seen:
                report.add("duplicate_edge", src, f"duplicate edge to {dst}")
            seen.add((src, dst))
        for uid in dataset.accounts:
            for friend in dataset.graph.friends_of(uid):
                if friend not in dataset.accounts and dataset.graph.stats_for(friend) is None:
                    report.add(
                        "missing_neighbor",
                        uid,
                        f"friend {friend} has no account and no neighbor summary",
                    )
    return report

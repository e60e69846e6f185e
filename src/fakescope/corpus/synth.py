"""Deterministic synthetic corpora with class-conditioned account behavior.

Each class (human / fake) gets a full distribution profile for every raw
field the detectors consume: profile counts and completeness, account age,
tweet sources and entity rates, duplicate-text bursts, reciprocal-follow
probability, and neighbor statistics. The same seed always yields the same
corpus, byte for byte once serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from ..seeding import make_rng
from .errors import CorpusError
from .model import (
    FAKE,
    HUMAN,
    Account,
    LabeledDataset,
    NeighborSummary,
    RelationshipGraph,
    Tweet,
)

_WORDS = (
    "coffee morning train sunset city music game match news photo idea работа "
    "lunch friends market report cycle garden river monday travel book film "
    "meeting weather winter summer beach laugh story street light bridge vote "
    "school office project kitchen recipe dog cat run walk code paper note"
).split()

_NAMES = (
    "Alex Sam Dana Luca Marta Paolo Anna Giulia Marco Elena Ivan Sara Leo "
    "Nina Tom Rita Hugo Vera Omar Lisa Ada Igor Mia Noel Zoe Remo Iris Enzo"
).split()

_CITIES = (
    "Pisa Rome Milan Turin London Paris Berlin Madrid Lisbon Vienna Prague "
    "Dublin Oslo Porto Ghent Lyon Graz Bath York Siena"
).split()

_SPAM_PHRASES = ("make money", "work from home", "diet")


@dataclass(frozen=True)
class ClassProfile:
    """Distribution parameters for one account class."""

    # profile counters, lognormal(log_mean, log_sigma) rounded to ints
    followers_log_mean: float
    followers_log_sigma: float
    friends_log_mean: float
    friends_log_sigma: float
    statuses_log_mean: float
    statuses_log_sigma: float
    listed_rate: float
    favourites_log_mean: float
    favourites_log_sigma: float
    # profile completeness probabilities
    p_name: float
    p_biography: float
    p_location: float
    p_profile_url: float
    p_default_image: float
    p_bot_keyword: float
    p_shared_picture: float
    picture_pool: int
    #: Probability an account camouflages as the other class: its profile,
    #: timeline habits, and friend pools follow the counterpart class, while
    #: its URL rate and reciprocity stay native. These accounts are what
    #: keeps profile-only classifiers below a perfect score.
    p_atypical: float
    # account age in days before the reference time, uniform
    age_days_min: float
    age_days_max: float
    # timeline behavior
    timeline_cap: int
    source_weights: tuple[tuple[str, float], ...]
    url_rate_mean: float
    url_rate_conc: float
    hashtag_rate_mean: float
    hashtag_rate_conc: float
    mention_rate_mean: float
    mention_rate_conc: float
    p_retweet: float
    p_geo: float
    p_punctuation: float
    p_spam_phrase: float
    p_duplicate_burst: float
    retweeted_rate: float
    # relationships
    graph_friends_cap: int
    p_bidirectional: float
    p_friend_internal: float
    neighbor_followers_log_mean: float
    neighbor_followers_log_sigma: float
    neighbor_statuses_log_mean: float
    neighbor_statuses_log_sigma: float

    def check(self, name: str) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "source_weights":
                total = sum(w for _, w in value)
                if not value or total <= 0 or any(w < 0 for _, w in value):
                    raise CorpusError(f"{name}: invalid source_weights")
                continue
            if not math.isfinite(value):
                raise CorpusError(f"{name}: non-finite parameter {f.name}")
            if f.name.startswith("p_") and not 0.0 <= value <= 1.0:
                raise CorpusError(f"{name}: probability {f.name}={value} outside [0,1]")
        if self.age_days_min < 0 or self.age_days_max < self.age_days_min:
            raise CorpusError(f"{name}: bad age range")
        if self.timeline_cap < 0 or self.graph_friends_cap < 0 or self.picture_pool < 0:
            raise CorpusError(f"{name}: negative cap")


def human_profile() -> ClassProfile:
    return ClassProfile(
        followers_log_mean=math.log(220),
        followers_log_sigma=1.2,
        friends_log_mean=math.log(180),
        friends_log_sigma=0.9,
        statuses_log_mean=math.log(900),
        statuses_log_sigma=1.3,
        listed_rate=3.0,
        favourites_log_mean=math.log(60),
        favourites_log_sigma=1.4,
        p_name=1.0,
        p_biography=0.86,
        p_location=0.62,
        p_profile_url=0.46,
        p_default_image=0.03,
        p_bot_keyword=0.0,
        p_shared_picture=0.004,
        picture_pool=40,
        p_atypical=0.016,
        age_days_min=380.0,
        age_days_max=2600.0,
        timeline_cap=30,
        source_weights=(
            ("web", 0.30),
            ("iphone", 0.26),
            ("android", 0.22),
            ("instagram", 0.07),
            ("foursquare", 0.02),
            ("tweetdeck", 0.13),
        ),
        url_rate_mean=0.34,
        url_rate_conc=9.0,
        hashtag_rate_mean=0.36,
        hashtag_rate_conc=7.0,
        mention_rate_mean=0.44,
        mention_rate_conc=7.0,
        p_retweet=0.22,
        p_geo=0.13,
        p_punctuation=0.82,
        p_spam_phrase=0.002,
        p_duplicate_burst=0.01,
        retweeted_rate=0.38,
        graph_friends_cap=36,
        p_bidirectional=0.46,
        p_friend_internal=0.40,
        neighbor_followers_log_mean=math.log(500),
        neighbor_followers_log_sigma=1.4,
        neighbor_statuses_log_mean=math.log(1800),
        neighbor_statuses_log_sigma=1.2,
    )


def fake_profile() -> ClassProfile:
    return ClassProfile(
        followers_log_mean=math.log(5),
        followers_log_sigma=1.0,
        friends_log_mean=math.log(380),
        friends_log_sigma=0.8,
        statuses_log_mean=math.log(11),
        statuses_log_sigma=1.2,
        listed_rate=0.02,
        favourites_log_mean=math.log(1.3),
        favourites_log_sigma=1.0,
        p_name=1.0,
        p_biography=0.34,
        p_location=0.16,
        p_profile_url=0.07,
        p_default_image=0.09,
        p_bot_keyword=0.0,
        p_shared_picture=0.55,
        picture_pool=60,
        p_atypical=0.016,
        age_days_min=25.0,
        age_days_max=420.0,
        timeline_cap=30,
        source_weights=(
            ("web", 0.98),
            ("api", 0.015),
            ("iphone", 0.005),
        ),
        url_rate_mean=0.012,
        url_rate_conc=30.0,
        hashtag_rate_mean=0.05,
        hashtag_rate_conc=12.0,
        mention_rate_mean=0.04,
        mention_rate_conc=12.0,
        p_retweet=0.07,
        p_geo=0.004,
        p_punctuation=0.24,
        p_spam_phrase=0.012,
        p_duplicate_burst=0.14,
        retweeted_rate=0.015,
        graph_friends_cap=36,
        p_bidirectional=0.03,
        p_friend_internal=0.45,
        neighbor_followers_log_mean=math.log(60000),
        neighbor_followers_log_sigma=1.1,
        neighbor_statuses_log_mean=math.log(25000),
        neighbor_statuses_log_sigma=0.9,
    )


@dataclass(frozen=True)
class SynthConfig:
    n_humans: int
    n_fakes: int
    seed: int
    human: ClassProfile = field(default_factory=human_profile)
    fake: ClassProfile = field(default_factory=fake_profile)
    reference_time: datetime = datetime(2015, 4, 1, tzinfo=timezone.utc)
    n_external_neighbors: int = 400

    def check(self) -> None:
        if self.n_humans < 0 or self.n_fakes < 0:
            raise CorpusError("negative class count")
        if self.n_humans + self.n_fakes == 0:
            raise CorpusError("empty corpus requested")
        if self.n_external_neighbors <= 0:
            raise CorpusError("n_external_neighbors must be positive")
        self.human.check("human profile")
        self.fake.check("fake profile")

    @classmethod
    def paper_like(cls, seed: int = 0, n_humans: int = 1950, n_fakes: int = 1950) -> "SynthConfig":
        return cls(n_humans=n_humans, n_fakes=n_fakes, seed=seed)


PRESETS = {"paper-like": SynthConfig.paper_like}


def _lognormal_int(rng: np.random.Generator, log_mean: float, log_sigma: float) -> int:
    return int(round(math.exp(rng.normal(log_mean, log_sigma))))


def _beta_rate(rng: np.random.Generator, mean: float, conc: float) -> float:
    mean = min(max(mean, 1e-6), 1 - 1e-6)
    return float(rng.beta(mean * conc, (1.0 - mean) * conc))


def _sentence(rng: np.random.Generator, n_words: int) -> list[str]:
    idx = rng.integers(0, len(_WORDS), size=n_words)
    return [_WORDS[i] for i in idx]


def _make_text(
    rng: np.random.Generator,
    profile: ClassProfile,
    n_hashtags: int,
    n_mentions: int,
    n_urls: int,
    spam: bool,
) -> str:
    words = _sentence(rng, int(rng.integers(4, 11)))
    if spam:
        words.insert(0, _SPAM_PHRASES[int(rng.integers(0, len(_SPAM_PHRASES)))])
    for k in range(n_hashtags):
        words.append("#" + _WORDS[int(rng.integers(0, len(_WORDS)))])
    for k in range(n_mentions):
        words.append("@u" + str(int(rng.integers(0, 99999))))
    for k in range(n_urls):
        words.append("http://t.co/" + format(int(rng.integers(0, 16**6)), "06x"))
    text = " ".join(words)
    if rng.random() < profile.p_punctuation:
        text += "."
    return text


def _timeline(
    rng: np.random.Generator,
    account: Account,
    profile: ClassProfile,
    reference_time: datetime,
) -> list[Tweet]:
    n = min(account.statuses_count, profile.timeline_cap)
    if n <= 0:
        return []
    url_rate = _beta_rate(rng, profile.url_rate_mean, profile.url_rate_conc)
    hashtag_rate = _beta_rate(rng, profile.hashtag_rate_mean, profile.hashtag_rate_conc)
    mention_rate = _beta_rate(rng, profile.mention_rate_mean, profile.mention_rate_conc)
    sources = [s for s, _ in profile.source_weights]
    weights = np.asarray([w for _, w in profile.source_weights], dtype=float)
    # the normalized CDF `rng.choice(len(sources), p=weights)` would search,
    # built once: each draw is then one random() and one search, as in choice
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]

    span = (reference_time - account.created_at).total_seconds()
    offsets = sorted(int(float(rng.random()) * span) for _ in range(n))

    burst_text = None
    burst_at: set[int] = set()
    if n >= 5 and rng.random() < profile.p_duplicate_burst:
        # repeated promo tweet, always mentioning someone
        base = " ".join(_sentence(rng, 6))
        burst_text = f"@u{int(rng.integers(0, 9999))} {base}"
        n_rep = int(rng.integers(4, min(8, n + 1)))
        start = int(rng.integers(0, max(1, n - n_rep + 1)))
        burst_at = set(range(start, start + n_rep))

    tweets = []
    for i in range(n):
        source = sources[int(cdf.searchsorted(rng.random(), side="right"))]
        if i in burst_at and burst_text is not None:
            text = burst_text
            n_hash, n_ment, n_url = 0, 1, 0
            is_retweet = False
        else:
            n_url = 1 if rng.random() < url_rate else 0
            if n_url and rng.random() < 0.15:
                n_url = 2
            n_hash = 1 if rng.random() < hashtag_rate else 0
            n_ment = 1 if rng.random() < mention_rate else 0
            is_retweet = bool(rng.random() < profile.p_retweet)
            text = _make_text(
                rng, profile, n_hash, n_ment, n_url, rng.random() < profile.p_spam_phrase
            )
            if is_retweet:
                text = "RT @u" + str(int(rng.integers(0, 9999))) + ": " + text
                n_ment += 1
        retweet_count = 0
        if rng.random() < profile.retweeted_rate:
            retweet_count = 1 + int(rng.geometric(0.4))
        tweets.append(
            Tweet(
                tweet_id=f"{account.user_id}-t{i:04d}",
                user_id=account.user_id,
                created_at=account.created_at + timedelta(seconds=offsets[i]),
                text=text,
                source=source,
                is_retweet=is_retweet,
                retweet_count=retweet_count,
                is_geolocalized=bool(rng.random() < profile.p_geo),
                num_hashtags=n_hash,
                num_mentions=n_ment,
                num_urls=n_url,
            )
        )
    return tweets


def synthesize(config: SynthConfig) -> LabeledDataset:
    """Generate a labeled corpus; a pure function of the config (seed included)."""
    config.check()
    rng = make_rng(config.seed)
    ref = config.reference_time

    # shared pool of off-dataset neighbors (celebrities, ordinary strangers)
    neighbor_ids = [f"x{i:06d}" for i in range(config.n_external_neighbors)]
    neighbor_summaries: dict[str, NeighborSummary] = {}
    half = len(neighbor_ids) // 2
    for i, nid in enumerate(neighbor_ids):
        profile = config.fake if i < half else config.human
        neighbor_summaries[nid] = NeighborSummary(
            followers_count=_lognormal_int(
                rng, profile.neighbor_followers_log_mean, profile.neighbor_followers_log_sigma
            ),
            statuses_count=_lognormal_int(
                rng, profile.neighbor_statuses_log_mean, profile.neighbor_statuses_log_sigma
            ),
        )
    celebrity_ids = neighbor_ids[:half]  # indices drawn per class below
    ordinary_ids = neighbor_ids[half:]

    plan = [(HUMAN, f"h{i:06d}") for i in range(config.n_humans)]
    plan += [(FAKE, f"f{i:06d}") for i in range(config.n_fakes)]
    profiles = {HUMAN: config.human, FAKE: config.fake}
    counterpart = {HUMAN: FAKE, FAKE: HUMAN}

    accounts: dict[str, Account] = {}
    tweets: dict[str, tuple[Tweet, ...]] = {}
    behaves_as: dict[str, str] = {}
    for label, uid in plan:
        own = profiles[label]
        eff_label = counterpart[label] if rng.random() < own.p_atypical else label
        eff = profiles[eff_label]
        behavior = replace(eff, url_rate_mean=own.url_rate_mean, url_rate_conc=own.url_rate_conc)
        behaves_as[uid] = eff_label
        age_days = float(rng.uniform(eff.age_days_min, eff.age_days_max))
        created = (ref - timedelta(days=age_days)).replace(microsecond=0)
        has_name = rng.random() < eff.p_name
        has_bio = rng.random() < eff.p_biography
        bio = None
        if has_bio:
            bio = " ".join(_sentence(rng, int(rng.integers(3, 9))))
            if rng.random() < eff.p_bot_keyword:
                bio += " bot"
            if rng.random() < 0.5:
                bio += "."
        if rng.random() < eff.p_shared_picture and eff.picture_pool > 0:
            fingerprint = f"pic{int(rng.integers(0, eff.picture_pool)):04d}-{eff_label}"
        else:
            fingerprint = f"pic-own-{uid}"
        account = Account(
            user_id=uid,
            screen_name=f"sn_{uid}",
            name=(_NAMES[int(rng.integers(0, len(_NAMES)))] if has_name else ""),
            created_at=created,
            followers_count=_lognormal_int(
                rng, eff.followers_log_mean, eff.followers_log_sigma
            ),
            friends_count=_lognormal_int(rng, eff.friends_log_mean, eff.friends_log_sigma),
            statuses_count=_lognormal_int(
                rng, eff.statuses_log_mean, eff.statuses_log_sigma
            ),
            listed_count=int(rng.poisson(eff.listed_rate)),
            favourites_count=_lognormal_int(
                rng, eff.favourites_log_mean, eff.favourites_log_sigma
            ),
            url=(f"http://example.org/{uid}" if rng.random() < eff.p_profile_url else None),
            location=(
                _CITIES[int(rng.integers(0, len(_CITIES)))]
                if rng.random() < eff.p_location
                else None
            ),
            description=bio,
            default_profile_image=bool(rng.random() < eff.p_default_image),
            profile_image_fingerprint=fingerprint,
            label=label,
        )
        accounts[uid] = account
        tweets[uid] = tuple(_timeline(rng, account, behavior, ref))

    # follow edges: friends drawn from the peers and external pools of the
    # behavioral class (fakes gravitate to high-profile targets); the
    # reciprocity probability always stays native to the true class
    peers = {
        HUMAN: [uid for uid, eff in behaves_as.items() if eff == HUMAN],
        FAKE: [uid for uid, eff in behaves_as.items() if eff == FAKE],
    }
    edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()

    def add_edge(src: str, dst: str) -> None:
        if src != dst and (src, dst) not in seen:
            seen.add((src, dst))
            edges.append((src, dst))

    for label, uid in plan:
        own = profiles[label]
        eff = profiles[behaves_as[uid]]
        pool_same = peers[behaves_as[uid]]
        n_friends = min(accounts[uid].friends_count, eff.graph_friends_cap)
        for _ in range(n_friends):
            if rng.random() < eff.p_friend_internal and len(pool_same) > 1:
                friend = pool_same[int(rng.integers(0, len(pool_same)))]
            elif behaves_as[uid] == FAKE:
                friend = celebrity_ids[int(rng.integers(0, len(celebrity_ids)))]
            else:
                pool = ordinary_ids if rng.random() < 0.6 else celebrity_ids
                friend = pool[int(rng.integers(0, len(pool)))]
            add_edge(uid, friend)
            if rng.random() < own.p_bidirectional:
                add_edge(friend, uid)

    graph = RelationshipGraph(edges, neighbor_summaries)
    dataset = LabeledDataset(
        accounts=accounts,
        tweets=tweets,
        graph=graph,
        reference_time=ref,
        provenance=f"synthetic(seed={config.seed})",
    )
    return dataset

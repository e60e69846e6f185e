"""The feature catalog: 49 named features tagged with crawling-cost classes.

Class A features read only account profiles (dataset-level picture
fingerprints included), Class B features read timelines, Class C features
read the relationship graph. Threshold rules whose raw counter carries the
information appear as the counter (number of followers / tweets / friends);
the remaining rule-derived features keep their boolean form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

CLASS_A = "A"
CLASS_B = "B"
CLASS_C = "C"
COST_ORDER = {CLASS_A: 0, CLASS_B: 1, CLASS_C: 2}

BOOLEAN = "boolean"
COUNT = "count"
RATIO = "ratio"
DURATION = "duration"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    cost_class: str
    source_set: str  # CC | SOS | SB | Stringhini | Yang
    kind: str

    @property
    def is_boolean(self) -> bool:
        return self.kind == BOOLEAN


def _spec(name: str, cost_class: str, source_set: str, kind: str) -> FeatureSpec:
    return FeatureSpec(name=name, cost_class=cost_class, source_set=source_set, kind=kind)


#: Profile-only features, ordered by their global-importance ranking.
CLASS_A_SPECS: tuple[FeatureSpec, ...] = (
    _spec("friends_followers_sq_ratio", CLASS_A, "Stringhini", RATIO),
    _spec("age_days", CLASS_A, "Yang", DURATION),
    _spec("statuses_count", CLASS_A, "Stringhini", COUNT),
    _spec("has_name", CLASS_A, "CC", BOOLEAN),
    _spec("friends_count", CLASS_A, "Stringhini", COUNT),
    _spec("has_profile_url", CLASS_A, "CC", BOOLEAN),
    _spec("following_rate", CLASS_A, "Yang", RATIO),
    _spec("default_image_after_two_months", CLASS_A, "SB", BOOLEAN),
    _spec("in_public_list", CLASS_A, "CC", BOOLEAN),
    _spec("has_custom_image", CLASS_A, "CC", BOOLEAN),
    _spec("friends_per_follower_ge_50", CLASS_A, "SB", BOOLEAN),
    _spec("bot_in_biography", CLASS_A, "SOS", BOOLEAN),
    _spec("shares_profile_picture", CLASS_A, "SOS", BOOLEAN),
    _spec("double_followers_cover_friends", CLASS_A, "CC", BOOLEAN),
    _spec("friends_per_follower_ge_100", CLASS_A, "SOS", BOOLEAN),
    _spec("has_location", CLASS_A, "CC", BOOLEAN),
    _spec("empty_profile_many_friends", CLASS_A, "SB", BOOLEAN),
    _spec("has_biography", CLASS_A, "CC", BOOLEAN),
    _spec("followers_count", CLASS_A, "CC", COUNT),
)

CLASS_B_SPECS: tuple[FeatureSpec, ...] = (
    _spec("has_geolocalized_tweet", CLASS_B, "CC", BOOLEAN),
    _spec("has_favourites", CLASS_B, "CC", BOOLEAN),
    _spec("uses_punctuation", CLASS_B, "CC", BOOLEAN),
    _spec("uses_hashtags", CLASS_B, "CC", BOOLEAN),
    _spec("used_iphone", CLASS_B, "CC", BOOLEAN),
    _spec("used_android", CLASS_B, "CC", BOOLEAN),
    _spec("used_foursquare", CLASS_B, "CC", BOOLEAN),
    _spec("used_instagram", CLASS_B, "CC", BOOLEAN),
    _spec("used_web_client", CLASS_B, "CC", BOOLEAN),
    _spec("mentions_users", CLASS_B, "CC", BOOLEAN),
    _spec("tweets_beyond_urls", CLASS_B, "CC", BOOLEAN),
    _spec("has_retweeted_tweet", CLASS_B, "CC", BOOLEAN),
    _spec("uses_multiple_clients", CLASS_B, "CC", BOOLEAN),
    _spec("repeats_sentence_to_accounts", CLASS_B, "SOS", BOOLEAN),
    _spec("tweets_from_api", CLASS_B, "SOS", BOOLEAN),
    _spec("spam_phrase_heavy", CLASS_B, "SB", BOOLEAN),
    _spec("repeats_same_tweet", CLASS_B, "SB", BOOLEAN),
    _spec("mostly_retweets", CLASS_B, "SB", BOOLEAN),
    _spec("mostly_links", CLASS_B, "SB", BOOLEAN),
    _spec("num_retweets", CLASS_B, "SB", COUNT),
    _spec("num_url_tweets", CLASS_B, "SB", COUNT),
    _spec("message_similarity", CLASS_B, "Stringhini", BOOLEAN),
    _spec("url_ratio", CLASS_B, "Stringhini", RATIO),
    _spec("api_ratio", CLASS_B, "Yang", RATIO),
    _spec("api_url_ratio", CLASS_B, "Yang", RATIO),
    _spec("api_tweet_similarity", CLASS_B, "Yang", BOOLEAN),
)

CLASS_C_SPECS: tuple[FeatureSpec, ...] = (
    _spec("bidirectional_link_ratio", CLASS_C, "Yang", RATIO),
    _spec("avg_neighbor_followers", CLASS_C, "Yang", RATIO),
    _spec("avg_neighbor_tweets", CLASS_C, "Yang", RATIO),
    _spec("friends_to_median_neighbor_followers", CLASS_C, "Yang", RATIO),
)

ALL_SPECS: tuple[FeatureSpec, ...] = CLASS_A_SPECS + CLASS_B_SPECS + CLASS_C_SPECS

_BY_NAME = {spec.name: spec for spec in ALL_SPECS}

#: The feature roster of each upstream detector, for set-level experiments.
STRINGHINI_SET = (
    "friends_count",
    "statuses_count",
    "message_similarity",
    "url_ratio",
    "friends_followers_sq_ratio",
)
YANG_SET = (
    "age_days",
    "bidirectional_link_ratio",
    "avg_neighbor_followers",
    "avg_neighbor_tweets",
    "friends_to_median_neighbor_followers",
    "api_ratio",
    "api_url_ratio",
    "api_tweet_similarity",
    "following_rate",
)


def catalog(class_filter: Optional[str] = None) -> tuple[FeatureSpec, ...]:
    """Feature specs in stable order, optionally limited to one cost class."""
    if class_filter is None:
        return ALL_SPECS
    cls = class_filter.upper()
    if cls not in COST_ORDER:
        raise KeyError(f"unknown cost class {class_filter!r}")
    return tuple(spec for spec in ALL_SPECS if spec.cost_class == cls)


def by_name(name: str) -> FeatureSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown feature {name!r}") from None


def specs_by_names(names) -> tuple[FeatureSpec, ...]:
    return tuple(by_name(n) for n in names)


def feature_set(selector: str) -> tuple[FeatureSpec, ...]:
    """Resolve a named selector (class-a/b/c, all, yang, stringhini)."""
    key = selector.strip().lower().replace("_", "-")
    if key in ("all", "class-all"):
        return ALL_SPECS
    if key in ("class-a", "a"):
        return CLASS_A_SPECS
    if key in ("class-b", "b"):
        return CLASS_B_SPECS
    if key in ("class-c", "c"):
        return CLASS_C_SPECS
    if key == "yang":
        return specs_by_names(YANG_SET)
    if key == "stringhini":
        return specs_by_names(STRINGHINI_SET)
    raise ValueError(
        f"unknown feature set {selector!r}; "
        "expected one of class-a, class-b, class-c, all, yang, stringhini"
    )

"""The three rule sets and the single-rule evaluator.

Rule directions: the 22 scoring rules treat satisfaction as human behavior;
the blogger signals and the fake-follower checks treat satisfaction as
fake/bot behavior. Rules never mutate state and are deterministic given the
immutable context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..corpus.errors import InsufficientDataError
from .context import (
    DUPLICATE_PICTURE_MIN,
    PUNCTUATION,
    AccountContext,
    capped_ratio,
    fraction,
)

CC = "CC"
SOS = "SOS"
SB = "SB"

MEANS_HUMAN = "satisfied-means-human"
MEANS_FAKE = "satisfied-means-fake"

SECONDS_PER_DAY = 86400.0
TWO_MONTHS_DAYS = 60.0


@dataclass(frozen=True)
class RuleId:
    ruleset: str
    index: int

    def __post_init__(self):
        if (self.ruleset, self.index) not in RULES:
            raise KeyError(f"unknown rule {self.ruleset} {self.index}")

    @property
    def direction(self) -> str:
        return MEANS_HUMAN if self.ruleset == CC else MEANS_FAKE

    def __str__(self) -> str:
        return f"{self.ruleset}-{self.index:02d}"


@dataclass(frozen=True)
class RuleOutcome:
    rule: RuleId
    satisfied: bool
    attribute_value: Optional[float] = None


@dataclass(frozen=True)
class RuleDef:
    ruleset: str
    index: int
    description: str
    fn: Callable[[AccountContext], tuple[bool, Optional[float]]]


def _count_and_flag(count: int) -> tuple[bool, float]:
    return count > 0, float(count)


def account_age_days(ctx: AccountContext) -> float:
    return (ctx.reference_time - ctx.account.created_at).total_seconds() / SECONDS_PER_DAY


def has_punctuation(text: str) -> bool:
    return not PUNCTUATION.isdisjoint(text)


# --- scoring rule set (satisfaction means human behavior) -------------------


def _cc_has_name(ctx):
    return bool(ctx.account.name.strip()), None


def _cc_has_image(ctx):
    return not ctx.account.default_profile_image, None


def _cc_has_address(ctx):
    return bool((ctx.account.location or "").strip()), None


def _cc_has_bio(ctx):
    return bool((ctx.account.description or "").strip()), None


def _cc_followers_30(ctx):
    return ctx.account.followers_count >= 30, float(ctx.account.followers_count)


def _cc_in_list(ctx):
    return ctx.account.listed_count >= 1, float(ctx.account.listed_count)


def _cc_tweets_50(ctx):
    return ctx.account.statuses_count >= 50, float(ctx.account.statuses_count)


def _cc_geo(ctx):
    return _count_and_flag(ctx.timeline_counts.geo)


def _cc_profile_url(ctx):
    return bool((ctx.account.url or "").strip()), None


def _cc_favourites(ctx):
    return ctx.account.favourites_count >= 1, float(ctx.account.favourites_count)


def _cc_punctuation(ctx):
    with_punct = ctx.text_counts.punctuation
    in_bio = has_punctuation(ctx.account.description or "")
    return in_bio or with_punct > 0, float(with_punct)


def _cc_hashtag(ctx):
    return _count_and_flag(ctx.timeline_counts.hashtag)


def _source_rule(keyword: str):
    def fn(ctx):
        return _count_and_flag(ctx.timeline_counts.source_keywords[keyword])

    return fn


def _cc_web(ctx):
    return _count_and_flag(ctx.timeline_counts.web)


def _cc_mention(ctx):
    return _count_and_flag(ctx.timeline_counts.mention)


def _cc_follower_friend_balance(ctx):
    return 2 * ctx.account.followers_count >= ctx.account.friends_count, None


def _cc_not_only_urls(ctx):
    return _count_and_flag(ctx.text_counts.beyond_urls)


def _cc_retweeted(ctx):
    return _count_and_flag(ctx.timeline_counts.retweeted)


def _cc_clients(ctx):
    clients = len(ctx.timeline_counts.sources)
    return clients >= 2, float(clients)


# --- blogger signals (satisfaction means bot behavior) ----------------------


def _sos_bot_in_bio(ctx):
    words = (ctx.account.description or "").lower().split()
    return any(w.strip("".join(PUNCTUATION)) == "bot" for w in words), None


def _sos_friends_followers_100(ctx):
    ratio = capped_ratio(ctx.account.friends_count, ctx.account.followers_count)
    return ratio >= 100.0, ratio


def _sos_same_sentence(ctx):
    return ctx.text_counts.same_sentence, None


def _sos_duplicate_picture(ctx):
    if ctx.fingerprint_counts is None:
        raise InsufficientDataError(
            "duplicate-picture rule needs dataset-level fingerprint counts"
        )
    fp = ctx.account.profile_image_fingerprint
    count = ctx.fingerprint_counts.get(fp, 0) if fp else 0
    return count >= DUPLICATE_PICTURE_MIN, None


def _sos_from_api(ctx):
    return _count_and_flag(ctx.timeline_counts.api)


# --- fake-follower checks (satisfaction means fake behavior) ----------------


def _sb_friends_followers_50(ctx):
    ratio = capped_ratio(ctx.account.friends_count, ctx.account.followers_count)
    return ratio >= 50.0, ratio


def _sb_spam_phrases(ctx):
    share = fraction(ctx.text_counts.spam, ctx.timeline_counts.tweets)
    return share > 0.30, share


def _sb_repeated_tweets(ctx):
    top = ctx.text_counts.top_repeat
    return top > 3, float(top)


def _sb_mostly_retweets(ctx):
    counts = ctx.timeline_counts
    share = fraction(counts.retweets, counts.tweets)
    return share > 0.90, share


def _sb_mostly_links(ctx):
    counts = ctx.timeline_counts
    share = fraction(counts.urls, counts.tweets)
    return share > 0.90, share


def _sb_never_tweeted(ctx):
    return ctx.account.statuses_count == 0, float(ctx.account.statuses_count)


def _sb_default_image_two_months(ctx):
    old = account_age_days(ctx) > TWO_MONTHS_DAYS
    return old and ctx.account.default_profile_image, None


def _sb_empty_profile_many_friends(ctx):
    a = ctx.account
    empty = not (a.description or "").strip() and not (a.location or "").strip()
    return empty and a.friends_count > 100, None


def _build_rules() -> dict[tuple[str, int], RuleDef]:
    cc = [
        ("profile has name", _cc_has_name),
        ("profile has image", _cc_has_image),
        ("profile has address", _cc_has_address),
        ("profile has biography", _cc_has_bio),
        ("at least 30 followers", _cc_followers_30),
        ("belongs to a list", _cc_in_list),
        ("at least 50 tweets", _cc_tweets_50),
        ("geo-localized tweet", _cc_geo),
        ("URL in profile", _cc_profile_url),
        ("included in favorites", _cc_favourites),
        ("punctuation in tweets or biography", _cc_punctuation),
        ("used a hashtag", _cc_hashtag),
        ("logged in from iPhone", _source_rule("iphone")),
        ("logged in from Android", _source_rule("android")),
        ("connected with Foursquare", _source_rule("foursquare")),
        ("connected with Instagram", _source_rule("instagram")),
        ("used the website to tweet", _cc_web),
        ("mentioned another user", _cc_mention),
        ("2*followers >= friends", _cc_follower_friend_balance),
        ("content beyond plain URLs", _cc_not_only_urls),
        ("has a retweeted tweet", _cc_retweeted),
        ("used different clients", _cc_clients),
    ]
    sos = [
        ("'bot' in biography", _sos_bot_in_bio),
        ("friends/followers around 100:1", _sos_friends_followers_100),
        ("same sentence to many accounts", _sos_same_sentence),
        ("duplicate profile picture", _sos_duplicate_picture),
        ("tweets from API", _sos_from_api),
    ]
    sb = [
        ("friends/followers 50:1 or more", _sb_friends_followers_50),
        ("over 30% spam phrases", _sb_spam_phrases),
        ("same tweet repeated over 3 times", _sb_repeated_tweets),
        ("over 90% retweets", _sb_mostly_retweets),
        ("over 90% link tweets", _sb_mostly_links),
        ("never tweeted", _sb_never_tweeted),
        ("default image after two months", _sb_default_image_two_months),
        ("no bio, no location, over 100 friends", _sb_empty_profile_many_friends),
    ]
    rules: dict[tuple[str, int], RuleDef] = {}
    for ruleset, entries in ((CC, cc), (SOS, sos), (SB, sb)):
        for i, (desc, fn) in enumerate(entries, start=1):
            rules[(ruleset, i)] = RuleDef(ruleset, i, desc, fn)
    return rules


RULES: dict[tuple[str, int], RuleDef] = _build_rules()

ALL_RULE_IDS: tuple[RuleId, ...] = tuple(
    RuleId(ruleset, index)
    for ruleset in (CC, SOS, SB)
    for (rs, index) in sorted(k for k in RULES if k[0] == ruleset)
)


_RULESET_IDS: dict[str, tuple[RuleId, ...]] = {
    ruleset: tuple(r for r in ALL_RULE_IDS if r.ruleset == ruleset) for ruleset in (CC, SOS, SB)
}


def rule_ids(ruleset: str) -> tuple[RuleId, ...]:
    return _RULESET_IDS.get(ruleset, ())


def evaluate_rule(rule: RuleId, ctx: AccountContext) -> RuleOutcome:
    """The rule's outcome on ``ctx``, computed once and then read from
    ``ctx.outcomes``."""
    key = (rule.ruleset, rule.index)
    outcome = ctx.outcomes.get(key)
    if outcome is None:
        satisfied, attribute = RULES[key].fn(ctx)
        outcome = ctx.outcomes[key] = RuleOutcome(
            rule=rule, satisfied=bool(satisfied), attribute_value=attribute
        )
    return outcome


def describe(rule: RuleId) -> str:
    return RULES[(rule.ruleset, rule.index)].description

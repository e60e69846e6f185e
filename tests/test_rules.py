"""Rule catalog, scoring algorithm, ruleset runs, and the per-rule report."""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fakescope.cli import main
from fakescope.corpus import InsufficientDataError, SynthConfig, save_dataset, synthesize
from fakescope.metrics import MetricError
from fakescope.rules import (
    ALL_RULE_IDS,
    AccountContext,
    RuleId,
    cc_classify,
    evaluate_rule,
    iter_contexts,
    rule_ids,
    rule_report,
    run_ruleset,
)
from fakescope.rules.context import text_counts, timeline_counts

from conftest import REF, make_account, make_dataset, make_tweet


def context_for(account, tweets=(), counts=None):
    return AccountContext(
        account=account,
        tweets=tuple(tweets),
        reference_time=REF,
        fingerprint_counts=counts or {},
    )


# --- the three hand-traced scoring fixtures ----------------------------------


def all_satisfied_context():
    account = make_account(
        "good",
        "human",
        name="Alice",
        followers_count=31,
        friends_count=40,
        statuses_count=60,
        listed_count=2,
        favourites_count=3,
        url="http://a.example",
        location="Rome",
        description="Love cycling! Really.",
        default_profile_image=False,
    )
    tweets = [
        make_tweet("good", 0, source="web", text="Hello world! #fun @bob",
                   is_geolocalized=True, retweet_count=2, num_hashtags=1, num_mentions=1),
        make_tweet("good", 1, source="iphone", text="Nice day."),
        make_tweet("good", 2, source="android", text="On my way."),
        make_tweet("good", 3, source="foursquare", text="Checked in."),
        make_tweet("good", 4, source="instagram", text="Photo http://i.example/x", num_urls=1),
    ]
    return context_for(account, tweets)


def all_failed_api_context():
    account = make_account(
        "bad",
        "fake",
        name="",
        followers_count=5,
        friends_count=25,
        statuses_count=3,
        listed_count=0,
        favourites_count=0,
        url=None,
        location=None,
        description=None,
        default_profile_image=True,
    )
    tweets = [
        make_tweet("bad", i, source="api", text="", num_urls=1) for i in range(3)
    ]
    return context_for(account, tweets)


def neutral_context():
    account = make_account(
        "mid",
        None,
        name="Carl",
        followers_count=31,
        friends_count=40,
        statuses_count=60,
        listed_count=0,
        favourites_count=0,
        url=None,
        location="Pisa",
        description="x",
        default_profile_image=False,
    )
    tweets = [make_tweet("mid", 0, source="web", text="hello world")]
    return context_for(account, tweets)


class TestEvaluateRule:
    def test_follower_threshold(self):
        ctx = context_for(make_account("u", followers_count=31))
        outcome = evaluate_rule(RuleId("CC", 5), ctx)
        assert outcome.satisfied
        assert outcome.attribute_value == 31.0

    def test_follower_friend_balance_no_attribute(self):
        ctx = context_for(make_account("u", followers_count=10, friends_count=25))
        outcome = evaluate_rule(RuleId("CC", 19), ctx)
        assert not outcome.satisfied
        assert outcome.attribute_value is None

    def test_never_tweeted(self):
        ctx = context_for(make_account("u", statuses_count=0))
        assert evaluate_rule(RuleId("SB", 6), ctx).satisfied

    def test_duplicate_picture_threshold(self):
        accounts = [
            make_account(f"u{i}", "fake", profile_image_fingerprint="shared") for i in range(3)
        ]
        ds = make_dataset(accounts)
        for ctx in iter_contexts(ds):
            assert evaluate_rule(RuleId("SOS", 4), ctx).satisfied

    def test_two_of_a_picture_not_enough(self):
        accounts = [
            make_account(f"u{i}", "fake", profile_image_fingerprint="shared") for i in range(2)
        ]
        ds = make_dataset(accounts)
        for ctx in iter_contexts(ds):
            assert not evaluate_rule(RuleId("SOS", 4), ctx).satisfied

    def test_timeline_rule_without_tweets_is_an_error(self):
        ctx = AccountContext(
            account=make_account("u"), tweets=None, reference_time=REF, fingerprint_counts={}
        )
        with pytest.raises(InsufficientDataError):
            evaluate_rule(RuleId("CC", 8), ctx)

    def test_api_signal_directions(self):
        web_only = context_for(make_account("u"), [make_tweet("u", 0, source="web")])
        mixed = context_for(
            make_account("u"),
            [make_tweet("u", 0, source="web"), make_tweet("u", 1, source="tweetdeck")],
        )
        assert not evaluate_rule(RuleId("SOS", 5), web_only).satisfied
        assert evaluate_rule(RuleId("SOS", 5), mixed).satisfied

    def test_ratio_rules_with_zero_followers(self):
        ctx = context_for(make_account("u", followers_count=0, friends_count=10))
        assert evaluate_rule(RuleId("SOS", 2), ctx).satisfied
        assert evaluate_rule(RuleId("SB", 1), ctx).satisfied

    def test_same_sentence_rule(self):
        spam = make_tweet("u", 0, text="@bob check this out", num_mentions=1)
        spam2 = make_tweet("u", 1, text="@bob check this out", num_mentions=1)
        other = make_tweet("u", 2, text="something else entirely")
        ctx = context_for(make_account("u"), [spam, spam2, other])
        assert evaluate_rule(RuleId("SOS", 3), ctx).satisfied
        no_mention = [
            make_tweet("u", 0, text="check this out"),
            make_tweet("u", 1, text="check this out"),
        ]
        assert not evaluate_rule(
            RuleId("SOS", 3), context_for(make_account("u"), no_mention)
        ).satisfied

    def test_spam_phrases(self):
        tweets = [
            make_tweet("u", 0, text="I can work from home and make money"),
            make_tweet("u", 1, text="nothing here"),
        ]
        outcome = evaluate_rule(RuleId("SB", 2), context_for(make_account("u"), tweets))
        assert outcome.satisfied
        assert outcome.attribute_value == pytest.approx(0.5)

    def test_default_image_after_two_months(self):
        old = make_account("u", default_profile_image=True)
        young = make_account(
            "u2", default_profile_image=True, created_at=REF.replace(month=3, day=15)
        )
        assert evaluate_rule(RuleId("SB", 7), context_for(old)).satisfied
        assert not evaluate_rule(RuleId("SB", 7), context_for(young)).satisfied

    def test_empty_timeline_ratio_rules_not_satisfied(self):
        ctx = context_for(make_account("u"), [])
        for index in (4, 5):
            assert not evaluate_rule(RuleId("SB", index), ctx).satisfied


# --- the one-pass timeline counts against per-question scans ----------------

_URL = re.compile(r"https?://\S*")
_WORDS = ["http://x.co/a", "https://y", "http", "xhttp://q", "#tag", "@bob", ".", "!",
          "diet", "make money", "Work From Home", "one", "two", "  "]
_SOURCES = ["web", " Web ", "TWITTER.COM", "iPhone", "twitter for android", "foursquare",
            "Instagram", "api", "", "iphone android"]


@st.composite
def timelines(draw):
    n = draw(st.integers(0, 30))
    texts = draw(st.lists(st.lists(st.sampled_from(_WORDS), max_size=6), min_size=n, max_size=n))
    tweets = []
    for i, words in enumerate(texts):
        text = " ".join(words)
        if tweets and draw(st.booleans()):
            text = tweets[draw(st.integers(0, len(tweets) - 1))].text  # repeats
        tweets.append(make_tweet(
            "u", i, text=text, source=draw(st.sampled_from(_SOURCES)),
            is_retweet=draw(st.booleans()), retweet_count=draw(st.sampled_from([0, 2])),
            is_geolocalized=draw(st.booleans()), num_hashtags=draw(st.integers(0, 1)),
            num_mentions=draw(st.integers(0, 1)), num_urls=draw(st.integers(0, 1)),
        ))
    return tuple(tweets)


@settings(max_examples=100, deadline=None)
@given(timelines(), st.sampled_from([("diet", "make money"), ("Bot", "", "HTTP"), ()]))
def test_timeline_and_text_counts_match_per_question_scans(tweets, phrases):
    counts = timeline_counts(tweets)
    sources = [t.source.strip().lower() for t in tweets]
    api = [t for t, s in zip(tweets, sources) if s not in ("web", "twitter.com")]
    assert counts.tweets == len(tweets)
    assert counts.geo == sum(t.is_geolocalized for t in tweets)
    assert counts.hashtag == sum(t.num_hashtags >= 1 for t in tweets)
    assert counts.mention == sum(t.num_mentions >= 1 for t in tweets)
    assert counts.retweeted == sum(t.retweet_count >= 1 for t in tweets)
    assert counts.retweets == sum(t.is_retweet for t in tweets)
    assert counts.urls == sum(t.num_urls >= 1 for t in tweets)
    assert counts.api == len(api) == len(tweets) - counts.web
    assert counts.api_urls == sum(t.num_urls >= 1 for t in api)
    assert set(counts.sources) == set(sources)
    for keyword in ("iphone", "android", "foursquare", "instagram"):
        assert counts.source_keywords[keyword] == sum(keyword in s for s in sources)

    text = text_counts(tweets, phrases)
    lowered = [p.lower() for p in phrases]
    window = {}
    for t in tweets[:20]:
        window.setdefault(t.text.strip(), []).append(t)
    repeats = [t.text.strip() for t in tweets if t.text.strip()]
    assert text.punctuation == sum(any(c in ".,;:!?" for c in t.text) for t in tweets)
    assert text.beyond_urls == sum(bool(_URL.sub(" ", t.text).strip()) for t in tweets)
    assert text.spam == sum(any(p in t.text.lower() for p in lowered) for t in tweets)
    assert text.top_repeat == max((repeats.count(r) for r in repeats), default=0)
    assert text.same_sentence == any(
        text and len(group) >= 2 and all(t.num_mentions >= 1 for t in group)
        for text, group in window.items()
    )


class TestCcClassify:
    def test_all_satisfied(self):
        score = cc_classify(all_satisfied_context())
        assert score.human_points == 25
        assert score.bot_points == 0
        assert score.score == 25
        assert score.verdict == "human"

    def test_all_failed_api_only(self):
        score = cc_classify(all_failed_api_context())
        assert score.human_points == 0
        assert score.bot_points == 19
        assert score.score == -19
        assert score.verdict == "bot"

    def test_score_zero_is_neutral(self):
        score = cc_classify(neutral_context())
        assert score.score == 0
        assert score.verdict == "neutral"

    def test_boundary_minus_four_is_neutral(self):
        from fakescope.rules.scoring import CcScore

        assert CcScore(human_points=0, bot_points=4).verdict == "neutral"
        assert CcScore(human_points=0, bot_points=5).verdict == "bot"

    def test_order_invariance(self):
        from fakescope.rules.scoring import FAIL_BOT_POINTS, HUMAN_POINTS, NO_BOT_POINT_ON_FAIL, api_only

        ctx = neutral_context()
        human = bot = 0
        for rule in reversed(rule_ids("CC")):
            outcome = evaluate_rule(rule, ctx)
            if outcome.satisfied:
                human += HUMAN_POINTS.get(rule.index, 1)
            elif rule.index not in NO_BOT_POINT_ON_FAIL:
                bot += FAIL_BOT_POINTS.get(rule.index, 1)
        if api_only(ctx):
            bot += 2
        score = cc_classify(ctx)
        assert (human, bot) == (score.human_points, score.bot_points)

    def test_monotone_in_satisfied_rules(self):
        base = all_failed_api_context()
        improved = AccountContext(
            account=base.account,
            tweets=base.tweets,
            reference_time=base.reference_time,
            fingerprint_counts=base.fingerprint_counts,
        )
        improved = context_for(
            make_account(
                "bad2", "fake", name="Now Named", followers_count=5, friends_count=25,
                statuses_count=3, listed_count=0, favourites_count=0, url=None,
                location=None, description=None, default_profile_image=True,
            ),
            base.tweets,
        )
        assert cc_classify(improved).score >= cc_classify(base).score


class TestRunRuleset:
    def test_empty_dataset(self):
        ds = make_dataset([])
        run = run_ruleset("cc", ds)
        assert run.verdicts == {}

    def test_score_bounds_and_verdict_mapping(self, paper_like_small):
        run = run_ruleset("cc", paper_like_small)
        for score in run.scores.values():
            assert 0 <= score.human_points <= 25
            assert score.bot_points >= 0
            if score.score > 0:
                assert score.verdict == "human"
            elif score.score >= -4:
                assert score.verdict == "neutral"
            else:
                assert score.verdict == "bot"

    def test_cc_on_human_like_fixture(self, paper_like_small):
        run = run_ruleset("cc", paper_like_small)
        humans = [
            uid for uid, a in paper_like_small.accounts.items() if a.label == "human"
        ]
        human_verdicts = [run.verdicts[uid] for uid in humans]
        share = human_verdicts.count("human") / len(human_verdicts)
        assert share >= 0.95

    def test_sos_outputs_per_rule_booleans(self, paper_like_small):
        run = run_ruleset("sos", paper_like_small)
        row = next(iter(run.outcomes.values()))
        assert sorted(row) == [1, 2, 3, 4, 5]
        assert all(isinstance(v, bool) for v in row.values())

    def test_unknown_ruleset(self, paper_like_small):
        with pytest.raises(ValueError):
            run_ruleset("nope", paper_like_small)


class TestRuleReport:
    def test_copying_rule_scores_perfectly(self):
        # rule output == label exactly: followers >= 30 marks every human
        accounts = [
            make_account(f"h{i}", "human", followers_count=100) for i in range(4)
        ] + [make_account(f"f{i}", "fake", followers_count=3) for i in range(4)]
        ds = make_dataset(accounts, tweets={})
        rows = {str(r.rule): r for r in rule_report(ds, rules=(RuleId("CC", 5),))}
        row = rows["CC-05"]
        assert row.mcc == pytest.approx(1.0)
        assert row.i_gain == pytest.approx(1.0)

    def test_constant_rule_degenerate_row(self):
        accounts = [make_account(f"h{i}", "human") for i in range(3)]
        accounts += [make_account(f"f{i}", "fake") for i in range(3)]
        ds = make_dataset(accounts)
        rows = {str(r.rule): r for r in rule_report(ds, rules=(RuleId("CC", 1),))}
        row = rows["CC-01"]  # every fixture account has a name
        assert row.accuracy == pytest.approx(0.5)
        assert row.mcc == 0.0
        assert row.i_gain == 0.0
        assert row.pcc == 0.0

    def test_single_class_rejected(self):
        ds = make_dataset([make_account("h1", "human"), make_account("h2", "human")])
        with pytest.raises(MetricError):
            rule_report(ds)

    def test_direction_flip_negates_mcc(self, paper_like_small):
        from fakescope.metrics import ConfusionMatrix, mcc as mcc_of

        ds = paper_like_small
        contexts = list(iter_contexts(ds))
        y = [1.0 if c.account.label == "fake" else 0.0 for c in contexts]
        outputs = [
            1.0 if evaluate_rule(RuleId("CC", 5), c).satisfied else 0.0 for c in contexts
        ]
        as_human_rule = [1.0 - o for o in outputs]
        m1 = mcc_of(ConfusionMatrix.from_predictions(y, as_human_rule))
        m2 = mcc_of(ConfusionMatrix.from_predictions(y, outputs))
        assert m1 == pytest.approx(-m2, abs=1e-12)

    def test_full_report_covers_all_rules(self, paper_like_small):
        rows = rule_report(paper_like_small)
        assert len(rows) == len(ALL_RULE_IDS) == 35
        strong = {str(r.rule): r.mcc for r in rows}
        # follower and tweet thresholds are strong signals on this corpus
        assert strong["CC-05"] > 0.6
        assert strong["CC-07"] > 0.6


# sha256 of the CLI's rules artifacts on a fixed corpus, recorded before the
# rules read per-account timeline aggregates
GOLDEN_RULES = {
    "verdicts_cc.csv":
        "cdd2ef37a6bf951a568ec2097c5dd34755814dd2f05c1d1c9d578af1ad677923",
    "verdicts_sos.csv":
        "78709c292528356a20f09e4d3bdff2ddc1e084874a1d7e74d4e3da60cb541fdf",
    "verdicts_sb.csv":
        "35e34b5c2dfe648d26d2d9fcab1dc6ddc0b75825b5287223b253157c818bdeb3",
    "rule_report.csv":
        "625a1b1cd0b151059be0aa2a1edbf674111a4ff365cb53a92e1a2512124bf76b",
}


def test_rules_artifacts_are_byte_identical_to_golden(tmp_path):
    save_dataset(synthesize(SynthConfig.paper_like(seed=13, n_humans=60, n_fakes=60)),
                 tmp_path / "corpus")
    out = tmp_path / "rules"
    assert main(["rules", str(tmp_path / "corpus"), "--report", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_RULES}
    assert digests == GOLDEN_RULES

"""Corpus layer: ingestion, validation, synthesis, resampling, folds."""

import filecmp
import json
import shutil
import tempfile
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fakescope.corpus import (
    CorpusError,
    DanglingReferenceError,
    DuplicateIdError,
    EmptyCorpusError,
    MalformedRowError,
    SynthConfig,
    load_dataset,
    rebalance,
    save_dataset,
    split_folds,
    synthesize,
    validate,
)

from fakescope.corpus.io import format_timestamp
from fakescope.corpus.model import NeighborSummary, utc

from conftest import REF, make_account, make_dataset, make_tweet

USERS_HEADER = (
    "id,screen_name,name,created_at,followers_count,friends_count,statuses_count,"
    "listed_count,favourites_count,url,location,description,default_profile_image,"
    "profile_image_hash,label"
)


def write_corpus(tmp_path, users_rows, tweet_rows=(), edge_rows=(), neighbor_rows=()):
    (tmp_path / "users.csv").write_text(USERS_HEADER + "\n" + "".join(r + "\n" for r in users_rows))
    if tweet_rows or True:
        header = "id,user_id,created_at,text,source,is_retweet,retweet_count,geo,num_hashtags,num_mentions,num_urls"
        (tmp_path / "tweets.csv").write_text(header + "\n" + "".join(r + "\n" for r in tweet_rows))
    (tmp_path / "edges.csv").write_text(
        "follower_id,followed_id\n" + "".join(r + "\n" for r in edge_rows)
    )
    if neighbor_rows:
        (tmp_path / "neighbors.csv").write_text(
            "id,followers_count,statuses_count\n" + "".join(r + "\n" for r in neighbor_rows)
        )
    return tmp_path


def user_row(uid, label="human", followers=100):
    return (
        f"{uid},sn_{uid},Sam,2014-01-01T00:00:00Z,{followers},50,60,1,2,,,"
        f",0,pic-{uid},{label}"
    )


class TestLoad:
    def test_short_row_without_user_id_named(self, tmp_path):
        write_corpus(tmp_path, [user_row("u1")])
        (tmp_path / "tweets.csv").write_text("id,created_at,user_id\nt1,2014-02-01T00:00:00Z\n")
        with pytest.raises(MalformedRowError) as err:
            load_dataset(tmp_path)
        assert (err.value.file, err.value.line, err.value.column, err.value.reason) == (
            str(tmp_path / "tweets.csv"), 2, "user_id", "empty value")

    def test_empty_users_file(self, tmp_path):
        write_corpus(tmp_path, [])
        with pytest.raises(EmptyCorpusError, match="no accounts"):
            load_dataset(tmp_path)

    def test_missing_users_file(self, tmp_path):
        with pytest.raises(EmptyCorpusError, match="no users file"):
            load_dataset(tmp_path)

    def test_dangling_tweet_reference(self, tmp_path):
        write_corpus(
            tmp_path,
            [user_row("u1"), user_row("u2", label="fake")],
            ["t1,u3,2014-02-01T00:00:00Z,hello,web,0,0,0,0,0,0"],
        )
        with pytest.raises(DanglingReferenceError, match="t1"):
            load_dataset(tmp_path)

    def test_duplicate_user_id(self, tmp_path):
        write_corpus(tmp_path, [user_row("u1"), user_row("u1")])
        with pytest.raises(DuplicateIdError, match="u1"):
            load_dataset(tmp_path)

    def test_malformed_row_names_file_line_column(self, tmp_path):
        rows = [user_row("u1"), user_row("u2").replace(",100,", ",many,")]
        write_corpus(tmp_path, rows)
        with pytest.raises(MalformedRowError) as err:
            load_dataset(tmp_path)
        assert "users.csv" in str(err.value)
        assert err.value.line == 3
        assert err.value.column == "followers_count"

    def test_wellformed_corpus_groups_tweets(self, tmp_path):
        users = [user_row(f"u{i}", label="human" if i % 2 else "fake") for i in range(10)]
        tweets = [
            f"t{i}-{j},u{i},2014-03-0{j + 1}T00:00:00Z,hello world,web,0,0,0,0,0,0"
            for i in range(10)
            for j in range(i % 3)
        ]
        edges = ["u0,u1", "u1,u0", "u2,ext1"]
        neighbors = ["ext1,5000,100"]
        write_corpus(tmp_path, users, tweets, edges, neighbors)
        ds = load_dataset(tmp_path)
        assert len(ds) == 10
        assert len(ds.timeline("u2")) == 2
        assert len(ds.timeline("u0")) == 0
        assert ds.graph.friends_of("u2") == ("ext1",)
        assert validate(ds).ok

    def test_unresolved_friend_rejected(self, tmp_path):
        write_corpus(tmp_path, [user_row("u1")], edge_rows=["u1,ghost"])
        with pytest.raises(DanglingReferenceError, match="ghost"):
            load_dataset(tmp_path)

    def test_entity_counts_derived_from_text(self, tmp_path):
        write_corpus(
            tmp_path,
            [user_row("u1")],
            ["t1,u1,2014-02-01T00:00:00Z,see #a #b @c http://x.example/z,web,0,0,0,,,"],
        )
        ds = load_dataset(tmp_path)
        tweet = ds.timeline("u1")[0]
        assert (tweet.num_hashtags, tweet.num_mentions, tweet.num_urls) == (2, 1, 1)

    def test_json_variant_roundtrip(self, tmp_path, paper_like_small):
        subset = paper_like_small.subset(paper_like_small.account_ids[:40])
        save_dataset(subset, tmp_path / "json", fmt="json")
        loaded = load_dataset(tmp_path / "json", fmt="json")
        assert loaded.account_ids == subset.account_ids
        assert sorted(loaded.graph.edges) == sorted(subset.graph.edges)

    def test_json_rows_are_the_bytes_of_json_dumps(self, tmp_path):
        text = 'a "quoted" \\ back\nslash, tab\t, caf\u00e9 \U0001f600 \u2028'
        ds = make_dataset(
            [make_account("u1", "human", name="Ren\u00e9e \"R\"", description=text)],
            {"u1": [make_tweet("u1", 0, text=text, source="Twitter\tfor\u00a0iPhone")]},
        )
        save_dataset(ds, tmp_path, fmt="json")
        for name in ("users", "tweets"):
            for line in (tmp_path / f"{name}.json").read_text(encoding="utf-8").splitlines():
                assert line == json.dumps(json.loads(line), sort_keys=True)
        loaded = load_dataset(tmp_path, fmt="json", reference_time=REF)
        assert loaded.accounts == ds.accounts
        assert loaded.tweets == ds.tweets

    def test_each_file_parsed_by_its_extension(self, tmp_path, paper_like_small):
        subset = paper_like_small.subset(paper_like_small.account_ids[:40])
        save_dataset(subset, tmp_path / "csv")
        save_dataset(subset, tmp_path / "mixed", fmt="json")
        (tmp_path / "mixed" / "users.json").rename(tmp_path / "mixed" / "users.jsonl")
        (tmp_path / "mixed" / "edges.json").unlink()
        shutil.copy(tmp_path / "csv" / "edges.csv", tmp_path / "mixed")
        expected = load_dataset(tmp_path / "csv", fmt="json")
        for fmt in ("csv", "json"):
            loaded = load_dataset(tmp_path / "mixed", fmt=fmt)
            assert loaded.accounts == expected.accounts
            assert loaded.tweets == expected.tweets
            assert loaded.graph.edges == expected.graph.edges

    def test_csv_roundtrip_semantically_equal(self, tmp_path, paper_like_small):
        subset = paper_like_small.subset(paper_like_small.account_ids[:60])
        save_dataset(subset, tmp_path / "a", fmt="csv")
        loaded = load_dataset(tmp_path / "a", reference_time=subset.reference_time)
        assert loaded.accounts == subset.accounts
        assert {u: tuple(t) for u, t in loaded.tweets.items()} == subset.tweets
        assert sorted(loaded.graph.edges) == sorted(subset.graph.edges)
        # a second serialization is byte-identical
        save_dataset(loaded, tmp_path / "b", fmt="csv")
        for name in ("users.csv", "tweets.csv", "edges.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


TWEETS_HEADER = (
    "id,user_id,created_at,text,source,is_retweet,retweet_count,geo,"
    "num_hashtags,num_mentions,num_urls"
)
GOOD_TWEET = ["t1", "u1", "2014-02-01T00:00:00Z", "hi", "web", "0", "0", "0", "0", "0", "0"]


def write_table(directory, fmt, name, header, rows):
    """Rows are cell lists in header order; a short list is a short row (csv)
    or an object missing the trailing fields (JSON lines)."""
    columns = header.split(",")
    if fmt == "csv":
        text = "".join(",".join(row) + "\n" for row in [columns, *rows])
    else:
        text = "".join(json.dumps(dict(zip(columns, row))) + "\n" for row in rows)
    (directory / f"{name}.{fmt}").write_text(text)


def write_tables(directory, fmt, users, tweets):
    for name, header, rows in (("users", USERS_HEADER, users), ("tweets", TWEETS_HEADER, tweets)):
        write_table(directory, fmt, name, header, rows)


#: A loadable corpus, one row per table: header and rows of each table.
GOOD_TABLES = {
    "users": (USERS_HEADER, [user_row("u1").split(",")]),
    "tweets": (TWEETS_HEADER, [GOOD_TWEET]),
    "edges": ("follower_id,followed_id", [["u1", "n1"]]),
    "neighbors": ("id,followers_count,statuses_count", [["n1", "5", "6"]]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
class TestLoadRows:
    """Cell parsing and the file/line/column/reason of every row error."""

    def test_short_row_takes_defaults(self, tmp_path, fmt):
        write_tables(
            tmp_path,
            fmt,
            [["u1", "sn_u1", "Sam", "2014-01-01T00:00:00Z", "100"]],
            [["t1", "u1", "2014-02-01T00:00:00Z", "see #a @b"]],
        )
        ds = load_dataset(tmp_path, fmt=fmt)
        account = ds.accounts["u1"]
        assert (account.followers_count, account.friends_count, account.favourites_count) == (
            100, 0, 0)
        assert (account.url, account.description, account.label) == (None, None, None)
        assert account.default_profile_image is False
        tweet = ds.timeline("u1")[0]
        assert (tweet.source, tweet.is_retweet, tweet.retweet_count) == ("", False, 0)
        assert (tweet.num_hashtags, tweet.num_mentions, tweet.num_urls) == (1, 1, 0)

    @pytest.mark.parametrize(
        "bad, column, reasons",
        [
            (GOOD_TWEET[:2], "created_at",
             {"csv": "empty value", "json": "missing required field"}),
            (GOOD_TWEET[:2] + [""], "created_at", {"csv": "empty value", "json": "empty value"}),
            (GOOD_TWEET[:6] + ["x"], "retweet_count",
             dict.fromkeys(("csv", "json"), "invalid literal for int() with base 10: 'x'")),
            (GOOD_TWEET[:5] + ["maybe"], "is_retweet",
             dict.fromkeys(("csv", "json"), "not a 0/1 flag: 'maybe'")),
            (GOOD_TWEET[:2] + ["yesterday"], "created_at",
             dict.fromkeys(("csv", "json"), "Invalid isoformat string: 'yesterday'")),
        ],
        ids=["short", "blank", "bad-int", "bad-bool", "bad-timestamp"],
    )
    def test_bad_tweet_cell_named(self, tmp_path, fmt, bad, column, reasons):
        write_tables(tmp_path, fmt, [user_row("u1").split(",")], [GOOD_TWEET, ["t2"] + bad[1:]])
        with pytest.raises(MalformedRowError) as err:
            load_dataset(tmp_path, fmt=fmt)
        line = 3 if fmt == "csv" else 2  # the csv header is line 1
        assert (err.value.file, err.value.line, err.value.column, err.value.reason) == (
            str(tmp_path / f"tweets.{fmt}"), line, column, reasons[fmt])

    @pytest.mark.parametrize(
        "table, bad, column, reasons",
        [
            ("users", ["", "sn_u2", "Sam", "2014-01-01T00:00:00Z"], "id", {}),
            ("users", ["u2", " ", "Sam", "2014-01-01T00:00:00Z"], "screen_name", {}),
            ("users", ["u2"], "screen_name", {"json": "missing required field"}),
            ("tweets", ["", "u1", "2014-02-01T00:00:00Z"], "id", {}),
            ("tweets", ["t2", " ", "2014-02-01T00:00:00Z"], "user_id", {}),
            ("tweets", ["t2"], "user_id", {"json": "missing required field"}),
            ("neighbors", ["", "5", "6"], "id", {}),
            ("edges", ["", "u1"], "follower_id", {}),
            ("edges", ["u1"], "followed_id", {"json": "missing required field"}),
        ],
        ids=["user-id-blank", "screen-name-blank", "screen-name-short", "tweet-id-blank",
             "tweet-user-blank", "tweet-user-short", "neighbor-id-blank", "follower-blank",
             "followed-short"],
    )
    def test_missing_or_blank_identifier_named(self, tmp_path, fmt, table, bad, column, reasons):
        for name, (header, rows) in GOOD_TABLES.items():
            write_table(tmp_path, fmt, name, header, rows + [bad] * (name == table))
        with pytest.raises(MalformedRowError) as err:
            load_dataset(tmp_path, fmt=fmt)
        line = 3 if fmt == "csv" else 2  # the csv header is line 1
        assert (err.value.file, err.value.line, err.value.column, err.value.reason) == (
            str(tmp_path / f"{table}.{fmt}"), line, column, reasons.get(fmt, "empty value"))


class TestValidate:
    def test_valid_fixture_empty_report(self):
        ds = make_dataset([make_account("u1", "human")])
        assert validate(ds).ok

    def test_negative_count_reported(self):
        ds = make_dataset([make_account("u1", "human", followers_count=-1)])
        report = validate(ds)
        assert len(report) == 1
        assert report.violations[0].code == "negative_count"

    def test_future_tweet_reported(self):
        tweet = make_tweet("u1", 0, created_at=REF + timedelta(days=2))
        ds = make_dataset([make_account("u1", "human")], tweets={"u1": [tweet]})
        report = validate(ds)
        assert [v.code for v in report.violations] == ["future_tweet"]

    def test_timeline_for_unknown_account_reported(self):
        stray = make_tweet("ghost", 0)
        ds = make_dataset([make_account("u1", "human")], tweets={"ghost": [stray]})
        assert "dangling_tweet_owner" in [v.code for v in validate(ds).violations]


class TestSynthesize:
    def test_class_counts(self):
        ds = synthesize(SynthConfig(n_humans=0, n_fakes=5, seed=1))
        counts = ds.class_counts()
        assert counts == {"human": 0, "fake": 5}

    def test_determinism_byte_identical(self, tmp_path):
        config = SynthConfig(n_humans=30, n_fakes=30, seed=42)
        save_dataset(synthesize(config), tmp_path / "one")
        save_dataset(synthesize(config), tmp_path / "two")
        for name in ("users.csv", "tweets.csv", "edges.csv", "neighbors.csv"):
            assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name, shallow=False)

    def test_generated_dataset_validates(self, paper_like_small):
        assert validate(paper_like_small).ok

    def test_url_ratio_echo(self, paper_like_full):
        from fakescope.features import extract, specs_by_names

        matrix = extract(paper_like_full, specs_by_names(["url_ratio"]))
        url = matrix.column("url_ratio")
        y = matrix.y01()
        fake_low = float(((url < 0.05) & (y == 1)).sum()) / float((y == 1).sum())
        human_low = float(((url < 0.05) & (y == 0)).sum()) / float((y == 0).sum())
        assert fake_low > 0.70
        assert human_low < 0.20

    def test_invalid_config_rejected(self):
        with pytest.raises(CorpusError):
            SynthConfig(n_humans=-1, n_fakes=5, seed=0).check()
        profile = SynthConfig(n_humans=1, n_fakes=1, seed=0).human
        bad = SynthConfig(
            n_humans=1,
            n_fakes=1,
            seed=0,
            human=type(profile)(**{**profile.__dict__, "p_name": 1.5}),
        )
        with pytest.raises(CorpusError, match="p_name"):
            bad.check()


class TestRebalance:
    def test_balanced_identity_counts(self, paper_like_small):
        out = rebalance(paper_like_small, 0.5, 1000, seed=3)
        assert out.class_counts() == {"human": 500, "fake": 500}
        assert set(out.account_ids) <= set(paper_like_small.account_ids)

    def test_five_percent_mixture(self, paper_like_full):
        out = rebalance(paper_like_full, 0.05, 2000, seed=3)
        assert out.class_counts() == {"human": 100, "fake": 1900}

    def test_ninety_five_percent_mixture(self, paper_like_full):
        out = rebalance(paper_like_full, 0.95, 2000, seed=3)
        assert out.class_counts() == {"human": 1900, "fake": 100}

    def test_insufficient_class_named(self, paper_like_small):
        with pytest.raises(CorpusError, match="human"):
            rebalance(paper_like_small, 0.9, 1000, seed=0)

    def test_deterministic(self, paper_like_small):
        a = rebalance(paper_like_small, 0.3, 200, seed=9)
        b = rebalance(paper_like_small, 0.3, 200, seed=9)
        assert a.account_ids == b.account_ids


class TestSplitFolds:
    def test_forced_stratification(self):
        accounts = [make_account(f"h{i}", "human") for i in range(5)]
        accounts += [make_account(f"f{i}", "fake") for i in range(5)]
        ds = make_dataset(accounts)
        plan = split_folds(ds, 5, seed=1)
        for fold in plan.folds:
            assert len(fold) == 2
            labels = sorted(ds.accounts[uid].label for uid in fold)
            assert labels == ["fake", "human"]

    def test_equal_folds_full_scale(self, paper_like_full):
        plan = split_folds(paper_like_full, 10, seed=2)
        assert all(len(fold) == 390 for fold in plan.folds)

    def test_partition_properties(self, paper_like_small):
        plan = split_folds(paper_like_small, 7, seed=5)
        everything = [uid for fold in plan.folds for uid in fold]
        assert sorted(everything) == sorted(paper_like_small.account_ids)
        assert len(set(everything)) == len(everything)

    def test_k_too_large(self):
        ds = make_dataset([make_account("u1", "human"), make_account("u2", "fake")])
        with pytest.raises(CorpusError):
            split_folds(ds, 3, seed=0)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                 timezones=st.sampled_from([None, timezone.utc, timezone(timedelta(hours=5))])),
    st.sampled_from([datetime(year, 12, 31, 23, 59, 59, tzinfo=timezone.utc)
                     for year in (1, 999, 1000, 2014, 9999)]),
))
def test_timestamps_are_written_as_strftime_writes_them(dt):
    """glibc's %Y does not zero-pad years below 1000."""
    assert format_timestamp(dt) == utc(dt).strftime("%Y-%m-%dT%H:%M:%SZ")


instants = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31),
                        timezones=st.just(timezone.utc)).map(lambda dt: dt.replace(microsecond=0))
counts = st.integers(0, 10**9)
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
cells = texts.filter(str.strip)  # a blank optional cell reads back as None
names = st.text("abcxyz_0", min_size=1, max_size=6)


@st.composite
def corpora(draw):
    """Accounts created as early as year 1, with timelines, follow edges
    among accounts and neighbors, and neighbor summaries."""
    uids = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    nids = draw(st.lists(names.map("n-{}".format), max_size=3, unique=True))
    accounts = [
        make_account(
            uid, draw(st.sampled_from([None, "human", "fake"])),
            screen_name=draw(names), name=draw(texts), created_at=draw(instants),
            followers_count=draw(counts), friends_count=draw(counts),
            statuses_count=draw(counts), listed_count=draw(counts),
            favourites_count=draw(counts), url=draw(st.none() | cells),
            location=draw(st.none() | cells), description=draw(st.none() | cells),
            default_profile_image=draw(st.booleans()),
            profile_image_fingerprint=draw(st.none() | cells))
        for uid in uids
    ]
    tweets = {
        uid: [make_tweet(uid, i, created_at=draw(instants), text=draw(texts),
                         source=draw(texts), is_retweet=draw(st.booleans()),
                         retweet_count=draw(counts), is_geolocalized=draw(st.booleans()),
                         num_hashtags=draw(counts), num_mentions=draw(counts),
                         num_urls=draw(counts))
              for i in range(draw(st.integers(0, 3)))]
        for uid in uids
    }
    ends = st.sampled_from(uids + nids)
    edges = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=6,
                          unique=True))
    neighbors = {nid: NeighborSummary(draw(counts), draw(counts)) for nid in nids}
    return make_dataset(accounts, tweets, edges, neighbors, reference_time=draw(instants))


@settings(max_examples=150, deadline=None)
@given(corpora(), st.sampled_from(["csv", "json"]))
def test_a_saved_corpus_loads_back_equal(ds, fmt):
    with tempfile.TemporaryDirectory() as out:
        save_dataset(ds, out, fmt=fmt)
        loaded = load_dataset(out, fmt=fmt, reference_time=ds.reference_time)
    assert loaded.accounts == ds.accounts
    assert loaded.tweets == ds.tweets
    assert sorted(loaded.graph.edges) == sorted(ds.graph.edges)
    assert loaded.graph.neighbor_summaries == ds.graph.neighbor_summaries

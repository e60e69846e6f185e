"""Feature catalog shape, extraction formulas, similarity, neighbor stats."""

import hashlib
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fakescope.cli import main
from fakescope.corpus import (
    DanglingReferenceError,
    InsufficientDataError,
    NeighborSummary,
    RelationshipGraph,
    SynthConfig,
    save_dataset,
    synthesize,
)
from fakescope.features import (
    CLASS_A_SPECS,
    api_tweet_similarity,
    bidirectional_link_ratio,
    catalog,
    extract,
    message_similarity,
    neighbor_stats,
    specs_by_names,
)
from fakescope.features.extract import _EXTRACTORS, without_unread_tables

from conftest import REF, make_account, make_dataset, make_tweet


class TestCatalog:
    def test_total_count(self):
        assert len(catalog()) == 49

    def test_class_a_is_the_importance_table(self):
        specs = catalog("A")
        assert len(specs) == 19
        assert [s.name for s in specs[:3]] == [
            "friends_followers_sq_ratio",
            "age_days",
            "statuses_count",
        ]
        assert all(s.cost_class == "A" for s in specs)

    def test_class_c_is_the_relationship_set(self):
        names = [s.name for s in catalog("C")]
        assert names == [
            "bidirectional_link_ratio",
            "avg_neighbor_followers",
            "avg_neighbor_tweets",
            "friends_to_median_neighbor_followers",
        ]

    def test_filters_partition_the_catalog(self):
        assert len(catalog("A")) + len(catalog("B")) + len(catalog("C")) == 49

    def test_unique_names(self):
        names = [s.name for s in catalog()]
        assert len(set(names)) == len(names)

    def test_unknown_filter(self):
        with pytest.raises(KeyError):
            catalog("Z")


def test_every_feature_has_an_extractor_reading_its_cost_class():
    """Extraction checks each feature's requirement against what was loaded,
    and a traced run times each extractor under its cost class."""
    requirement = {"A": "profile", "B": "timeline", "C": "graph"}
    assert sorted(_EXTRACTORS) == sorted(spec.name for spec in catalog())
    for spec in catalog():
        needs, fn = _EXTRACTORS[spec.name]
        assert needs == requirement[spec.cost_class], spec.name
        assert callable(fn)


class TestExtractFormulas:
    def test_friends_over_followers_squared(self):
        ds = make_dataset([make_account("u", "human", friends_count=100, followers_count=10)])
        m = extract(ds, specs_by_names(["friends_followers_sq_ratio"]))
        assert m.values[0, 0] == pytest.approx(1.0)

    def test_bidirectional_links_hand_count(self):
        edges = [("u", "a"), ("u", "b"), ("u", "c"), ("b", "u"), ("c", "u"), ("d", "u")]
        neighbors = {
            n: NeighborSummary(followers_count=10, statuses_count=5) for n in "abcd"
        }
        ds = make_dataset([make_account("u", "human")], edges=edges, neighbors=neighbors)
        m = extract(ds, specs_by_names(["bidirectional_link_ratio"]))
        assert m.values[0, 0] == pytest.approx(2 / 3)

    def test_zero_tweets_imputation(self):
        ds = make_dataset([make_account("u", "human", statuses_count=0)], tweets={"u": []})
        m = extract(ds, specs_by_names(["url_ratio", "api_ratio"]))
        assert m.values[0].tolist() == [0.0, 0.0]

    def test_age_and_following_rate(self):
        account = make_account(
            "u", "human", created_at=REF - timedelta(days=100), friends_count=50
        )
        ds = make_dataset([account])
        m = extract(ds, specs_by_names(["age_days", "following_rate"]))
        assert m.values[0, 0] == pytest.approx(100.0)
        assert m.values[0, 1] == pytest.approx(0.5)

    def test_rows_ordered_by_account_id(self):
        ds = make_dataset([make_account("b", "fake"), make_account("a", "human")])
        m = extract(ds, specs_by_names(["followers_count"]))
        assert m.account_ids == ("a", "b")

    def test_class_a_computable_without_tweets_and_graph(self, paper_like_small):
        bare = paper_like_small.without_tweets().without_graph()
        full = extract(paper_like_small, CLASS_A_SPECS)
        stripped = extract(bare, CLASS_A_SPECS)
        assert np.array_equal(full.values, stripped.values)

    def test_timeline_feature_requires_tweets(self, paper_like_small):
        bare = paper_like_small.without_tweets()
        with pytest.raises(InsufficientDataError, match="url_ratio"):
            extract(bare, specs_by_names(["url_ratio"]))

    def test_graph_feature_requires_graph(self, paper_like_small):
        bare = paper_like_small.without_graph()
        with pytest.raises(InsufficientDataError, match="bidirectional_link_ratio"):
            extract(bare, specs_by_names(["bidirectional_link_ratio"]))

    def test_subset_columns_match_full_extraction(self, paper_like_small):
        full = extract(paper_like_small, catalog())
        subset = extract(paper_like_small, specs_by_names(["age_days", "url_ratio"]))
        assert np.array_equal(subset.column("age_days"), full.column("age_days"))
        assert np.array_equal(subset.column("url_ratio"), full.column("url_ratio"))

    def test_reference_time_shift_moves_only_age(self, paper_like_small):
        import dataclasses

        # keep accounts safely past the two-month mark so the only
        # age-derived boolean cannot flip under the shift
        base_ages = extract(paper_like_small, specs_by_names(["age_days"])).values[:, 0]
        keep = [
            uid
            for uid, age in zip(paper_like_small.account_ids, base_ages)
            if age > 66.0
        ]
        stable = paper_like_small.subset(keep)
        shifted = dataclasses.replace(
            stable, reference_time=stable.reference_time + timedelta(days=5)
        )
        specs = catalog()
        a = extract(stable, specs)
        b = extract(shifted, specs)
        for j, name in enumerate(a.feature_names):
            if name == "age_days":
                assert np.allclose(b.values[:, j] - a.values[:, j], 5.0)
            elif name == "following_rate":
                assert not np.array_equal(a.values[:, j], b.values[:, j])
            else:
                assert np.array_equal(a.values[:, j], b.values[:, j]), name

    def test_all_ratios_finite_and_bilink_bounded(self, paper_like_small):
        m = extract(paper_like_small, catalog())
        assert np.all(np.isfinite(m.values))
        bil = m.column("bidirectional_link_ratio")
        assert np.all((bil >= 0) & (bil <= 1))

    def test_boolean_features_encoded_01(self, paper_like_small):
        m = extract(paper_like_small, catalog())
        for j, spec in enumerate(m.specs):
            if spec.is_boolean:
                assert set(np.unique(m.values[:, j])) <= {0.0, 1.0}, spec.name

    def test_take_rows_and_drop_feature_copy_into_c_order(self, paper_like_small):
        m = extract(paper_like_small, specs_by_names(["age_days", "url_ratio", "has_name"]))
        rows = m.take_rows([2, 0, 5])
        dropped = m.drop_feature("url_ratio")
        for part, expected in ((rows, m.values[[2, 0, 5]]), (dropped, m.values[:, [0, 2]])):
            assert part.values.flags.c_contiguous
            assert not np.shares_memory(part.values, m.values)
            assert np.array_equal(part.values, expected)
        assert rows.account_ids == tuple(m.account_ids[i] for i in (2, 0, 5))
        assert dropped.feature_names == ("age_days", "has_name")

    @pytest.mark.parametrize(("names", "keeps_tweets", "keeps_graph"), [
        (["age_days"], False, False),
        (["age_days", "url_ratio"], True, False),
        (["bidirectional_link_ratio"], False, True),
        (["url_ratio", "bidirectional_link_ratio"], True, True),
    ])
    def test_without_unread_tables(self, paper_like_small, names, keeps_tweets, keeps_graph):
        specs = specs_by_names(names)
        kept = without_unread_tables(paper_like_small, specs)
        assert (kept.tweets is not None, kept.graph is not None) == (keeps_tweets, keeps_graph)
        if keeps_tweets and keeps_graph:
            assert kept is paper_like_small
        assert kept.account_ids == paper_like_small.account_ids
        assert np.array_equal(extract(kept, specs).values,
                              extract(paper_like_small, specs).values)


class TestMessageSimilarity:
    def test_identical_pair(self):
        tweets = [
            make_tweet("u", 0, text="one two three four five"),
            make_tweet("u", 1, text="one two three four five"),
        ]
        assert message_similarity(tweets)

    def test_three_shared_words_not_enough(self):
        tweets = [
            make_tweet("u", 0, text="one two three apple banana"),
            make_tweet("u", 1, text="one two three pear cherry"),
        ]
        assert not message_similarity(tweets)

    def test_window_excludes_old_tweets(self):
        filler = [make_tweet("u", i, text=f"unique words number {i} here now") for i in range(14)]
        old_pair = [
            make_tweet("u", 14, text="repeat me exactly four times"),
            make_tweet("u", 15, text="repeat me exactly four times"),
        ]
        tweets = filler + old_pair  # newest first; the pair sits at 14 and 15
        assert not message_similarity(tweets)
        assert message_similarity(tweets, window=16)

    def test_empty_timeline(self):
        assert not message_similarity([])


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "A", "d"]), max_size=7), max_size=18),
       st.integers(1, 20), st.integers(1, 4))
def test_similarity_matches_pairwise_scan(texts, window, run_length):
    tweets = [make_tweet("u", i, text=" ".join(words)) for i, words in enumerate(texts)]
    runs = []
    for t in tweets[:window]:
        words = t.text.lower().split()
        runs.append({tuple(words[i:i + run_length]) for i in range(len(words) - run_length + 1)})
    expected = any(runs[i] & runs[j] for j in range(len(runs)) for i in range(j))
    assert message_similarity(tweets, window=window, run_length=run_length) == expected


class TestApiSimilarity:
    def test_web_duplicates_do_not_count(self):
        tweets = [
            make_tweet("u", 0, text="buy this now please folks", source="web"),
            make_tweet("u", 1, text="buy this now please folks", source="web"),
        ]
        assert not api_tweet_similarity(tweets)

    def test_api_duplicates_count(self):
        tweets = [
            make_tweet("u", 0, text="buy this now please folks", source="api"),
            make_tweet("u", 1, text="buy this now please folks", source="api"),
        ]
        assert api_tweet_similarity(tweets)

    def test_mixed_sources_need_two_api_tweets(self):
        tweets = [
            make_tweet("u", 0, text="buy this now please folks", source="web"),
            make_tweet("u", 1, text="buy this now please folks", source="api"),
        ]
        assert not api_tweet_similarity(tweets)


class TestNeighborStats:
    def graph_with_friends(self, follower_counts):
        edges = [("u", f"n{i}") for i in range(len(follower_counts))]
        neighbors = {
            f"n{i}": NeighborSummary(followers_count=c, statuses_count=10)
            for i, c in enumerate(follower_counts)
        }
        return RelationshipGraph(edges, neighbors)

    def test_average_and_median(self):
        graph = self.graph_with_friends([10, 20, 30])
        account = make_account("u", friends_count=40)
        stats = neighbor_stats(account, graph)
        assert stats.avg_neighbors_followers == pytest.approx(20.0)
        assert stats.friends_to_median_neighbors_followers == pytest.approx(40 / 20)

    def test_even_list_median_is_midpoint_mean(self):
        graph = self.graph_with_friends([10, 20, 30, 100])
        stats = neighbor_stats(make_account("u", friends_count=50), graph)
        assert stats.friends_to_median_neighbors_followers == pytest.approx(50 / 25)

    def test_no_friends_imputes_zero(self):
        graph = RelationshipGraph([], {})
        stats = neighbor_stats(make_account("u"), graph)
        assert stats.avg_neighbors_followers == 0.0
        assert stats.friends_to_median_neighbors_followers == 0.0

    def test_follower_statuses_average(self):
        edges = [("a", "u"), ("b", "u")]
        neighbors = {
            "a": NeighborSummary(followers_count=1, statuses_count=0),
            "b": NeighborSummary(followers_count=1, statuses_count=100),
        }
        stats = neighbor_stats(make_account("u"), RelationshipGraph(edges, neighbors))
        assert stats.avg_neighbors_tweets == pytest.approx(50.0)

    def test_missing_summary_names_the_neighbor(self):
        graph = RelationshipGraph([("u", "ghost")], {})
        with pytest.raises(DanglingReferenceError, match="ghost"):
            neighbor_stats(make_account("u"), graph)

    def test_bilink_ratio_empty(self):
        assert bidirectional_link_ratio(make_account("u"), RelationshipGraph([], {})) == 0.0


# sha256 of the CLI's feature matrix on a fixed corpus, recorded before the
# features read per-account timeline aggregates
GOLDEN_FEATURES_CSV = "dffa06fac26120f15a5afcdf04b938b5d8311031a0f5bfe645d6785422e120c7"


def test_features_csv_is_byte_identical_to_golden(tmp_path):
    save_dataset(synthesize(SynthConfig.paper_like(seed=13, n_humans=60, n_fakes=60)),
                 tmp_path / "corpus")
    out = tmp_path / "features"
    assert main(["features", str(tmp_path / "corpus"), "--class", "all",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "features.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_FEATURES_CSV

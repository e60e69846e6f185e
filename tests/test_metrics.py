"""Evaluation measures against brute-force oracles and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fakescope.metrics import (
    ConfusionMatrix,
    MetricError,
    as01,
    entropy,
    info_gain,
    mcc,
    pearson,
    roc_auc,
    summarize,
)

# --- independent oracles (plain python, no shared code paths) ---------------


def loop_roc_auc(scores, labels):
    """The midrank and ROC loops that ``roc_auc`` ran before it grouped tied
    scores with ``np.unique``: the oracle for bit-equal AUC and points."""
    y = as01(labels)
    s = np.asarray(scores, dtype=np.float64)
    n_fake = int(np.sum(y == 1))
    n_human = int(np.sum(y == 0))
    order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    ranks = np.empty(len(s), dtype=np.float64)
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(np.sum(ranks[y == 1]))
    auc = (rank_sum - n_fake * (n_fake + 1) / 2.0) / (n_fake * n_human)
    points = [(0.0, 0.0)]
    tp = fp = 0
    desc = np.argsort(-s, kind="stable")
    k = 0
    while k < len(s):
        value = s[desc[k]]
        while k < len(s) and s[desc[k]] == value:
            if y[desc[k]] == 1:
                tp += 1
            else:
                fp += 1
            k += 1
        points.append((fp / n_human, tp / n_fake))
    return float(auc), tuple(points)


def oracle_mcc(tp, tn, fp, fn):
    denom = (tp + fn) * (tp + fp) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def oracle_auc(scores, labels):
    fakes = [s for s, y in zip(scores, labels) if y == 1]
    humans = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1 for f in fakes for h in humans if f > h)
    ties = sum(1 for f in fakes for h in humans if f == h)
    return (wins + 0.5 * ties) / (len(fakes) * len(humans))


def oracle_entropy(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    h = 0.0
    for cls in (0, 1):
        p = sum(1 for y in labels if y == cls) / n
        if p > 0:
            h -= p * math.log2(p)
    return h


def oracle_threshold_ig(values, labels):
    """Exhaustive scan of every midpoint between adjacent distinct values."""
    base = oracle_entropy(labels)
    distinct = sorted(set(values))
    best = 0.0
    for lo, hi in zip(distinct, distinct[1:]):
        thr = (lo + hi) / 2
        left = [y for v, y in zip(values, labels) if v <= thr]
        right = [y for v, y in zip(values, labels) if v > thr]
        h = (len(left) * oracle_entropy(left) + len(right) * oracle_entropy(right)) / len(labels)
        best = max(best, base - h)
    return best


def oracle_pearson(values, labels):
    n = len(values)
    mv = math.fsum(values) / n
    ml = math.fsum(labels) / n
    cov = math.fsum((v - mv) * (y - ml) for v, y in zip(values, labels))
    sv = math.sqrt(math.fsum((v - mv) ** 2 for v in values))
    sy = math.sqrt(math.fsum((y - ml) ** 2 for y in labels))
    if sv == 0 or sy == 0:
        return 0.0
    return cov / (sv * sy)


# --- summarize ---------------------------------------------------------------


class TestAs01:
    """A numeric array is encoded as the element-by-element loop encodes its items."""

    @pytest.mark.parametrize(
        "array",
        [
            np.array([1.0, 0.0, 1.0]),
            np.array([True, False]),
            np.array([0, 1, 1], dtype=np.int8),
            np.array([], dtype=np.float64),
        ],
    )
    def test_array_matches_item_loop(self, array):
        y = as01(array)
        assert y.dtype == np.float64
        assert y.tolist() == as01(list(array)).tolist()
        assert y is not array

    @pytest.mark.parametrize(
        "array", [np.array([0.0, 0.5, 2.0]), np.array([1.0, math.nan]), np.array([0, 2])]
    )
    def test_bad_array_names_its_first_bad_item(self, array):
        with pytest.raises(MetricError) as loop_err:
            as01(list(array))
        with pytest.raises(MetricError) as array_err:
            as01(array)
        assert str(array_err.value) == str(loop_err.value)


class TestSummarize:
    def test_perfect(self):
        report = summarize(ConfusionMatrix(tp=1, tn=1, fp=0, fn=0))
        assert (report.accuracy, report.precision, report.recall) == (1.0, 1.0, 1.0)
        assert report.f_measure == 1.0
        assert report.mcc == 1.0

    def test_all_wrong(self):
        assert summarize(ConfusionMatrix(tp=0, tn=0, fp=1, fn=1)).mcc == -1.0

    def test_symmetric(self):
        report = summarize(ConfusionMatrix(tp=50, tn=50, fp=50, fn=50))
        assert report.mcc == 0.0
        assert report.accuracy == 0.5

    def test_against_direct_formula(self):
        cm = ConfusionMatrix(tp=121, tn=1945, fp=3, fn=1829)
        assert summarize(cm).mcc == pytest.approx(oracle_mcc(121, 1945, 3, 1829), abs=1e-15)

    def test_empty_matrix_rejected(self):
        with pytest.raises(MetricError):
            summarize(ConfusionMatrix(0, 0, 0, 0))

    def test_zero_denominator_conventions(self):
        report = summarize(ConfusionMatrix(tp=0, tn=5, fp=0, fn=0))
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f_measure == 0.0
        assert report.mcc == 0.0

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_class_swap_symmetry(self, tp, tn, fp, fn):
        if tp + tn + fp + fn == 0:
            return
        swapped = ConfusionMatrix(tp=tn, tn=tp, fp=fn, fn=fp)
        assert mcc(ConfusionMatrix(tp, tn, fp, fn)) == pytest.approx(mcc(swapped), abs=1e-12)


class TestRocAuc:
    def test_perfectly_ordered(self):
        result = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert result.auc == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]).auc == 0.5

    def test_enumerated_pairs(self):
        result = roc_auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])
        assert result.auc == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_curve_endpoints(self):
        result = roc_auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])
        assert result.points[0] == (0.0, 0.0)
        assert result.points[-1] == (1.0, 1.0)

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=12),
        st.data(),
    )
    @settings(max_examples=200)
    def test_matches_pair_enumeration(self, scores, data):
        labels = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=len(scores), max_size=len(scores))
        )
        if len(set(labels)) < 2:
            return
        result = roc_auc(scores, labels)
        assert result.auc == pytest.approx(oracle_auc(scores, labels), abs=1e-12)
        # rank statistic equals trapezoidal area under the ROC polyline
        area = sum(
            (x1 - x0) * (y0 + y1) / 2
            for (x0, y0), (x1, y1) in zip(result.points, result.points[1:])
        )
        assert result.auc == pytest.approx(area, abs=1e-12)

    @given(
        st.lists(
            st.one_of(
                st.floats(-5, 5, allow_nan=False),
                st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, math.inf]),
            ),
            min_size=2,
            max_size=60,
        ),
        st.data(),
    )
    @settings(max_examples=300)
    def test_bit_equal_to_the_loops(self, scores, data):
        labels = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=len(scores), max_size=len(scores))
        )
        if len(set(labels)) < 2:
            return
        result = roc_auc(scores, labels)
        auc, points = loop_roc_auc(scores, labels)
        assert type(result.auc) is float
        assert result.auc.hex() == auc.hex()
        assert len(result.points) == len(points)
        for got, want in zip(result.points, points):
            assert [type(v) for v in got] == [float, float]
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_nan_score_rejected(self):
        with pytest.raises(MetricError, match="NaN"):
            roc_auc([0.1, float("nan"), 0.3], [1, 0, 1])

    def test_complement_without_ties(self, rng):
        scores = rng.permutation(20).astype(float).tolist()
        labels = [1] * 8 + [0] * 12
        assert roc_auc(scores, labels).auc + roc_auc(
            [-s for s in scores], labels
        ).auc == pytest.approx(1.0)


class TestInfoGain:
    def test_boolean_identical_to_label(self):
        assert info_gain([1, 1, 0, 0], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_constant_attribute(self):
        assert info_gain([3, 3, 3, 3], [1, 0, 1, 0]) == 0.0

    def test_threshold_separates(self):
        assert info_gain([1, 2, 3, 4], [0, 0, 1, 1]) == pytest.approx(1.0)

    @given(
        st.lists(st.integers(-10, 10), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=200)
    def test_matches_exhaustive_threshold_scan(self, values, data):
        labels = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=len(values), max_size=len(values))
        )
        got = info_gain([float(v) for v in values], labels, discrete=False)
        assert got == pytest.approx(oracle_threshold_ig(values, labels), abs=1e-12)

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=200)
    def test_bounded_by_label_entropy(self, values, data):
        labels = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=len(values), max_size=len(values))
        )
        gain = info_gain([float(v) for v in values], labels, discrete=True)
        h = entropy(labels)
        assert gain <= h + 1e-12
        determines = all(
            len({y for v2, y in zip(values, labels) if v2 == v}) == 1 for v in set(values)
        )
        if determines:
            assert gain == pytest.approx(h, abs=1e-12)
        elif h > 0:
            assert gain < h - 1e-12 or not determines


class TestPearson:
    def test_values_equal_labels(self):
        assert pearson([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_inverted_values(self):
        raw = pearson([1, 1, 0, 0], [0, 0, 1, 1])
        assert raw == pytest.approx(-1.0)
        assert abs(raw) == pytest.approx(1.0)

    def test_against_closed_form(self):
        got = pearson([10, 12, 300, 350], [0, 0, 1, 1])
        assert got == pytest.approx(oracle_pearson([10, 12, 300, 350], [0, 0, 1, 1]), abs=1e-12)

    def test_zero_variance_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert pearson([5, 5, 5], [0, 1, 0]) == 0.0

    @given(
        st.lists(st.integers(-50, 50), min_size=3, max_size=12, unique=True),
        st.data(),
        st.integers(1, 9),
        st.integers(-20, 20),
    )
    @settings(max_examples=200)
    def test_affine_invariance(self, values, data, scale, shift):
        labels = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=len(values), max_size=len(values))
        )
        if len(set(labels)) < 2:
            return
        base = pearson(values, labels)
        scaled = pearson([scale * v + shift for v in values], labels)
        assert scaled == pytest.approx(base, abs=1e-9)
        flipped = pearson([-scale * v + shift for v in values], labels)
        assert flipped == pytest.approx(-base, abs=1e-9)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagtrack.classify import (LabeledDataset, _dtw_bounds, _dtw_rows, dtw_1nn_classify,
                               evaluate, knn_feature_classify, stratified_split)


def dtw_distance(a, b) -> float:
    """Classic DTW with absolute-difference cost, full window, symmetric steps."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("series must be non-empty")
    la, lb = a.size, b.size
    d = np.full((la + 1, lb + 1), np.inf)
    d[0, 0] = 0.0
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            d[i, j] = abs(a[i - 1] - b[j - 1]) + min(d[i - 1, j], d[i, j - 1], d[i - 1, j - 1])
    return float(d[la, lb])


def dtw_enumeration_oracle(a, b):
    """Exhaustive minimum over all monotone alignment paths (tiny series only)."""
    la, lb = len(a), len(b)
    best = [np.inf]

    def walk(i, j, acc):
        acc = acc + abs(a[i] - b[j])
        if acc >= best[0]:
            return
        if i == la - 1 and j == lb - 1:
            best[0] = acc
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            ni, nj = i + di, j + dj
            if ni < la and nj < lb:
                walk(ni, nj, acc)

    walk(0, 0, 0.0)
    return best[0]


class TestDtwDistance:
    def test_identical(self):
        assert dtw_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_repeated_element_free(self):
        assert dtw_distance([1, 2, 3], [1, 2, 2, 3]) == 0.0

    def test_constant_offset(self):
        assert dtw_distance([0, 0], [1, 1]) == 2.0

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a = rng.normal(size=rng.integers(1, 12))
            b = rng.normal(size=rng.integers(1, 12))
            dab = dtw_distance(a, b)
            assert dab >= 0.0
            assert dab == pytest.approx(dtw_distance(b, a), rel=1e-12)
            assert dtw_distance(a, a) == 0.0

    def test_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            a = rng.normal(size=rng.integers(1, 7))
            b = rng.normal(size=rng.integers(1, 7))
            assert dtw_distance(a, b) == pytest.approx(dtw_enumeration_oracle(a, b),
                                                       rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw_distance([], [1.0])

    def test_bank_matches_scalar(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=15)
        bank = rng.normal(size=(20, 11))
        batch = _dtw_rows(q[None, :], bank)
        ref = [dtw_distance(q, row) for row in bank]
        assert np.array_equal(batch, ref)

    def test_bank_matches_scalar_edge_cases(self):
        # unequal and length-1 series; small integers make many tied minima
        rng = np.random.default_rng(4)
        for la, lb in [(1, 1), (1, 9), (9, 1), (3, 17), (17, 3), (24, 24), (1, 30), (30, 2),
                       (30, 30)]:
            for values in (rng.normal(size=6 * (la + lb)),
                           rng.integers(0, 3, 6 * (la + lb)).astype(float)):
                queries, bank = values[:6 * la].reshape(6, la), values[6 * la:].reshape(6, lb)
                ref = np.array([[dtw_distance(a, b) for b in bank] for a in queries])
                assert np.array_equal(_dtw_rows(queries[:1], bank), ref[0])
                # row pairs: query row r against bank row r
                assert np.array_equal(_dtw_rows(queries, bank), np.diag(ref))
                # the bounds bracket the computed distances, with no slack
                lower, upper = _dtw_bounds(queries, bank)
                assert np.all(lower <= ref) and np.all(ref <= upper)


def ref_bundle_distances(train_bundles: list[dict], query_bundle: dict) -> np.ndarray:
    "Summed per-channel DTW of one query against every training bundle, one sweep per channel."
    keys = sorted(query_bundle)
    for tb in train_bundles:
        if sorted(tb) != keys:
            raise ValueError("series bundles have mismatched channels")
    total = np.zeros(len(train_bundles))
    for key in keys:
        lengths = {len(tb[key]) for tb in train_bundles}
        if len(lengths) == 1:
            bank = np.array([tb[key] for tb in train_bundles])
            total += _dtw_rows(np.asarray(query_bundle[key], dtype=float)[None, :], bank)
        else:
            total += np.array([dtw_distance(query_bundle[key], tb[key])
                               for tb in train_bundles])
    return total


def ref_dtw_1nn_classify(train: LabeledDataset, query_bundle: dict) -> str:
    "Unpruned 1-NN: the minimum over every training bundle, ties to the lowest index."
    return train.labels[int(np.argmin(ref_bundle_distances(train.bundles, query_bundle)))]


@st.composite
def dtw_cases(draw):
    """Training set and queries: 1-3 channels, normal, integer or constant series.

    Lengths are per channel or per series; some training bundles repeat
    under another label, and some queries repeat a training bundle, so
    distances tie.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keys = [f"t{k}:ch" for k in range(draw(st.integers(1, 3)))]
    kind = draw(st.sampled_from(["normal", "integer", "constant", "mixed"]))
    fixed = {key: draw(st.integers(1, 12)) for key in keys} if draw(st.booleans()) else None

    def series(key):
        n = fixed[key] if fixed else int(rng.integers(1, 13))
        form = kind if kind != "mixed" else rng.choice(["normal", "integer", "constant"])
        if form == "normal":
            return rng.normal(size=n)
        if form == "integer":
            return rng.integers(-2, 3, n).astype(float)
        return np.full(n, float(rng.integers(-1, 2)))

    classes = "abc"
    bundles = [{key: series(key) for key in keys} for _ in range(draw(st.integers(1, 12)))]
    labels = [classes[int(rng.integers(3))] for _ in bundles]
    for i in rng.integers(len(bundles), size=draw(st.integers(0, 3))).tolist():
        bundles.append(dict(bundles[i]))
        labels.append(classes[(classes.index(labels[i]) + 1) % 3])
    order = rng.permutation(len(bundles))
    train = LabeledDataset(labels=[labels[i] for i in order],
                           bundles=[bundles[i] for i in order], classes=tuple(classes))
    queries = [{key: series(key) for key in keys} for _ in range(draw(st.integers(0, 10)))]
    queries += [dict(bundles[i]) for i in rng.integers(len(bundles), size=draw(st.integers(0, 3)))]
    return train, queries[:10] or [dict(bundles[0])]


@settings(max_examples=150, deadline=None)
@given(case=dtw_cases())
def test_pruned_1nn_matches_unpruned(case):
    train, queries = case
    assert dtw_1nn_classify(train, queries) == [ref_dtw_1nn_classify(train, q) for q in queries]


class TestDtw1NN:
    def _dataset(self):
        rng = np.random.default_rng(3)
        bundles, labels = [], []
        for i in range(8):
            up = np.linspace(-1, 1, 10) + 0.05 * rng.normal(size=10)
            down = -np.linspace(-1, 1, 10) + 0.05 * rng.normal(size=10)
            bundles.append({"t:ch": up})
            labels.append("up")
            bundles.append({"t:ch": down})
            labels.append("down")
        return LabeledDataset(labels=labels, bundles=bundles)

    def test_query_equal_to_training_sample(self):
        ds = self._dataset()
        assert dtw_1nn_classify(ds, [ds.bundles[3]]) == [ds.labels[3]]

    def test_mirrored_series_fully_separated(self):
        ds = self._dataset()
        rng = np.random.default_rng(4)
        signs = rng.choice([-1.0, 1.0], size=20)
        queries = [{"t:ch": sign * np.linspace(-1, 1, 10) + 0.05 * rng.normal(size=10)}
                   for sign in signs]
        want = ["up" if sign > 0 else "down" for sign in signs]
        assert dtw_1nn_classify(ds, queries) == want

    def test_single_class_training(self):
        ds = LabeledDataset(labels=["only"] * 3,
                            bundles=[{"c": np.arange(5.0) + i} for i in range(3)])
        assert dtw_1nn_classify(ds, [{"c": np.ones(4)}]) == ["only"]

    def test_channel_mismatch(self):
        ds = self._dataset()
        with pytest.raises(ValueError):
            dtw_1nn_classify(ds, [ds.bundles[0], {"other": np.ones(5)}])

    def test_empty_or_nonfinite_series_rejected(self):
        ds = self._dataset()
        for bad in ([], [0.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="series must be"):
                dtw_1nn_classify(ds, [{"t:ch": np.array(bad)}])

    def test_training_permutation_invariance(self):
        ds = self._dataset()
        rng = np.random.default_rng(5)
        perm = rng.permutation(len(ds.labels))
        ds2 = LabeledDataset(labels=[ds.labels[i] for i in perm],
                             bundles=[ds.bundles[i] for i in perm])
        queries = [{"t:ch": rng.normal(size=10)} for _ in range(10)]
        assert dtw_1nn_classify(ds, queries) == dtw_1nn_classify(ds2, queries)


class TestKnn:
    def _blobs(self, seed=0, n=60, sep=6.0):
        rng = np.random.default_rng(seed)
        xa = rng.normal(size=(n, 4)) + sep
        xb = rng.normal(size=(n, 4)) - sep
        x = np.vstack([xa, xb])
        labels = ["a"] * n + ["b"] * n
        return x, labels

    def test_query_is_training_point(self):
        x, labels = self._blobs()
        ds = LabeledDataset(labels=labels, features=x)
        assert knn_feature_classify(ds, x[0], k=1) == labels[0]

    def test_separated_blobs_high_accuracy(self):
        hits = total = 0
        for seed in range(10):
            x, labels = self._blobs(seed=seed)
            tr, te = stratified_split(labels, seed=seed)
            ds = LabeledDataset(labels=[labels[i] for i in tr], features=x[tr])
            for i in te:
                hits += knn_feature_classify(ds, x[i], k=5) == labels[i]
                total += 1
        assert hits / total >= 0.99

    def test_k_clamped_with_warning(self):
        x, labels = self._blobs(n=3)
        ds = LabeledDataset(labels=labels, features=x)
        with pytest.warns(UserWarning, match="clamping"):
            assert knn_feature_classify(ds, x[0], k=99) in ("a", "b")

    def test_even_k_rejected(self):
        x, labels = self._blobs(n=5)
        ds = LabeledDataset(labels=labels, features=x)
        with pytest.raises(ValueError):
            knn_feature_classify(ds, x[0], k=4)

    def test_training_permutation_invariance(self):
        x, labels = self._blobs(seed=7)
        rng = np.random.default_rng(8)
        perm = rng.permutation(len(labels))
        ds1 = LabeledDataset(labels=labels, features=x)
        ds2 = LabeledDataset(labels=[labels[i] for i in perm], features=x[perm])
        queries = rng.normal(size=(25, 4)) * 8
        p1 = [knn_feature_classify(ds1, q, k=5) for q in queries]
        p2 = [knn_feature_classify(ds2, q, k=5) for q in queries]
        assert p1 == p2


class TestStratifiedSplit:
    def test_disjoint_and_covering(self):
        labels = ["a"] * 10 + ["b"] * 20 + ["c"] * 7
        tr, te = stratified_split(labels, seed=0)
        assert set(tr) | set(te) == set(range(37))
        assert not set(tr) & set(te)

    def test_stratification(self):
        labels = ["a"] * 10 + ["b"] * 10
        tr, te = stratified_split(labels, test_frac=0.3, seed=1)
        te_labels = [labels[i] for i in te]
        assert te_labels.count("a") == te_labels.count("b") == 3

    def test_seeded_reproducibility(self):
        labels = ["a", "b"] * 15
        a = stratified_split(labels, seed=5)
        b = stratified_split(labels, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestEvaluate:
    def test_all_correct(self):
        rep = evaluate(["a", "b", "a"], ["a", "b", "a"], ("a", "b"))
        assert rep.accuracy == 100.0
        np.testing.assert_allclose(rep.confusion, np.eye(2))
        assert rep.macro_f1 == 100.0

    def test_single_class_predictions_uniform_truth(self):
        preds = ["a"] * 12
        truths = ["a", "b", "c", "d"] * 3
        rep = evaluate(preds, truths, ("a", "b", "c", "d"))
        assert rep.accuracy == pytest.approx(100.0 / 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [], ("a",))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            evaluate(["x"], ["a"], ("a",))

    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(6)
        classes = ("a", "b", "c")
        preds = rng.choice(classes, size=50).tolist()
        truths = rng.choice(classes[:2], size=50).tolist()  # class c absent
        rep = evaluate(preds, truths, classes)
        sums = rep.confusion.sum(axis=1)
        for cls, s in zip(classes, sums):
            assert s == pytest.approx(1.0, abs=1e-9) or s == 0.0

    def test_accuracy_consistent_with_counts(self):
        rng = np.random.default_rng(7)
        classes = ("a", "b", "c")
        preds = rng.choice(classes, size=200).tolist()
        truths = rng.choice(classes, size=200).tolist()
        rep = evaluate(preds, truths, classes)
        assert rep.accuracy == pytest.approx(100.0 * np.trace(rep.counts) / rep.counts.sum())

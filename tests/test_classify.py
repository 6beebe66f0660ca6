import numpy as np
import pytest

from tagtrack.classify import (LabeledDataset, dtw_1nn_classify,
                               dtw_distance, dtw_to_bank, evaluate,
                               knn_feature_classify, stratified_split)


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
        with pytest.raises(ValueError):
            dtw_to_bank([], [[1.0]])

    def test_bank_matches_scalar(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=15)
        bank = rng.normal(size=(20, 11))
        batch = dtw_to_bank(q, bank)
        ref = [dtw_distance(q, row) for row in bank]
        assert np.array_equal(batch, ref)

    def test_bank_matches_scalar_edge_cases(self):
        # unequal and length-1 series; small integers make many tied minima
        rng = np.random.default_rng(4)
        for la, lb in [(1, 1), (1, 9), (9, 1), (3, 17), (17, 3), (24, 24)]:
            for values in (rng.normal(size=la + 6 * lb), rng.integers(0, 3, la + 6 * lb)):
                q, bank = values[:la], values[la:].reshape(6, lb)
                batch = dtw_to_bank(q, bank)
                assert np.array_equal(batch, [dtw_distance(q, row) for row in bank])


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
        assert dtw_1nn_classify(ds, ds.bundles[3]) == ds.labels[3]

    def test_mirrored_series_fully_separated(self):
        ds = self._dataset()
        rng = np.random.default_rng(4)
        for _ in range(20):
            sign = rng.choice([-1.0, 1.0])
            q = sign * np.linspace(-1, 1, 10) + 0.05 * rng.normal(size=10)
            want = "up" if sign > 0 else "down"
            assert dtw_1nn_classify(ds, {"t:ch": q}) == want

    def test_single_class_training(self):
        ds = LabeledDataset(labels=["only"] * 3,
                            bundles=[{"c": np.arange(5.0) + i} for i in range(3)])
        assert dtw_1nn_classify(ds, {"c": np.ones(4)}) == "only"

    def test_channel_mismatch(self):
        ds = self._dataset()
        with pytest.raises(ValueError):
            dtw_1nn_classify(ds, {"other": np.ones(5)})

    def test_training_permutation_invariance(self):
        ds = self._dataset()
        rng = np.random.default_rng(5)
        perm = rng.permutation(len(ds.labels))
        ds2 = LabeledDataset(labels=[ds.labels[i] for i in perm],
                             bundles=[ds.bundles[i] for i in perm])
        for _ in range(10):
            q = {"t:ch": rng.normal(size=10)}
            assert dtw_1nn_classify(ds, q) == dtw_1nn_classify(ds2, q)


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

    def test_config_mismatch(self):
        x, labels = self._blobs(n=5)
        ds = LabeledDataset(labels=labels, features=x, config_name="SPR")
        from tagtrack.features import FeatureVector
        fv = FeatureVector("SPRA", x[0], ("f",) * x.shape[1])
        with pytest.raises(ValueError, match="mismatch"):
            knn_feature_classify(ds, fv, k=1)

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

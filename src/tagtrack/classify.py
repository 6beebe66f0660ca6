"""Desk-scale classifiers and evaluation.

Dynamic-time-warping nearest neighbor on raw per-tag series, and a
k-nearest-neighbor vote on z-scored feature vectors standing in for the
heavier feature classifiers; metrics come with row-normalized confusion
matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class LabeledDataset:
    """Feature matrix or raw series bundles with their labels."""

    labels: list[str]
    features: np.ndarray | None = None
    bundles: list[dict] | None = None
    classes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.classes:
            self.classes = tuple(sorted(set(self.labels)))
        unknown = set(self.labels) - set(self.classes)
        if unknown:
            raise ValueError(f"labels outside the class set: {sorted(unknown)}")


def stratified_split(labels, test_frac: float = 0.3, seed: int = 0):
    "Per-class shuffled split; returns (train_idx, test_idx)."
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    train, test = [], []
    for cls in sorted(set(labels.tolist())):
        idx = np.nonzero(labels == cls)[0]
        rng.shuffle(idx)
        n_test = min(max(int(round(test_frac * idx.size)), 1), idx.size - 1) \
            if idx.size > 1 else 0
        test.extend(idx[:n_test].tolist())
        train.extend(idx[n_test:].tolist())
    return np.array(sorted(train)), np.array(sorted(test))


# --- dynamic time warping ---------------------------------------------------

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


def dtw_to_bank(query, bank) -> np.ndarray:
    """DTW of one query against a stack of equal-length series (vectorized).

    Sweeps the anti-diagonals i + j = k of the DP table, all bank rows at
    once, keeping three diagonals indexed by query position i.  Every cell
    is the same cost + min of three as in dtw_distance, so the result equals
    it exactly; used to batch nearest-neighbor search across a training set.
    """
    q = np.asarray(query, dtype=float)
    bank = np.asarray(bank, dtype=float)
    if bank.ndim == 1:
        bank = bank[None, :]
    n, lb = bank.shape
    la = q.size
    if la == 0 or lb == 0:
        raise ValueError("series must be non-empty")
    rev = np.ascontiguousarray(bank.T[::-1])      # rev[lb - 1 - j] = bank[:, j]
    col = q[:, None]
    # diag[i] holds d[i, k - i]; d[0, 0] = 0 and the rest of row/column 0 is inf
    older = np.full((la + 1, n), np.inf)          # diagonal k - 2
    prev = np.full((la + 1, n), np.inf)           # diagonal k - 1
    cur = np.full((la + 1, n), np.inf)
    prev[1] = np.abs(q[0] - bank[:, 0])           # diagonal 2: d[1, 1] = cost + d[0, 0]
    for k in range(3, la + lb + 1):
        i0, i1 = max(1, k - lb), min(la, k - 1)
        cost = np.abs(col[i0 - 1:i1] - rev[lb - k + i0:lb - k + i1 + 1])
        best = np.minimum(np.minimum(prev[i0 - 1:i1], prev[i0:i1 + 1]), older[i0 - 1:i1])
        np.add(cost, best, out=cur[i0:i1 + 1])
        older, prev, cur = prev, cur, older
    return prev[la]


def _bundle_distances(train_bundles: list[dict], query_bundle: dict) -> np.ndarray:
    keys = sorted(query_bundle)
    for tb in train_bundles:
        if sorted(tb) != keys:
            raise ValueError("series bundles have mismatched channels")
    total = np.zeros(len(train_bundles))
    for key in keys:
        lengths = {len(tb[key]) for tb in train_bundles}
        if len(lengths) == 1:
            bank = np.array([tb[key] for tb in train_bundles])
            total += dtw_to_bank(query_bundle[key], bank)
        else:
            total += np.array([dtw_distance(query_bundle[key], tb[key])
                               for tb in train_bundles])
    return total


def dtw_1nn_classify(train: LabeledDataset, query_bundle: dict) -> str:
    """Label of the training bundle with minimal summed per-channel DTW.

    Ties resolve to the lowest training index.
    """
    if train.bundles is None or not train.bundles:
        raise ValueError("training set has no series bundles")
    dists = _bundle_distances(train.bundles, query_bundle)
    return train.labels[int(np.argmin(dists))]


# --- feature k-NN -----------------------------------------------------------

def _zscore_params(x: np.ndarray):
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    return mu, sd


def _vote(labels_k: list[str], dists_k: np.ndarray) -> str:
    counts: dict[str, int] = {}
    sums: dict[str, float] = {}
    for lab, d in zip(labels_k, dists_k):
        counts[lab] = counts.get(lab, 0) + 1
        sums[lab] = sums.get(lab, 0.0) + float(d)
    top = max(counts.values())
    tied = [lab for lab, c in counts.items() if c == top]
    return min(tied, key=lambda lab: sums[lab])


def knn_feature_classify(train: LabeledDataset, query, k: int = 5) -> str:
    """Majority label among the k nearest z-scored Euclidean neighbors.

    Vote ties resolve to the tied label with the smallest summed distance;
    k larger than the training set is clamped with a warning.
    """
    if train.features is None or len(train.labels) == 0:
        raise ValueError("training set has no feature matrix")
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be an odd positive count")
    qv = np.asarray(query, dtype=float)
    if qv.shape[-1] != train.features.shape[1]:
        raise ValueError("feature dimension mismatch")
    n = train.features.shape[0]
    if k > n:
        warnings.warn(f"k={k} exceeds training size {n}; clamping")
        k = n
    mu, sd = _zscore_params(train.features)
    xt = (train.features - mu) / sd
    q = (qv - mu) / sd
    dists = np.linalg.norm(xt - q, axis=1)
    order = np.argsort(dists, kind="stable")[:k]
    return _vote([train.labels[i] for i in order], dists[order])


# --- metrics ----------------------------------------------------------------

@dataclass
class EvalReport:
    """Accuracy and macro precision/recall/F1 in percent, plus confusions."""

    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: np.ndarray          # row-normalized by true-class counts
    counts: np.ndarray             # raw counts, rows = truth
    classes: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "classes": list(self.classes),
            "confusion": [[round(float(x), 6) for x in row] for row in self.confusion],
        }


def evaluate(predictions, truths, class_set) -> EvalReport:
    """Metrics over aligned prediction/truth lists.

    Per-class precision and recall define 0/0 as 0; the confusion matrix is
    row-normalized by true-class counts (all-zero rows for absent classes).
    """
    preds = list(predictions)
    trues = list(truths)
    if not preds or len(preds) != len(trues):
        raise ValueError("predictions and truths must be equal-length and non-empty")
    classes = tuple(class_set)
    index = {c: i for i, c in enumerate(classes)}
    for lab in (*preds, *trues):
        if lab not in index:
            raise ValueError(f"unknown label {lab!r}")
    c = len(classes)
    counts = np.zeros((c, c), dtype=int)
    for p, t in zip(preds, trues):
        counts[index[t], index[p]] += 1
    correct = int(np.trace(counts))
    accuracy = 100.0 * correct / len(preds)
    precisions, recalls, f1s = [], [], []
    for i in range(c):
        tp = counts[i, i]
        col = counts[:, i].sum()
        row = counts[i, :].sum()
        prec = tp / col if col else 0.0
        rec = tp / row if row else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
    row_sums = counts.sum(axis=1, keepdims=True)
    confusion = np.divide(counts, row_sums, out=np.zeros((c, c)), where=row_sums > 0)
    return EvalReport(accuracy=accuracy,
                      macro_precision=100.0 * float(np.mean(precisions)),
                      macro_recall=100.0 * float(np.mean(recalls)),
                      macro_f1=100.0 * float(np.mean(f1s)),
                      confusion=confusion, counts=counts, classes=classes)

"""Desk-scale classifiers and evaluation.

Dynamic-time-warping nearest neighbor on raw per-tag series, and a
k-nearest-neighbor vote on z-scored feature vectors standing in for the
heavier feature classifiers; metrics come with row-normalized confusion
matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LabeledDataset:
    """Feature matrix or raw series bundles with their labels.

    A non-empty feature matrix is z-scored once, when the dataset is built:
    ``zscore`` holds its column means and scales and ``scaled`` the
    normalized matrix that ``knn_feature_classify`` searches.  ``features``
    must therefore not be changed after construction.
    """

    labels: list[str]
    features: np.ndarray | None = None
    bundles: list[dict] | None = None
    classes: tuple[str, ...] = ()
    zscore: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False,
                                                          repr=False, compare=False)
    scaled: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.classes:
            self.classes = tuple(sorted(set(self.labels)))
        unknown = set(self.labels) - set(self.classes)
        if unknown:
            raise ValueError(f"labels outside the class set: {sorted(unknown)}")
        if self.features is not None and len(self.features):
            mu, sd = self.zscore = _zscore_params(self.features)
            self.scaled = (self.features - mu) / sd


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

# pairs per kernel sweep and per bounds block: on series of a few dozen values
# their temporaries stay under glibc's 128 KiB mmap threshold and reuse heap memory
_SWEEP_ROWS = 256
_BOUND_PAIRS = 8192
_PRUNE_MARGIN = 1e-9


def _dtw_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """DTW of each row of ``a`` (k, la) against the same row of ``b`` (k, lb).

    A single row of ``a`` broadcasts against every row of ``b``.  Sweeps the
    anti-diagonals i + j = s of the DP table, all rows at once, keeping three
    diagonals indexed by position i in ``a``.  Every cell is the same cost +
    min of three as in the reference ``dtw_distance`` of tests/test_classify.py,
    so each result equals it exactly.
    """
    la = a.shape[1]
    n, lb = b.shape
    col = np.ascontiguousarray(a.T)               # col[i] = a[:, i]
    rev = np.ascontiguousarray(b.T[::-1])         # rev[lb - 1 - j] = b[:, j]
    # diag[i] holds d[i, s - i]; d[0, 0] = 0 and the rest of row/column 0 is inf
    older = np.full((la + 1, n), np.inf)          # diagonal s - 2
    prev = np.full((la + 1, n), np.inf)           # diagonal s - 1
    cur = np.full((la + 1, n), np.inf)
    prev[1] = np.abs(col[0] - rev[lb - 1])        # diagonal 2: d[1, 1] = cost + d[0, 0]
    for s in range(3, la + lb + 1):
        i0, i1 = max(1, s - lb), min(la, s - 1)
        cost = np.abs(col[i0 - 1:i1] - rev[lb - s + i0:lb - s + i1 + 1])
        best = np.minimum(np.minimum(prev[i0 - 1:i1], prev[i0:i1 + 1]), older[i0 - 1:i1])
        np.add(cost, best, out=cur[i0:i1 + 1])
        older, prev, cur = prev, cur, older
    return prev[la]


def _envelope_sum(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    "Sum over j of the distance of b[:, j] from [min, max] of each row of q; (len q, len b)."
    lo, hi = q.min(axis=1)[:, None], q.max(axis=1)[:, None]
    total = np.zeros((len(q), len(b)))
    below, above = np.empty_like(total), np.empty_like(total)
    for x in np.ascontiguousarray(b.T):
        np.subtract(lo, x, out=below)
        np.subtract(x, hi, out=above)
        np.maximum(below, above, out=below)
        total += np.maximum(below, 0.0, out=below)
    return total


def _dtw_bounds(q: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the DTW of each row of q (m, la) and each row of b (n, lb).

    Every path aligns each b_j with some q_i, which lies in [min q, max q],
    so sum_j dist(b_j, [min q, max q]) is a lower bound, and so is the
    symmetric sum over q (Keogh & Ratanamahatana 2005, full warping window);
    the larger of the two is returned.  The upper bound is the cost of one
    valid path: the diagonal, then the rest of the last row or column.

    Both hold on the computed values, not only on exact ones: a rounded
    envelope distance is no larger than the rounded cost |q_i - b_j| of any
    cell in its column, every sum runs sequentially in path order from 0,
    as the DP's does, and rounding is monotone.  Returns (m, n) arrays.
    """
    la, lb = q.shape[1], b.shape[1]
    lower = np.maximum(_envelope_sum(q, b), _envelope_sum(b, q).T)
    k = min(la, lb)
    path = [(i, i) for i in range(k)] + [(i, lb - 1) for i in range(k, la)] \
        + [(la - 1, j) for j in range(k, lb)]
    qt, bt = np.ascontiguousarray(q.T), np.ascontiguousarray(b.T)
    upper, cost = np.zeros((len(q), len(b))), np.empty((len(q), len(b)))
    for i, j in path:
        np.subtract(qt[i, :, None], bt[j], out=cost)
        upper += np.abs(cost, out=cost)
    return lower, upper


def _stack(series: list) -> tuple[np.ndarray, np.ndarray]:
    "Series as the rows of a zero-padded matrix, and their lengths."
    lengths = np.array([len(s) for s in series])
    if lengths.min() == 0:
        raise ValueError("series must be non-empty")
    rows = np.zeros((len(series), lengths.max()))
    for row, s, n in zip(rows, series, lengths.tolist()):
        row[:n] = s
    if not np.isfinite(rows).all():
        raise ValueError("series must be finite")
    return rows, lengths


def _chunks(idx: np.ndarray, size: int) -> list[np.ndarray]:
    "``idx`` split into the fewest near-equal runs of at most ``size``."
    return np.array_split(idx, -(-idx.size // size))


def _length_groups(lengths: np.ndarray) -> list[tuple[int, np.ndarray]]:
    return [(n, np.flatnonzero(lengths == n)) for n in sorted(set(lengths.tolist()))]


def _candidates(queries: list, trains: list, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(query, training) index pairs of the query ``rows`` that pruning keeps.

    A pair is kept when its lower bound, summed over channels, is at most
    the query's smallest upper bound, summed in the same channel order as
    the distances are, times (1 + 1e-9).  Both sums are monotone in their
    terms under rounding, so the computed bounds bracket the computed
    summed distance (see ``_dtw_bounds``), and a pruned pair is strictly
    farther than the query's nearest neighbor.  The margin only adds slack:
    should a sum be reordered, L non-negative terms summed in any order stay
    within about L * 2**-53 of the sequential sum, far below 1e-9 for any
    series shorter than a million values.
    """
    shape = rows.size, len(trains[0][1])
    lower, upper = np.zeros(shape), np.zeros(shape)
    for (qs, q_len), (ts, t_len) in zip(queries, trains):
        for la, q_idx in _length_groups(q_len[rows]):
            for lb, t_idx in _length_groups(t_len):
                lo, up = _dtw_bounds(qs[rows[q_idx], :la], ts[t_idx, :lb])
                block = np.ix_(q_idx, t_idx)
                lower[block] += lo
                upper[block] += up
    qi, ti = np.nonzero(lower <= upper.min(axis=1, keepdims=True) * (1 + _PRUNE_MARGIN))
    return rows[qi], ti


def dtw_1nn_classify(train: LabeledDataset, query_bundles: list[dict]) -> list[str]:
    """Label of the training bundle with minimal summed per-channel DTW, per query bundle.

    Ties resolve to the lowest training index.  The search is exact and
    pruned: only the (query, training) pairs that ``_candidates`` keeps get
    their DTW computed, on the row-pair kernel, at most 256 pairs of equal
    series lengths per sweep.  Every pruned pair is strictly farther than
    the query's best, so labels and ties are those of a sweep over all
    pairs.  Bounds are taken for blocks of at most 8192 pairs, so their
    temporaries stay small.  Series must be finite and non-empty.
    """
    if train.bundles is None or not train.bundles:
        raise ValueError("training set has no series bundles")
    keys = sorted(train.bundles[0])
    for bundle in (*train.bundles, *query_bundles):
        if sorted(bundle) != keys:
            raise ValueError("series bundles have mismatched channels")
    if not query_bundles:
        return []
    queries = [_stack([qb[key] for qb in query_bundles]) for key in keys]
    trains = [_stack([tb[key] for tb in train.bundles]) for key in keys]
    shape = len(query_bundles), len(train.bundles)
    blocks = _chunks(np.arange(shape[0]), max(1, _BOUND_PAIRS // shape[1]))
    qi, ti = map(np.concatenate, zip(*(_candidates(queries, trains, rows) for rows in blocks)))
    total = np.zeros(qi.size)
    for (qs, q_len), (ts, t_len) in zip(queries, trains):
        la_of, lb_of = q_len[qi], t_len[ti]
        for la, lb in sorted(set(zip(la_of.tolist(), lb_of.tolist()))):
            for part in _chunks(np.flatnonzero((la_of == la) & (lb_of == lb)), _SWEEP_ROWS):
                total[part] += _dtw_rows(qs[qi[part], :la], ts[ti[part], :lb])
    dist = np.full(shape, np.inf)
    dist[qi, ti] = total
    return [train.labels[i] for i in np.argmin(dist, axis=1).tolist()]


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

    The training set's z-score parameters and normalized matrix are the
    ones ``LabeledDataset`` computed when it was built; the query is scaled
    by them.  Vote ties resolve to the tied label with the smallest summed
    distance; k larger than the training set is clamped with a warning.
    """
    if train.scaled is None or len(train.labels) == 0:
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
    mu, sd = train.zscore
    q = (qv - mu) / sd
    dists = np.linalg.norm(train.scaled - q, axis=1)
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

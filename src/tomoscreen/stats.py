"""Reader-study evaluation suite.

Covers the empirical ROC curve and Mann-Whitney AUC, percentile
bootstrap confidence intervals, paired model-vs-reader deltas at matched
operating points, the DeLong test for correlated AUCs, BIRADS reader and
panel operating points, and tumor-size-matched resampling. Everything is
seeded and deterministic.

A resampled statistic has one form, a block: block(idx) -> (values,
defined) evaluates it on each (rows, n) row of case indices, with no
Python loop per row, and says where it is defined. Its point estimate
is the block on the identity row np.arange(n). bootstrap_ci takes any
metric(scores, labels) that returns a block (auc_block is the AUC's).
Resample indices are drawn from one stream in row blocks, which equal
one up-front draw of the whole index matrix, so neither the thread count
nor the block size can change a result. Paired-delta blocks count reader
recalls per distinct recall pattern and find each reader's curve bracket
by integer search; size-matched blocks map their doubles through a
bucketed, bracketed inverse CDF, and the negatives' generator is
advanced past the positives' doubles without drawing them.

Scores are grouped into ties and counted per class in one place,
_class_counts, once per score vector and statistic; every ROC point, AUC
and DeLong component is read off those counts. Every AUC is the
Mann-Whitney count 2U / (2 n_pos n_neg) with 2U from _twice_u, correctly
rounded; it equals the trapezoidal ROC area and the mean of DeLong's
pairwise kernel, and no statistic builds an n_pos x n_neg array.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError, reading
from .imaging import write_csv
from .seeds import rng_stream

RECALL_BIRADS = 3  # BIRADS >= 3 means recall


@dataclass(frozen=True, eq=True)
class CaseRecord:
    """One study: label, model score, optional tumor size and reader BIRADS."""

    case_id: str
    label: bool
    score: float
    tumor_size_mm: float | None = None
    reader_birads: dict[str, int] | None = None

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"case {self.case_id}: score {self.score} outside [0, 1]")
        if self.tumor_size_mm is not None:
            if not self.label:
                raise ValueError(f"case {self.case_id}: tumor size on a negative case")
            if not 0 < self.tumor_size_mm < math.inf:
                raise ValueError(f"case {self.case_id}: tumor size must be finite and positive")
        if self.reader_birads is not None:
            for reader, value in self.reader_birads.items():
                if value not in (1, 2, 3, 4, 5):
                    raise ValueError(
                        f"case {self.case_id}: reader {reader} BIRADS {value} not in 1..5"
                    )


def _split_arrays(cases) -> tuple[np.ndarray, np.ndarray]:
    scores = np.array([c.score for c in cases], dtype=np.float64)
    labels = np.array([c.label for c in cases], dtype=bool)
    return scores, labels


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RocAnalysis:
    """Empirical ROC curve: one point per distinct threshold, plus the
    no-recall endpoint at threshold +inf; each point counts the cases
    of each class at or above its threshold. auc is the Mann-Whitney
    statistic with half credit for ties, P(pos > neg) + 0.5 P(tie), which
    equals the trapezoidal area under these points."""

    thresholds: tuple[float, ...]
    sensitivity: tuple[float, ...]
    specificity: tuple[float, ...]
    auc: float

    def __post_init__(self):
        k = len(self.thresholds)
        if k != len(self.sensitivity) or k != len(self.specificity):
            raise ValueError("ROC arrays must share a length")
        if k < 2:
            raise ValueError("ROC needs at least two points")
        sens = np.asarray(self.sensitivity)
        spec = np.asarray(self.specificity)
        if np.any(np.diff(sens) < 0) or np.any(np.diff(spec) > 0):
            raise ValueError("ROC points must be monotone")
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc {self.auc} outside [0, 1]")


def roc_and_auc(cases: list[CaseRecord]) -> RocAnalysis:
    """Empirical ROC over all distinct score thresholds, from the tie
    groups' class counts taken from the highest score down."""
    scores, labels = _split_arrays(cases)
    values, _, counts = _class_counts(scores, labels)
    neg, pos, n_pos, n_neg = (a[0] for a in counts(_identity_row(scores.size)))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")
    tp = np.cumsum(pos[::-1])
    fp = np.cumsum(neg[::-1])
    return RocAnalysis(
        thresholds=(math.inf,) + tuple(values[::-1].tolist()),
        sensitivity=(0.0,) + tuple((tp / n_pos).tolist()),
        specificity=(1.0,) + tuple(((n_neg - fp) / n_neg).tolist()),
        auc=float(_twice_u(neg, pos) / (2 * n_pos * n_neg)),
    )


def _sens_at_spec_arrays(sens: np.ndarray, spec: np.ndarray, target):
    # collapse to the best sensitivity available at each distinct specificity
    spec_rev = spec[::-1]
    sens_rev = sens[::-1]
    xs, first = np.unique(spec_rev, return_index=True)
    return np.interp(target, xs, sens_rev[first])


def sensitivity_at_specificity(roc: RocAnalysis, target_spec: float) -> float:
    """Linear interpolation on the curve's upper envelope, clamped at ends."""
    return float(
        _sens_at_spec_arrays(np.asarray(roc.sensitivity), np.asarray(roc.specificity), target_spec)
    )


def specificity_at_sensitivity(roc: RocAnalysis, target_sens: float) -> float:
    # the first point at each distinct sensitivity has the best specificity
    xs, first = np.unique(roc.sensitivity, return_index=True)
    return float(np.interp(target_sens, xs, np.asarray(roc.specificity)[first]))


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


# Resample rows are drawn and evaluated in blocks of about this many case
# indices, so a block's count matrices take a few MiB whatever n and the
# number of resamples; larger blocks measured no faster.
_BLOCK_INDICES = 1 << 15


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_INDICES // max(n, 1))


def _resample(fn, n: int, n_resamples: int, seed: int, stream: str) -> tuple[np.ndarray, int]:
    """Evaluate n_resamples rows of n case indices drawn from `stream`;
    returns (values, n_redraws).

    fn(idx) maps a (rows, n) block of indices to (values, defined). The
    blocks are drawn in order from one stream, so they equal one
    up-front (n_resamples, n) draw. Each row that is not defined is
    replaced, in ascending row order, by rows from `<stream>-redraw`
    (created on first use) until one is; more than 1% of n_resamples
    redrawn raises NumericError.
    """
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    rng = rng_stream(seed, stream)
    redraw_rng = None
    n_redraws = 0
    values = np.empty(n_resamples, dtype=np.float64)
    step = _block_rows(n)
    for start in range(0, n_resamples, step):
        block, defined = fn(rng.integers(0, n, size=(min(step, n_resamples - start), n)))
        values[start : start + block.size] = block
        for r in np.flatnonzero(~defined):
            ok = False
            while not ok:
                n_redraws += 1
                if n_redraws > 0.01 * n_resamples:
                    raise NumericError(
                        f"{stream} statistic undefined on more than 1% of resamples "
                        f"({n_redraws} redraws in {n_resamples})"
                    )
                if redraw_rng is None:
                    redraw_rng = rng_stream(seed, f"{stream}-redraw")
                value, defined_one = fn(redraw_rng.integers(0, n, size=(1, n)))
                ok = bool(defined_one[0])
            values[start + r] = value[0]
    return values, n_redraws


def _identity_row(n: int) -> np.ndarray:
    # the one row that draws every case once: a block on it is the point estimate
    return np.arange(n)[None, :]


def _point(block, n: int, undefined: str) -> float:
    """block on the identity row of n cases; ValueError(undefined) where
    the statistic is not defined on the cases themselves."""
    values, defined = block(_identity_row(n))
    if not defined[0]:
        raise ValueError(undefined)
    return float(values[0])


def _row_offsets(rows: int, width: int) -> np.ndarray:
    # added to per-row bin numbers, so one bincount counts every row
    return width * np.arange(rows)[:, None]


def _class_counts(scores: np.ndarray, labels: np.ndarray):
    """Scores grouped into ties: (values, group, counts). values are the
    distinct scores in ascending order and group[i] is case i's index
    into them. counts(idx) -> (neg, pos, n_pos, n_neg): per resample
    row, the (rows, groups) counts of drawn negatives and positives in
    each tie group, and the class sizes; the row np.arange(n) counts
    the cases themselves."""
    values, group = np.unique(scores, return_inverse=True)
    n_groups = int(group.max()) + 1 if group.size else 0
    code = 2 * group + labels  # one bin per (group, class)

    def counts(idx: np.ndarray):
        rows, n = idx.shape
        keys = code[idx]
        keys += _row_offsets(rows, 2 * n_groups)
        both = np.bincount(keys.ravel(), minlength=rows * 2 * n_groups)
        both = both.reshape(rows, n_groups, 2)
        neg, pos = both[..., 0], both[..., 1]
        n_pos = pos.sum(axis=1)
        return neg, pos, n_pos, n - n_pos

    return values, group, counts


def _twice_u(neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """2U along the last axis of tie-group counts in ascending score
    order: the sum over groups of pos * (2 * negatives below + neg), an
    exact integer; the AUC is 2U divided once by 2 n_pos n_neg."""
    neg_below = np.cumsum(neg, axis=-1) - neg
    return (pos * (2 * neg_below + neg)).sum(axis=-1)


def auc_block(scores: np.ndarray, labels: np.ndarray):
    """The Mann-Whitney AUC as a block over resample rows of (scores,
    labels); a row is defined where it drew both classes. On the identity
    row it equals roc_and_auc's auc bit for bit."""
    _, _, counts = _class_counts(
        np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=bool)
    )

    def block(idx: np.ndarray):
        neg, pos, n_pos, n_neg = counts(idx)
        defined = (n_pos > 0) & (n_neg > 0)
        return _twice_u(neg, pos) / np.where(defined, 2 * n_pos * n_neg, 1), defined

    return block


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    lo: float
    hi: float
    n_resamples: int
    n_redraws: int


def bootstrap_ci(metric, cases: list[CaseRecord], n_resamples: int, seed: int) -> BootstrapResult:
    """Percentile bootstrap (2.5/97.5) of a case-level metric.

    metric(scores, labels) takes the cases' score and label arrays and
    returns a block(idx) -> (values, defined) over resample rows, as
    auc_block does. The point estimate is the block on the identity row;
    a metric undefined there raises ValueError. Resamples whole cases
    with replacement, same size as the input. A resample on which the
    metric is not defined (e.g. it drew a single class) is redrawn and
    counted; more than 1% of n_resamples needing redraws aborts with
    NumericError.
    """
    scores, labels = _split_arrays(cases)
    if scores.size == 0:
        raise ValueError("bootstrap needs at least one case")
    block = metric(scores, labels)
    point = _point(block, scores.size, "bootstrap metric undefined on the cases")
    values, n_redraws = _resample(block, scores.size, n_resamples, seed, "bootstrap")
    lo, hi = np.percentile(values, [2.5, 97.5])
    return BootstrapResult(
        point=point, lo=float(lo), hi=float(hi), n_resamples=n_resamples, n_redraws=n_redraws
    )


# ---------------------------------------------------------------------------
# Paired model-vs-reader delta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairedDeltaResult:
    p_value: float
    point_delta: float
    n_redraws: int


def _matched_delta_block(scores: np.ndarray, labels: np.ndarray, recalls: np.ndarray):
    """Block form of the matched delta on resample rows: the mean over
    readers of the model's sensitivity at that reader's specificity,
    minus the mean reader sensitivity.

    Each value equals, bit for bit, sensitivity_at_specificity on that
    row's roc_and_auc curve (np.interp on its upper envelope). The curve lies
    on the full tie-group grid: point j recalls all but the j lowest
    groups, and point n_groups recalls nothing. A group the row did not
    draw only repeats a point, and the first point of each run of equal
    specificity has the run's best sensitivity.

    Reader recalls come from pattern counts: the drawn cases are counted
    per distinct recall pattern (a case's class and the readers who
    recalled it), and those counts times the pattern matrix give each
    reader's recalls per class, sums of small integers and so exact. The
    curve point below each reader's specificity is found by integer
    search: spec = neg_below / n_neg rises with the integer neg_below, and
    distinct integers give distinct quotients, so the points at or below a
    target are those with neg_below <= M, M the largest m with
    m / n_neg <= target.
    """
    _, _, counts = _class_counts(scores, labels)
    by_class = np.concatenate([recalls & labels[:, None], recalls & ~labels[:, None]], axis=1)
    patterns, pattern = np.unique(by_class, axis=0, return_inverse=True)
    patterns = patterns.astype(np.float64)
    pattern = pattern.reshape(-1)
    n_patterns = patterns.shape[0]
    n_readers = recalls.shape[1]

    def block(idx: np.ndarray):
        rows, n = idx.shape
        neg, pos, n_pos, n_neg = counts(idx)
        defined = (n_pos > 0) & (n_neg > 0)
        n_pos_col = np.where(defined, n_pos, 1)[:, None]
        n_neg_col = np.where(defined, n_neg, 1)[:, None]

        keys = pattern[idx]
        keys += _row_offsets(rows, n_patterns)
        drawn = np.bincount(keys.ravel(), minlength=rows * n_patterns)
        recalled = np.dot(drawn.reshape(rows, n_patterns).astype(np.float64), patterns)
        reader_sens = recalled[:, :n_readers] / n_pos_col
        target = 1.0 - recalled[:, n_readers:] / n_neg_col

        # class counts below each grid point; the last point is the
        # no-recall end (spec 1, sens 0)
        neg_below = np.zeros((rows, neg.shape[1] + 1), dtype=np.int64)
        pos_below = np.zeros_like(neg_below)
        np.cumsum(neg, axis=1, out=neg_below[:, 1:])
        np.cumsum(pos, axis=1, out=pos_below[:, 1:])

        # M from floor(target * n_neg), off by at most one either way
        m = np.floor(target * n_neg_col).astype(np.int64)
        m += (m + 1) / n_neg_col <= target
        m -= m / n_neg_col > target

        # each row's counts laid end to end, row r offset by r (n + 1) so
        # that the whole is ascending: one search finds a flat index into
        # every row's points at once
        offsets = _row_offsets(rows, n + 1)
        laid = (neg_below + offsets).ravel()
        neg_flat, pos_flat = neg_below.ravel(), pos_below.ravel()
        last = _row_offsets(rows, neg_below.shape[1]) + neg_below.shape[1] - 1

        def sens_at(points):
            return (n_pos_col - pos_flat[points]) / n_pos_col

        # np.interp: lo is the last point at or below the target (spec
        # starts at 0 <= target), and the point after lo starts the next
        # run; lo's value is the sensitivity at the first point of its run
        lo = np.searchsorted(laid, m + offsets, side="right") - 1
        x_lo = neg_flat[lo] / n_neg_col
        y_lo = sens_at(np.searchsorted(laid, laid[lo], side="left"))
        hi = np.minimum(lo + 1, last)
        x_hi = neg_flat[hi] / n_neg_col
        exact = (lo == last) | (x_lo == target)
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = (sens_at(hi) - y_lo) / (x_hi - x_lo)
            model_sens = np.where(exact, y_lo, slope * (target - x_lo) + y_lo)
        return np.mean(model_sens, axis=1) - np.mean(reader_sens, axis=1), defined

    return block


def paired_delta_pvalue(
    cases: list[CaseRecord], reader_ids: list[str], n_resamples: int, seed: int
) -> PairedDeltaResult:
    """Bootstrap p-value for model-below-readers at matched specificity.

    Each resample recomputes every reader's operating point and the model
    sensitivity at that reader's specificity; p is the fraction of
    resamples where the mean difference (model - readers) is negative.
    """
    if not reader_ids:
        raise ValueError("paired delta needs at least one reader")
    scores, labels = _split_arrays(cases)
    recalls = _birads_matrix(cases, reader_ids) >= RECALL_BIRADS
    delta = _matched_delta_block(scores, labels, recalls)
    point = _point(delta, len(cases), "ROC needs at least one positive and one negative")
    deltas, n_redraws = _resample(delta, len(cases), n_resamples, seed, "paired-delta")
    below = int(np.count_nonzero(deltas < 0))
    return PairedDeltaResult(p_value=below / n_resamples, point_delta=point, n_redraws=n_redraws)


# ---------------------------------------------------------------------------
# DeLong test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelongResult:
    auc_a: float
    auc_b: float
    z: float
    p: float
    degenerate: bool = False


def _structural_components(scores: np.ndarray, labels: np.ndarray):
    """DeLong's V10, V01 and AUC from tie-group counts (Sun & Xu 2014),
    in O(n) memory. A positive's V10 is (2 * negatives below + negatives
    tied) / (2 n_neg), and a negative's V01 is (2 * positives above +
    positives tied) / (2 n_pos): exact integers divided once, so V10 and
    V01 equal the pairwise kernel's row and column means bit for bit."""
    _, group, counts = _class_counts(scores, labels)
    neg, pos, n_pos, n_neg = (a[0] for a in counts(_identity_row(scores.size)))
    neg_below = np.cumsum(neg) - neg
    pos_above = n_pos - np.cumsum(pos)
    v10 = (2 * neg_below + neg) / (2 * n_neg)
    v01 = (2 * pos_above + pos) / (2 * n_pos)
    auc = _twice_u(neg, pos) / (2 * n_pos * n_neg)
    return v10[group[labels]], v01[group[~labels]], auc


def delong_test(scores_a, scores_b, labels) -> DelongResult:
    """Two-sided DeLong comparison of two AUCs measured on the same cases.

    Identical score vectors short-circuit to z=0, p=1. A zero or
    undefined variance estimate with unequal AUCs is reported as
    degenerate with p = nan.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if a.shape != y.shape or b.shape != y.shape:
        raise ValueError("scores and labels must be the same length")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("DeLong test needs both classes")

    v10_a, v01_a, auc_a = _structural_components(a, y)
    if np.array_equal(a, b):
        return DelongResult(auc_a=float(auc_a), auc_b=float(auc_a), z=0.0, p=1.0)
    v10_b, v01_b, auc_b = _structural_components(b, y)

    with np.errstate(invalid="ignore", divide="ignore"):
        s10 = np.cov(np.stack([v10_a, v10_b]), ddof=1) if n_pos > 1 else np.full((2, 2), np.nan)
        s01 = np.cov(np.stack([v01_a, v01_b]), ddof=1) if n_neg > 1 else np.full((2, 2), np.nan)
    var = (s10[0, 0] + s10[1, 1] - 2 * s10[0, 1]) / n_pos + (
        s01[0, 0] + s01[1, 1] - 2 * s01[0, 1]
    ) / n_neg

    if not math.isfinite(var) or var <= 0:
        if auc_a == auc_b:
            return DelongResult(auc_a=float(auc_a), auc_b=float(auc_b), z=0.0, p=1.0)
        return DelongResult(
            auc_a=float(auc_a), auc_b=float(auc_b), z=math.nan, p=math.nan, degenerate=True
        )
    z = float((auc_a - auc_b) / math.sqrt(var))
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return DelongResult(auc_a=float(auc_a), auc_b=float(auc_b), z=z, p=p)


# ---------------------------------------------------------------------------
# Readers and panels
# ---------------------------------------------------------------------------


def _birads_matrix(cases: list[CaseRecord], reader_ids: list[str]) -> np.ndarray:
    """(n_cases x n_readers) integer BIRADS grades; every read must exist."""
    grades = np.empty((len(cases), len(reader_ids)), dtype=np.int64)
    for i, case in enumerate(cases):
        birads = case.reader_birads or {}
        for j, reader in enumerate(reader_ids):
            if reader not in birads:
                raise ValueError(f"case {case.case_id} missing read from {reader}")
            grades[i, j] = birads[reader]
    return grades


@dataclass(frozen=True)
class PanelPoint:
    readers: tuple[str, ...]
    sensitivity: float
    specificity: float


def enumerate_panels(cases: list[CaseRecord], reader_ids: list[str]) -> list[PanelPoint]:
    """Operating points of all single readers plus every panel of size
    2..k, in deterministic order. A panel recalls a case iff its
    readers' mean BIRADS is >= 3 (inclusive); a single reader is a panel
    of one."""
    if not reader_ids:
        raise ValueError("panels need at least one reader")
    readers = sorted(reader_ids)
    grades = _birads_matrix(cases, readers)
    _, labels = _split_arrays(cases)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("panel evaluation needs both classes")
    points = []
    for size in range(1, len(readers) + 1):
        for combo in itertools.combinations(range(len(readers)), size):
            # mean BIRADS >= 3 over k reads, in its exact integer form: sum >= 3k
            recall = grades[:, combo].sum(axis=1) >= RECALL_BIRADS * size
            tp = int(np.count_nonzero(recall[labels]))
            tn = n_neg - int(np.count_nonzero(recall[~labels]))
            points.append(
                PanelPoint(
                    readers=tuple(readers[j] for j in combo),
                    sensitivity=tp / n_pos,
                    specificity=tn / n_neg,
                )
            )
    return points


# ---------------------------------------------------------------------------
# Tumor-size-matched resampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeHistogram:
    """Target tumor-size distribution over bins split at bin_edges (mm).

    len(shares) == len(bin_edges) + 1; bin b holds sizes in
    [edge[b-1], edge[b]) with open ends. Both are stored as float tuples,
    so an integer spelling of a histogram is the same histogram.
    """

    bin_edges: tuple[float, ...]
    shares: tuple[float, ...]

    def __post_init__(self):
        try:
            for name in ("bin_edges", "shares"):
                object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        except OverflowError as exc:  # an integer too large for a float
            raise ValueError("bin_edges and shares must be finite") from exc
        edges, shares = np.asarray(self.bin_edges), np.asarray(self.shares)
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(shares))):
            raise ValueError("bin_edges and shares must be finite")
        if edges.size == 0 or np.any(np.diff(edges) <= 0):
            raise ValueError("bin_edges must be ascending and nonempty")
        if shares.size != edges.size + 1:
            raise ValueError(f"need {edges.size + 1} shares, got {shares.size}")
        if np.any(shares < 0):
            raise ValueError("shares must be nonnegative")
        if abs(shares.sum() - 1.0) > 1e-9:
            raise ValueError(f"shares must sum to 1, got {shares.sum()}")

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) + 1

    def bin_of(self, sizes: np.ndarray) -> np.ndarray:
        return np.digitize(sizes, self.bin_edges)


def source_histogram(sizes: np.ndarray, bin_edges) -> SizeHistogram:
    """Empirical SizeHistogram of the given sizes."""
    bins = np.digitize(sizes, bin_edges)
    counts = np.bincount(bins, minlength=len(bin_edges) + 1)
    return SizeHistogram(bin_edges=tuple(bin_edges), shares=tuple(counts / counts.sum()))


# Buckets of the bracketed inverse CDF, a power of two so that u * k is
# exact. With 2**16 a key's bucket holds no CDF value for about 99% of
# the keys on the 700-positive reader-stats table, so few keys need a
# bisection round; the table takes 512 KiB.
_CDF_BUCKETS = 1 << 16


def _inverse_cdf(cdf: np.ndarray):
    """lookup(u) == np.searchsorted(cdf, u, "right") for keys u in [0, 1)
    and an ascending cdf.

    With k = _CDF_BUCKETS buckets of width 1 / k, b = floor(u k) is
    exact, and the answer lies in [below[b], below[b + 1]], where
    below[b] counts the values at or below b / k. A vectorized bisection
    inside that bracket makes the comparisons cdf[j] <= u that
    searchsorted makes; it ends within log2 of the widest bracket
    rounds, however many values repeat.
    """
    k = _CDF_BUCKETS
    below = np.searchsorted(cdf, np.arange(k + 1) / k, side="right")

    def lookup(u: np.ndarray) -> np.ndarray:
        keys = u.ravel()
        b = (keys * k).astype(np.int64)
        lo, hi = below[b], below[b + 1]
        # invariant: cdf[j] <= u below lo, cdf[j] > u from hi on
        todo = np.flatnonzero(lo < hi)
        while todo.size:
            mid = (lo[todo] + hi[todo]) >> 1
            le = cdf[mid] <= keys[todo]
            lo[todo[le]] = mid[le] + 1
            hi[todo[~le]] = mid[~le]
            todo = todo[lo[todo] < hi[todo]]
        return lo.reshape(u.shape)

    return lookup


@dataclass(frozen=True)
class SizeMatchedResult:
    mean_auc: float
    sd_auc: float
    mean_tv_distance: float
    n_populations: int


def size_matched_auc(
    cases: list[CaseRecord], target: SizeHistogram, n_populations: int, seed: int
) -> SizeMatchedResult:
    """Mean and SD of AUC over resampled populations whose positive tumor
    sizes approximate the target histogram.

    Positives are drawn with replacement with per-case probability
    proportional to target share / source share of their size bin;
    negatives are drawn uniformly with replacement. Also reports the mean
    total-variation distance between resampled size histograms and the
    target.

    The "size-matched" stream holds every population's positive draws
    (one double each, mapped through the inverse CDF of the weights as
    Generator.choice does) followed by every population's negative draws
    (integers). Both are drawn and evaluated in row blocks, so memory is
    bounded by one block of populations whatever n_populations is. The
    inverse CDF is a bracketed search (_inverse_cdf) equal to
    Generator.choice's searchsorted, and the negatives' generator reaches
    its place in the stream by advancing Philox's counter, not by drawing
    the positives' doubles a second time.
    """
    if n_populations < 1:
        raise ValueError("n_populations must be >= 1")
    pos = [c for c in cases if c.label]
    neg = [c for c in cases if not c.label]
    if not pos or not neg:
        raise ValueError("size matching needs both classes")
    for c in pos:
        if c.tumor_size_mm is None:
            raise ValueError(f"positive case {c.case_id} lacks a tumor size")

    sizes = np.array([c.tumor_size_mm for c in pos], dtype=np.float64)
    pos_scores = np.array([c.score for c in pos], dtype=np.float64)
    neg_scores = np.array([c.score for c in neg], dtype=np.float64)
    bins = target.bin_of(sizes)
    counts = np.bincount(bins, minlength=target.n_bins)
    shares = np.asarray(target.shares, dtype=np.float64)

    for b in range(target.n_bins):
        if shares[b] > 0 and counts[b] == 0:
            lo = "-inf" if b == 0 else str(target.bin_edges[b - 1])
            hi = "+inf" if b == target.n_bins - 1 else str(target.bin_edges[b])
            raise ValueError(
                f"target bin [{lo}, {hi}) mm has share {shares[b]} but no source positives"
            )

    n_pos, n_neg = len(pos), len(neg)
    bin_weight = np.zeros(target.n_bins, dtype=np.float64)
    nz = counts > 0
    bin_weight[nz] = shares[nz] / (counts[nz] / n_pos)
    w = bin_weight[bins]
    total = w.sum()
    # Generator.choice(p=w)'s inverse CDF, built once
    cdf = np.cumsum(w / total)
    cdf /= cdf[-1]
    choose = _inverse_cdf(cdf)

    # The negatives follow every population's positives in the stream: a
    # second generator on it, moved past the positives' doubles, yields
    # them block by block, so neither index matrix is held whole. Each
    # double takes one 64-bit output, and Philox4x64 makes four per
    # counter step.
    rng = rng_stream(seed, "size-matched")
    neg_rng = rng_stream(seed, "size-matched")
    skip = n_populations * n_pos
    neg_rng.bit_generator.advance(skip // 4)
    neg_rng.bit_generator.random_raw(skip % 4)

    labels = np.concatenate([np.ones(n_pos, dtype=bool), np.zeros(n_neg, dtype=bool)])
    auc = auc_block(np.concatenate([pos_scores, neg_scores]), labels)
    aucs = np.empty(n_populations, dtype=np.float64)
    tvs = np.empty(n_populations, dtype=np.float64)
    step = _block_rows(n_pos + n_neg)
    idx = np.empty((min(step, n_populations), n_pos + n_neg), dtype=np.int64)
    for start in range(0, n_populations, step):
        rows = min(step, n_populations - start)
        block = slice(start, start + rows)
        drawn = idx[:rows]
        drawn[:, :n_pos] = choose(rng.random((rows, n_pos)))
        np.add(neg_rng.integers(0, n_neg, size=(rows, n_neg)), n_pos, out=drawn[:, n_pos:])
        aucs[block], _ = auc(drawn)
        keys = bins[drawn[:, :n_pos]] + target.n_bins * np.arange(rows)[:, None]
        got = np.bincount(keys.ravel(), minlength=rows * target.n_bins)
        got = got.reshape(rows, target.n_bins) / n_pos
        tvs[block] = 0.5 * np.abs(got - shares).sum(axis=1)
    return SizeMatchedResult(
        mean_auc=float(aucs.mean()),
        sd_auc=float(aucs.std(ddof=1)) if n_populations > 1 else 0.0,
        mean_tv_distance=float(tvs.mean()),
        n_populations=n_populations,
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_cases_csv(cases: list[CaseRecord], path: str | Path) -> None:
    reader_ids = sorted({r for c in cases for r in (c.reader_birads or {})})
    has_sizes = any(c.tumor_size_mm is not None for c in cases)
    header = ["case_id", "label", "score"]
    if has_sizes:
        header.append("tumor_size_mm")
    header += [f"birads_{r}" for r in reader_ids]
    rows = []
    for c in cases:
        row = [c.case_id, int(c.label), repr(c.score)]
        if has_sizes:
            row.append("" if c.tumor_size_mm is None else repr(c.tumor_size_mm))
        birads = c.reader_birads or {}
        rows.append(row + [birads.get(r) for r in reader_ids])  # None writes as ""
    write_csv(path, header, rows)


_LABELS = {"1": True, "true": True, "0": False, "false": False}


def _cell(row: list[str], col: dict[str, int], name: str, parse):
    text = row[col[name]]
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise ValueError(f"column {name!r}: cannot parse {text!r}") from None


def _case_from_row(row: list[str], col: dict[str, int], reader_cols) -> CaseRecord:
    size = None
    if "tumor_size_mm" in col and row[col["tumor_size_mm"]].strip() != "":
        size = _cell(row, col, "tumor_size_mm", float)
    birads = {
        reader_id: _cell(row, col, name, int)
        for reader_id, name in reader_cols
        if row[col[name]].strip() != ""
    }
    return CaseRecord(
        case_id=row[col["case_id"]],
        label=_cell(row, col, "label", lambda text: _LABELS[text.strip().lower()]),
        score=_cell(row, col, "score", float),
        tumor_size_mm=size,
        reader_birads=birads or None,
    )


def cases_from_csv(text: str) -> list[CaseRecord]:
    """Parse a cases table; a malformed row raises ValueError naming its
    line and, for a bad cell, its column, and a repeated case_id names
    both lines."""
    if not text.strip():
        raise ValueError("empty cases CSV")
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip() for h in next(reader)]
        for name in ("case_id", "label", "score"):
            if name not in header:
                raise ValueError(f"cases CSV missing column {name!r}")
        col = {name: i for i, name in enumerate(header)}
        reader_cols = [
            (name[len("birads_"):], name) for name in header if name.startswith("birads_")
        ]
        out, first_line = [], {}
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, header has {len(header)}")
            case = _case_from_row(row, col, reader_cols)
            first = first_line.setdefault(case.case_id, reader.line_num)
            if first != reader.line_num:
                raise ValueError(f"duplicate case_id {case.case_id!r}, first on line {first}")
            out.append(case)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    return out


def read_cases_csv(path: str | Path) -> list[CaseRecord]:
    with reading(path):
        return cases_from_csv(Path(path).read_text())


def write_roc_csv(roc: RocAnalysis, path: str | Path) -> None:
    rows = (
        [repr(t) if math.isfinite(t) else "inf", repr(se), repr(sp)]
        for t, se, sp in zip(roc.thresholds, roc.sensitivity, roc.specificity)
    )
    write_csv(path, ["threshold", "sensitivity", "specificity"], rows)


def write_panels_csv(points: list[PanelPoint], path: str | Path) -> None:
    rows = (
        ["+".join(pt.readers), len(pt.readers), repr(pt.sensitivity), repr(pt.specificity)]
        for pt in points
    )
    write_csv(path, ["panel", "size", "sensitivity", "specificity"], rows)


_SVG_COLORS = ("#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df")


def write_roc_svg(
    curves: list[tuple[str, RocAnalysis]],
    path: str | Path,
    points: list[tuple[str, float, float]] | None = None,
) -> None:
    """Minimal deterministic SVG plot of ROC curves in (FPR, TPR) axes.

    points: optional (label, sensitivity, specificity) markers, e.g.
    reader operating points.
    """
    size, margin = 480, 48
    span = size - 2 * margin

    def px(fpr: float) -> str:
        return f"{margin + span * fpr:.2f}"

    def py(tpr: float) -> str:
        return f"{size - margin - span * tpr:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
        f'<line x1="{px(0.0)}" y1="{py(0.0)}" x2="{px(1.0)}" y2="{py(1.0)}" '
        'stroke="#bbb" stroke-dasharray="4 4"/>',
    ]
    for frac in (0.25, 0.5, 0.75):
        parts.append(
            f'<line x1="{px(frac)}" y1="{py(0.0)}" x2="{px(frac)}" y2="{py(1.0)}" '
            'stroke="#eee"/>'
        )
        parts.append(
            f'<line x1="{px(0.0)}" y1="{py(frac)}" x2="{px(1.0)}" y2="{py(frac)}" '
            'stroke="#eee"/>'
        )
    for k, (label, roc) in enumerate(curves):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        coords = " ".join(
            f"{px(1.0 - sp)},{py(se)}"
            for se, sp in zip(roc.sensitivity, roc.specificity)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{margin + 8}" y="{margin + 16 + 14 * k}" font-size="11" '
            f'fill="{color}">{label} (AUC {roc.auc:.3f})</text>'
        )
    for label, sens, spec in points or []:
        parts.append(
            f'<circle cx="{px(1.0 - spec)}" cy="{py(sens)}" r="3" fill="#24292f"/>'
        )
        parts.append(
            f'<text x="{float(px(1.0 - spec)) + 5:.2f}" y="{float(py(sens)) - 5:.2f}" '
            f'font-size="9" fill="#24292f">{label}</text>'
        )
    parts.append(
        f'<text x="{size / 2:.0f}" y="{size - 12}" font-size="11" text-anchor="middle" '
        'fill="#444">false positive rate</text>'
    )
    parts.append(
        f'<text x="14" y="{size / 2:.0f}" font-size="11" text-anchor="middle" '
        f'fill="#444" transform="rotate(-90 14 {size / 2:.0f})">sensitivity</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")

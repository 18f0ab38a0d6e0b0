"""ROC/AUC, bootstrap, paired deltas, DeLong, reader panels, size matching.

Oracles here are deliberately naive reimplementations: pairwise AUC
loops, the midrank AUC, the ROC curve by bisection of each class's
sorted scores, an explicit-loop DeLong, hand-tallied operating points.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import auc, recall_tally

from tomoscreen import stats
from tomoscreen.errors import NumericError
from tomoscreen.seeds import rng_stream
from tomoscreen.stats import (
    BootstrapResult,
    CaseRecord,
    PairedDeltaResult,
    RocAnalysis,
    SizeHistogram,
    SizeMatchedResult,
    auc_block,
    bootstrap_ci,
    cases_from_csv,
    delong_test,
    enumerate_panels,
    paired_delta_pvalue,
    read_cases_csv,
    roc_and_auc,
    sensitivity_at_specificity,
    size_matched_auc,
    source_histogram,
    specificity_at_sensitivity,
    write_cases_csv,
    write_panels_csv,
    write_roc_csv,
    write_roc_svg,
    _sens_at_spec_arrays,
    _structural_components,
)


def records(pos_scores, neg_scores, **kw):
    out = [
        CaseRecord(case_id=f"p{i}", label=True, score=s, **kw)
        for i, s in enumerate(pos_scores)
    ]
    out += [
        CaseRecord(case_id=f"n{i}", label=False, score=s)
        for i, s in enumerate(neg_scores)
    ]
    return out


def pairwise_auc(cases):
    """Quadratic Mann-Whitney oracle: mean of win/tie credit over pairs."""
    pos = [c.score for c in cases if c.label]
    neg = [c.score for c in cases if not c.label]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def midrank_auc(scores, labels):
    """Midrank oracle: U = (sum of positive midranks) - n_pos (n_pos + 1) / 2,
    an exact half-integer, divided once."""
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ranks = (starts + (counts + 1) / 2.0)[inverse]  # 1-based mean rank of each tie group
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def bisection_curve(scores, labels):
    """Bisection oracle: (thresholds_desc, sens, spec) with count(x >= t)
    from a left bisection of each class's sorted scores; sens and spec
    start at the no-recall point (sens 0, spec 1)."""
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")
    thresholds = np.unique(scores)[::-1]
    tp = n_pos - np.searchsorted(np.sort(scores[labels]), thresholds, side="left")
    fp = n_neg - np.searchsorted(np.sort(scores[~labels]), thresholds, side="left")
    sens = np.concatenate(([0.0], tp / n_pos))
    spec = np.concatenate(([1.0], (n_neg - fp) / n_neg))
    return thresholds, sens, spec


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


scores_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0).map(lambda x: round(x, 2)),
    min_size=1,
    max_size=25,
)

# (score, label) rows in any order, both classes present, tied scores likely
labeled_strategy = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1.0).map(lambda x: round(x, 1)), st.booleans()),
    min_size=2,
    max_size=40,
).filter(lambda rows: len({label for _, label in rows}) == 2)


class TestCaseRecord:
    def test_score_range(self):
        with pytest.raises(ValueError):
            CaseRecord(case_id="x", label=True, score=1.2)
        with pytest.raises(ValueError):
            CaseRecord(case_id="x", label=False, score=-0.1)

    def test_tumor_size_rules(self):
        with pytest.raises(ValueError):
            CaseRecord(case_id="x", label=False, score=0.5, tumor_size_mm=12.0)
        with pytest.raises(ValueError):
            CaseRecord(case_id="x", label=True, score=0.5, tumor_size_mm=0.0)
        ok = CaseRecord(case_id="x", label=True, score=0.5, tumor_size_mm=12.0)
        assert ok.tumor_size_mm == 12.0

    @pytest.mark.parametrize("size", [math.inf, math.nan, -math.inf])
    def test_tumor_size_must_be_finite(self, size):
        with pytest.raises(ValueError, match="tumor size must be finite and positive"):
            CaseRecord(case_id="x", label=True, score=0.5, tumor_size_mm=size)

    def test_birads_range(self):
        with pytest.raises(ValueError):
            CaseRecord(case_id="x", label=True, score=0.5, reader_birads={"r1": 6})
        with pytest.raises(ValueError):
            CaseRecord(case_id="x", label=True, score=0.5, reader_birads={"r1": 0})


class TestRocAndAuc:
    def test_perfect_separation(self):
        roc = roc_and_auc(records([0.8, 0.9], [0.1, 0.2]))
        assert roc.auc == 1.0

    def test_inverted_separation(self):
        roc = roc_and_auc(records([0.1, 0.2], [0.8, 0.9]))
        assert roc.auc == 0.0

    def test_identical_scores_give_half(self):
        roc = roc_and_auc(records([0.5, 0.5], [0.5, 0.5, 0.5]))
        assert roc.auc == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_and_auc(records([0.5], []))
        with pytest.raises(ValueError):
            roc_and_auc(records([], [0.5]))

    def test_curve_shape_two_cases(self):
        roc = roc_and_auc(records([0.8], [0.3]))
        assert roc.thresholds == (math.inf, 0.8, 0.3)
        assert roc.sensitivity == (0.0, 1.0, 1.0)
        assert roc.specificity == (1.0, 1.0, 0.0)

    def test_endpoints(self, rng):
        cases = records(rng.random(12).tolist(), rng.random(15).tolist())
        roc = roc_and_auc(cases)
        assert (roc.sensitivity[0], roc.specificity[0]) == (0.0, 1.0)
        assert (roc.sensitivity[-1], roc.specificity[-1]) == (1.0, 0.0)

    @given(scores_strategy, scores_strategy)
    def test_matches_pairwise_oracle(self, pos, neg):
        cases = records(pos, neg)
        oracle = pairwise_auc(cases)
        assert roc_and_auc(cases).auc == pytest.approx(oracle, abs=1e-12)
        scores = np.array([c.score for c in cases])
        labels = np.array([c.label for c in cases])
        assert auc(scores, labels) == pytest.approx(oracle, abs=1e-12)

    @given(scores_strategy, scores_strategy)
    @example([0.7, 0.9], [0.1, 0.7, 0.9, 1.0, 0.0, 0.9])
    def test_auc_is_the_exact_count_correctly_rounded(self, pos, neg):
        # on tied data a trapezoid sum over the curve can miss by an ulp
        # (the example does); the count divided once cannot
        cases = records(pos, neg)
        twice_u = sum(2 if p > q else int(p == q) for p in pos for q in neg)
        exact = float(Fraction(twice_u, 2 * len(pos) * len(neg)))
        scores = np.array([c.score for c in cases])
        labels = np.array([c.label for c in cases])
        assert roc_and_auc(cases).auc == auc(scores, labels) == exact

    def test_trapezoid_of_own_curve(self, rng):
        # quantized scores so the curve contains real tie steps
        pos = np.round(rng.random(40), 1).tolist()
        neg = np.round(rng.random(60), 1).tolist()
        roc = roc_and_auc(records(pos, neg))
        fpr = [1.0 - s for s in roc.specificity]
        area = math.fsum(
            (fpr[i + 1] - fpr[i]) * (roc.sensitivity[i] + roc.sensitivity[i + 1]) / 2
            for i in range(len(fpr) - 1)
        )
        assert roc.auc == pytest.approx(area, abs=1e-12)

    @given(scores_strategy, scores_strategy)
    def test_monotone_transform_invariance(self, pos, neg):
        base = records(pos, neg)
        squared = records([s * s for s in pos], [s * s for s in neg])
        assert roc_and_auc(base).auc == roc_and_auc(squared).auc

    @given(scores_strategy, scores_strategy)
    @example([0.5, 0.5], [0.5, 0.5, 0.5])  # every score tied
    @example([0.5, 0.5, 0.5], [0.5, 0.5, 0.25])  # one score differs
    @example([0.25], [0.25])
    def test_curve_equals_the_bisection_oracle(self, pos, neg):
        cases = records(pos, neg)
        scores = np.array([c.score for c in cases])
        labels = np.array([c.label for c in cases])
        thresholds, sens, spec = bisection_curve(scores, labels)
        roc = roc_and_auc(cases)
        assert np.array(roc.thresholds).tobytes() == np.append(np.inf, thresholds).tobytes()
        assert np.array(roc.sensitivity).tobytes() == sens.tobytes()
        assert np.array(roc.specificity).tobytes() == spec.tobytes()
        assert auc(scores, labels) == midrank_auc(scores, labels)

    def test_auc_needs_both_classes(self):
        with pytest.raises(ValueError, match="at least one positive and one negative"):
            roc_and_auc(records([0.1, 0.2], []))
        _, defined = auc_block(np.array([0.1, 0.2]), np.array([True, True]))(np.arange(2)[None])
        assert not defined.any()


class TestRocAnalysisValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RocAnalysis(
                thresholds=(math.inf, 0.5),
                sensitivity=(0.0, 1.0, 1.0),
                specificity=(1.0, 0.0),
                auc=0.5,
            )

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            RocAnalysis(
                thresholds=(math.inf, 0.6, 0.3),
                sensitivity=(0.0, 1.0, 0.5),
                specificity=(1.0, 0.5, 0.0),
                auc=0.5,
            )

    def test_auc_range(self):
        with pytest.raises(ValueError):
            RocAnalysis(
                thresholds=(math.inf, 0.5),
                sensitivity=(0.0, 1.0),
                specificity=(1.0, 0.0),
                auc=1.5,
            )


class TestOperatingPointLookup:
    def curve(self):
        return roc_and_auc(records([0.4, 0.9], [0.2, 0.6]))

    def test_sensitivity_midway_between_vertices(self):
        # curve vertices: (spec 1, sens 0.5) and (spec 0.5, sens 1)
        assert sensitivity_at_specificity(self.curve(), 0.75) == pytest.approx(0.75)

    def test_exact_vertex(self):
        assert sensitivity_at_specificity(self.curve(), 0.5) == 1.0
        assert sensitivity_at_specificity(self.curve(), 1.0) == 0.5

    def test_zero_specificity_means_total_recall(self):
        assert sensitivity_at_specificity(self.curve(), 0.0) == 1.0

    def test_specificity_at_sensitivity_mirror(self):
        assert specificity_at_sensitivity(self.curve(), 0.75) == pytest.approx(0.75)
        assert specificity_at_sensitivity(self.curve(), 1.0) == 0.5
        assert specificity_at_sensitivity(self.curve(), 0.0) == 1.0

    def test_envelope_takes_best_sensitivity(self):
        # two thresholds share specificity 1.0; lookup must use the better
        roc = roc_and_auc(records([0.8, 0.9], [0.1]))
        assert sensitivity_at_specificity(roc, 1.0) == 1.0


def constant_block(value):
    """A metric(scores, labels) whose block is `value` on every row."""
    return lambda scores, labels: lambda idx: (
        np.full(idx.shape[0], value), np.ones(idx.shape[0], dtype=bool)
    )


class TestBootstrapCi:
    def test_constant_metric_collapses(self):
        cases = records([0.7, 0.8], [0.2, 0.3])
        result = bootstrap_ci(constant_block(0.7), cases, n_resamples=200, seed=1)
        assert (result.point, result.lo, result.hi) == (0.7, 0.7, 0.7)
        assert result.n_redraws == 0

    def test_zero_resamples_rejected(self):
        cases = records([0.7, 0.8], [0.2, 0.3])
        with pytest.raises(ValueError, match="^n_resamples must be >= 1$"):
            bootstrap_ci(auc_block, cases, n_resamples=0, seed=0)

    def test_same_seed_is_deterministic(self):
        cases = records([0.7, 0.8, 0.6, 0.9], [0.2, 0.3, 0.4, 0.5])
        a = bootstrap_ci(auc_block, cases, n_resamples=500, seed=5)
        b = bootstrap_ci(auc_block, cases, n_resamples=500, seed=5)
        assert a == b

    def test_point_estimate_is_plain_metric(self):
        cases = records(
            [0.7, 0.8, 0.6, 0.9, 0.75, 0.65, 0.85, 0.7],
            [0.2, 0.3, 0.4, 0.1, 0.25, 0.35, 0.15, 0.45],
        )
        result = bootstrap_ci(auc_block, cases, n_resamples=200, seed=0)
        assert result.point == roc_and_auc(cases).auc

    def test_single_class_resamples_are_redrawn(self):
        # 5+5 cases: a one-class resample has probability 2 * 0.5^10, so
        # about 20 of 10000 trip the redraw path without nearing the cap
        cases = records([0.9, 0.8, 0.7, 0.85, 0.95], [0.1, 0.2, 0.3, 0.15, 0.05])
        result = bootstrap_ci(auc_block, cases, n_resamples=10000, seed=7)
        assert result.n_redraws > 0
        assert result.lo <= result.point <= result.hi

    def test_hopeless_imbalance_aborts(self):
        cases = records([0.9], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        with pytest.raises(NumericError):
            bootstrap_ci(auc_block, cases, n_resamples=2000, seed=0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci(constant_block(0.5), [], n_resamples=10, seed=0)

    def test_metric_undefined_on_the_cases_rejected(self):
        cases = records([0.9, 0.8, 0.7], [])
        with pytest.raises(ValueError, match="^bootstrap metric undefined on the cases$"):
            bootstrap_ci(auc_block, cases, n_resamples=10, seed=0)

    def test_interval_tightens_with_sample_size(self, rng):
        def width(n):
            pos = np.clip(rng.normal(0.65, 0.1, size=n), 0, 1).tolist()
            neg = np.clip(rng.normal(0.35, 0.1, size=n), 0, 1).tolist()
            r = bootstrap_ci(auc_block, records(pos, neg), n_resamples=2000, seed=2)
            return r.hi - r.lo

        assert width(400) < width(25)


def reader_cases(rng, n_pos=30, n_neg=30, sens=0.85, spec=0.8, readers=("r1", "r2")):
    """Synthetic reads: independent recall coins per reader and case."""
    out = []
    for i in range(n_pos + n_neg):
        label = i < n_pos
        score = sigmoid(rng.normal(1.0 if label else -1.0))
        birads = {}
        for r in readers:
            p = sens if label else 1.0 - spec
            birads[r] = 4 if rng.random() < p else 1
        out.append(
            CaseRecord(case_id=f"c{i}", label=label, score=score, reader_birads=birads)
        )
    return out


class TestPairedDelta:
    def test_dominant_model_never_loses(self, rng):
        cases = []
        for i in range(40):
            label = i < 20
            birads = {"r1": (4 if rng.random() < 0.8 else 1) if label else (4 if rng.random() < 0.2 else 1)}
            cases.append(
                CaseRecord(
                    case_id=f"c{i}",
                    label=label,
                    score=0.9 if label else 0.1,
                    reader_birads=birads,
                )
            )
        result = paired_delta_pvalue(cases, ["r1"], n_resamples=400, seed=1)
        assert result.p_value == 0.0
        assert result.point_delta > 0

    def test_dominant_readers_always_win(self):
        cases = []
        for i in range(40):
            label = i < 20
            cases.append(
                CaseRecord(
                    case_id=f"c{i}",
                    label=label,
                    # inverted model: positives score low
                    score=0.1 if label else 0.9,
                    reader_birads={"r1": 5 if label else 1},
                )
            )
        result = paired_delta_pvalue(cases, ["r1"], n_resamples=400, seed=1)
        assert result.p_value == 1.0
        assert result.point_delta < 0

    def test_null_p_values_center_on_half(self, rng):
        # model and readers share the same true operating characteristic,
        # so each dataset's p is roughly uniform; the mean over datasets
        # should sit near 0.5
        sens = spec = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        ps = []
        for _ in range(100):
            cases = reader_cases(
                rng, n_pos=60, n_neg=60, sens=sens, spec=spec, readers=("r1", "r2")
            )
            result = paired_delta_pvalue(cases, ["r1", "r2"], n_resamples=400, seed=9)
            ps.append(result.p_value)
        assert np.mean(ps) == pytest.approx(0.5, abs=0.09)

    def test_missing_reader_rejected(self, rng):
        cases = reader_cases(rng, n_pos=5, n_neg=5, readers=("r1",))
        with pytest.raises(ValueError):
            paired_delta_pvalue(cases, ["r1", "r9"], n_resamples=10, seed=0)

    def test_no_readers_rejected(self, rng):
        cases = reader_cases(rng, n_pos=5, n_neg=5, readers=("r1",))
        with pytest.raises(ValueError, match="^paired delta needs at least one reader$"):
            paired_delta_pvalue(cases, [], n_resamples=10, seed=0)

    def test_hopeless_imbalance_aborts(self, rng):
        cases = reader_cases(rng, n_pos=1, n_neg=6, readers=("r1",))
        with pytest.raises(NumericError):
            paired_delta_pvalue(cases, ["r1"], n_resamples=500, seed=0)

    def test_zero_resamples_rejected(self, rng):
        cases = reader_cases(rng, n_pos=5, n_neg=5, readers=("r1",))
        with pytest.raises(ValueError, match="^n_resamples must be >= 1$"):
            paired_delta_pvalue(cases, ["r1"], n_resamples=0, seed=0)


# ---------------------------------------------------------------------------
# Count-matrix resampling against the per-resample loops it replaced
# ---------------------------------------------------------------------------


def resample_oracle(fn, n, n_resamples, seed, stream):
    """The per-resample loop: fn(rows) on an up-front index matrix, a
    ValueError row redrawn from `<stream>-redraw`, at most 1% redrawn."""
    idx = rng_stream(seed, stream).integers(0, n, size=(n_resamples, n))
    redraw_rng = None
    n_redraws = 0
    values = np.empty(n_resamples, dtype=np.float64)
    for r in range(n_resamples):
        rows = idx[r]
        while True:
            try:
                values[r] = fn(rows)
                break
            except ValueError:
                n_redraws += 1
                if n_redraws > 0.01 * n_resamples:
                    raise NumericError(
                        f"{stream} statistic undefined on more than 1% of resamples "
                        f"({n_redraws} redraws in {n_resamples})"
                    )
                if redraw_rng is None:
                    redraw_rng = rng_stream(seed, f"{stream}-redraw")
                rows = redraw_rng.integers(0, n, size=n)
    return values, n_redraws


def matched_delta_oracle(scores, labels, recalls):
    """One dataset's mean model sensitivity at each reader's specificity
    minus the mean reader sensitivity, via the ROC curve and np.interp."""
    _, sens, spec = bisection_curve(scores, labels)
    reader_sens = recalls[labels].mean(axis=0)
    reader_spec = 1.0 - recalls[~labels].mean(axis=0)
    return float(np.mean(_sens_at_spec_arrays(sens, spec, reader_spec)) - np.mean(reader_sens))


def size_matched_oracle(cases, target, n_populations, seed):
    """Size-matched AUCs and TV distances, one population at a time."""
    pos = [c for c in cases if c.label]
    neg = [c for c in cases if not c.label]
    sizes = np.array([c.tumor_size_mm for c in pos], dtype=np.float64)
    pos_scores = np.array([c.score for c in pos], dtype=np.float64)
    neg_scores = np.array([c.score for c in neg], dtype=np.float64)
    bins = target.bin_of(sizes)
    counts = np.bincount(bins, minlength=target.n_bins)
    shares = np.asarray(target.shares, dtype=np.float64)
    n_pos, n_neg = len(pos), len(neg)
    bin_weight = np.zeros(target.n_bins, dtype=np.float64)
    nz = counts > 0
    bin_weight[nz] = shares[nz] / (counts[nz] / n_pos)
    w = bin_weight[bins]
    w = w / w.sum()
    rng = rng_stream(seed, "size-matched")
    pos_idx = rng.choice(n_pos, size=(n_populations, n_pos), replace=True, p=w)
    neg_idx = rng.integers(0, n_neg, size=(n_populations, n_neg))
    labels = np.concatenate([np.ones(n_pos, dtype=bool), np.zeros(n_neg, dtype=bool)])
    aucs = np.empty(n_populations, dtype=np.float64)
    tvs = np.empty(n_populations, dtype=np.float64)
    for r in range(n_populations):
        sp = pos_scores[pos_idx[r]]
        sn = neg_scores[neg_idx[r]]
        aucs[r] = midrank_auc(np.concatenate([sp, sn]), labels)
        got = np.bincount(bins[pos_idx[r]], minlength=target.n_bins) / n_pos
        tvs[r] = 0.5 * np.abs(got - shares).sum()
    return SizeMatchedResult(
        mean_auc=float(aucs.mean()),
        sd_auc=float(aucs.std(ddof=1)) if n_populations > 1 else 0.0,
        mean_tv_distance=float(tvs.mean()),
        n_populations=n_populations,
    )


def outcome(fn, *args):
    """fn(*args), with a NumericError replaced by its message."""
    try:
        return fn(*args)
    except NumericError as exc:
        return str(exc)


def resample_bytes(fn, *args):
    """(values bytes, n_redraws) of a resample run, or its NumericError message."""
    result = outcome(fn, *args)
    return result if isinstance(result, str) else (result[0].tobytes(), result[1])


# (score, label, BIRADS per reader) rows; scores tie often and tables can
# be small and imbalanced, so single-class resamples and redraws occur
reader_rows_strategy = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8).map(lambda x: x / 8),
            st.booleans(),
            st.lists(st.integers(min_value=1, max_value=5), min_size=k, max_size=k),
        ),
        min_size=2,
        max_size=30,
    )
)

# block sizes in case indices: one row, a few rows, everything at once
block_strategy = st.sampled_from([1, 50, 97, 1 << 19])

# twelve readers, more than the strategy draws
TWELVE_READERS = [(k / 8, k % 3 == 0, [(k + j) % 5 + 1 for j in range(12)]) for k in range(9)]
# the reader recalls exactly the negatives at or above 0.75, so its
# specificity lies on a curve point in the table and in most resamples
ON_A_CURVE_POINT = [
    (0.0, False, [1]), (0.25, False, [2]), (0.5, False, [1]), (0.75, False, [3]),
    (0.25, True, [3]), (0.75, True, [4]), (1.0, True, [5]), (0.5, True, [1]),
]
# the reader recalls 19 of 45 and 2 of 11 negatives, the highest scored:
# floor(target * n_neg) is one below and one above the count of
# negatives below the reader's curve point
FLOOR_ONE_BELOW = [(j / 64, False, [3 if j >= 26 else 1]) for j in range(45)] + [
    (s / 128, True, [g]) for s, g in ((3, 2), (33, 1), (43, 2), (50, 1), (50, 1), (65, 1))
]
FLOOR_ONE_ABOVE = [(j / 64, False, [3 if j >= 9 else 1]) for j in range(11)] + [
    (s, True, [g]) for s, g in (
        (7.5 / 64, 3), (8.5 / 64, 1), (9.5 / 64, 4), (0.9, 5), (0.8, 5), (0.7, 1), (0.95, 3)
    )
]


class TestCountMatrixResampling:
    @settings(max_examples=150)
    @given(
        rows=reader_rows_strategy,
        n_resamples=st.integers(min_value=1, max_value=700),
        seed=st.integers(min_value=0, max_value=3),
        block=block_strategy,
    )
    @example(  # 4 + 4 cases: about 8 single-class redraws in 1000
        rows=[(0.5, True, [3]), (0.25, True, [1]), (0.75, True, [4]), (0.5, True, [2]),
              (0.5, False, [1]), (0.0, False, [3]), (0.25, False, [2]), (0.5, False, [5])],
        n_resamples=1000,
        seed=1,
        block=97,
    )
    @example(rows=TWELVE_READERS, n_resamples=300, seed=2, block=50)
    @example(rows=ON_A_CURVE_POINT, n_resamples=300, seed=2, block=97)
    def test_auc_and_delta_equal_the_per_row_loops(self, rows, n_resamples, seed, block):
        scores = np.array([score for score, _, _ in rows])
        labels = np.array([label for _, label, _ in rows])
        recalls = np.array([grades for _, _, grades in rows]) >= 3
        n = len(rows)
        with mock.patch.object(stats, "_BLOCK_INDICES", block):
            auc = resample_bytes(
                stats._resample, stats.auc_block(scores, labels), n, n_resamples, seed,
                "bootstrap",
            )
            delta = resample_bytes(
                stats._resample, stats._matched_delta_block(scores, labels, recalls), n,
                n_resamples, seed, "paired-delta",
            )
        assert auc == resample_bytes(
            resample_oracle, lambda r: midrank_auc(scores[r], labels[r]),
            n, n_resamples, seed, "bootstrap",
        )
        assert delta == resample_bytes(
            resample_oracle, lambda r: matched_delta_oracle(scores[r], labels[r], recalls[r]),
            n, n_resamples, seed, "paired-delta",
        )

    @settings(max_examples=60)
    @given(
        rows=reader_rows_strategy.filter(lambda rows: len({row[1] for row in rows}) == 2),
        n_resamples=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=3),
        block=block_strategy,
    )
    @example(rows=TWELVE_READERS, n_resamples=300, seed=3, block=1 << 19)
    @example(rows=ON_A_CURVE_POINT, n_resamples=300, seed=3, block=1)
    @example(rows=FLOOR_ONE_BELOW, n_resamples=40, seed=0, block=97)
    @example(rows=FLOOR_ONE_ABOVE, n_resamples=40, seed=0, block=97)
    def test_results_equal_the_per_row_loops(self, rows, n_resamples, seed, block):
        cases = [
            CaseRecord(case_id=f"c{i}", label=label, score=score,
                       reader_birads={f"r{j}": g for j, g in enumerate(grades)})
            for i, (score, label, grades) in enumerate(rows)
        ]
        readers = sorted(cases[0].reader_birads)
        scores = np.array([c.score for c in cases])
        labels = np.array([c.label for c in cases])
        recalls = np.array([[c.reader_birads[r] for r in readers] for c in cases]) >= 3

        def boot_oracle():
            values, n_redraws = resample_oracle(
                lambda r: midrank_auc(scores[r], labels[r]),
                len(cases), n_resamples, seed, "bootstrap",
            )
            lo, hi = np.percentile(values, [2.5, 97.5])
            return BootstrapResult(
                midrank_auc(scores, labels), float(lo), float(hi), n_resamples, n_redraws
            )

        def delta_oracle():
            deltas, n_redraws = resample_oracle(
                lambda r: matched_delta_oracle(scores[r], labels[r], recalls[r]),
                len(cases), n_resamples, seed, "paired-delta",
            )
            return PairedDeltaResult(
                p_value=int(np.count_nonzero(deltas < 0)) / n_resamples,
                point_delta=matched_delta_oracle(scores, labels, recalls),
                n_redraws=n_redraws,
            )

        with mock.patch.object(stats, "_BLOCK_INDICES", block):
            boot = outcome(bootstrap_ci, auc_block, cases, n_resamples, seed)
            delta = outcome(paired_delta_pvalue, cases, readers, n_resamples, seed)
        assert boot == outcome(boot_oracle)
        assert delta == outcome(delta_oracle)

    @settings(max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8).map(lambda x: x / 8),
                st.sampled_from([4.0, 15.0, 30.0, 70.0])
            ),
            min_size=1,
            max_size=25,
        ),
        neg_scores=st.lists(
            st.integers(min_value=0, max_value=8).map(lambda x: x / 8), min_size=1, max_size=25
        ),
        shares=st.sampled_from([(0.25, 0.25, 0.25, 0.25), (0.7, 0.1, 0.1, 0.1), "source"]),
        n_populations=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=3),
        block=block_strategy,
    )
    # n_populations * n_pos = 9, 10 and 15: the negatives start 1, 2 and 3
    # outputs into a Philox counter step
    @example(
        rows=[(0.5, 4.0), (0.25, 15.0), (1.0, 70.0)], neg_scores=[0.5, 0.0],
        shares="source", n_populations=3, seed=1, block=50,
    )
    @example(
        rows=[(0.75, 30.0), (0.25, 4.0)], neg_scores=[0.5],
        shares="source", n_populations=5, seed=2, block=1,
    )
    @example(
        rows=[(0.5, 4.0), (0.125, 15.0), (0.75, 30.0), (1.0, 70.0), (0.0, 4.0)],
        neg_scores=[0.25, 0.5, 0.875], shares=(0.7, 0.1, 0.1, 0.1),
        n_populations=3, seed=3, block=97,
    )
    def test_size_matched_equals_the_per_population_loop(
        self, rows, neg_scores, shares, n_populations, seed, block
    ):
        cases = [
            CaseRecord(case_id=f"p{i}", label=True, score=score, tumor_size_mm=size)
            for i, (score, size) in enumerate(rows)
        ]
        cases += [
            CaseRecord(case_id=f"n{i}", label=False, score=s) for i, s in enumerate(neg_scores)
        ]
        sizes = np.array([size for _, size in rows])
        if shares == "source":
            target = source_histogram(sizes, (10.0, 20.0, 50.0))
        else:
            target = SizeHistogram(bin_edges=(10.0, 20.0, 50.0), shares=shares)
            assume(len(set(target.bin_of(sizes).tolist())) == target.n_bins)
        with mock.patch.object(stats, "_BLOCK_INDICES", block):
            result = size_matched_auc(cases, target, n_populations, seed)
        assert result == size_matched_oracle(cases, target, n_populations, seed)

    def test_a_one_class_redraw_is_redrawn_again(self):
        # 4 + 4 cases, seed 6: 57 of 10000 resamples draw one class, and
        # so do two of their redraws
        scores = np.array([0.5, 0.25, 0.75, 0.5, 0.5, 0.0, 0.25, 0.5])
        labels = np.arange(8) < 4
        got = stats._resample(stats.auc_block(scores, labels), 8, 10000, 6, "bootstrap")
        want = resample_oracle(
            lambda r: midrank_auc(scores[r], labels[r]), 8, 10000, 6, "bootstrap"
        )
        assert got[1] == want[1] == 59
        assert got[0].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 41, 2001])
    def test_block_draws_equal_one_up_front_draw(self, n):
        seen = []

        def record(idx):
            seen.append(idx.copy())
            return np.zeros(idx.shape[0]), np.ones(idx.shape[0], dtype=bool)

        # 3 rows per block: 100 resamples end in a one-row block
        with mock.patch.object(stats, "_BLOCK_INDICES", 3 * n):
            stats._resample(record, n, 100, 11, "bootstrap")
        assert [len(b) for b in seen] == [3] * 33 + [1]
        up_front = rng_stream(11, "bootstrap").integers(0, n, size=(100, n))
        assert np.array_equal(np.concatenate(seen), up_front)

    def test_each_score_vector_is_counted_once_per_statistic(self, monkeypatch):
        # the AUC is read off the tie counts each statistic already built
        calls = []
        build = stats._class_counts
        monkeypatch.setattr(stats, "_class_counts", lambda *a: calls.append(1) or build(*a))
        cases = records([0.9, 0.5, 0.7, 0.5, 0.8, 0.6], [0.1, 0.5, 0.3, 0.2, 0.4, 0.6])
        scores = np.array([c.score for c in cases])
        labels = np.array([c.label for c in cases])
        counted = []
        for run in (
            lambda: roc_and_auc(cases),
            lambda: delong_test(scores, scores[::-1].copy(), labels),
            lambda: delong_test(scores, scores.copy(), labels),  # identical: one count
            lambda: bootstrap_ci(auc_block, cases, n_resamples=200, seed=0),
        ):
            calls.clear()
            run()
            counted.append(len(calls))
        assert counted == [1, 2, 1, 1]

    def test_bootstrap_memory_stays_below_the_index_matrix(self, rng):
        # n=2000 and 10k resamples: the whole index matrix alone is 160 MB
        labels = rng.random(2000) < 0.35
        cases = records(
            np.round(rng.random(labels.sum()), 3), np.round(rng.random((~labels).sum()), 3)
        )
        tracemalloc.start()
        try:
            bootstrap_ci(auc_block, cases, n_resamples=10000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


def reader_stats_table(n, seed):
    """A reader-stats style table: about 35% positives, sigmoid scores
    rounded to 3 decimals (so they tie), log-normal tumor sizes around
    18 mm and five readers who trade sensitivity for specificity."""
    rng = np.random.default_rng(seed)
    labels = rng.random(n) < 0.35
    scores = np.round(1.0 / (1.0 + np.exp(-rng.normal(np.where(labels, 1.0, -0.5), 1.0))), 3)
    sizes = np.maximum(1.0, np.round(rng.lognormal(math.log(18.0), 0.6, n), 1))
    recall_draw = rng.random((n, 5))
    cases = []
    for i in range(n):
        birads = {}
        for r in range(5):
            sens, spec = 0.92 - 0.03 * r, 0.70 + 0.045 * r
            birads[f"r{r + 1}"] = 4 if recall_draw[i, r] < (sens if labels[i] else 1 - spec) else 1
        cases.append(
            CaseRecord(
                case_id=f"case-{i:05d}",
                label=bool(labels[i]),
                score=float(scores[i]),
                tumor_size_mm=float(sizes[i]) if labels[i] else None,
                reader_birads=birads,
            )
        )
    return cases


class TestResamplingMemory:
    """Resampling memory is bounded by one block of rows, so it does not
    grow with the number of resamples or populations."""

    CASES = reader_stats_table(1000, seed=3)
    STATISTICS = {
        "bootstrap": lambda cases, k: bootstrap_ci(auc_block, cases, k, seed=1),
        "paired delta": lambda cases, k: paired_delta_pvalue(
            cases, ["r1", "r2", "r3", "r4", "r5"], k, seed=1
        ),
        "size matched": lambda cases, k: size_matched_auc(
            cases, SizeHistogram((10.0, 20.0, 50.0), (0.1, 0.3, 0.4, 0.2)), k, seed=1
        ),
    }

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("statistic", sorted(STATISTICS))
    def test_peak_does_not_grow_with_the_resample_count(self, statistic):
        run = self.STATISTICS[statistic]
        few = self.peak(lambda: run(self.CASES, 200))
        many = self.peak(lambda: run(self.CASES, 2000))
        assert many <= 1.25 * few, (few, many)


def delong_oracle(scores_a, scores_b, labels):
    """Explicit-loop DeLong: psi matrices, reader components, ddof=1."""
    pos = [i for i, y in enumerate(labels) if y]
    neg = [i for i, y in enumerate(labels) if not y]
    m, n = len(pos), len(neg)

    def psi(p, q):
        return 1.0 if p > q else (0.5 if p == q else 0.0)

    def components(scores):
        v10 = [sum(psi(scores[i], scores[j]) for j in neg) / n for i in pos]
        v01 = [sum(psi(scores[i], scores[j]) for i in pos) / m for j in neg]
        auc = sum(
            psi(scores[i], scores[j]) for i in pos for j in neg
        ) / (m * n)
        return v10, v01, auc

    def cov(x, y):
        xb = sum(x) / len(x)
        yb = sum(y) / len(y)
        return sum((a - xb) * (b - yb) for a, b in zip(x, y)) / (len(x) - 1)

    va10, va01, auc_a = components(scores_a)
    vb10, vb01, auc_b = components(scores_b)
    var = (cov(va10, va10) + cov(vb10, vb10) - 2 * cov(va10, vb10)) / m + (
        cov(va01, va01) + cov(vb01, vb01) - 2 * cov(va01, vb01)
    ) / n
    if var <= 0 or not math.isfinite(var):
        return auc_a, auc_b, None, None
    z = (auc_a - auc_b) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return auc_a, auc_b, z, p


class TestDelong:
    @given(labeled_strategy)
    def test_structural_components_equal_quadratic_kernel(self, rows):
        scores = np.array([score for score, _ in rows])
        labels = np.array([label for _, label in rows])
        pos = scores[labels][:, None]
        neg = scores[~labels][None, :]
        psi = (pos > neg) + 0.5 * (pos == neg)
        v10, v01, auc = _structural_components(scores, labels)
        assert v10.tobytes() == psi.mean(axis=1).tobytes()
        assert v01.tobytes() == psi.mean(axis=0).tobytes()
        assert auc == psi.mean()

    def test_memory_does_not_grow_with_pairs(self, rng):
        # 2000 + 2000 cases: a pairwise kernel alone would be 32 MB
        labels = np.arange(4000) < 2000
        a = np.round(rng.random(4000), 3)
        b = np.round(rng.random(4000), 3)
        tracemalloc.start()
        try:
            delong_test(a, b, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_identical_scores_short_circuit(self):
        scores = np.array([0.1, 0.8, 0.4, 0.6])
        labels = np.array([False, True, False, True])
        result = delong_test(scores, scores.copy(), labels)
        assert (result.z, result.p, result.degenerate) == (0.0, 1.0, False)

    def test_matches_explicit_loops(self, rng):
        checked = 0
        for trial in range(50):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            labels = np.array([True] * m + [False] * n)
            a = np.round(rng.random(m + n), 1)
            b = np.round(rng.random(m + n), 1)
            if np.array_equal(a, b):
                continue
            oa, ob, oz, op = delong_oracle(a.tolist(), b.tolist(), labels.tolist())
            got = delong_test(a, b, labels)
            assert got.auc_a == pytest.approx(oa, abs=1e-10)
            assert got.auc_b == pytest.approx(ob, abs=1e-10)
            if oz is None:
                assert got.degenerate or got.z == 0.0
                continue
            checked += 1
            assert got.z == pytest.approx(oz, abs=1e-10)
            assert got.p == pytest.approx(op, abs=1e-10)
            assert not got.degenerate
        assert checked >= 25

    def test_zero_variance_unequal_aucs_is_degenerate(self):
        labels = np.array([True, True, False, False])
        a = np.array([0.9, 0.8, 0.2, 0.1])  # perfect
        b = np.array([0.1, 0.2, 0.8, 0.9])  # perfectly wrong
        result = delong_test(a, b, labels)
        assert result.degenerate
        assert math.isnan(result.p) and math.isnan(result.z)
        assert (result.auc_a, result.auc_b) == (1.0, 0.0)

    def test_zero_variance_equal_aucs_is_certain_tie(self):
        labels = np.array([True, True, False, False])
        a = np.array([0.9, 0.8, 0.2, 0.1])
        b = a / 2.0  # same ranking, different values
        result = delong_test(a, b, labels)
        assert (result.z, result.p, result.degenerate) == (0.0, 1.0, False)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            delong_test([0.1, 0.2], [0.1], [True, False])
        with pytest.raises(ValueError):
            delong_test([0.1, 0.2], [0.3, 0.4], [True, True])

    def test_sign_convention(self):
        # a ranks better than b, so z should be positive
        labels = np.array([True, True, True, False, False, False])
        a = np.array([0.9, 0.8, 0.4, 0.45, 0.2, 0.1])
        b = np.array([0.9, 0.3, 0.4, 0.45, 0.6, 0.1])
        result = delong_test(a, b, labels)
        assert result.auc_a > result.auc_b
        assert result.z > 0
        assert 0.0 < result.p < 1.0


def birads_cases(spec_rows):
    """spec_rows: list of (label, {reader: birads})."""
    return [
        CaseRecord(
            case_id=f"c{i}",
            label=label,
            score=0.5,
            reader_birads=dict(reads),
        )
        for i, (label, reads) in enumerate(spec_rows)
    ]


def panel_point(cases, readers):
    """(sensitivity, specificity) of the panel of exactly `readers`; one
    reader is a panel of one."""
    (point,) = [p for p in enumerate_panels(cases, readers) if len(p.readers) == len(readers)]
    return point.sensitivity, point.specificity


class TestReaderOperatingPoints:
    def test_recall_everything(self):
        cases = birads_cases([(True, {"r1": 5}), (False, {"r1": 4}), (False, {"r1": 3})])
        assert panel_point(cases, ["r1"]) == (1.0, 0.0)

    def test_recall_nothing(self):
        cases = birads_cases([(True, {"r1": 1}), (False, {"r1": 2})])
        assert panel_point(cases, ["r1"]) == (0.0, 1.0)

    def test_hand_tally(self):
        cases = birads_cases(
            [
                (True, {"r1": 5}),
                (True, {"r1": 4}),
                (True, {"r1": 2}),
                (False, {"r1": 3}),
                (False, {"r1": 1}),
                (False, {"r1": 2}),
            ]
        )
        sens, spec = panel_point(cases, ["r1"])
        assert sens == pytest.approx(2 / 3)
        assert spec == pytest.approx(2 / 3)

    def test_missing_read_rejected(self):
        cases = birads_cases([(True, {"r1": 5}), (False, {"r2": 1})])
        with pytest.raises(ValueError, match="missing read from r1"):
            enumerate_panels(cases, ["r1"])

    def test_needs_both_classes(self):
        cases = birads_cases([(True, {"r1": 5}), (True, {"r1": 1})])
        with pytest.raises(ValueError, match="needs both classes"):
            enumerate_panels(cases, ["r1"])


class TestPanels:
    def panel_fixture(self):
        return birads_cases(
            [
                (True, {"r1": 5, "r2": 2, "r3": 4}),
                (True, {"r1": 2, "r2": 2, "r3": 5}),
                (True, {"r1": 4, "r2": 4, "r3": 4}),
                (False, {"r1": 1, "r2": 4, "r3": 2}),
                (False, {"r1": 2, "r2": 1, "r3": 1}),
                (False, {"r1": 3, "r2": 2, "r3": 1}),
            ]
        )

    def test_single_reader_panel_equals_operating_point(self):
        cases = self.panel_fixture()
        points = enumerate_panels(cases, ["r1", "r2", "r3"])
        assert [p.readers for p in points[:3]] == [("r1",), ("r2",), ("r3",)]
        assert all(
            (p.sensitivity, p.specificity) == recall_tally(cases, p.readers) for p in points
        )

    def test_mean_of_two_and_four_recalls(self):
        cases = birads_cases([(True, {"r1": 2, "r2": 4}), (False, {"r1": 1, "r2": 2})])
        sens, spec = panel_point(cases, ["r1", "r2"])
        # mean BIRADS 3.0 recalls (inclusive threshold)
        assert sens == 1.0
        assert spec == 1.0

    def test_identical_readers_match_single(self):
        rows = [
            (True, {"r1": 4}),
            (True, {"r1": 2}),
            (False, {"r1": 3}),
            (False, {"r1": 1}),
        ]
        doubled = [
            (label, {**reads, "r2": reads["r1"]}) for label, reads in rows
        ]
        cases = birads_cases(doubled)
        assert panel_point(cases, ["r1", "r2"]) == panel_point(cases, ["r1"])

    def test_empty_panel_rejected(self):
        with pytest.raises(ValueError, match="at least one reader"):
            enumerate_panels(self.panel_fixture(), [])

    def test_enumerate_all_subsets_of_five(self, rng):
        readers = [f"r{i}" for i in range(1, 6)]
        cases = reader_cases(rng, n_pos=10, n_neg=10, readers=tuple(readers))
        points = enumerate_panels(cases, readers)
        assert len(points) == 31
        by_size = {}
        for pt in points:
            by_size[len(pt.readers)] = by_size.get(len(pt.readers), 0) + 1
            assert pt.readers == tuple(sorted(pt.readers))
        assert by_size == {1: 5, 2: 10, 3: 10, 4: 5, 5: 1}

    def test_enumeration_order_deterministic(self, rng):
        readers = ["r2", "r1", "r3"]
        cases = reader_cases(rng, n_pos=6, n_neg=6, readers=tuple(readers))
        points = enumerate_panels(cases, readers)
        assert [p.readers for p in points] == [
            ("r1",),
            ("r2",),
            ("r3",),
            ("r1", "r2"),
            ("r1", "r3"),
            ("r2", "r3"),
            ("r1", "r2", "r3"),
        ]


class TestSizeHistogram:
    def test_share_arity(self):
        with pytest.raises(ValueError):
            SizeHistogram(bin_edges=(10.0, 20.0), shares=(0.5, 0.5))

    def test_shares_sum_to_one(self):
        with pytest.raises(ValueError):
            SizeHistogram(bin_edges=(10.0,), shares=(0.7, 0.7))
        with pytest.raises(ValueError):
            SizeHistogram(bin_edges=(10.0,), shares=(-0.5, 1.5))

    def test_edges_ascending(self):
        with pytest.raises(ValueError):
            SizeHistogram(bin_edges=(20.0, 10.0), shares=(0.3, 0.3, 0.4))

    @pytest.mark.parametrize(
        "edges, shares",
        [
            ((10.0, 20.0, 50.0), (math.nan, 0.5, 0.25, 0.25)),
            ((10.0, 20.0, 50.0), (math.inf, 0.0, 0.0, 0.0)),
            ((10.0, math.nan, 50.0), (0.25,) * 4),
            ((10.0, 20.0, math.inf), (0.25,) * 4),
        ],
    )
    def test_non_finite_values_rejected(self, edges, shares):
        with pytest.raises(ValueError, match="^bin_edges and shares must be finite$"):
            SizeHistogram(bin_edges=edges, shares=shares)

    def test_bin_of_boundaries(self):
        h = SizeHistogram(bin_edges=(10.0, 20.0, 50.0), shares=(0.25,) * 4)
        sizes = np.array([5.0, 10.0, 15.0, 20.0, 49.0, 50.0, 80.0])
        assert h.bin_of(sizes).tolist() == [0, 1, 1, 2, 2, 3, 3]
        assert h.n_bins == 4

    def test_source_histogram_counts(self):
        sizes = np.array([5.0, 8.0, 12.0, 25.0, 30.0, 60.0])
        h = source_histogram(sizes, bin_edges=(10.0, 20.0, 50.0))
        assert h.shares == pytest.approx((2 / 6, 1 / 6, 2 / 6, 1 / 6))


class TestSizeMatchedAuc:
    def sized_cases(self, rng, n_pos=40, n_neg=30, size_range=(4.0, 9.0)):
        pos_scores = np.clip(rng.normal(0.7, 0.12, size=n_pos), 0, 1)
        neg_scores = np.clip(rng.normal(0.35, 0.12, size=n_neg), 0, 1)
        sizes = rng.uniform(*size_range, size=n_pos)
        cases = [
            CaseRecord(case_id=f"p{i}", label=True, score=float(s), tumor_size_mm=float(sz))
            for i, (s, sz) in enumerate(zip(pos_scores, sizes))
        ]
        cases += [
            CaseRecord(case_id=f"n{i}", label=False, score=float(s))
            for i, s in enumerate(neg_scores)
        ]
        return cases

    def test_single_bin_target_is_plain_bootstrap(self, rng):
        # all sizes below the first edge and all target mass there too, so
        # matched resampling degenerates to uniform resampling
        cases = self.sized_cases(rng)
        target = SizeHistogram(bin_edges=(10.0, 20.0, 50.0), shares=(1.0, 0.0, 0.0, 0.0))
        result = size_matched_auc(cases, target, n_populations=2000, seed=4)
        assert result.mean_tv_distance == 0.0

        pos = np.array([c.score for c in cases if c.label])
        neg = np.array([c.score for c in cases if not c.label])
        labels = np.concatenate([np.ones(len(pos), bool), np.zeros(len(neg), bool)])
        plain = np.empty(2000)
        for r in range(2000):
            sp = pos[rng.integers(0, len(pos), size=len(pos))]
            sn = neg[rng.integers(0, len(neg), size=len(neg))]
            plain[r] = auc(np.concatenate([sp, sn]), labels)
        se = result.sd_auc / math.sqrt(2000)
        assert result.mean_auc == pytest.approx(plain.mean(), abs=8 * se)

    def test_deterministic(self, rng):
        cases = self.sized_cases(rng, size_range=(4.0, 60.0))
        target = SizeHistogram(bin_edges=(10.0, 20.0, 50.0), shares=(0.1, 0.3, 0.4, 0.2))
        a = size_matched_auc(cases, target, n_populations=300, seed=2)
        assert a == size_matched_auc(cases, target, n_populations=300, seed=2)

    def test_reweights_toward_target(self, rng):
        # small lesions score low, big ones high; shifting mass to the big
        # bin must raise the mean AUC above the small-bin target's
        pos = []
        for i in range(30):
            small = i < 15
            pos.append(
                CaseRecord(
                    case_id=f"p{i}",
                    label=True,
                    score=0.4 if small else 0.9,
                    tumor_size_mm=6.0 if small else 30.0,
                )
            )
        neg = [
            CaseRecord(case_id=f"n{i}", label=False, score=float(s))
            for i, s in enumerate(np.clip(rng.normal(0.5, 0.05, 25), 0, 1))
        ]
        cases = pos + neg
        edges = (10.0, 20.0, 50.0)
        small_target = SizeHistogram(bin_edges=edges, shares=(0.9, 0.0, 0.1, 0.0))
        big_target = SizeHistogram(bin_edges=edges, shares=(0.1, 0.0, 0.9, 0.0))
        small_r = size_matched_auc(cases, small_target, n_populations=500, seed=1)
        big_r = size_matched_auc(cases, big_target, n_populations=500, seed=1)
        assert big_r.mean_auc > small_r.mean_auc + 0.1

    def test_empty_source_bin_with_mass_rejected(self, rng):
        cases = self.sized_cases(rng)  # sizes all below 10mm
        target = SizeHistogram(bin_edges=(10.0, 20.0, 50.0), shares=(0.5, 0.5, 0.0, 0.0))
        with pytest.raises(ValueError):
            size_matched_auc(cases, target, n_populations=10, seed=0)

    def test_positive_without_size_rejected(self):
        cases = [
            CaseRecord(case_id="p", label=True, score=0.8),
            CaseRecord(case_id="n", label=False, score=0.2),
        ]
        target = SizeHistogram(bin_edges=(10.0,), shares=(0.5, 0.5))
        with pytest.raises(ValueError):
            size_matched_auc(cases, target, n_populations=10, seed=0)

    def test_zero_populations_rejected(self, rng):
        cases = self.sized_cases(rng)
        target = SizeHistogram(bin_edges=(10.0, 20.0, 50.0), shares=(1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="^n_populations must be >= 1$"):
            size_matched_auc(cases, target, n_populations=0, seed=0)

    def test_single_class_rejected(self):
        cases = [CaseRecord(case_id="p", label=True, score=0.8, tumor_size_mm=5.0)]
        target = SizeHistogram(bin_edges=(10.0,), shares=(1.0, 0.0))
        with pytest.raises(ValueError):
            size_matched_auc(cases, target, n_populations=10, seed=0)

    @pytest.mark.parametrize(
        "weights",
        [
            np.ones(700),  # as on a reader-stats table
            np.array([1.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0]),  # zero shares repeat CDF values
            # a skewed target: 900 tiny-share positives next to each other
            # share a few buckets, so brackets span dozens of values
            np.concatenate([np.full(600, 1e-6), np.full(5, 1.0), np.full(300, 1e-6)]),
            np.array([1.0]),  # one positive
            np.ones(100000),  # more CDF values than buckets
        ],
    )
    def test_bracketed_inverse_cdf_equals_searchsorted(self, weights):
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
        k = stats._CDF_BUCKETS
        edges = np.arange(k) / k  # every bucket edge
        keys = np.concatenate([cdf, edges, np.random.default_rng(0).random(10000)])
        keys = np.concatenate([keys, np.nextafter(keys, 0.0), np.nextafter(keys, 1.0)])
        keys = keys[keys < 1.0]
        got = stats._inverse_cdf(cdf)(keys)
        assert np.array_equal(got, np.searchsorted(cdf, keys, side="right"))


class TestCasesCsv:
    def full_cases(self):
        return [
            CaseRecord(
                case_id="cancer-0001",
                label=True,
                score=0.8125,
                tumor_size_mm=14.2,
                reader_birads={"r1": 4, "r2": 2},
            ),
            CaseRecord(
                case_id="negative-0001",
                label=False,
                score=1 / 3,
                reader_birads={"r1": 1, "r2": 3},
            ),
        ]

    def test_round_trip_exact(self, tmp_path):
        # ids that need quoting come back as they went in
        cases = [
            dataclasses.replace(c, case_id=name)
            for c, name in zip(self.full_cases(), ['a,"1"', "b\nc"])
        ]
        write_cases_csv(cases, tmp_path / "cases.csv")
        assert cases_from_csv((tmp_path / "cases.csv").read_text()) == cases

    def test_file_round_trip(self, tmp_path):
        cases = self.full_cases()
        write_cases_csv(cases, tmp_path / "cases.csv")
        assert read_cases_csv(tmp_path / "cases.csv") == cases

    def test_minimal_columns(self):
        text = "case_id,label,score\na,1,0.5\nb,0,0.25\n"
        cases = cases_from_csv(text)
        assert [c.label for c in cases] == [True, False]
        assert cases[0].tumor_size_mm is None
        assert cases[0].reader_birads is None

    def test_word_labels(self):
        text = "case_id,label,score\na,true,0.5\nb,False,0.25\n"
        assert [c.label for c in cases_from_csv(text)] == [True, False]

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            cases_from_csv("case_id,label,score\na,maybe,0.5\n")

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError):
            cases_from_csv("case_id,score\na,0.5\n")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            cases_from_csv("")

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("b,0,0.25", "3 fields, header has 5"),
            ("b,0,0.25,,4,9", "6 fields, header has 5"),
            ("b,maybe,0.25,,4", "column 'label'"),
            ("b,0,high,,4", "column 'score'"),
            ("b,1,0.25,big,4", "column 'tumor_size_mm'"),
            ("b,0,0.25,,4.5", "column 'birads_r1'"),
            ("b,0,0.25,,9", "BIRADS 9 not in 1..5"),
            ("b,0,0.25,," + "4" * 200_000, "field limit"),
        ],
    )
    def test_malformed_row_names_line_and_column(self, row, reason):
        text = "case_id,label,score,tumor_size_mm,birads_r1\na,1,0.5,12.0,4\n" + row + "\n"
        with pytest.raises(ValueError) as exc:
            cases_from_csv(text)
        assert str(exc.value).startswith("line 3: ")
        assert reason in str(exc.value)

    def test_duplicate_case_id_names_both_lines(self):
        text = "case_id,label,score\na,1,0.5\nb,0,0.25\n\na,0,0.75\n"
        with pytest.raises(ValueError) as exc:
            cases_from_csv(text)
        assert str(exc.value) == "line 5: duplicate case_id 'a', first on line 2"

    def test_read_error_names_the_file(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("case_id,label,score\na,1\n")
        with pytest.raises(ValueError) as exc:
            read_cases_csv(path)
        assert str(exc.value).startswith(f"{path}: line 2: ")


class TestPlotFiles:
    def test_roc_csv_content(self, tmp_path):
        roc = roc_and_auc(records([0.8], [0.3]))
        path = tmp_path / "roc.csv"
        write_roc_csv(roc, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,sensitivity,specificity"
        assert lines[1] == "inf,0.0,1.0"
        assert len(lines) == 4

    def test_panels_csv_content(self, tmp_path):
        cases = birads_cases(
            [(True, {"r1": 4, "r2": 4}), (False, {"r1": 1, "r2": 2})]
        )
        points = enumerate_panels(cases, ["r1", "r2"])
        path = tmp_path / "panels.csv"
        write_panels_csv(points, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "panel,size,sensitivity,specificity"
        assert lines[1].startswith("r1,1,")
        assert lines[3].startswith("r1+r2,2,")
        assert len(lines) == 4

    def test_svg_is_deterministic_and_labeled(self, tmp_path, rng):
        cases = records(
            np.round(rng.random(8), 2).tolist(), np.round(rng.random(9), 2).tolist()
        )
        roc = roc_and_auc(cases)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_roc_svg([("model", roc)], a, points=[("r1", 0.8, 0.7)])
        write_roc_svg([("model", roc)], b, points=[("r1", 0.8, 0.7)])
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert "<polyline" in text and "model" in text and "r1" in text
        assert text.startswith("<svg")

"""Acceptance checks, one test per shipped guarantee.

Each test evaluates its criterion at the stated tolerance and emits a
single `criterion N: PASS/FAIL (...)` line; run with `-s` to read the
checklist. The slow ones (6, 4, 10) carry their own runtime budgets.
"""

import json
import math
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from test_boxes import random_boxes, reference_nms

from tomoscreen.boxes import ScoredBox, nms
from tomoscreen.cli import EXIT_OK, main
from tomoscreen.condense import (
    aggregate_boxes,
    build_optimized_image,
    detect_slices,
    trimmed_slices,
)
from tomoscreen.imaging import ImageGrid, normalize_volume
from tomoscreen.miltrain import ToyScorer, extract_patch_features, mil_forward, mil_loss_grad
from tomoscreen.phantom import (
    LesionSpec,
    PhantomConfig,
    generate_case,
    generate_volume,
    project_dm,
)
from tomoscreen.scorer import (
    default_condense_scorer,
    default_ensemble,
    ensemble_image_score,
    mil_image_score,
)
from tomoscreen.seeds import rng_stream
from tomoscreen.stats import (
    CaseRecord,
    auc_mann_whitney,
    bootstrap_ci,
    delong_test,
    enumerate_panels,
    reader_operating_point,
    roc_and_auc,
    size_matched_auc,
    source_histogram,
    write_cases_csv,
)


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# 1. NMS equals a quadratic reference on random box sets
# ---------------------------------------------------------------------------


def test_criterion_01_nms_matches_quadratic_reference():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    comparisons = 0
    for _ in range(1000):
        boxes = random_boxes(rng, int(rng.integers(0, 51)))
        for threshold in (0.1, 0.2, 0.5):
            assert nms(boxes, threshold) == reference_nms(boxes, threshold)
            comparisons += 1
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        elapsed < 5.0,
        f"1000 box sets x 3 thresholds, {comparisons} exact matches in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. AUC equals exhaustive pairwise counting
# ---------------------------------------------------------------------------


def _pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def test_criterion_02_auc_matches_pairwise_count():
    rng = np.random.default_rng(202)
    worst = 0.0
    for t in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.random(n) < 0.5
        if not labels.any():
            labels[0] = True
        if labels.all():
            labels[-1] = False
        # two-decimal scores force plenty of ties through the rank path
        scores = np.round(rng.random(n), 2)
        oracle = _pairwise_auc(scores, labels)
        direct = auc_mann_whitney(scores, labels)
        cases = [
            CaseRecord(case_id=f"d{t}-{i}", label=bool(labels[i]), score=float(scores[i]))
            for i in range(n)
        ]
        curve = roc_and_auc(cases).auc
        worst = max(worst, abs(direct - oracle), abs(curve - oracle))
    verdict(2, worst <= 1e-12, f"100 tied datasets, max |auc - pairwise| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. DeLong: exact identical case, enumeration oracle, null uniformity
# ---------------------------------------------------------------------------


def _delong_enumeration(a, b, labels):
    """Variance of auc_a - auc_b from first principles, explicit loops."""
    pos = [i for i, y in enumerate(labels) if y]
    neg = [i for i, y in enumerate(labels) if not y]
    m, n = len(pos), len(neg)

    def psi(x, y):
        return 1.0 if x > y else (0.5 if x == y else 0.0)

    def components(s):
        v10 = [sum(psi(s[i], s[j]) for j in neg) / n for i in pos]
        v01 = [sum(psi(s[i], s[j]) for i in pos) / m for j in neg]
        return v10, v01, sum(v10) / m

    def cov(xs, ys):
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / (len(xs) - 1)

    v10a, v01a, auc_a = components(a)
    v10b, v01b, auc_b = components(b)
    var = (cov(v10a, v10a) + cov(v10b, v10b) - 2 * cov(v10a, v10b)) / m + (
        cov(v01a, v01a) + cov(v01b, v01b) - 2 * cov(v01a, v01b)
    ) / n
    return auc_a, auc_b, var


def test_criterion_03_delong_exactness_oracle_and_null():
    rng = np.random.default_rng(303)

    # identical score vectors: p = 1 exactly
    labels = np.array([True] * 10 + [False] * 10)
    scores = rng.random(20)
    same = delong_test(scores, scores, labels)
    exact_ok = same.p == 1.0 and same.z == 0.0

    # 50 tiny datasets against the enumeration oracle
    worst_var = 0.0
    checked = 0
    while checked < 50:
        m = int(rng.integers(3, 6))
        n = int(rng.integers(3, 6))
        y = np.array([True] * m + [False] * n)
        a = rng.random(m + n)
        b = rng.random(m + n)
        auc_a, auc_b, var_oracle = _delong_enumeration(a, b, y)
        # true AUC deltas live on a 1/(m*n) >= 0.04 lattice, so anything
        # below 1e-9 is a zero delta seen through float noise
        if var_oracle <= 1e-12 or abs(auc_a - auc_b) < 1e-9:
            continue
        res = delong_test(a, b, y)
        assert not res.degenerate and res.z != 0.0
        var_impl = ((res.auc_a - res.auc_b) / res.z) ** 2
        worst_var = max(worst_var, abs(var_impl - var_oracle))
        checked += 1
    oracle_ok = worst_var <= 1e-10

    # p-value uniformity under a simulated null of independent scores
    y = np.array([True] * 60 + [False] * 60)
    ps = np.empty(1000)
    for t in range(1000):
        ps[t] = delong_test(rng.normal(size=120), rng.normal(size=120), y).p
    u = np.sort(ps)
    ranks = np.arange(1, 1001)
    d = max(float(np.max(ranks / 1000 - u)), float(np.max(u - (ranks - 1) / 1000)))
    d_crit = 1.628 / math.sqrt(1000)  # KS, alpha = 0.01
    null_ok = d < d_crit

    verdict(
        3,
        exact_ok and oracle_ok and null_ok,
        f"identical p={same.p}, 50-dataset max var gap {worst_var:.2e}, "
        f"null KS D={d:.4f} < {d_crit:.4f}",
    )


# ---------------------------------------------------------------------------
# 4. Bootstrap CI coverage for a Bernoulli mean
# ---------------------------------------------------------------------------


def test_criterion_04_bootstrap_coverage():
    p_true = 0.35
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()

    def vec(scores, labels):
        return float(scores.mean())

    covered = 0
    for t in range(500):
        draws = rng.random(200) < p_true
        cases = [
            CaseRecord(case_id=f"b{t}-{i}", label=bool(draws[i]), score=float(draws[i]))
            for i in range(200)
        ]
        res = bootstrap_ci(vec, cases, n_resamples=10000, seed=t)
        covered += res.lo <= p_true <= res.hi
    coverage = covered / 500
    elapsed = time.perf_counter() - t0
    verdict(
        4,
        0.93 <= coverage <= 0.97 and elapsed < 120.0,
        f"coverage {coverage:.3f} over 500 datasets in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. MIL gradient matches central finite differences
# ---------------------------------------------------------------------------


def test_criterion_05_mil_gradient_check():
    rng = np.random.default_rng(505)
    eps = 1e-5
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 100 and attempts < 400:
        attempts += 1
        img = ImageGrid(rng.normal(0.0, 50.0, size=(24, 24)))
        candidates = []
        for _ in range(3):
            x0 = float(rng.uniform(0, 12))
            y0 = float(rng.uniform(0, 12))
            candidates.append(
                ScoredBox(x0, y0, x0 + float(rng.uniform(4, 10)), y0 + float(rng.uniform(4, 10)), 0.5)
            )
        w = rng.normal(0.0, 1.0, size=4)
        b = float(rng.normal())
        label = bool(rng.random() < 0.5)
        theta = ToyScorer(weights=tuple(w), bias=b)
        _, base_arg = mil_forward(theta, img, candidates)

        # a tie point: any perturbation that moves the argmax
        logits = [
            float(w @ extract_patch_features(img, c)) + b for c in candidates
        ]
        top = sorted(logits, reverse=True)
        if len(top) > 1 and top[0] - top[1] < 1e-4:
            continue

        loss, gw, gb = mil_loss_grad(theta, img, candidates, label)
        numeric = np.empty(5)
        stable = True
        for k in range(5):
            def at(delta):
                wk = w.copy()
                bk = b
                if k < 4:
                    wk[k] += delta
                else:
                    bk += delta
                th = ToyScorer(weights=tuple(wk), bias=bk)
                l, _, _ = mil_loss_grad(th, img, candidates, label)
                if mil_forward(th, img, candidates)[1] != base_arg:
                    return None
                return l

            hi, lo = at(eps), at(-eps)
            if hi is None or lo is None:
                stable = False
                break
            numeric[k] = (hi - lo) / (2 * eps)
        if not stable:
            continue
        analytic = np.append(gw, gb)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1e-3)
        worst = max(worst, float(rel.max()))
        checked += 1
    verdict(
        5,
        checked == 100 and worst < 1e-5,
        f"{checked} stable points, max relative error {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. Condensed image beats center-slice and projection baselines
# ---------------------------------------------------------------------------


def _pathway_aucs(master_seed: int, n_per_class: int) -> dict[str, float]:
    base = PhantomConfig(
        width=128,
        height=176,
        n_slices=30,
        background_texture_scale=24.0,
        clutter_density=1.0,
        noise_sigma=18.0,
        seed=master_seed,
    )
    ensemble = default_ensemble()
    detector = default_condense_scorer()
    labels = []
    scores = {k: [] for k in ("optimized", "center", "projection", "slice_max")}
    for i in range(2 * n_per_class):
        cancer = i < n_per_class
        case_id = f"{'c' if cancer else 'n'}-{i % n_per_class:03d}"
        vol, _ = generate_case(base, case_id, cancer=cancer, contrast_range=(60.0, 220.0))
        norm = normalize_volume(vol)
        # one detection pass over every slice feeds both box pathways
        boxes = detect_slices(norm, detector, range(vol.n_slices))
        trimmed = trimmed_slices(vol.n_slices)
        kept = aggregate_boxes([b for b in boxes if b.slice_index in trimmed], 0.0, 0.2)
        labels.append(cancer)
        scores["optimized"].append(
            ensemble_image_score(ensemble, build_optimized_image(norm, kept).image)
        )
        scores["center"].append(
            ensemble_image_score(ensemble, norm.slice(vol.n_slices // 2))
        )
        scores["projection"].append(ensemble_image_score(ensemble, project_dm(vol)))
        scores["slice_max"].append(mil_image_score(boxes))
    y = np.array(labels)
    return {k: auc_mann_whitney(np.array(v), y) for k, v in scores.items()}


def test_criterion_06_condensation_beats_baselines():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for seed in (1, 2, 3):
        aucs = _pathway_aucs(seed, 100)
        opt, ctr = aucs["optimized"], aucs["center"]
        prj, smax = aucs["projection"], aucs["slice_max"]
        ok = ok and opt >= ctr + 0.05 and opt >= prj + 0.05 and smax <= opt
        lines.append(f"seed {seed}: opt={opt:.3f} ctr={ctr:.3f} prj={prj:.3f} smax={smax:.3f}")
    elapsed = time.perf_counter() - t0
    verdict(6, ok and elapsed < 300.0, "; ".join(lines) + f"; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. Provenance points at the lesion's best slice; pixels come from slices
# ---------------------------------------------------------------------------


def test_criterion_07_provenance_and_pixel_origin():
    base = PhantomConfig(
        width=96,
        height=128,
        n_slices=20,
        background_texture_scale=24.0,
        clutter_density=0.0,
        noise_sigma=0.0,
        seed=0,
    )
    detector = default_condense_scorer()
    rng = rng_stream(707, "provenance-cases")
    hits = 0
    for k in range(100):
        radius = float(rng.uniform(6.0, 11.0))
        center_x = float(rng.uniform(20.0, base.width - 20.0))
        center_y = float(rng.uniform(20.0, base.height - 20.0))
        extent = int(rng.integers(2, 6))
        center_slice = int(rng.integers(4, 16))
        spec = LesionSpec(
            center_x=center_x,
            center_y=center_y,
            radius=radius,
            center_slice=center_slice,
            slice_extent=extent,
            contrast=float(rng.uniform(60.0, 220.0)),
            malignant=True,
        )
        vol, _ = generate_volume(replace(base, seed=k), [spec], case_id=f"p{k:03d}")
        boxes = detect_slices(normalize_volume(vol), detector, trimmed_slices(vol.n_slices))
        opt = build_optimized_image(vol, aggregate_boxes(boxes, 0.0, 0.2))

        cols, rows = np.meshgrid(np.arange(base.width), np.arange(base.height))
        footprint = (cols + 0.5 - center_x) ** 2 + (rows + 0.5 - center_y) ** 2 < radius**2
        hits += bool(np.all(opt.provenance[footprint] == center_slice))

        picked = np.take_along_axis(vol.data, opt.provenance[None], axis=0)[0]
        assert np.array_equal(picked, opt.image.data)
    verdict(7, hits == 100, f"{hits}/100 footprints traced to the lesion slice")


# ---------------------------------------------------------------------------
# 8. All 31 reader panels, identical readers collapse to the single point
# ---------------------------------------------------------------------------


def _birads_table(rng, readers, n_pos=20, n_neg=20, identical=False):
    cases = []
    for i in range(n_pos + n_neg):
        label = i < n_pos
        if identical:
            grade = int(rng.integers(3, 6)) if label and rng.random() < 0.8 else int(rng.integers(1, 3))
            birads = {r: grade for r in readers}
        else:
            birads = {}
            for r in readers:
                high = rng.random() < (0.85 if label else 0.25)
                birads[r] = int(rng.integers(3, 6)) if high else int(rng.integers(1, 3))
        cases.append(
            CaseRecord(case_id=f"s-{i:03d}", label=label, score=0.5, reader_birads=birads)
        )
    return cases


def test_criterion_08_reader_panel_enumeration(tmp_path):
    readers = ["r1", "r2", "r3", "r4", "r5"]
    rng = np.random.default_rng(808)
    cases = _birads_table(rng, readers)
    points = enumerate_panels(cases, readers)
    sizes = Counter(len(p.readers) for p in points)
    count_ok = len(points) == 31 and sizes == Counter({1: 5, 2: 10, 3: 10, 4: 5, 5: 1})

    singles_ok = all(
        (p.sensitivity, p.specificity) == reader_operating_point(cases, p.readers[0])
        for p in points
        if len(p.readers) == 1
    )

    clones = _birads_table(rng, readers, identical=True)
    solo = reader_operating_point(clones, "r1")
    clone_ok = all(
        (p.sensitivity, p.specificity) == solo for p in enumerate_panels(clones, readers)
    )

    csv_path = tmp_path / "five_readers.csv"
    write_cases_csv(cases, csv_path)
    out = tmp_path / "panels"
    cli_ok = main(["eval", "readers", "--cases", str(csv_path), "--out", str(out)]) == EXIT_OK
    panel_lines = (out / "panels.csv").read_text().splitlines()
    cli_ok = cli_ok and len(panel_lines) == 32

    verdict(
        8,
        count_ok and singles_ok and clone_ok and cli_ok,
        f"31 points {dict(sorted(sizes.items()))}, identical panel == single point, "
        f"panels.csv rows {len(panel_lines) - 1}",
    )


# ---------------------------------------------------------------------------
# 9. Size matching with target == source reduces to the plain bootstrap
# ---------------------------------------------------------------------------


def test_criterion_09_size_matched_identity():
    rng = np.random.default_rng(909)
    spans = [(4.0, 9.5), (10.0, 19.5), (20.0, 49.0), (50.0, 80.0)]
    counts = (45, 105, 105, 45)  # shares 0.15 / 0.35 / 0.35 / 0.15
    sizes = np.concatenate([rng.uniform(lo, hi, size=c) for (lo, hi), c in zip(spans, counts)])
    n_pos, n_neg = sizes.size, 150

    def squash(z: float) -> float:
        return 1.0 / (1.0 + math.exp(-z))

    cases = [
        CaseRecord(
            case_id=f"p-{i:03d}",
            label=True,
            score=squash(float(rng.normal(1.2, 0.8))),
            tumor_size_mm=float(sizes[i]),
        )
        for i in range(n_pos)
    ] + [
        CaseRecord(case_id=f"n-{i:03d}", label=False, score=squash(float(rng.normal(0.0, 0.8))))
        for i in range(n_neg)
    ]
    target = source_histogram(sizes, (10.0, 20.0, 50.0))
    res = size_matched_auc(cases, target, n_populations=5000, seed=11)

    pos_scores = np.array([c.score for c in cases if c.label])
    neg_scores = np.array([c.score for c in cases if not c.label])
    labels = np.concatenate([np.ones(n_pos, bool), np.zeros(n_neg, bool)])
    plain_rng = np.random.default_rng(910)
    plain = np.empty(5000)
    for r in range(5000):
        sp = pos_scores[plain_rng.integers(0, n_pos, size=n_pos)]
        sn = neg_scores[plain_rng.integers(0, n_neg, size=n_neg)]
        plain[r] = auc_mann_whitney(np.concatenate([sp, sn]), labels)
    gap = abs(res.mean_auc - plain.mean())

    verdict(
        9,
        gap < 0.005 and res.mean_tv_distance < 0.05,
        f"mean AUC gap {gap:.4f}, mean TV {res.mean_tv_distance:.3f} over 5000 populations",
    )


# ---------------------------------------------------------------------------
# 10. CLI pipelines are byte-identical across reruns and thread counts
# ---------------------------------------------------------------------------


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run_pipeline(root: Path, config: str, threads: int) -> dict[str, bytes]:
    gen = root / "gen"
    cond = root / "cond"
    assert main(["phantom", "gen", "--config", config, "--out", str(gen), "--threads", str(threads)]) == EXIT_OK
    assert (
        main(
            ["condense", "run", "--config", config, "--cases", str(gen / "cases"),
             "--out", str(cond), "--threads", str(threads)]
        )
        == EXIT_OK
    )
    assert main(["train", "mil", "--config", config, "--out", str(root / "train")]) == EXIT_OK
    assert (
        main(["eval", "roc", "--config", config, "--cases", str(cond / "cases.csv"),
              "--out", str(root / "roc")])
        == EXIT_OK
    )
    assert (
        main(["eval", "size-matched", "--config", config, "--cases", str(cond / "cases.csv"),
              "--target", "source", "--out", str(root / "sized")])
        == EXIT_OK
    )
    return _tree_bytes(root)


def test_criterion_10_pipeline_byte_determinism(tmp_path):
    config = str(Path(__file__).resolve().parent.parent / "demo" / "run_config.json")
    first = _run_pipeline(tmp_path / "a", config, threads=1)
    rerun = _run_pipeline(tmp_path / "b", config, threads=1)
    threaded = _run_pipeline(tmp_path / "c", config, threads=4)
    verdict(
        10,
        first == rerun and first == threaded,
        f"{len(first)} files identical across rerun and threads 1 vs 4",
    )

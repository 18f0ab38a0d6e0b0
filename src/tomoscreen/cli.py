"""Command line front end wiring the pipeline stages together.

One executable, composable subcommands: `phantom gen` builds seeded
cohorts, `condense run` collapses stacks into composites, `score study`
applies the box-to-study aggregation rules to standalone images,
`train mil` fits the toy box scorer, the `eval` family runs the
statistics on CSV case tables, and `report` executes the whole chain in
one process. Configuration is a JSON file; flags override file values.

Every subcommand writes only into its --out directory and drops a
run_manifest.json there recording the resolved config, its sha256, the
seed, and tool versions, so artifacts are traceable and reruns with the
same config are byte-identical at any --threads value. Output paths are
deliberately excluded from the hashed config: the same run into two
different directories must produce identical bundles.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .boxes import write_boxes_csv
from .condense import (
    choose_score_threshold,
    condense_volume,
    study_max_box_score,
)
from .errors import ConfigError, NumericError
from .imaging import (
    ImageGrid,
    normalize_range,
    normalize_with_range,
    read_pgm,
    read_volume,
    volume_range,
    write_pgm,
    write_volume,
)
from .miltrain import DatasetPool, TrainConfig, TrainingCase, save_scorer, train
from .phantom import PhantomConfig, generate_case, read_truth, write_truth
from .scorer import (
    ViewScore,
    breast_score,
    default_condense_scorer,
    default_ensemble,
    ensemble_image_score,
    study_score,
)
from .seeds import rng_stream
from .stats import (
    CaseRecord,
    SizeHistogram,
    auc_mann_whitney,
    bootstrap_ci,
    delong_test,
    enumerate_panels,
    paired_delta_pvalue,
    read_cases_csv,
    reader_operating_point,
    roc_and_auc,
    sensitivity_at_specificity,
    size_matched_auc,
    source_histogram,
    specificity_at_sensitivity,
    write_cases_csv,
    write_panels_csv,
    write_roc_csv,
    write_roc_svg,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of a run; every field has a sane default.

    Path fields (out_dir, cases_dir) are conveniences for config files;
    they never enter the config hash or the manifest.
    """

    # phantom cohort
    width: int = 128
    height: int = 176
    n_slices: int = 30
    background_texture_scale: float = 24.0
    clutter_density: float = 1.0
    noise_sigma: float = 18.0
    contrast_range: tuple[float, float] = (60.0, 220.0)
    n_cancer: int = 20
    n_negative: int = 20
    n_validation: int = 12
    # condensation
    iou_threshold: float = 0.2
    target_sensitivity: float = 0.99
    # toy MIL training
    learning_rate: float = 0.05
    iterations: int = 300
    n_train_cancer: int = 10
    n_train_negative: int = 10
    # statistics
    n_resamples: int = 10000
    n_populations: int = 5000
    n_readers: int = 5
    size_bin_edges: tuple[float, ...] = (10.0, 20.0, 50.0)
    # reproducibility
    seed: int = 0
    # optional default paths
    out_dir: str | None = None
    cases_dir: str | None = None

    def __post_init__(self):
        def need(cond: bool, msg: str) -> None:
            if not cond:
                raise ConfigError(msg)

        need(self.width >= 32 and self.height >= 32, "grid must be at least 32x32")
        need(self.n_slices >= 1, "n_slices must be >= 1")
        need(self.background_texture_scale > 0, "background_texture_scale must be positive")
        need(self.clutter_density >= 0, "clutter_density must be >= 0")
        need(self.noise_sigma >= 0, "noise_sigma must be >= 0")
        need(len(self.contrast_range) == 2, "contrast_range must be [lo, hi]")
        lo, hi = self.contrast_range
        need(0 < lo <= hi, f"contrast_range {self.contrast_range} must be 0 < lo <= hi")
        for name in ("n_cancer", "n_negative", "n_validation", "n_train_cancer", "n_train_negative"):
            need(getattr(self, name) >= 0, f"{name} must be >= 0")
        need(
            0.0 <= self.iou_threshold <= 1.0,
            f"iou_threshold {self.iou_threshold} outside [0, 1]",
        )
        need(
            0.0 <= self.target_sensitivity <= 1.0,
            f"target_sensitivity {self.target_sensitivity} outside [0, 1]",
        )
        need(self.learning_rate >= 0, "learning_rate must be >= 0")
        need(self.iterations >= 0, "iterations must be >= 0")
        need(self.n_resamples >= 1, "n_resamples must be >= 1")
        need(self.n_populations >= 1, "n_populations must be >= 1")
        need(1 <= self.n_readers <= 12, "n_readers must be in 1..12")
        edges = tuple(float(e) for e in self.size_bin_edges)
        need(
            len(edges) >= 1 and all(a < b for a, b in zip(edges, edges[1:])),
            "size_bin_edges must be ascending and nonempty",
        )
        object.__setattr__(self, "size_bin_edges", edges)
        object.__setattr__(
            self, "contrast_range", (float(lo), float(hi))
        )


_PATH_FIELDS = ("out_dir", "cases_dir")
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    coerced = dict(data)
    for key in ("contrast_range", "size_bin_edges"):
        if key in coerced and isinstance(coerced[key], list):
            coerced[key] = tuple(coerced[key])
    try:
        return RunConfig(**coerced)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Config file merged with CLI overrides; overrides win."""
    data: dict = {}
    if path is not None:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(data)


def config_payload(cfg: RunConfig) -> dict:
    payload = dataclasses.asdict(cfg)
    for key in _PATH_FIELDS:
        payload.pop(key, None)
    payload["contrast_range"] = list(cfg.contrast_range)
    payload["size_bin_edges"] = list(cfg.size_bin_edges)
    return payload


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_json(data, path: Path) -> None:
    path.write_text(_dump_json(data))


def write_run_manifest(cfg: RunConfig, out: Path, stage: str) -> None:
    payload = config_payload(cfg)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")
    ).hexdigest()
    manifest = {
        "stage": stage,
        "config": payload,
        "config_sha256": digest,
        "seed": cfg.seed,
        "versions": {
            "tomoscreen": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    write_json(manifest, out / "run_manifest.json")


def _out_dir(args, cfg: RunConfig) -> Path:
    out = args.out if args.out is not None else cfg.out_dir
    if out is None:
        raise ConfigError("an output directory is required (--out or config out_dir)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parallel_map(fn, items, threads: int):
    """Ordered map, optionally across a thread pool. Determinism relies on
    every worker drawing from its own key-derived stream, never on timing."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def _phantom_base(cfg: RunConfig) -> PhantomConfig:
    return PhantomConfig(
        width=cfg.width,
        height=cfg.height,
        n_slices=cfg.n_slices,
        background_texture_scale=cfg.background_texture_scale,
        clutter_density=cfg.clutter_density,
        noise_sigma=cfg.noise_sigma,
        seed=cfg.seed,
    )


def _cohort_ids(cfg: RunConfig) -> list[tuple[str, bool]]:
    ids = [(f"cancer-{i:04d}", True) for i in range(cfg.n_cancer)]
    ids += [(f"negative-{i:04d}", False) for i in range(cfg.n_negative)]
    return ids


def _composite(vol, threshold: float, iou: float):
    """Condense a volume; returns the composite and the composite put on
    the volume's intensity scale."""
    lo, hi = volume_range(vol)
    opt = condense_volume(vol, default_condense_scorer(), threshold, iou)
    return opt, normalize_with_range(opt.image, lo, hi)


def _select_threshold(cfg: RunConfig, threads: int) -> float:
    """Score a cancer-only validation cohort and pick the score threshold
    that keeps target_sensitivity of it."""
    if cfg.n_validation < 1:
        raise ConfigError("threshold selection needs n_validation >= 1")
    base = _phantom_base(cfg)
    scorer = default_condense_scorer()

    def one(i: int) -> float:
        vol, _ = generate_case(base, f"val-{i:04d}", True, cfg.contrast_range)
        return study_max_box_score(vol, scorer)

    scores = _parallel_map(one, range(cfg.n_validation), threads)
    return choose_score_threshold(
        [(s, True) for s in scores], cfg.target_sensitivity
    )


_READER_SENS_BASE = 0.92
_READER_SENS_STEP = 0.03
_READER_SPEC_BASE = 0.70
_READER_SPEC_STEP = 0.045


def reader_profiles(n_readers: int) -> dict[str, tuple[float, float]]:
    """Synthetic reader panel: ids mapped to (sensitivity, specificity).

    Readers trade sensitivity for specificity along a plausible ROC arc,
    so panels of them produce distinct operating points.
    """
    profiles = {}
    for i in range(n_readers):
        sens = min(0.99, max(0.5, _READER_SENS_BASE - _READER_SENS_STEP * i))
        spec = min(0.99, max(0.5, _READER_SPEC_BASE + _READER_SPEC_STEP * i))
        profiles[f"r{i + 1}"] = (sens, spec)
    return profiles


def synthetic_birads(
    seed: int, case_id: str, label: bool, profiles: dict[str, tuple[float, float]]
) -> dict[str, int]:
    """Draw one BIRADS grade per reader from per-(reader, case) streams."""
    grades = {}
    for reader_id, (sens, spec) in profiles.items():
        rng = rng_stream(seed, "reader", reader_id, case_id)
        recall = rng.random() < (sens if label else 1.0 - spec)
        if recall:
            grades[reader_id] = 3 + int(rng.integers(0, 3))
        else:
            grades[reader_id] = 1 + int(rng.integers(0, 2))
    return grades


def _operating(roc, cfg: RunConfig) -> dict:
    """The `operating` summary block: each rate read off the curve at the
    other's target."""
    return {
        "specificity_target": 0.9,
        "sensitivity_at_target": sensitivity_at_specificity(roc, 0.9),
        "sensitivity_target": cfg.target_sensitivity,
        "specificity_at_target": specificity_at_sensitivity(roc, cfg.target_sensitivity),
    }


def _reader_study(cases: list[CaseRecord], reader_ids: list[str], cfg: RunConfig, out: Path):
    """Write panels.csv; return the panel count, the `readers` summary
    block, (reader, sensitivity, specificity) plot markers and the
    paired model-vs-readers delta."""
    panels = enumerate_panels(cases, reader_ids)
    write_panels_csv(panels, out / "panels.csv")
    points = {r: reader_operating_point(cases, r) for r in reader_ids}
    delta = paired_delta_pvalue(cases, reader_ids, n_resamples=cfg.n_resamples, seed=cfg.seed)
    readers = {r: {"sensitivity": se, "specificity": sp} for r, (se, sp) in points.items()}
    return len(panels), readers, [(r, se, sp) for r, (se, sp) in sorted(points.items())], delta


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_phantom_gen(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args, cfg)
    base = _phantom_base(cfg)
    ids = _cohort_ids(cfg)
    if not ids:
        raise ConfigError("nothing to generate: n_cancer + n_negative is 0")
    cases_dir = out / "cases"

    def one(item: tuple[str, bool]) -> str:
        case_id, cancer = item
        vol, truth = generate_case(base, case_id, cancer, cfg.contrast_range)
        case_dir = cases_dir / case_id
        write_volume(vol, case_dir)
        write_truth(truth, case_dir / "truth.json")
        return case_id

    done = _parallel_map(one, ids, args.threads)
    write_run_manifest(cfg, out, "phantom-gen")
    print(f"wrote {len(done)} cases under {cases_dir}")
    return EXIT_OK


def _condense_one_volume(vol, threshold: float, iou: float, case_dir: Path):
    """Condense a volume and write its composite artifacts; returns the
    ensemble score of the composite."""
    opt, image = _composite(vol, threshold, iou)
    case_dir.mkdir(parents=True, exist_ok=True)
    write_pgm(opt.image, case_dir / "optimized.pgm")
    write_pgm(ImageGrid(opt.provenance.astype(np.float64)), case_dir / "provenance.pgm")
    write_boxes_csv(opt.kept_boxes, case_dir / "boxes.csv")
    score = ensemble_image_score(default_ensemble(), image)
    write_json(
        {
            "score": score,
            "n_boxes": len(opt.kept_boxes),
            "clip_warnings": list(opt.clip_warnings),
        },
        case_dir / "score.json",
    )
    return score


def cmd_condense_run(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args, cfg)
    threshold = args.threshold if args.threshold is not None else 0.0
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"score threshold {threshold} outside [0, 1]")
    iou = args.iou if args.iou is not None else cfg.iou_threshold
    if not 0.0 <= iou <= 1.0:
        raise ConfigError(f"iou threshold {iou} outside [0, 1]")

    if args.volume is not None:
        vol = read_volume(args.volume)
        _condense_one_volume(vol, threshold, iou, out)
        write_run_manifest(cfg, out, "condense-run")
        print(f"wrote composite bundle under {out}")
        return EXIT_OK

    cases_root = Path(args.cases if args.cases is not None else _require_cases(cfg))
    case_dirs = sorted(
        p for p in cases_root.iterdir() if (p / "manifest.json").is_file()
    )
    if not case_dirs:
        raise ConfigError(f"no case directories with volumes under {cases_root}")

    def one(case_dir: Path) -> CaseRecord:
        vol = read_volume(case_dir)
        truth = read_truth(case_dir / "truth.json")
        score = _condense_one_volume(
            vol, threshold, iou, out / "cases" / case_dir.name
        )
        return CaseRecord(
            case_id=truth.case_id,
            label=truth.label,
            score=score,
            tumor_size_mm=truth.tumor_size_mm,
        )

    records = _parallel_map(one, case_dirs, args.threads)
    write_cases_csv(records, out / "cases.csv")
    write_run_manifest(cfg, out, "condense-run")
    print(f"wrote {len(records)} condensed cases and {out / 'cases.csv'}")
    return EXIT_OK


def _require_cases(cfg: RunConfig) -> str:
    if cfg.cases_dir is None:
        raise ConfigError("a cases directory is required (--cases or config cases_dir)")
    return cfg.cases_dir


def cmd_score_study(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args, cfg)
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict) or "views" not in manifest:
        raise ConfigError(f"{manifest_path}: study manifest needs a 'views' list")
    case_id = str(manifest.get("case_id", manifest_path.stem))
    views = manifest["views"]
    if not isinstance(views, list) or not views:
        raise ConfigError(f"{manifest_path}: 'views' must be a nonempty list")

    scorers = default_ensemble()
    view_scores: list[ViewScore] = []
    for entry in views:
        try:
            breast = entry["breast"]
            view_label = entry["view"]
            rel = entry["path"]
        except (TypeError, KeyError) as exc:
            raise ConfigError(
                f"{manifest_path}: each view needs 'breast', 'view', 'path'"
            ) from exc
        img = read_pgm(manifest_path.parent / rel)
        score = ensemble_image_score(scorers, normalize_range(img))
        view_scores.append(
            ViewScore(case_id=case_id, breast=breast, view_label=view_label, score=score)
        )

    by_breast: dict[str, list[ViewScore]] = {}
    for v in view_scores:
        by_breast.setdefault(v.breast, []).append(v)
    breast_scores = {side: breast_score(vs) for side, vs in sorted(by_breast.items())}
    final = study_score(list(breast_scores.values()))

    lines = ["level,name,score"]
    for v in view_scores:
        lines.append(f"view,{v.breast}-{v.view_label},{v.score!r}")
    for side, s in breast_scores.items():
        lines.append(f"breast,{side},{s!r}")
    lines.append(f"study,{case_id},{final!r}")
    (out / "scores.csv").write_text("\n".join(lines) + "\n")
    write_run_manifest(cfg, out, "score-study")
    print(f"study {case_id}: score {final:.4f}; wrote {out / 'scores.csv'}")
    return EXIT_OK


def cmd_train_mil(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args, cfg)
    if cfg.n_train_cancer < 1 or cfg.n_train_negative < 1:
        raise ConfigError("training needs n_train_cancer >= 1 and n_train_negative >= 1")
    base = _phantom_base(cfg)
    detector = default_condense_scorer()

    ids = [(f"train-cancer-{i:04d}", True) for i in range(cfg.n_train_cancer)]
    ids += [(f"train-negative-{i:04d}", False) for i in range(cfg.n_train_negative)]

    def one(item: tuple[str, bool]) -> TrainingCase | None:
        case_id, cancer = item
        vol, truth = generate_case(base, case_id, cancer, cfg.contrast_range)
        _, image = _composite(vol, 0.0, cfg.iou_threshold)
        candidates = tuple(detector.detect(image))
        if not candidates:
            return None
        return TrainingCase(
            case_id=case_id, image=image, candidates=candidates, label=truth.label
        )

    cases = [c for c in _parallel_map(one, ids, args.threads) if c is not None]
    cancer = tuple(c for c in cases if c.label)
    negative = tuple(c for c in cases if not c.label)
    if not cancer or not negative:
        raise ConfigError(
            "training pool lost a class (no candidate boxes); raise contrast or counts"
        )
    pool = DatasetPool(name="phantom", cancer=cancer, non_cancer=negative)
    result = train(
        TrainConfig(
            learning_rate=cfg.learning_rate,
            iterations=cfg.iterations,
            seed=cfg.seed,
            datasets=(pool,),
        )
    )
    save_scorer(result, out / "toy_scorer.json")
    write_run_manifest(cfg, out, "train-mil")
    traj = result.loss_trajectory
    head = math.fsum(traj[:20]) / max(1, len(traj[:20])) if traj else float("nan")
    tail = math.fsum(traj[-20:]) / max(1, len(traj[-20:])) if traj else float("nan")
    print(
        f"trained {len(traj)} iterations on {len(cancer)}+{len(negative)} cases; "
        f"mean loss {head:.4f} -> {tail:.4f}; wrote {out / 'toy_scorer.json'}"
    )
    return EXIT_OK


def cmd_eval_roc(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args, cfg)
    cases = read_cases_csv(args.cases)
    roc = roc_and_auc(cases)
    boot = bootstrap_ci(auc_mann_whitney, cases, n_resamples=cfg.n_resamples, seed=cfg.seed)
    write_roc_csv(roc, out / "roc.csv")
    write_roc_svg([("model", roc)], out / "roc.svg")
    summary = {
        "n_cases": len(cases),
        "n_cancer": sum(c.label for c in cases),
        "auc": roc.auc,
        "auc_ci": [boot.lo, boot.hi],
        "n_resamples": boot.n_resamples,
        "n_redraws": boot.n_redraws,
        "operating": _operating(roc, cfg),
        "seed": cfg.seed,
    }
    write_json(summary, out / "summary.json")
    write_run_manifest(cfg, out, "eval-roc")
    print(
        f"AUC {roc.auc:.4f} (95% CI {boot.lo:.4f}..{boot.hi:.4f}); "
        f"wrote {out / 'summary.json'}"
    )
    return EXIT_OK


def _read_paired_cases(path_a: str, path_b: str):
    a = sorted(read_cases_csv(path_a), key=lambda c: c.case_id)
    b = sorted(read_cases_csv(path_b), key=lambda c: c.case_id)
    if [c.case_id for c in a] != [c.case_id for c in b]:
        raise ConfigError("case tables do not cover the same case_ids")
    if [c.label for c in a] != [c.label for c in b]:
        raise ConfigError("case tables disagree on labels")
    return a, b


def cmd_eval_delong(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args, cfg)
    a, b = _read_paired_cases(args.cases_a, args.cases_b)
    scores_a = np.array([c.score for c in a])
    scores_b = np.array([c.score for c in b])
    labels = np.array([c.label for c in a], dtype=bool)
    res = delong_test(scores_a, scores_b, labels)
    write_json(
        {
            "n_cases": len(a),
            "auc_a": res.auc_a,
            "auc_b": res.auc_b,
            "z": res.z,
            "p_value": res.p,
            "degenerate": res.degenerate,
        },
        out / "delong.json",
    )
    write_run_manifest(cfg, out, "eval-delong")
    print(
        f"AUC {res.auc_a:.4f} vs {res.auc_b:.4f}, p = {res.p:.4g}; "
        f"wrote {out / 'delong.json'}"
    )
    return EXIT_OK


def cmd_eval_readers(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args, cfg)
    cases = read_cases_csv(args.cases)
    reader_ids = sorted({r for c in cases for r in (c.reader_birads or {})})
    if not reader_ids:
        raise ConfigError(f"{args.cases}: no birads_<reader> columns found")
    n_panels, readers, markers, delta = _reader_study(cases, reader_ids, cfg, out)
    roc = roc_and_auc(cases)
    write_roc_svg([("model", roc)], out / "readers.svg", points=markers)
    write_json(
        {
            "n_cases": len(cases),
            "readers": readers,
            "n_panels": n_panels,
            "paired_delta": {
                "metric": delta.metric,
                "point_delta": delta.point_delta,
                "p_value": delta.p_value,
                "n_resamples": cfg.n_resamples,
                "n_redraws": delta.n_redraws,
            },
        },
        out / "readers.json",
    )
    write_run_manifest(cfg, out, "eval-readers")
    print(
        f"{len(reader_ids)} readers, {n_panels} panel points, "
        f"delta p = {delta.p_value:.4g}; wrote {out / 'readers.json'}"
    )
    return EXIT_OK


def _load_target_histogram(spec: str, cases: list[CaseRecord], edges) -> SizeHistogram:
    if spec == "source":
        sizes = np.array(
            [c.tumor_size_mm for c in cases if c.label and c.tumor_size_mm is not None]
        )
        if sizes.size == 0:
            raise ConfigError("no positive cases with tumor sizes in the table")
        return source_histogram(sizes, tuple(edges))
    data = json.loads(Path(spec).read_text())
    try:
        return SizeHistogram(
            bin_edges=tuple(data["bin_edges"]), shares=tuple(data["shares"])
        )
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"{spec}: target histogram needs bin_edges and shares") from exc
    except ValueError as exc:
        raise ConfigError(f"{spec}: {exc}") from exc


def cmd_eval_size_matched(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args, cfg)
    cases = read_cases_csv(args.cases)
    target = _load_target_histogram(args.target, cases, cfg.size_bin_edges)
    res = size_matched_auc(
        cases, target, n_populations=cfg.n_populations, seed=cfg.seed
    )
    write_json(
        {
            "mean_auc": res.mean_auc,
            "sd_auc": res.sd_auc,
            "mean_tv_distance": res.mean_tv_distance,
            "n_populations": res.n_populations,
            "target": {
                "bin_edges": list(target.bin_edges),
                "shares": list(target.shares),
            },
        },
        out / "size_matched.json",
    )
    write_run_manifest(cfg, out, "eval-size-matched")
    print(
        f"size-matched AUC {res.mean_auc:.4f} +- {res.sd_auc:.4f} "
        f"(TV {res.mean_tv_distance:.4f}); wrote {out / 'size_matched.json'}"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args, cfg)
    if cfg.n_cancer < 1 or cfg.n_negative < 1:
        raise ConfigError("report needs n_cancer >= 1 and n_negative >= 1")

    threshold = _select_threshold(cfg, args.threads)
    base = _phantom_base(cfg)
    profiles = reader_profiles(cfg.n_readers)
    ids = _cohort_ids(cfg)
    scorers = default_ensemble()

    def one(item: tuple[str, bool]):
        case_id, cancer = item
        vol, truth = generate_case(base, case_id, cancer, cfg.contrast_range)
        _, image = _composite(vol, threshold, cfg.iou_threshold)
        center = normalize_with_range(vol.slice(vol.n_slices // 2), *volume_range(vol))
        return (
            truth,
            ensemble_image_score(scorers, image),
            ensemble_image_score(scorers, center),
        )

    scored = _parallel_map(one, ids, args.threads)

    records, center_records = [], []
    for truth, model, center in scored:
        grades = synthetic_birads(cfg.seed, truth.case_id, truth.label, profiles)
        records.append(
            CaseRecord(
                case_id=truth.case_id,
                label=truth.label,
                score=model,
                tumor_size_mm=truth.tumor_size_mm,
                reader_birads=grades,
            )
        )
        center_records.append(
            CaseRecord(
                case_id=truth.case_id,
                label=truth.label,
                score=center,
                tumor_size_mm=truth.tumor_size_mm,
            )
        )

    write_cases_csv(records, out / "cases.csv")
    write_cases_csv(center_records, out / "cases_center.csv")

    roc = roc_and_auc(records)
    roc_center = roc_and_auc(center_records)
    boot = bootstrap_ci(auc_mann_whitney, records, n_resamples=cfg.n_resamples, seed=cfg.seed)
    scores_m = np.array([c.score for c in records])
    scores_c = np.array([c.score for c in center_records])
    labels = np.array([c.label for c in records], dtype=bool)
    dl = delong_test(scores_m, scores_c, labels)

    reader_ids = sorted(profiles)
    n_panels, readers, markers, delta = _reader_study(records, reader_ids, cfg, out)

    sizes = np.array([c.tumor_size_mm for c in records if c.label])
    target = source_histogram(sizes, cfg.size_bin_edges)
    matched = size_matched_auc(
        records, target, n_populations=cfg.n_populations, seed=cfg.seed
    )

    write_roc_csv(roc, out / "roc.csv")
    curves = [("optimized", roc), ("center slice", roc_center)]
    write_roc_svg(curves, out / "roc.svg", points=markers)

    summary = {
        "n_cases": len(records),
        "n_cancer": int(labels.sum()),
        "score_threshold": threshold,
        "model": {
            "auc": roc.auc,
            "auc_ci": [boot.lo, boot.hi],
            "n_resamples": boot.n_resamples,
        },
        "center_slice": {"auc": roc_center.auc},
        "delong_model_vs_center": {
            "z": dl.z,
            "p_value": dl.p,
            "degenerate": dl.degenerate,
        },
        "operating": _operating(roc, cfg),
        "readers": readers,
        "n_panels": n_panels,
        "paired_delta": {
            "metric": delta.metric,
            "point_delta": delta.point_delta,
            "p_value": delta.p_value,
        },
        "size_matched": {
            "mean_auc": matched.mean_auc,
            "sd_auc": matched.sd_auc,
            "mean_tv_distance": matched.mean_tv_distance,
            "n_populations": matched.n_populations,
        },
    }
    write_json(summary, out / "summary.json")
    write_run_manifest(cfg, out, "report")
    print(
        f"report: {len(records)} cases, optimized AUC {roc.auc:.4f} vs center "
        f"{roc_center.auc:.4f}; wrote {out / 'summary.json'}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_OVERRIDE_FIELDS = ("seed",)


def _overrides(args) -> dict:
    return {name: getattr(args, name, None) for name in _OVERRIDE_FIELDS}


def _thread_count(text: str) -> int:
    """argparse type of --threads: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="output directory (never an input directory)")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="worker threads; any value produces identical outputs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomoscreen",
        description=(
            "Synthetic stack screening pipeline: phantom cohorts, composite "
            "condensation, box-to-study scoring, toy MIL training, and the "
            "reader-study statistics, one subcommand per stage."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    phantom = top.add_parser("phantom", help="synthetic volume generation")
    psub = phantom.add_subparsers(dest="subcommand", required=True)
    gen = psub.add_parser("gen", help="generate a seeded cohort with ground truth")
    _add_common(gen)
    gen.set_defaults(func=cmd_phantom_gen)

    condense = top.add_parser("condense", help="stack-to-composite condensation")
    csub = condense.add_subparsers(dest="subcommand", required=True)
    run = csub.add_parser("run", help="condense one volume or a cohort directory")
    _add_common(run)
    group = run.add_mutually_exclusive_group()
    group.add_argument("--volume", help="one volume directory")
    group.add_argument("--cases", help="directory of case subdirectories")
    run.add_argument("--threshold", type=float, help="box score threshold (default 0)")
    run.add_argument("--iou", type=float, help="NMS IOU threshold override")
    run.set_defaults(func=cmd_condense_run)

    score = top.add_parser("score", help="score standalone images")
    ssub = score.add_subparsers(dest="subcommand", required=True)
    study = ssub.add_parser("study", help="score a multi-view study manifest")
    _add_common(study)
    study.add_argument("--manifest", required=True, help="study manifest JSON")
    study.set_defaults(func=cmd_score_study)

    trn = top.add_parser("train", help="toy weakly supervised training")
    tsub = trn.add_subparsers(dest="subcommand", required=True)
    mil = tsub.add_parser("mil", help="fit the toy box scorer on phantom composites")
    _add_common(mil)
    mil.set_defaults(func=cmd_train_mil)

    ev = top.add_parser("eval", help="statistics on case tables")
    esub = ev.add_subparsers(dest="subcommand", required=True)

    roc = esub.add_parser("roc", help="ROC curve, AUC, bootstrap CI")
    _add_common(roc)
    roc.add_argument("--cases", required=True, help="cases CSV")
    roc.set_defaults(func=cmd_eval_roc)

    delong = esub.add_parser("delong", help="paired AUC comparison")
    _add_common(delong)
    delong.add_argument("--cases-a", required=True, help="first cases CSV")
    delong.add_argument("--cases-b", required=True, help="second cases CSV")
    delong.set_defaults(func=cmd_eval_delong)

    readers = esub.add_parser("readers", help="reader points, panels, paired delta")
    _add_common(readers)
    readers.add_argument("--cases", required=True, help="cases CSV with BIRADS columns")
    readers.set_defaults(func=cmd_eval_readers)

    matched = esub.add_parser("size-matched", help="tumor-size-matched resampling")
    _add_common(matched)
    matched.add_argument("--cases", required=True, help="cases CSV with tumor sizes")
    matched.add_argument(
        "--target",
        required=True,
        help="target histogram JSON, or 'source' for the table's own histogram",
    )
    matched.set_defaults(func=cmd_eval_size_matched)

    report = top.add_parser("report", help="full pipeline in one process")
    _add_common(report)
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

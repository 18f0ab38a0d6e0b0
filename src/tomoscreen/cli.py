"""Command line front end wiring the pipeline stages together.

One executable, composable subcommands: `phantom gen` builds seeded
cohorts, `condense run` collapses stacks into composites, `score study`
applies the box-to-study aggregation rules to standalone images,
`train mil` fits the toy box scorer, the `eval` family runs the
statistics on CSV case tables, and `report` executes the whole chain in
one process. Configuration is a JSON file; flags override file values.

`main` owns the lifecycle of every stage: it loads the config, makes the
--out directory, runs the stage, writes run_manifest.json (only when the
stage succeeded), prints the stage's one-line summary and maps failures
to exit codes: 2 for an invalid config, flag or input file (the message
names the file), 3 for I/O errors, 4 for numeric failures.

Every subcommand writes only into its --out directory; the manifest
records the resolved config, its sha256, the seed, and tool versions, so
artifacts are traceable and reruns with the same config are
byte-identical at any --threads value. Output paths are deliberately
excluded from the hashed config: the same run into two different
directories must produce identical bundles. `report` builds its summary
from the same statistic blocks the `eval` subcommands write.
"""

from __future__ import annotations

import argparse
import contextlib
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
    aggregate_boxes,
    build_optimized_image,
    choose_score_threshold,
    detect_slices,
    study_max_box_score,
    trimmed_slices,
)
from .errors import ConfigError, NumericError
from .imaging import (
    ImageGrid,
    normalize_range,
    normalize_volume,
    read_json,
    read_pgm,
    read_volume,
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

        def finite(value) -> bool:
            try:
                return type(value) in (int, float) and math.isfinite(value)
            except OverflowError:  # an integer too large for a float
                return False

        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                need(type(value) is int, f"{f.name} must be an integer, got {value!r}")
            elif f.type == "float":
                need(finite(value), f"{f.name} must be a finite number")
            elif f.type.startswith("tuple[float"):
                need(all(finite(v) for v in value), f"{f.name} must be a finite number")
        need(self.width >= 32 and self.height >= 32, "grid must be at least 32x32")
        need(self.n_slices >= 1, "n_slices must be >= 1")
        need(self.background_texture_scale > 0, "background_texture_scale must be positive")
        need(self.clutter_density >= 0, "clutter_density must be >= 0")
        need(self.noise_sigma >= 0, "noise_sigma must be >= 0")
        need(len(self.contrast_range) == 2, "contrast_range must be [lo, hi]")
        lo, hi = self.contrast_range
        need(0 < lo <= hi, f"contrast_range {self.contrast_range} must be 0 < lo <= hi")
        counts = ("n_cancer", "n_negative", "n_validation", "n_train_cancer", "n_train_negative")
        for name in counts:
            need(getattr(self, name) >= 0, f"{name} must be >= 0")
        for name in ("iou_threshold", "target_sensitivity"):
            value = getattr(self, name)
            need(0.0 <= value <= 1.0, f"{name} {value} outside [0, 1]")
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
        object.__setattr__(self, "contrast_range", (float(lo), float(hi)))


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
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Config file merged with CLI overrides; overrides win. An invalid
    file raises ConfigError or ValueError naming it."""
    data = {} if path is None else read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def config_payload(cfg: RunConfig) -> dict:
    payload = dataclasses.asdict(cfg)
    for key in _PATH_FIELDS:
        payload.pop(key, None)
    payload["contrast_range"] = list(cfg.contrast_range)
    payload["size_bin_edges"] = list(cfg.size_bin_edges)
    return payload


def write_json(data, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


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


def _case(cfg: RunConfig, case_id: str, cancer: bool):
    """One phantom case of the configured cohort: (volume, truth)."""
    base = PhantomConfig(
        width=cfg.width,
        height=cfg.height,
        n_slices=cfg.n_slices,
        background_texture_scale=cfg.background_texture_scale,
        clutter_density=cfg.clutter_density,
        noise_sigma=cfg.noise_sigma,
        seed=cfg.seed,
    )
    return generate_case(base, case_id, cancer, cfg.contrast_range)


def _cohort_ids(prefix: str, n_cancer: int, n_negative: int) -> list[tuple[str, bool]]:
    ids = [(f"{prefix}cancer-{i:04d}", True) for i in range(n_cancer)]
    ids += [(f"{prefix}negative-{i:04d}", False) for i in range(n_negative)]
    return ids


def _composite(norm, threshold: float, iou: float):
    """Condense a normalized volume: detect on its trimmed slices, keep
    the boxes at or above the threshold that survive NMS, and paint them."""
    boxes = detect_slices(norm, default_condense_scorer(), trimmed_slices(norm.n_slices))
    return build_optimized_image(norm, aggregate_boxes(boxes, threshold, iou))


def _select_threshold(cfg: RunConfig, threads: int) -> float:
    """Score a cancer-only validation cohort and pick the score threshold
    that keeps target_sensitivity of it."""
    if cfg.n_validation < 1:
        raise ConfigError("threshold selection needs n_validation >= 1")
    scorer = default_condense_scorer()

    def one(i: int) -> float:
        vol, _ = _case(cfg, f"val-{i:04d}", True)
        return study_max_box_score(normalize_volume(vol), scorer)

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


# ---------------------------------------------------------------------------
# Statistic blocks, shared by the eval subcommands and report
# ---------------------------------------------------------------------------


def _roc(cases: list[CaseRecord], cfg: RunConfig, out: Path):
    """Write roc.csv; return the curve, the AUC bootstrap, the
    {auc, auc_ci, n_resamples} block and the `operating` block, which
    reads each rate off the curve at the other's target."""
    roc = roc_and_auc(cases)
    boot = bootstrap_ci(auc_mann_whitney, cases, n_resamples=cfg.n_resamples, seed=cfg.seed)
    write_roc_csv(roc, out / "roc.csv")
    block = {"auc": roc.auc, "auc_ci": [boot.lo, boot.hi], "n_resamples": boot.n_resamples}
    operating = {
        "specificity_target": 0.9,
        "sensitivity_at_target": sensitivity_at_specificity(roc, 0.9),
        "sensitivity_target": cfg.target_sensitivity,
        "specificity_at_target": specificity_at_sensitivity(roc, cfg.target_sensitivity),
    }
    return roc, boot, block, operating


def _delong(a: list[CaseRecord], b: list[CaseRecord]):
    """DeLong test of two score lists over the same cases; returns the
    result and its {z, p_value, degenerate} block."""
    res = delong_test(
        np.array([c.score for c in a]),
        np.array([c.score for c in b]),
        np.array([c.label for c in a], dtype=bool),
    )
    return res, {"z": res.z, "p_value": res.p, "degenerate": res.degenerate}


def _reader_study(cases: list[CaseRecord], reader_ids: list[str], cfg: RunConfig, out: Path):
    """Write panels.csv; return the {readers, n_panels, paired_delta}
    block, (reader, sensitivity, specificity) plot markers and the paired
    model-vs-readers delta."""
    panels = enumerate_panels(cases, reader_ids)
    write_panels_csv(panels, out / "panels.csv")
    points = {r: reader_operating_point(cases, r) for r in reader_ids}
    delta = paired_delta_pvalue(cases, reader_ids, n_resamples=cfg.n_resamples, seed=cfg.seed)
    block = {
        "readers": {r: {"sensitivity": se, "specificity": sp} for r, (se, sp) in points.items()},
        "n_panels": len(panels),
        "paired_delta": {
            "metric": delta.metric,
            "point_delta": delta.point_delta,
            "p_value": delta.p_value,
        },
    }
    return block, [(r, se, sp) for r, (se, sp) in sorted(points.items())], delta


def _source_histogram(cases: list[CaseRecord], edges) -> SizeHistogram:
    """The size histogram of the table's own positives."""
    sizes = np.array(
        [c.tumor_size_mm for c in cases if c.label and c.tumor_size_mm is not None]
    )
    if sizes.size == 0:
        raise ValueError("no positive cases with tumor sizes")
    return source_histogram(sizes, edges)


def _size_matched(cases: list[CaseRecord], target: SizeHistogram, cfg: RunConfig) -> dict:
    """The {mean_auc, sd_auc, mean_tv_distance, n_populations} block."""
    res = size_matched_auc(cases, target, n_populations=cfg.n_populations, seed=cfg.seed)
    return dataclasses.asdict(res)


@contextlib.contextmanager
def _statistics_on(*paths: str):
    """A statistic that rejects its parsed inputs (ValueError) exits 2
    naming the input files."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{', '.join(map(str, paths))}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands: each runs one stage into `out` and returns the line to print
# ---------------------------------------------------------------------------


def cmd_phantom_gen(args, cfg: RunConfig, out: Path) -> str:
    ids = _cohort_ids("", cfg.n_cancer, cfg.n_negative)
    if not ids:
        raise ConfigError("nothing to generate: n_cancer + n_negative is 0")
    cases_dir = out / "cases"

    def one(item: tuple[str, bool]) -> str:
        case_id, cancer = item
        vol, truth = _case(cfg, case_id, cancer)
        case_dir = cases_dir / case_id
        write_volume(vol, case_dir)
        write_truth(truth, case_dir / "truth.json")
        return case_id

    done = _parallel_map(one, ids, args.threads)
    return f"wrote {len(done)} cases under {cases_dir}"


def _condense_one_volume(vol, threshold: float, iou: float, case_dir: Path):
    """Condense a volume and write its composite artifacts; returns the
    ensemble score of the composite. optimized.pgm holds the raw volume's
    pixels picked by the composite's provenance."""
    opt = _composite(normalize_volume(vol), threshold, iou)
    case_dir.mkdir(parents=True, exist_ok=True)
    raw = np.take_along_axis(vol.data, opt.provenance[None], axis=0)[0]
    write_pgm(ImageGrid(raw), case_dir / "optimized.pgm")
    write_pgm(ImageGrid(opt.provenance.astype(np.float64)), case_dir / "provenance.pgm")
    write_boxes_csv(opt.kept_boxes, case_dir / "boxes.csv")
    score = ensemble_image_score(default_ensemble(), opt.image)
    write_json(
        {"score": score, "n_boxes": len(opt.kept_boxes), "clip_warnings": list(opt.clip_warnings)},
        case_dir / "score.json",
    )
    return score


def cmd_condense_run(args, cfg: RunConfig, out: Path) -> str:
    threshold = args.threshold if args.threshold is not None else 0.0
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"score threshold {threshold} outside [0, 1]")
    iou = args.iou if args.iou is not None else cfg.iou_threshold
    if not 0.0 <= iou <= 1.0:
        raise ConfigError(f"iou threshold {iou} outside [0, 1]")

    if args.volume is not None:
        _condense_one_volume(read_volume(args.volume), threshold, iou, out)
        return f"wrote composite bundle under {out}"

    cases_root = args.cases if args.cases is not None else cfg.cases_dir
    if cases_root is None:
        raise ConfigError("a cases directory is required (--cases or config cases_dir)")
    case_dirs = sorted(p for p in Path(cases_root).iterdir() if (p / "manifest.json").is_file())
    if not case_dirs:
        raise ConfigError(f"no case directories with volumes under {cases_root}")

    def one(case_dir: Path) -> CaseRecord:
        vol = read_volume(case_dir)
        truth = read_truth(case_dir / "truth.json")
        score = _condense_one_volume(vol, threshold, iou, out / "cases" / case_dir.name)
        return CaseRecord(
            case_id=truth.case_id, label=truth.label, score=score, tumor_size_mm=truth.tumor_size_mm
        )

    records = _parallel_map(one, case_dirs, args.threads)
    write_cases_csv(records, out / "cases.csv")
    return f"wrote {len(records)} condensed cases and {out / 'cases.csv'}"


def cmd_score_study(args, cfg: RunConfig, out: Path) -> str:
    manifest_path = Path(args.manifest)
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict) or "views" not in manifest:
        raise ConfigError(f"{manifest_path}: study manifest needs a 'views' list")
    case_id = str(manifest.get("case_id", manifest_path.stem))
    views = manifest["views"]
    if not isinstance(views, list) or not views:
        raise ConfigError(f"{manifest_path}: 'views' must be a nonempty list")

    scorers = default_ensemble()
    view_scores: list[ViewScore] = []
    keys = ("breast", "view", "path")
    for entry in views:
        if not (isinstance(entry, dict) and all(isinstance(entry.get(k), str) for k in keys)):
            raise ConfigError(f"{manifest_path}: each view needs 'breast', 'view', 'path'")
        try:
            img = read_pgm(manifest_path.parent / entry["path"])
            score = ensemble_image_score(scorers, normalize_range(img))
            view_scores.append(ViewScore(case_id, entry["breast"], entry["view"], score))
        except ValueError as exc:
            raise ConfigError(f"{manifest_path}: {exc}") from None

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
    return f"study {case_id}: score {final:.4f}; wrote {out / 'scores.csv'}"


def cmd_train_mil(args, cfg: RunConfig, out: Path) -> str:
    if cfg.n_train_cancer < 1 or cfg.n_train_negative < 1:
        raise ConfigError("training needs n_train_cancer >= 1 and n_train_negative >= 1")
    detector = default_condense_scorer()

    def one(item: tuple[str, bool]) -> TrainingCase | None:
        case_id, cancer = item
        vol, truth = _case(cfg, case_id, cancer)
        image = _composite(normalize_volume(vol), 0.0, cfg.iou_threshold).image
        candidates = tuple(detector.detect(image))
        if not candidates:
            return None
        return TrainingCase(case_id=case_id, image=image, candidates=candidates, label=truth.label)

    ids = _cohort_ids("train-", cfg.n_train_cancer, cfg.n_train_negative)
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
    traj = result.loss_trajectory
    head = math.fsum(traj[:20]) / max(1, len(traj[:20])) if traj else float("nan")
    tail = math.fsum(traj[-20:]) / max(1, len(traj[-20:])) if traj else float("nan")
    return (
        f"trained {len(traj)} iterations on {len(cancer)}+{len(negative)} cases; "
        f"mean loss {head:.4f} -> {tail:.4f}; wrote {out / 'toy_scorer.json'}"
    )


def cmd_eval_roc(args, cfg: RunConfig, out: Path) -> str:
    cases = read_cases_csv(args.cases)
    with _statistics_on(args.cases):
        roc, boot, block, operating = _roc(cases, cfg, out)
    write_roc_svg([("model", roc)], out / "roc.svg")
    summary = {
        **block,
        "n_cases": len(cases),
        "n_cancer": sum(c.label for c in cases),
        "n_redraws": boot.n_redraws,
        "operating": operating,
        "seed": cfg.seed,
    }
    write_json(summary, out / "summary.json")
    return f"AUC {roc.auc:.4f} (95% CI {boot.lo:.4f}..{boot.hi:.4f}); wrote {out / 'summary.json'}"


def cmd_eval_delong(args, cfg: RunConfig, out: Path) -> str:
    a = sorted(read_cases_csv(args.cases_a), key=lambda c: c.case_id)
    b = sorted(read_cases_csv(args.cases_b), key=lambda c: c.case_id)
    if [c.case_id for c in a] != [c.case_id for c in b]:
        raise ConfigError("case tables do not cover the same case_ids")
    if [c.label for c in a] != [c.label for c in b]:
        raise ConfigError("case tables disagree on labels")
    with _statistics_on(args.cases_a, args.cases_b):
        res, block = _delong(a, b)
    summary = {"n_cases": len(a), "auc_a": res.auc_a, "auc_b": res.auc_b, **block}
    write_json(summary, out / "delong.json")
    return f"AUC {res.auc_a:.4f} vs {res.auc_b:.4f}, p = {res.p:.4g}; wrote {out / 'delong.json'}"


def cmd_eval_readers(args, cfg: RunConfig, out: Path) -> str:
    cases = read_cases_csv(args.cases)
    reader_ids = sorted({r for c in cases for r in (c.reader_birads or {})})
    if not reader_ids:
        raise ConfigError(f"{args.cases}: no birads_<reader> columns found")
    with _statistics_on(args.cases):
        block, markers, delta = _reader_study(cases, reader_ids, cfg, out)
        roc = roc_and_auc(cases)
    write_roc_svg([("model", roc)], out / "readers.svg", points=markers)
    block["paired_delta"].update(n_resamples=cfg.n_resamples, n_redraws=delta.n_redraws)
    write_json({"n_cases": len(cases), **block}, out / "readers.json")
    return (
        f"{len(reader_ids)} readers, {block['n_panels']} panel points, "
        f"delta p = {delta.p_value:.4g}; wrote {out / 'readers.json'}"
    )


def _read_histogram(path: str) -> SizeHistogram:
    data = read_json(path)
    try:
        return SizeHistogram(bin_edges=tuple(data["bin_edges"]), shares=tuple(data["shares"]))
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"{path}: target histogram needs bin_edges and shares") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def cmd_eval_size_matched(args, cfg: RunConfig, out: Path) -> str:
    cases = read_cases_csv(args.cases)
    if args.target == "source":
        inputs, target = [args.cases], None
    else:
        inputs, target = [args.cases, args.target], _read_histogram(args.target)
    with _statistics_on(*inputs):
        if target is None:
            target = _source_histogram(cases, cfg.size_bin_edges)
        block = _size_matched(cases, target, cfg)
    block["target"] = {"bin_edges": list(target.bin_edges), "shares": list(target.shares)}
    write_json(block, out / "size_matched.json")
    return (
        f"size-matched AUC {block['mean_auc']:.4f} +- {block['sd_auc']:.4f} "
        f"(TV {block['mean_tv_distance']:.4f}); wrote {out / 'size_matched.json'}"
    )


def cmd_report(args, cfg: RunConfig, out: Path) -> str:
    if cfg.n_cancer < 1 or cfg.n_negative < 1:
        raise ConfigError("report needs n_cancer >= 1 and n_negative >= 1")

    threshold = _select_threshold(cfg, args.threads)
    profiles = reader_profiles(cfg.n_readers)
    scorers = default_ensemble()

    def one(item: tuple[str, bool]) -> tuple[CaseRecord, CaseRecord]:
        case_id, cancer = item
        vol, truth = _case(cfg, case_id, cancer)
        norm = normalize_volume(vol)
        image = _composite(norm, threshold, cfg.iou_threshold).image
        record = CaseRecord(
            case_id=truth.case_id,
            label=truth.label,
            score=ensemble_image_score(scorers, image),
            tumor_size_mm=truth.tumor_size_mm,
            reader_birads=synthetic_birads(cfg.seed, truth.case_id, truth.label, profiles),
        )
        center_score = ensemble_image_score(scorers, norm.slice(norm.n_slices // 2))
        return record, dataclasses.replace(record, score=center_score, reader_birads=None)

    ids = _cohort_ids("", cfg.n_cancer, cfg.n_negative)
    records, center_records = map(list, zip(*_parallel_map(one, ids, args.threads)))
    write_cases_csv(records, out / "cases.csv")
    write_cases_csv(center_records, out / "cases_center.csv")

    roc, _, model, operating = _roc(records, cfg, out)
    roc_center = roc_and_auc(center_records)
    _, delong = _delong(records, center_records)
    readers, markers, _ = _reader_study(records, sorted(profiles), cfg, out)
    matched = _size_matched(records, _source_histogram(records, cfg.size_bin_edges), cfg)

    curves = [("optimized", roc), ("center slice", roc_center)]
    write_roc_svg(curves, out / "roc.svg", points=markers)
    summary = {
        "n_cases": len(records),
        "n_cancer": sum(c.label for c in records),
        "score_threshold": threshold,
        "model": model,
        "center_slice": {"auc": roc_center.auc},
        "delong_model_vs_center": delong,
        "operating": operating,
        **readers,
        "size_matched": matched,
    }
    write_json(summary, out / "summary.json")
    return (
        f"report: {len(records)} cases, optimized AUC {roc.auc:.4f} vs center "
        f"{roc_center.auc:.4f}; wrote {out / 'summary.json'}"
    )


# ---------------------------------------------------------------------------
# Argument parsing and the stage runner
# ---------------------------------------------------------------------------


def _thread_count(text: str) -> int:
    """argparse type of --threads: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_stage(sub, name: str, stage: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand that runs `func` as `stage`, the name its manifest
    records, with the flags every stage takes."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="output directory (never an input directory)")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="worker threads; any value produces identical outputs",
    )
    p.set_defaults(func=func, stage=stage)
    return p


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

    def group(command: str, help: str):
        """Adds the subcommands of `command`, each run as the stage
        "<command>-<subcommand>"."""
        sub = top.add_parser(command, help=help).add_subparsers(dest="subcommand", required=True)
        return lambda name, func, text: _add_stage(sub, name, f"{command}-{name}", func, text)

    phantom = group("phantom", "synthetic volume generation")
    phantom("gen", cmd_phantom_gen, "generate a seeded cohort with ground truth")

    condense = group("condense", "stack-to-composite condensation")
    run = condense("run", cmd_condense_run, "condense one volume or a cohort directory")
    source = run.add_mutually_exclusive_group()
    source.add_argument("--volume", help="one volume directory")
    source.add_argument("--cases", help="directory of case subdirectories")
    run.add_argument("--threshold", type=float, help="box score threshold (default 0)")
    run.add_argument("--iou", type=float, help="NMS IOU threshold override")

    score = group("score", "score standalone images")
    study = score("study", cmd_score_study, "score a multi-view study manifest")
    study.add_argument("--manifest", required=True, help="study manifest JSON")

    trn = group("train", "toy weakly supervised training")
    trn("mil", cmd_train_mil, "fit the toy box scorer on phantom composites")

    ev = group("eval", "statistics on case tables")
    roc = ev("roc", cmd_eval_roc, "ROC curve, AUC, bootstrap CI")
    roc.add_argument("--cases", required=True, help="cases CSV")
    delong = ev("delong", cmd_eval_delong, "paired AUC comparison")
    delong.add_argument("--cases-a", required=True, help="first cases CSV")
    delong.add_argument("--cases-b", required=True, help="second cases CSV")
    readers = ev("readers", cmd_eval_readers, "reader points, panels, paired delta")
    readers.add_argument("--cases", required=True, help="cases CSV with BIRADS columns")
    matched = ev("size-matched", cmd_eval_size_matched, "tumor-size-matched resampling")
    matched.add_argument("--cases", required=True, help="cases CSV with tumor sizes")
    matched.add_argument(
        "--target",
        required=True,
        help="target histogram JSON, or 'source' for the table's own histogram",
    )

    _add_stage(top, "report", "report", cmd_report, "full pipeline in one process")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one stage: config, --out, the stage, then its manifest. A
    failed stage prints one error line, writes no manifest and returns
    its exit code."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {"seed": args.seed})
        out = _out_dir(args, cfg)
        line = args.func(args, cfg, out)
        write_run_manifest(cfg, out, args.stage)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

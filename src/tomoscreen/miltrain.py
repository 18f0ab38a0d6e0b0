"""Toy weakly-supervised trainer: a linear scorer over hand-made patch
features, trained with binary cross-entropy on the max-over-boxes score.

Only the case label supervises training. The gradient flows through the
single argmax candidate (subgradient of the max), which is the whole
point being demonstrated; everything else is ordinary logistic
regression with class-balanced sampling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import ScoredBox
from .errors import NumericError
from .imaging import ImageGrid
from .scorer import ScorerHandle
from .seeds import rng_stream

N_FEATURES = 4
# Fixed divisors bringing each raw feature to roughly unit order for
# images on the +-127.5 normalized scale. Centers are zero so constant
# patches map to exactly zero std-dev and contrast features.
FEATURE_SCALES = (60.0, 20.0, 12.0, 1.0)


def extract_patch_features(img: ImageGrid, box: ScoredBox) -> np.ndarray:
    """Fixed-length feature vector for one candidate box.

    Features: patch mean, patch standard deviation, center-minus-border
    contrast, log box area; each divided by a fixed scale constant.
    The box must lie inside the image.
    """
    h, w = img.data.shape
    if box.x_min < 0 or box.y_min < 0 or box.x_max > w or box.y_max > h:
        raise ValueError(f"box {box} exceeds {w}x{h} image")
    x0 = int(math.floor(box.x_min))
    y0 = int(math.floor(box.y_min))
    x1 = int(math.ceil(box.x_max))
    y1 = int(math.ceil(box.y_max))
    patch = img.data[y0:y1, x0:x1]
    ph, pw = patch.shape

    mean = float(patch.mean())
    sd = float(patch.std())

    # Center region: middle half of the rectangle (quarter inset per side).
    qh, qw = ph // 4, pw // 4
    center = patch[qh : ph - qh, qw : pw - qw]
    border_mask = np.ones(patch.shape, dtype=bool)
    border_mask[qh : ph - qh, qw : pw - qw] = False
    if center.size == 0 or not border_mask.any():
        contrast = 0.0
    else:
        contrast = float(center.mean() - patch[border_mask].mean())

    raw = np.array([mean, sd, contrast, math.log(box.area)], dtype=np.float64)
    return raw / np.asarray(FEATURE_SCALES)


@dataclass(frozen=True)
class ToyScorer:
    weights: tuple[float, ...]
    bias: float

    def __post_init__(self):
        if len(self.weights) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} weights, got {len(self.weights)}")
        if not all(math.isfinite(v) for v in self.weights) or not math.isfinite(self.bias):
            raise ValueError("non-finite scorer parameters")

    @property
    def weight_vector(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)


def _sigmoid(z: float) -> float:
    return math.exp(-np.logaddexp(0.0, -z))


def mil_forward(
    theta: ToyScorer, img: ImageGrid, candidates: list[ScoredBox]
) -> tuple[float, int]:
    """Score = logistic of the max per-box logit; also report the argmax.

    Ties go to the lowest index. Raises on an empty candidate list:
    training needs at least one instance per bag.
    """
    if not candidates:
        raise ValueError("mil_forward requires at least one candidate box")
    w = theta.weight_vector
    logits = [float(w @ extract_patch_features(img, b)) + theta.bias for b in candidates]
    arg = int(np.argmax(logits))
    return _sigmoid(logits[arg]), arg


def mil_loss_grad(
    theta: ToyScorer, img: ImageGrid, candidates: list[ScoredBox], label: bool
) -> tuple[float, np.ndarray, float]:
    """Binary cross-entropy loss and its (sub)gradient.

    Returns (loss, grad_weights, grad_bias). The gradient is rank-1 in
    the argmax candidate's features: grad_w = (score - y) * f(argmax),
    grad_b = score - y.
    """
    score, arg = mil_forward(theta, img, candidates)
    feats = extract_patch_features(img, candidates[arg])
    z = float(theta.weight_vector @ feats) + theta.bias
    y = 1.0 if label else 0.0
    # numerically stable BCE on the logit
    loss = float(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z))
    residual = score - y
    return loss, residual * feats, residual


@dataclass(frozen=True)
class TrainingCase:
    case_id: str
    image: ImageGrid
    candidates: tuple[ScoredBox, ...]
    label: bool

    def __post_init__(self):
        if not self.candidates:
            raise ValueError(f"case {self.case_id} has no candidate boxes")


@dataclass(frozen=True)
class DatasetPool:
    """One dataset's cases split by class; both classes must be present."""

    name: str
    cancer: tuple[TrainingCase, ...]
    non_cancer: tuple[TrainingCase, ...]

    def __post_init__(self):
        if not self.cancer or not self.non_cancer:
            raise ValueError(f"dataset {self.name!r} must hold both classes")
        for case in self.cancer:
            if not case.label:
                raise ValueError(f"non-cancer case {case.case_id} in cancer pool")
        for case in self.non_cancer:
            if case.label:
                raise ValueError(f"cancer case {case.case_id} in non-cancer pool")


def balanced_sample(pools: list[DatasetPool], rng: np.random.Generator) -> TrainingCase:
    """Dataset by malignant share, class by a fair coin, case uniformly."""
    if not pools:
        raise ValueError("balanced_sample needs at least one dataset pool")
    malignant_counts = np.array([len(p.cancer) for p in pools], dtype=np.float64)
    probs = malignant_counts / malignant_counts.sum()
    d = int(rng.choice(len(pools), p=probs))
    take_cancer = rng.random() < 0.5
    group = pools[d].cancer if take_cancer else pools[d].non_cancer
    return group[int(rng.integers(0, len(group)))]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    iterations: int
    seed: int
    datasets: tuple[DatasetPool, ...]

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not self.datasets:
            raise ValueError("training needs at least one dataset pool")


@dataclass(frozen=True)
class TrainResult:
    scorer: ToyScorer
    loss_trajectory: tuple[float, ...]


def train(cfg: TrainConfig) -> TrainResult:
    """Plain SGD on balanced samples. Deterministic given cfg.seed.

    Raises NumericError when the loss stops being finite.
    """
    pools = list(cfg.datasets)
    rng = rng_stream(cfg.seed, "mil-train")
    w = np.zeros(N_FEATURES, dtype=np.float64)
    b = 0.0
    trajectory = []
    for it in range(cfg.iterations):
        case = balanced_sample(pools, rng)
        if not (np.all(np.isfinite(w)) and math.isfinite(b)):
            raise NumericError(f"training diverged at iteration {it}: non-finite parameters")
        theta = ToyScorer(weights=tuple(w.tolist()), bias=b)
        loss, gw, gb = mil_loss_grad(theta, case.image, list(case.candidates), case.label)
        if not math.isfinite(loss):
            raise NumericError(f"training diverged at iteration {it}: loss={loss}")
        w -= cfg.learning_rate * gw
        b -= cfg.learning_rate * gb
        trajectory.append(loss)
    return TrainResult(
        scorer=ToyScorer(weights=tuple(w.tolist()), bias=b),
        loss_trajectory=tuple(trajectory),
    )


@dataclass(frozen=True)
class MilRescorer:
    """ScorerHandle that re-scores a base detector's boxes with a ToyScorer."""

    detector: ScorerHandle
    toy: ToyScorer

    def detect(self, img: ImageGrid) -> list[ScoredBox]:
        from dataclasses import replace

        out = []
        w = self.toy.weight_vector
        for box in self.detector.detect(img):
            z = float(w @ extract_patch_features(img, box)) + self.toy.bias
            out.append(replace(box, score=_sigmoid(z)))
        return out


def save_scorer(result: TrainResult, path: str | Path) -> None:
    payload = {
        "weights": list(result.scorer.weights),
        "bias": result.scorer.bias,
        "loss_trajectory": list(result.loss_trajectory),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

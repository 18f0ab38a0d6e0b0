"""Synthetic tomosynthesis phantoms with known ground truth.

A phantom volume is a stack of slices built from four additive layers:
a flat background level, low-frequency texture correlated across slices,
benign distractor blobs that persist over a few slices with positional
jitter, and per-slice Gaussian pixel noise. Lesions are cosine-tapered
bright discs spanning a contiguous run of slices, brightest on their
center slice. The first and last 10% of slices receive amplified noise,
imitating the reconstruction artifacts that make stack edges unreliable.

Everything is driven by counter-based RNG streams keyed on (seed,
purpose, index), so generation is bit-reproducible and order
independent: cases can be built in parallel in any order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .imaging import ImageGrid, Volume, normalize_range, read_json
from .seeds import mix_seed, rng_stream

BACKGROUND_LEVEL = 1500.0
MM_PER_PIXEL = 0.1

# Texture amplitudes scale with noise_sigma so that noise_sigma == 0
# yields a perfectly flat background (required for exact-contrast and
# provenance assertions on noiseless phantoms). Texture is meant to be
# low-frequency parenchyma, not lesion-scale structure, so keep
# background_texture_scale well above the lesion radius (24+ px).
COMMON_TEXTURE_RATIO = 2.0
SLICE_TEXTURE_RATIO = 0.75

# Stack-edge slices (first/last floor(0.1 * n_slices)) get this noise
# boost, imitating how reconstruction quality collapses at the stack
# faces. Naive whole-stack scoring pays for it; edge-trimming does not.
EDGE_NOISE_FACTOR = 8.0

# Benign distractor blobs: radius and intensity ranges, slice persistence.
CLUTTER_RADIUS_RANGE = (4.0, 9.0)
CLUTTER_CONTRAST_RANGE = (25.0, 80.0)
CLUTTER_EXTENT_RANGE = (2, 5)
CLUTTER_JITTER_SIGMA = 0.6
_CLUTTER_MEAN_EXTENT = (CLUTTER_EXTENT_RANGE[0] + CLUTTER_EXTENT_RANGE[1]) / 2


@dataclass(frozen=True)
class LesionSpec:
    """One planted lesion: position, size, slice span, contrast, malignancy."""

    center_x: float
    center_y: float
    radius: float
    center_slice: int
    slice_extent: int
    contrast: float
    malignant: bool

    def __post_init__(self):
        for name in ("center_x", "center_y", "radius", "contrast"):
            try:
                finite = math.isfinite(getattr(self, name))
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise ValueError(f"lesion {name} must be a finite number")
        if not self.radius > 0:
            raise ValueError(f"lesion radius must be positive, got {self.radius}")
        if self.slice_extent < 1:
            raise ValueError(f"slice_extent must be >= 1, got {self.slice_extent}")
        if not self.contrast > 0:
            raise ValueError(f"lesion contrast must be positive, got {self.contrast}")

    @property
    def size_mm(self) -> float:
        """Tumor diameter in mm at the declared 0.1 mm/pixel scale."""
        return 2.0 * self.radius * MM_PER_PIXEL

    def slice_span(self) -> tuple[int, int]:
        """Inclusive (first, last) slice indices covered by this lesion."""
        first = self.center_slice - (self.slice_extent - 1) // 2
        return first, first + self.slice_extent - 1


@dataclass(frozen=True)
class PhantomConfig:
    width: int
    height: int
    n_slices: int
    background_texture_scale: float
    clutter_density: float
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("phantom grid must be at least 1x1")
        if self.n_slices < 1:
            raise ValueError(f"n_slices must be >= 1, got {self.n_slices}")
        if not self.background_texture_scale > 0:
            raise ValueError("background_texture_scale must be positive")
        if self.clutter_density < 0:
            raise ValueError("clutter_density must be >= 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class PhantomTruth:
    case_id: str
    lesions: tuple[LesionSpec, ...]
    label: bool

    def __post_init__(self):
        derived = any(les.malignant for les in self.lesions)
        if self.label != derived:
            raise ValueError(
                f"label {self.label} inconsistent with lesion malignancy flags"
            )

    @property
    def tumor_size_mm(self) -> float | None:
        """Largest malignant lesion diameter in mm, or None for negatives."""
        sizes = [les.size_mm for les in self.lesions if les.malignant]
        return max(sizes) if sizes else None


def _slice_weight(offset: int, slice_extent: int) -> float:
    """Cosine falloff across a lesion's slice span; 1.0 at the center slice."""
    half = (slice_extent + 1) / 2.0
    return 0.5 * (1.0 + math.cos(math.pi * offset / half))


def _add_disc(canvas: np.ndarray, cx: float, cy: float, radius: float, amp: float) -> None:
    """Add a cosine-tapered disc in place. Peak value is exactly `amp` when
    (cx, cy) coincides with a pixel center."""
    h, w = canvas.shape
    x0 = max(0, int(math.floor(cx - radius)))
    x1 = min(w, int(math.ceil(cx + radius)) + 1)
    y0 = max(0, int(math.floor(cy - radius)))
    y1 = min(h, int(math.ceil(cy + radius)) + 1)
    if x0 >= x1 or y0 >= y1:
        return
    xs = np.arange(x0, x1, dtype=np.float64) + 0.5
    ys = np.arange(y0, y1, dtype=np.float64) + 0.5
    d = np.hypot(xs[None, :] - cx, ys[:, None] - cy)
    mask = d < radius
    patch = canvas[y0:y1, x0:x1]
    patch[mask] += amp * (0.5 * (1.0 + np.cos(np.pi * d[mask] / radius)))


def _texture_field(cfg: PhantomConfig, *stream_keys) -> np.ndarray:
    """Unit-variance low-frequency field from smoothed white noise."""
    rng = rng_stream(cfg.seed, *stream_keys)
    white = rng.standard_normal((cfg.height, cfg.width))
    field = gaussian_filter(white, sigma=cfg.background_texture_scale, mode="nearest")
    sd = field.std()
    if sd > 0:
        field /= sd
    return field


def _plan_clutter(cfg: PhantomConfig):
    """Distractor blob plan shared by all slices of a volume.

    Returns a list of (cx, cy, radius, amplitude, covered) tuples where
    covered maps slice index -> (jitter_x, jitter_y, weight).
    """
    n_blobs = int(round(cfg.clutter_density * cfg.n_slices / _CLUTTER_MEAN_EXTENT))
    if n_blobs <= 0:
        return []
    rng = rng_stream(cfg.seed, "clutter")
    blobs = []
    for _ in range(n_blobs):
        radius = rng.uniform(*CLUTTER_RADIUS_RANGE)
        cx = rng.uniform(radius, cfg.width - radius)
        cy = rng.uniform(radius, cfg.height - radius)
        amp = rng.uniform(*CLUTTER_CONTRAST_RANGE)
        extent = int(rng.integers(CLUTTER_EXTENT_RANGE[0], CLUTTER_EXTENT_RANGE[1] + 1))
        center_slice = int(rng.integers(0, cfg.n_slices))
        first = center_slice - (extent - 1) // 2
        covered = {}
        for s in range(first, first + extent):
            jx, jy = rng.normal(0.0, CLUTTER_JITTER_SIGMA, size=2)
            if 0 <= s < cfg.n_slices:
                covered[s] = (jx, jy, _slice_weight(s - center_slice, extent))
        blobs.append((cx, cy, radius, amp, covered))
    return blobs


def edge_slice_count(n_slices: int) -> int:
    return int(math.floor(0.1 * n_slices))


def _check_lesion_bounds(cfg: PhantomConfig, les: LesionSpec) -> None:
    if not (
        les.center_x - les.radius >= 0
        and les.center_x + les.radius <= cfg.width
        and les.center_y - les.radius >= 0
        and les.center_y + les.radius <= cfg.height
    ):
        raise ValueError(
            f"lesion at ({les.center_x}, {les.center_y}) r={les.radius} "
            f"exceeds {cfg.width}x{cfg.height} grid"
        )
    first, last = les.slice_span()
    if first < 0 or last >= cfg.n_slices:
        raise ValueError(
            f"lesion slices [{first}, {last}] outside volume of {cfg.n_slices} slices"
        )


def generate_volume(
    cfg: PhantomConfig, lesions: list[LesionSpec], case_id: str = "case"
) -> tuple[Volume, PhantomTruth]:
    """Render a phantom volume and its ground truth.

    Args:
        cfg: geometry, texture, clutter and noise parameters plus the seed.
        lesions: lesions to plant; validated against the grid bounds.
        case_id: identifier recorded in the returned PhantomTruth.

    Returns:
        (volume, truth). Deterministic given (cfg, lesions): identical
        inputs give bit-identical volumes.

    Raises:
        ValueError: when a lesion does not fit inside the volume.
    """
    for les in lesions:
        _check_lesion_bounds(cfg, les)

    common_amp = COMMON_TEXTURE_RATIO * cfg.noise_sigma
    slice_amp = SLICE_TEXTURE_RATIO * cfg.noise_sigma
    common = _texture_field(cfg, "texture-common") if common_amp > 0 else None
    blobs = _plan_clutter(cfg)
    n_edge = edge_slice_count(cfg.n_slices)

    lesion_cover: dict[int, list[tuple[LesionSpec, float]]] = {}
    for les in lesions:
        first, last = les.slice_span()
        for s in range(first, last + 1):
            weight = _slice_weight(s - les.center_slice, les.slice_extent)
            lesion_cover.setdefault(s, []).append((les, weight))

    data = np.full((cfg.n_slices, cfg.height, cfg.width), BACKGROUND_LEVEL)
    for i, canvas in enumerate(data):
        if common is not None:
            canvas += common_amp * common
        if slice_amp > 0:
            canvas += slice_amp * _texture_field(cfg, "texture-slice", i)
        for cx, cy, radius, amp, covered in blobs:
            hit = covered.get(i)
            if hit is not None:
                jx, jy, weight = hit
                _add_disc(canvas, cx + jx, cy + jy, radius, amp * weight)
        for les, weight in lesion_cover.get(i, ()):
            _add_disc(canvas, les.center_x, les.center_y, les.radius, les.contrast * weight)
        sigma = cfg.noise_sigma
        if sigma > 0:
            if i < n_edge or i >= cfg.n_slices - n_edge:
                sigma *= EDGE_NOISE_FACTOR
            canvas += sigma * rng_stream(cfg.seed, "noise", i).standard_normal(
                (cfg.height, cfg.width)
            )

    truth = PhantomTruth(
        case_id=case_id,
        lesions=tuple(lesions),
        label=any(les.malignant for les in lesions),
    )
    return Volume(data), truth


def project_dm(vol: Volume) -> ImageGrid:
    """Mean projection across slices, normalized. Stands in for a single
    projection view of the same anatomy: slice-local contrast is diluted
    by roughly slice_extent / n_slices."""
    return normalize_range(ImageGrid(vol.data.mean(axis=0)))


# ---------------------------------------------------------------------------
# Cohort sampling
# ---------------------------------------------------------------------------


def case_seed(master_seed: int, case_id: str) -> int:
    return mix_seed(master_seed, "case", case_id)


def sample_lesion(
    cfg: PhantomConfig,
    rng: np.random.Generator,
    contrast_range: tuple[float, float],
    radius_range: tuple[float, float] = (6.0, 11.0),
    extent_range: tuple[int, int] = (2, 5),
    malignant: bool = True,
) -> LesionSpec:
    """Draw one lesion placed safely inside the grid and the slice interior.

    The center slice lands in the middle 70% of the stack so the lesion
    peak always survives the 10% edge trim used downstream.
    """
    radius = rng.uniform(*radius_range)
    margin = radius + 2.0
    if 2 * margin >= min(cfg.width, cfg.height):
        raise ValueError("grid too small for the requested lesion radius")
    cx = rng.uniform(margin, cfg.width - margin)
    cy = rng.uniform(margin, cfg.height - margin)
    extent = int(rng.integers(extent_range[0], extent_range[1] + 1))
    lo = max(int(math.ceil(0.15 * cfg.n_slices)), (extent - 1) // 2)
    hi = min(
        int(math.floor(0.85 * cfg.n_slices)), cfg.n_slices - 1 - (extent - (extent - 1) // 2 - 1)
    )
    if hi < lo:
        raise ValueError("volume too shallow to place a lesion inside the interior band")
    center_slice = int(rng.integers(lo, hi + 1))
    return LesionSpec(
        center_x=cx,
        center_y=cy,
        radius=radius,
        center_slice=center_slice,
        slice_extent=extent,
        contrast=rng.uniform(*contrast_range),
        malignant=malignant,
    )


def generate_case(
    base_cfg: PhantomConfig,
    case_id: str,
    cancer: bool,
    contrast_range: tuple[float, float] = (60.0, 220.0),
    radius_range: tuple[float, float] = (6.0, 11.0),
    extent_range: tuple[int, int] = (2, 5),
) -> tuple[Volume, PhantomTruth]:
    """Generate one cohort case with a per-case derived seed.

    Cancer cases get a single malignant lesion with contrast drawn from
    contrast_range; negatives get none. The base seed is mixed with the
    case_id, so cohorts are order- and parallelism-independent.
    """
    cfg = replace(base_cfg, seed=case_seed(base_cfg.seed, case_id))
    lesions: list[LesionSpec] = []
    if cancer:
        rng = rng_stream(cfg.seed, "lesions")
        lesions.append(
            sample_lesion(cfg, rng, contrast_range, radius_range, extent_range)
        )
    return generate_volume(cfg, lesions, case_id=case_id)


# ---------------------------------------------------------------------------
# truth.json
# ---------------------------------------------------------------------------


def truth_to_dict(truth: PhantomTruth) -> dict:
    return {
        "case_id": truth.case_id,
        "label": truth.label,
        "tumor_size_mm": truth.tumor_size_mm,
        "mm_per_pixel": MM_PER_PIXEL,
        "lesions": [
            {
                "center_x": les.center_x,
                "center_y": les.center_y,
                "radius": les.radius,
                "center_slice": les.center_slice,
                "slice_extent": les.slice_extent,
                "contrast": les.contrast,
                "malignant": les.malignant,
                "size_mm": les.size_mm,
            }
            for les in truth.lesions
        ],
    }


# JSON types accepted for a LesionSpec field of each annotation; comparing
# type() keeps a bool from passing as a number.
_JSON_TYPES = {"float": (int, float), "int": (int,), "bool": (bool,)}


def truth_from_dict(data) -> PhantomTruth:
    """Inverse of truth_to_dict; a missing or mistyped field raises
    ValueError."""
    spec = [(f.name, _JSON_TYPES[f.type]) for f in fields(LesionSpec)]
    if not (
        isinstance(data, dict)
        and isinstance(data.get("case_id"), str)
        and isinstance(data.get("label"), bool)
        and isinstance(data.get("lesions"), list)
        and all(
            isinstance(item, dict)
            and all(type(item.get(name)) in kinds for name, kinds in spec)
            for item in data["lesions"]
        )
    ):
        raise ValueError(
            "truth needs a string case_id, a boolean label and a lesions list of objects "
            "with numbers center_x, center_y, radius and contrast, integers center_slice "
            "and slice_extent, and a boolean malignant"
        )
    lesions = tuple(LesionSpec(**{k: item[k] for k, _ in spec}) for item in data["lesions"])
    return PhantomTruth(case_id=data["case_id"], lesions=lesions, label=data["label"])


def write_truth(truth: PhantomTruth, path: str | Path) -> None:
    Path(path).write_text(json.dumps(truth_to_dict(truth), indent=2, sort_keys=True) + "\n")


def read_truth(path: str | Path) -> PhantomTruth:
    """Read a truth.json written by write_truth; a malformed file raises
    ValueError naming it."""
    data = read_json(path)
    try:
        return truth_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

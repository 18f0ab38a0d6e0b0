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

A volume is rendered one slice at a time into one reused float64 canvas,
once the common texture field exists, and each slice is quantized
(`imaging.quantize`, whose one caller this render is) into the case's
uint16 sample stack, so no float array of volume size exists. The
clipped-voxel count comes back with the case, never through shared state,
since cases render on worker threads. `write_truth` writes truth.json
through `imaging.write_json`; `phantom gen` writes the samples with
`imaging.write_volume`.

Texture is sparse-convolution noise (Lewis 1989; Lagae et al. 2010): white
noise on a coarse lattice, smoothed there by `imaging.gaussian_filter`, then
resampled to the grid. The lattice spacing is max(1, int(sigma / 3)) px and
the lattice reaches 3 sigma past every edge of the grid (`texture_lattice`),
so smoothing at sigma / spacing lattice steps gives the grid sigma px of
correlation, and the lattice's own `nearest` edges reach the grid only
through kernel taps beyond 3 sigma.
One cached linear-interpolation matrix per (axis length, sigma) takes the
lattice to the grid; each stage's first case builds it on the main thread.
Each field then has its mean removed and is scaled to unit sd, so a texture
scale near the grid side gives a zero-mean gradient, not a constant offset.
At the defaults (176 x 128, sigma 24) a field draws 41 x 35 normals, a
sixteenth of the grid's pixels, and both interpolation products stay under
about 10**6 multiply-adds, where OpenBLAS would start threads of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .condense import trimmed_slices
from .errors import reading
from .imaging import gaussian_filter, is_kind, quantize, read_json, write_json
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

# Stack-edge slices (those outside condense.trimmed_slices) get this noise
# boost, imitating how reconstruction quality collapses at the stack
# faces. Naive whole-stack scoring pays for it; edge-trimming does not.
EDGE_NOISE_FACTOR = 8.0

# generate_volume's terms sum to at most (COMMON_TEXTURE_RATIO + SLICE_TEXTURE_RATIO
# + EDGE_NOISE_FACTOR) * noise_sigma = 10.75 noise_sigma per unit sample. At this cap
# a canvas stays finite for samples below 8e6: normal draws stay below 13, and a texture
# field of mean 0 and sd 1 over at most 8e6 pixels is below sqrt(8e6) < 2900 in magnitude.
# Each slice is quantized to [0, 65535], so a
# large sigma clips there, and the clipped voxels are counted instead of bounding
# noise_sigma further.
NOISE_SIGMA_MAX = 1e300

# Cancer lesions: radius range (px) and slice persistence.
LESION_RADIUS_RANGE = (6.0, 11.0)
LESION_EXTENT_RANGE = (2, 5)

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
    xs = np.arange(x0, x1, dtype=np.float64) + 0.5
    ys = np.arange(y0, y1, dtype=np.float64) + 0.5
    d = np.hypot(xs[None, :] - cx, ys[:, None] - cy)
    mask = d < radius
    patch = canvas[y0:y1, x0:x1]
    patch[mask] += amp * (0.5 * (1.0 + np.cos(np.pi * d[mask] / radius)))


def texture_lattice(n: int, sigma: float) -> tuple[int, int, int]:
    """(points, spacing, first) of the texture lattice along an axis of n px
    at texture scale sigma: points nodes spaced `spacing` px apart, pixel 0
    on node `first`, with at least 3 sigma of nodes past either end."""
    spacing = max(1, int(sigma / 3.0))
    first = math.ceil(3.0 * sigma / spacing)
    return 2 * first + math.ceil((n - 1) / spacing) + 1, spacing, first


@functools.lru_cache(maxsize=32)
def lattice_interpolation(n: int, sigma: float) -> np.ndarray:
    """The read-only (points, n) matrix whose column i holds pixel i's
    linear-interpolation weights on the `texture_lattice(n, sigma)` nodes;
    built once per (n, sigma) and cached. Nodes run along the rows so that
    both texture products take contiguous or transposed-contiguous left
    operands: with a transposed (35, 128) view as its right operand, the
    second product ran about 100 times slower (numpy 2.4, OpenBLAS 0.3.31,
    one x86 core)."""
    points, spacing, first = texture_lattice(n, sigma)
    pixels = np.arange(n)
    node = first + pixels // spacing
    frac = (pixels % spacing) / spacing
    matrix = np.zeros((points, n))
    matrix[node, pixels] = 1.0 - frac
    matrix[node + 1, pixels] = frac
    matrix.flags.writeable = False
    return matrix


def _texture_field(cfg: PhantomConfig, *stream_keys) -> np.ndarray:
    """Zero-mean, unit-sd low-frequency field: white lattice noise from the
    stream, smoothed on the lattice and interpolated to the grid."""
    sigma = cfg.background_texture_scale
    rows = lattice_interpolation(cfg.height, sigma)
    cols = lattice_interpolation(cfg.width, sigma)
    spacing = texture_lattice(cfg.height, sigma)[1]
    rng = rng_stream(cfg.seed, *stream_keys)
    white = rng.standard_normal((rows.shape[0], cols.shape[0]))
    field = (rows.T @ gaussian_filter(white, sigma / spacing)) @ cols
    field -= field.mean()
    sd = field.std()
    if sd > 0:
        field /= sd
    return field


def clutter_blob_count(clutter_density: float, n_slices: int) -> int:
    """Distractor blobs planned per volume: clutter_density blobs per
    slice on average, each covering the mean extent of slices."""
    return int(round(clutter_density * n_slices / _CLUTTER_MEAN_EXTENT))


def _plan_clutter(cfg: PhantomConfig) -> dict[int, list[tuple[float, float, float, float]]]:
    """The distractor discs of a volume by slice, {slice: [(cx, cy, radius,
    amplitude)]}, each blob's jitter and slice weight already applied."""
    rng = rng_stream(cfg.seed, "clutter")
    discs: dict[int, list[tuple[float, float, float, float]]] = {}
    for _ in range(clutter_blob_count(cfg.clutter_density, cfg.n_slices)):
        radius = rng.uniform(*CLUTTER_RADIUS_RANGE)
        cx = rng.uniform(radius, cfg.width - radius)
        cy = rng.uniform(radius, cfg.height - radius)
        amp = rng.uniform(*CLUTTER_CONTRAST_RANGE)
        extent = int(rng.integers(CLUTTER_EXTENT_RANGE[0], CLUTTER_EXTENT_RANGE[1] + 1))
        center_slice = int(rng.integers(0, cfg.n_slices))
        first = center_slice - (extent - 1) // 2
        for s in range(first, first + extent):
            jx, jy = rng.normal(0.0, CLUTTER_JITTER_SIGMA, size=2)
            if 0 <= s < cfg.n_slices:
                weight = _slice_weight(s - center_slice, extent)
                discs.setdefault(s, []).append((cx + jx, cy + jy, radius, amp * weight))
    return discs


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
) -> tuple[np.ndarray, PhantomTruth, int]:
    """Render a phantom volume and its ground truth.

    Args:
        cfg: geometry, texture, clutter and noise parameters plus the seed.
        lesions: lesions to plant; validated against the grid bounds.
        case_id: identifier recorded in the returned PhantomTruth.

    Returns:
        (samples, truth, clipped): samples is a new writable uint16 array
        of shape (n_slices, height, width) that the caller owns, each
        slice rendered into one reused float64 canvas and quantized into
        it with `imaging.quantize`; clipped counts the voxels whose rounded
        value fell outside [0, 65535].
        Deterministic given (cfg, lesions): identical inputs give
        bit-identical volumes.

    Raises:
        ValueError: when a lesion does not fit inside the volume.
    """
    for les in lesions:
        _check_lesion_bounds(cfg, les)
    samples = np.empty((cfg.n_slices, cfg.height, cfg.width), dtype=np.uint16)
    canvas = np.empty((cfg.height, cfg.width))

    common_amp = COMMON_TEXTURE_RATIO * cfg.noise_sigma
    slice_amp = SLICE_TEXTURE_RATIO * cfg.noise_sigma
    common = common_amp * _texture_field(cfg, "texture-common") if common_amp > 0 else None
    kept = trimmed_slices(cfg.n_slices)
    discs = _plan_clutter(cfg)  # each slice's lesion discs follow its clutter
    for les in lesions:
        first, last = les.slice_span()
        for s in range(first, last + 1):
            amp = les.contrast * _slice_weight(s - les.center_slice, les.slice_extent)
            discs.setdefault(s, []).append((les.center_x, les.center_y, les.radius, amp))

    clipped = 0
    for i in range(cfg.n_slices):
        canvas.fill(BACKGROUND_LEVEL)
        if common is not None:
            canvas += common
        if slice_amp > 0:
            canvas += slice_amp * _texture_field(cfg, "texture-slice", i)
        for disc in discs.get(i, ()):
            _add_disc(canvas, *disc)
        sigma = cfg.noise_sigma
        if sigma > 0:
            if i not in kept:
                sigma *= EDGE_NOISE_FACTOR
            canvas += sigma * rng_stream(cfg.seed, "noise", i).standard_normal(
                (cfg.height, cfg.width)
            )
        clipped += quantize(canvas, samples[i])

    truth = PhantomTruth(
        case_id=case_id,
        lesions=tuple(lesions),
        label=any(les.malignant for les in lesions),
    )
    return samples, truth, clipped


# ---------------------------------------------------------------------------
# Cohort sampling
# ---------------------------------------------------------------------------


def case_seed(master_seed: int, case_id: str) -> int:
    return mix_seed(master_seed, "case", case_id)


def _center_slices(n_slices: int, extent: int) -> tuple[int, int]:
    """Inclusive (lo, hi) center slices of a lesion spanning `extent` slices
    that keep it inside the stack and its center in the middle 70%; empty
    when hi < lo."""
    lo = max(int(math.ceil(0.15 * n_slices)), (extent - 1) // 2)
    hi = min(int(math.floor(0.85 * n_slices)), n_slices - 1 - (extent - (extent - 1) // 2 - 1))
    return lo, hi


def _fits_every_extent(n_slices: int) -> bool:
    extents = range(LESION_EXTENT_RANGE[0], LESION_EXTENT_RANGE[1] + 1)
    return all(lo <= hi for lo, hi in (_center_slices(n_slices, e) for e in extents))


# The shallowest stack that fits a lesion of every extent sample_lesion can draw
# (5 slices); every deeper stack fits them too.
MIN_LESION_SLICES = next(n for n in itertools.count(1) if _fits_every_extent(n))


def sample_lesion(
    cfg: PhantomConfig,
    rng: np.random.Generator,
    contrast_range: tuple[float, float],
) -> LesionSpec:
    """Draw one malignant lesion placed safely inside the grid and the
    slice interior.

    The center slice lands in the middle 70% of the stack so the lesion
    peak always survives the 10% edge trim used downstream.
    """
    radius = rng.uniform(*LESION_RADIUS_RANGE)
    margin = radius + 2.0
    if 2 * margin >= min(cfg.width, cfg.height):
        raise ValueError("grid too small for the requested lesion radius")
    cx = rng.uniform(margin, cfg.width - margin)
    cy = rng.uniform(margin, cfg.height - margin)
    extent = int(rng.integers(LESION_EXTENT_RANGE[0], LESION_EXTENT_RANGE[1] + 1))
    lo, hi = _center_slices(cfg.n_slices, extent)
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
        malignant=True,
    )


def generate_case(
    base_cfg: PhantomConfig, case_id: str, cancer: bool, contrast_range: tuple[float, float]
) -> tuple[np.ndarray, PhantomTruth, int]:
    """Generate one cohort case with a per-case derived seed.

    Cancer cases get a single malignant lesion with contrast drawn from
    contrast_range; negatives get none. The base seed is mixed with the
    case_id, so cohorts are order- and parallelism-independent. Returns
    (samples, truth, clipped) as generate_volume does.
    """
    cfg = replace(base_cfg, seed=case_seed(base_cfg.seed, case_id))
    lesions: list[LesionSpec] = []
    if cancer:
        rng = rng_stream(cfg.seed, "lesions")
        lesions.append(sample_lesion(cfg, rng, contrast_range))
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
        "lesions": [{**asdict(les), "size_mm": les.size_mm} for les in truth.lesions],
    }


def truth_from_dict(data) -> PhantomTruth:
    """Inverse of truth_to_dict; a missing or mistyped field raises
    ValueError."""
    spec = [(f.name, f.type) for f in fields(LesionSpec)]
    if not (
        isinstance(data, dict)
        and is_kind(data.get("case_id"), "str")
        and is_kind(data.get("label"), "bool")
        and isinstance(data.get("lesions"), list)
        and all(
            isinstance(item, dict) and all(is_kind(item.get(k), kind) for k, kind in spec)
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


def write_truth(truth: PhantomTruth, path: str | Path, **extra) -> None:
    """Write truth.json; `extra` keys (phantom gen's clipped_voxels) sit beside
    the truth's, and truth_from_dict ignores them."""
    write_json({**truth_to_dict(truth), **extra}, path)


def read_truth(path: str | Path) -> PhantomTruth:
    """Read a truth.json written by write_truth; a missing, unreadable or
    malformed file raises ValueError naming it."""
    data = read_json(path)
    with reading(path):
        return truth_from_dict(data)

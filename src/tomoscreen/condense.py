"""Collapse a slice stack into a single 2D image built from its most
suspicious patches.

The procedure: score every slice in the trimmed range, pool the boxes,
run one x-y NMS over the pool, then paint each surviving box's pixel
rectangle from its source slice onto a center-slice canvas. Painting
goes in ascending score order, so wherever partially-overlapping boxes
survive NMS the higher-scoring patch ends up on top. Every output pixel
therefore comes verbatim from some slice of the input volume.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import ScoredBox, nms
from .imaging import ImageGrid, Volume, normalize_volume
from .scorer import ScorerHandle, mil_image_score

log = logging.getLogger(__name__)


def slice_range(n_slices: int) -> tuple[int, int]:
    """Inclusive slice index range after trimming 10% at each end.

    The trim count is floor(0.1 * n_slices); when trimming would leave
    nothing (cannot happen for n >= 1 with floor, but kept defensive)
    the full range is returned.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    skip = n_slices // 10
    first, last = skip, n_slices - 1 - skip
    if first > last:
        return 0, n_slices - 1
    return first, last


def choose_score_threshold(
    validation: list[tuple[float, bool]], target_sensitivity: float
) -> float:
    """Largest threshold keeping at least target_sensitivity of positives.

    validation holds (study max-box score, cancer label) pairs. With k =
    max(1, ceil(target * n_pos)), the answer is the k-th largest positive
    score: any higher threshold loses too many positives, any lower one
    is not maximal.
    """
    if not 0.0 <= target_sensitivity <= 1.0:
        raise ValueError(f"target_sensitivity {target_sensitivity} outside [0, 1]")
    positives = sorted((s for s, label in validation if label), reverse=True)
    if not positives:
        raise ValueError("threshold selection needs at least one positive case")
    k = max(1, math.ceil(target_sensitivity * len(positives)))
    return positives[k - 1]


def _slice_boxes(vol: Volume, scorer: ScorerHandle, first: int, last: int) -> list[ScoredBox]:
    """Boxes detected on slices first..last (inclusive), each tagged with
    its slice.

    The volume is normalized once with a single volume-level affine, so
    box scores are comparable across slices.
    """
    norm = normalize_volume(vol)
    return [
        box.with_slice(i) for i in range(first, last + 1) for box in scorer.detect(norm.slice(i))
    ]


def aggregate_boxes(
    vol: Volume,
    scorer: ScorerHandle,
    score_threshold: float,
    iou_threshold: float,
) -> list[ScoredBox]:
    """Detect on every slice in the trimmed range and NMS the pooled set.

    Each kept box carries the slice it came from; overlap comparison is
    purely in x-y, ignoring slice separation.
    """
    pooled = _slice_boxes(vol, scorer, *slice_range(vol.n_slices))
    return nms([b for b in pooled if b.score >= score_threshold], iou_threshold)


@dataclass(frozen=True)
class OptimizedImage:
    image: ImageGrid
    provenance: np.ndarray  # per-pixel source slice index
    kept_boxes: list[ScoredBox]
    clip_warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.provenance.shape != self.image.data.shape:
            raise ValueError(
                f"provenance shape {self.provenance.shape} != image {self.image.data.shape}"
            )


def _pixel_rect(box: ScoredBox, width: int, height: int) -> tuple[int, int, int, int, bool]:
    """Pixel rectangle [x0, x1) x [y0, y1) touched by a box, plus a clip flag."""
    x0 = int(math.floor(box.x_min))
    y0 = int(math.floor(box.y_min))
    x1 = int(math.ceil(box.x_max))
    y1 = int(math.ceil(box.y_max))
    clipped = x0 < 0 or y0 < 0 or x1 > width or y1 > height
    return max(0, x0), max(0, y0), min(width, x1), min(height, y1), clipped


def build_optimized_image(vol: Volume, boxes: list[ScoredBox]) -> OptimizedImage:
    """Paint box patches from their source slices over a center-slice canvas.

    Empty pixels keep the center slice (index floor(n/2)). Boxes are
    painted in ascending score order; ties fall back to input order.
    Boxes reaching past the grid are clipped and the event recorded.
    """
    center = vol.n_slices // 2
    canvas = vol.data[center].copy()
    h, w = canvas.shape
    provenance = np.full((h, w), center, dtype=np.int32)
    warnings: list[str] = []

    for box in sorted(boxes, key=lambda b: b.score):
        if box.slice_index is None:
            raise ValueError(f"box {box} carries no slice_index")
        if not 0 <= box.slice_index < vol.n_slices:
            raise ValueError(
                f"box slice_index {box.slice_index} outside volume of {vol.n_slices}"
            )
        x0, y0, x1, y1, clipped = _pixel_rect(box, w, h)
        if clipped:
            msg = (
                f"box ({box.x_min}, {box.y_min}, {box.x_max}, {box.y_max}) "
                f"clipped to {w}x{h} grid"
            )
            warnings.append(msg)
            log.warning(msg)
        if x0 >= x1 or y0 >= y1:
            continue
        canvas[y0:y1, x0:x1] = vol.data[box.slice_index, y0:y1, x0:x1]
        provenance[y0:y1, x0:x1] = box.slice_index

    return OptimizedImage(
        image=ImageGrid(canvas),
        provenance=provenance,
        kept_boxes=list(boxes),
        clip_warnings=tuple(warnings),
    )


def condense_volume(
    vol: Volume,
    scorer: ScorerHandle,
    score_threshold: float,
    iou_threshold: float = 0.2,
) -> OptimizedImage:
    """aggregate_boxes followed by build_optimized_image."""
    kept = aggregate_boxes(vol, scorer, score_threshold, iou_threshold)
    return build_optimized_image(vol, kept)


def study_max_box_score(vol: Volume, scorer: ScorerHandle) -> float:
    """Best box score the condensation step would see for this volume.

    Detection runs over the trimmed slice range with the volume-level
    affine, exactly as aggregate_boxes does, but with no threshold and no
    suppression (neither changes the maximum). Feeds threshold selection:
    pairs of (this score, cancer label) over a validation cohort go into
    choose_score_threshold. Returns 0.0 when nothing fires.
    """
    return mil_image_score(_slice_boxes(vol, scorer, *slice_range(vol.n_slices)))


def slice_max_score(vol: Volume, scorer: ScorerHandle) -> float:
    """Naive no-condensation baseline: max box score over ALL slices.

    No edge trim and no cross-slice suppression; this is what scoring a
    stack slice-by-slice and taking the best slice would report.
    """
    return mil_image_score(_slice_boxes(vol, scorer, 0, vol.n_slices - 1))

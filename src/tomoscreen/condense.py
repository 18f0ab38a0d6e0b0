"""Collapse a slice stack into a single 2D image built from its most
suspicious patches.

The procedure: fix the volume's one normalizing affine, detect on every
slice in the trimmed range, pool the boxes, run one x-y NMS over the
pool, then paint each surviving box's pixel rectangle from its source
slice onto a center-slice canvas. Slices and patches are normalized from
the 16-bit samples as they are read, so no normalized stack is ever
built. Painting goes in ascending score order, so wherever
partially-overlapping boxes survive NMS the higher-scoring patch ends up
on top. Every output pixel therefore comes verbatim from some slice of
the normalized volume: that composite is what gets scored, and the
samples at the same provenance (`np.take_along_axis`) give the composite
on the raw intensity scale.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .boxes import ScoredBox, nms
from .imaging import ImageGrid, Volume
from .scorer import BlobScorer, mil_image_score


def trimmed_slices(n_slices: int) -> range:
    """Slice indices left after trimming floor(0.1 * n_slices) at each end;
    never empty for n_slices >= 1."""
    skip = n_slices // 10
    return range(skip, n_slices - skip)


def choose_score_threshold(scores: Iterable[float], target_sensitivity: float) -> float:
    """Largest threshold keeping at least target_sensitivity of positives.

    scores are the study max-box scores of a cancer-only validation
    cohort. With k = max(1, ceil(target * n)), the answer is the k-th
    largest score: any higher threshold loses too many positives, any
    lower one is not maximal.
    """
    if not 0.0 <= target_sensitivity <= 1.0:
        raise ValueError(f"target_sensitivity {target_sensitivity} outside [0, 1]")
    positives = sorted(scores, reverse=True)
    if not positives:
        raise ValueError("threshold selection needs at least one positive case")
    k = max(1, math.ceil(target_sensitivity * len(positives)))
    return positives[k - 1]


def detect_slices(norm: Volume, scorer: BlobScorer, slices: Iterable[int]) -> list[ScoredBox]:
    """Boxes detected on the given slices of a volume, each normalized as
    it is read and tagged with its slice.

    `norm` comes from normalize_volume: one volume-level affine keeps box
    scores comparable across slices.
    """
    return [box.with_slice(i) for i in slices for box in scorer.detect(norm.slice(i))]


def aggregate_boxes(
    boxes: list[ScoredBox], score_threshold: float, iou_threshold: float
) -> list[ScoredBox]:
    """Drop boxes scoring below the threshold and NMS the pooled rest.

    Each kept box keeps the slice it came from; overlap comparison is
    purely in x-y, ignoring slice separation.
    """
    return nms([b for b in boxes if b.score >= score_threshold], iou_threshold)


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
    """Paint normalized box patches from their source slices over the
    normalized center slice.

    Empty pixels keep the center slice (index floor(n/2)). Boxes are
    painted in ascending score order; ties fall back to input order.
    Boxes reaching past the grid are clipped and the event recorded.
    """
    center = vol.n_slices // 2
    canvas = vol.patch(center)
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
            warnings.append(
                f"box ({box.x_min}, {box.y_min}, {box.x_max}, {box.y_max}) "
                f"clipped to {w}x{h} grid"
            )
        if x0 >= x1 or y0 >= y1:
            continue
        canvas[y0:y1, x0:x1] = vol.patch(box.slice_index, slice(y0, y1), slice(x0, x1))
        provenance[y0:y1, x0:x1] = box.slice_index

    return OptimizedImage(
        image=ImageGrid(canvas),
        provenance=provenance,
        kept_boxes=list(boxes),
        clip_warnings=tuple(warnings),
    )


def study_max_box_score(norm: Volume, scorer: BlobScorer) -> float:
    """Best box score the condensation step would see for this volume.

    Detection runs over the trimmed slice range, exactly as condensation
    does, but with no threshold and no suppression (neither changes the
    maximum). Feeds threshold selection: this score over a cancer-only
    validation cohort goes into choose_score_threshold.
    Returns 0.0 when nothing fires.
    """
    return mil_image_score(detect_slices(norm, scorer, trimmed_slices(norm.n_slices)))

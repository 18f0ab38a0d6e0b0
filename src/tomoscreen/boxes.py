"""Scored boxes and greedy non-maximum suppression by IOU.

Boxes use continuous corner coordinates (x_min, y_min, x_max, y_max) with
areas computed as (x_max - x_min) * (y_max - y_min). NMS suppresses on
strict inequality (iou > threshold), so boxes at exactly the threshold
survive, and score ties are broken by input order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .imaging import write_csv

CSV_FIELDS = ("x_min", "y_min", "x_max", "y_max", "score", "slice_index")
_NMS_BLOCK = 256


@dataclass(frozen=True)
class ScoredBox:
    """Axis-aligned box with a classification score in [0, 1]."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    score: float
    slice_index: int | None = None

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")
        if self.slice_index is not None and self.slice_index < 0:
            raise ValueError(f"negative slice_index {self.slice_index}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def with_slice(self, slice_index: int) -> "ScoredBox":
        return replace(self, slice_index=slice_index)


def nms(boxes: list[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Greedy non-maximum suppression.

    Repeatedly keeps the highest-scoring remaining box and discards every
    box with iou > iou_threshold against it. Ties are broken by lower
    input index. Returns kept boxes sorted by descending score.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold {iou_threshold} outside [0, 1]")
    if not boxes:
        return []

    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    x0 = np.array([b.x_min for b in boxes])
    y0 = np.array([b.y_min for b in boxes])
    x1 = np.array([b.x_max for b in boxes])
    y1 = np.array([b.y_max for b in boxes])
    areas = (x1 - x0) * (y1 - y0)

    alive = np.ones(len(boxes), dtype=bool)
    kept: list[int] = []
    # one numpy pass gives the IOU rows of a block of boxes in visiting
    # order (at most _NMS_BLOCK x n floats); the greedy walk only reads them
    for start in range(0, len(order), _NMS_BLOCK):
        block = order[start:start + _NMS_BLOCK]
        b = np.array(block)[:, None]
        iw = np.minimum(x1[b], x1) - np.maximum(x0[b], x0)
        ih = np.minimum(y1[b], y1) - np.maximum(y0[b], y0)
        inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
        suppress = inter / (areas[b] + areas - inter) > iou_threshold
        for idx, row in zip(block, suppress):
            if alive[idx]:
                kept.append(idx)
                alive[row] = False
    return [boxes[i] for i in kept]


# ---------------------------------------------------------------------------
# CSV wire format: x_min,y_min,x_max,y_max,score,slice_index
# ---------------------------------------------------------------------------


def write_boxes_csv(boxes: list[ScoredBox], path: str | Path) -> None:
    rows = (
        [*map(repr, (b.x_min, b.y_min, b.x_max, b.y_max, b.score)), b.slice_index]
        for b in boxes
    )
    write_csv(path, CSV_FIELDS, rows)

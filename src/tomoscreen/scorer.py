"""Blob scoring and the aggregation rules from boxes up to studies.

The reference scorer is deliberately classical: a difference of two
Gaussian smoothings as the blob response, local maxima above a floor,
one fixed box size per scorer. Only the pixels that clear the floor are
tested as peaks, each against its own window's maximum. Image-level
suspicion is the maximum box score; an ensemble averages several
scorers; breast scores average views and a study takes the worse
(higher) breast.

Each smoothing is `imaging.gaussian_filter`: scipy's `nearest`-mode
Gaussian applied as two cached folded operators, one per (axis length,
sigma). It agrees with scipy's filter to rounding, at under a third of
its cost on a 176 x 128 slice, and the fold makes each response exactly
equivariant under column reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import ScoredBox
from .imaging import ImageGrid, gaussian_filter

BOX_SIZE_FACTOR = 2.5  # box side = factor * radius prior, single scale


def _sigmoid(z: np.ndarray | float):
    # exp(-logaddexp(0, -z)) never overflows
    return np.exp(-np.logaddexp(0.0, -z))


def _peaks(resp: np.ndarray, win: int, floor: float, margin: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns, in row-major order, of the pixels of `resp` above
    `floor` and at least `margin` from every edge (any pixel when
    2 margin >= the shorter side) that equal the maximum of their odd
    win x win window, clipped to the image: the peaks that scipy.ndimage's
    -inf-padded maximum filter keeps, bit for bit, since a maximum is
    exact.

    Only the candidates' windows are read: each row of a -inf-padded copy
    takes its running maximum over win columns, by doubling, and each
    candidate gathers the win row maxima of its column.
    """
    h, w = resp.shape
    m = margin if 2 * margin < min(h, w) else 0
    rows, cols = np.nonzero(resp[m : h - m, m : w - m] > floor)
    rows += m
    cols += m
    r = win // 2
    ext = np.full((h + 2 * r, w + 2 * r), -np.inf)
    ext[r : r + h, r : r + w] = resp
    span = 1
    while 2 * span <= win:  # after each pass an entry covers twice as many columns
        ext = np.maximum(ext[:, :-span], ext[:, span:])
        span *= 2
    ext = np.maximum(ext[:, : ext.shape[1] - (win - span)], ext[:, win - span :])
    window_max = ext[rows[:, None] + np.arange(win), cols[:, None]].max(axis=1)
    keep = resp[rows, cols] == window_max
    return rows[keep], cols[keep]


@dataclass(frozen=True)
class BlobScorer:
    """Difference-of-smoothings blob detector with logistic scoring.

    radius_prior: expected blob radius in pixels; sets both the smoothing
        scales and the (fixed) output box size.
    response_floor: strictly-below responses produce no box.
    response_scale: logistic temperature mapping response to (0, 1);
        keep it large enough that scores stay off exact 1.0, otherwise
        ranking across slices degenerates into ties.
    """

    radius_prior: float
    response_floor: float
    response_scale: float

    def __post_init__(self):
        if not self.radius_prior > 0:
            raise ValueError("radius_prior must be positive")
        if not self.response_scale > 0:
            raise ValueError("response_scale must be positive")

    @property
    def sigmas(self) -> tuple[float, float]:
        """The fine and the coarse smoothing scale."""
        inner = self.radius_prior / math.sqrt(2.0)
        return inner, 1.6 * inner

    def response(self, img: ImageGrid) -> np.ndarray:
        """Bright-blob response map (difference of smoothings)."""
        fine, coarse = self.sigmas
        response = gaussian_filter(img.data, fine)
        response -= gaussian_filter(img.data, coarse)
        return response

    @property
    def border_margin(self) -> int:
        """Maxima closer than this to an image edge are ignored; smoothing
        with replicated borders manufactures spurious peaks there."""
        return max(2, int(round(0.75 * self.radius_prior)))

    def detect(self, img: ImageGrid) -> list[ScoredBox]:
        resp = self.response(img)
        win = max(3, 2 * int(round(self.radius_prior / 2.0)) + 1)
        rows, cols = _peaks(resp, win, self.response_floor, self.border_margin)
        half = 0.5 * BOX_SIZE_FACTOR * self.radius_prior
        h, w = img.data.shape
        out = []
        for r, c in zip(rows.tolist(), cols.tolist()):
            # inside the image and half > 0: only a half below an ulp of cx makes
            # an empty box, which ScoredBox rejects
            cx, cy = c + 0.5, r + 0.5
            x0, x1 = max(0.0, cx - half), min(float(w), cx + half)
            y0, y1 = max(0.0, cy - half), min(float(h), cy + half)
            score = float(_sigmoid(resp[r, c] / self.response_scale))
            out.append(ScoredBox(x0, y0, x1, y1, score))
        return out


# Radius priors bracketing the lesion sizes the phantoms plant; shared
# floor and temperature so scores from the three scorers are comparable.
DEFAULT_RADIUS_PRIORS = (6.0, 8.0, 10.5)
DEFAULT_RESPONSE_FLOOR = 1.0
DEFAULT_RESPONSE_SCALE = 6.0


def default_ensemble() -> list[BlobScorer]:
    return [
        BlobScorer(
            radius_prior=r,
            response_floor=DEFAULT_RESPONSE_FLOOR,
            response_scale=DEFAULT_RESPONSE_SCALE,
        )
        for r in DEFAULT_RADIUS_PRIORS
    ]


def default_condense_scorer() -> BlobScorer:
    """Detector used for condensation: the largest ensemble prior.

    Its boxes (2.5x the prior) are the patches that get painted, so the
    prior must be generous enough that a whole lesion fits inside one
    box; cropping a lesion at a patch boundary costs response when the
    composite is re-scored. It is the ensemble's last scorer.
    """
    return default_ensemble()[-1]


def mil_image_score(boxes: list[ScoredBox]) -> float:
    """Image suspicion = max box score; no boxes means 0.0 by convention."""
    if not boxes:
        return 0.0
    return max(b.score for b in boxes)


def ensemble_image_score(boxes_per_scorer: list[list[ScoredBox]]) -> float:
    """Mean of max-box scores over the scorers, given each scorer's boxes on
    one image (`[s.detect(img) for s in scorers]`), which a caller may reuse.

    There is no mirrored second pass: BlobScorer's symmetric kernels make
    its detections on a column-reversed image the mirror of those on the
    image, with equal scores, so a flip would only repeat each term.
    """
    if not boxes_per_scorer:
        raise ValueError("ensemble needs at least one scorer")
    return math.fsum(mil_image_score(b) for b in boxes_per_scorer) / len(boxes_per_scorer)


@dataclass(frozen=True)
class ViewScore:
    case_id: str
    breast: str  # "left" or "right"
    view_label: str  # e.g. "cc" or "mlo"
    score: float

    def __post_init__(self):
        if self.breast not in ("left", "right"):
            raise ValueError(f"breast must be 'left' or 'right', got {self.breast!r}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"view score {self.score} outside [0, 1]")


def breast_score(views: list[ViewScore]) -> float:
    """Average the view scores of one breast."""
    if not views:
        raise ValueError("breast_score needs at least one view")
    sides = {v.breast for v in views}
    if len(sides) != 1:
        raise ValueError(f"views span multiple breasts: {sorted(sides)}")
    return math.fsum(v.score for v in views) / len(views)


def study_score(breasts: list[float]) -> float:
    """Study suspicion is the more suspicious breast."""
    if not 1 <= len(breasts) <= 2:
        raise ValueError(f"expected 1 or 2 breast scores, got {len(breasts)}")
    for s in breasts:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"breast score {s} outside [0, 1]")
    return max(breasts)

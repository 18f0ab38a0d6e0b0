"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tomoscreen import imaging, phantom
from tomoscreen.boxes import ScoredBox
from tomoscreen.imaging import FoldedOperator, ImageGrid, Volume
from tomoscreen.stats import auc_block

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def make_volume(arrays) -> Volume:
    """Volume from a list of equally shaped 2D arrays (or a 3D array) of
    16-bit sample values."""
    values = np.asarray(arrays, dtype=np.float64)
    samples = values.astype(np.uint16)
    assert np.array_equal(samples, values), "make_volume takes integers in [0, 65535]"
    return Volume(samples)


def quantized(data) -> np.ndarray:
    """Float `data` as new uint16 samples, through `imaging.quantize`."""
    out = np.empty(np.shape(data), np.uint16)
    imaging.quantize(np.asarray(data, dtype=np.float64), out)
    return out


def normalized_stack(vol: Volume) -> np.ndarray:
    """The whole volume normalized at once, the oracle for its slices and
    patches: `_affine` of every sample cast to float64."""
    data = vol.samples.astype(np.float64)
    return imaging._affine(data, data.min(), data.max())


def fold_operator(matrix: np.ndarray) -> FoldedOperator:
    """The fold oracle: the folded form of a centrosymmetric operator of n
    columns, read from its first k = ceil(n / 2) rows. With `near` those
    rows' first k columns and `far` their mirror columns, the even half is
    (near + far) / 2 and the odd half (near - far) / 2; for odd n the middle
    column counts once in the even half and the odd half's middle row is
    zero."""
    n = matrix.shape[1]
    k = n - n // 2
    near, far = matrix[:k, :k], matrix[:k, ::-1][:, :k]
    even, odd = (near + far) * 0.5, (near - far) * 0.5
    if n % 2:
        even[:, -1] = matrix[:k, k - 1] * 0.5
        odd[-1] = 0.0
    even.flags.writeable = False
    odd.flags.writeable = False
    return FoldedOperator(even, odd, n)


def auc(scores, labels) -> float:
    """The Mann-Whitney AUC of `scores` against `labels`: `auc_block` on the
    identity row, which must hold both classes."""
    values, defined = auc_block(scores, labels)(np.arange(len(labels))[None, :])
    assert defined[0], "AUC needs both classes"
    return float(values[0])


def constant_slice_volume(n_slices: int, height: int = 40, width: int = 40) -> Volume:
    """Volume whose slice i is constant i everywhere; provenance assertions
    reduce to reading pixel values."""
    return make_volume([np.full((height, width), float(i)) for i in range(n_slices)])


def recall_tally(cases, readers) -> tuple[float, float]:
    """(sensitivity, specificity) of a reader panel tallied case by case
    from the BIRADS columns: a case is recalled iff its readers' mean
    grade is at least 3."""
    recalled = {True: 0, False: 0}
    totals = {True: 0, False: 0}
    for case in cases:
        grades = [case.reader_birads[r] for r in readers]
        totals[case.label] += 1
        recalled[case.label] += sum(grades) / len(grades) >= 3
    return recalled[True] / totals[True], (totals[False] - recalled[False]) / totals[False]


class LookupScorer:
    """detect() keyed by the slice's constant value.

    Built for constant_slice_volume after volume-level normalization: slice
    i maps to a distinct constant, inverted back to i here. Boxes listed
    for slice i come back verbatim.
    """

    def __init__(self, n_slices: int, boxes_by_slice: dict[int, list[ScoredBox]]):
        self.n_slices = n_slices
        self.boxes_by_slice = boxes_by_slice

    def detect(self, img: ImageGrid) -> list[ScoredBox]:
        v = float(img.data[0, 0])
        if self.n_slices == 1:
            i = 0
        else:
            i = int(round((v + 127.5) / 255.0 * (self.n_slices - 1)))
        return list(self.boxes_by_slice.get(i, []))


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def _record_builds(monkeypatch, owner, name):
    """Replace `owner.name`, a cached (n, sigma) builder, with a fresh cache
    over it, and return the list of its uncached builds as (n, sigma, ran
    on the main thread)."""
    builds = []
    build = getattr(owner, name).__wrapped__

    def recording(n, sigma):
        builds.append((n, sigma, threading.current_thread() is threading.main_thread()))
        return build(n, sigma)

    monkeypatch.setattr(owner, name, functools.lru_cache(maxsize=32)(recording))
    return builds


@pytest.fixture
def operator_builds(monkeypatch):
    """Every uncached Gaussian operator build, replacing
    `imaging.gaussian_operator` where it is called."""
    return _record_builds(monkeypatch, imaging, "gaussian_operator")


@pytest.fixture
def lattice_builds(monkeypatch):
    """Every uncached texture interpolation build, replacing
    `phantom.lattice_interpolation` where it is called."""
    return _record_builds(monkeypatch, phantom, "lattice_interpolation")

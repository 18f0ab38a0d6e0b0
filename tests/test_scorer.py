"""Blob detection and the box -> image -> breast -> study score chain."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from tomoscreen import imaging
from tomoscreen.boxes import ScoredBox
from tomoscreen.condense import _pixel_rect
from tomoscreen.imaging import ImageGrid, normalize_range, normalize_volume
from tomoscreen.phantom import LesionSpec, PhantomConfig, generate_case, generate_volume
from tomoscreen.scorer import (
    BOX_SIZE_FACTOR,
    DEFAULT_RADIUS_PRIORS,
    BlobScorer,
    ViewScore,
    breast_score,
    default_condense_scorer,
    default_ensemble,
    ensemble_image_score,
    mil_image_score,
    study_score,
)


def lesion_slice(contrast=150.0, width=96, height=96, cx=48.5, cy=48.5, radius=8.0):
    """Normalized single-lesion noiseless slice plus the lesion spec."""
    cfg = PhantomConfig(
        width=width,
        height=height,
        n_slices=1,
        background_texture_scale=24.0,
        clutter_density=0.0,
        noise_sigma=0.0,
        seed=0,
    )
    les = LesionSpec(
        center_x=cx,
        center_y=cy,
        radius=radius,
        center_slice=0,
        slice_extent=1,
        contrast=contrast,
        malignant=True,
    )
    vol, _, _ = generate_volume(cfg, [les])
    return normalize_range(vol[0]), les


class StubScorer:
    """Returns one box with a fixed score and records every image it sees."""

    def __init__(self, score: float):
        self.score = score
        self.seen: list[ImageGrid] = []

    def detect(self, img: ImageGrid) -> list[ScoredBox]:
        self.seen.append(img)
        return [ScoredBox(0.0, 0.0, 1.0, 1.0, self.score)]


def probe_image() -> ImageGrid:
    data = np.zeros((4, 6))
    data[0, 0] = 1.0
    return ImageGrid(data)


def mirrored(img: ImageGrid) -> ImageGrid:
    return ImageGrid(img.data[:, ::-1])


def mirror_box(box: ScoredBox, width: int) -> tuple[float, ...]:
    return (width - box.x_max, box.y_min, width - box.x_min, box.y_max, box.score)


def as_tuples(boxes: list[ScoredBox]) -> list[tuple[float, ...]]:
    return sorted((b.x_min, b.y_min, b.x_max, b.y_max, b.score) for b in boxes)


def assert_mirror_equivariant(scorer: BlobScorer, img: ImageGrid) -> None:
    """Response and boxes on the column-reversed image are the exact
    mirror of those on the image, scores included, bit for bit."""
    flipped = mirrored(img)
    direct = scorer.response(img)
    assert scorer.response(flipped).tobytes() == direct[:, ::-1].tobytes()
    w = img.data.shape[1]
    expected = sorted(mirror_box(b, w) for b in scorer.detect(img))
    assert as_tuples(scorer.detect(flipped)) == expected


def phantom_slices() -> list[ImageGrid]:
    """Normalized slices of noisy, cluttered cohort cases, with and
    without a lesion."""
    cfg = PhantomConfig(
        width=96,
        height=128,
        n_slices=6,
        background_texture_scale=24.0,
        clutter_density=1.0,
        noise_sigma=18.0,
        seed=11,
    )
    slices = []
    for k in range(2):
        vol, _, _ = generate_case(cfg, f"mirror-{k}", k % 2 == 0, (60.0, 220.0))
        norm = normalize_volume(vol)
        slices += [norm.slice(i) for i in range(norm.n_slices)]
    return slices


odd_width_images = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(9, 40), st.integers(4, 20).map(lambda k: 2 * k + 1)),
    elements=st.floats(-127.5, 127.5, allow_nan=False, allow_infinity=False),
)


any_shape_images = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    elements=st.floats(-127.5, 127.5, allow_nan=False, allow_infinity=False),
)


def scipy_dog(scorer: BlobScorer, img: ImageGrid) -> np.ndarray:
    """The response as two scipy nearest-mode filters; the oracle."""
    inner = scorer.radius_prior / math.sqrt(2.0)
    fine = ndimage.gaussian_filter(img.data, sigma=inner, mode="nearest")
    return fine - ndimage.gaussian_filter(img.data, sigma=1.6 * inner, mode="nearest")


class TestFoldedResponse:
    """The DoG from cached folded operators against scipy's filters."""

    def test_matches_scipy_on_phantom_slices(self):
        for img in phantom_slices():
            for scorer in default_ensemble():
                assert np.abs(scorer.response(img) - scipy_dog(scorer, img)).max() <= 1e-12

    def test_matches_scipy_on_a_default_grid_slice(self):
        img, _ = lesion_slice(width=128, height=176, cx=60.5, cy=90.5)
        for scorer in default_ensemble():
            assert np.abs(scorer.response(img) - scipy_dog(scorer, img)).max() <= 1e-12

    @given(any_shape_images)
    def test_matches_scipy_on_any_shape(self, data):
        # odd and even sides, 1-px axes, and grids narrower than the kernels
        img = ImageGrid(data)
        for scorer in default_ensemble():
            assert np.abs(scorer.response(img) - scipy_dog(scorer, img)).max() <= 1e-12

    def test_operators_are_read_only_and_built_once_per_axis_and_sigma(self, operator_builds):
        slices = phantom_slices()
        operator_builds.clear()  # the texture's
        for img in slices:
            ensemble_image_score([s.detect(img) for s in default_ensemble()])
        # 3 scorers x (fine, coarse) x (height, width), each built once
        assert len(operator_builds) == len(set(operator_builds)) == 12
        h, w = slices[0].data.shape
        for scorer in default_ensemble():
            for sigma in scorer.sigmas:
                for n in (h, w):
                    assert (n, sigma, True) in operator_builds
                    op = imaging.gaussian_operator(n, sigma)
                    assert op.n == n
                    assert not op.even.flags.writeable and not op.odd.flags.writeable
        assert len(operator_builds) == 12

    def test_threaded_detection_equals_serial(self):
        slices = phantom_slices()
        scorers = default_ensemble()
        jobs = [(s, img) for img in slices for s in scorers]
        imaging.gaussian_operator.cache_clear()

        def run(job):
            s, img = job
            return s.response(img).tobytes(), as_tuples(s.detect(img))

        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(run, jobs))
        assert threaded == [run(job) for job in jobs]


class TestBlobScorer:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BlobScorer(radius_prior=0.0, response_floor=1.0, response_scale=6.0)
        with pytest.raises(ValueError):
            BlobScorer(radius_prior=8.0, response_floor=1.0, response_scale=0.0)

    def test_flat_image_yields_nothing(self):
        scorer = BlobScorer(radius_prior=8.0, response_floor=1.0, response_scale=6.0)
        assert scorer.detect(ImageGrid(np.zeros((64, 64)))) == []

    def test_single_lesion_gives_one_box_at_the_lesion(self):
        img, les = lesion_slice()
        scorer = BlobScorer(radius_prior=8.0, response_floor=1.0, response_scale=6.0)
        boxes = scorer.detect(img)
        assert len(boxes) == 1
        box = boxes[0]
        bx = 0.5 * (box.x_min + box.x_max)
        by = 0.5 * (box.y_min + box.y_max)
        assert math.hypot(bx - les.center_x, by - les.center_y) <= les.radius
        assert 0.0 < box.score < 1.0

    def test_box_side_is_factor_times_prior(self):
        img, _ = lesion_slice()
        scorer = BlobScorer(radius_prior=8.0, response_floor=1.0, response_scale=6.0)
        box = scorer.detect(img)[0]
        side = BOX_SIZE_FACTOR * 8.0
        assert box.x_max - box.x_min == pytest.approx(side)
        assert box.y_max - box.y_min == pytest.approx(side)

    def test_hflip_equivariance(self):
        img, _ = lesion_slice(cx=30.5, cy=60.5)
        scorer = BlobScorer(radius_prior=8.0, response_floor=1.0, response_scale=6.0)
        direct = scorer.detect(img)
        flipped = scorer.detect(mirrored(img))
        assert len(direct) == len(flipped) == 1
        d, m = direct[0], flipped[0]
        w = img.data.shape[1]
        assert m.x_min == pytest.approx(w - d.x_max, abs=1.0)
        assert m.x_max == pytest.approx(w - d.x_min, abs=1.0)
        assert m.y_min == pytest.approx(d.y_min, abs=1.0)
        assert m.score == pytest.approx(d.score, abs=1e-12)

    def test_border_peak_is_ignored(self):
        # a bright spike in the far corner produces a smoothing artifact
        # peak inside the apron band, which must not become a box
        data = np.zeros((64, 64))
        data[0, 0] = 1000.0
        scorer = BlobScorer(radius_prior=8.0, response_floor=1.0, response_scale=6.0)
        boxes = scorer.detect(ImageGrid(data))
        m = scorer.border_margin
        for b in boxes:
            cx = 0.5 * (b.x_min + b.x_max)
            cy = 0.5 * (b.y_min + b.y_max)
            assert m <= cx <= 64 - m and m <= cy <= 64 - m

    def test_border_margin_formula(self):
        assert BlobScorer(8.0, 1.0, 6.0).border_margin == 6
        assert BlobScorer(10.5, 1.0, 6.0).border_margin == 8
        assert BlobScorer(1.0, 1.0, 6.0).border_margin == 2

    def test_higher_contrast_scores_higher(self):
        scorer = BlobScorer(radius_prior=8.0, response_floor=1.0, response_scale=6.0)
        faint, _ = lesion_slice(contrast=60.0)
        strong, _ = lesion_slice(contrast=220.0)
        # same geometry so normalization spans differ but the blob stands
        # out more against the flat background at higher contrast
        s_faint = mil_image_score(scorer.detect(faint))
        s_strong = mil_image_score(scorer.detect(strong))
        assert 0.0 < s_faint <= s_strong < 1.0

    def test_scores_bounded_by_logistic(self):
        img, _ = lesion_slice(contrast=220.0)
        for scorer in default_ensemble():
            for b in scorer.detect(img):
                assert 0.5 < b.score < 1.0  # response above floor > 0


    @given(any_shape_images, st.floats(0.5, 30.0), st.floats(-5.0, 5.0))
    def test_every_box_lies_inside_its_image(self, data, prior, floor):
        # so condensation never clips a detected box: clip_warnings stays empty
        scorer = BlobScorer(radius_prior=prior, response_floor=floor, response_scale=6.0)
        h, w = data.shape
        for box in scorer.detect(ImageGrid(data)):
            assert 0.0 <= box.x_min < box.x_max <= w
            assert 0.0 <= box.y_min < box.y_max <= h
            assert not _pixel_rect(box, w, h)[4]


class TestDefaults:
    def test_ensemble_uses_all_priors(self):
        assert tuple(s.radius_prior for s in default_ensemble()) == DEFAULT_RADIUS_PRIORS

    def test_condense_scorer_is_largest_prior(self):
        # report's center-slice score reuses the condense scorer's slice
        # boxes as the last ensemble term, so the two must be equal
        assert default_condense_scorer() == default_ensemble()[-1]
        assert default_condense_scorer().radius_prior == DEFAULT_RADIUS_PRIORS[-1]

    def test_shared_floor_and_scale(self):
        scorers = default_ensemble()
        assert len({s.response_floor for s in scorers}) == 1
        assert len({s.response_scale for s in scorers}) == 1


class TestMilImageScore:
    def test_empty_is_zero(self):
        assert mil_image_score([]) == 0.0

    def test_max_of_scores(self):
        boxes = [
            ScoredBox(0, 0, 1, 1, 0.2),
            ScoredBox(5, 5, 6, 6, 0.7),
            ScoredBox(2, 2, 3, 3, 0.4),
        ]
        assert mil_image_score(boxes) == 0.7

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    def test_matches_linear_scan(self, scores):
        boxes = [ScoredBox(i, i, i + 1, i + 1, s) for i, s in enumerate(scores)]
        best = scores[0]
        for s in scores[1:]:
            if s > best:
                best = s
        assert mil_image_score(boxes) == best

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_adding_a_box_never_lowers_the_score(self, scores, extra):
        boxes = [ScoredBox(i, i, i + 1, i + 1, s) for i, s in enumerate(scores)]
        more = boxes + [ScoredBox(99, 99, 100, 100, extra)]
        assert mil_image_score(more) >= mil_image_score(boxes)


class TestMirrorEquivariance:
    """BlobScorer is exactly equivariant under column reversal, which is
    why the ensemble needs no mirrored second pass."""

    def test_default_ensemble_on_phantom_slices(self):
        for img in phantom_slices():
            for scorer in default_ensemble():
                assert_mirror_equivariant(scorer, img)

    @given(odd_width_images)
    def test_default_ensemble_on_odd_width_images(self, data):
        img = ImageGrid(data)
        for scorer in default_ensemble():
            assert_mirror_equivariant(scorer, img)


class TestEnsembleImageScore:
    def test_mean_over_scorers(self):
        scorers = [StubScorer(0.1), StubScorer(0.3), StubScorer(0.9)]
        img = probe_image()
        score = ensemble_image_score([s.detect(img) for s in scorers])
        assert score == math.fsum([0.1, 0.3, 0.9]) / 3
        # each scorer runs once, on the image exactly as presented
        assert all(len(s.seen) == 1 and s.seen[0] is img for s in scorers)

    def test_permutation_invariant(self):
        a = [StubScorer(0.1), StubScorer(0.3), StubScorer(0.7)]
        b = [a[2], a[0], a[1]]
        img = probe_image()
        boxes_a = [s.detect(img) for s in a]
        boxes_b = [s.detect(img) for s in b]
        assert ensemble_image_score(boxes_a) == ensemble_image_score(boxes_b)

    def test_empty_scorer_list_rejected(self):
        with pytest.raises(ValueError):
            ensemble_image_score([])

    def test_real_detector_on_lesion_slice(self):
        img, _ = lesion_slice(contrast=200.0)
        score = ensemble_image_score([s.detect(img) for s in default_ensemble()])
        assert 0.5 < score < 1.0


def view(score, breast="left", label="cc"):
    return ViewScore(case_id="c1", breast=breast, view_label=label, score=score)


class TestViewScore:
    def test_validation(self):
        with pytest.raises(ValueError):
            view(0.5, breast="middle")
        with pytest.raises(ValueError):
            view(1.5)
        with pytest.raises(ValueError):
            view(-0.1)


class TestBreastScore:
    def test_single_view_passthrough(self):
        assert breast_score([view(0.42)]) == 0.42

    def test_mean_of_two_views(self):
        got = breast_score([view(0.2, label="cc"), view(0.4, label="mlo")])
        assert got == pytest.approx(0.3)

    def test_mixed_breasts_rejected(self):
        with pytest.raises(ValueError):
            breast_score([view(0.2, breast="left"), view(0.4, breast="right")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            breast_score([])


class TestStudyScore:
    def test_worse_breast_wins(self):
        assert study_score([0.1, 0.8]) == 0.8

    def test_single_breast(self):
        assert study_score([0.35]) == 0.35

    def test_equal_breasts(self):
        assert study_score([0.6, 0.6]) == 0.6

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            study_score([])
        with pytest.raises(ValueError):
            study_score([0.1, 0.2, 0.3])

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            study_score([0.5, 1.2])

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_either_breast(self, a, b):
        assert study_score([a, b]) >= a
        assert study_score([a, b]) >= b

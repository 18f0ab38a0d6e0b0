"""Phantom generation: determinism, exact noiseless construction, the
lattice texture's moments and stationarity, truth IO."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import ndimage

from conftest import fold_operator

from tomoscreen import imaging, phantom
from tomoscreen.condense import trimmed_slices
from tomoscreen.phantom import (
    BACKGROUND_LEVEL,
    MM_PER_PIXEL,
    LesionSpec,
    PhantomConfig,
    PhantomTruth,
    case_seed,
    generate_case,
    generate_volume,
    read_truth,
    sample_lesion,
    truth_from_dict,
    truth_to_dict,
    write_truth,
    texture_lattice,
    _texture_field,
)


CONTRAST = (60.0, 220.0)  # RunConfig's default lesion contrast range


def quiet_cfg(seed=0, **kw) -> PhantomConfig:
    """Clutter-free noiseless config: background is exactly flat."""
    defaults = dict(
        width=64,
        height=64,
        n_slices=10,
        background_texture_scale=24.0,
        clutter_density=0.0,
        noise_sigma=0.0,
        seed=seed,
    )
    defaults.update(kw)
    return PhantomConfig(**defaults)


def centered_lesion(contrast: float, **kw) -> LesionSpec:
    defaults = dict(
        center_x=32.5,
        center_y=32.5,
        radius=8.0,
        center_slice=5,
        slice_extent=3,
        contrast=contrast,
        malignant=True,
    )
    defaults.update(kw)
    return LesionSpec(**defaults)


class TestLesionSpec:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            centered_lesion(100.0, radius=0.0)
        with pytest.raises(ValueError):
            centered_lesion(100.0, slice_extent=0)
        with pytest.raises(ValueError):
            centered_lesion(-5.0)

    def test_size_is_diameter_in_mm(self):
        les = centered_lesion(100.0, radius=8.0)
        assert les.size_mm == pytest.approx(2 * 8.0 * MM_PER_PIXEL)

    def test_slice_span_within_extent(self):
        les = centered_lesion(100.0, center_slice=5, slice_extent=3)
        first, last = les.slice_span()
        assert first <= 5 <= last
        assert last - first + 1 == 3


class TestGenerateVolume:
    def test_noiseless_center_pixel_exceeds_background_by_exact_contrast(self):
        contrast = 137.0
        vol, _, _ = generate_volume(quiet_cfg(), [centered_lesion(contrast)])
        # lesion center sits on the center of pixel (32, 32)
        value = vol[5, 32, 32]
        assert value - BACKGROUND_LEVEL == contrast

    def test_flat_background_off_lesion(self):
        vol, _, _ = generate_volume(quiet_cfg(), [centered_lesion(100.0)])
        assert vol[5, 2, 2] == BACKGROUND_LEVEL
        assert np.all(vol[0] == BACKGROUND_LEVEL)

    def test_bit_identical_across_runs(self):
        cfg = quiet_cfg(seed=99, clutter_density=1.5, noise_sigma=12.0)
        lesions = [centered_lesion(80.0)]
        a, _, _ = generate_volume(cfg, lesions)
        b, _, _ = generate_volume(cfg, lesions)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a, _, _ = generate_volume(quiet_cfg(seed=1, noise_sigma=10.0), [])
        b, _, _ = generate_volume(quiet_cfg(seed=2, noise_sigma=10.0), [])
        assert not np.array_equal(a, b)

    def test_no_lesions_means_negative_label(self):
        _, truth, _ = generate_volume(quiet_cfg(), [])
        assert truth.label is False
        assert truth.lesions == ()

    def test_malignant_lesion_sets_label(self):
        _, truth, _ = generate_volume(quiet_cfg(), [centered_lesion(90.0)])
        assert truth.label is True

    def test_benign_lesion_keeps_label_false(self):
        _, truth, _ = generate_volume(
            quiet_cfg(), [centered_lesion(90.0, malignant=False)]
        )
        assert truth.label is False
        assert truth.tumor_size_mm is None

    def test_out_of_bounds_lesion_rejected(self):
        with pytest.raises(ValueError):
            generate_volume(quiet_cfg(), [centered_lesion(90.0, center_x=2.0)])
        with pytest.raises(ValueError):
            generate_volume(quiet_cfg(), [centered_lesion(90.0, center_slice=9)])

    def test_lesion_fades_away_from_center_slice(self):
        vol, _, _ = generate_volume(quiet_cfg(), [centered_lesion(100.0, slice_extent=3)])
        peak = vol[5, 32, 32]
        adjacent = vol[6, 32, 32]
        assert BACKGROUND_LEVEL < adjacent < peak
        assert vol[8, 32, 32] == BACKGROUND_LEVEL

    def test_edge_slices_are_noisier(self):
        cfg = quiet_cfg(seed=4, noise_sigma=10.0, n_slices=20)
        vol, _, _ = generate_volume(cfg, [])
        edge_sd = vol[0].std()
        interior_sd = vol[10].std()
        assert edge_sd > 3 * interior_sd

    def test_edge_slice_count_is_floor_ten_percent(self):
        # the boosted slices are exactly those the condense trim drops
        for n_slices, n_edge in ((20, 2), (10, 1), (9, 0)):
            vol, _, _ = generate_volume(quiet_cfg(seed=4, noise_sigma=10.0, n_slices=n_slices), [])
            sd = vol.reshape(n_slices, -1).std(axis=1)
            noisy = np.flatnonzero(sd > 3 * np.median(sd)).tolist()
            edges = list(range(n_edge)) + list(range(n_slices - n_edge, n_slices))
            assert noisy == edges
            assert trimmed_slices(n_slices) == range(n_edge, n_slices - n_edge)


class TestCases:
    def test_case_seed_stable_and_distinct(self):
        assert case_seed(1, "a") == case_seed(1, "a")
        assert case_seed(1, "a") != case_seed(1, "b")
        assert case_seed(1, "a") != case_seed(2, "a")

    def test_generate_case_deterministic_per_id(self):
        cfg = quiet_cfg(noise_sigma=8.0, clutter_density=1.0)
        a, ta, _ = generate_case(cfg, "cancer-0001", True, CONTRAST)
        b, tb, _ = generate_case(cfg, "cancer-0001", True, CONTRAST)
        assert np.array_equal(a, b)
        assert ta == tb

    def test_cancer_case_has_one_malignant_lesion(self):
        _, truth, _ = generate_case(quiet_cfg(), "cancer-0002", True, CONTRAST)
        assert truth.label is True
        assert len(truth.lesions) == 1
        assert truth.lesions[0].malignant
        assert truth.tumor_size_mm == pytest.approx(truth.lesions[0].size_mm)

    def test_negative_case_has_no_lesions(self):
        _, truth, _ = generate_case(quiet_cfg(), "negative-0002", False, CONTRAST)
        assert truth.label is False and truth.lesions == ()

    def test_sampled_lesion_respects_bounds(self):
        cfg = quiet_cfg(width=96, height=96, n_slices=30)
        rng = np.random.default_rng(11)
        for _ in range(50):
            les = sample_lesion(cfg, rng, CONTRAST)
            assert les.radius + 2 <= les.center_x <= cfg.width - les.radius - 2
            assert les.radius + 2 <= les.center_y <= cfg.height - les.radius - 2
            assert math.ceil(0.15 * cfg.n_slices) <= les.center_slice
            assert les.center_slice <= math.floor(0.85 * cfg.n_slices)
            assert 6.0 <= les.radius <= 11.0
            first, last = les.slice_span()
            assert 0 <= first <= last < cfg.n_slices

    def test_grid_too_small_for_lesion_rejected(self):
        # margin = radius + 2 >= 8 for any drawable radius, so a 16px grid
        # can never hold a sampled lesion
        cfg = quiet_cfg(width=16, height=16)
        with pytest.raises(ValueError):
            sample_lesion(cfg, np.random.default_rng(0), (60.0, 220.0))


def default_cfg(seed=0) -> PhantomConfig:
    """The RunConfig default phantom geometry."""
    return PhantomConfig(
        width=128,
        height=176,
        n_slices=30,
        background_texture_scale=24.0,
        clutter_density=1.0,
        noise_sigma=18.0,
        seed=seed,
    )


class TestTexture:
    """The lattice texture: zero mean and unit sd per field, stationary to
    the grid edge, and its operators built once per axis."""

    GRIDS = [(176, 128), (128, 96), (16, 16), (33, 47), (1, 1)]

    @pytest.mark.parametrize("height,width", GRIDS)
    def test_field_has_zero_mean_and_unit_sd(self, height, width):
        cfg = quiet_cfg(seed=3, width=width, height=height, noise_sigma=1.0)
        field = _texture_field(cfg, "k")
        assert field.shape == (height, width)
        assert abs(field.mean()) <= 1e-12
        # one pixel is its own mean, so its field is zero
        assert field.std() == pytest.approx(1.0 if height * width > 1 else 0.0, abs=1e-12)

    @pytest.mark.parametrize("height,width,sigma", [(32, 32, 32.0), (176, 128, 176.0)])
    def test_field_mean_is_zero_at_a_scale_near_the_grid_side(self, height, width, sigma):
        # a field this smooth is nearly constant: without its mean removed it
        # would shift the whole case by many sd
        cfg = quiet_cfg(
            width=width, height=height, background_texture_scale=sigma, noise_sigma=1.0
        )
        for i in range(20):
            field = _texture_field(cfg, "texture-slice", i)
            assert abs(field.mean()) <= 1e-12
            assert field.std() == pytest.approx(1.0, abs=1e-12)

    def test_edge_variance_stays_near_the_centre_variance(self):
        cfg = default_cfg()
        fields = np.stack([_texture_field(cfg, "texture-slice", i) for i in range(240)])
        variance = fields.var(axis=0)
        edges = variance[:, [0, -1]].mean()
        centre = variance[80:96, 56:72].mean()
        assert edges / centre < 2.0

    @pytest.mark.parametrize("n,sigma", [(176, 24.0), (128, 24.0), (1, 24.0), (33, 0.01), (64, 64.0)])
    def test_lattice_reaches_three_sigma_past_each_end(self, n, sigma):
        points, spacing, first = texture_lattice(n, sigma)
        assert spacing == max(1, int(sigma / 3))
        assert first * spacing >= 3 * sigma
        assert (points - 1 - first) * spacing >= n - 1 + 3 * sigma
        weights = phantom.lattice_interpolation(n, sigma)
        assert weights.shape == (points, n) and not weights.flags.writeable
        nodes = (np.arange(points) - first) * spacing
        assert np.allclose(nodes @ weights, np.arange(n), rtol=0, atol=1e-9)
        assert np.allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", sorted({n for grid in GRIDS for n in grid}))
    def test_matrix_columns_are_filtered_impulses(self, n):
        # the folded halves are those of the matrix whose column j is
        # scipy's filtered unit impulse at j
        columns = []
        for j in range(n):
            impulse = np.zeros(n)
            impulse[j] = 1.0
            columns.append(ndimage.gaussian_filter(impulse, sigma=24.0, mode="nearest"))
        want = fold_operator(np.stack(columns, axis=1))
        got = imaging.gaussian_operator(n, 24.0)
        assert not got.even.flags.writeable and not got.odd.flags.writeable
        assert got.n == n
        assert got.even.tobytes() == want.even.tobytes()
        assert got.odd.tobytes() == want.odd.tobytes()

    def test_operators_are_built_once_per_axis(self, operator_builds):
        for i in range(3):
            generate_case(default_cfg(), f"cancer-{i:04d}", i % 2 == 0, CONTRAST)
        assert len(operator_builds) == 2

    def test_lattice_operators_are_built_once_per_axis(self, operator_builds, lattice_builds):
        cfg = default_cfg()
        for i in range(3):
            generate_case(cfg, f"cancer-{i:04d}", i % 2 == 0, CONTRAST)
        sigma = cfg.background_texture_scale
        assert sorted(lattice_builds) == sorted([(cfg.height, sigma, True), (cfg.width, sigma, True)])
        lattice = [texture_lattice(n, sigma) for n in (cfg.height, cfg.width)]
        assert [(points, spacing) for points, spacing, _ in lattice] == [(41, 8), (35, 8)]
        want = [(points, sigma / spacing, True) for points, spacing, _ in lattice]
        assert sorted(operator_builds) == sorted(want)

    def test_threaded_cases_equal_serial(self):
        case_ids = [f"negative-{i:04d}" for i in range(4)]
        imaging.gaussian_operator.cache_clear()
        phantom.lattice_interpolation.cache_clear()
        with ThreadPoolExecutor(2) as pool:
            threaded = list(
                pool.map(lambda c: generate_case(default_cfg(), c, False, CONTRAST), case_ids)
            )
        for case_id, (vol, _, _) in zip(case_ids, threaded):
            serial, _, _ = generate_case(default_cfg(), case_id, False, CONTRAST)
            assert vol.tobytes() == serial.tobytes()


class TestTruthIo:
    def test_round_trip(self, tmp_path):
        truth = PhantomTruth(
            case_id="cancer-0042",
            lesions=(centered_lesion(123.456), centered_lesion(50.0, malignant=False)),
            label=True,
        )
        write_truth(truth, tmp_path / "truth.json")
        back = read_truth(tmp_path / "truth.json")
        assert back == truth

    def test_dict_round_trip_preserves_floats(self):
        truth = PhantomTruth(
            case_id="x", lesions=(centered_lesion(1 / 3, radius=math.pi),), label=True
        )
        assert truth_from_dict(truth_to_dict(truth)) == truth

    def test_label_consistency_enforced(self):
        with pytest.raises(ValueError):
            PhantomTruth(case_id="x", lesions=(centered_lesion(10.0),), label=False)
        with pytest.raises(ValueError):
            PhantomTruth(case_id="x", lesions=(), label=True)

    def test_truth_records_size_of_largest_malignant_lesion(self):
        truth = PhantomTruth(
            case_id="x",
            lesions=(
                centered_lesion(10.0, radius=6.0),
                centered_lesion(10.0, radius=9.0),
                centered_lesion(10.0, radius=11.0, malignant=False),
            ),
            label=True,
        )
        assert truth.tumor_size_mm == pytest.approx(2 * 9.0 * MM_PER_PIXEL)


class TestConfigValidation:
    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            quiet_cfg(width=0)
        with pytest.raises(ValueError):
            quiet_cfg(n_slices=0)

    def test_invalid_scales(self):
        with pytest.raises(ValueError):
            quiet_cfg(background_texture_scale=0.0)
        with pytest.raises(ValueError):
            quiet_cfg(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            quiet_cfg(clutter_density=-0.5)

    def test_volume_matches_config_shape(self):
        stack, _, _ = generate_volume(quiet_cfg(width=40, height=50, n_slices=7), [])
        assert stack.shape == (7, 50, 40) and stack.dtype == np.uint16
        assert stack.flags.writeable and stack.flags.c_contiguous

    def test_replace_keeps_frozen_semantics(self):
        cfg = quiet_cfg()
        cfg2 = dataclasses.replace(cfg, seed=5)
        assert cfg.seed == 0 and cfg2.seed == 5

"""Image grid, volume, normalization, and PGM round-trip behavior."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from conftest import fold_operator, quantized
from tomoscreen import imaging, phantom, scorer
from tomoscreen.miltrain import N_FEATURES, TrainingCase
from tomoscreen.imaging import (
    PGM_MAXVAL,
    ImageGrid,
    Volume,
    NORM_HI,
    NORM_LO,
    _affine,
    apply_folded,
    gaussian_filter,
    gaussian_kernel,
    gaussian_operator,
    normalize_range,
    normalize_volume,
    quantize,
    read_pgm,
    read_volume,
    write_pgm,
    write_volume,
)

finite_images = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)



class TestImageGrid:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ImageGrid(np.zeros(5))
        with pytest.raises(ValueError):
            ImageGrid(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        bad = np.zeros((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            ImageGrid(bad)
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            ImageGrid(bad)

    def test_data_is_read_only(self):
        img = ImageGrid(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            img.data[0, 0] = 1.0

    def test_data_is_a_float64_height_by_width_array(self):
        img = ImageGrid(np.arange(6).reshape(2, 3))
        assert img.data.dtype == np.float64 and img.data.shape == (2, 3)
        assert np.array_equal(img.data, np.arange(6).reshape(2, 3))


@pytest.mark.parametrize(
    "build, shape, dtype, field",
    [
        (ImageGrid, (2, 2), np.float64, "data"),
        (Volume, (2, 2, 2), np.uint16, "samples"),
        (lambda a: TrainingCase("x", a, True), (2, N_FEATURES), np.float64, "features"),
    ],
    ids=["ImageGrid", "Volume", "TrainingCase"],
)
def test_freezing_leaves_the_callers_array_writable(build, shape, dtype, field):
    caller = np.zeros(shape, dtype)
    held = getattr(build(caller), field)
    caller[(0,) * caller.ndim] = 1.0
    assert caller.flags.writeable and not held.flags.writeable
    assert np.shares_memory(caller, held)  # no copy was made
    with pytest.raises(ValueError):
        held[(0,) * held.ndim] = 2.0


def u16(data) -> np.ndarray:
    return np.asarray(data, dtype=np.uint16)


class TestVolume:
    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            Volume([u16(np.zeros((2, 2))), u16(np.zeros((3, 2)))])
        with pytest.raises(ValueError):
            Volume(u16(np.zeros((2, 2))))

    def test_requires_at_least_one_slice(self):
        with pytest.raises(ValueError):
            Volume(u16(np.zeros((0, 2, 2))))

    def test_stack_shape(self):
        vol = Volume(u16(np.stack([np.full((4, 5), i) for i in range(3)])))
        assert vol.samples.shape == (3, 4, 5) and vol.samples.dtype == np.uint16
        assert vol.n_slices == 3
        assert (vol.lo, vol.hi) == (0.0, 2.0)

    def test_data_and_slices_are_read_only(self):
        vol = Volume(u16(np.zeros((3, 4, 5))))
        with pytest.raises(ValueError):
            vol.samples[0, 0, 0] = 1
        with pytest.raises(ValueError):
            vol.slice(1).data[0, 0] = 1.0

    def test_slice_is_the_plane(self):
        data = u16(np.arange(24).reshape(2, 3, 4))
        vol = Volume(data)
        want = _affine(data[1].astype(np.float64), 0.0, 23.0)
        assert vol.slice(1).data.tobytes() == want.tobytes()

    def test_rejects_non_finite(self):
        # samples are 16-bit, so float data, finite or not, is refused
        bad = np.zeros((2, 2, 2))
        bad[1, 0, 1] = np.nan
        for data in (bad, np.zeros((2, 2, 2)), np.zeros((2, 2, 2), np.int32)):
            with pytest.raises(ValueError, match="uint16"):
                Volume(data)


class TestNormalize:
    def test_endpoints_exact(self):
        out = normalize_range(np.array([[0.0, 10.0], [5.0, 2.5]]))
        assert out.data.min() == -127.5
        assert out.data.max() == 127.5

    def test_constant_maps_to_zero(self):
        out = normalize_range(np.full((3, 3), 42.0))
        assert np.all(out.data == 0.0)

    @given(finite_images)
    def test_order_preserved(self, data):
        out = normalize_range(data).data
        flat_in, flat_out = data.ravel(), out.ravel()
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= -1e-9)

    def test_volume_range_spans_all_slices(self):
        vol = normalize_volume(
            u16([np.full((2, 2), 3), np.array([[0, 9], [4, 4]]), np.full((2, 2), 5)])
        )
        norm = np.stack([vol.slice(i).data for i in range(3)])
        assert norm.min() == norm[1, 0, 0] == -127.5
        assert norm.max() == norm[1, 0, 1] == 127.5
        # a constant slice keeps its place in the volume's range
        assert np.all(norm[0] == (3.0 / 9.0) * 255 - 127.5)

    def test_normalize_volume_matches_inline_affine(self):
        rng = np.random.default_rng(3)
        data = u16(rng.integers(0, 51, size=(3, 4, 4)))
        lo, hi = float(data.min()), float(data.max())
        expected = (data.astype(np.float64) - lo) / (hi - lo) * 255 - 127.5
        vol = normalize_volume(data)
        got = np.stack([vol.slice(i).data for i in range(vol.n_slices)])
        assert got.tobytes() == expected.tobytes()

    def test_degenerate_range_maps_to_zero(self):
        # a single voxel or pixel has a degenerate range by size alone
        assert np.all(normalize_volume(u16(np.full((1, 1, 1), 5))).slice(0).data == 0.0)
        assert np.all(normalize_range(np.array([[5.0]])).data == 0.0)

    def test_normalize_volume_shares_one_affine(self):
        norm = normalize_volume(u16([[[0, 1]], [[3, 4]]]))
        # 0 -> -127.5 and 4 -> 127.5; interior values keep their ratios
        assert norm.slice(0).data[0, 0] == -127.5
        assert norm.slice(1).data[0, 1] == 127.5
        assert norm.slice(0).data[0, 1] == pytest.approx(-127.5 + 255.0 / 4)

    def test_constant_volume_maps_to_zero(self):
        vol = normalize_volume(u16(np.full((2, 2, 2), 9)))
        assert all(np.all(vol.slice(i).data == 0.0) for i in range(2))

    def test_holds_a_frozen_view_of_the_samples(self):
        rng = np.random.default_rng(4)
        for data in (u16(rng.integers(0, 900, size=(3, 4, 5))), u16(np.full((2, 3, 3), 7))):
            want = data.tobytes()
            vol = normalize_volume(data)
            assert np.shares_memory(vol.samples, data)  # no copy was made
            assert vol.samples.tobytes() == data.tobytes() == want
            assert (vol.lo, vol.hi) == (data.min(), data.max())
            assert data.flags.writeable and not vol.samples.flags.writeable

    def test_needs_a_uint16_stack(self):
        for stack in (np.zeros((2, 2, 2)), np.zeros((2, 2, 2), np.int32), u16(np.zeros((2, 2)))):
            with pytest.raises(ValueError):
                normalize_volume(stack)


# volumes to normalize: random, constant (hi == lo), and spanning [0, 65535]
_RNG = np.random.default_rng(23)
SAMPLE_VOLUMES = {
    "random": u16(_RNG.integers(0, PGM_MAXVAL + 1, size=(5, 17, 12))),
    "narrow": u16(_RNG.integers(1480, 1530, size=(4, 9, 16))),
    "constant": u16(np.full((3, 6, 7), 1500)),
    "full-range": u16(_RNG.integers(0, PGM_MAXVAL + 1, size=(4, 8, 11))),
}
SAMPLE_VOLUMES["full-range"][0, 0, 0] = 0
SAMPLE_VOLUMES["full-range"][-1, -1, -1] = PGM_MAXVAL


class TestNormalizedOnDemand:
    """Every slice and patch a Volume hands out is `_affine` of the whole
    stack cast to float64, bit for bit: normalizing a slice at a time
    changes no value."""

    @pytest.mark.parametrize("name", sorted(SAMPLE_VOLUMES))
    def test_slices_and_patches_are_the_whole_stack_normalized(self, name):
        samples = SAMPLE_VOLUMES[name]
        whole = _affine(samples.astype(np.float64), float(samples.min()), float(samples.max()))
        vol = normalize_volume(samples)
        rng = np.random.default_rng(len(name))
        for i in range(vol.n_slices):
            got = vol.slice(i).data
            assert got.dtype == np.float64 and got.tobytes() == whole[i].tobytes()
            for _ in range(5):
                y0, y1 = sorted(rng.integers(0, samples.shape[1] + 1, size=2))
                x0, x1 = sorted(rng.integers(0, samples.shape[2] + 1, size=2))
                ys, xs = slice(y0, y1), slice(x0, x1)
                patch = vol.patch(i, ys, xs)
                assert patch.flags.writeable and patch.tobytes() == whole[i, ys, xs].tobytes()
        if name == "constant":
            assert not whole.any()
        if name == "full-range":
            assert (whole.min(), whole.max()) == (NORM_LO, NORM_HI)


SAMPLES_16BIT = np.arange(PGM_MAXVAL + 1, dtype=np.uint16)


def denormalized(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The oracle inverse of normalize's affine for the range [lo, hi],
    rounded to integers."""
    return np.rint((values - NORM_LO) / (NORM_HI - NORM_LO) * (hi - lo) + lo)


class TestDenormalize:
    """Normalizing loses no 16-bit sample: the affine's inverse, rounded,
    gives every sample back exactly, so the normalized slices the
    detectors read carry all of the volume's samples."""

    @pytest.mark.parametrize(
        "lo, hi",
        [(0, 1), (0, 65535), (65534, 65535)]
        + [tuple(sorted(p)) for p in np.random.default_rng(22).integers(0, 65536, (20, 2))],
    )
    def test_every_sample_comes_back(self, lo, hi):
        # samples outside [lo, hi] too; a sample 0 below lo can come back as -0.0
        lo, hi = float(lo), float(hi)
        norm = _affine(SAMPLES_16BIT.astype(np.float64), lo, hi)
        assert np.array_equal(denormalized(norm, lo, hi), SAMPLES_16BIT)

    def test_a_volumes_own_range_through_normalize_volume(self):
        data = u16(np.random.default_rng(5).integers(300, 4001, size=(4, 6, 7)))
        vol = normalize_volume(data)
        back = np.stack([denormalized(vol.slice(i).data, vol.lo, vol.hi) for i in range(4)])
        assert np.array_equal(back, data)

    @pytest.mark.parametrize("level", [0.0, 7.0, 65535.0])
    def test_a_constant_volume_maps_back_to_lo(self, level):
        vol = normalize_volume(u16(np.full((2, 3, 3), level)))
        assert np.all(denormalized(vol.slice(1).data, level, level) == level)


# sigmas with radius 0 (below 0.125), 1, a few taps, and longer than any axis
SIGMAS = st.sampled_from([0.0, 0.05, 0.1249, 0.125, 0.7, 2.4, 4.2426, 24.0])

# 2D, odd and even sides, 1-px axes
gaussian_inputs = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 23), st.integers(1, 23)),
    elements=st.one_of(
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2e-308]),
    ),
)

# responses on a half-unit lattice, so windows tie and plateaus form
peak_inputs = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    elements=st.integers(-6, 6).map(lambda v: v / 2),
)


class TestFilters:
    """imaging's Gaussian against scipy.ndimage's `nearest`-mode filter, to
    rounding, and the detector's peaks against scipy's maximum filter, bit
    for bit; scipy's filters stay the oracles."""

    def image(self):
        return np.random.default_rng(3).standard_normal((40, 56))

    @pytest.mark.parametrize("sigma", [2.4, 3.8, 24.0])
    def test_gaussian_filter_is_scipys(self, sigma):
        x = self.image()
        want = ndimage.gaussian_filter(x, sigma=sigma, mode="nearest")
        assert np.abs(gaussian_filter(x, sigma) - want).max() <= 1e-12

    @given(gaussian_inputs, SIGMAS)
    def test_gaussian_filter_equals_scipys(self, x, sigma):
        # each output is a convex combination of inputs, so rounding scales
        # with the largest input
        want = ndimage.gaussian_filter(x, sigma, mode="nearest")
        tol = 1e-12 * max(1.0, np.abs(x).max())
        assert np.abs(gaussian_filter(x, sigma) - want).max() <= tol

    @pytest.mark.parametrize("win", [3, 5, 7])
    def test_maximum_filter_is_scipys(self, win):
        # with no floor and no apron, the peaks are every pixel that equals
        # scipy's -inf-padded window maximum
        x = self.image()
        want = ndimage.maximum_filter(x, size=win, mode="constant", cval=-np.inf)
        want_rows, want_cols = np.nonzero(x == want)
        rows, cols = scorer._peaks(x, win, -np.inf, 0)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()

    @given(
        peak_inputs,
        st.integers(1, 20).map(lambda h: 2 * h + 1),
        st.sampled_from([-1.0, 0.0, 1.0]),
        st.integers(0, 8),
    )
    def test_maximum_filter_equals_scipys(self, resp, win, floor, margin):
        local_max = ndimage.maximum_filter(resp, size=win, mode="constant", cval=-np.inf)
        keep = (resp == local_max) & (resp > floor)
        h, w = resp.shape
        if 2 * margin < min(h, w):
            apron = np.zeros_like(keep)
            apron[margin : h - margin, margin : w - margin] = True
            keep &= apron
        want_rows, want_cols = np.nonzero(keep)
        rows, cols = scorer._peaks(resp, win, floor, margin)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()

    def test_other_call_forms_raise(self):
        x = self.image()
        with pytest.raises(ValueError):
            gaussian_filter(x[0], 2.0)
        with pytest.raises(ValueError):
            gaussian_filter(x[None], 2.0)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-200, 1e-160, 1e-15, 0.1])
    def test_a_radius_zero_kernel_is_one_tap(self, sigma):
        # sigma**2 underflows to zero or a subnormal below about 1e-154;
        # scipy's kernel at radius 0 is [1.0], or it skips the axis
        x = self.image()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gaussian_kernel(sigma).tolist() == [1.0]
            got = gaussian_filter(x, sigma)
        want = ndimage.gaussian_filter(x, sigma, mode="nearest")
        assert want.tobytes() == x.tobytes()
        assert np.abs(got - want).max() <= 1e-12

    def test_phantom_and_scorer_bind_them_at_module_level(self):
        # perfbench finds the filter as these module attributes
        assert phantom.gaussian_filter is imaging.gaussian_filter
        assert scorer.gaussian_filter is imaging.gaussian_filter


def nearest_gaussian(n: int, sigma: float) -> np.ndarray:
    """Dense n x n operator of scipy's nearest-mode Gaussian along one axis."""
    return ndimage.gaussian_filter(np.eye(n), sigma=(sigma, 0), mode="nearest")


# the texture sigma, each detector's fine and coarse sigma, one whose
# radius (1200) exceeds every n below, and one of radius 0
BUILD_SIGMAS = [
    24.0,
    *(r / np.sqrt(2.0) * f for r in (6.0, 8.0, 10.5) for f in (1.0, 1.6)),
    300.0,
    0.1,
]


class TestGaussianBuilders:
    """The operator laid from the kernel band plus two correlated end
    impulses, against the fold of scipy's filtered identity."""

    @pytest.mark.parametrize("n", [*range(1, 65), 96, 128, 176, 1024])
    def test_equals_the_filtered_identity(self, n):
        for sigma in BUILD_SIGMAS:
            want = fold_operator(ndimage.gaussian_filter(np.eye(n), (sigma, 0), mode="nearest"))
            got = gaussian_operator.__wrapped__(n, sigma)  # uncached
            assert got.n == n
            assert got.even.tobytes() == want.even.tobytes()
            assert got.odd.tobytes() == want.odd.tobytes()


folded_inputs = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 23), st.integers(1, 23)),
    elements=st.floats(-127.5, 127.5, allow_nan=False, allow_infinity=False),
)


class TestFoldedOperator:
    """apply_folded of folded operators (conftest's fold_operator) against
    the dense operator product, which stays the oracle."""

    @given(folded_inputs, st.sampled_from([0.7, 2.5, 11.88]))
    def test_matches_dense_product(self, x, sigma):
        m_h = nearest_gaussian(x.shape[0], sigma)
        m_w = nearest_gaussian(x.shape[1], sigma)
        got = apply_folded(x, fold_operator(m_h), fold_operator(m_w))
        assert np.abs(got - m_h @ x @ m_w.T).max() <= 1e-12

    @given(folded_inputs)
    # a constant row: a - b is +0.0 on both halves, so s + d and s - d
    # put +0.0 and -0.0 in mirrored places
    @example(np.full((2, 7), -5e-324))
    def test_exactly_mirror_equivariant(self, x):
        # bit for bit up to the sign of a zero: adding +0.0 maps -0.0 to
        # +0.0 and leaves every other value's bits as they are
        op_h = fold_operator(nearest_gaussian(x.shape[0], 3.0))
        op_w = fold_operator(nearest_gaussian(x.shape[1], 3.0))
        direct = apply_folded(x, op_h, op_w) + 0.0
        assert (apply_folded(x[:, ::-1], op_h, op_w) + 0.0).tobytes() == direct[:, ::-1].tobytes()
        assert (apply_folded(x[::-1], op_h, op_w) + 0.0).tobytes() == direct[::-1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
    def test_halves_are_read_only_and_half_the_size(self, n):
        op = gaussian_operator.__wrapped__(n, 2.0)  # uncached
        k = (n + 1) // 2
        assert op.n == n
        for half in (op.even, op.odd):
            assert half.shape == (k, k)
            assert not half.flags.writeable
            with pytest.raises(ValueError):
                half[0, 0] = 1.0

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_odd_middle_sample_counts_once(self, n):
        m = nearest_gaussian(n, 2.0)
        op = fold_operator(m)
        assert np.array_equal(op.even[:, -1], 0.5 * m[: (n + 1) // 2, n // 2])
        assert not op.odd[-1].any()
        impulse = np.zeros((1, n))
        impulse[0, n // 2] = 1.0
        got = apply_folded(impulse, fold_operator(np.eye(1)), op)
        assert np.abs(got[0] - m[:, n // 2]).max() <= 1e-15

    def test_rejects_an_axis_of_another_length(self):
        op = fold_operator(nearest_gaussian(8, 2.0))
        with pytest.raises(ValueError, match="length 8"):
            apply_folded(np.zeros((8, 7)), op, fold_operator(nearest_gaussian(8, 2.0)))
        # a pair folded for 7 has the same half size as one for 8
        with pytest.raises(ValueError, match="length 7"):
            apply_folded(np.zeros((8, 8)), op, fold_operator(nearest_gaussian(7, 2.0)))


class TestPgm:
    def test_round_trip_integer_grid(self, tmp_path):
        rng = np.random.default_rng(1)
        data = u16(rng.integers(0, 65536, size=(9, 7)))
        path = tmp_path / "img.pgm"
        write_pgm(data, path)
        back = read_pgm(path)
        assert np.array_equal(back, data) and not back.flags.writeable

    def test_write_quantizes_and_clips(self, tmp_path):
        path = tmp_path / "img.pgm"
        data = np.array([[-5.0, 1.4, 70000.0, -0.5, 65535.5, 65535.4]])
        out = np.empty(data.shape, np.uint16)
        # -5 rounds below 0, 70000 and 65535.5 (half to even: 65536) above 65535
        assert quantize(data, out) == 3
        write_pgm(out, path)
        assert np.array_equal(read_pgm(path), [[0, 1, 65535, 0, 65535, 65535]])

    def test_write_pgm_takes_2d_uint16_samples_only(self, tmp_path):
        for data in (np.ones((2, 3)), np.ones((2, 3), np.int32), u16(np.ones((1, 2, 3)))):
            with pytest.raises(ValueError):
                write_pgm(data, tmp_path / "img.pgm")
        assert not (tmp_path / "img.pgm").exists()

    # ties at +-0.5 round half to even; -0.4 rounds to -0.0, which a PGM reads back as +0.0
    TIES = [-2.5, -1.5, -0.5, -0.4, 0.5, 1.5, 2.5, 65534.5, 65535.5, 65536.5]

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.one_of(
                st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False),
                st.floats(-3.0, 65540.0),
                st.sampled_from(TIES),
            ),
        )
    )
    @example(np.array([TIES, [-1e308, 1e308, -7e4, 7e4, 0.0, -0.0, 3.0, 65535.0, 1.4, 7.6]]))
    def test_quantize_is_what_a_pgm_stores(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "img.pgm"
            quant = np.empty(data.shape, np.uint16)
            clipped = quantize(data, quant)
            write_pgm(quant, path)
            back = read_pgm(path)
        assert back.astype(np.uint16).tobytes() == quant.tobytes()
        assert np.array_equal(quant, np.clip(np.rint(data), 0, 65535))
        rounded = np.rint(data)
        assert clipped == np.count_nonzero((rounded < 0) | (rounded > 65535))

    def test_reads_8bit_and_comments(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([7, 200]))
        assert np.array_equal(read_pgm(path), [[7, 200]])

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError, match="truncated raster") as exc:
            read_pgm(path)
        assert str(path) in str(exc.value)

    def test_rejects_truncated_16bit_raster(self, tmp_path):
        # 2x1 samples at maxval 65535 need 4 raster bytes; 3 are present
        path = tmp_path / "short16.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n\x00\x01\x02")
        with pytest.raises(ValueError, match="truncated raster"):
            read_pgm(path)

    def test_garbled_header_names_the_file(self, tmp_path):
        path = tmp_path / "garbled.pgm"
        path.write_bytes(b"P5\n4 x4\n255\n" + bytes(16))
        with pytest.raises(ValueError) as exc:
            read_pgm(path)
        assert str(path) in str(exc.value)

    def test_volume_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = u16(rng.integers(0, 65536, size=(4, 5, 6)))
        write_volume(samples, tmp_path / "vol")
        back = read_volume(tmp_path / "vol")
        assert back.dtype == np.uint16 and back.flags.writeable and back.flags.c_contiguous
        assert back.tobytes() == samples.tobytes()

    def test_write_volume_takes_uint16_samples_only(self, tmp_path):
        for data in (np.ones((2, 3, 4)), np.ones((2, 3, 4), np.int32), u16(np.ones((3, 4)))):
            with pytest.raises(ValueError):
                write_volume(data, tmp_path / "vol")

    def test_volume_slices_are_the_pgms_write_pgm_stores(self, tmp_path):
        # non-integer, negative, out-of-range and -0.0 samples
        rng = np.random.default_rng(6)
        data = rng.normal(0.0, 5e4, size=(3, 4, 5))
        data[0, 0, :3] = [-0.0, -0.4, 65535.5]
        samples = quantized(data)
        write_volume(samples, tmp_path / "vol")
        for i, plane in enumerate(samples):
            write_pgm(plane, tmp_path / "one.pgm")
            assert (tmp_path / "vol" / f"slice_{i:04d}.pgm").read_bytes() == (
                tmp_path / "one.pgm"
            ).read_bytes()
        assert read_volume(tmp_path / "vol").tobytes() == samples.tobytes()

    def test_quantize_in_place(self):
        data = np.array([[-3.2, -0.4, 2.5, 65535.5, 1e9]])
        out = np.empty((2, *data.shape), np.uint16)
        out[1] = 7
        assert quantize(data, out[0]) == 3
        assert out[0].tobytes() == u16([[0, 0, 2, 65535, 65535]]).tobytes()
        assert np.all(out[1] == 7)

    def test_volume_manifest_mismatch_detected(self, tmp_path):
        write_volume(u16(np.zeros((1, 2, 2))), tmp_path / "vol")
        manifest = (tmp_path / "vol" / "manifest.json").read_text()
        (tmp_path / "vol" / "manifest.json").write_text(
            manifest.replace('"slice_count": 1', '"slice_count": 2')
        )
        with pytest.raises(ValueError):
            read_volume(tmp_path / "vol")


    def test_manifest_that_is_not_an_object_or_not_json(self, tmp_path):
        write_volume(u16(np.ones((2, 3, 4))), tmp_path)
        for text in ("[1, 2]", "{not json"):
            (tmp_path / "manifest.json").write_text(text)
            with pytest.raises(ValueError) as exc:
                read_volume(tmp_path)
            assert str(tmp_path / "manifest.json") in str(exc.value)

    def test_manifest_claiming_a_larger_grid_fails_at_the_first_slice(self, tmp_path):
        # a stack of the claimed grid (16 TB) is never allocated
        write_volume(u16(np.ones((2, 3, 4))), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest.update(width=10**6, height=10**6)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest says 1000000x1000000") as exc:
            read_volume(tmp_path)
        assert str(tmp_path / "slice_0000.pgm") in str(exc.value)

    def test_slice_with_wrong_dimensions_names_the_slice(self, tmp_path):
        write_volume(u16(np.ones((2, 3, 4))), tmp_path)
        write_pgm(u16(np.ones((3, 5))), tmp_path / "slice_0001.pgm")
        with pytest.raises(ValueError) as exc:
            read_volume(tmp_path)
        assert str(tmp_path / "slice_0001.pgm") in str(exc.value)

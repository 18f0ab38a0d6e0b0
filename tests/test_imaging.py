"""Image grid, volume, normalization, and PGM round-trip behavior."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from tomoscreen import imaging, phantom, scorer
from tomoscreen.miltrain import N_FEATURES, TrainingCase
from tomoscreen.imaging import (
    ImageGrid,
    Volume,
    apply_folded,
    fold_operator,
    gaussian_filter,
    maximum_filter,
    normalize_range,
    normalize_volume,
    read_pgm,
    read_volume,
    volume_shape,
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

    def test_width_height_and_equality(self):
        img = ImageGrid(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert (img.height, img.width) == (2, 3)
        assert img == ImageGrid(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert img != ImageGrid(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "build, shape, field",
    [
        (ImageGrid, (2, 2), "data"),
        (Volume, (2, 2, 2), "data"),
        (lambda a: TrainingCase("x", a, True), (2, N_FEATURES), "features"),
    ],
    ids=["ImageGrid", "Volume", "TrainingCase"],
)
def test_freezing_leaves_the_callers_array_writable(build, shape, field):
    caller = np.zeros(shape)
    held = getattr(build(caller), field)
    caller[(0,) * caller.ndim] = 1.0
    assert caller.flags.writeable and not held.flags.writeable
    assert np.shares_memory(caller, held)  # no copy was made
    with pytest.raises(ValueError):
        held[(0,) * held.ndim] = 2.0


class TestVolume:
    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            Volume([np.zeros((2, 2)), np.zeros((3, 2))])
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2)))

    def test_requires_at_least_one_slice(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((0, 2, 2)))

    def test_stack_shape(self):
        vol = Volume(np.stack([np.full((4, 5), i) for i in range(3)]))
        assert vol.data.shape == (3, 4, 5) and vol.data.dtype == np.float64
        assert vol.n_slices == 3 and (vol.height, vol.width) == (4, 5)

    def test_data_and_slices_are_read_only(self):
        vol = Volume(np.zeros((3, 4, 5)))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            vol.slice(1).data[0, 0] = 1.0

    def test_slice_is_the_plane(self):
        data = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        vol = Volume(data)
        assert vol.slice(1) == ImageGrid(data[1])

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2, 2))
        bad[1, 0, 1] = np.nan
        with pytest.raises(ValueError):
            Volume(bad)


class TestNormalize:
    def test_endpoints_exact(self):
        img = ImageGrid(np.array([[0.0, 10.0], [5.0, 2.5]]))
        out = normalize_range(img)
        assert out.data.min() == -127.5
        assert out.data.max() == 127.5

    def test_constant_maps_to_zero(self):
        out = normalize_range(ImageGrid(np.full((3, 3), 42.0)))
        assert np.all(out.data == 0.0)

    @given(finite_images)
    def test_order_preserved(self, data):
        out = normalize_range(ImageGrid(data)).data
        flat_in, flat_out = data.ravel(), out.ravel()
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= -1e-9)

    def test_volume_range_spans_all_slices(self):
        vol = Volume(
            [np.full((2, 2), 3.0), np.array([[0.0, 9.0], [4.0, 4.0]]), np.full((2, 2), 5.0)]
        )
        norm = normalize_volume(vol).data
        assert norm.min() == norm[1, 0, 0] == -127.5
        assert norm.max() == norm[1, 0, 1] == 127.5
        # a constant slice keeps its place in the volume's range
        assert np.all(norm[0] == (3.0 / 9.0) * 255 - 127.5)

    def test_normalize_volume_matches_inline_affine(self):
        rng = np.random.default_rng(3)
        vol = Volume(rng.random((3, 4, 4)) * 50)
        lo, hi = vol.data.min(), vol.data.max()
        expected = (vol.data - lo) / (hi - lo) * 255 - 127.5
        assert normalize_volume(vol).data.tobytes() == expected.tobytes()

    def test_degenerate_range_maps_to_zero(self):
        # a single voxel or pixel has a degenerate range by size alone
        assert np.all(normalize_volume(Volume(np.full((1, 1, 1), 5.0))).data == 0.0)
        assert np.all(normalize_range(ImageGrid(np.array([[5.0]]))).data == 0.0)

    def test_normalize_volume_shares_one_affine(self):
        a = np.array([[0.0, 1.0]])
        b = np.array([[3.0, 4.0]])
        norm = normalize_volume(Volume([a, b]))
        # 0 -> -127.5 and 4 -> 127.5; interior values keep their ratios
        assert norm.data[0, 0, 0] == -127.5
        assert norm.data[1, 0, 1] == 127.5
        assert norm.data[0, 0, 1] == pytest.approx(-127.5 + 255.0 / 4)

    def test_constant_volume_maps_to_zero(self):
        vol = Volume(np.full((2, 2, 2), 9.0))
        assert np.all(normalize_volume(vol).data == 0.0)


class TestFilters:
    """The filters imported from scipy.ndimage on first call are scipy's,
    bit for bit, in the call forms phantom and scorer use."""

    def image(self):
        return np.random.default_rng(3).standard_normal((40, 56))

    @pytest.mark.parametrize("sigma", [2.4, 3.8, 24.0])
    def test_gaussian_filter_is_scipys(self, sigma):
        x = self.image()
        want = ndimage.gaussian_filter(x, sigma=sigma, mode="nearest").tobytes()
        assert gaussian_filter(x, sigma=sigma, mode="nearest").tobytes() == want
        assert gaussian_filter(x, sigma, mode="nearest").tobytes() == want

    @pytest.mark.parametrize("win", [3, 5, 7])
    def test_maximum_filter_is_scipys(self, win):
        x = self.image()
        got = maximum_filter(x, size=win, mode="constant", cval=-np.inf)
        want = ndimage.maximum_filter(x, size=win, mode="constant", cval=-np.inf)
        assert got.tobytes() == want.tobytes()

    def test_phantom_and_scorer_bind_them_at_module_level(self):
        # perfbench finds the filters as these module attributes
        assert phantom.gaussian_filter is imaging.gaussian_filter
        assert scorer.gaussian_filter is imaging.gaussian_filter
        assert scorer.maximum_filter is imaging.maximum_filter


def nearest_gaussian(n: int, sigma: float) -> np.ndarray:
    """Dense n x n operator of scipy's nearest-mode Gaussian along one axis."""
    return ndimage.gaussian_filter(np.eye(n), sigma=(sigma, 0), mode="nearest")


folded_inputs = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 23), st.integers(1, 23)),
    elements=st.floats(-127.5, 127.5, allow_nan=False, allow_infinity=False),
)


class TestFoldedOperator:
    """fold_operator + apply_folded against the dense operator product,
    which stays the oracle."""

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
        op = fold_operator(nearest_gaussian(n, 2.0))
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
        data = rng.integers(0, 65536, size=(9, 7)).astype(np.float64)
        path = tmp_path / "img.pgm"
        write_pgm(ImageGrid(data), path)
        back = read_pgm(path)
        assert np.array_equal(back.data, data)

    def test_write_quantizes_and_clips(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(ImageGrid(np.array([[-5.0, 1.4, 70000.0]])), path)
        assert np.array_equal(read_pgm(path).data, [[0.0, 1.0, 65535.0]])

    def test_reads_8bit_and_comments(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([7, 200]))
        img = read_pgm(path)
        assert np.array_equal(img.data, [[7.0, 200.0]])

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
        vol = Volume(rng.integers(0, 65536, size=(4, 5, 6)).astype(np.float64))
        write_volume(vol, tmp_path / "vol")
        back = read_volume(tmp_path / "vol")
        assert back.n_slices == 4
        assert np.array_equal(back.data, vol.data)

    def test_volume_shape_reads_the_manifest_alone(self, tmp_path):
        write_volume(Volume(np.ones((3, 5, 4))), tmp_path)
        (tmp_path / "slice_0000.pgm").unlink()
        assert volume_shape(tmp_path) == (3, 5, 4)
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="manifest needs"):
            volume_shape(tmp_path)

    def test_volume_manifest_mismatch_detected(self, tmp_path):
        vol = Volume(np.zeros((1, 2, 2)))
        write_volume(vol, tmp_path / "vol")
        manifest = (tmp_path / "vol" / "manifest.json").read_text()
        (tmp_path / "vol" / "manifest.json").write_text(
            manifest.replace('"slice_count": 1', '"slice_count": 2')
        )
        with pytest.raises(ValueError):
            read_volume(tmp_path / "vol")


    def test_manifest_that_is_not_an_object_or_not_json(self, tmp_path):
        write_volume(Volume(np.ones((2, 3, 4))), tmp_path)
        for text in ("[1, 2]", "{not json"):
            (tmp_path / "manifest.json").write_text(text)
            with pytest.raises(ValueError) as exc:
                read_volume(tmp_path)
            assert str(tmp_path / "manifest.json") in str(exc.value)

    def test_slice_with_wrong_dimensions_names_the_slice(self, tmp_path):
        write_volume(Volume(np.ones((2, 3, 4))), tmp_path)
        write_pgm(ImageGrid(np.ones((3, 5))), tmp_path / "slice_0001.pgm")
        with pytest.raises(ValueError) as exc:
            read_volume(tmp_path)
        assert str(tmp_path / "slice_0001.pgm") in str(exc.value)

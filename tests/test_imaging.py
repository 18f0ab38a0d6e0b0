"""Image grid, volume, normalization, and PGM round-trip behavior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tomoscreen.imaging import (
    ImageGrid,
    Volume,
    normalize_range,
    normalize_volume,
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

    def test_width_height_and_equality(self):
        img = ImageGrid(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert (img.height, img.width) == (2, 3)
        assert img == ImageGrid(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert img != ImageGrid(np.zeros((2, 3)))


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

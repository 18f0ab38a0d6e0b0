"""Intensity grids, volumes, intensity normalization, the image filters,
folded one-axis operators, and portable file IO.

Images are immutable 2D float64 grids; a volume is one immutable 3D
float64 array. The on-disk format is binary PGM (P5) with maxval 65535,
big-endian samples; volumes are a directory of one PGM per slice plus a
manifest.json. Writing quantizes to 16-bit unsigned, so round trips are
bit-exact for integer-valued grids in [0, 65535].

Folded operators are dense: their cost grows with the axis length, not
with the kernel width, and each holds 4 n**2 bytes. On a 2-core x86 VM
with one BLAS thread, the 10.5 px detector's difference of Gaussians took
1.0 ms against scipy's 4.4 ms on 176 x 128 and 23 against 46 ms on
512 x 512; it broke even on 64 x 2048 (16 ms, the ensemble's six width
operators holding 96 MiB) and lost on 64 x 4096 (59 against 37 ms).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import reading

NORM_LO = -127.5
NORM_HI = 127.5
PGM_MAXVAL = 65535


def _as_readonly(data: np.ndarray, ndim: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"expected {ndim}D data, got shape {arr.shape}")
    if 0 in arr.shape:
        raise ValueError(f"every axis needs length >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data contains non-finite values")
    arr = np.ascontiguousarray(arr).view()  # a frozen view leaves the caller's array writable
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """A 2D intensity grid. `data` is read-only, shape (height, width)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_readonly(self.data, 2))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, ImageGrid) and np.array_equal(self.data, other.data)


@dataclass(frozen=True, eq=False)
class Volume:
    """An ordered stack of co-registered slices. `data` is read-only,
    shape (n_slices, height, width)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_readonly(self.data, 3))

    @property
    def n_slices(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def slice(self, i: int) -> ImageGrid:
        """Slice i as a 2D grid (a read-only view, no copy)."""
        return ImageGrid(self.data[i])


def _affine(data: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(data - lo) / (hi - lo) * 255 - 127.5 in one buffer; a degenerate range maps to zeros."""
    if hi == lo:
        return np.zeros_like(data)
    out = np.subtract(data, lo)
    out /= hi - lo
    out *= NORM_HI - NORM_LO
    out += NORM_LO
    return out


def normalize_range(img: ImageGrid) -> ImageGrid:
    """Affinely map intensities onto [-127.5, 127.5].

    The minimum maps to -127.5 and the maximum to +127.5 exactly; a
    constant image maps to all zeros.
    """
    return ImageGrid(_affine(img.data, img.data.min(), img.data.max()))


def normalize_volume(vol: Volume) -> Volume:
    """Map a volume onto [-127.5, 127.5] with one affine for all slices.

    A shared mapping keeps slice intensities mutually comparable, which
    per-slice normalization would destroy. A constant volume maps to zeros.
    """
    return Volume(_affine(vol.data, vol.data.min(), vol.data.max()))


# ---------------------------------------------------------------------------
# scipy.ndimage filters, imported on first call: importing scipy.ndimage
# takes about as long as the rest of the CLI's start-up, and stages that
# never filter an image (every `eval`) should not pay for it. phantom and
# scorer bind these names at import time, so they stay module attributes.
# ---------------------------------------------------------------------------


def gaussian_filter(input, sigma, **kwargs):
    """`scipy.ndimage.gaussian_filter(input, sigma, **kwargs)`."""
    from scipy.ndimage import gaussian_filter as impl

    return impl(input, sigma, **kwargs)


def maximum_filter(input, **kwargs):
    """`scipy.ndimage.maximum_filter(input, **kwargs)`."""
    from scipy.ndimage import maximum_filter as impl

    return impl(input, **kwargs)


# ---------------------------------------------------------------------------
# Folded one-axis operators. A mirror-symmetric filter along an axis of
# length n, such as a `nearest`-mode Gaussian, is a centrosymmetric n x n
# matrix M (M[n-1-i, n-1-j] == M[i, j]). With a the first half of the
# input and b its reversed second half, the output's first half is
# E (a + b) + O (a - b) and its reversed second half E (a + b) - O (a - b),
# where E and O are half the sum and difference of M's top-left block and
# its column mirror. That is half the multiply-adds of M, and the result
# is mirror-equivariant bit for bit, up to the sign of a zero: reversing
# the input swaps a and b, which leaves a + b bitwise unchanged and
# negates a - b exactly, except that a zero a - b is +0.0 either way, so
# an output that sums to zero can be +0.0 on one side and -0.0 on the
# other. The two zeros compare equal, so no score or box depends on it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FoldedOperator:
    """Read-only even and odd halves, each k x k with k = ceil(n / 2), of
    a centrosymmetric operator along an axis of length n."""

    even: np.ndarray
    odd: np.ndarray
    n: int


def fold_operator(matrix: np.ndarray) -> FoldedOperator:
    """Fold a centrosymmetric n x n operator; only its first ceil(n / 2)
    rows are read, and the folded form applies their mirror below.

    For odd n the middle column counts once in the even half (a + b holds
    the middle sample twice), and the odd half is zero in the middle row,
    so the middle output is the same from either half.
    """
    n = matrix.shape[0]
    k = n - n // 2
    top = matrix[:k]
    near, far = top[:, :k], top[:, ::-1][:, :k]
    even = 0.5 * (near + far)
    odd = 0.5 * (near - far)
    if n % 2:
        even[:, -1] = 0.5 * top[:, k - 1]
        odd[-1] = 0.0
    even.flags.writeable = False
    odd.flags.writeable = False
    return FoldedOperator(even, odd, n)


def _apply_last_axis(op: FoldedOperator, x: np.ndarray) -> np.ndarray:
    if x.shape[-1] != op.n:
        raise ValueError(f"operator is for length {op.n}, axis has length {x.shape[-1]}")
    k = op.even.shape[0]
    a = x[..., :k]
    b = x[..., ::-1][..., :k]
    s = (a + b) @ op.even.T
    d = (a - b) @ op.odd.T
    out = np.empty(x.shape)
    np.add(s, d, out=out[..., :k])
    h = op.n - k
    np.subtract(s[..., :h], d[..., :h], out=out[..., ::-1][..., :h])
    return out


def apply_folded(data: np.ndarray, rows: FoldedOperator, cols: FoldedOperator) -> np.ndarray:
    """Apply `rows` along axis 0 of a 2D array, then `cols` along axis 1,
    each half of each pass as one matrix product."""
    return _apply_last_axis(cols, _apply_last_axis(rows, data.T).T)


# ---------------------------------------------------------------------------
# File IO: binary PGM (P5), maxval 65535, big-endian samples.
# ---------------------------------------------------------------------------


def write_pgm(img: ImageGrid, path: str | Path) -> None:
    """Write a binary 16-bit PGM. Values are rounded and clipped to [0, 65535]."""
    quant = np.clip(np.rint(img.data), 0, PGM_MAXVAL).astype(">u2")
    header = f"P5\n{img.width} {img.height}\n{PGM_MAXVAL}\n".encode("ascii")
    Path(path).write_bytes(header + quant.tobytes())


def _read_pgm_tokens(raw: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, skipping comments."""
    tokens: list[int] = []
    i = 0
    while len(tokens) < count:
        if i >= len(raw):
            raise ValueError("truncated PGM header")
        c = raw[i : i + 1]
        if c == b"#":
            while i < len(raw) and raw[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j : j + 1].isspace() and raw[j : j + 1] != b"#":
                j += 1
            tokens.append(int(raw[i:j]))
            i = j
    return tokens, i


def read_pgm(path: str | Path) -> ImageGrid:
    """Read a binary PGM (P5) with maxval up to 65535. A missing,
    unreadable or malformed file raises ValueError naming it."""
    with reading(path):
        raw = Path(path).read_bytes()
        if raw[:2] != b"P5":
            raise ValueError("not a binary PGM (missing P5 magic)")
        (width, height, maxval), pos = _read_pgm_tokens(raw[2:], 3)
        pos += 2  # magic bytes
        if width < 1 or height < 1:
            raise ValueError(f"invalid dimensions {width}x{height}")
        if not 0 < maxval <= PGM_MAXVAL:
            raise ValueError(f"unsupported maxval {maxval}")
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        n = width * height
        if len(raw) - pos < n * dtype.itemsize:
            raise ValueError("truncated raster")
    data = np.frombuffer(raw, dtype=dtype, count=n, offset=pos)
    return ImageGrid(data.reshape(height, width).astype(np.float64))


def write_volume(vol: Volume, directory: str | Path) -> None:
    """Write a volume as a directory of PGM slices plus manifest.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = [f"slice_{i:04d}.pgm" for i in range(vol.n_slices)]
    for i, name in enumerate(names):
        write_pgm(vol.slice(i), directory / name)
    manifest = {
        "width": vol.width,
        "height": vol.height,
        "slice_count": vol.n_slices,
        "slices": names,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def read_json(path: str | Path):
    """Parse a JSON file; a missing or unreadable file, or bytes that are
    not UTF-8 JSON, raise ValueError naming it."""
    with reading(path):
        try:
            return json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"invalid JSON: {exc}") from exc


def _read_manifest(directory: Path) -> dict:
    path = directory / "manifest.json"
    manifest = read_json(path)
    with reading(path):
        if not (
            isinstance(manifest, dict)
            and isinstance(manifest.get("slices"), list)
            and all(isinstance(name, str) for name in manifest["slices"])
            and all(_is_count(manifest.get(k)) for k in ("slice_count", "width", "height"))
        ):
            raise ValueError(
                "manifest needs a 'slices' list of file names and positive "
                "integer 'slice_count', 'width' and 'height'"
            )
        if len(manifest["slices"]) != manifest["slice_count"]:
            raise ValueError("manifest slice_count mismatch")
    return manifest


def volume_shape(directory: str | Path) -> tuple[int, int, int]:
    """(n_slices, height, width) of a volume written by write_volume, from
    its manifest alone; a malformed manifest raises as in read_volume."""
    manifest = _read_manifest(Path(directory))
    return manifest["slice_count"], manifest["height"], manifest["width"]


def read_volume(directory: str | Path) -> Volume:
    """Read a volume written by write_volume.

    A missing, unreadable or malformed manifest or slice, or a slice that
    disagrees with the manifest, raises ValueError naming the offending
    file.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    names = manifest["slices"]
    shape = (manifest["height"], manifest["width"])
    planes = []
    for name in names:
        img = read_pgm(directory / name)
        with reading(directory / name):
            if img.data.shape != shape:
                raise ValueError(
                    f"slice is {img.width}x{img.height}, manifest says {shape[1]}x{shape[0]}"
                )
        planes.append(img.data)
    return Volume(np.stack(planes))

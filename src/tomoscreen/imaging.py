"""Intensity grids, volumes, intensity normalization, and portable file IO.

Images are immutable 2D float64 grids; a volume is one immutable 3D
float64 array. The on-disk format is binary PGM (P5) with maxval 65535,
big-endian samples; volumes are a directory of one PGM per slice plus a
manifest.json. Writing quantizes to 16-bit unsigned, so round trips are
bit-exact for integer-valued grids in [0, 65535].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    arr = np.ascontiguousarray(arr)
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
    """Map [lo, hi] onto [-127.5, 127.5]; a degenerate range maps to zeros."""
    if hi == lo:
        return np.zeros_like(data)
    return (data - lo) / (hi - lo) * (NORM_HI - NORM_LO) + NORM_LO


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
    """Read a binary PGM (P5) with maxval up to 65535."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (missing P5 magic)")
    try:
        (width, height, maxval), pos = _read_pgm_tokens(raw[2:], 3)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    pos += 2  # magic bytes
    if width < 1 or height < 1:
        raise ValueError(f"{path}: invalid dimensions {width}x{height}")
    if not 0 < maxval <= PGM_MAXVAL:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    n = width * height
    if len(raw) - pos < n * dtype.itemsize:
        raise ValueError(f"{path}: truncated raster")
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
    """Parse a JSON file; bytes that are not UTF-8 JSON raise ValueError
    naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def read_volume(directory: str | Path) -> Volume:
    """Read a volume written by write_volume.

    A malformed manifest, or a slice that disagrees with it, raises
    ValueError naming the offending file.
    """
    directory = Path(directory)
    path = directory / "manifest.json"
    manifest = read_json(path)
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("slices"), list)
        and all(isinstance(name, str) for name in manifest["slices"])
        and all(_is_count(manifest.get(k)) for k in ("slice_count", "width", "height"))
    ):
        raise ValueError(
            f"{path}: manifest needs a 'slices' list of file names and positive "
            "integer 'slice_count', 'width' and 'height'"
        )
    names = manifest["slices"]
    if len(names) != manifest["slice_count"]:
        raise ValueError(f"{path}: manifest slice_count mismatch")
    shape = (manifest["height"], manifest["width"])
    planes = []
    for name in names:
        img = read_pgm(directory / name)
        if img.data.shape != shape:
            raise ValueError(
                f"{directory / name}: slice is {img.width}x{img.height}, "
                f"manifest says {shape[1]}x{shape[0]}"
            )
        planes.append(img.data)
    return Volume(np.stack(planes))

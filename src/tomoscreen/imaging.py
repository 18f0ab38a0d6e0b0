"""Intensity grids, volumes, intensity normalization, the Gaussian filter
on folded one-axis operators, and every file writer.

Images are immutable 2D float64 grids. A volume is a case's 16-bit
samples: one immutable uint16 (slices, height, width) stack plus the one
affine, from the stack's range, that maps every slice onto [-127.5, 127.5].
Normalized float64 data exists one slice or one patch at a time
(`Volume.slice`, `Volume.patch`): the affine is elementwise, so each
equals the matching part of the whole stack normalized at once, bit for
bit. `quantize` is the one 16-bit mapping: round half to even, then clip
to [0, 65535]. Its one caller is phantom's render, which quantizes each
slice into the sample stack, so each stage scores exactly the samples
`phantom gen` writes.

Each file format a stage writes has one writer here: `write_json` (two-space
indent, sorted keys, a final newline), `write_csv` (the csv module's
default dialect, LF line ends) and `write_pgm` (binary 16-bit PGM, P5 with
maxval 65535 and big-endian samples, of uint16 samples as they are: no
float pass). `write_volume` writes a directory of one PGM per
slice plus a manifest.json through them. `read_pgm` returns a PGM's raw
samples; `read_volume` and `read_json` read back the rest.

`gaussian_filter(data, sigma)` is the one Gaussian smoothing: scipy's
`nearest`-mode kernel applied along both axes of a 2D array as two folded
operators from `gaussian_operator`, the one builder and the one cache.
Each operator equals scipy's filter of the identity bit for bit, and the
smoothed image matches scipy's filter to rounding. It is the only filter
here: the detector's peak test lives in `scorer`. No stage imports scipy.

An operator is built from its kernel band with O(n r) multiply-adds but
stored dense: applying it costs in proportion to the axis length n, not
the kernel radius r, and each holds 4 n**2 bytes. On a 2-core x86 VM with
one BLAS thread, the 10.5 px detector's difference of Gaussians took
1.0 ms against scipy's 4.4 ms on 176 x 128 and 23 against 46 ms on
512 x 512; it broke even on 64 x 2048 (16 ms, the ensemble's six width
operators holding 96 MiB) and lost on 64 x 4096 (59 against 37 ms).
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import reading

NORM_LO = -127.5
NORM_HI = 127.5
PGM_MAXVAL = 65535
_WHOLE = slice(None)


def _as_readonly(data: np.ndarray, ndim: int, dtype=np.float64) -> np.ndarray:
    """A read-only view of `data` as a C-contiguous `dtype` array of `ndim`
    axes, each of length >= 1. Float data is converted and must be finite;
    integer data must already be `dtype`, so it needs no finiteness pass."""
    if np.dtype(dtype).kind == "f":
        arr = np.asarray(data, dtype=dtype)
    else:
        arr = np.asarray(data)
        if arr.dtype != dtype:
            raise ValueError(f"expected {np.dtype(dtype)} samples, got {arr.dtype}")
    if arr.ndim != ndim:
        raise ValueError(f"expected {ndim}D data, got shape {arr.shape}")
    if 0 in arr.shape:
        raise ValueError(f"every axis needs length >= 1, got shape {arr.shape}")
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
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


def _affine(data: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(data - lo) / (hi - lo) * 255 - 127.5 as a new float64 array, worked in that one
    buffer; the subtraction casts integer samples to float64 exactly as it reads them. A
    degenerate range maps to zeros."""
    if hi == lo:
        return np.zeros(data.shape)
    out = np.subtract(data, lo, dtype=np.float64)
    out /= hi - lo
    out *= NORM_HI - NORM_LO
    out += NORM_LO
    return out


@dataclass(frozen=True, eq=False)
class Volume:
    """An ordered stack of co-registered 16-bit slices and the one affine
    that normalizes them all.

    `samples` is read-only uint16, shape (n_slices, height, width); `lo` and
    `hi`, its smallest and largest sample, fix the affine. A shared mapping
    keeps slice intensities mutually comparable, which per-slice
    normalization would destroy. Normalized data is made on demand, one
    slice or patch at a time.
    """

    samples: np.ndarray
    lo: float = field(init=False)
    hi: float = field(init=False)

    def __post_init__(self):
        samples = _as_readonly(self.samples, 3, np.uint16)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "lo", float(samples.min()))
        object.__setattr__(self, "hi", float(samples.max()))

    @property
    def n_slices(self) -> int:
        return self.samples.shape[0]

    def patch(self, i: int, ys: slice = _WHOLE, xs: slice = _WHOLE) -> np.ndarray:
        """The rows `ys` and columns `xs` of slice i, normalized: `_affine` of
        those samples cast to float64, as a new writable array. Elementwise,
        so it equals the same pixels of the whole stack normalized at once,
        bit for bit; a constant volume gives zeros."""
        return _affine(self.samples[i, ys, xs], self.lo, self.hi)

    def slice(self, i: int) -> ImageGrid:
        """Slice i, normalized, as a 2D grid of its own."""
        return ImageGrid(self.patch(i))


def normalize_range(data: np.ndarray) -> ImageGrid:
    """The 2D grid of a 2D array's intensities affinely mapped onto
    [-127.5, 127.5]: integer samples are cast to float64 as they are read.

    The minimum maps to -127.5 and the maximum to +127.5 exactly; a
    constant array maps to all zeros.
    """
    return ImageGrid(_affine(data, float(data.min()), float(data.max())))


def normalize_volume(samples: np.ndarray) -> Volume:
    """The Volume of a uint16 sample stack of shape (n_slices, height,
    width): its range is read once, and its slices are then normalized
    onto [-127.5, 127.5] with one affine as they are asked for. A
    constant volume maps to zeros.

    No sample is copied or changed: the Volume holds a read-only view, so
    the caller must not write to `samples` while the Volume is in use.
    """
    return Volume(samples)


# ---------------------------------------------------------------------------
# The Gaussian kernel, in numpy; the tests keep scipy.ndimage as its
# oracle.
# ---------------------------------------------------------------------------


def gaussian_kernel(sigma: float) -> np.ndarray:
    """scipy.ndimage's Gaussian taps for `sigma` at truncate 4: radius
    r = int(4 sigma + 0.5), exp(-0.5 / sigma**2 * x**2) / sum for x in
    [-r, r]. The taps are symmetric bit for bit. At r = 0 (sigma below
    0.125) the kernel is [1.0], scipy's for every such sigma, without the
    division by a sigma**2 that can underflow to zero."""
    sigma = float(sigma)
    radius = int(4.0 * sigma + 0.5)
    if radius == 0:
        return np.ones(1)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return phi / phi.sum()


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


def _fold_into(top: np.ndarray, even: np.ndarray, odd: np.ndarray) -> None:
    """Fold the rows `top` of a centrosymmetric operator of n columns into
    `even` and `odd`, preallocated (rows, ceil(n / 2)) arrays, with no
    temporaries; `top` may be any view, strided or reversed.

    For odd n the middle column counts once in the even half (a + b holds
    the middle sample twice), and the odd half is zero in the middle row,
    so the middle output is the same from either half.
    """
    n = top.shape[1]
    k = n - n // 2
    near, far = top[:, :k], top[:, ::-1][:, :k]
    np.add(near, far, out=even)
    np.subtract(near, far, out=odd)
    even *= 0.5
    odd *= 0.5
    if n % 2:
        np.multiply(top[:, k - 1], 0.5, out=even[:, -1])
        odd[-1] = 0.0


@functools.lru_cache(maxsize=32)
def gaussian_operator(n: int, sigma: float) -> FoldedOperator:
    """The folded `nearest`-mode Gaussian along an axis of length n: the
    operator whose column j is scipy's filter of the unit impulse at j.
    Built once per (n, sigma) and cached read-only.

    Clamping only ever moves a sample to an end of the axis, so every
    column but 0 and n - 1 holds at most one kernel tap per entry, tap
    r + j - i in row i. The top ceil(n / 2) rows, a strided view of the
    zero-padded kernel, fold straight into the even and odd halves. The
    end columns are summed tap by tap in scipy's `correlate1d` order: the
    centre tap, then for j = r ... 1 tap j times the count of its clamped
    sources, max(i - j, 0) and min(i + j, n - 1), that are the end. They
    fold into column 0 alone and replace it. Bit for bit the fold of the
    filtered identity, with O(n r) multiply-adds instead of the
    identity's O(n**2 r), and no array beyond the two k x k halves it
    keeps and O(n) scratch.
    """
    k = n - n // 2
    even = np.empty((k, k))  # the two halves are all the build keeps, so a grid
    odd = np.empty((k, k))  # too large for memory fails here, before any work
    taps = gaussian_kernel(sigma)
    r = len(taps) // 2
    pad = np.zeros(max(n - 1 - r, 0))
    band = np.concatenate([pad, taps, pad])
    windows = np.lib.stride_tricks.sliding_window_view(band, n)
    start = len(pad) + r
    _fold_into(windows[start - k + 1 : start + 1][::-1], even, odd)  # row i starts at tap r - i
    ends = np.unique([0, n - 1])  # one column when the ends coincide
    rows = np.arange(k)[:, None]
    columns = (rows == ends) * taps[r]
    for j in range(r, 0, -1):  # 0, 1 or 2 clamped sources of tap j hit an end
        hits = (np.maximum(rows - j, 0) == ends).astype(np.intp)
        hits += np.minimum(rows + j, n - 1) == ends
        columns += hits * taps[r - j]
    _fold_into(columns, even[:, :1], odd[:, :1])
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


def gaussian_filter(data: np.ndarray, sigma: float) -> np.ndarray:
    """scipy.ndimage's `nearest`-mode Gaussian of a 2D float64 array along
    both axes, to rounding: `gaussian_operator` of each axis, applied folded.
    phantom and scorer call it through their own module-level name, where
    perfbench counts its taps."""
    height, width = data.shape
    return apply_folded(data, gaussian_operator(height, sigma), gaussian_operator(width, sigma))


# ---------------------------------------------------------------------------
# File IO: one writer per format. PGMs are binary (P5), maxval 65535,
# big-endian samples.
# ---------------------------------------------------------------------------


def quantize(data: np.ndarray, out: np.ndarray) -> int:
    """Round float `data` half to even, then clip to [0, 65535], into `out`, a
    uint16 array of data's shape: the samples a 16-bit PGM stores. Returns the
    count of values whose rounded value fell outside [0, 65535]. Works through
    one float64 temporary the size of `data`, so a volume is quantized slice by
    slice."""
    rounded = np.rint(data)
    clipped = int(np.count_nonzero(rounded < 0)) + int(np.count_nonzero(rounded > PGM_MAXVAL))
    np.clip(rounded, 0, PGM_MAXVAL, out=rounded)
    np.copyto(out, rounded, casting="unsafe")  # exact: integers in [0, 65535]
    return clipped


def write_json(data, path: str | Path) -> None:
    """Write `data` as JSON with a two-space indent, sorted keys and a final
    newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_csv(path: str | Path, header: list[str] | tuple[str, ...], rows) -> None:
    """Write `header`, then each row of `rows`, as CSV with LF line ends,
    quoting only the fields that need it; None writes as an empty field."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_pgm(samples: np.ndarray, path: str | Path) -> None:
    """Write a 2D uint16 array as a binary 16-bit PGM: the header, then the
    samples as big-endian words. Any other array raises ValueError."""
    samples = _as_readonly(samples, 2, np.uint16)
    height, width = samples.shape
    header = f"P5\n{width} {height}\n{PGM_MAXVAL}\n".encode("ascii")
    Path(path).write_bytes(header + samples.astype(">u2").tobytes())


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


def read_pgm(path: str | Path) -> np.ndarray:
    """The samples of a binary PGM (P5) with maxval up to 65535, as a
    read-only (height, width) view of its bytes (unsigned 8- or big-endian
    16-bit). A missing, unreadable or malformed file raises ValueError
    naming it."""
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
    return np.frombuffer(raw, dtype=dtype, count=n, offset=pos).reshape(height, width)


def write_volume(samples: np.ndarray, directory: str | Path) -> None:
    """Write a uint16 sample stack of shape (n_slices, height, width) as a
    directory of PGM slices plus manifest.json."""
    samples = _as_readonly(samples, 3, np.uint16)
    n_slices, height, width = samples.shape
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = [f"slice_{i:04d}.pgm" for i in range(n_slices)]
    for plane, name in zip(samples, names):
        write_pgm(plane, directory / name)
    manifest = {"width": width, "height": height, "slice_count": n_slices, "slices": names}
    write_json(manifest, directory / "manifest.json")


_KINDS = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def is_kind(value, kind: str) -> bool:
    """Whether a parsed JSON value is of the annotated `kind`, by its exact
    type: "int" is an int and "float" an int or float, never a bool; "bool"
    and "str" are exactly those; any "tuple[float..." is a list or tuple of
    numbers. Finiteness is left to the value checks that report it."""
    if kind.startswith("tuple[float"):
        return type(value) in (list, tuple) and all(is_kind(v, "float") for v in value)
    return type(value) in _KINDS[kind]


def read_json(path: str | Path):
    """Parse a JSON file; a missing or unreadable file, or bytes that are
    not UTF-8 JSON, raise ValueError naming it."""
    with reading(path):
        try:
            return json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"invalid JSON: {exc}") from exc


def read_volume(directory: str | Path) -> np.ndarray:
    """Read a volume written by write_volume into a new writable uint16
    stack of shape (n_slices, height, width), each raster's samples going
    straight into it; the caller owns the stack, to hand to
    normalize_volume.

    A missing, unreadable or malformed manifest or slice, or a slice that
    disagrees with the manifest, raises ValueError naming the offending
    file. The first slice is checked before the stack is allocated, so a
    manifest that claims a larger grid than its slices fails there. An
    8-bit slice reads as its values.
    """
    directory = Path(directory)
    path = directory / "manifest.json"
    manifest = read_json(path)
    with reading(path):
        if not (
            isinstance(manifest, dict)
            and isinstance(manifest.get("slices"), list)
            and all(is_kind(name, "str") for name in manifest["slices"])
            and all(is_kind(manifest.get(k), "int") for k in ("slice_count", "width", "height"))
            and min(manifest["slice_count"], manifest["width"], manifest["height"]) >= 1
        ):
            raise ValueError(
                "manifest needs a 'slices' list of file names and positive "
                "integer 'slice_count', 'width' and 'height'"
            )
        if len(manifest["slices"]) != manifest["slice_count"]:
            raise ValueError("manifest slice_count mismatch")
    names = manifest["slices"]
    shape = (manifest["height"], manifest["width"])

    def samples(name: str) -> np.ndarray:
        raster = read_pgm(directory / name)
        with reading(directory / name):
            if raster.shape != shape:
                raise ValueError(
                    f"slice is {raster.shape[1]}x{raster.shape[0]}, "
                    f"manifest says {shape[1]}x{shape[0]}"
                )
        return raster

    first = samples(names[0])
    stack = np.empty((len(names), *shape), dtype=np.uint16)
    stack[0] = first
    for plane, name in zip(stack[1:], names[1:]):
        plane[...] = samples(name)
    return stack

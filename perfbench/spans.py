"""Spans and counters around calls into tomoscreen's public functions.

The wrappers are installed from outside the package, at every place a
target function is bound: its defining module and each tomoscreen module
that imported it by name. A span records (id, parent, thread, name,
start, end); spans nest per thread and stay in memory until `dump`.
Counters are taken from arguments and return values at the same
boundaries. A target that no longer exists is skipped, so a span that
stops firing after a refactor reads as zero instead of failing the run.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute path) of every timed function; the span name is
# "<module>.<attribute path>".
SPAN_TARGETS = (
    ("phantom", "generate_case"),
    ("imaging", "write_volume"),
    ("imaging", "read_volume"),
    ("imaging", "normalize_volume"),
    ("scorer", "BlobScorer.detect"),
    ("scorer", "ensemble_image_score"),
    ("boxes", "nms"),
    ("condense", "aggregate_boxes"),
    ("condense", "build_optimized_image"),
    ("condense", "study_max_box_score"),
    ("miltrain", "train"),
    ("stats", "bootstrap_ci"),
    ("stats", "paired_delta_pvalue"),
    ("stats", "size_matched_auc"),
    ("stats", "delong_test"),
    ("stats", "enumerate_panels"),
    ("stats", "roc_and_auc"),
    ("stats", "read_cases_csv"),
    ("cli", "_parallel_map"),
)

# Calls counted without a span: a span here would move their time out
# of the caller's self time, which is where the layer's work belongs.
COUNT_TARGETS = (
    ("miltrain", "extract_patch_features"),
)

# scipy's gaussian_filter as bound in these modules; the taps it applies
# are computed from each call's shape and sigma.
GAUSSIAN_TAP_COUNTERS = (
    ("phantom", "phantom.texture_filter_taps"),
    ("scorer", "scorer.dog_taps"),
)

ROOT_SPAN = "cli.main"
PARALLEL_MAP = "cli._parallel_map"


class Recorder:
    """Thread-safe in-memory store of spans and counters."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.parallel_maps: list[dict] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name` on the calling thread."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, threading.get_ident(), name, start, end))

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "parallel_maps": list(self.parallel_maps),
        }


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: total self time (duration minus direct children's
    durations), total duration and call count, summed over threads.

    `spans` holds (id, parent, thread, name, start, end) rows; children
    always run on their parent's thread, so they tile disjoint parts of
    the parent's interval.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, _, _, name, start, end in spans:
        agg = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        agg["self_s"] += (end - start) - child_time[sid]
        agg["total_s"] += end - start
        agg["calls"] += 1
    return out


def gaussian_taps(shape, sigma, truncate: float = 4.0, axes=None) -> int:
    """Multiply-adds of a separable scipy.ndimage.gaussian_filter call:
    every output element takes 2*radius+1 taps per filtered axis, with
    radius = int(truncate * sigma + 0.5) as scipy computes it."""
    ndim = len(shape)
    axes = range(ndim) if axes is None else [a % ndim for a in axes]
    sigmas = sigma if isinstance(sigma, (list, tuple)) else [sigma] * ndim
    size = math.prod(shape)
    per_element = 0
    for ax in axes:
        s = float(sigmas[ax])
        if s > 1e-15:
            per_element += 2 * int(truncate * s + 0.5) + 1
    return size * per_element


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _after_write_volume(rec, args, kwargs, result):
    rec.add("imaging.bytes_written", _dir_bytes(_arg(args, kwargs, 1, "directory")))


def _after_read_volume(rec, args, kwargs, result):
    rec.add("imaging.bytes_read", _dir_bytes(_arg(args, kwargs, 0, "directory")))


def _after_detect(rec, args, kwargs, result):
    rec.add("scorer.boxes_detected", len(result))


def _after_nms(rec, args, kwargs, result):
    rec.add("boxes.nms.boxes_in", len(_arg(args, kwargs, 0, "boxes")))
    rec.add("boxes.nms.boxes_kept", len(result))


def _after_train(rec, args, kwargs, result):
    rec.add("miltrain.iterations", len(result.loss_trajectory))


def _after_bootstrap(rec, args, kwargs, result):
    rec.add("stats.bootstrap_ci.resamples", result.n_resamples)
    rec.add("stats.bootstrap_ci.redraws", result.n_redraws)


def _after_paired_delta(rec, args, kwargs, result):
    rec.add("stats.paired_delta_pvalue.redraws", result.n_redraws)


def _after_size_matched(rec, args, kwargs, result):
    rec.add("stats.size_matched_auc.populations", result.n_populations)


def _after_delong(rec, args, kwargs, result):
    # One float64 n_pos x n_neg psi matrix per score vector.
    labels = _arg(args, kwargs, 2, "labels")
    n_pos = sum(1 for y in labels if y)
    rec.add("stats.delong_test.psi_bytes", 2 * 8 * n_pos * (len(labels) - n_pos))


AFTER = {
    "imaging.write_volume": _after_write_volume,
    "imaging.read_volume": _after_read_volume,
    "scorer.BlobScorer.detect": _after_detect,
    "boxes.nms": _after_nms,
    "miltrain.train": _after_train,
    "stats.bootstrap_ci": _after_bootstrap,
    "stats.paired_delta_pvalue": _after_paired_delta,
    "stats.size_matched_auc": _after_size_matched,
    "stats.delong_test": _after_delong,
}


def _span_wrapper(rec: Recorder, name: str, fn):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(name, fn, *args, **kwargs)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return wrapper


def _parallel_map_wrapper(rec: Recorder, fn):
    """Span around the pooled map plus the busy time of its items."""

    @functools.wraps(fn)
    def wrapper(item_fn, items, threads, *rest, **kwargs):
        busy = [0.0]
        lock = threading.Lock()

        def timed(item):
            start = perf_counter()
            try:
                return item_fn(item)
            finally:
                dt = perf_counter() - start
                with lock:
                    busy[0] += dt

        start = perf_counter()
        try:
            return rec.call(PARALLEL_MAP, fn, timed, items, threads, *rest, **kwargs)
        finally:
            rec.parallel_maps.append(
                {"threads": threads, "wall_s": perf_counter() - start, "busy_s": busy[0]}
            )

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add(name + ".calls", 1)
        return fn(*args, **kwargs)

    return wrapper


def _tap_wrapper(rec: Recorder, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(input, sigma, *args, **kwargs):
        truncate = kwargs.get("truncate", 4.0)
        axes = kwargs.get("axes")
        rec.add(counter, gaussian_taps(getattr(input, "shape", ()), sigma, truncate, axes))
        return fn(input, sigma, *args, **kwargs)

    return wrapper


def _package_modules(package: str):
    prefix = package + "."
    return [m for n, m in list(sys.modules.items()) if n == package or n.startswith(prefix)]


def _rebind(package: str, original, replacement) -> None:
    """Point every module-level name in the package bound to `original`
    at `replacement`."""
    for module in _package_modules(package):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _resolve(package: str, module: str, path: str):
    owner = sys.modules.get(f"{package}.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None, None
    return owner, getattr(owner, parts[-1])


def instrument(rec: Recorder, package: str = "tomoscreen") -> list[str]:
    """Install every wrapper; returns the names of targets not found.

    The package's modules must already be imported.
    """
    missing = []
    for module, path in SPAN_TARGETS + COUNT_TARGETS:
        name = f"{module}.{path}"
        owner, fn = _resolve(package, module, path)
        if fn is None:
            missing.append(name)
            continue
        if name == PARALLEL_MAP:
            wrapped = _parallel_map_wrapper(rec, fn)
        elif (module, path) in COUNT_TARGETS:
            wrapped = _count_wrapper(rec, name, fn)
        else:
            wrapped = _span_wrapper(rec, name, fn)
        if isinstance(owner, type):
            setattr(owner, path.split(".")[-1], wrapped)
        else:
            _rebind(package, fn, wrapped)
    for module, counter in GAUSSIAN_TAP_COUNTERS:
        mod = sys.modules.get(f"{package}.{module}")
        fn = getattr(mod, "gaussian_filter", None)
        if fn is None:
            missing.append(f"{module}.gaussian_filter")
            continue
        setattr(mod, "gaussian_filter", _tap_wrapper(rec, counter, fn))
    return missing

"""Tests of the benchmark itself: span arithmetic, instrumentation,
BENCHMARK.json validity and a tiny-scale run of every workload."""

from __future__ import annotations

import json
import re
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_SMALL = {"width": 64, "height": 64, "n_slices": 6, "n_cancer": 8, "n_negative": 8,
          "n_resamples": 100}
TINY = workloads.Scale(
    cohort_config={**_SMALL, "n_train_cancer": 3, "n_train_negative": 3, "iterations": 10},
    report_config={**_SMALL, "n_validation": 2, "n_populations": 50},
    reader_config={"n_resamples": 100, "n_populations": 50},
    reader_table_cases=80,
    delong_table_cases=200,
    setup_runs=1,
)


def test_self_time_subtracts_children_and_sums_over_threads():
    # (id, parent, thread, name, start, end)
    tree = [
        (1, None, 1, "root", 0.0, 10.0),
        (2, 1, 1, "work", 1.0, 4.0),
        (3, 2, 1, "leaf", 2.0, 3.0),
        (4, 1, 1, "leaf", 5.0, 6.0),
        (5, None, 2, "work", 0.0, 5.0),
        (6, 5, 2, "leaf", 1.0, 2.5),
    ]
    got = spans.self_times(tree)
    assert got["root"] == {"self_s": 6.0, "total_s": 10.0, "calls": 1}
    assert got["work"] == {"self_s": 2.0 + 3.5, "total_s": 8.0, "calls": 2}
    assert got["leaf"] == {"self_s": 3.5, "total_s": 3.5, "calls": 3}


def test_recorder_nests_spans_per_thread():
    rec = spans.Recorder()

    def inner():
        return rec.call("inner", lambda: 1)

    def outer():
        return rec.call("outer", inner)

    worker = threading.Thread(target=inner)
    rec.call("root", lambda: (outer(), worker.start(), worker.join(timeout=10)))
    assert not worker.is_alive()
    by_id = {s[0]: s for s in rec.spans}
    parent_name = {
        (s[3], s[2]): by_id[s[1]][3] if s[1] is not None else None for s in rec.spans
    }
    main = threading.get_ident()
    assert parent_name[("root", main)] is None
    assert parent_name[("outer", main)] == "root"
    assert parent_name[("inner", main)] == "outer"
    assert parent_name[("inner", worker.ident)] is None


def test_gaussian_taps_match_scipy_kernel_support():
    for sigma in (0.7, 2.0, 7.42, 24.0):
        impulse = np.zeros(801)
        impulse[400] = 1.0
        support = int(np.count_nonzero(gaussian_filter1d(impulse, sigma, truncate=4.0)))
        assert spans.gaussian_taps((801,), sigma) == 801 * support
    assert spans.gaussian_taps((10, 20), 2.0) == 200 * 2 * 17


def test_instrument_rebinds_import_sites_and_skips_missing(monkeypatch):
    boxes = types.ModuleType("fakepkg.boxes")
    boxes.nms = lambda boxes, iou_threshold: boxes[:1]
    cli = types.ModuleType("fakepkg.cli")
    cli.nms = boxes.nms
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.boxes", boxes)
    monkeypatch.setitem(sys.modules, "fakepkg.cli", cli)

    rec = spans.Recorder()
    missing = spans.instrument(rec, package="fakepkg")
    assert "boxes.nms" not in missing and "phantom.generate_case" in missing
    assert cli.nms is boxes.nms
    assert cli.nms([1, 2, 3], 0.5) == [1]
    assert [s[3] for s in rec.spans] == ["boxes.nms"]
    assert rec.counts["boxes.nms.boxes_in"] == 3 and rec.counts["boxes.nms.boxes_kept"] == 1
    metrics = run.layer_metrics([rec.dump()])
    assert metrics["boxes.nms.calls"] == 1 and metrics["boxes.nms.keep_ratio"] == 1 / 3
    assert metrics["phantom.generate_case.self_s"] == 0.0


def test_benchmark_json_names_units_and_bounds():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WHY)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_tiny_run_is_correct_and_reports_every_metric(workload, tmp_path):
    traced = run.run_workload(workload, 5, 0, True, tmp_path / "traced", TINY)
    assert traced["failures"] == []
    assert set(traced["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["missing_targets"] == []
    untraced = run.run_workload(workload, 5, 0, False, tmp_path / "untraced", TINY)
    assert untraced["failures"] == [] and untraced["repetitions"] >= 2
    assert set(untraced["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert untraced["bundle_sha256"] == traced["bundle_sha256"]
    assert all(v > 0 for v in untraced["end_to_end"].values())


def test_pairwise_auc_counts_ties_as_half(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("case_id,label,score\na,1,0.5\nb,0,0.5\nc,1,0.9\nd,0,0.1\n")
    # pairs (pos, neg): (0.5,0.5)=1/2, (0.5,0.1)=1, (0.9,0.5)=1, (0.9,0.1)=1
    assert workloads.pairwise_auc(table) == 3.5 / 4

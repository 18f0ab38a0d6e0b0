"""Benchmark for the tomoscreen pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; it runs the package under src/
through its command line, one process per CLI stage, exactly as a user
would. NAME is one of the workloads in workloads.py. The seed fixes every
input the program receives; any seed works, so a claim made while
looking at some seeds can be checked on a fresh one.

--trace 0 measures the end-to-end metrics with tracing off: one fresh
`tomoscreen --version` process several times for set-up time, then
repetitions of the workload until S seconds have passed (at least two),
each reported as the median over repetitions.

--trace 1 runs untraced repetitions for S/2 seconds (at least one) and
then one repetition in which each stage runs in-process under
traced_cli.py, with spans around the package's public functions. It
reports the per-layer metrics: self times and counts from the spans,
the untraced per-stage wall times, and the tracing overhead.

Every run checks its outputs: each command exits 0, repetitions write
byte-identical bundles, the traced bundle equals the untraced one, and
each AUC the program reports equals an exact pairwise count over its
case table. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and the metrics named in BENCHMARK.json; a line
with every result is also appended to .perfbench/results.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
STAGE_TIMEOUT_S = 170.0
# Per-layer counts derived from call arguments and file sizes rather
# than observed by the hardware; printed with a "computed" label.
COMPUTED = {
    "phantom.texture_filter_taps", "scorer.dog_taps", "stats.delong_test.psi_bytes",
    "imaging.bytes_written", "imaging.bytes_read",
}


@dataclass
class StageRun:
    name: str
    code: int
    wall_s: float
    maxrss_kb: int


@dataclass
class Rep:
    stages: list[StageRun]
    wall_s: float
    sha256: str
    attempted: int
    failures: list[str]
    cases_per_s: float
    span_dumps: list[dict]

    @property
    def peak_rss_mb(self) -> float:
        return max(s.maxrss_kb for s in self.stages) / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_process(argv: list[str], log_stem: Path) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS kB).

    The RSS comes from the child's own rusage via wait4, not from the
    running maximum RUSAGE_CHILDREN keeps over all children.
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    return proc.returncode, wall, usage.ru_maxrss


def bundle_sha256(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    for path in files:
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def run_rep(plan_for, rep_dir: Path, logs: Path, traced: bool) -> Rep:
    plan = plan_for(rep_dir)
    rep_dir.mkdir(parents=True)
    stages: list[StageRun] = []
    dumps: list[dict] = []
    failures: list[str] = []
    start = perf_counter()
    for stage in plan.stages:
        stem = logs / f"{rep_dir.name}-{stage.name}"
        if traced:
            spans_path = Path(f"{stem}.spans.json")
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--"]
        else:
            argv = [sys.executable, "-m", "tomoscreen.cli"]
        code, wall, rss = run_process(argv + stage.args, stem)
        stages.append(StageRun(stage.name, code, wall, rss))
        if code != 0:
            failures.append(f"{stage.name} exited {code}; see {stem}.err")
            break
        if traced:
            dumps.append(json.loads(spans_path.read_text()))
    wall = perf_counter() - start

    attempted = len(plan.stages) + len(plan.checks)
    if failures:
        # stages that never ran and checks on missing outputs fail too
        failures += [f"not run: {s.name}" for s in plan.stages[len(stages):]]
        failures += [f"not checked: {c.json_path}" for c in plan.checks]
    else:
        for check in plan.checks:
            try:
                problem = workloads.check_auc(rep_dir, check)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problem = f"{check.json_path}: {exc!r}"
            if problem:
                failures.append(problem)

    names = plan.throughput_stages
    busy = sum(s.wall_s for s in stages if s.name in names) if names else wall
    sha = bundle_sha256(rep_dir)
    shutil.rmtree(rep_dir)
    return Rep(stages, wall, sha, attempted, failures, plan.cases / busy, dumps)


def measure_setup(runs: int, logs: Path) -> list[float]:
    """Wall times of fresh `tomoscreen --version` processes, after one
    untimed run that leaves compiled bytecode behind."""
    times = []
    for i in range(runs + 1):
        code, wall, _ = run_process(
            [sys.executable, "-m", "tomoscreen.cli", "--version"], logs / f"setup-{i}"
        )
        if code != 0:
            raise RuntimeError(f"tomoscreen --version exited {code}")
        if i:
            times.append(wall)
    return times


def stage_medians(reps: list[Rep]) -> dict[str, float]:
    walls: dict[str, list[float]] = defaultdict(list)
    for rep in reps:
        for s in rep.stages:
            walls[s.name].append(s.wall_s)
    return {f"{name}_s": statistics.median(v) for name, v in walls.items()}


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the span dumps of one traced repetition."""
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counts: dict[str, float] = defaultdict(float)
    maps: list[dict] = []
    for dump in dumps:
        for name, vals in spans.self_times(dump["spans"]).items():
            for k, v in vals.items():
                agg[name][k] += v
        for k, v in dump["counts"].items():
            counts[k] += v
        maps += dump["parallel_maps"]

    def self_s(name):
        return agg[name]["self_s"] if name in agg else 0.0

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in (
        "phantom.generate_case", "imaging.write_volume", "imaging.read_volume",
        "imaging.normalize_volume", "scorer.BlobScorer.detect",
        "scorer.ensemble_image_score", "boxes.nms", "condense.aggregate_boxes",
        "condense.build_optimized_image", "condense.study_max_box_score", "miltrain.train",
        "stats.bootstrap_ci", "stats.paired_delta_pvalue", "stats.size_matched_auc",
        "stats.delong_test", "stats.enumerate_panels", "stats.roc_and_auc",
        "stats.read_cases_csv",
    ):
        m[f"{name}.self_s"] = self_s(name)
    for name in (
        "phantom.generate_case", "imaging.normalize_volume", "scorer.BlobScorer.detect",
        "scorer.ensemble_image_score", "boxes.nms",
    ):
        m[f"{name}.calls"] = calls(name)

    detects = calls("scorer.BlobScorer.detect")
    volumes = calls("condense.aggregate_boxes") + calls("condense.study_max_box_score")
    m["phantom.texture_filter_taps"] = ratio(
        counts["phantom.texture_filter_taps"], calls("phantom.generate_case")
    )
    m["imaging.bytes_written"] = counts["imaging.bytes_written"]
    m["imaging.bytes_read"] = counts["imaging.bytes_read"]
    m["scorer.detect_calls_per_case"] = ratio(detects, volumes)
    m["scorer.boxes_detected"] = counts["scorer.boxes_detected"]
    m["scorer.dog_taps"] = ratio(counts["scorer.dog_taps"], detects)
    m["boxes.nms.boxes_in"] = counts["boxes.nms.boxes_in"]
    m["boxes.nms.boxes_kept"] = counts["boxes.nms.boxes_kept"]
    m["boxes.nms.keep_ratio"] = ratio(counts["boxes.nms.boxes_kept"], counts["boxes.nms.boxes_in"])
    m["miltrain.iterations"] = counts["miltrain.iterations"]
    m["miltrain.extract_patch_features.calls"] = counts["miltrain.extract_patch_features.calls"]
    for key in (
        "stats.bootstrap_ci.resamples", "stats.bootstrap_ci.redraws",
        "stats.paired_delta_pvalue.redraws", "stats.size_matched_auc.populations",
        "stats.delong_test.psi_bytes",
    ):
        m[key] = counts[key]
    m["cli.parallel_efficiency"] = ratio(
        sum(p["busy_s"] for p in maps), sum(max(1, p["threads"]) * p["wall_s"] for p in maps)
    )
    m["cli.serial_s"] = agg[spans.ROOT_SPAN]["total_s"] - agg[spans.PARALLEL_MAP]["total_s"]
    return m


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 scale: workloads.Scale = workloads.FULL) -> dict:
    """Run one workload; returns every measured value and check."""
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    plan_for = workloads.prepare(workload, seed, work / "inputs", scale)
    setup = [] if trace else measure_setup(scale.setup_runs, logs)

    untraced: list[Rep] = []
    budget = seconds / 2 if trace else seconds
    min_reps = 1 if trace else 2
    start = perf_counter()
    while True:
        rep = run_rep(plan_for, work / f"rep{len(untraced)}", logs, traced=False)
        untraced.append(rep)
        if rep.failures:
            break
        if len(untraced) >= min_reps and perf_counter() - start >= budget:
            break
    traced = None
    if trace and not rep.failures:
        traced = run_rep(plan_for, work / "traced", logs, traced=True)

    attempted = sum(r.attempted for r in untraced)
    failures = [f for r in untraced for f in r.failures]
    reference = untraced[0].sha256
    for i, rep in enumerate(untraced[1:], 1):
        attempted += 1
        if rep.sha256 != reference:
            failures.append(f"repetition {i} bundle differs from repetition 0")
    if traced is not None:
        attempted += traced.attempted + 1
        failures += traced.failures
        if traced.sha256 != reference:
            failures.append("traced bundle differs from the untraced bundle")

    complete = [r for r in untraced if not r.failures]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "why": workloads.WHY[workload],
        "repetitions": len(untraced),
        "repetition_walls_s": [r.wall_s for r in untraced],
        "bundle_sha256": reference,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "stages": stage_medians(complete),
        "end_to_end": {},
        "per_layer": {},
    }
    if not complete:
        return result
    walls = [r.wall_s for r in complete]
    if setup:
        result["end_to_end"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in complete),
            "cases_per_s": statistics.median(r.cases_per_s for r in complete),
        }
    if traced is not None and not traced.failures:
        layers = layer_metrics(traced.span_dumps)
        layers["tracing_overhead_s"] = traced.wall_s - statistics.median(walls)
        # untraced per-stage wall times; stages the workload lacks read as zero
        for stage in workloads.STAGE_NAMES:
            layers[f"{stage}_s"] = result["stages"].get(f"{stage}_s", 0.0)
        result["per_layer"] = layers
        result["missing_targets"] = sorted(
            {t for d in traced.span_dumps for t in d.get("missing_targets", [])}
        )
    return result


def summarize(result: dict, spec: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    trace = result["trace"]
    key = "per_layer" if trace else "end_to_end"
    measured = result[key]
    metrics = {}
    for m in spec[key]:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    f = result["machine"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {trace}  "
          f"repetitions {result['repetitions']}")
    print(f"why: {result['why']}")
    print(f"machine: nproc {f['nproc']}, {f['cpu_model']}, python {f['python']}, "
          f"numpy {f['numpy']}, scipy {f['scipy']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in f['loadavg_start'])} -> "
          f"{' '.join(f'{x:.2f}' for x in f['loadavg_end'])}")
    print(f"bundle sha256 {result['bundle_sha256']}")
    for name, value in sorted(result["stages"].items()):
        print(f"  stage {name:<40} {value:14.4f} s (median, untraced)")
    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name:<46} {m['value']:14.6g} {m['unit']}{label}")
    for problem in result["failures"]:
        print(f"  FAILED: {problem}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"error_rate {rate:.4g} ({result['failed']} failed of {result['attempted']} attempted)")
    if result.get("missing_targets"):
        print(f"targets not found (read as zero): {', '.join(result['missing_targets'])}")
    return {
        "correct": result["failed"] == 0 and len(metrics) == len(spec[key]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "tomoscreen" / "cli.py").is_file():
        print(f"error: no tomoscreen package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK_ROOT / f"run-{os.getpid()}"
    facts = machine_facts()
    facts["loadavg_start"] = os.getloadavg()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["loadavg_end"] = os.getloadavg()
    result["machine"] = facts
    if not result["end_to_end"] and not result["per_layer"]:
        print(f"error: no repetition completed: {result['failures']}", file=sys.stderr)
        return 1
    final = summarize(result, spec)
    with open(WORK_ROOT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**result, "result": final}) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, the CLI stages each runs,
and the checks on what those stages write.

Every input is made here from the benchmark seed: the config JSON that
each command receives (its "seed" is the benchmark seed) and, for
reader-stats, the case tables. The program only ever sees these files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WHY = {
    "cohort-chain": (
        "The documented user path: phantom gen, condense run, train mil and "
        "eval roc as four processes with 2 threads. The only workload that "
        "writes and reads volumes and runs the MIL stage; phantom and scorer "
        "do most of the work, stats almost none."
    ),
    "report": (
        "The same image layers in one process with 1 thread and no volume "
        "I/O, plus validation thresholds, center-slice scoring and a serial "
        "stats tail. The single-threaded run of the problem cohort-chain "
        "threads, so a threading change should move cohort-chain only."
    ),
    "reader-stats": (
        "eval roc, readers and size-matched on an n=2000 table with 5 readers "
        "and tied scores, plus eval delong on n=12000 tables. Stats does "
        "nearly all the work, the image layers none; the quadratic DeLong "
        "psi matrix sets peak memory."
    ),
}


@dataclass(frozen=True)
class Scale:
    """Problem sizes. FULL is the benchmark; tests use a tiny one."""

    # RunConfig overrides per workload, on top of the benchmark seed.
    cohort_config: dict = field(default_factory=lambda: {"n_resamples": 1000})
    report_config: dict = field(default_factory=dict)
    reader_config: dict = field(default_factory=dict)
    reader_table_cases: int = 2000
    delong_table_cases: int = 12000
    setup_runs: int = 5


FULL = Scale()

# RunConfig defaults the cohort sizes come from (n_cancer + n_negative).
DEFAULT_COHORT_CASES = 40
N_READERS = 5


# Every stage of every workload, as named in the per-stage metrics.
STAGE_NAMES = (
    "phantom_gen", "condense_run", "train_mil", "eval_roc",
    "eval_readers", "eval_size_matched", "eval_delong", "report",
)


@dataclass(frozen=True)
class Stage:
    name: str  # metric stem, e.g. "phantom_gen" -> phantom_gen_s
    args: list[str]


@dataclass(frozen=True)
class AucCheck:
    """An AUC in a JSON output must equal the pairwise-count AUC of a table."""

    json_path: str  # relative to the repetition directory
    keys: tuple[str, ...]
    table: Path


@dataclass(frozen=True)
class Plan:
    stages: list[Stage]
    checks: list[AucCheck]
    cases: int  # cases behind cases_per_s
    throughput_stages: tuple[str, ...]  # stages cases_per_s divides by; () = all


def _write_config(path: Path, seed: int, overrides: dict) -> Path:
    path.write_text(json.dumps({**overrides, "seed": seed}, indent=2, sort_keys=True) + "\n")
    return path


def cohort_cases(overrides: dict) -> int:
    n_cancer = overrides.get("n_cancer", DEFAULT_COHORT_CASES // 2)
    n_negative = overrides.get("n_negative", DEFAULT_COHORT_CASES // 2)
    return n_cancer + n_negative


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def reader_table(seed: int, n: int) -> list[list]:
    """Rows of a cases CSV with tumor sizes and BIRADS reads.

    Scores are rounded to 3 decimals so the table has tied scores.
    Readers trade sensitivity for specificity like the CLI's synthetic
    panel; a recall reads BIRADS 3-5, otherwise 1-2.
    """
    rng = np.random.default_rng([seed, 1])
    labels = rng.random(n) < 0.35
    labels[0], labels[1] = True, False
    scores = np.round(_sigmoid(rng.normal(np.where(labels, 1.0, -0.5), 1.0)), 3)
    sizes = np.maximum(1.0, np.round(rng.lognormal(math.log(18.0), 0.6, n), 1))
    rows = []
    recall_draw = rng.random((n, N_READERS))
    grade_draw = rng.integers(0, 3, (n, N_READERS))
    for i in range(n):
        row = [f"case-{i:05d}", int(labels[i]), repr(float(scores[i]))]
        row.append(repr(float(sizes[i])) if labels[i] else "")
        for r in range(N_READERS):
            sens = min(0.99, max(0.5, 0.92 - 0.03 * r))
            spec = min(0.99, max(0.5, 0.70 + 0.045 * r))
            recall = recall_draw[i, r] < (sens if labels[i] else 1.0 - spec)
            row.append(3 + int(grade_draw[i, r]) if recall else 1 + int(grade_draw[i, r]) % 2)
        rows.append(row)
    return rows


def delong_tables(seed: int, n: int) -> tuple[list[list], list[list]]:
    """Two score tables on shared case ids and labels; the second score
    is a noisy copy of the first. Scores are rounded, so both have ties."""
    rng = np.random.default_rng([seed, 2])
    labels = rng.random(n) < 0.5
    labels[0], labels[1] = True, False
    a = np.round(_sigmoid(rng.normal(np.where(labels, 0.6, -0.6), 1.0)), 3)
    b = np.round(np.clip(a + rng.normal(0.0, 0.05, n), 0.0, 1.0), 3)
    ids = [f"case-{i:05d}" for i in range(n)]
    rows_a = [[ids[i], int(labels[i]), repr(float(a[i]))] for i in range(n)]
    rows_b = [[ids[i], int(labels[i]), repr(float(b[i]))] for i in range(n)]
    return rows_a, rows_b


def _write_table(path: Path, header: list[str], rows: list[list]) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def prepare(workload: str, seed: int, inputs: Path, scale: Scale = FULL):
    """Write the workload's inputs under `inputs`; returns a function
    mapping a repetition directory to that repetition's Plan."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "cohort-chain":
        cfg = str(_write_config(inputs / "config.json", seed, scale.cohort_config))
        threads = "2"

        def plan(rep: Path) -> Plan:
            return Plan(
                stages=[
                    Stage("phantom_gen", ["phantom", "gen", "--config", cfg,
                                          "--out", str(rep / "gen"), "--threads", threads]),
                    Stage("condense_run", ["condense", "run", "--config", cfg,
                                           "--cases", str(rep / "gen" / "cases"),
                                           "--out", str(rep / "cond"), "--threads", threads]),
                    Stage("train_mil", ["train", "mil", "--config", cfg,
                                        "--out", str(rep / "mil"), "--threads", threads]),
                    Stage("eval_roc", ["eval", "roc", "--config", cfg,
                                       "--cases", str(rep / "cond" / "cases.csv"),
                                       "--out", str(rep / "roc")]),
                ],
                checks=[AucCheck("roc/summary.json", ("auc",), rep / "cond" / "cases.csv")],
                cases=cohort_cases(scale.cohort_config),
                throughput_stages=("phantom_gen", "condense_run"),
            )

        return plan

    if workload == "report":
        cfg = str(_write_config(inputs / "config.json", seed, scale.report_config))

        def plan(rep: Path) -> Plan:
            out = rep / "report"
            return Plan(
                stages=[Stage("report", ["report", "--config", cfg, "--out", str(out),
                                         "--threads", "1"])],
                checks=[
                    AucCheck("report/summary.json", ("model", "auc"), out / "cases.csv"),
                    AucCheck("report/summary.json", ("center_slice", "auc"),
                             out / "cases_center.csv"),
                ],
                cases=cohort_cases(scale.report_config),
                throughput_stages=(),
            )

        return plan

    if workload == "reader-stats":
        cfg = str(_write_config(inputs / "config.json", seed, scale.reader_config))
        header = ["case_id", "label", "score", "tumor_size_mm"]
        header += [f"birads_r{r + 1}" for r in range(N_READERS)]
        table = _write_table(
            inputs / "readers.csv", header, reader_table(seed, scale.reader_table_cases)
        )
        rows_a, rows_b = delong_tables(seed, scale.delong_table_cases)
        table_a = _write_table(inputs / "delong_a.csv", ["case_id", "label", "score"], rows_a)
        table_b = _write_table(inputs / "delong_b.csv", ["case_id", "label", "score"], rows_b)

        def plan(rep: Path) -> Plan:
            return Plan(
                stages=[
                    Stage("eval_roc", ["eval", "roc", "--config", cfg, "--cases", str(table),
                                       "--out", str(rep / "roc")]),
                    Stage("eval_readers", ["eval", "readers", "--config", cfg,
                                           "--cases", str(table), "--out", str(rep / "readers")]),
                    Stage("eval_size_matched", ["eval", "size-matched", "--config", cfg,
                                                "--cases", str(table), "--target", "source",
                                                "--out", str(rep / "size_matched")]),
                    Stage("eval_delong", ["eval", "delong", "--config", cfg,
                                          "--cases-a", str(table_a), "--cases-b", str(table_b),
                                          "--out", str(rep / "delong")]),
                ],
                checks=[
                    AucCheck("roc/summary.json", ("auc",), table),
                    AucCheck("delong/delong.json", ("auc_a",), table_a),
                    AucCheck("delong/delong.json", ("auc_b",), table_b),
                ],
                cases=3 * scale.reader_table_cases + scale.delong_table_cases,
                throughput_stages=(),
            )

        return plan

    raise ValueError(f"unknown workload {workload!r}")


def pairwise_auc(table: Path) -> float:
    """AUC as (2 * #(pos > neg) + #(pos == neg)) / (2 * n_pos * n_neg),
    counted exactly over all pairs with sorted negatives."""
    labels, scores = [], []
    with table.open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            labels.append(row["label"].strip().lower() in ("1", "true"))
            scores.append(float(row["score"]))
    y = np.array(labels, dtype=bool)
    s = np.array(scores, dtype=np.float64)
    pos, neg = s[y], np.sort(s[~y])
    below = np.searchsorted(neg, pos, side="left").astype(np.int64)
    at_or_below = np.searchsorted(neg, pos, side="right").astype(np.int64)
    twice_u = int((2 * below + (at_or_below - below)).sum())
    return twice_u / (2 * pos.size * neg.size)


def check_auc(rep: Path, check: AucCheck, tol: float = 1e-12) -> str | None:
    """None when the reported AUC equals the pairwise count, else why not."""
    value = json.loads((rep / check.json_path).read_text())
    for key in check.keys:
        value = value[key]
    expected = pairwise_auc(check.table)
    if not abs(float(value) - expected) <= tol:
        return f"{check.json_path} {'.'.join(check.keys)} = {value!r}, pairwise count {expected!r}"
    return None

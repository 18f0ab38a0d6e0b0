"""Command line behavior: config handling, exit codes, artifacts,
rerun byte-stability."""

import contextlib
import csv
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quantized, recall_tally

import tomoscreen.cli as cli_module
import tomoscreen.imaging as imaging_module
import tomoscreen.miltrain as miltrain_module
import tomoscreen.phantom as phantom_module
import tomoscreen.scorer as scorer_module
import tomoscreen.stats as stats_module
from tomoscreen.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    config_from_dict,
    load_config,
    main,
    reader_profiles,
    synthetic_birads,
)
from tomoscreen.condense import OptimizedImage, trimmed_slices
from tomoscreen.imaging import (
    PGM_MAXVAL,
    ImageGrid,
    Volume,
    normalize_volume,
    read_json,
    read_pgm,
    read_volume,
    write_pgm,
    write_volume,
)
from tomoscreen.phantom import (
    NOISE_SIGMA_MAX,
    LesionSpec,
    PhantomTruth,
    read_truth,
    write_truth,
)
from tomoscreen.scorer import default_condense_scorer, default_ensemble, ensemble_image_score
from tomoscreen.stats import read_cases_csv, write_cases_csv, CaseRecord

QUICK = {
    "width": 48,
    "height": 64,
    "n_slices": 8,
    "n_cancer": 2,
    "n_negative": 2,
    "n_validation": 2,
    "n_train_cancer": 4,
    "n_train_negative": 4,
    "iterations": 40,
    "n_resamples": 200,
    "n_populations": 50,
    "n_readers": 3,
    "seed": 5,
}


def write_config(tmp_path, name="config.json", **extra):
    data = dict(QUICK)
    data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def scored_csv(tmp_path, name="cases.csv", n_pos=12, n_neg=12, readers=(), sizes=False):
    rng = np.random.default_rng(42)
    cases = []
    for i in range(n_pos + n_neg):
        label = i < n_pos
        score = float(np.clip(rng.normal(0.7 if label else 0.3, 0.15), 0, 1))
        birads = None
        if readers:
            birads = {}
            for k, r in enumerate(readers):
                p = 0.85 - 0.05 * k if label else 0.2
                # grades 3 or 4 recall and 1 or 2 do not, so a rule that
                # recalls only above 3 reads these tables differently
                birads[r] = (4 - (i + k) % 2) if rng.random() < p else (1 + (i + k) % 2)
        cases.append(
            CaseRecord(
                case_id=f"case-{i:03d}",
                label=label,
                score=score,
                tumor_size_mm=float(rng.uniform(5, 40)) if (sizes and label) else None,
                reader_birads=birads,
            )
        )
    path = tmp_path / name
    write_cases_csv(cases, path)
    return str(path)


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.seed == 0 and cfg.iou_threshold == 0.2

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"learning_rte": 0.1})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"iou_threshold": 1.5})
        with pytest.raises(ValueError):
            config_from_dict({"contrast_range": [220.0, 60.0]})
        with pytest.raises(ValueError):
            config_from_dict({"contrast_range": [60.0]})
        with pytest.raises(ValueError):
            config_from_dict({"n_readers": 0})
        with pytest.raises(ValueError):
            config_from_dict({"size_bin_edges": [20.0, 10.0]})
        with pytest.raises(ValueError):
            config_from_dict({"width": 8})

    INT_FIELDS = (
        "width", "height", "n_slices", "n_cancer", "n_negative", "n_validation", "iterations",
        "n_train_cancer", "n_train_negative", "n_resamples", "n_populations", "n_readers", "seed",
    )

    @pytest.mark.parametrize("value", [48.0, 2.5, True, "7", None, [40]])
    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_integer_fields_take_only_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            config_from_dict({field: value})

    @pytest.mark.parametrize(
        "command, field, value",
        [
            (["eval", "roc"], "n_resamples", 10.5),
            (["eval", "roc"], "seed", 1.5),
            (["eval", "roc"], "seed", "abc"),
            (["report"], "n_readers", 2.5),
        ],
    )
    def test_cli_names_the_integer_field_and_file(
        self, tmp_path, capsys, command, field, value
    ):
        cfg = write_config(tmp_path, **{field: value})
        args = command + ["--config", cfg, "--out", str(tmp_path / "o")]
        if command == ["eval", "roc"]:
            args += ["--cases", scored_csv(tmp_path)]
        assert main(args) == EXIT_CONFIG
        assert f"{cfg}: {field} must be an integer" in capsys.readouterr().err

    # (field, JSON text of its value with {} for the bad number)
    FLOAT_FIELDS = (
        ("background_texture_scale", "{}"),
        ("clutter_density", "{}"),
        ("noise_sigma", "{}"),
        ("contrast_range", "[{}, 220]"),
        ("contrast_range", "[60, {}]"),
        ("iou_threshold", "{}"),
        ("target_sensitivity", "{}"),
        ("learning_rate", "{}"),
        ("size_bin_edges", "[{}, 20, 50]"),
        ("size_bin_edges", "[10, {}]"),
        ("contrast_range", "{}"),
        ("size_bin_edges", "{}"),
    )

    @pytest.mark.parametrize("number", ["1e999", "NaN", "true", "null"])
    @pytest.mark.parametrize("field, template", FLOAT_FIELDS)
    def test_float_fields_must_be_finite(self, tmp_path, capsys, field, template, number):
        path = tmp_path / "config.json"
        text = json.dumps(dict(QUICK, **{field: "BAD"}))
        path.write_text(text.replace('"BAD"', template.format(number)))
        code = main(["phantom", "gen", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"{path}: {field} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("noise_sigma", 10**400), ("noise_sigma", True), ("noise_sigma", "7"),
         ("contrast_range", 5), ("contrast_range", True), ("contrast_range", None),
         ("size_bin_edges", 10), ("size_bin_edges", True), ("size_bin_edges", None)],
        ids=["400 digits", "bool", "str", "contrast_range 5", "contrast_range true",
             "contrast_range null", "size_bin_edges 10", "size_bin_edges true",
             "size_bin_edges null"],
    )
    def test_float_fields_take_only_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            config_from_dict({field: value})

    @pytest.mark.parametrize("size", [(48, 64), (96, 40)])
    def test_texture_scale_bounded_by_the_grid(self, tmp_path, capsys, size):
        width, height = size
        side = max(size)
        assert config_from_dict({"width": width, "height": height,
                                 "background_texture_scale": side})
        for scale in (side + 0.5, 1e12):
            cfg = write_config(tmp_path, width=width, height=height,
                               background_texture_scale=scale)
            out = tmp_path / "o"
            assert main(["phantom", "gen", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"{cfg}: background_texture_scale must be <= max(width, height) = {side}" in err
            assert not out.exists()

    def test_clutter_blobs_bounded_by_the_grid(self, tmp_path, capsys):
        # 48x64 = 3072 pixels; 8 slices plan round(density * 8 / 3.5) blobs
        assert config_from_dict({"width": 48, "height": 64, "n_slices": 8,
                                 "clutter_density": 3072 * 3.5 / 8})
        for density, n_slices in ((1345.0, 8), (1e300, 8), (1e308, 10**6)):
            cfg = write_config(tmp_path, clutter_density=density, n_slices=n_slices)
            out = tmp_path / "o"
            assert main(["phantom", "gen", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"{cfg}: clutter_density plans more blobs per volume" in err
            assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_stack_too_shallow_for_a_lesion_names_the_file(self, tmp_path, capsys, seed):
        # sample_lesion draws up to 5 slices of extent; below 5 some seeds
        # fit every lesion (seed 1) and some do not (seed 0)
        cfg = write_config(tmp_path, width=32, height=32, n_slices=4, n_cancer=3, n_negative=1)
        args = ["phantom", "gen", "--config", cfg, "--seed", str(seed)]
        assert main(args + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {cfg}: n_slices must be >= 5")
        assert not (tmp_path / "o").exists()

    def test_a_shallow_stack_without_lesions_is_valid(self):
        counts = {"n_cancer": 0, "n_validation": 0, "n_train_cancer": 0}
        assert config_from_dict({"n_slices": 1, **counts}).n_slices == 1
        for name in counts:
            with pytest.raises(ValueError, match="^n_slices must be >= 5"):
                config_from_dict({"n_slices": 4, **counts, name: 1})
        assert config_from_dict({"n_slices": 5}).n_slices == 5

    def test_lists_become_tuples(self):
        cfg = config_from_dict({"contrast_range": [60.0, 220.0], "size_bin_edges": [5.0, 9.0]})
        assert cfg.contrast_range == (60.0, 220.0)
        assert cfg.size_bin_edges == (5.0, 9.0)

    def test_flag_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 3, "n_slices": 12}))
        cfg = load_config(str(path), {"seed": 9})
        assert cfg.seed == 9
        assert cfg.n_slices == 12

    def test_path_keys_are_unknown(self, tmp_path, capsys):
        # paths come only from --out and --cases, never from a config file
        for key in ("out_dir", "cases_dir"):
            cfg = write_config(tmp_path, **{key: str(tmp_path / "x")})
            code = main(["phantom", "gen", "--config", cfg, "--out", str(tmp_path / "o")])
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {cfg}: unknown config keys: {key}\n"


class TestReaderSynthesis:
    def test_profiles_shape(self):
        profiles = reader_profiles(5)
        assert list(profiles) == ["r1", "r2", "r3", "r4", "r5"]
        sens = [s for s, _ in profiles.values()]
        spec = [p for _, p in profiles.values()]
        assert sens == sorted(sens, reverse=True)
        assert spec == sorted(spec)
        assert all(0.0 < v <= 1.0 for v in sens + spec)

    def test_birads_deterministic_per_case(self):
        profiles = reader_profiles(3)
        a = synthetic_birads(7, "case-1", True, profiles)
        b = synthetic_birads(7, "case-1", True, profiles)
        assert a == b
        assert set(a) == {"r1", "r2", "r3"}
        assert all(v in (1, 2, 3, 4, 5) for v in a.values())

    def test_birads_varies_across_cases(self):
        profiles = reader_profiles(5)
        reads = [synthetic_birads(7, f"case-{i}", True, profiles) for i in range(40)]
        assert len({tuple(sorted(r.items())) for r in reads}) > 1

    def test_recall_rates_track_profiles(self):
        profiles = reader_profiles(2)
        pos_recalls = {r: 0 for r in profiles}
        neg_recalls = {r: 0 for r in profiles}
        n = 400
        for i in range(n):
            for r, v in synthetic_birads(1, f"p{i}", True, profiles).items():
                pos_recalls[r] += v >= 3
            for r, v in synthetic_birads(1, f"n{i}", False, profiles).items():
                neg_recalls[r] += v >= 3
        sens1, spec1 = profiles["r1"]
        assert pos_recalls["r1"] / n == pytest.approx(sens1, abs=0.06)
        assert 1 - neg_recalls["r1"] / n == pytest.approx(spec1, abs=0.06)


class TestExitCodes:
    def test_bad_config_value(self, tmp_path):
        cfg = write_config(tmp_path, iou_threshold=1.5)
        code = main(["phantom", "gen", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_malformed_config_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["phantom", "gen", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["eval", "roc", "--cases", str(missing), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["eval", "roc", "--cases", scored_csv(tmp_path), "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {out}: File exists\n"

    def test_unwritable_output_with_a_newline_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "tak\nen"
        out.write_text("")
        code = main(["eval", "roc", "--cases", scored_csv(tmp_path), "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {tmp_path}/tak\\nen: File exists\n"

    def test_output_file_that_is_a_directory_exits_three(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "roc.csv").mkdir(parents=True)
        code = main(["eval", "roc", "--cases", scored_csv(tmp_path), "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {out / 'roc.csv'}: Is a directory\n"
        assert not (out / "run_manifest.json").exists()

    def test_grid_too_large_for_memory(self, tmp_path, capsys):
        # 8e16 bytes per field: larger than any address space, so numpy's
        # allocation fails at once and no memory is touched
        side = 10**8
        cfg = write_config(tmp_path, width=side, height=side, n_cancer=1, n_negative=0)
        out = tmp_path / "o"
        code = main(["phantom", "gen", "--config", cfg, "--out", str(out)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: out of memory: {cfg}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "run_manifest.json").exists()

    def test_out_of_memory_with_a_newline_in_the_config_path_is_one_line(self, tmp_path, capsys):
        side = 10**8  # fails at allocation, as in test_grid_too_large_for_memory
        cfg = write_config(tmp_path, "a\nb.json", width=side, height=side, n_cancer=1, n_negative=0)
        code = main(["phantom", "gen", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: out of memory: {tmp_path}/a\\nb.json: ")
        assert err.count("\n") == 1

    def test_config_error_with_a_newline_in_the_config_path_is_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad\ncfg.json"
        cfg.write_text(json.dumps({"n_readers": 0}))
        args = ["eval", "roc", "--config", str(cfg), "--cases", scored_csv(tmp_path)]
        assert main(args + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        want = f"error: {tmp_path}/bad\\ncfg.json: n_readers must be in 1..12\n"
        assert capsys.readouterr().err == want

    # a quoted case_id that holds a newline, on the table's first row (lines 2 and 3)
    @pytest.mark.parametrize(
        "command, row, reason",
        [
            ("roc", '"a\nb",1,1.5,', "line 3: case a\\nb: score 1.5 outside [0, 1]"),
            ("readers", '"a\nb",1,0.9,', "case a\\nb missing read from r1"),
        ],
        ids=["roc", "readers"],
    )
    def test_case_id_with_a_newline_is_one_line(self, tmp_path, capsys, command, row, reason):
        path = tmp_path / "cases.csv"
        path.write_text(f"case_id,label,score,birads_r1\n{row}\nc,0,0.2,1\n")
        args = ["eval", command, "--cases", str(path), "--out", str(tmp_path / "o")]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    def test_numeric_abort_on_hopeless_bootstrap(self, tmp_path):
        csv_path = scored_csv(tmp_path, n_pos=1, n_neg=6)
        code = main(["eval", "roc", "--cases", csv_path, "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERIC

    def test_unknown_subcommand_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_threshold_out_of_range(self, tmp_path):
        code = main(
            [
                "condense",
                "run",
                "--volume",
                str(tmp_path),
                "--threshold",
                "1.5",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_cohort_mode_requires_cases_source(self, tmp_path):
        code = main(["condense", "run", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one_rejected_at_parse_time(self, tmp_path, monkeypatch, capsys, value):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(cli_module, "ThreadPoolExecutor", no_pool)
        before = threading.active_count()
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["phantom", "gen", "--out", str(out), "--threads", value])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()
        assert threading.active_count() == before


class TestMalformedVolume:
    """A broken volume directory ends in exit 2 with the bad file's path."""

    @staticmethod
    def volume(tmp_path) -> Path:
        directory = tmp_path / "vol"
        write_volume(np.full((3, 40, 40), 1000, np.uint16), directory)
        return directory

    @staticmethod
    def condense(directory: Path, tmp_path) -> int:
        return main(["condense", "run", "--volume", str(directory), "--out", str(tmp_path / "o")])

    def test_truncated_slice(self, tmp_path, capsys):
        directory = self.volume(tmp_path)
        path = directory / "slice_0001.pgm"
        path.write_bytes(path.read_bytes()[:-10])
        assert self.condense(directory, tmp_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and "truncated raster" in err

    @pytest.mark.parametrize("key", ["slices", "slice_count", "width", "height"])
    def test_manifest_missing_key(self, tmp_path, capsys, key):
        directory = self.volume(tmp_path)
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest[key]
        path.write_text(json.dumps(manifest))
        assert self.condense(directory, tmp_path) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("slices", "slice_0000.pgm"),
            ("slices", [0, 1, 2]),
            ("slice_count", "3"),
            ("width", 40.0),
            ("height", None),
            ("height", True),
            ("height", 0),
        ],
    )
    def test_manifest_wrong_type(self, tmp_path, capsys, key, value):
        directory = self.volume(tmp_path)
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        assert self.condense(directory, tmp_path) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    def test_manifest_claiming_a_huge_grid_names_the_first_slice(self, tmp_path, capsys):
        # the first slice is checked before a stack of the claimed grid is allocated,
        # so this is a bad input (exit 2), not an out-of-memory failure (exit 3)
        directory = self.volume(tmp_path)
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest.update(width=10**6, height=10**6)
        path.write_text(json.dumps(manifest))
        assert self.condense(directory, tmp_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(directory / "slice_0000.pgm") in err and "manifest says 1000000x1000000" in err


class TestMalformedCasesCsv:
    """A broken cases table ends in exit 2 with the table's path."""

    CORRUPTIONS = {
        "short row": lambda f: f[:-1],
        "long row": lambda f: f + ["4"],
        "bad label": lambda f: [f[0], "maybe"] + f[2:],
        "bad score": lambda f: f[:2] + ["high"] + f[3:],
        "bad size": lambda f: f[:3] + ["big"] + f[4:],
        "bad birads": lambda f: f[:4] + ["4.5"] + f[5:],
        "oversized field": lambda f: f[:2] + ["0." + "1" * 200_000] + f[3:],
    }

    @pytest.mark.parametrize("command", ["roc", "readers", "delong"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_exits_two_naming_the_file(self, tmp_path, capsys, command, corruption):
        good = scored_csv(tmp_path, readers=("r1", "r2"), sizes=True)
        lines = Path(good).read_text().splitlines()
        assert lines[0] == "case_id,label,score,tumor_size_mm,birads_r1,birads_r2"
        lines[1] = ",".join(self.CORRUPTIONS[corruption](lines[1].split(",")))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        args = ["eval", command, "--out", str(tmp_path / "o")]
        if command == "delong":
            args += ["--cases-a", good, "--cases-b", str(bad)]
        else:
            args += ["--cases", str(bad)]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{bad}: line 2: " in err

    @pytest.mark.parametrize("size", ["inf", "1e999", "nan"])
    @pytest.mark.parametrize("command", ["roc", "size-matched"])
    def test_non_finite_tumor_size_names_the_line(self, tmp_path, capsys, command, size):
        path = scored_csv(tmp_path, sizes=True)
        lines = Path(path).read_text().splitlines()
        fields = lines[1].split(",")
        assert fields[:2] == ["case-000", "1"]
        fields[3] = size
        lines[1] = ",".join(fields)
        Path(path).write_text("\n".join(lines) + "\n")
        args = ["eval", command, "--cases", path, "--out", str(tmp_path / "o")]
        if command == "size-matched":
            args += ["--target", "source"]
        assert main(args) == EXIT_CONFIG
        want = f"error: {path}: line 2: case case-000: tumor size must be finite and positive"
        assert capsys.readouterr().err.splitlines() == [want]


class TestDuplicateCaseIds:
    """A case_id on two rows ends in exit 2 with one line naming the table
    and both lines; unchecked, DeLong would pair rows by file order."""

    @pytest.mark.parametrize("command", ["roc", "readers", "size-matched", "delong"])
    def test_exits_two_naming_both_lines(self, tmp_path, capsys, command):
        good = scored_csv(tmp_path, readers=("r1", "r2"), sizes=True)
        lines = Path(good).read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines + [lines[1]]) + "\n")
        args = ["eval", command, "--out", str(tmp_path / "o")]
        if command == "delong":
            args += ["--cases-a", good, "--cases-b", str(bad)]
        else:
            args += ["--cases", str(bad)]
        if command == "size-matched":
            args += ["--target", "source"]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        case_id = lines[1].split(",")[0]
        last = len(lines) + 1
        want = f"error: {bad}: line {last}: duplicate case_id {case_id!r}, first on line 2"
        assert err.splitlines() == [want]
        assert not (tmp_path / "o" / "run_manifest.json").exists()


class TestStatisticErrorsNameTheTable:
    """A table that parses but that a statistic rejects ends in exit 2
    with the table's path."""

    def error(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        return capsys.readouterr().err

    def blank_cell(self, path, column, row=1):
        lines = Path(path).read_text().splitlines()
        fields = lines[row].split(",")
        fields[lines[0].split(",").index(column)] = ""
        lines[row] = ",".join(fields)
        Path(path).write_text("\n".join(lines) + "\n")

    def test_roc_on_one_class(self, tmp_path, capsys):
        path = scored_csv(tmp_path, n_neg=0)
        err = self.error(tmp_path, capsys, ["eval", "roc", "--cases", path])
        assert f"{path}: ROC needs at least one positive and one negative" in err

    def test_readers_with_a_blank_read(self, tmp_path, capsys):
        path = scored_csv(tmp_path, readers=("r1", "r2"))
        self.blank_cell(path, "birads_r1")
        err = self.error(tmp_path, capsys, ["eval", "readers", "--cases", path])
        assert f"{path}: case case-000 missing read from r1" in err

    def test_size_matched_with_a_positive_without_size(self, tmp_path, capsys):
        path = scored_csv(tmp_path, sizes=True)
        self.blank_cell(path, "tumor_size_mm")
        err = self.error(
            tmp_path, capsys, ["eval", "size-matched", "--cases", path, "--target", "source"]
        )
        assert f"{path}: positive case case-000 lacks a tumor size" in err

    def test_size_matched_without_any_size(self, tmp_path, capsys):
        path = scored_csv(tmp_path)
        err = self.error(
            tmp_path, capsys, ["eval", "size-matched", "--cases", path, "--target", "source"]
        )
        assert f"{path}: no positive cases with tumor sizes" in err

    def test_delong_on_one_class(self, tmp_path, capsys):
        a = scored_csv(tmp_path, name="a.csv", n_neg=0)
        b = scored_csv(tmp_path, name="b.csv", n_neg=0)
        err = self.error(tmp_path, capsys, ["eval", "delong", "--cases-a", a, "--cases-b", b])
        assert f"{a}, {b}: DeLong test needs both classes" in err


def write_study(directory: Path, views: list) -> Path:
    """A study manifest over 48x40 views written next to it."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(3)
    for name in ("a.pgm", "b.pgm"):
        write_pgm(quantized(rng.normal(500.0, 20.0, size=(48, 40))), directory / name)
    path = directory / "study.json"
    path.write_text(json.dumps({"case_id": "study-1", "views": views}))
    return path


TWO_VIEWS = [
    {"breast": "left", "view": "cc", "path": "a.pgm"},
    {"breast": "right", "view": "cc", "path": "b.pgm"},
]


def stage_runs(stage: str, tmp_path: Path, cohort) -> tuple[list[str], list[str]]:
    """Arguments, --out aside, of one run of `stage` that succeeds and one
    that fails inside the stage, after --out exists."""
    cfg, cases = cohort
    plain = scored_csv(tmp_path, readers=("r1", "r2"), sizes=True)
    one_class = scored_csv(tmp_path, name="one_class.csv", n_neg=0)
    if stage == "phantom-gen":
        empty = write_config(tmp_path, "empty.json", n_cancer=0, n_negative=0)
        return ["phantom", "gen", "--config", cfg], ["phantom", "gen", "--config", empty]
    if stage == "condense-run":
        volume = str(cases / "cancer-0000")
        run = ["condense", "run", "--config", cfg, "--volume", volume]
        return run, run + ["--threshold", "1.5"]
    if stage == "score-study":
        good = write_study(tmp_path / "study", TWO_VIEWS)
        bad = write_study(tmp_path / "bad_study", [{"breast": "left"}])
        run = ["score", "study", "--manifest"]
        return run + [str(good)], run + [str(bad)]
    if stage == "train-mil":
        small = write_config(tmp_path, "small.json", width=64, height=80, n_slices=10)
        empty = write_config(tmp_path, "empty.json", n_train_cancer=0)
        return ["train", "mil", "--config", small], ["train", "mil", "--config", empty]
    if stage == "eval-roc":
        return ["eval", "roc", "--cases", plain], ["eval", "roc", "--cases", one_class]
    if stage == "eval-delong":
        other = scored_csv(tmp_path, name="other.csv", n_pos=13, n_neg=11)
        return (
            ["eval", "delong", "--cases-a", plain, "--cases-b", plain],
            ["eval", "delong", "--cases-a", plain, "--cases-b", other],
        )
    if stage == "eval-readers":
        return ["eval", "readers", "--cases", plain], ["eval", "readers", "--cases", one_class]
    if stage == "eval-size-matched":
        run = ["eval", "size-matched", "--config", cfg, "--target", "source", "--cases"]
        return run + [plain], run + [one_class]
    assert stage == "report"
    report = write_config(tmp_path, "report.json", n_cancer=6, n_negative=6)
    empty = write_config(tmp_path, "empty.json", n_cancer=0)
    return ["report", "--config", report], ["report", "--config", empty]


class TestStageLifecycle:
    """main runs every stage alike: a run that succeeds leaves a manifest
    naming its stage, a run that fails leaves none."""

    STAGES = (
        "phantom-gen", "condense-run", "score-study", "train-mil", "eval-roc",
        "eval-delong", "eval-readers", "eval-size-matched", "report",
    )

    @pytest.mark.parametrize("stage", STAGES)
    def test_manifest_names_the_stage_only_on_success(self, stage, tmp_path, capsys, cohort):
        ok, failing = stage_runs(stage, tmp_path, cohort)
        good, bad = tmp_path / "good", tmp_path / "bad"
        assert main(ok + ["--out", str(good)]) == EXIT_OK
        manifest = json.loads((good / "run_manifest.json").read_text())
        assert manifest["stage"] == stage
        capsys.readouterr()
        assert main(failing + ["--out", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert bad.is_dir() and not (bad / "run_manifest.json").exists()


def json_input_run(reader: str, root: Path) -> tuple[list[str], Path]:
    """Arguments of a run that reads the JSON input `reader`, and that
    input's path; the run succeeds while the file is left as written."""
    table = scored_csv(root, sizes=True)
    if reader == "config":
        path = Path(write_config(root))
        run = ["eval", "delong", "--config", str(path), "--cases-a", table, "--cases-b", table]
        return run, path
    if reader == "study manifest":
        path = write_study(root / "study", TWO_VIEWS)
        return ["score", "study", "--manifest", str(path)], path
    if reader == "target histogram":
        path = root / "target.json"
        path.write_text(
            json.dumps({"bin_edges": [10.0, 20.0, 50.0], "shares": [0.25, 0.25, 0.5, 0.0]})
        )
        run = ["eval", "size-matched", "--config", write_config(root), "--cases", table]
        return run + ["--target", str(path)], path
    assert reader == "truth"
    case = root / "cases" / "cancer-0000"
    write_volume(np.full((3, 40, 40), 1000, np.uint16), case)
    lesion = LesionSpec(20.0, 20.0, 6.0, 1, 2, 100.0, True)
    path = case / "truth.json"
    write_truth(PhantomTruth("cancer-0000", (lesion,), True), path)
    return ["condense", "run", "--cases", str(root / "cases")], path


def run_quietly(args: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, err.getvalue()


@st.composite
def damaged(draw, original: bytes) -> bytes:
    """A truncation of `original`, or a copy with one to four bytes replaced."""
    if draw(st.booleans()):
        return original[: draw(st.integers(0, len(original) - 1))]
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


class TestJsonInputsNameTheirFile:
    """Every JSON file the CLI reads fails closed: exit 2 naming the file."""

    READERS = ("config", "study manifest", "target histogram", "truth")

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}", b"[1, 2"])
    @pytest.mark.parametrize("reader", READERS)
    def test_invalid_json(self, tmp_path, reader, content):
        args, path = json_input_run(reader, tmp_path)
        path.write_bytes(content)
        code, err = run_quietly(args + ["--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"{path}: invalid JSON: " in err

    @pytest.mark.parametrize("reader", READERS)
    def test_not_an_object(self, tmp_path, reader):
        args, path = json_input_run(reader, tmp_path)
        path.write_text("[]")
        code, err = run_quietly(args + ["--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert str(path) in err

    TRUTH_CHANGES = {
        "no lesions": lambda t: t.pop("lesions"),
        "no case_id": lambda t: t.pop("case_id"),
        "integer label": lambda t: t.update(label=1),
        "lesions object": lambda t: t.update(lesions={}),
        "lesion number": lambda t: t.update(lesions=[1]),
        "no radius": lambda t: t["lesions"][0].pop("radius"),
        "string radius": lambda t: t["lesions"][0].update(radius="6.0"),
        "boolean center_x": lambda t: t["lesions"][0].update(center_x=True),
        "float center_slice": lambda t: t["lesions"][0].update(center_slice=1.0),
        "integer malignant": lambda t: t["lesions"][0].update(malignant=1),
        "negative radius": lambda t: t["lesions"][0].update(radius=-6.0),
        "label disagrees": lambda t: t["lesions"][0].update(malignant=False),
    }

    @pytest.mark.parametrize("change", sorted(TRUTH_CHANGES))
    def test_truth_fields_are_checked(self, tmp_path, change):
        args, path = json_input_run("truth", tmp_path)
        truth = json.loads(path.read_text())
        self.TRUTH_CHANGES[change](truth)
        path.write_text(json.dumps(truth))
        code, err = run_quietly(args + ["--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"{path}: " in err

    @pytest.mark.parametrize("number", ["1" * 400, "1e999", "NaN"], ids=["400-digit", "1e999", "NaN"])
    @pytest.mark.parametrize("field", ["center_x", "center_y", "radius", "contrast"])
    def test_truth_numbers_must_be_finite(self, tmp_path, field, number):
        args, path = json_input_run("truth", tmp_path)
        truth = json.loads(path.read_text())
        truth["lesions"][0][field] = "NUMBER"
        path.write_text(json.dumps(truth).replace('"NUMBER"', number))
        code, err = run_quietly(args + ["--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"{path}: lesion {field} must be a finite number" in err

    def test_view_path_with_nul_names_the_manifest(self, tmp_path):
        path = write_study(tmp_path, [{"breast": "left", "view": "cc", "path": "a\u0000.pgm"}])
        code, err = run_quietly(["score", "study", "--manifest", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert f"{path}: " in err

    def test_view_path_with_a_newline_is_one_line(self, tmp_path):
        path = write_study(tmp_path, [{"breast": "left", "view": "cc", "path": "a\n.pgm"}])
        code, err = run_quietly(["score", "study", "--manifest", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert err == f"error: {path}: {tmp_path}/a\\n.pgm: No such file or directory\n"

    @pytest.mark.parametrize("reader", READERS)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_damaged_bytes(self, reader, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            args, path = json_input_run(reader, root)
            path.write_bytes(data.draw(damaged(path.read_bytes()), label="content"))
            code, err = run_quietly(args + ["--out", str(root / "o")])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code != EXIT_OK:
            assert str(path) in err


def bundle_run(stage: str, root: Path) -> tuple[list[str], list[Path]]:
    """Arguments of a run of `stage` that succeeds on the bundle as
    written, and the bundle's files: every input the run reads."""
    cfg = Path(write_config(root))
    run = ["--config", str(cfg), "--out", str(root / "o")]
    volume = np.full((3, 40, 40), 1000, np.uint16)
    if stage == "condense --cases":
        lesion = LesionSpec(20.0, 20.0, 6.0, 1, 2, 100.0, True)
        for case_id in ("cancer-0000", "cancer-0001"):
            write_volume(volume, root / "cases" / case_id)
            truth = PhantomTruth(case_id, (lesion,), True)
            write_truth(truth, root / "cases" / case_id / "truth.json")
        run = ["condense", "run", "--cases", str(root / "cases"), *run]
    elif stage == "condense --volume":
        write_volume(volume, root / "vol")
        run = ["condense", "run", "--volume", str(root / "vol"), *run]
    elif stage == "score study":
        run = ["score", "study", "--manifest", str(write_study(root, TWO_VIEWS)), *run]
    elif stage == "eval roc":
        run = ["eval", "roc", "--cases", scored_csv(root), *run]
    elif stage == "eval delong":
        a, b = scored_csv(root, name="a.csv"), scored_csv(root, name="b.csv")
        run = ["eval", "delong", "--cases-a", a, "--cases-b", b, *run]
    else:
        assert stage == "eval size-matched --target"
        target = root / "target.json"
        target.write_text(json.dumps({"bin_edges": [10.0, 20.0], "shares": [0.3, 0.3, 0.4]}))
        table = scored_csv(root, sizes=True)
        run = ["eval", "size-matched", "--cases", table, "--target", str(target), *run]
    members = sorted(p for p in root.rglob("*") if p.is_file())
    return run, members


def truncate_csv(text: str, draw) -> str:
    """`text` cut inside one line, before that line's last comma: a row
    then has too few fields, and a cut header leaves no rows."""
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    start = sum(map(len, lines[:i]))
    return text[: draw(st.integers(start + 1, start + lines[i].rindex(",")))]


class TestDamagedBundles:
    """A bundle member that is missing, a directory, or truncated ends in
    exit 2 with one line naming it, at every stage that reads bundles."""

    STAGES = (
        "condense --cases", "condense --volume", "score study", "eval roc",
        "eval delong", "eval size-matched --target",
    )

    @settings(max_examples=60)
    @given(data=st.data())
    def test_exits_two_naming_the_member(self, data):
        stage = data.draw(st.sampled_from(self.STAGES), label="stage")
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            args, members = bundle_run(stage, root)
            damage = data.draw(st.sampled_from(["delete", "directory", "truncate"]), label="damage")
            if damage == "truncate":
                members = [p for p in members if p.suffix in (".pgm", ".csv")]
            path = data.draw(st.sampled_from(members), label="member")
            if damage == "truncate" and path.suffix == ".pgm":
                raw = path.read_bytes()
                path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
            elif damage == "truncate":
                path.write_text(truncate_csv(path.read_text(), data.draw))
            else:
                path.unlink()
                if damage == "directory":
                    path.mkdir()
            code, err = run_quietly(args)
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith("error: ") and str(path) in line


class TestPhantomGen:
    def test_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["phantom", "gen", "--config", cfg, "--out", str(out)]) == EXIT_OK

        case_dirs = sorted((out / "cases").iterdir())
        assert [d.name for d in case_dirs] == [
            "cancer-0000",
            "cancer-0001",
            "negative-0000",
            "negative-0001",
        ]
        for d in case_dirs:
            assert (d / "manifest.json").is_file()
            assert (d / "truth.json").is_file()
            assert len(list(d.glob("slice_*.pgm"))) == QUICK["n_slices"]
            truth = read_truth(d / "truth.json")
            assert truth.label == d.name.startswith("cancer")
            assert read_json(d / "truth.json")["clipped_voxels"] == 0

        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["stage"] == "phantom-gen"
        assert manifest["seed"] == QUICK["seed"]
        assert "config_sha256" in manifest
        assert sorted(manifest["versions"]) == ["numpy", "python", "tomoscreen"]
        assert "out_dir" not in manifest["config"]

    @pytest.mark.parametrize("height,width,sigma", [(32, 32, 32.0), (176, 128, 176.0)])
    def test_texture_scale_near_the_grid_side_clips_no_voxel(self, tmp_path, height, width, sigma):
        # a texture this smooth is nearly constant over the grid; with its
        # mean removed it cannot shift a case's background toward 0
        cfg = write_config(
            tmp_path,
            width=width,
            height=height,
            background_texture_scale=sigma,
            noise_sigma=RunConfig().noise_sigma,
        )
        out = tmp_path / "out"
        assert main(["phantom", "gen", "--config", cfg, "--out", str(out)]) == EXIT_OK
        truths = sorted(out.rglob("truth.json"))
        assert len(truths) == 4
        assert [read_json(p)["clipped_voxels"] for p in truths] == [0] * 4

    def test_reruns_are_byte_identical_across_dirs_and_threads(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["phantom", "gen", "--config", cfg, "--out", str(a)]) == EXIT_OK
        assert (
            main(["phantom", "gen", "--config", cfg, "--out", str(b), "--threads", "3"])
            == EXIT_OK
        )
        assert tree_bytes(a) == tree_bytes(b)

    def test_seed_flag_changes_data(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["phantom", "gen", "--config", cfg, "--out", str(a)]) == EXIT_OK
        assert (
            main(["phantom", "gen", "--config", cfg, "--out", str(b), "--seed", "99"])
            == EXIT_OK
        )
        ta = (a / "cases" / "cancer-0000" / "truth.json").read_bytes()
        tb = (b / "cases" / "cancer-0000" / "truth.json").read_bytes()
        assert ta != tb
        assert json.loads((b / "run_manifest.json").read_text())["seed"] == 99


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """One generated quick cohort shared by the condense/report-ish tests."""
    root = tmp_path_factory.mktemp("cohort")
    cfg = write_config(root)
    out = root / "gen"
    assert main(["phantom", "gen", "--config", cfg, "--out", str(out)]) == EXIT_OK
    return cfg, out / "cases"


class TestParallelMap:
    """The stages' one case loop: results in input order, item 0 first and
    on the calling thread, and no pool unless two or more items can share it."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_input_order_with_item_zero_first_on_the_calling_thread(self, threads):
        caller = threading.get_ident()
        started, ran_on = [], {}

        def square(i):
            started.append(i)
            ran_on[i] = threading.get_ident()
            time.sleep(0.002 * (8 - i))  # later items finish first
            return i * i

        assert cli_module._parallel_map(square, range(8), threads) == [i * i for i in range(8)]
        assert started[0] == 0 and sorted(started) == list(range(8))
        assert ran_on[0] == caller
        assert all((ran_on[i] == caller) == (threads == 1) for i in range(1, 8))

    @pytest.mark.parametrize("items, threads", [([], 2), ([5], 2), ([1, 2, 3], 1)])
    def test_no_pool_without_two_items_and_two_threads(self, monkeypatch, items, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(cli_module, "ThreadPoolExecutor", no_pool)
        assert cli_module._parallel_map(lambda x: x + 1, items, threads) == [x + 1 for x in items]


class TestOperatorsBuiltBeforeThePool:
    """Threaded stages build every cached operator on the main thread
    before their pool starts; built on a worker, an operator lands in that
    worker's malloc arena and raises peak RSS. A stage builds only the
    operators it applies: the texture's lattice smoothing and interpolation,
    and those of the detectors it runs."""

    @pytest.mark.parametrize("stage", ["phantom-gen", "condense-run", "train-mil", "report"])
    def test_every_build_runs_on_the_main_thread(
        self, stage, tmp_path, cohort, operator_builds, lattice_builds
    ):
        cfg, cases = cohort
        small = write_config(tmp_path, "small.json", width=64, height=80, n_slices=10)
        report = write_config(tmp_path, "report.json", n_cancer=6, n_negative=6)
        ensemble = [sigma for s in default_ensemble() for sigma in s.sigmas]
        condense = list(default_condense_scorer().sigmas)
        args, sides, sigmas, textured = {
            "phantom-gen": (["phantom", "gen", "--config", cfg], (64, 48), [], True),
            "condense-run": (
                ["condense", "run", "--config", cfg, "--cases", str(cases)],
                (64, 48),
                ensemble,
                False,
            ),
            "train-mil": (["train", "mil", "--config", small], (80, 64), condense, True),
            "report": (["report", "--config", report], (64, 48), ensemble, True),
        }[stage]
        texture = RunConfig().background_texture_scale
        lattices = [phantom_module.texture_lattice(n, texture) for n in sides] if textured else []
        assert main(args + ["--out", str(tmp_path / "out"), "--threads", "2"]) == EXIT_OK
        for builds in (operator_builds, lattice_builds):
            assert all(on_main for _, _, on_main in builds)
            built = [(n, sigma) for n, sigma, _ in builds]
            assert len(built) == len(set(built))
        assert operator_builds
        assert {(n, sigma) for n, sigma, _ in operator_builds} == {
            (n, sigma) for n in sides for sigma in sigmas
        } | {(points, texture / spacing) for points, spacing, _ in lattices}
        assert {(n, sigma) for n, sigma, _ in lattice_builds} == {
            (n, texture) for n in sides if textured
        }


class TestSmoothingHooks:
    """perfbench counts Gaussian taps at phantom's and scorer's
    module-level `gaussian_filter`, so every smoothing goes through it."""

    def test_one_call_per_field_two_per_detect_one_build_per_operator(
        self, tmp_path, monkeypatch, operator_builds
    ):
        calls = {"texture": 0, "dog": 0, "case": 0, "detect": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for owner, attr, name in [
            (phantom_module, "gaussian_filter", "texture"),
            (scorer_module, "gaussian_filter", "dog"),
            (cli_module, "generate_case", "case"),
            (scorer_module.BlobScorer, "detect", "detect"),
        ]:
            monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
        n_slices = 10
        cfg = write_config(tmp_path, n_cancer=6, n_negative=6, n_slices=n_slices)
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls["case"] > 0 and calls["detect"] > 0
        # the common texture field, then one per slice
        assert calls["texture"] == calls["case"] * (1 + n_slices)
        assert calls["dog"] == 2 * calls["detect"]
        built = [(n, sigma) for n, sigma, _ in operator_builds]
        assert len(built) == len(set(built)) == 2 * (1 + 2 * len(default_ensemble()))


class TestCondenseRun:
    def test_single_volume(self, cohort, tmp_path):
        cfg, cases = cohort
        out = tmp_path / "one"
        code = main(
            [
                "condense",
                "run",
                "--config",
                cfg,
                "--volume",
                str(cases / "cancer-0000"),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        for name in ("optimized.pgm", "provenance.pgm", "boxes.csv", "score.json"):
            assert (out / name).is_file()
        score = json.loads((out / "score.json").read_text())
        assert 0.0 <= score["score"] <= 1.0
        assert score["n_boxes"] >= 0

    def test_a_slice_index_above_65535_is_not_written(self, tmp_path, monkeypatch, capsys):
        # the composite of a 65537-slice volume picks its last slice
        samples = np.zeros((PGM_MAXVAL + 2, 1, 1), np.uint16)
        picked = np.full((1, 1), PGM_MAXVAL + 1, np.int32)
        opt = OptimizedImage(ImageGrid(np.zeros((1, 1))), picked, [])
        scored = cli_module.ScoredCase(opt, [], [], 0.0)
        monkeypatch.setattr(cli_module, "_condense_and_score", lambda *args: scored)
        monkeypatch.setattr(cli_module, "read_volume", lambda path: samples)
        out = tmp_path / "one"
        code = main(["condense", "run", "--volume", str(tmp_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        reason = "slice index 65536 does not fit a 16-bit PGM"
        assert capsys.readouterr().err == f"error: {out / 'provenance.pgm'}: {reason}\n"
        assert not (out / "provenance.pgm").exists()

    def test_cohort_mode(self, cohort, tmp_path):
        cfg, cases = cohort
        out = tmp_path / "all"
        code = main(
            ["condense", "run", "--config", cfg, "--cases", str(cases), "--out", str(out)]
        )
        assert code == EXIT_OK
        table = read_cases_csv(out / "cases.csv")
        assert len(table) == 4
        by_id = {c.case_id: c for c in table}
        assert by_id["cancer-0000"].label is True
        assert by_id["cancer-0000"].tumor_size_mm is not None
        assert by_id["negative-0000"].label is False
        for case_id in by_id:
            assert (out / "cases" / case_id / "optimized.pgm").is_file()

    def test_thread_count_does_not_change_output(self, cohort, tmp_path):
        cfg, cases = cohort
        a, b = tmp_path / "t1", tmp_path / "t4"
        for out, threads in ((a, "1"), (b, "4")):
            code = main(
                [
                    "condense",
                    "run",
                    "--config",
                    cfg,
                    "--cases",
                    str(cases),
                    "--out",
                    str(out),
                    "--threads",
                    threads,
                ]
            )
            assert code == EXIT_OK
        assert tree_bytes(a) == tree_bytes(b)


# the RunConfig default grid, with a cohort just large enough for report's statistics
DEFAULT_GRID = {"n_cancer": 4, "n_negative": 4, "n_validation": 1, "n_resamples": 200,
                "n_populations": 50}


@pytest.fixture(scope="module")
def default_grid_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("default-grid")
    cfg = str(root / "config.json")
    Path(cfg).write_text(json.dumps(DEFAULT_GRID))
    assert main(["phantom", "gen", "--config", cfg, "--out", str(root / "gen")]) == EXIT_OK
    return cfg, root / "gen" / "cases"


class TestOneStackPerCase:
    """A case lives in one uint16 sample stack from render or read to
    score: generate_case or read_volume returns it, and normalize_volume
    wraps it read-only, normalizing a slice or a patch at a time. numpy
    reports its buffers to tracemalloc, so a stage's traced peak, after a
    warm run has built its operators and imported what it imports lazily,
    is the 16-bit stack (a quarter of a float64 volume) plus per-slice
    work, and no float64 array of volume size."""

    @pytest.fixture(scope="class", params=["report", "phantom gen", "condense run --volume"])
    def traced_peak(self, request, default_grid_cohort, tmp_path_factory):
        """A stage's traced peak on the default grid, in float64 volumes."""
        cfg, cases = default_grid_cohort
        args = {
            "report": ["report", "--config", cfg],
            "phantom gen": ["phantom", "gen", "--config", cfg],
            "condense run --volume": ["condense", "run", "--volume", str(cases / "cancer-0000")],
        }[request.param]
        out = tmp_path_factory.mktemp("traced-peak")
        run = RunConfig()
        float_volume_bytes = 8 * run.n_slices * run.height * run.width
        assert main(args + ["--out", str(out / "warm")]) == EXIT_OK
        tracemalloc.start()
        try:
            assert main(args + ["--out", str(out / "traced")]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / float_volume_bytes

    def test_traced_peak_stays_below_one_and_a_half_volumes(self, traced_peak):
        assert traced_peak < 1.5

    def test_traced_peak_stays_below_0_75_float_volumes(self, traced_peak):
        assert traced_peak < 0.75

    def test_optimized_pgm_is_the_raw_volume_at_the_provenance(self, tmp_path):
        # noise this strong clips at both ends, so the volume spans [0, 65535]
        cfg = write_config(tmp_path, noise_sigma=1e4, n_cancer=1, n_negative=0)
        gen = ["phantom", "gen", "--config", cfg, "--out", str(tmp_path / "gen")]
        assert main(gen) == EXIT_OK
        case = tmp_path / "gen" / "cases" / "cancer-0000"
        assert read_json(case / "truth.json")["clipped_voxels"] > 0
        out = tmp_path / "one"
        assert main(["condense", "run", "--volume", str(case), "--out", str(out)]) == EXIT_OK
        raw = read_volume(case)
        assert raw.min() == 0.0 and raw.max() == 65535.0
        provenance = read_pgm(out / "provenance.pgm").astype(np.intp)
        picked = np.take_along_axis(raw, provenance[None], axis=0)[0]
        write_pgm(picked, tmp_path / "picked.pgm")
        assert (out / "optimized.pgm").read_bytes() == (tmp_path / "picked.pgm").read_bytes()

    def test_returned_volumes_never_change(self, cohort, tmp_path, monkeypatch):
        """generate_case, generate_volume and read_volume hand a stage a
        writable uint16 stack of its own and no Volume, and every Volume that
        normalize_volume returns, wherever a stage calls it, holds the same
        samples when the stage has finished."""
        stacks, volumes = [], []

        def recording(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                out = result[0] if isinstance(result, tuple) else result
                if isinstance(out, Volume):
                    volumes.append((fn.__name__, out, out.samples.tobytes()))
                else:
                    stacks.append((fn.__name__, out.dtype, out.flags.writeable))
                return result

            return wrapper

        for module, name in [
            (imaging_module, "read_volume"),
            (imaging_module, "normalize_volume"),
            (phantom_module, "generate_volume"),
            (phantom_module, "generate_case"),
        ]:
            original = getattr(module, name)
            wrapped = recording(original)
            for owner in (imaging_module, phantom_module, cli_module):
                if getattr(owner, name, None) is original:
                    monkeypatch.setattr(owner, name, wrapped)
        cfg, cases = cohort
        small = write_config(tmp_path, "small.json", width=64, height=80, n_slices=10)
        report = write_config(tmp_path, "report.json", n_cancer=6, n_negative=6)
        runs = [
            ["phantom", "gen", "--config", cfg],
            ["condense", "run", "--config", cfg, "--cases", str(cases)],
            ["condense", "run", "--config", cfg, "--volume", str(cases / "cancer-0000")],
            ["train", "mil", "--config", small],
            ["report", "--config", report],
        ]
        for i, args in enumerate(runs):
            assert main(args + ["--out", str(tmp_path / str(i)), "--threads", "2"]) == EXIT_OK
        names = {name for name, _, _ in stacks}
        assert names == {"generate_case", "generate_volume", "read_volume"}
        assert all(dtype == np.uint16 and writeable for _, dtype, writeable in stacks)
        assert {name for name, _, _ in volumes} == {"normalize_volume"}
        for _, vol, samples in volumes:
            assert vol.samples.tobytes() == samples


class TestScoreStudy:
    def make_view(self, path, bright=False):
        rng = np.random.default_rng(3)
        data = rng.normal(500.0, 20.0, size=(48, 40))
        if bright:
            yy, xx = np.mgrid[0:48, 0:40]
            data += 400.0 * np.exp(-(((yy - 24) ** 2 + (xx - 20) ** 2) / 60.0))
        write_pgm(quantized(data), path)

    def test_study_rollup(self, tmp_path):
        views = [
            ("left", "cc", True),
            ("left", "mlo", False),
            ("right", "cc", False),
            ("right", "mlo", False),
        ]
        entries = []
        for breast, label, bright in views:
            name = f"{breast}_{label}.pgm"
            self.make_view(tmp_path / name, bright)
            entries.append({"breast": breast, "view": label, "path": name})
        manifest = tmp_path / "study.json"
        manifest.write_text(json.dumps({"case_id": "study-1", "views": entries}))
        out = tmp_path / "scored"
        assert main(["score", "study", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK

        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[0] == "level,name,score"
        rows = [line.split(",") for line in lines[1:]]
        view_rows = {r[1]: float(r[2]) for r in rows if r[0] == "view"}
        breast_rows = {r[1]: float(r[2]) for r in rows if r[0] == "breast"}
        study_rows = [float(r[2]) for r in rows if r[0] == "study"]
        assert len(view_rows) == 4 and len(breast_rows) == 2 and len(study_rows) == 1
        assert breast_rows["left"] == pytest.approx(
            (view_rows["left-cc"] + view_rows["left-mlo"]) / 2, abs=1e-12
        )
        assert study_rows[0] == max(breast_rows.values())
        # the bright blob sits in the left breast
        assert breast_rows["left"] > breast_rows["right"]

    def test_names_that_need_quoting_stay_one_field(self, tmp_path):
        write_study(tmp_path, [])
        views = [
            {"breast": "left", "view": 'c,"c"', "path": "a.pgm"},
            {"breast": "right", "view": "mlo", "path": "b.pgm"},
        ]
        manifest = tmp_path / "study.json"
        manifest.write_text(json.dumps({"case_id": 'p,"1"', "views": views}))
        out = tmp_path / "scored"
        assert main(["score", "study", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        with open(out / "scores.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["level", "name", "score"] and all(len(r) == 3 for r in rows)
        names = [(level, name) for level, name, _ in rows[1:]]
        assert names == [
            ("view", 'left-c,"c"'), ("view", "right-mlo"), ("breast", "left"),
            ("breast", "right"), ("study", 'p,"1"'),
        ]

    def test_missing_view_key_rejected(self, tmp_path):
        manifest = tmp_path / "study.json"
        manifest.write_text(json.dumps({"case_id": "s", "views": [{"breast": "left"}]}))
        code = main(["score", "study", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


    @pytest.mark.parametrize(
        "view",
        [
            {"breast": "left", "view": "cc", "path": 5},
            {"breast": ["left"], "view": "cc", "path": "a.pgm"},
            "a.pgm",
        ],
    )
    def test_mistyped_view_rejected(self, tmp_path, capsys, view):
        manifest = write_study(tmp_path, [view])
        code = main(["score", "study", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"{manifest}: each view needs" in capsys.readouterr().err


class TestTrainMil:
    def test_writes_loadable_scorer(self, tmp_path):
        cfg = write_config(tmp_path, width=64, height=80, n_slices=10)
        out = tmp_path / "trained"
        assert main(["train", "mil", "--config", cfg, "--out", str(out)]) == EXIT_OK
        result = read_json(out / "toy_scorer.json")
        assert len(result["weights"]) == 4
        assert isinstance(result["bias"], float)
        assert len(result["loss_trajectory"]) == QUICK["iterations"]
        assert all(v >= 0 for v in result["loss_trajectory"])

    @pytest.mark.parametrize("iterations", [5, 80])
    def test_features_are_extracted_once_per_candidate(self, iterations, tmp_path, monkeypatch):
        calls = []
        rows = []

        def counting(*args, _original=miltrain_module.extract_patch_features, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        def recording(*args, _original=cli_module.TrainingCase, **kwargs):
            case = _original(*args, **kwargs)
            rows.append(len(case.features))
            return case

        monkeypatch.setattr(miltrain_module, "extract_patch_features", counting)
        monkeypatch.setattr(cli_module, "TrainingCase", recording)
        cfg = write_config(tmp_path, width=64, height=80, n_slices=10, iterations=iterations)
        out = tmp_path / "trained"
        args = ["train", "mil", "--config", cfg, "--out", str(out), "--threads", "1"]
        assert main(args) == EXIT_OK
        assert rows and len(calls) == sum(rows)


def count_detections(monkeypatch) -> list:
    """Patch BlobScorer.detect to record one entry per call."""
    calls = []

    def counting(self, img, _original=scorer_module.BlobScorer.detect):
        calls.append(1)
        return _original(self, img)

    monkeypatch.setattr(scorer_module.BlobScorer, "detect", counting)
    return calls


class TestSingleDetectionPass:
    """Each image is detected once per scorer: a composite's boxes give
    both its score and train mil's candidates, and report's center-slice
    score reuses the condense scorer's boxes on that slice."""

    def test_report(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, n_slices=12, n_cancer=6, n_negative=6)
        calls = count_detections(monkeypatch)
        out = tmp_path / "report"
        assert main(["report", "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_OK
        trimmed = len(trimmed_slices(12))
        assert trimmed == 10
        n_cases = 12
        assert len(calls) == QUICK["n_validation"] * trimmed + n_cases * (trimmed + 5)
        monkeypatch.undo()

        run = load_config(cfg, {})
        center = read_cases_csv(out / "cases_center.csv")
        assert len(center) == n_cases
        for record in center:
            samples, _, _ = cli_module._case(run, record.case_id, record.label)
            img = normalize_volume(samples).slice(len(samples) // 2)
            assert record.score == ensemble_image_score([s.detect(img) for s in default_ensemble()])

    def test_train_mil(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, width=64, height=80, n_slices=12)
        calls = count_detections(monkeypatch)
        args = ["train", "mil", "--config", cfg, "--out", str(tmp_path / "t"), "--threads", "1"]
        assert main(args) == EXIT_OK
        n_train = QUICK["n_train_cancer"] + QUICK["n_train_negative"]
        assert len(calls) == n_train * (len(trimmed_slices(12)) + 1)


class TestReportSummary:
    def test_clipped_voxels_do_not_depend_on_threads(self, tmp_path):
        # each case counts its own clipped voxels, so worker threads share no count
        cfg = write_config(tmp_path, noise_sigma=1e4, n_cancer=6, n_negative=6)
        counts = {}
        for threads in ("1", "2"):
            gen, report = tmp_path / f"gen{threads}", tmp_path / f"report{threads}"
            for args in (["phantom", "gen", "--out", str(gen)], ["report", "--out", str(report)]):
                assert main(args + ["--config", cfg, "--threads", threads]) == EXIT_OK
            truths = sorted(gen.rglob("truth.json"))
            per_case = [(p.parent.name, read_json(p)["clipped_voxels"]) for p in truths]
            counts[threads] = per_case, read_json(report / "summary.json")["clipped_voxels"]
        per_case, total = counts["1"]
        assert len(per_case) == 12 and min(n for _, n in per_case) > 0
        assert total == sum(n for _, n in per_case)
        assert counts["2"] == counts["1"]

    def test_clipped_voxels_sum_the_cases(self, tmp_path):
        cfg = write_config(tmp_path, noise_sigma=400.0, n_cancer=6, n_negative=6)
        out, gen = tmp_path / "report", tmp_path / "gen"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["phantom", "gen", "--config", cfg, "--out", str(gen)]) == EXIT_OK
        counts = [read_json(p)["clipped_voxels"] for p in sorted(gen.rglob("truth.json"))]
        assert len(counts) == 12 and min(counts) > 0
        assert read_json(out / "summary.json")["clipped_voxels"] == sum(counts)

    def test_model_block_is_eval_rocs(self, tmp_path):
        cfg = write_config(tmp_path, n_cancer=6, n_negative=6)
        out = tmp_path / "report"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        roc = tmp_path / "roc"
        args = ["eval", "roc", "--config", cfg, "--cases", str(out / "cases.csv")]
        assert main(args + ["--out", str(roc)]) == EXIT_OK
        model = read_json(out / "summary.json")["model"]
        assert sorted(model) == ["auc", "auc_ci", "n_redraws", "n_resamples"]
        assert model == {k: v for k, v in read_json(roc / "summary.json").items() if k in model}


class TestEvalRoc:
    def test_summary_contents(self, tmp_path):
        csv_path = scored_csv(tmp_path)
        out = tmp_path / "roc"
        assert main(["eval", "roc", "--cases", csv_path, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_cases"] == 24 and summary["n_cancer"] == 12
        assert 0.5 < summary["auc"] <= 1.0
        lo, hi = summary["auc_ci"]
        assert lo <= summary["auc"] <= hi
        assert summary["operating"]["specificity_target"] == 0.9
        assert (out / "roc.csv").is_file() and (out / "roc.svg").is_file()


class TestEvalDelong:
    def test_paired_comparison(self, tmp_path):
        a = scored_csv(tmp_path, name="a.csv")
        cases = read_cases_csv(a)
        rng = np.random.default_rng(1)
        noisier = [
            CaseRecord(
                case_id=c.case_id,
                label=c.label,
                score=float(np.clip(c.score + rng.normal(0, 0.25), 0, 1)),
            )
            for c in cases
        ]
        b = tmp_path / "b.csv"
        write_cases_csv(noisier, b)
        out = tmp_path / "delong"
        code = main(["eval", "delong", "--cases-a", a, "--cases-b", str(b), "--out", str(out)])
        assert code == EXIT_OK
        result = json.loads((out / "delong.json").read_text())
        assert set(result) == {"n_cases", "auc_a", "auc_b", "z", "p_value", "degenerate"}
        assert 0.0 <= result["p_value"] <= 1.0

    def test_mismatched_tables_rejected(self, tmp_path):
        a = scored_csv(tmp_path, name="a.csv", n_pos=3, n_neg=3)
        b = scored_csv(tmp_path, name="b.csv", n_pos=4, n_neg=2)
        code = main(
            ["eval", "delong", "--cases-a", a, "--cases-b", b, "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG


class TestEvalReaders:
    def test_outputs(self, tmp_path):
        csv_path = scored_csv(tmp_path, readers=("r1", "r2"))
        out = tmp_path / "readers"
        assert main(["eval", "readers", "--cases", csv_path, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "readers.json").read_text())
        assert set(data["readers"]) == {"r1", "r2"}
        assert data["n_panels"] == 3
        assert 0.0 <= data["paired_delta"]["p_value"] <= 1.0
        lines = (out / "panels.csv").read_text().splitlines()
        assert len(lines) == 4  # header + r1 + r2 + r1+r2
        assert (out / "readers.svg").is_file()

    def test_reader_points_come_from_the_panels(self, tmp_path, monkeypatch):
        # one BIRADS matrix for the panels, one for the paired delta
        calls = []
        build = stats_module._birads_matrix
        monkeypatch.setattr(stats_module, "_birads_matrix", lambda *a: calls.append(1) or build(*a))
        csv_path = scored_csv(tmp_path, readers=("r1", "r2", "r3"))
        out = tmp_path / "readers"
        assert main(["eval", "readers", "--cases", csv_path, "--out", str(out)]) == EXIT_OK
        assert len(calls) == 2
        cases = read_cases_csv(csv_path)
        points = json.loads((out / "readers.json").read_text())["readers"]
        assert sorted(points) == ["r1", "r2", "r3"]
        for reader, point in points.items():
            sens, spec = recall_tally(cases, [reader])
            assert point == {"sensitivity": sens, "specificity": spec}

    def test_requires_reader_columns(self, tmp_path):
        csv_path = scored_csv(tmp_path)
        code = main(["eval", "readers", "--cases", csv_path, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


class TestEvalSizeMatched:
    def test_source_target(self, tmp_path):
        csv_path = scored_csv(tmp_path, sizes=True)
        out = tmp_path / "sm"
        code = main(
            ["eval", "size-matched", "--cases", csv_path, "--target", "source", "--out", str(out)]
        )
        assert code == EXIT_OK
        data = json.loads((out / "size_matched.json").read_text())
        assert 0.0 <= data["mean_auc"] <= 1.0
        assert data["n_populations"] == 5000
        assert len(data["target"]["shares"]) == 4

    def test_explicit_target_file(self, tmp_path):
        csv_path = scored_csv(tmp_path, sizes=True)
        target = tmp_path / "target.json"
        # sizes in the fixture stay below 50mm, so the top bin gets no mass
        target.write_text(
            json.dumps({"bin_edges": [10.0, 20.0, 50.0], "shares": [0.25, 0.25, 0.5, 0.0]})
        )
        out = tmp_path / "sm2"
        code = main(
            [
                "eval",
                "size-matched",
                "--cases",
                csv_path,
                "--target",
                str(target),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK

    def test_bad_target_histogram(self, tmp_path):
        csv_path = scored_csv(tmp_path, sizes=True)
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"bin_edges": [10.0], "shares": [0.9, 0.9]}))
        code = main(
            [
                "eval",
                "size-matched",
                "--cases",
                csv_path,
                "--target",
                str(target),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG


    @pytest.mark.parametrize(
        "histogram",
        [
            {"bin_edges": [10.0, 20.0, 50.0], "shares": [float("nan"), 0.5, 0.25, 0.25]},
            {"bin_edges": [10.0, float("nan"), 50.0], "shares": [0.25, 0.25, 0.25, 0.25]},
            {"bin_edges": [10.0, 20.0, float("inf")], "shares": [0.25, 0.25, 0.25, 0.25]},
            {"bin_edges": [10.0, 20.0, 10**400], "shares": [0.25, 0.25, 0.25, 0.25]},
        ],
        ids=["nan-share", "nan-edge", "infinite-edge", "400-digit-edge"],
    )
    def test_non_finite_target_exits_two_naming_the_file(self, tmp_path, capsys, histogram):
        csv_path = scored_csv(tmp_path, sizes=True)
        target = tmp_path / "target.json"
        target.write_text(json.dumps(histogram))  # Python's json writes NaN and Infinity
        args = ["eval", "size-matched", "--cases", csv_path, "--target", str(target)]
        assert main(args + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        want = f"error: {target}: bin_edges and shares must be finite"
        assert capsys.readouterr().err.splitlines() == [want]
        assert not (tmp_path / "o" / "size_matched.json").exists()

    @pytest.mark.parametrize(
        "histogram",
        [
            {"bin_edges": ["10", "20"], "shares": [0.25, 0.25, 0.5]},
            {"bin_edges": [10.0, 20.0], "shares": ["0", "0.5", "0.5"]},
            {"bin_edges": [True, 20], "shares": [0.25, 0.25, 0.5]},
            {"bin_edges": [10.0, 20.0], "shares": [0.25, None, 0.75]},
            {"bin_edges": 10.0, "shares": [0.5, 0.5]},
            {"bin_edges": [10.0, 20.0]},
            {"bin_edges": [10.0, [20.0]], "shares": [0.25, 0.25, 0.5]},
        ],
        ids=["string-edges", "string-shares", "bool-edge", "null-share", "bare-edge",
             "no-shares", "nested-edge"],
    )
    def test_non_number_target_exits_two_naming_the_file(self, tmp_path, capsys, histogram):
        csv_path = scored_csv(tmp_path, sizes=True)
        target = tmp_path / "target.json"
        target.write_text(json.dumps(histogram))
        args = ["eval", "size-matched", "--cases", csv_path, "--target", str(target)]
        assert main(args + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        want = f"error: {target}: target histogram needs bin_edges and shares lists of numbers"
        assert capsys.readouterr().err.splitlines() == [want]
        assert not (tmp_path / "o" / "size_matched.json").exists()

    def test_integer_and_float_spellings_write_the_same_bytes(self, tmp_path):
        csv_path = scored_csv(tmp_path, sizes=True)
        spellings = {
            "int": {"bin_edges": [10, 20, 50], "shares": [1, 0, 0, 0]},
            "float": {"bin_edges": [10.0, 20.0, 50.0], "shares": [1.0, 0.0, 0.0, 0.0]},
        }
        written = []
        for name, histogram in spellings.items():
            target = tmp_path / f"{name}.json"
            target.write_text(json.dumps(histogram))
            out = tmp_path / name
            args = ["eval", "size-matched", "--cases", csv_path, "--target", str(target)]
            assert main(args + ["--out", str(out)]) == EXIT_OK
            written.append((out / "size_matched.json").read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0])["target"]["bin_edges"] == [10.0, 20.0, 50.0]


class TestPipelineChain:
    def test_gen_condense_roc_chain(self, tmp_path):
        """The documented three-step flow on the shipped demo config."""
        demo = Path(__file__).resolve().parent.parent / "demo" / "run_config.json"
        assert demo.is_file()
        gen = tmp_path / "gen"
        assert main(["phantom", "gen", "--config", str(demo), "--out", str(gen)]) == EXIT_OK
        cond = tmp_path / "cond"
        assert (
            main(
                [
                    "condense",
                    "run",
                    "--config",
                    str(demo),
                    "--cases",
                    str(gen / "cases"),
                    "--out",
                    str(cond),
                    "--threads",
                    "4",
                ]
            )
            == EXIT_OK
        )
        ev = tmp_path / "roc"
        assert (
            main(
                [
                    "eval",
                    "roc",
                    "--config",
                    str(demo),
                    "--cases",
                    str(cond / "cases.csv"),
                    "--out",
                    str(ev),
                ]
            )
            == EXIT_OK
        )
        summary = json.loads((ev / "summary.json").read_text())
        assert summary["n_cases"] == 20
        assert summary["auc"] > 0.5

    def test_report_scores_what_the_chain_scores(self, tmp_path):
        """report draws each volume as phantom gen stores it, so at report's
        threshold the chain gives every case the same score string."""
        demo = str(Path(__file__).resolve().parent.parent / "demo" / "run_config.json")
        rep, gen, cond = tmp_path / "report", tmp_path / "gen", tmp_path / "cond"
        assert main(["report", "--config", demo, "--out", str(rep), "--threads", "2"]) == EXIT_OK
        threshold = repr(read_json(rep / "summary.json")["score_threshold"])
        assert main(["phantom", "gen", "--config", demo, "--out", str(gen)]) == EXIT_OK
        args = ["condense", "run", "--config", demo, "--cases", str(gen / "cases")]
        assert main(args + ["--threshold", threshold, "--out", str(cond)]) == EXIT_OK

        def scores(path: Path) -> dict[str, str]:
            rows = [line.split(",") for line in path.read_text().splitlines()]
            col = rows[0].index("score")
            return {row[0]: row[col] for row in rows[1:]}

        assert len(scores(rep / "cases.csv")) == 20
        assert scores(rep / "cases.csv") == scores(cond / "cases.csv")


class TestBundleFormats:
    """Every JSON and CSV file a stage writes is in the one style of
    `imaging.write_json` and `imaging.write_csv`."""

    @pytest.fixture(scope="class")
    def bundles(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("formats")
        cfg = write_config(root, n_cancer=6, n_negative=6)
        small = write_config(root, "small.json", width=64, height=80, n_slices=10)
        gen = root / "gen"
        runs = [
            ["report", "--config", cfg, "--out", str(root / "report")],
            ["phantom", "gen", "--config", cfg, "--out", str(gen)],
            ["condense", "run", "--config", cfg, "--cases", str(gen / "cases"),
             "--out", str(root / "cond")],
            ["train", "mil", "--config", small, "--out", str(root / "mil")],
            ["eval", "roc", "--config", cfg, "--cases", str(root / "cond" / "cases.csv"),
             "--out", str(root / "roc")],
        ]
        for args in runs:
            assert main(args) == EXIT_OK
        return root

    def files(self, root: Path, suffix: str) -> list[Path]:
        paths = sorted(root.rglob(f"*{suffix}"))
        assert paths
        return [p for p in paths if p.parent != root]  # not the configs

    def test_json_is_indented_sorted_and_newline_terminated(self, bundles):
        paths = self.files(bundles, ".json")
        assert {p.name for p in paths} >= {
            "summary.json", "run_manifest.json", "truth.json", "manifest.json",
            "score.json", "toy_scorer.json",
        }
        for path in paths:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path

    def test_csv_rows_match_the_header_and_end_in_newline(self, bundles):
        paths = self.files(bundles, ".csv")
        assert {p.name for p in paths} == {
            "cases.csv", "cases_center.csv", "roc.csv", "panels.csv", "boxes.csv",
        }
        for path in paths:
            raw = path.read_bytes()
            assert b"\r" not in raw and raw.endswith(b"\n"), path
            with open(path, newline="") as f:
                header, *rows = csv.reader(f)
            assert all(len(row) == len(header) for row in rows), path


class TestSubprocessEntry:
    # Runs the CLI as `python -m tomoscreen.cli` does and, on exit, prints
    # to stderr whether the module named by its first argument was ever
    # imported.
    PROBE = (
        "import atexit, runpy, sys\n"
        "module = sys.argv.pop(1)\n"
        "atexit.register(lambda: print(module in sys.modules, file=sys.stderr))\n"
        "sys.argv[0] = 'tomoscreen'\n"
        "runpy.run_module('tomoscreen.cli', run_name='__main__')\n"
    )

    def run_python(self, *args, env=None):
        # the child imports the same package as this test, installed or not
        env = os.environ if env is None else env
        src = str(Path(cli_module.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            timeout=120,
            env={**env, "PYTHONPATH": path},
        )

    def run_cli(self, *argv, env=None):
        return self.run_python("-m", "tomoscreen.cli", *argv, env=env)

    def loaded(self, module: str, *argv, preamble: str = "") -> bool:
        proc = self.run_python("-c", preamble + self.PROBE, module, *argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        return proc.stderr.splitlines()[-1] == "True"

    def ndimage_loaded(self, *argv, preamble: str = "") -> bool:
        return self.loaded("scipy.ndimage", *argv, preamble=preamble)

    def test_import_and_version_leave_out_scipy_ndimage(self):
        proc = self.run_python("-c", "import sys, tomoscreen.cli; print(sorted(sys.modules))")
        assert proc.returncode == 0
        assert "'scipy.ndimage'" not in proc.stdout and "'tomoscreen.scorer'" in proc.stdout
        assert "'scipy'" not in proc.stdout
        assert not self.ndimage_loaded("--version")

    def test_report_leaves_out_scipy(self, tmp_path):
        cfg = write_config(tmp_path, n_cancer=6, n_negative=6)
        assert not self.loaded("scipy", "report", "--config", cfg, "--out", str(tmp_path / "r"))
        assert self.loaded("scipy", "--version", preamble="import scipy\n")

    def test_eval_roc_leaves_out_scipy_ndimage(self, tmp_path):
        args = ["eval", "roc", "--config", write_config(tmp_path), "--cases", scored_csv(tmp_path)]
        assert not self.ndimage_loaded(*args, "--out", str(tmp_path / "ev"))

    @pytest.mark.parametrize("stage", ["phantom-gen", "condense-run", "train-mil", "report"])
    def test_image_stages_leave_out_scipy_ndimage(self, stage, tmp_path, cohort):
        # their filters are imaging's numpy code
        cfg, cases = cohort
        small = write_config(tmp_path, "small.json", width=64, height=80, n_slices=10)
        report = write_config(tmp_path, "report.json", n_cancer=6, n_negative=6)
        args = {
            "phantom-gen": ["phantom", "gen", "--config", cfg],
            "condense-run": ["condense", "run", "--config", cfg, "--cases", str(cases)],
            "train-mil": ["train", "mil", "--config", small],
            "report": ["report", "--config", report],
        }[stage]
        assert not self.ndimage_loaded(*args, "--out", str(tmp_path / "out"))

    def test_probe_reads_true_when_the_child_imports_scipy_ndimage(self):
        # the probe's control
        assert self.ndimage_loaded("--version", preamble="import scipy.ndimage\n")

    @pytest.mark.parametrize("stage", ["phantom gen", "train mil", "report"])
    def test_a_texture_scale_below_the_first_tap_runs(self, stage, tmp_path):
        # sigma**2 underflows to 0.0 at 1e-200; a radius-0 kernel is one tap
        cfg = write_config(tmp_path, n_cancer=6, n_negative=6, background_texture_scale=1e-200)
        proc = self.run_cli(*stage.split(), "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""

    def test_noise_sigma_at_its_cap_generates(self, tmp_path):
        cfg = write_config(tmp_path, width=32, height=32, n_slices=5, noise_sigma=NOISE_SIGMA_MAX)
        proc = self.run_cli("phantom", "gen", "--config", cfg, "--out", str(tmp_path / "g"))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""

    def test_noise_sigma_above_its_cap_is_one_line(self, tmp_path):
        above = float(np.nextafter(NOISE_SIGMA_MAX, np.inf))
        cfg = write_config(tmp_path, width=32, height=32, n_slices=5, noise_sigma=above)
        proc = self.run_cli("phantom", "gen", "--config", cfg, "--out", str(tmp_path / "g"))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.splitlines() == [
            f"error: {cfg}: noise_sigma must be <= {NOISE_SIGMA_MAX}"
        ]

    def test_blas_threads_cannot_move_report_bytes(self, tmp_path):
        # The package reads no thread setting: a child with one BLAS thread
        # and a child with the library's default must write equal bundles,
        # at either --threads value.
        cfg = write_config(tmp_path, n_cancer=6, n_negative=6)
        bundles = []
        for blas_threads in ("1", None):
            for threads in ("1", "2"):
                env = dict(os.environ)
                env.pop("OPENBLAS_NUM_THREADS", None)
                if blas_threads is not None:
                    env["OPENBLAS_NUM_THREADS"] = blas_threads
                out = tmp_path / f"blas{blas_threads}-t{threads}"
                argv = ["report", "--config", cfg, "--out", str(out), "--threads", threads]
                proc = self.run_cli(*argv, env=env)
                assert proc.returncode == EXIT_OK, proc.stderr
                bundles.append(tree_bytes(out))
        assert len(bundles[0]) > 5
        assert all(bundle == bundles[0] for bundle in bundles[1:])

    def test_version(self):
        proc = self.run_cli("--version")
        assert proc.returncode == 0
        assert "tomoscreen" in proc.stdout

    def test_help(self):
        proc = self.run_cli("--help")
        assert proc.returncode == 0
        for word in ("phantom", "condense", "score", "train", "eval", "report"):
            assert word in proc.stdout

    def test_unknown_flag(self):
        proc = self.run_cli("--frobnicate")
        assert proc.returncode == 2
        assert proc.stderr

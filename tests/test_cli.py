"""Command line behavior: config handling, exit codes, artifacts,
rerun byte-stability."""

import contextlib
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tomoscreen.cli as cli_module
from tomoscreen.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    config_from_dict,
    config_payload,
    load_config,
    main,
    reader_profiles,
    synthetic_birads,
)
from tomoscreen.errors import ConfigError
from tomoscreen.imaging import ImageGrid, Volume, read_json, write_pgm, write_volume
from tomoscreen.phantom import LesionSpec, PhantomTruth, read_truth, write_truth
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
                birads[r] = 4 if rng.random() < p else 1
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
        with pytest.raises(ConfigError):
            config_from_dict({"learning_rte": 0.1})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"iou_threshold": 1.5})
        with pytest.raises(ConfigError):
            config_from_dict({"contrast_range": [220.0, 60.0]})
        with pytest.raises(ConfigError):
            config_from_dict({"contrast_range": [60.0]})
        with pytest.raises(ConfigError):
            config_from_dict({"n_readers": 0})
        with pytest.raises(ConfigError):
            config_from_dict({"size_bin_edges": [20.0, 10.0]})
        with pytest.raises(ConfigError):
            config_from_dict({"width": 8})

    INT_FIELDS = (
        "width", "height", "n_slices", "n_cancer", "n_negative", "n_validation", "iterations",
        "n_train_cancer", "n_train_negative", "n_resamples", "n_populations", "n_readers", "seed",
    )

    @pytest.mark.parametrize("value", [48.0, 2.5, True, "7", None, [40]])
    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_integer_fields_take_only_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
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
    )

    @pytest.mark.parametrize("number", ["1e999", "NaN"])
    @pytest.mark.parametrize("field, template", FLOAT_FIELDS)
    def test_float_fields_must_be_finite(self, tmp_path, capsys, field, template, number):
        path = tmp_path / "config.json"
        text = json.dumps(dict(QUICK, **{field: "BAD"}))
        path.write_text(text.replace('"BAD"', template.format(number)))
        code = main(["phantom", "gen", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"{path}: {field} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [10**400, True, "7"], ids=["400 digits", "bool", "str"])
    def test_float_fields_take_only_finite_numbers(self, value):
        with pytest.raises(ConfigError, match="^noise_sigma must be a finite number"):
            config_from_dict({"noise_sigma": value})

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

    def test_payload_excludes_paths(self):
        cfg = config_from_dict({"out_dir": "/tmp/x", "cases_dir": "/tmp/y", "seed": 1})
        payload = config_payload(cfg)
        assert "out_dir" not in payload and "cases_dir" not in payload
        assert payload["seed"] == 1


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

    def test_missing_input_file(self, tmp_path):
        code = main(
            ["eval", "roc", "--cases", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_IO

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
        write_volume(Volume(np.full((3, 40, 40), 1000.0)), directory)
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
        write_pgm(ImageGrid(rng.normal(500.0, 20.0, size=(48, 40))), directory / name)
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
    write_volume(Volume(np.full((3, 40, 40), 1000.0)), case)
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

    @pytest.mark.parametrize("reader", READERS)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_damaged_bytes(self, reader, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            args, path = json_input_run(reader, root)
            path.write_bytes(data.draw(damaged(path.read_bytes()), label="content"))
            code, err = run_quietly(args + ["--out", str(root / "o")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO)
        # a damaged view path may point at a missing image, which the
        # I/O error names instead of the manifest
        if code != EXIT_OK and not (code == EXIT_IO and reader == "study manifest"):
            assert str(path) in err


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

        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["stage"] == "phantom-gen"
        assert manifest["seed"] == QUICK["seed"]
        assert "config_sha256" in manifest and "versions" in manifest
        assert "out_dir" not in manifest["config"]

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


class TestScoreStudy:
    def make_view(self, path, bright=False):
        rng = np.random.default_rng(3)
        data = rng.normal(500.0, 20.0, size=(48, 40))
        if bright:
            yy, xx = np.mgrid[0:48, 0:40]
            data += 400.0 * np.exp(-(((yy - 24) ** 2 + (xx - 20) ** 2) / 60.0))
        write_pgm(ImageGrid(data), path)

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


class TestSubprocessEntry:
    def run_cli(self, *argv):
        # the child imports the same package as this test, installed or not
        src = str(Path(cli_module.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "tomoscreen.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )

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

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from logfiles import (TEXT, both_layouts, corrupt, corruptions, parses, read_csv, records,
                      row_blob, set_row_blob, write_csv)

from tagtrack.artifacts import _cov_traces
from tagtrack.cli import main
from tagtrack.config import (ConfigError, config_hash, geometry_from,
                             load_config, schedule_from, validate_config)
from tagtrack.geometry import unambiguous_fov
from tagtrack.pipeline import (DatasetSpec, dtw_experiment, knn_experiment,
                               synthesize_dataset)
from tagtrack.readerlog import CSV_HEADER, _json_text, read_reader_log, write_reader_log

TINY = ["--set", "scene.samples_per_class=2", "--set", "scene.windows=12",
        "--set", "scene.classes=[\"SL\",\"SR\"]"]


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config()
        assert cfg["seed"] == 0
        assert config_hash(cfg) == config_hash(load_config())

    def test_unknown_block_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(overrides=["bogus.x=1"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="music.bogus"):
            load_config(overrides=["music.bogus=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="snr_db"):
            load_config(overrides=["scene.snr_db=\"loud\""])
        with pytest.raises(ConfigError, match="classify.k"):
            load_config(overrides=["classify.k=4"])

    def test_override_changes_hash(self):
        assert config_hash(load_config()) != \
            config_hash(load_config(overrides=["scene.snr_db=17"]))

    def test_seed_override(self):
        assert load_config(seed=99)["seed"] == 99

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scene": {"snr_db": 14.0}}))
        cfg = load_config(path)
        assert cfg["scene"]["snr_db"] == 14.0

    def test_geometry_from_defaults(self):
        geo = geometry_from(load_config())
        assert geo.element_spacing_m == pytest.approx(0.8 * geo.wavelength_m)

    def test_windowing_block_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"windowing": {"samples_per_window": None}}))
        with pytest.raises(ConfigError, match="windowing: unknown key"):
            load_config(path)

    def test_validate_rejects_extra_top_key(self):
        cfg = load_config()
        cfg["extra"] = 1
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize("value", ["true", "false"])
    @pytest.mark.parametrize("key", ["seed", "scene.nlos_paths", "scene.samples_per_class",
                                     "scene.windows", "schedule.samples_per_window",
                                     "classify.k", "classify.split_seed"])
    def test_bool_is_not_an_integer(self, key, value):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            load_config(overrides=[f"{key}={value}"])

    def test_search_range_must_lie_in_fov(self, tmp_path, capsys):
        spacing = "geometry.element_spacing_m=0.4"          # FOV +-12.5 deg
        with pytest.raises(ConfigError, match="music.search_deg: .*field of view"):
            load_config(overrides=[spacing])
        fov = math.degrees(unambiguous_fov(geometry_from(
            load_config(overrides=[spacing, "music.search_deg=[-12,12]"]))))
        load_config(overrides=[spacing, f"music.search_deg=[{-fov!r},{fov!r}]"])
        assert main(["estimate", "--in", str(tmp_path), "--out", str(tmp_path / "est"),
                     "--set", spacing]) == 2
        assert "config error: music.search_deg: " in capsys.readouterr().err

    def test_fixed_tags_must_lie_in_fov(self, tmp_path, capsys):
        "A fixed tag past the field of view would be tracked at its alias; gestures ignore it."
        fixed, outside = "scene.mode=\"fixed\"", 'scene.fixed_tags_deg={"tag1": 40.0}'
        with pytest.raises(ConfigError, match=r"^scene\.fixed_tags_deg: tag 'tag1' at 40\.0 deg "
                                              r"lies outside the field of view \+-18\.21 deg$"):
            load_config(overrides=[fixed, outside])
        with pytest.raises(ConfigError, match="tag 'b' at -18.5 deg"):
            load_config(overrides=[fixed, 'scene.fixed_tags_deg={"a": 18.0, "b": -18.5}'])
        load_config(overrides=[fixed, 'scene.fixed_tags_deg={"a": 18.0, "b": -18.2}'])
        load_config(overrides=[outside])
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--set", fixed, "--set", outside]) == 2
        assert "config error: scene.fixed_tags_deg: tag 'tag1'" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCli:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--seed", "7", "--out", str(a), *TINY]) == 0
        assert main(["simulate", "--seed", "7", "--out", str(b), *TINY]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--seed", "7", "--out", str(a), *TINY])
        main(["simulate", "--seed", "8", "--out", str(b), *TINY])
        assert tree_digest(a) != tree_digest(b)

    def test_manifest_and_truth(self, tmp_path):
        main(["simulate", "--seed", "1", "--out", str(tmp_path), *TINY])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["samples"]) == 4
        assert {s["label"] for s in manifest["samples"]} == {"SL", "SR"}
        first = manifest["samples"][0]
        truth = json.loads((tmp_path / first["dir"] / "truth.json").read_text())
        assert set(truth) == {"tag1", "tag2"}
        assert len(truth["tag1"]) == 12

    def test_fixed_mode(self, tmp_path):
        main(["simulate", "--seed", "2", "--out", str(tmp_path),
              "--set", "scene.mode=\"fixed\"", "--set", "scene.windows=10",
              "--set", "scene.misdetect_prob=0.0"])
        assert (tmp_path / "readerlog.csv").exists()
        truth = json.loads((tmp_path / "truth.json").read_text())
        np.testing.assert_allclose(truth["tag1"], [-15.0] * 10, atol=1e-9)

    def test_gesture_outside_fov_fails(self, tmp_path, capsys):
        "A gesture that no offset fits into a narrow field of view fails naming tag and FOV."
        assert main(["simulate", "--out", str(tmp_path / "sim"),
                     "--set", "geometry.element_spacing_m=0.52",
                     "--set", "music.search_deg=[-9,9]"]) == 1
        assert capsys.readouterr().err == (
            "runtime error: OutOfFovError: tag 0 trajectory reaches 16.1 deg, "
            "outside the +-9.6 deg field of view\n")

    @pytest.mark.parametrize("before", [[], ["keep.txt"], ["keep.txt", "manifest.json"]],
                             ids=["new_out", "existing_out", "earlier_dataset"])
    def test_failed_gesture_run_leaves_no_samples(self, tmp_path, capsys, before):
        """A run that fails after writing samples removes them and the directories it made.

        Class SR's first draw leaves the narrow field of view after the SL
        samples are written.  Other files that were there before the run
        stay, but not an earlier manifest, which would name logs the run
        overwrote.
        """
        out = tmp_path / "sim"
        for name in before:
            out.mkdir(exist_ok=True)
            (out / name).write_text("x")
        assert main(["simulate", "--out", str(out), "--set", "scene.samples_per_class=2",
                     "--set", "geometry.element_spacing_m=0.36",
                     "--set", "music.search_deg=[-12,12]"]) == 1
        assert capsys.readouterr().err == (
            "runtime error: OutOfFovError: tag 1 trajectory reaches 14.2 deg, "
            "outside the +-13.9 deg field of view\n")
        if before:
            assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        else:
            assert not out.exists()

    @pytest.mark.parametrize("mode", ["gestures", "fixed"])
    @pytest.mark.parametrize("overrides, changes", [
        (["snr_db=20.0"], {"gestures", "fixed"}),
        (["tx_power=4.0"], {"gestures", "fixed"}),
        (["modulation_gain=0.5"], {"gestures", "fixed"}),
        (["misdetect_prob=0.3"], {"gestures", "fixed"}),
        (["misdetect_prob=[0.0,0.3]"], {"gestures", "fixed"}),
        (["nlos_paths=0"], {"gestures", "fixed"}),
        (["nlos_gain_db=-6.0"], {"gestures", "fixed"}),
        # fixed logs carry no angle texture
        (["angle_gain_db=0.0"], {"gestures"}),
        (["angle_phase_rad=0.0"], {"gestures"}),
        # the amplitude is sqrt(tx_power) * modulation_gain: 2 * 0.5 leaves every blob as is
        (["tx_power=4.0", "modulation_gain=0.5"], set()),
    ], ids=["snr_db", "tx_power", "modulation_gain", "misdetect_prob", "misdetect_prob_pair",
            "nlos_paths", "nlos_gain_db", "angle_gain_db", "angle_phase_rad", "power_and_gain"])
    def test_scene_settings_reach_logs(self, tmp_path, mode, overrides, changes):
        "Each scene setting changes the IQ blobs of the modes it applies to, and only those."
        def blobs(name, *overrides):
            out = tmp_path / name
            args = [a for key in overrides for a in ("--set", f"scene.{key}")]
            assert main(["simulate", "--seed", "7", "--out", str(out), *TINY,
                         "--set", f"scene.mode=\"{mode}\"", *args]) == 0
            return {k: v for k, v in tree_digest(out).items() if k.endswith(".bin")}

        default = blobs("default")
        assert default
        assert (blobs("changed", *overrides) != default) == (mode in changes)

    @pytest.mark.parametrize("mode", ["gestures", "fixed"])
    def test_one_misdetect_prob_is_a_config_error(self, tmp_path, capsys, mode):
        "A one-element misdetect_prob list is neither a probability nor a pair: exit 2."
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), "--set", f"scene.mode=\"{mode}\"",
                     "--set", "scene.misdetect_prob=[0.1]"]) == 2
        assert "config error: scene.misdetect_prob: " in capsys.readouterr().err
        assert not out.exists()


class TestEstimateTrackCli:
    @pytest.fixture()
    def fixed_log(self, tmp_path):
        out = tmp_path / "log"
        main(["simulate", "--seed", "3", "--out", str(out),
              "--set", "scene.mode=\"fixed\"", "--set", "scene.windows=10",
              "--set", "scene.nlos_paths=0", "--set", "scene.snr_db=25",
              "--set", "scene.misdetect_prob=0.0"])
        return out

    def test_estimate_writes_measurements(self, fixed_log, tmp_path):
        out = tmp_path / "est"
        assert main(["estimate", "--in", str(fixed_log), "--out", str(out)]) == 0
        assert [p.name for p in out.rglob("*")] == ["measurements.csv"]
        with open(out / "measurements.csv") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0] == ["tag_id", "window_idx", "theta_deg", "peak", "valid"]
        assert len(rows) == 1 + 2 * 10  # two tags, ten windows
        thetas = {(r[0]): [] for r in rows[1:]}
        for r in rows[1:]:
            thetas[r[0]].append(float(r[2]))
        assert np.mean(np.abs(np.array(thetas["tag1"]) + 15.0)) < 1.0
        assert np.mean(np.abs(np.array(thetas["tag2"]) + 10.0)) < 1.0

    def test_estimate_with_residual_phase(self, tmp_path):
        # non-integer carrier cycles per slot: raw covariance would smear,
        # the estimator divides out the known transmit sequence
        log = tmp_path / "log"
        args = ["--set", "scene.mode=\"fixed\"", "--set", "scene.windows=8",
                "--set", "scene.nlos_paths=0", "--set", "scene.snr_db=30",
                "--set", "scene.misdetect_prob=0.0",
                "--set", "schedule.residual_phase=true",
                "--set", "schedule.sample_period_s=2.5037e-4"]
        main(["simulate", "--seed", "4", "--out", str(log), *args])
        out = tmp_path / "est"
        assert main(["estimate", "--in", str(log), "--out", str(out), *args]) == 0
        with open(out / "measurements.csv") as fh:
            rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))[1:]
        t1 = [float(r[2]) for r in rows if r[0] == "tag1" and r[4] == "true"]
        assert np.mean(np.abs(np.array(t1) + 15.0)) < 1.0

    def test_track_single_log(self, fixed_log, tmp_path):
        out = tmp_path / "trk"
        assert main(["track", "--in", str(fixed_log), "--out", str(out)]) == 0
        tracks = json.loads((out / "tracks.json").read_text())
        assert set(tracks["tags"]) == {"tag1", "tag2"}
        smoothed = tracks["tags"]["tag1"]["smoothed_deg"]
        assert abs(np.mean(smoothed) + 15.0) < 1.0
        plot = (out / "track_plot_tag1.csv").read_text().splitlines()
        assert plot[1].split(",") == ["window", "truth", "raw", "filtered", "smoothed"]
        first = plot[2].split(",")
        assert float(first[1]) == pytest.approx(-15.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(covs=st.lists(st.lists(st.floats(), min_size=4, max_size=4), min_size=1, max_size=20))
@example(covs=[[-0.0, 1.0, 1.0, -0.0], [1e308, 0.0, 0.0, 1e308], [math.inf, 0.0, 0.0, -math.inf]])
def test_cov_traces_are_np_trace(covs):
    "The cov_trace columns of tracks.json have the bits of np.trace on each 2x2 matrix."
    p = np.array(covs).reshape(-1, 2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array([np.trace(m) for m in p])
        assert _cov_traces(p).tobytes() == want.tobytes()


JSON_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1e-7,
     1e16, 0.1]))
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), JSON_FLOATS,
                        st.text(max_size=6))
JSON_PAYLOADS = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(payload=JSON_PAYLOADS)
def test_json_writer_matches_json_dumps(payload):
    "NaN, infinities, -0.0, subnormals, escapes and empty containers come out as json writes them."
    assert _json_text(payload) == json.dumps(payload, sort_keys=True, indent=1)


def test_json_writer_matches_json_dumps_on_tuples_and_subclasses():
    class Level(float):
        def __repr__(self):
            return "level"

    payload = {"b": (1, 2.5, (None,)), "a": [Level(0.5), np.float64(-0.0), True], "\u00e9\n": {}}
    assert _json_text(payload) == json.dumps(payload, sort_keys=True, indent=1)


class TestPipelineCli:
    def test_track_featurize_classify_dataset(self, tmp_path):
        data = tmp_path / "data"
        main(["simulate", "--seed", "5", "--out", str(data), *TINY])
        tracks = tmp_path / "tracks"
        assert main(["track", "--in", str(data), "--out", str(tracks)]) == 0
        series = json.loads((tracks / "series.json").read_text())
        assert len(series["samples"]) == 4
        feats = tmp_path / "features"
        assert main(["featurize", "--in", str(tracks), "--out", str(feats),
                     "--set", "features.config=\"SA\""]) == 0
        layout = json.loads((feats / "layout.json").read_text())
        assert layout["config"] == "SA"
        assert len(layout["layout"]) == 2 * 14 + 1
        rep = tmp_path / "rep"
        with pytest.warns(UserWarning, match="k=5 exceeds training size 2"):
            assert main(["classify", "--in", str(feats / "features.csv"),
                         "--out", str(rep), "--seed", "5"]) == 0
        report = json.loads((rep / "report.json").read_text())
        assert report["method"] == "knn"
        assert 0.0 <= report["metrics"]["accuracy"] <= 100.0
        conf = (rep / "confusion.csv").read_text().splitlines()
        assert conf[1].startswith("true\\pred")

    def test_dataset_track_uses_search_range(self, tmp_path):
        "Dataset `track` searches music.search_deg, like `track` on one of its logs."
        args = ["--seed", "4", "--set", "scene.samples_per_class=1",
                "--set", "scene.classes=[\"SL\",\"SR\"]", "--set", "music.search_deg=[-5,5]"]
        data = tmp_path / "data"
        assert main(["simulate", "--out", str(data), *args]) == 0
        assert main(["track", "--in", str(data), "--out", str(tmp_path / "trk"), *args]) == 0
        series = json.loads((tmp_path / "trk" / "series.json").read_text())["samples"]
        for entry in series:
            one = tmp_path / entry["id"]
            assert main(["track", "--in", str(data / "samples" / entry["id"]),
                         "--out", str(one), *args]) == 0
            for tag, tr in json.loads((one / "tracks.json").read_text())["tags"].items():
                got = [math.degrees(v) for v in entry["channels"][f"{tag}:aoa"] if v is not None]
                np.testing.assert_allclose(got, tr["smoothed_deg"], rtol=0, atol=1e-5)

    def test_classify_dtw_on_series(self, tmp_path):
        data = tmp_path / "data"
        main(["simulate", "--seed", "6", "--out", str(data), *TINY,
              "--set", "scene.samples_per_class=4"])
        tracks = tmp_path / "tracks"
        main(["track", "--in", str(data), "--out", str(tracks)])
        rep = tmp_path / "rep"
        assert main(["classify", "--in", str(tracks), "--out", str(rep),
                     "--set", "classify.method=\"dtw\"",
                     "--set", "classify.channel=\"aoa\""]) == 0
        report = json.loads((rep / "report.json").read_text())
        assert report["method"] == "dtw"
        assert report["metrics"]["accuracy"] == 100.0

    def test_eval_subcommand(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("pred,truth\na,a\nb,a\nb,b\n")
        out = tmp_path / "out"
        assert main(["eval", "--in", str(pred), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["accuracy"] == pytest.approx(100.0 * 2 / 3)

    def test_artifacts_embed_hash_and_seed(self, tmp_path):
        data = tmp_path / "data"
        main(["simulate", "--seed", "5", "--out", str(data), *TINY])
        cfg = load_config(overrides=[t for t in TINY if "=" in t], seed=5)
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config_hash"] == config_hash(cfg)
        head = (data / "samples" / "g0000" / "readerlog.csv").read_text().splitlines()[0]
        assert head.startswith("#") and config_hash(cfg) in head


class TestCliErrors:
    def test_bad_config_key_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--set", "nope=1"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["featurize", "--in", str(tmp_path / "nothing"),
                     "--out", str(tmp_path)]) == 2

    def test_unknown_subcommand_systemexit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text, message", [
        ("pred,truth\nswipe_left\n", "row 2: has 1 field"),
        ("# run 1\npred,truth\na,a\n\nb\n", "row 4: has 1 field"),
        ("pred,truth\n", "has no prediction rows"),
    ])
    def test_eval_bad_predictions_name_file_and_row(self, tmp_path, capsys, text, message):
        pred = tmp_path / "pred.csv"
        pred.write_text(text)
        assert main(["eval", "--in", str(pred), "--out", str(tmp_path / "out")]) != 0
        err = capsys.readouterr().err
        assert f"{pred} {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, name, text, code, message", [
        ("estimate", "readerlog.csv", None, 2, "error: [Errno 2] No such file or directory"),
        ("estimate", "readerlog.csv", "bogus\n", 1,
         "runtime error: ValueError: {in_path}: unexpected reader log header: ['bogus']"),
        ("track", "readerlog.csv", None, 2, "error: [Errno 2] No such file or directory"),
        ("track", "readerlog.csv", "bogus\n", 1,
         "runtime error: ValueError: {in_path}: unexpected reader log header: ['bogus']"),
        ("classify", "features.csv", None, 2, "error: [Errno 2] No such file or directory"),
        ("classify", "features.csv", "a,label\nx,SL\n", 1,
         "runtime error: ValueError: {in_path} row 2: a 'x' is not a number"),
        ("eval", "pred.csv", None, 2, "error: [Errno 2] No such file or directory"),
        ("eval", "pred.csv", "pred,truth\nSL\n", 1,
         "runtime error: ValueError: {in_path} row 2: has 1 field, expected pred,truth"),
    ], ids=[f"{command}-{kind}" for command in ("estimate", "track", "classify", "eval")
            for kind in ("missing", "malformed")])
    def test_failed_run_leaves_no_out_dir(self, tmp_path, capsys, command, name, text, code,
                                          message):
        "A missing or malformed input fails as before and creates no --out directory."
        in_path = tmp_path / "in" / name
        if text is not None:
            in_path.parent.mkdir()
            in_path.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--in", str(in_path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message.format(in_path=in_path) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, name, text, message", [
        (["featurize"], "series.json", '{"samples": []}', "has no samples"),
        (["classify", "--set", "classify.method=\"dtw\""], "series.json", '{"samples": []}',
         "has no samples"),
        (["classify"], "features.csv", "# config_hash=x,seed=0\na,label\n",
         "has no feature rows"),
        (["classify"], "features.csv", "# config_hash=x,seed=0\na,label\n1.0,SL\n2.0,SR\n",
         "has no class with two rows, so the test split is empty"),
        (["classify", "--set", "classify.method=\"dtw\""], "series.json", json.dumps(
            {"samples": [{"id": "g0", "label": "SL", "n_windows": 3, "dt_s": 0.05,
                          "channels": {"tag1:aoa": [0.1, 0.2, 0.3]}}]}),
         "has no class with two rows, so the test split is empty"),
    ], ids=["featurize", "classify_dtw", "classify_knn", "classify_knn_no_test_split",
            "classify_dtw_no_test_split"])
    def test_empty_dataset_names_file(self, tmp_path, capsys, argv, name, text, message):
        "A dataset file without samples or a test split fails naming it, before writing output."
        in_path = tmp_path / name
        in_path.write_text(text)
        out = tmp_path / "out"
        assert main([*argv, "--in", str(in_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"runtime error: ValueError: {in_path} {message}" in err
        assert not out.exists()


FIXED = ["--set", "scene.mode=\"fixed\"", "--set", "scene.misdetect_prob=0.0"]
EPOCH_S = 1.7e9  # a real reader export stamps rows with Unix time


def shift_log(src: Path, dst: Path, offset_s: float):
    "Copy a reader log with every timestamp moved by offset_s."
    log = read_reader_log(src)
    log.timestamp_s += offset_s
    write_reader_log(log, dst)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


class TestResidualPhase:
    def test_track_measures_like_estimate(self, tmp_path):
        # non-integer carrier cycles per sample slot: both commands must
        # divide out the same transmit sequence before the covariance
        args = [*FIXED, "--set", "scene.windows=40",
                "--set", "schedule.residual_phase=true",
                "--set", "schedule.sample_period_s=2.5037e-4"]
        log = tmp_path / "log"
        assert main(["simulate", "--seed", "4", "--out", str(log), *args]) == 0
        assert main(["estimate", "--in", str(log), "--out", str(tmp_path / "est"), *args]) == 0
        assert main(["track", "--in", str(log), "--out", str(tmp_path / "trk"), *args]) == 0
        rows = read_rows(tmp_path / "est" / "measurements.csv")
        tracks = json.loads((tmp_path / "trk" / "tracks.json").read_text())["tags"]
        for tag, want_deg in (("tag1", -15.0), ("tag2", -10.0)):
            theta = [float(r["theta_deg"]) for r in rows if r["tag_id"] == tag]
            raw = tracks[tag]["raw_deg"]
            assert len(raw) == len(theta) == 40
            np.testing.assert_allclose(raw, theta, rtol=0, atol=1e-6)
            assert abs(np.mean(tracks[tag]["smoothed_deg"]) - want_deg) < 2.0


class TestImportedLogs:
    def test_detected_row_without_blob_fails_cleanly(self, tmp_path, capsys):
        log = tmp_path / "log"
        main(["simulate", "--seed", "2", "--out", str(log), *FIXED, "--set", "scene.windows=8"])
        csv_path = log / "readerlog.csv"
        lines = csv_path.read_text().splitlines()
        fields = lines[4].split(",")
        assert fields[-1] == "true"
        fields[6] = ""
        lines[4] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["track", "--in", str(log), "--out", str(tmp_path / "trk")]) != 0
        err = capsys.readouterr().err
        assert f"{csv_path} row 4" in err  # CSV rows count from the header, comments skipped
        assert "Traceback" not in err

    @pytest.mark.parametrize("column, text, message", [
        ("timestamp_s", "0.0", "timestamp_s 0.0 is earlier than the row before"),
        ("rss_dbm", "nan", "detected read has rss_dbm 'nan'"),
        ("phase_rad", "-inf", "and phase_rad '-inf'; both must be finite"),
    ], ids=["out_of_order", "nan_rss", "inf_phase"])
    def test_bad_row_value_fails_cleanly(self, tmp_path, capsys, column, text, message):
        log = tmp_path / "log"
        main(["simulate", "--seed", "2", "--out", str(log), *FIXED, "--set", "scene.windows=8"])
        comments, rows = read_csv(log)
        rows[6][CSV_HEADER.index(column)] = text  # CSV row 7, a detected read
        write_csv(log, comments, rows)
        capsys.readouterr()
        assert main(["track", "--in", str(log), "--out", str(tmp_path / "trk")]) != 0
        err = capsys.readouterr().err
        assert f"{log / 'readerlog.csv'} row 7: " in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["estimate", "track"])
    def test_window_span_past_bound_fails_cleanly(self, tmp_path, capsys, command):
        "A log whose last window is renumbered far away fails naming its row, and writes nothing."
        log = tmp_path / "log"
        main(["simulate", "--seed", "3", "--out", str(log), *FIXED, "--set", "scene.windows=8"])
        comments, rows = read_csv(log)
        for row in rows[1:]:
            row[0] = "50000" if row[0] == "7" else row[0]
        write_csv(log, comments, rows)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--in", str(log), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"runtime error: ValueError: {log / 'readerlog.csv'} row 30: window_idx 50000 is "
            "50000 windows from window_idx 0 at row 2; a log of 8 distinct windows may span "
            "at most 128 windows\n")
        assert not out.exists()

    def test_odd_blob_fails_cleanly(self, tmp_path, capsys):
        main(["simulate", "--seed", "2", "--out", str(tmp_path / "log"), *FIXED,
              "--set", "scene.windows=8"])
        for log in both_layouts(tmp_path / "log"):
            csv_path = log / "readerlog.csv"
            blob = set_row_blob(log, 4, row_blob(log, 4)[1][:792])
            capsys.readouterr()
            assert main(["track", "--in", str(log), "--out", str(tmp_path / "trk")]) != 0
            err = capsys.readouterr().err
            assert f"{csv_path} row 4: blob {blob} holds an odd number of floats (99)" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["estimate", "track"])
    def test_huge_finite_iq_fails_cleanly(self, tmp_path, capsys, command):
        "Finite IQ whose covariance would overflow fails naming the CSV file and row."
        log = tmp_path / "log"
        main(["simulate", "--seed", "3", "--out", str(log), *FIXED, "--set", "scene.windows=8"])
        raw = np.fromfile(log / "iq.bin", dtype="<f8")
        raw[:40] = 1e300   # inside row 2's span
        raw.tofile(log / "iq.bin")
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--in", str(log), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{log / 'readerlog.csv'} row 2: blob {log / 'iq.bin'}@0:" in err
        assert "holds an IQ value above 2**250 in magnitude" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.xfail(strict=True, reason="music_spectrum's peak is NaN for IQ near 2**-300")
    def test_tiny_finite_iq_estimates(self, tmp_path):
        "Finite IQ near 2**-300 gives an angle and a pseudospectrum peak, without a warning."
        log = tmp_path / "log"
        main(["simulate", "--seed", "3", "--out", str(log), *FIXED, "--set", "scene.windows=8"])
        raw = np.fromfile(log / "iq.bin", dtype="<f8")
        raw[:300] = 2.0 ** -300 * np.random.default_rng(0).uniform(-1.0, 1.0, 300)  # rows 2-4
        raw.tofile(log / "iq.bin")
        assert main(["estimate", "--in", str(log), "--out", str(tmp_path / "out")]) == 0
        rows = read_rows(tmp_path / "out" / "measurements.csv")
        assert len(rows) == 16 and all(r["theta_deg"] and r["peak"] for r in rows)

    def test_missing_blob_fails_cleanly(self, tmp_path, capsys):
        main(["simulate", "--seed", "2", "--out", str(tmp_path / "log"), *FIXED,
              "--set", "scene.windows=8"])
        packed, per_row = both_layouts(tmp_path / "log")
        (packed / "iq.bin").unlink()
        per_row_blob = row_blob(per_row, 4)[0]
        per_row_blob.unlink()
        for log, row, blob in ((packed, 2, packed / "iq.bin"), (per_row, 4, per_row_blob)):
            capsys.readouterr()
            assert main(["track", "--in", str(log), "--out", str(tmp_path / "trk")]) != 0
            err = capsys.readouterr().err
            assert f"{log / 'readerlog.csv'} row {row}: blob {blob} cannot be read" in err
            assert "Traceback" not in err

    def test_per_row_log_tracks_like_packed(self, tmp_path):
        args = ["--set", "scene.mode=\"fixed\"", "--set", "scene.windows=60",
                "--set", "scene.misdetect_prob=0.2"]
        assert main(["simulate", "--seed", "6", "--out", str(tmp_path / "log"), *args]) == 0
        packed, per_row = both_layouts(tmp_path / "log")
        assert not list(per_row.glob("iq.bin"))
        outputs = []
        for log in (packed, per_row):
            out = tmp_path / f"out_{log.name}"
            for cmd in ("estimate", "track"):
                assert main([cmd, "--seed", "6", "--in", str(log), "--out", str(out / cmd),
                             *args]) == 0
            outputs.append(((out / "estimate" / "measurements.csv").read_bytes(),
                            tree_digest(out / "track")))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == 3  # tracks.json and one plot per tag

    def test_measurement_window_idx_is_log_index(self, tmp_path):
        log = tmp_path / "log"
        main(["simulate", "--seed", "2", "--out", str(log), "--set", "scene.mode=\"fixed\"",
              "--set", "scene.windows=12", "--set", "scene.misdetect_prob=0.3"])
        assert main(["estimate", "--in", str(log), "--out", str(tmp_path / "est")]) == 0
        rows = read_rows(tmp_path / "est" / "measurements.csv")
        log_rows = records(read_reader_log(log))
        for tag in ("tag1", "tag2"):
            read = {(r.window_idx, r.antenna) for r in log_rows
                    if r.tag_id == tag and r.detected}
            both = sorted({w for w, a in read if a == 1 and (w, 2) in read})
            assert [int(r["window_idx"]) for r in rows if r["tag_id"] == tag] == both
            assert both != list(range(len(both)))  # a window before the last was pruned

    def test_epoch_residual_phase_windows_index_matches_log(self, tmp_path):
        "The transmit sequence follows window_idx, not timestamps: an epoch shift changes nothing."
        args = [*FIXED, "--set", "scene.windows=12", "--set", "schedule.residual_phase=true",
                "--set", "schedule.sample_period_s=2.5037e-4"]
        log, shifted = tmp_path / "log", tmp_path / "shifted"
        assert main(["simulate", "--seed", "4", "--out", str(log), *args]) == 0
        shift_log(log, shifted, EPOCH_S)
        e1, e2 = tmp_path / "e1", tmp_path / "e2"
        assert main(["estimate", "--in", str(shifted), "--out", str(e1), *args]) == 0
        assert main(["estimate", "--in", str(log), "--out", str(e2), *args]) == 0
        assert (e1 / "measurements.csv").read_bytes() == (e2 / "measurements.csv").read_bytes()

    def test_windowed_iq_directory_is_not_a_log(self, tmp_path, capsys):
        "A directory of windows.json + windows.bin fails as any directory without readerlog.csv."
        windows = tmp_path / "windows"
        windows.mkdir()
        (windows / "windows.json").write_text('{"meta": {}, "tags": {}}')
        (windows / "windows.bin").write_bytes(np.zeros(8).tobytes())
        assert main(["estimate", "--in", str(windows), "--out", str(tmp_path / "est")]) != 0
        err = capsys.readouterr().err
        assert str(windows / "readerlog.csv") in err
        assert "Traceback" not in err
        assert not (tmp_path / "est").exists()

    def test_dataset_log_without_rows_names_file(self, tmp_path, capsys):
        "A dataset sample whose readerlog.csv holds only the header fails naming that file."
        data = tmp_path / "data"
        main(["simulate", "--seed", "5", "--out", str(data), *TINY])
        entry = json.loads((data / "manifest.json").read_text())["samples"][1]
        csv_path = data / entry["dir"] / "readerlog.csv"
        comments, rows = read_csv(csv_path.parent)
        write_csv(csv_path.parent, comments, rows[:1])
        capsys.readouterr()
        assert main(["track", "--in", str(data), "--out", str(tmp_path / "trk")]) == 1
        err = capsys.readouterr().err
        assert f"runtime error: ValueError: {csv_path} has no read rows" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trk").exists()
        # on its own the same log tracks to an empty tracks.json
        assert main(["track", "--in", str(csv_path.parent), "--out", str(tmp_path / "one")]) == 0
        assert json.loads((tmp_path / "one" / "tracks.json").read_text())["tags"] == {}

    @pytest.mark.parametrize("spelling", [("1", "0"), ("TRUE", "False")], ids=["digits", "case"])
    def test_detected_spellings_track_like_true_false(self, tmp_path, spelling):
        "1/0 and true/false in any case read as true/false: the log tracks as before."
        args = [*FIXED, "--set", "scene.windows=8"]
        log, edited = tmp_path / "log", tmp_path / "edited"
        assert main(["simulate", "--seed", "2", "--out", str(log), *args]) == 0
        shutil.copytree(log, edited)
        comments, rows = read_csv(edited)
        rows[-1][9] = "false"   # one undetected row, so that both spellings occur
        write_csv(log, comments, rows)
        for row in rows[1:]:
            row[9] = spelling[row[9] == "false"]
        write_csv(edited, comments, rows)
        outputs = []
        for src in (log, edited):
            out = tmp_path / f"out_{src.name}"
            assert main(["track", "--in", str(src), "--out", str(out), *args]) == 0
            outputs.append(tree_digest(out))
        assert outputs[0] == outputs[1]
        tracks = json.loads((tmp_path / "out_edited" / "tracks.json").read_text())
        assert sorted(tracks["tags"]) == ["tag1", "tag2"]

    @pytest.mark.parametrize("text", ["yes", "", "t", "2"])
    def test_bad_detected_value_names_row(self, tmp_path, capsys, text):
        log = tmp_path / "log"
        main(["simulate", "--seed", "2", "--out", str(log), *FIXED, "--set", "scene.windows=8"])
        comments, rows = read_csv(log)
        rows[4][9] = text  # CSV row 5
        write_csv(log, comments, rows)
        capsys.readouterr()
        assert main(["track", "--in", str(log), "--out", str(tmp_path / "trk")]) == 1
        err = capsys.readouterr().err
        assert f"{log / 'readerlog.csv'} row 5: detected {text!r} is not true, false, 1 or 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("{", "is not JSON"), ("[1.0, 2.0]", "is not an object"),
        ('{"tag1": 3}', "tag 'tag1': not a list"),
        ('{"tag1": [1.0, "x"]}', "tag 'tag1': not a list of numbers or nulls"),
        ('{"tag2": [true]}', "tag 'tag2': not a list of numbers or nulls"),
        ('{"tag1": [[1.0]]}', "tag 'tag1': not a list of numbers or nulls"),
    ], ids=["invalid", "list", "number", "string", "bool", "nested"])
    def test_bad_truth_json_names_file(self, tmp_path, capsys, text, message):
        log = tmp_path / "log"
        main(["simulate", "--seed", "2", "--out", str(log), *FIXED, "--set", "scene.windows=8"])
        (log / "truth.json").write_text(text)
        capsys.readouterr()
        for command in ("estimate", "track"):
            assert main([command, "--in", str(log), "--out", str(tmp_path / command)]) == 1
            err = capsys.readouterr().err
            assert f"runtime error: ValueError: {log / 'truth.json'} {message}" in err
            assert "Traceback" not in err
            assert not (tmp_path / command).exists()

    def test_truth_json_nulls_are_missing_angles(self, tmp_path):
        log = tmp_path / "log"
        main(["simulate", "--seed", "2", "--out", str(log), *FIXED, "--set", "scene.windows=8"])
        truth = json.loads((log / "truth.json").read_text())
        truth["tag1"][2] = None
        (log / "truth.json").write_text(json.dumps(truth))
        assert np.isnan(read_reader_log(log).truth["tag1"][2])
        assert main(["track", "--in", str(log), "--out", str(tmp_path / "trk")]) == 0

    @pytest.mark.parametrize("edit, message", [
        (lambda m: "{", "is not JSON"),
        (lambda m: json.dumps(m["samples"]), "has no 'samples' list"),
        (lambda m: json.dumps({**m, "samples": 3}), "has no 'samples' list"),
        (lambda m: json.dumps({**m, "samples": [3, *m["samples"]]}), "sample #0: not an object"),
        (lambda m: json.dumps({**m, "samples": [*m["samples"][:1], {"id": "x", "label": "SL"}]}),
         "sample #1: no 'dir' string"),
        (lambda m: json.dumps({**m, "samples": [{**m["samples"][0], "label": 1}]}),
         "sample #0: no 'label' string"),
        (lambda m: json.dumps({**m, "samples": []}), "has no samples"),
    ], ids=["invalid", "list", "samples_number", "entry_number", "no_dir", "label_number",
            "empty"])
    def test_bad_manifest_names_file_and_entry(self, tmp_path, capsys, edit, message):
        data = tmp_path / "data"
        main(["simulate", "--seed", "5", "--out", str(data), *TINY])
        manifest = data / "manifest.json"
        manifest.write_text(edit(json.loads(manifest.read_text())))
        capsys.readouterr()
        assert main(["track", "--in", str(data), "--out", str(tmp_path / "trk")]) == 1
        err = capsys.readouterr().err
        assert f"runtime error: ValueError: {manifest} {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trk").exists()

    def test_epoch_timestamps_gesture_dataset(self, tmp_path):
        data, shifted = tmp_path / "data", tmp_path / "shifted"
        main(["simulate", "--seed", "5", "--out", str(data), *TINY])
        manifest = json.loads((data / "manifest.json").read_text())
        for entry in manifest["samples"]:
            shift_log(data / entry["dir"], shifted / entry["dir"], EPOCH_S)
        (shifted / "manifest.json").write_text(json.dumps(manifest))
        series = {}
        for name, root in (("plain", data), ("epoch", shifted)):
            assert main(["track", "--in", str(root), "--out", str(tmp_path / name)]) == 0
            series[name] = json.loads((tmp_path / name / "series.json").read_text())["samples"]
        n_aoa = 0
        for a, b in zip(series["plain"], series["epoch"]):
            for tag in ("tag1", "tag2"):
                va, vb = a["channels"][f"{tag}:aoa"], b["channels"][f"{tag}:aoa"]
                assert [v is None for v in va] == [v is None for v in vb]
                got = [(x, y) for x, y in zip(va, vb) if x is not None]
                n_aoa += len(got)
                np.testing.assert_allclose(*zip(*got), rtol=0, atol=np.radians(0.01))
        assert n_aoa > 0

    def test_epoch_timestamps_fixed_log_truth(self, tmp_path):
        log, shifted = tmp_path / "log", tmp_path / "shifted"
        main(["simulate", "--seed", "3", "--out", str(log), *FIXED, "--set", "scene.windows=12"])
        shift_log(log, shifted, EPOCH_S)
        assert main(["track", "--in", str(shifted), "--out", str(tmp_path / "trk")]) == 0
        rows = read_rows(tmp_path / "trk" / "track_plot_tag1.csv")
        assert len(rows) == 12
        assert [float(r["truth"]) for r in rows] == pytest.approx([-15.0] * 12, abs=1e-9)


class TestCliMatchesLibrary:
    SEED = 9
    ARGS = ["--set", "scene.samples_per_class=5", "--set", "scene.windows=12",
            "--set", "scene.classes=[\"SL\",\"SR\",\"LAC\",\"RAC\"]"]

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parity")
        seed = ["--seed", str(self.SEED)]
        assert main(["simulate", *seed, "--out", str(root / "data"), *self.ARGS]) == 0
        assert main(["track", *seed, "--in", str(root / "data"), "--out", str(root / "trk"),
                     *self.ARGS]) == 0
        assert main(["featurize", *seed, "--in", str(root / "trk"),
                     "--out", str(root / "feat"), *self.ARGS]) == 0
        cfg = load_config(overrides=[a for a in self.ARGS if "=" in a], seed=self.SEED)
        spec = DatasetSpec(classes=tuple(cfg["scene"]["classes"]), samples_per_class=5,
                           windows=12)
        samples = synthesize_dataset(geometry_from(cfg), schedule_from(cfg), spec,
                                     seed=self.SEED)
        return root, samples

    @pytest.mark.parametrize("test_frac", [None, 0.4])
    @pytest.mark.parametrize("method", ["knn", "dtw"])
    def test_report_accuracy(self, dataset, tmp_path, method, test_frac):
        root, samples = dataset
        split_seed = 3
        args = ["--set", f"classify.method=\"{method}\"", "--set", f"classify.split_seed={split_seed}"]
        kw = {"split_seed": split_seed}
        if test_frac is not None:
            args += ["--set", f"classify.test_frac={test_frac}"]
            kw["test_frac"] = test_frac
        src = root / ("feat" if method == "knn" else "trk")
        assert main(["classify", "--in", str(src), "--out", str(tmp_path), *args]) == 0
        got = json.loads((tmp_path / "report.json").read_text())["metrics"]["accuracy"]
        want = knn_experiment(samples, "SPRA", **kw) if method == "knn" \
            else dtw_experiment(samples, "aoa", **kw)
        assert got == want.accuracy


@pytest.fixture(scope="module")
def packed_log(tmp_path_factory) -> Path:
    "A fixed-tag log whose 32 rows (8 windows x 2 tags x 2 antennas) are all detected."
    log = tmp_path_factory.mktemp("fuzz") / "log"
    assert main(["simulate", "--seed", "2", "--out", str(log), *FIXED,
                 "--set", "scene.windows=8"]) == 0
    return log


@settings(max_examples=100, deadline=None)
@given(case=corruptions())
def test_corrupt_packed_log_fails_cleanly(packed_log, case):
    "A damaged packed log exits non-zero naming the CSV file and row, without a traceback."
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log"
        shutil.copytree(packed_log, log)
        row = corrupt(log, case)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["track", "--in", str(log), "--out", str(Path(tmp) / "trk")])
    assert code != 0
    assert f"{log / 'readerlog.csv'} row {row}: " in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def tracked_dataset(tmp_path_factory) -> Path:
    "Track output (series.json) of a 4-sample dataset, and its SA features.csv."
    root = tmp_path_factory.mktemp("tracked")
    assert main(["simulate", "--seed", "5", "--out", str(root / "data"), *TINY]) == 0
    assert main(["track", "--in", str(root / "data"), "--out", str(root / "tracks")]) == 0
    assert main(["featurize", "--in", str(root / "tracks"), "--out", str(root / "features"),
                 "--set", "features.config=\"SA\""]) == 0
    return root


@pytest.mark.parametrize("argv, src, name", [
    (["featurize", "--set", "features.config=\"SA\""], "tracks/series.json", "features.csv"),
    (["classify", "--set", "classify.k=1"], "features/features.csv", "report.json"),
    (["classify", "--set", "classify.method=\"dtw\""], "tracks/series.json", "report.json"),
], ids=["featurize", "classify_knn", "classify_dtw"])
def test_in_names_file_of_any_name(tracked_dataset, tmp_path, argv, src, name):
    "--in is the input file whatever its name, or the directory that holds it."
    renamed = tmp_path / "input.txt"
    shutil.copy(tracked_dataset / src, renamed)
    written = []
    for in_path in (renamed, (tracked_dataset / src).parent):
        out = tmp_path / f"out{len(written)}"
        assert main([*argv, "--in", str(in_path), "--out", str(out)]) == 0
        written.append((out / name).read_bytes())
    assert written[0] == written[1]


SERIES_KEYS = ["id", "label", "n_windows", "dt_s", "channels"]
NOT_NUMBER = st.one_of(TEXT, st.booleans(), st.lists(st.integers(), max_size=2))


@st.composite
def series_corruptions(draw):
    "A damaged sample of series.json: which sample, the kind of damage and its parameter."
    kind = draw(st.sampled_from(["no_key", "length", "not_number", "n_windows", "not_list",
                                 "not_object"]))
    sample = draw(st.integers(0, 3))
    channel = draw(st.sampled_from(["tag1:rss", "tag2:phase", "tag1:aoa"]))
    if kind == "no_key":
        return kind, sample, draw(st.sampled_from(SERIES_KEYS))
    if kind == "length":  # the sample has 12 windows
        return kind, sample, (channel, draw(st.integers(0, 30).filter(lambda n: n != 12)))
    if kind == "not_number":
        return kind, sample, (channel, draw(st.integers(0, 11)), draw(NOT_NUMBER))
    if kind == "n_windows":
        return kind, sample, draw(st.one_of(st.integers(-3, 0), st.booleans(), TEXT,
                                            st.floats(1.0, 30.0)))
    if kind == "not_object":
        return kind, sample, (draw(st.sampled_from(["sample", "channels"])),
                              draw(st.one_of(TEXT, st.integers(), st.lists(st.integers()))))
    return kind, sample, (channel, draw(st.one_of(TEXT, st.integers(), st.none())))


@settings(max_examples=40, deadline=None)
@given(case=series_corruptions(), command=st.sampled_from(["featurize", "dtw"]))
def test_corrupt_series_fails_cleanly(tracked_dataset, case, command):
    "featurize and dtw classify exit non-zero naming series.json and the sample id."
    kind, index, arg = case
    series = json.loads((tracked_dataset / "tracks" / "series.json").read_text())
    entry = series["samples"][index]
    sample_id = entry["id"]
    if kind == "no_key":
        del entry[arg]
        if arg == "id":
            sample_id = f"#{index}"
    elif kind == "length":
        channel, n = arg
        entry["channels"][channel] = (entry["channels"][channel] * 3)[:n]
    elif kind == "not_number":
        channel, at, value = arg
        entry["channels"][channel][at] = value
    elif kind == "n_windows":
        entry["n_windows"] = arg
    elif kind == "not_object":
        what, value = arg
        if what == "channels":
            entry["channels"] = value
        else:
            series["samples"][index] = value
            sample_id = f"#{index}"
    else:
        channel, value = arg
        entry["channels"][channel] = value
    with tempfile.TemporaryDirectory() as tmp:
        series_path = Path(tmp) / "series.json"
        series_path.write_text(json.dumps(series))
        argv = ["featurize"] if command == "featurize" else \
            ["classify", "--set", "classify.method=\"dtw\""]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--in", str(series_path), "--out", str(Path(tmp) / "out")])
    assert code != 0
    assert f"{series_path} sample {sample_id}: " in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("head", [[1.0, 1.0 + 2 ** -52], [0.0, 5e-324]],
                         ids=["too_many_bins", "variance_underflow"])
def test_degenerate_channel_names_sample(tracked_dataset, tmp_path, capsys, head):
    "A channel too nearly constant for its statistics fails naming series.json and the sample."
    series = json.loads((tracked_dataset / "tracks" / "series.json").read_text())
    entry = series["samples"][2]
    n = entry["n_windows"]
    entry["channels"]["tag1:rss"] = (head * n)[:n]
    series_path = tmp_path / "series.json"
    series_path.write_text(json.dumps(series))
    code = main(["featurize", "--in", str(series_path), "--out", str(tmp_path / "out"),
                 "--set", "features.config=\"SPR\""])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{series_path} sample {entry['id']}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["featurize", "dtw"])
@pytest.mark.parametrize("damage", ["all_null", "absent"])
def test_missing_channel_names_sample(tracked_dataset, tmp_path, capsys, damage, command):
    "An AoA channel with no value, or none at all, fails naming series.json and the sample."
    series = json.loads((tracked_dataset / "tracks" / "series.json").read_text())
    entry = series["samples"][1]
    if damage == "absent":
        del entry["channels"]["tag2:aoa"]
    else:
        entry["channels"]["tag2:aoa"] = [None] * entry["n_windows"]
    series_path = tmp_path / "series.json"
    series_path.write_text(json.dumps(series))
    argv = ["featurize", "--set", "features.config=\"SA\""] if command == "featurize" else \
        ["classify", "--set", "classify.method=\"dtw\"", "--set", "classify.channel=\"aoa\""]
    code = main([*argv, "--in", str(series_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{series_path} sample {entry['id']}: " in err and "tag 'tag2'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["featurize", "dtw"])
def test_other_tags_name_sample(tracked_dataset, tmp_path, capsys, command):
    "A sample with other tags than sample 0 fails naming series.json, the sample and both tags."
    series = json.loads((tracked_dataset / "tracks" / "series.json").read_text())
    entry = series["samples"][2]
    entry["channels"] = {key.replace("tag2:", "tag3:"): values
                         for key, values in entry["channels"].items()}
    series_path = tmp_path / "series.json"
    series_path.write_text(json.dumps(series))
    argv = ["featurize"] if command == "featurize" else \
        ["classify", "--set", "classify.method=\"dtw\""]
    code = main([*argv, "--in", str(series_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{series_path} sample {entry['id']}: " in err
    assert "tags ['tag1', 'tag3'] differ from sample 0's ['tag1', 'tag2']" in err
    assert "Traceback" not in err


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["short", "long", "not_number"]), row=st.integers(2, 5),
       field=st.integers(0, 28), text=TEXT.filter(lambda t: not parses(float, t)))
def test_corrupt_features_csv_fails_cleanly(tracked_dataset, kind, row, field, text):
    "knn classify exits non-zero naming features.csv and the row."
    with open(tracked_dataset / "features" / "features.csv", newline="") as fh:
        lines = fh.readlines()
    rows = list(csv.reader(lines[1:]))  # rows[0] is the header, CSV row 1
    fields = rows[row - 1]
    if kind == "short":  # keep one field: a blank line is no row
        del fields[field + 1:]
    elif kind == "long":
        fields.insert(field, "0.5")
    else:
        fields[field] = text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        with open(path, "w", newline="") as fh:
            fh.write(lines[0])
            csv.writer(fh).writerows(rows)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["classify", "--in", str(path), "--out", str(Path(tmp) / "out")])
    assert code != 0
    assert f"{path} row {row}: " in err.getvalue()
    assert "Traceback" not in err.getvalue()

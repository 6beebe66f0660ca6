import contextlib
import csv
import hashlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from logfiles import both_layouts, read_csv, row_blob, set_row_blob, set_row_path, span

from tagtrack.cli import main
from tagtrack.config import (ConfigError, config_hash, geometry_from,
                             load_config, schedule_from, validate_config)
from tagtrack.pipeline import (DatasetSpec, dtw_experiment, knn_experiment,
                               synthesize_dataset)
from tagtrack.readerlog import read_reader_log, write_reader_log

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


    def test_scene_power_and_gain_reach_gesture_logs(self, tmp_path):
        def blobs(name, *overrides):
            out = tmp_path / name
            assert main(["simulate", "--seed", "7", "--out", str(out), *TINY, *overrides]) == 0
            return {k: v for k, v in tree_digest(out).items() if k.endswith(".bin")}

        default = blobs("default")
        assert blobs("gain", "--set", "scene.modulation_gain=0.5") != default
        # the amplitude is sqrt(tx_power) * modulation_gain: 2 * 0.5 leaves every blob as is
        assert blobs("both", "--set", "scene.tx_power=4.0",
                     "--set", "scene.modulation_gain=0.5") == default


class TestEstimateTrackCli:
    @pytest.fixture()
    def fixed_log(self, tmp_path):
        out = tmp_path / "log"
        main(["simulate", "--seed", "3", "--out", str(out),
              "--set", "scene.mode=\"fixed\"", "--set", "scene.windows=10",
              "--set", "scene.nlos_paths=0", "--set", "scene.snr_db=25",
              "--set", "scene.misdetect_prob=0.0"])
        return out

    def test_estimate_writes_measurements_and_windows(self, fixed_log, tmp_path):
        out = tmp_path / "est"
        assert main(["estimate", "--in", str(fixed_log), "--out", str(out)]) == 0
        assert (out / "windows" / "windows.json").exists()
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

    def test_estimate_from_windows_index(self, fixed_log, tmp_path):
        out1 = tmp_path / "e1"
        main(["estimate", "--in", str(fixed_log), "--out", str(out1)])
        out2 = tmp_path / "e2"
        assert main(["estimate", "--in", str(out1 / "windows"), "--out", str(out2)]) == 0
        m1 = (out1 / "measurements.csv").read_text()
        m2 = (out2 / "measurements.csv").read_text()
        assert m1 == m2

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
        assert main(["classify", "--in", str(feats / "features.csv"),
                     "--out", str(rep), "--seed", "5"]) == 0
        report = json.loads((rep / "report.json").read_text())
        assert report["method"] == "knn"
        assert 0.0 <= report["metrics"]["accuracy"] <= 100.0
        conf = (rep / "confusion.csv").read_text().splitlines()
        assert conf[1].startswith("true\\pred")

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


FIXED = ["--set", "scene.mode=\"fixed\"", "--set", "scene.misdetect_prob=0.0"]
EPOCH_S = 1.7e9  # a real reader export stamps rows with Unix time


def shift_log(src: Path, dst: Path, offset_s: float):
    "Copy a reader log with every timestamp moved by offset_s."
    log = read_reader_log(src)
    for r in log.records:
        r.timestamp_s += offset_s
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
        records = read_reader_log(log).records
        for tag in ("tag1", "tag2"):
            read = {(r.window_idx, r.antenna) for r in records if r.tag_id == tag and r.detected}
            both = sorted({w for w, a in read if a == 1 and (w, 2) in read})
            assert [int(r["window_idx"]) for r in rows if r["tag_id"] == tag] == both
            assert both != list(range(len(both)))  # a window before the last was pruned

    def test_epoch_residual_phase_windows_index_matches_log(self, tmp_path):
        args = [*FIXED, "--set", "scene.windows=12", "--set", "schedule.residual_phase=true",
                "--set", "schedule.sample_period_s=2.5037e-4"]
        log, shifted = tmp_path / "log", tmp_path / "shifted"
        assert main(["simulate", "--seed", "4", "--out", str(log), *args]) == 0
        shift_log(log, shifted, EPOCH_S)
        e1, e2 = tmp_path / "e1", tmp_path / "e2"
        assert main(["estimate", "--in", str(shifted), "--out", str(e1), *args]) == 0
        assert main(["estimate", "--in", str(e1 / "windows"), "--out", str(e2), *args]) == 0
        assert (e1 / "measurements.csv").read_text() == (e2 / "measurements.csv").read_text()

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


MALFORMED = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8).filter(
    lambda s: not re.fullmatch(r"[0-9]+:[0-9]+", s))


@st.composite
def corruptions(draw):
    "A kind of damage to a packed log, its parameters, and the CSV row it must be reported at."
    kind = draw(st.sampled_from(["malformed", "negative", "overflow", "past_eof", "odd",
                                 "truncated", "missing"]))
    row = draw(st.integers(2, 25))
    if kind == "malformed":
        return kind, row, draw(MALFORMED)
    if kind == "negative":
        return kind, row, draw(st.sampled_from(["start", "count"]))
    if kind == "overflow":
        return kind, row, (draw(st.sampled_from(["start", "count"])), draw(st.integers(64, 200)))
    if kind in ("past_eof", "odd"):
        return kind, row, draw(st.integers(1, 50))
    return kind, None, draw(st.integers(0, 10 ** 6))


@settings(max_examples=60, deadline=None)
@given(case=corruptions())
def test_corrupt_packed_log_fails_cleanly(packed_log, case):
    "A damaged packed log exits non-zero naming the CSV file and row, without a traceback."
    kind, row, arg = case
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log"
        shutil.copytree(packed_log, log)
        rows = read_csv(log)[1]
        size = (log / "iq.bin").stat().st_size
        if row is not None:
            name, start, count = span(rows[row - 1][6])
            if kind == "malformed":
                ref = f"{name}@{arg}"
            elif kind == "negative":
                ref = f"{name}@-{start}:{count}" if arg == "start" else f"{name}@{start}:-{count}"
            elif kind == "overflow":
                field, bits = arg
                ref = f"{name}@{start + 2 ** bits}:{count}" if field == "start" \
                    else f"{name}@{start}:{count + 2 ** bits}"
            elif kind == "past_eof":
                ref = f"{name}@{size // 8 - count + 2 * arg}:{count}"
            else:  # odd
                ref = f"{name}@{start}:{2 * arg - 1}"
            set_row_path(log, row, ref)
        elif kind == "truncated":
            cut = arg % size
            with open(log / "iq.bin", "r+b") as fh:
                fh.truncate(cut)
            ends = [sum(span(r[6])[1:]) for r in rows[1:]]
            row = 2 if cut % 8 else 2 + next(i for i, end in enumerate(ends) if 8 * end > cut)
        else:
            (log / "iq.bin").unlink()
            row = 2
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["track", "--in", str(log), "--out", str(Path(tmp) / "trk")])
    assert code != 0
    assert f"{log / 'readerlog.csv'} row {row}: " in err.getvalue()
    assert "Traceback" not in err.getvalue()

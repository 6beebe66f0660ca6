"""Artifact readers and payload builders: round trips, and every reader error message.

Each error case is checked on its reader, which raises the message itself.
Where no test in test_cli.py runs the message through ``cli.main``, it is
run here too: the CLI prints it and exits with the code of its class (1 for
ValueError, 2 for ConfigError).
"""

import json
from pathlib import Path

import pytest

from tagtrack.artifacts import (check_test_split, feature_table, manifest_samples,
                                naming_sample, read_features_csv, read_predictions,
                                series_entry, series_samples)
from tagtrack.cli import _meta, _write_csv, _write_json, main
from tagtrack.config import ConfigError, load_config
from tagtrack.features import SampleFeatureError

DEMO = ["--seed", "1", "--set", "scene.samples_per_class=2"]


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("demo")
    assert main(["demo", *DEMO, "--out", str(out)]) == 0
    return out


def demo_config(**blocks) -> dict:
    "The config a demo run with DEMO's arguments writes under, with blocks replaced."
    return dict(load_config(overrides=[DEMO[3]], seed=1), **blocks)


def test_series_json_round_trips(demo_dir, tmp_path):
    "series.json read as library samples and built again has the bytes track wrote."
    path = demo_dir / "tracks" / "series.json"
    ids, samples = series_samples(path)
    _write_json(tmp_path / "series.json",
                {"samples": [series_entry(i, s) for i, s in zip(ids, samples)],
                 **_meta(demo_config())})
    assert (tmp_path / "series.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("config", ["SPR", "SPRA"])
def test_features_csv_round_trips(demo_dir, tmp_path, config):
    "features.csv read as a matrix, layout and labels and built again has featurize's bytes."
    path = demo_dir / f"features_{config}" / "features.csv"
    _write_csv(tmp_path / "features.csv", demo_config(features={"config": config}),
               *feature_table(*read_features_csv(path)))
    assert (tmp_path / "features.csv").read_bytes() == path.read_bytes()


def test_naming_sample_names_file_and_sample_id(tmp_path):
    path = tmp_path / "series.json"
    with pytest.raises(ValueError) as exc:
        with naming_sample(path, ["g0", "g1"]):
            raise SampleFeatureError(1, "SL", ValueError("bad channel"))
    assert str(exc.value) == f"{path} sample g1: sample 1 (label 'SL'): ValueError: bad channel"


def series_doc(**changes) -> str:
    "A one-sample series.json whose sample g0 has the given keys replaced (None deletes)."
    entry = {"id": "g0", "label": "SL", "n_windows": 3, "dt_s": 0.05,
             "channels": {"tag1:aoa": [0.1, None, 0.3]}}
    entry.update(changes)
    return json.dumps({"samples": [{k: v for k, v in entry.items() if v is not None}]})


def check_features_split(path: Path):
    "check_test_split on the labels of a features.csv."
    check_test_split(path, read_features_csv(path)[2])


MANIFEST = ("manifest.json", manifest_samples, ["track"])
SERIES = ("series.json", series_samples, ["featurize"])
FEATURES = ("features.csv", read_features_csv, ["classify"])
SPLIT = ("features.csv", check_features_split, ["classify"])
PREDICTIONS = ("pred.csv", read_predictions, ["eval"])

# (input, file text, message after the file path); every message a reader raises
READER_ERRORS = [
    (MANIFEST, "[1]", " has no 'samples' list"),
    (MANIFEST, '{"samples": []}', " has no samples"),
    (MANIFEST, '{"samples": [3]}', " sample #0: not an object"),
    (MANIFEST, '{"samples": [{"id": "g0", "dir": "samples/g0"}]}',
     " sample #0: no 'label' string"),
    (SERIES, series_doc(id=None), " sample #0: no 'id'"),
    (SERIES, series_doc(channels=[1]), " sample g0: channels is not an object"),
    (SERIES, series_doc(n_windows=0), " sample g0: n_windows 0 is not a positive integer"),
    (SERIES, series_doc(n_windows=True),
     " sample g0: n_windows True is not a positive integer"),
    (SERIES, series_doc(dt_s="x"), " sample g0: dt_s 'x' is not a number"),
    (SERIES, series_doc(channels={"tag1:aoa": 3}),
     " sample g0: channel 'tag1:aoa' is not a list"),
    (SERIES, series_doc(channels={"tag1:aoa": [0.1, 0.2]}),
     " sample g0: channel 'tag1:aoa' has 2 values, n_windows is 3"),
    (SERIES, series_doc(channels={"tag1:aoa": [0.1, "x", 0.3]}),
     " sample g0: channel 'tag1:aoa' holds 'x', not a number"),
    (FEATURES, "# config_hash=x,seed=0\n", " has no header row"),
    (FEATURES, "a,label\n1.0,SL\n\n1.0\n", " row 4: has 1 fields, expected 2"),
    (FEATURES, "a,label\nx,SL\n", " row 2: a 'x' is not a number"),
    (FEATURES, "# config_hash=x,seed=0\na,label\n", " has no feature rows"),
    (SPLIT, "a,label\n1.0,SL\n2.0,SR\n",
     " has no class with two rows, so the test split is empty"),
    (PREDICTIONS, "truth,pred\nSL,SL\n", ": expected columns pred,truth"),
    (PREDICTIONS, "pred,truth\nSL\n", " row 2: has 1 field, expected pred,truth"),
    (PREDICTIONS, "# run 1\npred,truth\n", " has no prediction rows"),
]


@pytest.mark.parametrize("source, text, message", READER_ERRORS,
                         ids=[f"{src[0]}-{k}" for k, (src, _, _) in enumerate(READER_ERRORS)])
def test_reader_error_message(tmp_path, source, text, message):
    "The reader raises the message naming the file, as the class the CLI maps to its exit code."
    name, read, _ = source
    path = tmp_path / name
    path.write_text(text)
    error = ConfigError if message.startswith(": expected columns") else ValueError
    with pytest.raises(error) as exc:
        read(path)
    assert type(exc.value) is error and str(exc.value) == f"{path}{message}"


# the READER_ERRORS cases whose message no test_cli.py test runs through cli.main
CLI_ERRORS = [case for case in READER_ERRORS
              if case[0] is SERIES or case[2] in (
                  " has no header row", " row 4: has 1 fields, expected 2",
                  ": expected columns pred,truth")]


@pytest.mark.parametrize("source, text, message", CLI_ERRORS,
                         ids=[f"{src[0]}-{k}" for k, (src, _, _) in enumerate(CLI_ERRORS)])
def test_cli_prints_reader_error(tmp_path, capsys, source, text, message):
    "The CLI prints the reader's message and exits with the code of its class."
    name, _, argv = source
    path = tmp_path / name
    path.write_text(text)
    code = main([*argv, "--in", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if message.startswith(": expected columns"):
        assert (code, err) == (2, f"error: {path}{message}\n")
    else:
        assert (code, err) == (1, f"runtime error: ValueError: {path}{message}\n")
    assert not (tmp_path / "out").exists()


def test_invalid_json_names_file(tmp_path):
    path = tmp_path / "series.json"
    path.write_text("{")
    with pytest.raises(ValueError) as exc:
        series_samples(path)
    assert str(exc.value).startswith(f"{path} is not JSON: ")

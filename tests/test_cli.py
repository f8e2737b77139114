"""End-to-end command line tests: file formats, determinism, exit codes,
and the train -> predict -> evaluate round-trip fidelity."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvelma import cli, dataio, encoder, pipeline
from mvelma.errors import SchemaError


def run_cli(*argv):
    """Invoke the CLI in-process, returning (exit_code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def run_cli_stderr(*argv):
    """Invoke the CLI in-process, returning (exit_code, stderr)."""
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def usage_exit_code(*argv):
    """Exit code for invocations argparse rejects before any handler runs."""
    with contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([str(a) for a in argv])
    return exc_info.value.code


TRAIN_KNOBS = ("--epochs", 4, "--trees", 10, "--hidden", 6, "--latent", 4)
# A model file and its test-split predictions, kept to pin the model format:
# `synth --events 40 --counties 3 --seed 0`, then `train --hidden 3 --latent 2
# --trees 3` at the other defaults, then `predict`.
MODEL_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "model_v1"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth dataset with a trained model and its test-split predictions."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    model = root / "model.json"
    preds = root / "predictions.csv"
    code, _ = run_cli("synth", "--events", 60, "--counties", 4, "--seed", 7, "--out", data)
    assert code == 0
    code, train_out = run_cli("train", "--data", data, "--model", model, *TRAIN_KNOBS)
    assert code == 0
    code, _ = run_cli("predict", "--model", model, "--data", data, "--out", preds)
    assert code == 0
    return {"root": root, "data": data, "model": model, "preds": preds,
            "train_out": train_out}


def metrics_line(stdout: str) -> str:
    lines = [l for l in stdout.splitlines() if l.startswith("MAE=")]
    assert len(lines) == 1
    return lines[0]


class TestSynth:
    def test_identical_invocations_write_identical_files(self, tmp_path):
        for name in ("a", "b"):
            code, out = run_cli("synth", "--events", 25, "--counties", 3,
                                "--seed", 11, "--out", tmp_path / name)
            assert code == 0
            assert out.splitlines()[0].startswith("config: subcommand=synth")
        for fname in ("events.csv", "weather.csv", "enriched.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                (tmp_path / "b" / fname).read_bytes()

    def test_output_loads_as_dataset(self, workspace):
        ds, report = dataio.load_dataset(workspace["data"])
        assert ds.n == 60
        assert report.messages == []
        assert len({ev.county_id for ev in ds.events}) == 4

    def test_too_few_events_is_validation_error(self, tmp_path):
        code, _ = run_cli("synth", "--events", 5, "--counties", 2,
                          "--seed", 0, "--out", tmp_path / "tiny")
        assert code == 1


class TestTrainPredictEvaluate:
    def test_every_subcommand_echoes_config(self, workspace):
        assert workspace["train_out"].startswith("config: subcommand=train ")
        code, out = run_cli("evaluate", "--pred", workspace["preds"],
                            "--data", workspace["data"])
        assert code == 0
        assert out.startswith("config: subcommand=evaluate ")

    def test_train_and_evaluate_print_identical_metrics(self, workspace):
        code, eval_out = run_cli("evaluate", "--pred", workspace["preds"],
                                 "--data", workspace["data"])
        assert code == 0
        assert metrics_line(eval_out) == metrics_line(workspace["train_out"])

    def test_file_roundtrip_matches_in_process_metrics(self, workspace):
        model = pipeline.load_model(workspace["model"])
        ds, _ = dataio.load_dataset(workspace["data"])
        test = pipeline.subset_by_ids(ds, model.test_event_ids, "model test split")
        pred = pipeline.predict(model, test)
        quantized = cli._quantize(pred.yhat)
        in_process = pipeline.evaluate(quantized, test.targets)

        ids, cols = cli._read_predictions(workspace["preds"])
        assert ids == model.test_event_ids
        assert np.array_equal(cols["y_pred"], quantized)
        from_file = pipeline.evaluate(cols["y_pred"], test.targets)
        for field in ("mae", "r2", "mape_pct", "nrmse"):
            assert abs(getattr(from_file, field) - getattr(in_process, field)) <= 1e-12

    def test_predictions_file_format(self, workspace):
        lines = workspace["preds"].read_text().splitlines()
        assert lines[0] == "event_id,y_true,y_pred,gp_mean,gp_var,confidence"
        row = re.compile(r"^ev\d{5}(,-?\d+\.\d{6}){5}$")
        assert len(lines) == 13  # 60 events, 0.8 split -> 12 test rows
        for line in lines[1:]:
            assert row.match(line), line

    def test_evaluate_on_predictions_equal_to_truth(self, workspace, tmp_path):
        ds, _ = dataio.load_dataset(workspace["data"])
        path = tmp_path / "perfect.csv"
        with open(path, "w") as f:
            f.write("event_id,y_true,y_pred,gp_mean,gp_var,confidence\n")
            for ev, y in zip(ds.events, ds.targets):
                f.write(f"{ev.event_id},{y:.6f},{y:.6f},{y:.6f},0.000000,1.000000\n")
        code, out = run_cli("evaluate", "--pred", path, "--data", workspace["data"])
        assert code == 0
        line = metrics_line(out)
        assert "MAE=0.000000" in line
        assert "R2=1.000000" in line

    def test_predict_split_all_covers_every_event(self, workspace, tmp_path):
        out_csv = tmp_path / "all.csv"
        code, _ = run_cli("predict", "--model", workspace["model"],
                          "--data", workspace["data"], "--out", out_csv,
                          "--split", "all")
        assert code == 0
        ids, _ = cli._read_predictions(out_csv)
        ds, _ = dataio.load_dataset(workspace["data"])
        assert ids == [ev.event_id for ev in ds.events]

    @pytest.mark.determinism
    def test_train_is_deterministic(self, workspace, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            code, out = run_cli("train", "--data", workspace["data"],
                                "--model", tmp_path / name, *TRAIN_KNOBS)
            assert code == 0
            outs.append(out)
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        assert metrics_line(outs[0]) == metrics_line(outs[1])

    @pytest.mark.determinism
    def test_train_is_deterministic_with_threaded_encoder(self, workspace, tmp_path, monkeypatch):
        """At this width the encoder runs its two directions on two threads
        wherever more than one CPU is available and numpy's bundled OpenBLAS
        is found; train_joint holds that pool at one thread, so the threaded
        path runs at any OPENBLAS_NUM_THREADS. Two runs, and a run forced
        onto the sequential path, write the same model bytes."""
        hidden = 140
        knobs = ("--epochs", 3, "--trees", 5, "--hidden", hidden, "--latent", 4)
        outs = []
        for name in ("m1.json", "m2.json"):
            code, out = run_cli("train", "--data", workspace["data"],
                                "--model", tmp_path / name, *knobs)
            assert code == 0
            outs.append(out)
        n_train = len(json.loads((tmp_path / "m1.json").read_text())["train_event_ids"])
        assert n_train * hidden >= encoder._THREAD_MIN_STATE
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        assert metrics_line(outs[0]) == metrics_line(outs[1])

        monkeypatch.setattr(encoder, "_THREAD_MIN_STATE", n_train * hidden + 1)
        code, _ = run_cli("train", "--data", workspace["data"],
                          "--model", tmp_path / "sequential.json", *knobs)
        assert code == 0
        assert (tmp_path / "sequential.json").read_bytes() == (tmp_path / "m1.json").read_bytes()


class TestQuotedIds:
    def test_ids_that_csv_quotes_survive_predict_evaluate_and_map(self, tmp_path):
        """An event id and a county id holding a comma and a quote are
        written with csv's own quoting, so the files read back."""
        ds, _ = dataio.synth_generate(40, 3, seed=2)
        ds.events[0] = dataclasses.replace(ds.events[0], event_id='ev,0"x', county_id="06,001")
        data = tmp_path / "data"
        dataio.write_dataset(ds, data)
        model, preds, cmap = tmp_path / "model.json", tmp_path / "p.csv", tmp_path / "map.csv"
        for argv in (("train", "--data", data, "--model", model, *TRAIN_KNOBS),
                     ("predict", "--model", model, "--data", data, "--out", preds,
                      "--split", "all"),
                     ("evaluate", "--pred", preds, "--data", data),
                     ("map", "--pred", preds, "--data", data, "--out", cmap)):
            code, err = run_cli_stderr(*argv)
            assert code == 0, err
        with open(preds, newline="", encoding="utf-8") as f:
            assert 'ev,0"x' in [row[0] for row in csv.reader(f)]
        with open(cmap, newline="", encoding="utf-8") as f:
            rows = {row[0]: row for row in csv.reader(f)}
        assert len(rows["06,001"]) == 4


class TestModelFormatFixture:
    @pytest.mark.determinism
    def test_committed_model_round_trips_and_predicts(self, tmp_path):
        """The committed model loads, saves back to the same bytes, and
        predicts the committed predictions file byte for byte."""
        model = pipeline.load_model(MODEL_FIXTURE / "model.json")
        pipeline.save_model(model, tmp_path / "model.json")
        saved = (tmp_path / "model.json").read_bytes()
        assert saved == (MODEL_FIXTURE / "model.json").read_bytes()

        data = tmp_path / "data"
        code, _ = run_cli("synth", "--events", 40, "--counties", 3, "--seed", 0, "--out", data)
        assert code == 0
        code, _ = run_cli("predict", "--model", MODEL_FIXTURE / "model.json", "--data", data,
                          "--out", tmp_path / "predictions.csv")
        assert code == 0
        assert (tmp_path / "predictions.csv").read_bytes() == \
            (MODEL_FIXTURE / "predictions.csv").read_bytes()


class TestMapAndAblate:
    def test_map_writes_sorted_county_means(self, workspace, tmp_path):
        out_csv = tmp_path / "county_map.csv"
        code, _ = run_cli("map", "--pred", workspace["preds"],
                          "--data", workspace["data"], "--out", out_csv)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "county_id,opfvl,ppvl,apc"
        counties = [l.split(",")[0] for l in lines[1:]]
        assert counties == sorted(counties)

        # spot-check one county's predicted mean against the rows that fed it
        ids, cols = cli._read_predictions(workspace["preds"])
        ds, _ = dataio.load_dataset(workspace["data"])
        county_of = {ev.event_id: ev.county_id for ev in ds.events}
        target = counties[0]
        member = np.array([county_of[eid] == target for eid in ids])
        expected = cols["y_pred"][member].mean()
        written = float(lines[1].split(",")[2])
        assert abs(written - expected) < 5e-7

    def test_ablate_prints_variant_metrics(self, workspace):
        code, out = run_cli("ablate", "--data", workspace["data"],
                            "--variant", "no-bilstm-gpr", *TRAIN_KNOBS)
        assert code == 0
        assert out.startswith("config: subcommand=ablate variant=no-bilstm-gpr ")
        assert re.search(r"variant=no-bilstm-gpr MAE=\d+\.\d{6} R2=", out)


class TestExitCodes:
    def test_usage_errors_exit_64(self):
        assert usage_exit_code() == 64
        assert usage_exit_code("frobnicate") == 64
        assert usage_exit_code("synth", "--events", 10) == 64  # missing required
        assert usage_exit_code("synth", "--events", 10, "--counties", 2,
                               "--out", "d", "--bogus", 1) == 64
        assert usage_exit_code("train", "--data", "d", "--model", "m",
                               "--kernel", "periodic") == 64
        assert usage_exit_code("predict", "--model", "m", "--data", "d",
                               "--out", "p", "--split", "sideways") == 64

    def test_missing_data_dir_exits_1(self, tmp_path):
        code, _ = run_cli("train", "--data", tmp_path / "absent",
                          "--model", tmp_path / "m.json", *TRAIN_KNOBS)
        assert code == 1

    def test_unknown_event_id_exits_1(self, workspace, tmp_path):
        path = tmp_path / "stray.csv"
        with open(path, "w") as f:
            f.write("event_id,y_true,y_pred,gp_mean,gp_var,confidence\n")
            f.write("ev99999,0.1,0.1,0.1,0.0,1.0\n")
        code, _ = run_cli("evaluate", "--pred", path, "--data", workspace["data"])
        assert code == 1

    def test_malformed_predictions_header_exits_1(self, workspace, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("event,prediction\nev00001,0.1\n")
        code, _ = run_cli("evaluate", "--pred", path, "--data", workspace["data"])
        assert code == 1

    @pytest.mark.parametrize("command", ["evaluate", "map"])
    @pytest.mark.parametrize("corruption", ["nan", "inf", "duplicate"])
    def test_bad_prediction_rows_are_one_validation_error(
        self, workspace, tmp_path, command, corruption
    ):
        header, first, *rest = workspace["preds"].read_text().splitlines()
        if corruption == "duplicate":
            rows = [first, first] + rest
        else:
            cells = first.split(",")
            cells[2] = corruption  # y_pred
            rows = [",".join(cells)] + rest
        path = tmp_path / "predictions.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        extra = ("--out", tmp_path / "county.csv") if command == "map" else ()
        code, err = run_cli_stderr(command, "--pred", path, "--data", workspace["data"], *extra)
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("validation error: ")
        assert not (tmp_path / "county.csv").exists()

    @pytest.mark.parametrize("command", ["evaluate", "map"])
    @pytest.mark.parametrize("corruption", ["short_row", "non_utf8"])
    def test_malformed_predictions_file_is_one_validation_error(
        self, workspace, tmp_path, command, corruption
    ):
        path = tmp_path / "predictions.csv"
        header, first, rest = workspace["preds"].read_bytes().split(b"\n", 2)
        if corruption == "short_row":
            first = b",".join(first.split(b",")[:3])
            expected = f"validation error: {path} row 2: 3 fields, header has 6\n"
        else:
            first = first.replace(b",", b"\xff,", 1)
            expected = f"validation error: {path}: not UTF-8 text"
        path.write_bytes(b"\n".join([header, first, rest]))
        extra = ("--out", tmp_path / "county.csv") if command == "map" else ()
        code, err = run_cli_stderr(command, "--pred", path, "--data", workspace["data"], *extra)
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(expected)
        assert not (tmp_path / "county.csv").exists()

    def test_short_weather_row_under_train_is_one_validation_error(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        header, first, *rest = (data / "weather.csv").read_text().splitlines()
        first = ",".join(first.split(",")[:4])
        (data / "weather.csv").write_text("\n".join([header, first] + rest) + "\n")
        code, err = run_cli_stderr("train", "--data", data, "--model", tmp_path / "m.json",
                                   *TRAIN_KNOBS)
        assert code == 1
        assert err == f"validation error: {data / 'weather.csv'} row 2: 4 fields, header has 11\n"
        assert not (tmp_path / "m.json").exists()

    def test_divergent_training_exits_2(self, workspace, tmp_path):
        with np.errstate(all="ignore"):
            code, _ = run_cli("train", "--data", workspace["data"],
                              "--model", tmp_path / "m.json",
                              "--epochs", 6, "--lr", 1e8,
                              "--trees", 5, "--hidden", 6, "--latent", 4)
        assert code == 2

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_zero_epochs_is_one_validation_error(self, workspace, tmp_path, command):
        out = tmp_path / "out"
        out.mkdir()
        model = ("--model", out / "m.json") if command == "train" else ()
        code, err = run_cli_stderr(command, "--data", workspace["data"], *model,
                                   "--epochs", 0, "--trees", 5, "--hidden", 6, "--latent", 4)
        assert code == 1
        assert err == "validation error: max_epochs must be >= 1\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("lr", ["0", "-0.1", "nan"])
    def test_learning_rate_not_finite_and_positive_is_one_validation_error(
        self, workspace, tmp_path, command, lr
    ):
        out = tmp_path / "out"
        out.mkdir()
        model = ("--model", out / "m.json") if command == "train" else ()
        code, err = run_cli_stderr(command, "--data", workspace["data"], *model, "--lr", lr,
                                   "--epochs", 3, "--trees", 5, "--hidden", 6, "--latent", 4)
        assert code == 1
        assert err == "validation error: learning_rate must be finite and > 0\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["synth", "train", "ablate"])
    def test_negative_seed_is_one_validation_error(self, workspace, tmp_path, command):
        out = tmp_path / "out"
        out.mkdir()
        if command == "synth":
            args = ("--events", 40, "--counties", 4, "--out", out / "data")
        else:
            model = ("--model", out / "m.json") if command == "train" else ()
            args = ("--data", workspace["data"], *model, *TRAIN_KNOBS)
        code, err = run_cli_stderr(command, *args, "--seed", -1)
        assert code == 1
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", [
        ("predict", "--split", "test"), ("predict", "--split", "train"), ("evaluate",), ("map",),
    ])
    def test_ids_absent_from_the_dataset_are_one_validation_error(self, workspace, tmp_path,
                                                                  command):
        """The model's split ids, or a predictions file's ids, that the
        dataset lacks end in one line naming where the ids came from, the
        count and the first one missing."""
        model = pipeline.load_model(workspace["model"])
        gone = model.test_event_ids[1:4] + model.train_event_ids[2:4]
        ds, _ = dataio.load_dataset(workspace["data"])
        data = tmp_path / "data"
        data.mkdir()
        dataio.write_dataset(
            ds.subset([i for i, ev in enumerate(ds.events) if ev.event_id not in gone]), data
        )
        out = tmp_path / "out.csv"
        if command[0] == "predict":
            argv = ("predict", "--model", workspace["model"], *command[1:], "--out", out)
            source, wanted = f"model {command[2]} split", getattr(model, f"{command[2]}_event_ids")
        else:
            extra = ("--out", out) if command[0] == "map" else ()
            argv = (command[0], "--pred", workspace["preds"], *extra)
            source, wanted = workspace["preds"], model.test_event_ids
        missing = [eid for eid in wanted if eid in gone]
        code, err = run_cli_stderr(*argv, "--data", data)
        assert code == 1
        assert err == (f"validation error: {source}: {len(missing)} event id(s) not present "
                       f"in the dataset, first missing {missing[0]!r}\n")
        assert not out.exists()


class TestBadCsvValues:
    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("fname,column,value", [
        ("enriched.csv", "elevation", "inf"),
        ("weather.csv", "tavg_c", "-inf"),
        ("events.csv", "fire_duration_days", ""),
    ])
    def test_bad_cell_is_one_validation_error(self, workspace, tmp_path, command,
                                              fname, column, value):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        header, first, *rest = (data / fname).read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index(column)] = value
        (data / fname).write_text("\n".join([header, ",".join(cells)] + rest) + "\n")
        if command == "train":
            argv = ("train", "--data", data, "--model", tmp_path / "m.json", *TRAIN_KNOBS)
        else:
            argv = ("predict", "--model", workspace["model"], "--data", data,
                    "--out", tmp_path / "p.csv")
        code, err = run_cli_stderr(*argv)
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"validation error: {data / fname} row 2 column {column!r}: ")


CORRUPTIONS = ("delete_line", "duplicate_line", "drop_field", "add_field", "truncate",
               "insert_byte", "set_cell")
CELL_VALUES = ("", "x", "inf", "1e999", "-1", "nan", "2020-13-01")


@st.composite
def corruptions(draw):
    """One bounded corruption: a kind, a line and a field chosen by index
    (reduced modulo the file's size when applied), and a cell value."""
    return (draw(st.sampled_from(CORRUPTIONS)), draw(st.integers(0, 10_000)),
            draw(st.integers(0, 100)), draw(st.sampled_from(CELL_VALUES)))


def corrupt(data: bytes, corruption) -> bytes:
    kind, line_pick, field_pick, value = corruption
    if kind == "insert_byte":
        at = line_pick % (len(data) + 1)
        return data[:at] + b"\xff" + data[at:]
    lines = data.splitlines(keepends=True)
    i = line_pick % len(lines)
    line = lines[i]
    if kind == "delete_line":
        del lines[i]
    elif kind == "duplicate_line":
        lines.insert(i, line)
    elif kind == "truncate":  # cut strictly inside the line, before its newline
        return b"".join(lines[:i]) + line[:1 + field_pick % (len(line) - 1)]
    else:
        fields = line.rstrip(b"\r\n").split(b",")
        j = field_pick % len(fields)
        if kind == "drop_field":
            del fields[j]
        elif kind == "add_field":
            fields.insert(j, b"0.5")
        else:
            fields[j] = value.encode()
        lines[i] = b",".join(fields) + b"\n"
    return b"".join(lines)


@pytest.fixture(scope="module")
def fixture_data(tmp_path_factory):
    """The dataset behind the committed model fixture."""
    data = tmp_path_factory.mktemp("fixture_data")
    code, _ = run_cli("synth", "--events", 40, "--counties", 3, "--seed", 0, "--out", data)
    assert code == 0
    return data


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    if code:
        assert len(err.splitlines()) == 1, err
        assert err.startswith(("validation error:", "numerical failure:")), err


def _blank_cell(path, column):
    """Blank `column` in the first record of a CSV file."""
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[header.split(",").index(column)] = ""
    path.write_text("\n".join([header, ",".join(cells)] + rest) + "\n")


def test_every_data_command_prints_the_validation_report(fixture_data, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(fixture_data, data)
    _blank_cell(data / "weather.csv", "wind_ms")
    _blank_cell(data / "enriched.csv", "elevation")
    model, preds = tmp_path / "model.json", tmp_path / "predictions.csv"
    commands = {
        "train": ("train", "--data", data, "--model", model, *TRAIN_KNOBS),
        "predict": ("predict", "--model", model, "--data", data, "--out", preds),
        "evaluate": ("evaluate", "--pred", preds, "--data", data),
        "map": ("map", "--pred", preds, "--data", data, "--out", tmp_path / "map.csv"),
        "ablate": ("ablate", "--data", data, "--variant", "no-bilstm-gpr", *TRAIN_KNOBS),
    }
    reports = {}
    for name, argv in commands.items():
        code, out = run_cli(*argv)
        assert code == 0, name
        assert out.startswith(f"config: subcommand={name} "), name
        reports[name] = [line for line in out.splitlines() if line.startswith("validation: ")]
    assert len(reports["train"]) == 2
    assert "filled 1 missing wind_ms values" in reports["train"][0]
    assert "filled missing elevation" in reports["train"][1]
    assert all(lines == reports["train"] for lines in reports.values()), reports


class TestCorruptInputNeverRaises:
    """A corrupted input file ends in an exit code and at most one error
    line, never in a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(fname=st.sampled_from(["events.csv", "weather.csv", "enriched.csv"]),
           corruption=corruptions())
    def test_predict_on_corrupt_dataset(self, fixture_data, fname, corruption):
        with tempfile.TemporaryDirectory() as tmp:
            data = pathlib.Path(tmp) / "data"
            shutil.copytree(fixture_data, data)
            (data / fname).write_bytes(corrupt((fixture_data / fname).read_bytes(), corruption))
            code, err = run_cli_stderr("predict", "--model", MODEL_FIXTURE / "model.json",
                                       "--data", data, "--out", pathlib.Path(tmp) / "p.csv")
        assert_clean_exit(code, err)

    @settings(max_examples=60, deadline=None)
    @given(corruption=corruptions())
    def test_evaluate_on_corrupt_predictions(self, fixture_data, corruption):
        with tempfile.TemporaryDirectory() as tmp:
            pred = pathlib.Path(tmp) / "predictions.csv"
            pred.write_bytes(corrupt((MODEL_FIXTURE / "predictions.csv").read_bytes(), corruption))
            code, err = run_cli_stderr("evaluate", "--pred", pred, "--data", fixture_data)
        assert_clean_exit(code, err)


def _drop_gp(doc):
    del doc["gp"]


def _sigma_ref_string(doc):
    doc["sigma_ref"] = "wide"


def _negative_sigma_ref(doc):
    doc["sigma_ref"] = -1.0  # every row with variance would get confidence 0


def _null_weather_std(doc):
    doc["weather_std"] = None


def _null_enriched_std(doc):
    doc["enriched_std"] = None


def _zero_std(doc):
    doc["weather_std"]["std"][0] = 0.0


def _negative_std(doc):
    doc["enriched_std"]["std"][0] = -1.0  # would flip that column


def _residual_rf_target(doc):
    doc["config"]["rf_target"] = "residual"


def _weather_unstandardized(doc):
    doc["config"]["standardize_weather"] = False


def _enriched_unstandardized(doc):
    doc["config"]["standardize_enriched"] = False


def _internal_tree(doc):
    return next(t for t in doc["forest"]["trees"] if t["feature"][0] >= 0)


def _child_out_of_range(doc):
    tree = _internal_tree(doc)
    tree["right"][0] = len(tree["feature"])


def _child_cycle(doc):
    tree = _internal_tree(doc)
    tree["left"][0] = 0  # the root is its own left child


def _feature_out_of_range(doc):
    _internal_tree(doc)["feature"][0] = doc["forest"]["n_features"]


def _huge_feature(doc):
    _internal_tree(doc)["feature"][0] = 1e300  # finite, but no int64


def _fractional_feature(doc):
    _internal_tree(doc)["feature"][0] += 0.5  # int64 would truncate it to a valid index


def _fractional_child(doc):
    _internal_tree(doc)["left"][0] += 0.9


def _ragged_tree(doc):
    _internal_tree(doc)["value"].pop()


def _short_standardizer(doc):
    doc["weather_std"]["mean"].pop()


def _nan_encoder_param(doc):
    doc["encoder_params"][0] = float("nan")


def _true_tree_value(doc):
    doc["forest"]["trees"][0]["value"][0] = True  # numpy would read 1.0


def _false_gp_target(doc):
    doc["gp"]["train_targets"][0] = False  # numpy would read 0.0


def _true_in_loss_trace(doc):
    doc["loss_trace"][0] = True


def _nan_forest_threshold(doc):
    _internal_tree(doc)["threshold"][0] = float("nan")


def _infinite_gp_input(doc):
    doc["gp"]["train_inputs"][0][0] = float("-inf")


def _short_encoder(doc):
    doc["encoder_params"] = doc["encoder_params"][:5]


def _null_gp(doc):
    doc["gp"] = None


def _null_encoder(doc):
    doc["encoder_params"] = None


def _head_under_full(doc):
    doc["head"] = [0.0] * (doc["config"]["encoder"]["latent"] + 1)


def _null_gp_input(doc):
    doc["gp"]["train_inputs"][0][0] = None  # numpy would read it as NaN


def _gp_input_column_dropped(doc):
    for row in doc["gp"]["train_inputs"]:
        row.pop()


def _gp_target_dropped(doc):
    doc["gp"]["train_targets"].pop()


def _nested_gp_targets(doc):
    doc["gp"]["train_targets"] = [doc["gp"]["train_targets"]]  # one row of all targets


def _forest_too_wide(doc):
    doc["forest"]["n_features"] += 5


def _as_no_gpr_rf(doc, head_size):
    """The document re-labelled as an encoder-and-head model."""
    doc["config"]["ablation"] = "no-gpr-rf"
    doc["gp"] = doc["forest"] = None
    doc["head"] = [0.1] * head_size


def _one_entry_head(doc):
    _as_no_gpr_rf(doc, 1)


def _unknown_kernel_family(doc):
    doc["config"]["kernel_family"] = "bogus"


def _other_gp_kernel_family(doc):
    doc["gp"]["kernel"]["family"] = "rbf"


def _extra_model_key(doc):
    doc["extra"] = 1


def _extra_weather_std_key(doc):
    doc["weather_std"]["extra"] = 1


def _extra_enriched_std_key(doc):
    doc["enriched_std"]["extra"] = 1


def _extra_gp_key(doc):
    doc["gp"]["extra"] = 1


def _extra_forest_key(doc):
    doc["forest"]["extra"] = 1


def _extra_tree_key(doc):
    doc["forest"]["trees"][-1]["extra"] = 1


def _short_importances(doc):
    doc["forest"]["importances"].pop()


def _test_id_in_train(doc):
    doc["test_event_ids"].append(doc["train_event_ids"][0])


def _train_fraction_above_one(doc):
    doc["config"]["train_fraction"] = 5.0  # split_dataset rejects it


def _true_train_fraction(doc):
    doc["config"]["train_fraction"] = True  # a boolean where a float is read


def _negative_oof_folds(doc):
    doc["config"]["oof_folds"] = -3


def _one_oof_fold(doc):
    doc["config"]["oof_folds"] = 1  # out-of-fold means need two folds or none


def _true_oof_folds(doc):
    doc["config"]["oof_folds"] = True  # a boolean where an integer is read


def _fractional_oof_folds(doc):
    doc["config"]["oof_folds"] = 2.5


def _fractional_split_seed(doc):
    doc["config"]["split_seed"] = 1.5


def _numeric_string_in_standardizer(doc):
    doc["weather_std"]["mean"][0] = "1"  # numpy parses it as 1.0


def _padded_string_threshold(doc):
    _internal_tree(doc)["threshold"][0] = " 1e3 "


def _empty_train_ids(doc):
    doc["train_event_ids"] = []  # split_dataset never writes an empty split


def _empty_test_ids(doc):
    doc["test_event_ids"] = []  # predict would run the encoder on no rows


def _bootstrap(value):
    """The forest's bootstrap flag set to `value` in both config records."""
    def corrupt(doc):
        doc["config"]["forest"]["bootstrap"] = doc["forest"]["config"]["bootstrap"] = value
    corrupt.__name__ = f"_bootstrap_{value!r}"
    return corrupt


def _forest_config_more_trees(doc):
    doc["forest"]["config"]["n_trees"] += 7  # config.forest keeps its count


def _dropped_tree(doc):
    doc["forest"]["trees"].pop()


def _more_trees_configured_than_stored(doc):
    doc["config"]["forest"]["n_trees"] += 7
    doc["forest"]["config"]["n_trees"] += 7


class TestCorruptModel:
    @pytest.mark.parametrize("corrupt", [
        _drop_gp, _sigma_ref_string, _child_out_of_range, _child_cycle,
        _feature_out_of_range, _ragged_tree, _short_standardizer,
        _nan_encoder_param, _nan_forest_threshold, _infinite_gp_input, _short_encoder,
        _null_gp, _null_encoder, _head_under_full, _one_entry_head,
        _gp_input_column_dropped, _gp_target_dropped, _forest_too_wide, _null_gp_input,
        _huge_feature, _fractional_feature, _fractional_child,
        _true_tree_value, _false_gp_target, _true_in_loss_trace,
        _negative_sigma_ref, _null_weather_std, _null_enriched_std, _zero_std, _negative_std,
        _residual_rf_target, _weather_unstandardized, _enriched_unstandardized,
        _unknown_kernel_family, _other_gp_kernel_family, _extra_model_key,
        _extra_weather_std_key, _extra_enriched_std_key, _extra_gp_key, _extra_forest_key,
        _extra_tree_key, _short_importances, _test_id_in_train,
        _train_fraction_above_one, _true_train_fraction, _negative_oof_folds, _one_oof_fold,
        _true_oof_folds, _fractional_oof_folds, _fractional_split_seed,
        _numeric_string_in_standardizer, _padded_string_threshold,
        _bootstrap("no"), _bootstrap([1]), _bootstrap(1),
        _forest_config_more_trees, _dropped_tree, _more_trees_configured_than_stored,
        _empty_train_ids, _empty_test_ids, _nested_gp_targets,
    ])
    def test_corrupt_document_is_one_validation_error(self, workspace, tmp_path, corrupt):
        doc = json.loads(workspace["model"].read_text())
        corrupt(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, err = run_cli_stderr("predict", "--model", path, "--data", workspace["data"],
                                   "--out", tmp_path / "p.csv")
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"validation error: {path}: ")

    # json's decoder and the array reader recurse once per level, and
    # pytest's own frames move the depth at which each runs out of stack, so
    # the depths span the recursion limit and go far above it
    @pytest.mark.parametrize("key", ["encoder_params", "head"])
    @pytest.mark.parametrize("depth", [-30, 0, 30, 1000, 99_000])
    def test_deeply_nested_array_is_one_validation_error(self, workspace, tmp_path, key,
                                                         depth):
        depth += sys.getrecursionlimit()
        doc = json.loads(workspace["model"].read_text())
        doc[key] = "nested"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"nested"', "[" * depth + "1.0" + "]" * depth))
        code, err = run_cli_stderr("predict", "--model", path, "--data", workspace["data"],
                                   "--out", tmp_path / "p.csv")
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"validation error: {path}: ")

    def test_head_of_latent_plus_one_loads(self, workspace, tmp_path):
        # the control for _one_entry_head: the right head size predicts
        doc = json.loads(workspace["model"].read_text())
        _as_no_gpr_rf(doc, doc["config"]["encoder"]["latent"] + 1)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli("predict", "--model", path, "--data", workspace["data"],
                          "--out", tmp_path / "p.csv")
        assert code == 0

    def test_number_overflowing_to_infinity_is_one_validation_error(self, workspace, tmp_path):
        doc = json.loads(workspace["model"].read_text())
        doc["sigma_ref"] = 1e308
        text = json.dumps(doc)
        assert text.count("1e+308") == 1
        path = tmp_path / "model.json"
        path.write_text(text.replace("1e+308", "1e999"))
        code, err = run_cli_stderr("predict", "--model", path, "--data", workspace["data"],
                                   "--out", tmp_path / "p.csv")
        assert code == 1
        assert err == f"validation error: {path}: non-finite number 1e999\n"

    @pytest.mark.parametrize("place", [
        "config.gp_opt.learning_rate", "gp.kernel.log_lengthscale", "gp.train_inputs",
        "forest.trees.feature", "forest.trees.threshold", "loss_trace", "test_event_ids",
        "loss_trace after a bad forest width",
    ])
    def test_overflowing_number_is_named_wherever_it_stands(self, workspace, tmp_path, place):
        """json reads 1e999 as inf, so the error must come from the literal,
        ahead of any check that the inf or another corruption would fail."""
        doc = json.loads(workspace["model"].read_text())
        edits = {
            "config.gp_opt.learning_rate": lambda: doc["config"]["gp_opt"].update(
                learning_rate=1e308),
            "gp.kernel.log_lengthscale": lambda: doc["gp"]["kernel"].update(
                log_lengthscale=1e308),
            "gp.train_inputs": lambda: doc["gp"]["train_inputs"][0].__setitem__(0, 1e308),
            "forest.trees.feature": lambda: _internal_tree(doc)["feature"].__setitem__(0, 1e308),
            "forest.trees.threshold": lambda: _internal_tree(doc)["threshold"].__setitem__(
                0, 1e308),
            "loss_trace": lambda: doc["loss_trace"].__setitem__(-1, 1e308),
            "test_event_ids": lambda: doc["test_event_ids"].append(1e308),
            "loss_trace after a bad forest width": lambda: (
                _forest_too_wide(doc), doc["loss_trace"].__setitem__(-1, 1e308)),
        }
        edits[place]()
        text = json.dumps(doc)
        assert text.count("1e+308") == 1
        path = tmp_path / "model.json"
        path.write_text(text.replace("1e+308", "1e999"))
        code, err = run_cli_stderr("predict", "--model", path, "--data", workspace["data"],
                                   "--out", tmp_path / "p.csv")
        assert code == 1
        assert err == f"validation error: {path}: non-finite number 1e999\n"

    @pytest.mark.parametrize("split", ["train_event_ids", "test_event_ids"])
    def test_repeated_event_id_is_one_validation_error(self, fixture_data, tmp_path, split):
        """predict would write the event's row twice, which evaluate rejects."""
        doc = json.loads((MODEL_FIXTURE / "model.json").read_text())
        doc[split].append(doc[split][0])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, err = run_cli_stderr("predict", "--model", path, "--data", fixture_data,
                                   "--out", tmp_path / "p.csv")
        assert code == 1
        assert err == (f"validation error: {path}: {split} repeats event id "
                       f"{doc[split][0]!r}\n")
        assert not (tmp_path / "p.csv").exists()

    def test_truncated_file_is_one_validation_error(self, workspace, tmp_path):
        text = workspace["model"].read_text()
        path = tmp_path / "model.json"
        path.write_text(text[: len(text) // 2])
        code, err = run_cli_stderr("predict", "--model", path, "--data", workspace["data"],
                                   "--out", tmp_path / "p.csv")
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("validation error: ")


class TestModelRecords:
    """Each dataclass record of the model file holds exactly its class's
    fields. A missing key would otherwise take the field's default without a
    word, and the model would predict other numbers than it was trained to."""

    @pytest.mark.parametrize("record", [
        "config", "config.encoder", "config.gp_opt", "config.forest",
        "gp.kernel", "forest.config",
    ])
    def test_missing_or_unknown_key_is_one_validation_error(self, fixture_data, tmp_path,
                                                            record):
        text = (MODEL_FIXTURE / "model.json").read_text()

        def fields_of(doc):
            return functools.reduce(lambda d, k: d[k], record.split("."), doc)

        path = tmp_path / "model.json"
        edits = [("missing", k) for k in fields_of(json.loads(text))] + [("unknown", "extra")]
        for kind, key in edits:
            doc = json.loads(text)
            if kind == "missing":
                del fields_of(doc)[key]
            else:
                fields_of(doc)[key] = 1
            path.write_text(json.dumps(doc))
            code, err = run_cli_stderr("predict", "--model", path, "--data", fixture_data,
                                       "--out", tmp_path / "p.csv")
            assert code == 1
            assert err == f"validation error: {path}: {record} record: {kind} key {key!r}\n"
        assert not (tmp_path / "p.csv").exists()

    # a case's id names its value unless that is 0
    @pytest.mark.parametrize("record,key,value", [
        pytest.param(record, key, value, id=f"{record}-{key}" + (f"={value}" if value else ""))
        for record, key, value in [
            ("config.forest", "n_trees", 0), ("forest.config", "n_trees", 0),
            ("config.gp_opt", "max_epochs", 0), ("config.gp_opt", "patience", 0),
            ("config.gp_opt", "learning_rate", 0),
            ("config.gp_opt", "beta1", 5.0), ("config.gp_opt", "beta1", 1.0),
            ("config.gp_opt", "beta2", -0.5), ("config.gp_opt", "eps", -1),
            ("config.gp_opt", "eps", 0), ("config.gp_opt", "min_delta", -3),
            ("config.forest", "features_per_split", 0),
        ]
    ])
    def test_config_value_out_of_range_is_one_validation_error(self, fixture_data, tmp_path,
                                                               record, key, value):
        doc = json.loads((MODEL_FIXTURE / "model.json").read_text())
        functools.reduce(lambda d, k: d[k], record.split("."), doc)[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, err = run_cli_stderr("predict", "--model", path, "--data", fixture_data,
                                   "--out", tmp_path / "p.csv")
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"validation error: {path}: ")
        assert not (tmp_path / "p.csv").exists()


def _sweep_places(value, path=()):
    """Each place of the model fixture that the sweep mutates, as (kind,
    path): every object ("object", where a key is added), every key, and the
    first, second and last entry of every array, descending into the first
    tree only."""
    if isinstance(value, dict):
        yield "object", path
        for key, item in value.items():
            yield "key", path + (key,)
            yield from _sweep_places(item, path + (key,))
    elif isinstance(value, list):
        entries = sorted({0, 1, len(value) - 1} & set(range(len(value))))
        for i in entries:
            yield "entry", path + (i,)
        for i in entries[:1] if path[-1:] == ("trees",) else entries:
            yield from _sweep_places(value[i], path + (i,))


def _place_name(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _same_json(a, b):
    """a and b are one JSON value: an integer equals the same float, and a
    boolean is never a number."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same_json(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


# The sweep's mutations that load, as "place: values"; [i,j] at a place
# stands for each of those entries. Each re-saves to the mutated document.
_SWEEP_LOADS = """
# config values in range, finite numbers and distinct ids: values that
# train_joint writes on other data or under another config
config.encoder.seq_len: 1000000
config.encoder.seed: 1000000
config.gp_opt.learning_rate: 0.5 1000000
config.gp_opt.max_epochs: 1000000
config.gp_opt.patience: 1000000
config.gp_opt.min_delta: 0.5 1000000
config.gp_opt.beta1: 0.5
config.gp_opt.beta2: 0.5
config.gp_opt.eps: 0.5 1000000
config.train_fraction: 0.5
config.split_seed: 1000000
config.oof_folds: 1000000
weather_std.mean[0,1,8]: 0.5 -1 1000000
weather_std.std[0,1,8]: 0.5 1000000
enriched_std.mean[0,1,26]: 0.5 -1 1000000
enriched_std.std[0,1,26]: 0.5 1000000
encoder_params[0,1,332]: 0.5 -1 1000000
gp.kernel.log_outputscale: 0.5 -1
gp.kernel.log_lengthscale: 0.5 -1
gp.kernel.log_period: 0.5 -1 1000000
gp.kernel.log_periodic_lengthscale: 0.5 -1 1000000
gp.log_noise: 0.5 -1
gp.mean_const: 0.5 -1 1000000
gp.train_inputs[0,1,31][0,1,28]: 0.5 -1 1000000
gp.train_targets[0,1,31]: 0.5 -1 1000000
forest.importances[0,1,29]: 0.5 -1 1000000
forest.trees[0].threshold[0,1,24]: 0.5 -1 1000000
forest.trees[0].value[0,1,24]: 0.5 -1 1000000
sigma_ref: 0.5 1000000
loss_trace[0,1,79]: 0.5 -1 1000000
train_event_ids[0,1,31]: "1"
test_event_ids[0,1,7]: "1"

# the fixture's own value: null, or true where it stands already
config.forest.max_depth: null
config.forest.features_per_split: null
config.forest.bootstrap: true
config.standardize_weather: true
config.standardize_enriched: true
forest.config.max_depth: null
forest.config.features_per_split: null
forest.config.bootstrap: true
head: null

# a node made a leaf, and the children of a leaf, which no walk reads
forest.trees[0].feature[0,1,24]: -1
forest.trees[0].left[24]: -1 1000000
forest.trees[0].right[24]: -1 1000000

# predict never reads the loss trace, and a variant without encoder and GP
# writes it empty
loss_trace: [1] []
"""


def _sweep_loads():
    """_SWEEP_LOADS as a set of "place value" strings."""
    loads = set()
    for line in _SWEEP_LOADS.splitlines():
        if not line or line.startswith("#"):
            continue
        pattern, values = line.split(": ")
        places = [""]
        for i, part in enumerate(re.split(r"\[([\d,]+)\]", pattern)):
            options = [f"[{j}]" for j in part.split(",")] if i % 2 else [part]
            places = [p + o for p in places for o in options]
        loads |= {f"{p} {v}" for p in places for v in values.split()}
    return loads


class TestModelFileSweep:
    """Load inverts save on every single-point mutation of the committed
    model: a value, a missing key or an extra key either ends in one
    SchemaError line naming the file, or loads and saves back to the mutated
    document. The round trip alone would not see a dropped check, so the set
    of mutations that load is pinned as well. Each mutation that loads runs
    through `predict --split all` on the fixture's dataset, which must exit 0
    or exit 1 with one `validation error:` line; the set that exits 1 is
    pinned too."""

    def test_every_mutation_is_rejected_or_round_trips(self, fixture_data, tmp_path):
        text = (MODEL_FIXTURE / "model.json").read_text()
        values = [True, None, "1", 0.5, -1, 10**6, [1], []]
        path, saved = tmp_path / "model.json", tmp_path / "saved.json"
        count, loads, refused = 0, set(), set()
        for kind, place in _sweep_places(json.loads(text)):
            edits = (["extra"] if kind == "object"
                     else values + (["missing"] if kind == "key" else []))
            for edit in edits:
                doc = json.loads(text)
                parent = functools.reduce(lambda d, k: d[k], place[:-1], doc)
                if edit == "extra":
                    (parent[place[-1]] if place else doc)["extra"] = 1
                elif edit == "missing":
                    del parent[place[-1]]
                else:
                    parent[place[-1]] = edit
                label = edit if edit in ("extra", "missing") else json.dumps(edit)
                path.write_text(json.dumps(doc))
                count += 1
                try:
                    model = pipeline.load_model(path)
                except SchemaError as exc:
                    message = str(exc)
                    assert message.startswith(f"{path}: ") and "\n" not in message, message
                    continue
                pipeline.save_model(model, saved)
                assert _same_json(json.loads(saved.read_text()), doc), (place, label)
                loads.add(f"{_place_name(place)} {label}")
                code, err = run_cli_stderr("predict", "--model", path, "--data", fixture_data,
                                           "--out", tmp_path / "p.csv", "--split", "all")
                if code:
                    assert code == 1 and len(err.splitlines()) == 1, (place, label, err)
                    assert err.startswith("validation error: "), (place, label, err)
                    refused.add(f"{_place_name(place)} {label}")
        assert count == 1131
        assert loads == _sweep_loads()
        # a sequence length other than the dataset's 30 days
        assert refused == {"config.encoder.seq_len 1000000"}


class TestCheckGrads:
    def test_reports_all_cases_under_tolerance(self):
        code, out = run_cli("check-grads", "--seeds", 1)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("config: subcommand=check-grads ")
        case_lines = [l for l in lines if "max_rel_error=" in l]
        assert len(case_lines) >= 50
        assert all(l.endswith(" ok") for l in case_lines)
        assert "gradient checks passed" in lines[-1]


# Runs the whole workflow through cli.main in an interpreter in which every
# scipy import fails, so the package must need nothing beyond numpy.
NO_SCIPY_WORKFLOW = """
import sys
sys.modules["scipy"] = None
from mvelma import cli
root, knobs = sys.argv[1], sys.argv[2:]
steps = [
    ["synth", "--events", "40", "--counties", "3", "--seed", "5", "--out", root + "/data"],
    ["train", "--data", root + "/data", "--model", root + "/model.json"] + knobs,
    ["predict", "--model", root + "/model.json", "--data", root + "/data",
     "--out", root + "/predictions.csv"],
    ["evaluate", "--pred", root + "/predictions.csv", "--data", root + "/data"],
    ["map", "--pred", root + "/predictions.csv", "--data", root + "/data",
     "--out", root + "/county_map.csv"],
    ["check-grads", "--seeds", "1"],
]
for argv in steps:
    code = cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_workflow_runs_without_scipy(tmp_path):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", NO_SCIPY_WORKFLOW, str(tmp_path), *map(str, TRAIN_KNOBS)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "county_map.csv").exists()
    assert "gradient checks passed" in proc.stdout


BLAS_COUNT_RUN = """
import sys
from mvelma import cli
data, root = sys.argv[1], sys.argv[2]
for argv in (
    ["train", "--data", data, "--model", root + "/model.json",
     "--epochs", "15", "--trees", "50", "--hidden", "16", "--latent", "6"],
    ["predict", "--model", root + "/model.json", "--data", data,
     "--out", root + "/predictions.csv"],
):
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


@pytest.mark.determinism
def test_same_files_at_any_blas_thread_count(tmp_path):
    """mvelma holds numpy's OpenBLAS at one thread while it computes, so
    OPENBLAS_NUM_THREADS unset, 1 and 2 write the same model and
    predictions, byte for byte."""
    data = tmp_path / "data"
    code, _ = run_cli("synth", "--events", 200, "--counties", 5, "--seed", 7, "--out", data)
    assert code == 0
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for count in (None, "1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if count is not None:
            env["OPENBLAS_NUM_THREADS"] = count
        root = tmp_path / f"blas-{count}"
        root.mkdir()
        argv = [sys.executable, "-c", BLAS_COUNT_RUN, str(data), str(root)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(root / n).read_bytes() for n in ("model.json", "predictions.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_module_entry_point_runs_without_warnings():
    """`python -m mvelma.cli` runs the module once: the package does not
    import it first, which makes runpy warn."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "mvelma.cli", "--help"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: mvelma")

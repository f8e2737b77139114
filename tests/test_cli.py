"""End-to-end command line tests: file formats, determinism, exit codes,
and the train -> predict -> evaluate round-trip fidelity."""

import contextlib
import io
import json
import re

import numpy as np
import pytest

from mvelma import cli, dataio, pipeline


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
        test = pipeline.subset_by_ids(ds, model.test_event_ids)
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

    def test_train_is_deterministic(self, workspace, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            code, out = run_cli("train", "--data", workspace["data"],
                                "--model", tmp_path / name, *TRAIN_KNOBS)
            assert code == 0
            outs.append(out)
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        assert metrics_line(outs[0]) == metrics_line(outs[1])


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

    def test_divergent_training_exits_2(self, workspace, tmp_path):
        with np.errstate(all="ignore"):
            code, _ = run_cli("train", "--data", workspace["data"],
                              "--model", tmp_path / "m.json",
                              "--epochs", 6, "--lr", 1e8,
                              "--trees", 5, "--hidden", 6, "--latent", 4)
        assert code == 2


def _drop_gp(doc):
    del doc["gp"]


def _sigma_ref_string(doc):
    doc["sigma_ref"] = "wide"


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


def _ragged_tree(doc):
    _internal_tree(doc)["value"].pop()


def _short_standardizer(doc):
    doc["weather_std"]["mean"].pop()


class TestCorruptModel:
    @pytest.mark.parametrize("corrupt", [
        _drop_gp, _sigma_ref_string, _child_out_of_range, _child_cycle,
        _feature_out_of_range, _ragged_tree, _short_standardizer,
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
        assert err.startswith("validation error: ")

    def test_truncated_file_is_one_validation_error(self, workspace, tmp_path):
        text = workspace["model"].read_text()
        path = tmp_path / "model.json"
        path.write_text(text[: len(text) // 2])
        code, err = run_cli_stderr("predict", "--model", path, "--data", workspace["data"],
                                   "--out", tmp_path / "p.csv")
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("validation error: ")


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

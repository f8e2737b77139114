"""The benchmark's own tests: its recomputations on hand-worked cases, the
span bookkeeping, and a tiny-size smoke pass of every workload.

    python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks as ck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from mvelma.pipeline import VARIANTS  # noqa: E402


def test_metrics_hand_worked():
    # err = (0, 0, -1); mean truth 7/3; SST = 14/3; SSE = 1
    m = ck.metrics([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert m["mae"] == pytest.approx(1 / 3)
    assert m["r2"] == pytest.approx(11 / 14)
    assert m["mape_pct"] == pytest.approx(100 * 0.25 / 3)
    assert m["nrmse"] == pytest.approx(math.sqrt(3 / 14))


def test_mape_leaves_out_zero_truth():
    assert ck.metrics([1.0, 1.0], [0.0, 2.0])["mape_pct"] == pytest.approx(50.0)


def test_metrics_reject_length_mismatch():
    with pytest.raises(ValueError):
        ck.metrics([1.0], [1.0, 2.0])


def test_county_means_hand_worked():
    rows = [("A", 1.0, 2.0, 0.5), ("B", 3.0, 3.0, 1.0), ("A", 3.0, 4.0, 1.0)]
    assert ck.county_means(rows) == {"A": (2.0, 3.0, 0.75), "B": (3.0, 3.0, 1.0)}


def test_parse_metrics_line():
    text = "config: x=1\nMAE=0.100000 R2=0.500000 MAPE=12.500000% NRMSE=0.700000\n"
    assert ck.parse_metrics_line(text) == {"mae": 0.1, "r2": 0.5, "mape_pct": 12.5, "nrmse": 0.7}
    assert ck.parse_metrics_line("no metrics here") is None


def test_prior_variance():
    assert ck.prior_variance({"family": "matern25", "log_outputscale": math.log(3.0)}) == pytest.approx(3.0)
    assert ck.prior_variance({"family": "composite", "log_outputscale": 0.0}) == 2.0


def test_confidence_order():
    chk = ck.Checker()
    ck.check_confidence(chk, "ok", [0.1, 0.0, 0.2, 0.2], [0.8, 0.9, 0.5, 0.6])
    assert chk.ok, chk.failures  # equal variances may carry different rounded confidences
    ck.check_confidence(chk, "rises", [0.0, 0.1], [0.5, 0.6])
    ck.check_confidence(chk, "range", [0.0], [1.5])
    assert len(chk.failures) == 2


def test_range_trace_and_r2_checks():
    chk = ck.Checker()
    ck.check_in_range(chk, "in", [0.0, 1.0], 0.0, 1.0, 0.0)
    ck.check_trace_ends_at_min(chk, "min", [3.0, 1.0, 2.0, 1.0])
    ck.check_r2(chk, "r2", 0.9)
    assert chk.ok
    ck.check_in_range(chk, "out", [1.1], 0.0, 1.0, 0.0)
    ck.check_trace_ends_at_min(chk, "not min", [3.0, 1.0, 2.0])
    ck.check_r2(chk, "above ceiling", 0.97)
    ck.check_r2(chk, "at floor", 0.5)
    assert len(chk.failures) == 4


def test_repeatable_ledger(tmp_path):
    ledger, out = tmp_path / "ledger.json", tmp_path / "out.csv"
    chk = ck.Checker()
    out.write_text("a,b\n1,2\n")
    ck.check_repeatable(chk, ledger, "k", out)
    ck.check_repeatable(chk, ledger, "k", out)
    assert chk.ok
    out.write_text("a,b\n1,3\n")
    ck.check_repeatable(chk, ledger, "k", out)
    assert len(chk.failures) == 1


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    t = spans.Tracer()
    with t.span("pipeline.train_joint.full"):      # 0 .. 10
        with t.span("encoder.forward"):            # 2 .. 5
            pass
        with t.span("encoder.backward"):           # 6 .. 7
            pass
    assert t.self_times() == {"pipeline": 6.0, "encoder": 4.0}
    doc = t.document({})
    assert [s["parent"] for s in doc["spans"]] == [None, 0, 0]


def test_instrument_restores_every_function():
    from mvelma import dataio, encoder, forest, gp, numcore, optim, pipeline

    owners = (dataio, encoder, forest, gp, numcore, pipeline, gp.GPState, optim.Adam)
    before = {(o, k): v for o in owners for k, v in vars(o).items() if callable(v)}
    with spans.Tracer().instrument():
        assert pipeline.fit_forest is not before[(pipeline, "fit_forest")]
    after = {(o, k): v for o in owners for k, v in vars(o).items() if callable(v)}
    assert after == before


def _bench(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main([str(a) for a in argv]) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec, e2e, layers = _declared()
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_units(VARIANTS)
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["cli-default", "ablation"])
def test_tiny_smoke_pass(workload):
    import workloads

    ops = workloads.WORKLOADS[workload].ops_per_round
    _, e2e, layers = _declared()
    # the second run compares its output files with the first one's
    for trace, names in ((0, e2e), (0, e2e), (1, layers)):
        out = _bench("--workload", workload, "--seed", 5, "--seconds", 0, "--size", "tiny", "--trace", trace)
        assert out["correct"] and out["failed"] == 0
        assert out["attempted"] == ops * (2 if trace else 1)  # traced runs add one untraced round
        assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    assert out["metrics"]["trace.spans"]["value"] > 0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The benchmark's workloads, driven only through mvelma's public calls.

Each workload has a set-up (inputs made from the seed), a round (the
operations that are timed; the same operations in every round) and a check
of the round's outputs against values recomputed in `checks`.

  cli-default   `mvelma train` at CLI defaults but 40 epochs on a
                500-event, 10-county CSV set, then `predict`, `evaluate`
                and `map` on its test split (4 operations).
  ablation      the seven pipeline.VARIANTS at the acceptance suite's
                criterion-7 config, early stop off, via
                pipeline.run_ablation on one in-memory 500-event set
                (7 operations).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict

import numpy as np

import checks as ck
from mvelma import cli, dataio, pipeline
from mvelma.encoder import EncoderConfig
from mvelma.forest import ForestConfig
from mvelma.optim import OptimizerConfig

# `mvelma train` flags of the tiny size the benchmark's own tests run
TINY_TRAIN_FLAGS = ("--epochs", 3, "--trees", 8, "--hidden", 6, "--latent", 4)


class Context:
    """Paths, the seed, the optional tracer, and the operation counts of one run."""

    def __init__(self, workload, root, work, seed, size):
        self.workload, self.root, self.work, self.seed, self.size = workload, root, work, seed, size
        self.tracer = None
        self.chk = ck.Checker()
        self.attempted = 0
        self.failed = 0
        self.round_failed = False
        self.test_r2 = None
        self.model_bytes = None
        self.ledger = os.path.join(os.path.dirname(work), "digests.json")
        self.source = _source_digest(os.path.join(root, "src", "mvelma"))

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op(self, name, fn, *args):
        """One counted operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            with self.span(name):
                return fn(*args)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            self.failed += 1
            self.round_failed = True
            print(f"bench: {name} failed: {exc!r}", file=sys.stderr)
            return None

    def cli(self, *argv):
        """`mvelma <argv>` in this process; returns its stdout."""

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([str(a) for a in argv])
            if code != 0:
                raise RuntimeError(f"mvelma {argv[0]} exited {code}")
            return buf.getvalue()

        return self.op(f"cli.{argv[0]}", call)

    def repeatable(self, name, path):
        key = (f"{self.source}/{self.workload}/{self.size}/seed{self.seed}/"
               f"blas{os.environ.get('OPENBLAS_NUM_THREADS', 'default')}/{name}")
        ck.check_repeatable(self.chk, self.ledger, key, path)


def _source_digest(package_dir):
    """Short digest of the program's sources: outputs are only compared
    between runs of the same code."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:12]


def _write_region(ctx, name, events, counties, seed):
    ds, _ = dataio.synth_generate(events, counties, seed)
    os.makedirs(ctx.path(name), exist_ok=True)
    dataio.write_dataset(ds, ctx.path(name))


def check_scored(ctx, what, data, preds, county_map, model_path, reports, r2_floor):
    """Checks of one predictions file, the county map made from it, and the
    model, trained on `data`, that wrote it."""
    chk = ctx.chk
    truth = ck.targets_by_id(os.path.join(data, "events.csv"))
    rows = ck.read_rows(preds)
    ids = [r["event_id"] for r in rows]
    col = {k: [float(r[k]) for r in rows] for k in ("y_true", "y_pred", "gp_mean", "gp_var", "confidence")}
    y_true = [truth[i][1] for i in ids]
    chk.check(all(ck.close(a, b, ck.FILE_TOL) for a, b in zip(col["y_true"], y_true)),
              f"{what}: y_true column differs from events.csv targets")
    recomputed = ck.metrics(col["y_pred"], y_true)
    for label, text in reports:
        ck.check_metrics(chk, f"{what} {label}", ck.parse_metrics_line(text or ""), recomputed, ck.FILE_TOL)
    ck.check_r2(chk, what, recomputed["r2"], r2_floor)
    ck.check_finite(chk, what, [v for vals in col.values() for v in vals])

    model = ck.load_json(model_path)
    ck.check_variance(chk, what, col["gp_var"], ck.prior_variance(model["gp"]["kernel"]), ck.FILE_TOL)
    ck.check_confidence(chk, what, col["gp_var"], col["confidence"])
    train_y = [truth[i][1] for i in model["train_event_ids"]]
    ck.check_in_range(chk, what, col["y_pred"], min(train_y), max(train_y), ck.FILE_TOL)
    ck.check_trace_ends_at_min(chk, what, model["loss_trace"])

    expected = ck.county_means(
        (truth[i][0], truth[i][1], p, c) for i, p, c in zip(ids, col["y_pred"], col["confidence"])
    )
    got = ck.read_rows(county_map)
    chk.check([r["county_id"] for r in got] == sorted(expected),
              f"{what}: county map rows are not the sorted set of scored counties")
    for r in got:
        want = expected.get(r["county_id"])
        have = (float(r["opfvl"]), float(r["ppvl"]), float(r["apc"]))
        chk.check(want is not None and all(abs(a - b) <= ck.FILE_TOL for a, b in zip(have, want)),
                  f"{what}: county {r['county_id']} means {have} != recomputed {want}")

    ctx.test_r2 = recomputed["r2"]
    ctx.model_bytes = os.path.getsize(model_path)
    ctx.repeatable("model.json", model_path)
    ctx.repeatable("predictions.csv", preds)
    ctx.repeatable("county_map.csv", county_map)


class CliDefault:
    name = "cli-default"
    ops_per_round = 4
    PROFILES = {
        # --epochs 40: see README, "Why 40 epochs"
        "full": dict(events=500, counties=10, flags=("--epochs", 40), r2_floor=ck.R2_FLOOR),
        "tiny": dict(events=40, counties=4, r2_floor=-np.inf,
                     flags=TINY_TRAIN_FLAGS),
    }

    def __init__(self, size):
        self.p = self.PROFILES[size]

    def setup(self, ctx):
        _write_region(ctx, "data", self.p["events"], self.p["counties"], ctx.seed)

    def round(self, ctx):
        data, model, preds, cmap = (ctx.path(n) for n in ("data", "model.json", "predictions.csv", "county_map.csv"))
        self.train_out = ctx.cli("train", "--data", data, "--model", model, *self.p["flags"])
        ctx.cli("predict", "--model", model, "--data", data, "--out", preds)
        self.eval_out = ctx.cli("evaluate", "--pred", preds, "--data", data)
        ctx.cli("map", "--pred", preds, "--data", data, "--out", cmap)

    def check(self, ctx):
        data = ctx.path("data")
        check_scored(ctx, self.name, data, ctx.path("predictions.csv"), ctx.path("county_map.csv"),
                     ctx.path("model.json"), [("train", self.train_out), ("evaluate", self.eval_out)],
                     self.p["r2_floor"])


def criterion7_config(hidden=12, latent=8, max_epochs=60, trees=100):
    """The acceptance suite's criterion-7 config (tests/test_acceptance.py,
    BENCHMARK), restated here so the benchmark imports nothing from tests.

    One change: patience is `max_epochs`, not 15, so the early stop never
    fires. At patience 15 the seven variants of seeds 2 and 3 ran 270 and
    290 epochs in all, against 362-366 without the early stop, and the round
    time followed the seed."""
    return pipeline.PipelineConfig(
        encoder=EncoderConfig(hidden=hidden, latent=latent, seed=0),
        gp_opt=OptimizerConfig(max_epochs=max_epochs, patience=max_epochs),
        forest=ForestConfig(n_trees=trees, min_samples_leaf=10, seed=0),
        gp_input="latent",
        rf_target="direct",
        oof_folds=5,
    )


@contextlib.contextmanager
def _capture(store):
    """Keep the model and prediction each run_ablation call makes; both
    are looked up as pipeline globals, so the wrappers sit there."""
    train, predict = pipeline.train_joint, pipeline.predict

    def train_joint(data, cfg=None):
        store["model"] = train(data, cfg)
        return store["model"]

    def pred(model, data):
        store["pred"] = predict(model, data)
        return store["pred"]

    pipeline.train_joint, pipeline.predict = train_joint, pred
    try:
        yield
    finally:
        pipeline.train_joint, pipeline.predict = train, predict


class Ablation:
    name = "ablation"
    ops_per_round = len(pipeline.VARIANTS)
    PROFILES = {
        "full": dict(events=500, counties=10, cfg=criterion7_config(), r2_floor=ck.R2_FLOOR),
        "tiny": dict(events=40, counties=4, r2_floor=-np.inf,
                     cfg=criterion7_config(hidden=4, latent=3, max_epochs=3, trees=5)),
    }

    def __init__(self, size):
        self.p = self.PROFILES[size]

    def setup(self, ctx):
        self.ds, _ = dataio.synth_generate(self.p["events"], self.p["counties"], ctx.seed)

    def _variant(self, variant):
        store = {}
        with _capture(store):
            metrics = pipeline.run_ablation(self.ds, variant, self.p["cfg"])
        return metrics, store["model"], store["pred"]

    def round(self, ctx):
        # drop the previous round's models before this round trains, so
        # they do not add to this round's memory peak
        self.outputs = None
        self.outputs = {v: ctx.op(f"pipeline.run_ablation.{v}", self._variant, v) for v in pipeline.VARIANTS}

    def check(self, ctx):
        chk = ctx.chk
        pos = {e.event_id: i for i, e in enumerate(self.ds.events)}
        targets = self.ds.targets
        for v, (metrics, model, pred) in self.outputs.items():
            what = f"{self.name} {v}"
            uses_encoder, uses_gp, uses_forest = pipeline.variant_components(v)
            y_test = [float(targets[pos[i]]) for i in model.test_event_ids]
            recomputed = ck.metrics([float(p) for p in pred.yhat], y_test)
            ck.check_metrics(chk, what, asdict(metrics), recomputed, 1e-9)
            ck.check_finite(chk, what, np.concatenate([pred.yhat, pred.gp_mean, pred.gp_variance, pred.confidence]))
            conf, var = pred.confidence.tolist(), pred.gp_variance.tolist()
            if uses_gp:
                prior = ck.prior_variance(asdict(model.gp_state.kernel))
                ck.check_variance(chk, what, var, prior, 0.0)
                ck.check_confidence(chk, what, var, conf)
            else:
                chk.check(all(c == 1.0 for c in conf), f"{what}: confidence is not exactly 1 without a GP")
            if uses_forest:
                train_y = [float(targets[pos[i]]) for i in model.train_event_ids]
                ck.check_in_range(chk, what, pred.yhat.tolist(), min(train_y), max(train_y), 1e-12)
            ck.check_trace_ends_at_min(chk, what, model.loss_trace)
            if v == "full":
                ck.check_r2(chk, what, recomputed["r2"], self.p["r2_floor"])
                ctx.test_r2 = recomputed["r2"]
        self._record_full(ctx)

    def _record_full(self, ctx):
        """Save the `full` model and its predictions; both must match, byte
        for byte, what an earlier run at the same settings wrote."""
        _, model, pred = self.outputs["full"]
        model_path, pred_path = ctx.path("full.json"), ctx.path("full-predictions.json")
        pipeline.save_model(model, model_path)
        with open(pred_path, "w", encoding="utf-8") as f:
            json.dump({k: getattr(pred, k).tolist() for k in ("yhat", "gp_mean", "gp_variance", "confidence")}, f)
        ctx.model_bytes = os.path.getsize(model_path)
        ctx.repeatable("full.json", model_path)
        ctx.repeatable("full-predictions.json", pred_path)


WORKLOADS = {w.name: w for w in (CliDefault, Ablation)}

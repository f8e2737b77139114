"""Command line front end for the full workflow.

Subcommands: synth (generate a synthetic dataset), train (fit the stacked
model and save it), predict (write predictions.csv for a saved model),
evaluate (score a predictions file against a dataset), ablate (train one
ablation variant and print its test metrics), map (aggregate predictions
to county summaries), check-grads (run the finite-difference suite).

Exit codes: 0 success, 1 validation error (bad files, schema or value
problems), 2 numerical failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import dataio, gradcheck, pipeline
from .encoder import EncoderConfig
from .errors import (
    Divergence,
    MvelmaError,
    NonFiniteInput,
    NotPositiveDefinite,
    SchemaError,
)
from .forest import ForestConfig
from .optim import OptimizerConfig

USAGE_EXIT = 64
NUMERICAL_ERRORS = (NotPositiveDefinite, Divergence, NonFiniteInput)
CLI_KERNELS = ("rbf", "matern25", "composite")
PREDICTION_COLUMNS = ["event_id", "y_true", "y_pred", "gp_mean", "gp_var", "confidence"]


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 64 with help text."""

    def error(self, message):
        self.print_help(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _echo(subcommand: str, pairs) -> None:
    body = " ".join(f"{k}={v}" for k, v in pairs)
    print(f"config: subcommand={subcommand} {body}")


def _quantize(values: np.ndarray) -> np.ndarray:
    """Round-trip through the 6-decimal fixed-point used by predictions.csv,
    so metrics printed here match metrics recomputed from the file exactly."""
    return np.array([float(f"{v:.6f}") for v in np.asarray(values, dtype=np.float64)])


def _metrics_line(m: pipeline.Metrics) -> str:
    return f"MAE={m.mae:.6f} R2={m.r2:.6f} MAPE={m.mape_pct:.6f}% NRMSE={m.nrmse:.6f}"


def _training_config(args) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(
        encoder=EncoderConfig(hidden=args.hidden, latent=args.latent, seed=args.seed),
        kernel_family=args.kernel,
        gp_opt=OptimizerConfig(learning_rate=args.lr, max_epochs=args.epochs),
        forest=ForestConfig(n_trees=args.trees, seed=args.seed),
        ablation=getattr(args, "variant", "full"),
        split_seed=args.seed,
    )


def _training_echo_pairs(args):
    return [
        ("data", args.data),
        ("kernel", args.kernel),
        ("epochs", args.epochs),
        ("lr", args.lr),
        ("trees", args.trees),
        ("seed", args.seed),
        ("hidden", args.hidden),
        ("latent", args.latent),
    ]


def _write_predictions(path, event_ids, y_true, pred: pipeline.Prediction) -> None:
    cells = dataio._csv_cells(set(event_ids))
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(PREDICTION_COLUMNS) + "\n")
        for i, eid in enumerate(event_ids):
            f.write(
                f"{cells[eid]},{y_true[i]:.6f},{pred.yhat[i]:.6f},{pred.gp_mean[i]:.6f},"
                f"{pred.gp_variance[i]:.6f},{pred.confidence[i]:.6f}\n"
            )


def _read_predictions(path):
    """Parse a predictions file into (event_ids, column arrays) preserving
    row order. Every value must be a finite number and every event id must
    appear once: a NaN would pass through every metric and county mean, and
    a repeated row would be counted twice."""
    table = dataio.read_table(path, PREDICTION_COLUMNS)
    if list(table) != PREDICTION_COLUMNS:
        raise SchemaError(f"{path}: expected columns {PREDICTION_COLUMNS}, got {list(table)}")
    ids = list(table["event_id"])
    if not ids:
        raise SchemaError(f"{path}: no prediction rows")
    cols = {c: dataio.float_column(table, c, path) for c in PREDICTION_COLUMNS[1:]}
    for c, values in cols.items():
        dataio.reject_rows(table, np.isnan(values),
                           lambda r, i: f"{path} row {r} column {c!r}: missing value")
    dataio.reject_rows(table, dataio.repeats(ids),
                       lambda r, i: f"{path} row {r}: duplicate row for event {ids[i]!r}")
    return ids, cols


def _load_dataset(data_dir) -> dataio.Dataset:
    """The validated dataset, after one `validation:` line per cleaning action."""
    ds, report = dataio.load_dataset(data_dir)
    for line in report.messages:
        print(f"validation: {line}")
    return ds


def _predictions_with_events(args):
    """The predictions file's columns and the dataset's events for its rows,
    in the file's row order."""
    ids, cols = _read_predictions(args.pred)
    return cols, pipeline.subset_by_ids(_load_dataset(args.data), ids, args.pred)


def _cmd_synth(args) -> int:
    _echo("synth", [
        ("events", args.events),
        ("counties", args.counties),
        ("seed", args.seed),
        ("out", args.out),
    ])
    ds, _ = dataio.synth_generate(args.events, args.counties, args.seed)
    dataio.write_dataset(ds, args.out)
    print(f"wrote {ds.n} events across {args.counties} counties to {args.out}")
    return 0


def _cmd_train(args) -> int:
    _echo("train", _training_echo_pairs(args) + [("model", args.model)])
    ds = _load_dataset(args.data)
    model = pipeline.train_joint(ds, _training_config(args))
    test = pipeline.subset_by_ids(ds, model.test_event_ids, "model test split")
    pred = pipeline.predict(model, test)
    metrics = pipeline.evaluate(_quantize(pred.yhat), test.targets)
    pipeline.save_model(model, args.model)
    print(f"trained on {len(model.train_event_ids)} events, "
          f"tested on {len(model.test_event_ids)}")
    print(_metrics_line(metrics))
    print(f"saved model to {args.model}")
    return 0


def _cmd_predict(args) -> int:
    _echo("predict", [
        ("model", args.model),
        ("data", args.data),
        ("split", args.split),
        ("out", args.out),
    ])
    model = pipeline.load_model(args.model)
    ds = _load_dataset(args.data)
    if args.split == "all":
        subset = ds
    else:
        wanted = model.test_event_ids if args.split == "test" else model.train_event_ids
        subset = pipeline.subset_by_ids(ds, wanted, f"model {args.split} split")
    pred = pipeline.predict(model, subset)
    _write_predictions(args.out, pred.event_ids, subset.targets, pred)
    print(f"wrote {subset.n} predictions to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    _echo("evaluate", [("pred", args.pred), ("data", args.data)])
    cols, matched = _predictions_with_events(args)
    metrics = pipeline.evaluate(cols["y_pred"], matched.targets)
    print(_metrics_line(metrics))
    return 0


def _cmd_ablate(args) -> int:
    _echo("ablate", [("variant", args.variant)] + _training_echo_pairs(args))
    ds = _load_dataset(args.data)
    metrics = pipeline.run_ablation(ds, args.variant, _training_config(args))
    print(f"variant={args.variant} {_metrics_line(metrics)}")
    return 0


def _cmd_map(args) -> int:
    _echo("map", [("pred", args.pred), ("data", args.data), ("out", args.out)])
    cols, matched = _predictions_with_events(args)
    summaries = pipeline.aggregate_county(
        matched.events, matched.targets, cols["y_pred"], cols["confidence"]
    )
    dataio.export_county_map(summaries, args.out)
    print(f"wrote {len(summaries)} county rows to {args.out}")
    return 0


def _cmd_check_grads(args) -> int:
    _echo("check-grads", [("seeds", args.seeds), ("tolerance", gradcheck.TOLERANCE)])
    cases = gradcheck.run_all(args.seeds)
    for c in cases:
        status = "ok" if c.passed else "FAIL"
        print(f"{c.name}: max_rel_error={c.max_rel_error:.3e} coords={c.n_coords} {status}")
    n_pass = sum(c.passed for c in cases)
    worst = max(cases, key=lambda c: c.max_rel_error)
    print(f"{n_pass}/{len(cases)} gradient checks passed; "
          f"worst {worst.name} at {worst.max_rel_error:.3e}")
    if n_pass != len(cases):
        print("gradient check failed", file=sys.stderr)
        return 2
    return 0


def _add_training_flags(p) -> None:
    p.add_argument("--kernel", choices=CLI_KERNELS, default="matern25")
    p.add_argument("--epochs", type=int, default=80)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--trees", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--latent", type=int, default=20)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mvelma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--counties", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train the stacked model and save it")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    _add_training_flags(p)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="write predictions.csv for a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("test", "train", "all"), default="test")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions file against a dataset")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("ablate", help="train one ablation variant and print metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", choices=pipeline.VARIANTS, default="full")
    _add_training_flags(p)
    p.set_defaults(handler=_cmd_ablate)

    p = sub.add_parser("map", help="aggregate predictions into county summaries")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("check-grads", help="run the finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=12)
    p.set_defaults(handler=_cmd_check_grads)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.error("a subcommand is required")
    try:
        return args.handler(args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MvelmaError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

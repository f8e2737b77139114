"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload cli-default --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; mvelma is imported from its `src/`.
The run makes its inputs from --seed, sets up SETUP_REPEATS times (the
median is `setup_s`), then runs whole rounds of the workload's operations
until --seconds of rounds have passed, at least one, checking each round's
outputs. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, measured without tracing.
--trace 1 reports the per-layer metrics instead: set-up runs once and the
rounds run under `spans.Tracer`, followed by one untraced round that gives
the tracing overhead. The spans go to .bench_traces/<workload>-seed<seed>.json.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller sets a count. On a machine of few shared
# cores a second OpenBLAS thread spins between calls and makes wall times
# follow the neighbours' load. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

from spans import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 9

END_TO_END = {  # name -> unit
    "run_s": "s",
    "setup_s": "s",
    "test_r2": "1",
    "peak_mem_mb": "MB",
    "model_mb": "MB",
}


def per_layer_units(variants):
    """Every per-layer metric name -> unit."""
    units = {
        "encoder.forward.s": "s", "encoder.forward.calls": "count",
        "encoder.forward.rows": "count", "encoder.backward.s": "s",
        "gp.nmll_node.s": "s", "gp.nmll_node.calls": "count", "gp.fit.s": "s",
        "gp.refresh.s": "s", "gp.refresh.calls": "count",
        "gp.posterior.s": "s", "gp.posterior.calls": "count", "gp.posterior.rows": "count",
        "numcore.backward.s": "s", "numcore.backward.calls": "count",
        "numcore.tape_nodes": "count", "numcore.cholesky.s": "s",
        "numcore.cholesky.calls": "count", "numcore.cholesky.jittered": "count",
        "numcore.solve_spd.s": "s", "numcore.solve_spd.calls": "count",
        "forest.fit.s": "s", "forest.fit.trees": "count", "forest.fit.nodes": "count",
        "forest.predict.s": "s", "forest.predict.tree_rows_per_s": "1/s",
        "dataio.load_dataset.s": "s", "dataio.load_dataset.calls": "count",
        "dataio.load_dataset.rows_per_s": "1/s", "dataio.synth_generate.s": "s",
        "dataio.write_dataset.s": "s",
        "pipeline.train_joint.s": "s",
        **{f"pipeline.train_joint.{v}.s": "s" for v in variants},
        "pipeline.predict.s": "s", "pipeline.save_model.s": "s", "pipeline.load_model.s": "s",
        "optim.adam.steps": "count",
        "cli.train.s": "s", "cli.predict.s": "s", "cli.evaluate.s": "s", "cli.map.s": "s",
    }
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.round_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


def layer_values(tracer, variants):
    total, calls = tracer.span_totals()
    counts = tracer.counts

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    v = {}
    for name in ("encoder.forward", "gp.nmll_node", "gp.refresh", "gp.posterior",
                 "numcore.backward", "numcore.cholesky", "numcore.solve_spd", "dataio.load_dataset"):
        v[f"{name}.s"] = total[name]
        v[f"{name}.calls"] = calls[name]
    for name in ("encoder.backward", "gp.fit", "forest.fit", "forest.predict",
                 "dataio.synth_generate", "dataio.write_dataset", "pipeline.predict",
                 "pipeline.save_model", "pipeline.load_model",
                 "cli.train", "cli.predict", "cli.evaluate", "cli.map"):
        v[f"{name}.s"] = total[name]
    for name in ("encoder.forward.rows", "gp.posterior.rows", "numcore.tape_nodes",
                 "numcore.cholesky.jittered", "forest.fit.trees", "forest.fit.nodes",
                 "optim.adam.steps"):
        v[name] = counts[name]
    for variant in variants:
        v[f"pipeline.train_joint.{variant}.s"] = total[f"pipeline.train_joint.{variant}"]
    v["pipeline.train_joint.s"] = sum(v[f"pipeline.train_joint.{x}.s"] for x in variants)
    v["forest.predict.tree_rows_per_s"] = rate(counts["forest.predict.tree_rows"], total["forest.predict"])
    v["dataio.load_dataset.rows_per_s"] = rate(counts["dataio.load_dataset.rows"], total["dataio.load_dataset"])
    for layer, seconds in tracer.self_times().items():
        v[f"{layer}.self_s"] = seconds
    return v


def fingerprint():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input and model for the benchmark's own tests")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path and import mvelma from it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mvelma", "__init__.py")):
        raise SystemExit(f"bench: no mvelma package under {src}")
    sys.path[:0] = [src, HERE]
    import mvelma

    if not os.path.abspath(mvelma.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: imported mvelma from {mvelma.__file__}, not from {src}")


def timed(fn, *args):
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def run(args):
    import workloads

    from mvelma.pipeline import VARIANTS

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload](args.size)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.size}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer() if args.trace else None
    ctx = workloads.Context(args.workload, ROOT, work, args.seed, args.size)

    def one_round(traced):
        ctx.tracer = tracer if traced else None
        ctx.round_failed = False
        # the previous round's training tapes are reference cycles; free them
        # here, untimed, so every round starts from the heap a fresh process has
        gc.collect()
        if traced:
            with tracer.instrument(), tracer.span("bench.round"):
                seconds = timed(w.round, ctx)
        else:
            seconds = timed(w.round, ctx)
        if not ctx.round_failed:
            w.check(ctx)
        return seconds

    try:
        if tracer:
            with tracer.instrument(), tracer.span("bench.setup"):
                w.setup(ctx)
        else:
            setup_s = statistics.median(timed(w.setup, ctx) for _ in range(SETUP_REPEATS))
        rounds = []
        while not rounds or sum(rounds) < args.seconds:
            rounds.append(one_round(bool(tracer)))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            # after the traced rounds, so that those start from the same
            # state as an untraced run's rounds; this one runs warm, which
            # makes the overhead below an upper bound up to noise
            untraced = one_round(False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in ctx.chk.failures:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    fp = fingerprint()
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if tracer:
        units = per_layer_units(VARIANTS)
        values = layer_values(tracer, VARIANTS)
        values["trace.round_s"] = statistics.median(rounds)
        values["trace.overhead_s"] = values["trace.round_s"] - untraced
        values["trace.spans"] = len(tracer.spans)
        doc = tracer.document({"workload": args.workload, "seed": args.seed, "size": args.size,
                               "fingerprint": fp, "untraced_round_s": untraced, "rounds_s": rounds})
        out_dir = os.path.join(ROOT, ".bench_traces")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json"), "w") as f:
            json.dump(doc, f)
    else:
        units = END_TO_END
        values = {
            "run_s": statistics.median(rounds),
            "setup_s": setup_s,
            "test_r2": ctx.test_r2 or 0.0,
            "peak_mem_mb": peak_mb,
            "model_mb": (ctx.model_bytes or 0) / 1e6,
        }
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    return {"correct": ctx.chk.ok, "attempted": ctx.attempted, "failed": ctx.failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    # a terminated run unwinds like an error: the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

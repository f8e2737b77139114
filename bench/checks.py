"""Checks on the program's outputs, recomputed apart from the program.

Metrics and county means are recomputed here in plain Python from the CSV
files the program wrote and read; nothing in this module imports mvelma.
A `Checker` collects failed checks instead of raising, so one run reports
every problem it finds.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os

# Analytic skill ceiling of the synthetic generator: the target noise sd is
# 20% of the signal sd, so explainable variance tops out at 1 / (1 + 0.2^2).
R2_CEILING = 1.0 / (1.0 + 0.2**2)
R2_FLOOR = 0.5

# Values in predictions.csv and county_map.csv are written with 6 decimals.
FILE_TOL = 1e-6


class Checker:
    def __init__(self):
        self.failures = []

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return bool(ok)

    @property
    def ok(self):
        return not self.failures


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def targets_by_id(events_csv):
    """event id -> (county id, target) from a dataset's events.csv."""
    return {
        r["event_id"]: (r["county_id"], float(r["target"])) for r in read_rows(events_csv)
    }


def metrics(pred, truth):
    """MAE, R^2, MAPE (%, zero truths left out) and NRMSE (RMSE over the
    population sd of the truth)."""
    n = len(truth)
    if n == 0 or len(pred) != n:
        raise ValueError(f"{len(pred)} predictions vs {n} truths")
    err = [p - y for p, y in zip(pred, truth)]
    mean_y = math.fsum(truth) / n
    sse = math.fsum(e * e for e in err)
    sst = math.fsum((y - mean_y) ** 2 for y in truth)
    ape = [abs(e / y) for e, y in zip(err, truth) if y != 0.0]
    return {
        "mae": math.fsum(abs(e) for e in err) / n,
        "r2": 1.0 - sse / sst,
        "mape_pct": 100.0 * math.fsum(ape) / len(ape),
        "nrmse": math.sqrt(sse / n) / math.sqrt(sst / n),
    }


def parse_metrics_line(text):
    """The `MAE=.. R2=.. MAPE=..% NRMSE=..` line of train/evaluate output."""
    for line in text.splitlines():
        if line.startswith("MAE="):
            f = dict(part.split("=", 1) for part in line.split())
            return {
                "mae": float(f["MAE"]),
                "r2": float(f["R2"]),
                "mape_pct": float(f["MAPE"].rstrip("%")),
                "nrmse": float(f["NRMSE"]),
            }
    return None


def county_means(rows):
    """county id -> (mean observed, mean predicted, mean confidence) from
    (county, observed, predicted, confidence) tuples."""
    groups = {}
    for county, obs, pred, conf in rows:
        groups.setdefault(county, []).append((obs, pred, conf))
    return {
        c: tuple(math.fsum(v[j] for v in vals) / len(vals) for j in range(3))
        for c, vals in groups.items()
    }


def prior_variance(kernel):
    """k(x, x) from a saved kernel: outputscale, twice that for the
    composite, whose two unit kernels are both 1 at distance 0."""
    scale = math.exp(kernel["log_outputscale"])
    return 2.0 * scale if kernel["family"] == "composite" else scale


def close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_metrics(chk, what, reported, recomputed, tol):
    if not chk.check(reported is not None, f"{what}: no metrics line"):
        return
    for key, value in recomputed.items():
        chk.check(close(reported[key], value, tol),
                  f"{what}: {key} {reported[key]!r} != recomputed {value!r}")


def check_r2(chk, what, r2, floor=R2_FLOOR):
    chk.check(floor < r2 <= R2_CEILING,
              f"{what}: R2 {r2:.6f} outside ({floor}, {R2_CEILING:.6f}]")


def check_finite(chk, what, values):
    chk.check(all(math.isfinite(v) for v in values), f"{what}: non-finite value")


def check_variance(chk, what, gp_var, prior, tol):
    chk.check(all(-tol <= v <= prior + tol for v in gp_var),
              f"{what}: gp_var outside [0, prior variance {prior!r}]")


def check_confidence(chk, what, gp_var, confidence):
    """confidence in [0, 1] and non-increasing in gp_var. Rounding to a
    fixed number of decimals keeps order, so rows whose variances differ
    must keep the order of their confidences exactly."""
    chk.check(all(0.0 <= c <= 1.0 for c in confidence), f"{what}: confidence outside [0, 1]")
    seen_min = math.inf
    for var, group in itertools.groupby(sorted(zip(gp_var, confidence)), key=lambda p: p[0]):
        confs = [c for _, c in group]
        if max(confs) > seen_min:
            chk.check(False, f"{what}: confidence rises with gp_var at {var!r}")
            return
        seen_min = min(seen_min, min(confs))


def check_in_range(chk, what, values, lo, hi, tol):
    chk.check(all(lo - tol <= v <= hi + tol for v in values),
              f"{what}: prediction outside the train-target range [{lo!r}, {hi!r}]")


def check_trace_ends_at_min(chk, what, trace):
    if trace:
        chk.check(trace[-1] == min(trace), f"{what}: loss trace does not end at its minimum")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_repeatable(chk, ledger_path, key, path):
    """Compare a file's digest with the one an earlier round or run wrote
    under the same key (same workload, size, seed and thread setting)."""
    ledger = load_json(ledger_path) if os.path.exists(ledger_path) else {}
    digest = file_digest(path)
    known = ledger.setdefault(key, digest)
    chk.check(known == digest, f"{key}: bytes differ from an earlier run at the same settings")
    with open(ledger_path, "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)

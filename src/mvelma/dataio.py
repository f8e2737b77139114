"""Dataset schemas, validation and imputation, NDVI-loss target
construction, synthetic data generation, and county map export.

File boundary: four comma-separated files. `events.csv` carries event
metadata (plus an optional `target` column used when no `ndvi.csv` is
present), `weather.csv` carries 30 pre-fire daily rows per event,
`enriched.csv` the static site descriptors, and optional `ndvi.csv` dated
NDVI samples from which targets are built. Floats are written with repr()
so a write/read cycle is bit-exact.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, EmptyWindow, SchemaError

WEATHER_COLUMNS = [
    "tavg_c", "precip_mm", "rh_min_pct", "rh_max_pct", "srad_wm2",
    "tmin_c", "tmax_c", "vpd_kpa", "wind_ms",
]
LC_COLUMNS = [f"LC_{i:02d}" for i in range(17)]
ENRICHED_FILE_COLUMNS = [
    "ndvi_7d_slope", "ndvi_7d_std", "ndvi_14d_slope", "ndvi_14d_std",
    "ndvi_before_slope", "ndvi_before_std", "elevation",
] + LC_COLUMNS
TEMPORAL_COLUMNS = ["fire_duration_days", "fire_month", "fire_dayofyear"]
# model-order feature names for the N x 27 enriched matrix
ENRICHED_COLUMNS = TEMPORAL_COLUMNS + ENRICHED_FILE_COLUMNS
ELEVATION_INDEX = ENRICHED_COLUMNS.index("elevation")
LC_INDICES = [ENRICHED_COLUMNS.index(c) for c in LC_COLUMNS]

SEQ_LEN = 30
N_CHANNELS = len(WEATHER_COLUMNS)
BEFORE_WINDOW = (-30, -1)  # day offsets, inclusive
AFTER_WINDOW = (0, 30)


@dataclass
class FireEvent:
    event_id: str
    county_id: str
    latitude: float
    longitude: float
    start_date: dt.date
    fire_duration_days: float
    detection_confidence: float | None = None
    target: float | None = None

    @property
    def fire_month(self) -> int:
        return self.start_date.month

    @property
    def fire_dayofyear(self) -> int:
        return self.start_date.timetuple().tm_yday


@dataclass
class NdviSeries:
    event_id: str
    start_date: dt.date
    samples: list  # (date, value) pairs, values in [-1, 1]


@dataclass
class Dataset:
    events: list
    weather: np.ndarray  # N x 30 x 9
    enriched: np.ndarray  # N x 27, ENRICHED_COLUMNS order
    targets: np.ndarray  # N

    @property
    def n(self) -> int:
        return len(self.events)

    def subset(self, positions) -> "Dataset":
        positions = list(positions)
        return Dataset(
            events=[self.events[i] for i in positions],
            weather=self.weather[positions],
            enriched=self.enriched[positions],
            targets=self.targets[positions],
        )


# ---------------------------------------------------------------------------
# Target construction
# ---------------------------------------------------------------------------


def build_target(series: NdviSeries) -> float:
    """Mean NDVI over the 30 days before the fire minus the minimum NDVI in
    the 30 days after it; negative values (vegetation gain) are kept."""
    before, after = [], []
    for date, value in series.samples:
        off = (date - series.start_date).days
        if BEFORE_WINDOW[0] <= off <= BEFORE_WINDOW[1]:
            before.append(value)
        elif AFTER_WINDOW[0] <= off <= AFTER_WINDOW[1]:
            after.append(value)
    if not before:
        raise EmptyWindow(f"event {series.event_id}: no NDVI samples in the pre-fire window")
    if not after:
        raise EmptyWindow(f"event {series.event_id}: no NDVI samples in the post-fire window")
    return float(np.mean(before) - np.min(after))


# ---------------------------------------------------------------------------
# CSV readers / writers
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return repr(float(v))


def _parse_float(text, path, row_no, col):
    text = text.strip()
    if text == "" or text.lower() == "nan":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise SchemaError(f"{path} row {row_no} column {col!r}: not a number: {text!r}") from None


def _parse_date(text, path, row_no, col):
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise SchemaError(f"{path} row {row_no} column {col!r}: not an ISO date: {text!r}") from None


def _open_reader(path, required_cols):
    f = open(path, newline="", encoding="utf-8")
    reader = csv.DictReader(f)
    missing = [c for c in required_cols if c not in (reader.fieldnames or [])]
    if missing:
        f.close()
        raise SchemaError(f"{path}: missing column(s) {missing}")
    return f, reader


def read_events(path) -> list:
    req = ["event_id", "county_id", "latitude", "longitude", "start_date", "fire_duration_days"]
    f, reader = _open_reader(path, req)
    has_conf = "detection_confidence" in reader.fieldnames
    has_target = "target" in reader.fieldnames
    events = []
    with f:
        for row_no, row in enumerate(reader, start=2):
            ev = FireEvent(
                event_id=row["event_id"].strip(),
                county_id=row["county_id"].strip(),
                latitude=_parse_float(row["latitude"], path, row_no, "latitude"),
                longitude=_parse_float(row["longitude"], path, row_no, "longitude"),
                start_date=_parse_date(row["start_date"], path, row_no, "start_date"),
                fire_duration_days=_parse_float(
                    row["fire_duration_days"], path, row_no, "fire_duration_days"
                ),
            )
            if ev.fire_duration_days < 0:
                raise SchemaError(f"{path} row {row_no}: negative fire_duration_days")
            if has_conf:
                ev.detection_confidence = _parse_float(
                    row["detection_confidence"], path, row_no, "detection_confidence"
                )
            if has_target:
                ev.target = _parse_float(row["target"], path, row_no, "target")
            events.append(ev)
    if not events:
        raise SchemaError(f"{path}: no event rows")
    ids = [e.event_id for e in events]
    if len(set(ids)) != len(ids):
        raise SchemaError(f"{path}: duplicate event_id values")
    return events


def read_weather(path) -> dict:
    """event_id -> 30 x 9 array (day offsets -30..-1), NaN where missing."""
    req = ["event_id", "day_offset"] + WEATHER_COLUMNS
    f, reader = _open_reader(path, req)
    out: dict = {}
    with f:
        for row_no, row in enumerate(reader, start=2):
            eid = row["event_id"].strip()
            off = _parse_float(row["day_offset"], path, row_no, "day_offset")
            if not off.is_integer() or not (-SEQ_LEN <= off <= -1):
                raise SchemaError(
                    f"{path} row {row_no}: day_offset must be an integer in [-30, -1], got {row['day_offset']}"
                )
            t = int(off) + SEQ_LEN  # -30 -> row 0 ... -1 -> row 29
            mat = out.setdefault(eid, np.full((SEQ_LEN, N_CHANNELS), np.nan))
            if not np.all(np.isnan(mat[t])):
                raise SchemaError(f"{path} row {row_no}: duplicate day_offset {int(off)} for event {eid}")
            for j, col in enumerate(WEATHER_COLUMNS):
                mat[t, j] = _parse_float(row[col], path, row_no, col)
    return out


def read_enriched(path) -> dict:
    """event_id -> length-24 array in ENRICHED_FILE_COLUMNS order, NaN where missing."""
    req = ["event_id"] + ENRICHED_FILE_COLUMNS
    f, reader = _open_reader(path, req)
    out: dict = {}
    with f:
        for row_no, row in enumerate(reader, start=2):
            eid = row["event_id"].strip()
            if eid in out:
                raise SchemaError(f"{path} row {row_no}: duplicate enriched row for event {eid}")
            out[eid] = np.array(
                [_parse_float(row[c], path, row_no, c) for c in ENRICHED_FILE_COLUMNS]
            )
    return out


def read_ndvi(path) -> dict:
    """event_id -> list of (date, value) samples."""
    f, reader = _open_reader(path, ["event_id", "date", "ndvi"])
    out: dict = {}
    with f:
        for row_no, row in enumerate(reader, start=2):
            value = _parse_float(row["ndvi"], path, row_no, "ndvi")
            if not -1.0 <= value <= 1.0:
                raise SchemaError(f"{path} row {row_no}: ndvi outside [-1, 1]: {value}")
            out.setdefault(row["event_id"].strip(), []).append(
                (_parse_date(row["date"], path, row_no, "date"), value)
            )
    return out


def write_events(events, path, targets=None) -> None:
    has_conf = any(e.detection_confidence is not None for e in events)
    cols = ["event_id", "county_id", "latitude", "longitude", "start_date", "fire_duration_days"]
    if has_conf:
        cols.append("detection_confidence")
    if targets is not None:
        cols.append("target")
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(cols)
        for i, ev in enumerate(events):
            row = [
                ev.event_id, ev.county_id, _fmt(ev.latitude), _fmt(ev.longitude),
                ev.start_date.isoformat(), _fmt(ev.fire_duration_days),
            ]
            if has_conf:
                row.append("" if ev.detection_confidence is None else _fmt(ev.detection_confidence))
            if targets is not None:
                row.append(_fmt(targets[i]))
            w.writerow(row)


def write_weather(weather_by_event, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["event_id", "day_offset"] + WEATHER_COLUMNS)
        for eid, mat in weather_by_event.items():
            for t in range(SEQ_LEN):
                w.writerow([eid, t - SEQ_LEN] + [_fmt(v) for v in mat[t]])


def write_enriched(enriched_by_event, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["event_id"] + ENRICHED_FILE_COLUMNS)
        for eid, vec in enriched_by_event.items():
            w.writerow([eid] + [_fmt(v) for v in vec])


def write_dataset(ds: Dataset, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_events(ds.events, os.path.join(out_dir, "events.csv"), targets=ds.targets)
    write_weather(
        {ev.event_id: ds.weather[i] for i, ev in enumerate(ds.events)},
        os.path.join(out_dir, "weather.csv"),
    )
    write_enriched(
        {ev.event_id: ds.enriched[i, len(TEMPORAL_COLUMNS):] for i, ev in enumerate(ds.events)},
        os.path.join(out_dir, "enriched.csv"),
    )


# ---------------------------------------------------------------------------
# Validation and imputation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    events_in: int = 0
    events_out: int = 0
    filtered_low_confidence: list = field(default_factory=list)
    dropped_missing_variable: list = field(default_factory=list)  # (event_id, column)
    weather_fills: list = field(default_factory=list)  # (event_id, column, count, value)
    elevation_fills: list = field(default_factory=list)  # event_id
    lc_zero_fills: list = field(default_factory=list)  # (event_id, count)
    messages: list = field(default_factory=list)

    def log(self, msg: str) -> None:
        self.messages.append(msg)

    def summary(self) -> str:
        return (
            f"{self.events_in} events in, {self.events_out} kept; "
            f"{len(self.filtered_low_confidence)} below detection confidence, "
            f"{len(self.dropped_missing_variable)} dropped for a fully missing weather variable, "
            f"{len(self.weather_fills)} weather gap fills, "
            f"{len(self.elevation_fills)} elevation fills, "
            f"{len(self.lc_zero_fills)} land-cover zero fills"
        )


def _check_weather_ranges(eid, mat):
    """Range rules on values that are actually present (NaN-safe)."""
    with np.errstate(invalid="ignore"):
        rh = mat[:, [2, 3]]
        if np.any((rh < 0) | (rh > 100)):
            raise SchemaError(f"event {eid}: humidity outside [0, 100]")
        if np.any(mat[:, 1] < 0):
            raise SchemaError(f"event {eid}: negative precipitation")
        if np.any(mat[:, 8] < 0):
            raise SchemaError(f"event {eid}: negative wind speed")
        if np.any(mat[:, 5] > mat[:, 6]):
            raise SchemaError(f"event {eid}: min temperature above max temperature")


def validate_and_impute(events, weather_raw, enriched_raw, ndvi_raw=None):
    """Apply the cleaning rules and assemble an aligned Dataset.

    Rules, in order: drop events below detection confidence 60 (only when
    the column is present); fill partial weather gaps with the event's
    per-variable mean over available days; drop events with a fully missing
    weather variable; fill missing elevation with the global mean of the
    present ones; zero-fill missing land-cover fractions. Targets come from
    the NDVI series when given, else from the events' target column.
    Returns (Dataset, ValidationReport); the report lists every action.
    """
    report = ValidationReport(events_in=len(events))

    kept = []
    for ev in events:
        conf = ev.detection_confidence
        if conf is not None and not math.isnan(conf) and conf < 60.0:
            report.filtered_low_confidence.append(ev.event_id)
            report.log(f"filtered event {ev.event_id}: detection confidence {conf:g} < 60")
            continue
        kept.append(ev)

    rows_w, rows_e, final_events = [], [], []
    for ev in kept:
        eid = ev.event_id
        if eid not in weather_raw:
            raise SchemaError(f"weather.csv: no rows for event {eid}")
        if eid not in enriched_raw:
            raise SchemaError(f"enriched.csv: no row for event {eid}")
        mat = np.array(weather_raw[eid], dtype=np.float64)
        if mat.shape != (SEQ_LEN, N_CHANNELS):
            raise SchemaError(f"event {eid}: weather block is {mat.shape}, expected (30, 9)")
        _check_weather_ranges(eid, mat)

        dropped = False
        for j, col in enumerate(WEATHER_COLUMNS):
            col_vals = mat[:, j]
            missing = np.isnan(col_vals)
            if missing.all():
                report.dropped_missing_variable.append((eid, col))
                report.log(f"dropped event {eid}: weather variable {col} fully missing")
                dropped = True
                break
            if missing.any():
                fill = float(col_vals[~missing].mean())
                mat[missing, j] = fill
                report.weather_fills.append((eid, col, int(missing.sum()), fill))
                report.log(
                    f"event {eid}: filled {int(missing.sum())} missing {col} values with {fill!r}"
                )
        if dropped:
            continue
        rows_w.append(mat)
        rows_e.append(np.array(enriched_raw[eid], dtype=np.float64))
        final_events.append(ev)

    if not final_events:
        raise DegenerateInput("no events survived validation")

    enr = np.stack(rows_e)
    elev_col = ENRICHED_FILE_COLUMNS.index("elevation")
    lc_cols = [ENRICHED_FILE_COLUMNS.index(c) for c in LC_COLUMNS]

    elev = enr[:, elev_col]
    have = ~np.isnan(elev)
    if not have.all():
        global_mean = float(elev[have].mean()) if have.any() else 0.0
        for i in np.flatnonzero(~have):
            report.elevation_fills.append(final_events[i].event_id)
            report.log(
                f"event {final_events[i].event_id}: filled missing elevation with {global_mean!r}"
            )
        enr[~have, elev_col] = global_mean

    lc = enr[:, lc_cols]
    lc_missing = np.isnan(lc)
    if lc_missing.any():
        for i in np.flatnonzero(lc_missing.any(axis=1)):
            n_miss = int(lc_missing[i].sum())
            report.lc_zero_fills.append((final_events[i].event_id, n_miss))
            report.log(
                f"event {final_events[i].event_id}: zero-filled {n_miss} missing land-cover fractions"
            )
        lc[lc_missing] = 0.0
        enr[:, lc_cols] = lc

    with np.errstate(invalid="ignore"):
        if np.any((lc < 0) | (lc > 1)):
            raise SchemaError("land-cover fraction outside [0, 1]")
        if np.any(lc.sum(axis=1) > 1.0 + 1e-6):
            raise SchemaError("land-cover fractions sum above 1")
    other = np.isnan(enr)
    if other.any():
        i, j = np.argwhere(other)[0]
        raise SchemaError(
            f"event {final_events[i].event_id}: missing value in enriched column "
            f"{ENRICHED_FILE_COLUMNS[j]!r} (no imputation rule)"
        )

    targets = np.empty(len(final_events))
    for i, ev in enumerate(final_events):
        if ndvi_raw is not None:
            if ev.event_id not in ndvi_raw:
                raise SchemaError(f"ndvi.csv: no samples for event {ev.event_id}")
            targets[i] = build_target(
                NdviSeries(ev.event_id, ev.start_date, ndvi_raw[ev.event_id])
            )
        else:
            if ev.target is None or math.isnan(ev.target):
                raise SchemaError(
                    f"event {ev.event_id}: no target column value and no ndvi.csv provided"
                )
            targets[i] = ev.target

    temporal = np.array(
        [[ev.fire_duration_days, float(ev.fire_month), float(ev.fire_dayofyear)]
         for ev in final_events]
    )
    ds = Dataset(
        events=final_events,
        weather=np.stack(rows_w),
        enriched=np.hstack([temporal, enr]),
        targets=targets,
    )
    report.events_out = ds.n
    return ds, report


def load_dataset(data_dir):
    """Read the CSV file set from a directory and validate it."""
    events = read_events(os.path.join(data_dir, "events.csv"))
    weather = read_weather(os.path.join(data_dir, "weather.csv"))
    enriched = read_enriched(os.path.join(data_dir, "enriched.csv"))
    ndvi_path = os.path.join(data_dir, "ndvi.csv")
    ndvi = read_ndvi(ndvi_path) if os.path.exists(ndvi_path) else None
    return validate_and_impute(events, weather, enriched, ndvi)


def split_dataset(ds: Dataset, train_fraction: float, seed: int):
    """Seeded shuffle split into (train, test) by event."""
    if not 0.0 < train_fraction < 1.0:
        raise DegenerateInput(f"train_fraction must be in (0, 1), got {train_fraction}")
    order = np.random.default_rng(seed).permutation(ds.n)
    n_train = int(round(train_fraction * ds.n))
    n_train = min(max(n_train, 1), ds.n - 1)
    return ds.subset(order[:n_train]), ds.subset(order[n_train:])


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass
class SynthTruth:
    """Noise-free ground truth for the synthetic generator."""

    noise_free: np.ndarray  # g + 0.1 h per event
    static_part: np.ndarray  # g
    temporal_part: np.ndarray  # h (unscaled)
    noise_sd: float
    seed: int


def _ar1(rng, n, phi=0.7, sd=1.0):
    x = np.empty(n)
    x[0] = rng.normal(0.0, sd / math.sqrt(1.0 - phi * phi))
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.normal(0.0, sd)
    return x


def _static_signal(mean_tavg, mean_precip, mean_vpd, elevation, forest_frac, phase):
    """The documented g: a smooth bounded function of the event's mean
    weather, county elevation and forest cover, and seasonal phase."""
    return (
        0.18
        + 0.10 * math.tanh((mean_tavg - 15.0) / 6.0)
        + 0.06 * math.tanh((mean_vpd - 1.2) / 0.8)
        - 0.05 * math.tanh((mean_precip - 1.5) / 1.0)
        + 0.04 * (elevation / 2500.0)
        + 0.08 * (forest_frac - 0.3)
        + 0.03 * math.sin(phase)
    )


def _temporal_signal(tavg_series):
    """The documented h: the late-window warming trend, mean of the last 7
    days minus mean of the first 23, squashed to (-1, 1)."""
    return math.tanh((tavg_series[23:].mean() - tavg_series[:23].mean()) / 4.0)


NOISE_FRACTION = 0.2  # target noise sd as a fraction of signal sd
TEMPORAL_WEIGHT = 0.1


def synth_generate(n_events: int, n_counties: int, seed: int,
                   noise_fraction: float = NOISE_FRACTION):
    """Generate a synthetic Dataset with known ground truth.

    Per county: elevation ~ U(50, 2500) and a Dirichlet(0.5) land-cover
    simplex. Per event: 9 AR(1) weather channels with a seasonal sinusoid,
    clipped to their physical ranges. The target is
    y = g + 0.1*h + eps, where g (_static_signal) depends on mean weather,
    elevation, land cover, and seasonal phase; h (_temporal_signal) is the
    late-window temperature trend; and eps is Gaussian with sd equal to
    noise_fraction (default 20%) of the signal's std.
    Returns (Dataset, SynthTruth).
    """
    if n_events < 10:
        raise DegenerateInput("synthetic generation needs n_events >= 10")
    if n_counties < 1:
        raise DegenerateInput("n_counties must be >= 1")
    rng = np.random.default_rng(seed)

    county_ids = [f"06{2 * i + 1:03d}" for i in range(n_counties)]
    county_elev = rng.uniform(50.0, 2500.0, size=n_counties)
    county_lc = rng.dirichlet(np.full(17, 0.5), size=n_counties)
    county_lat = rng.uniform(35.0, 41.0, size=n_counties)
    county_lon = rng.uniform(-123.0, -118.0, size=n_counties)

    # every county gets at least one event, the rest are spread uniformly
    assignment = np.concatenate(
        [np.arange(n_counties), rng.integers(0, n_counties, size=n_events - n_counties)]
    ) if n_events >= n_counties else rng.integers(0, n_counties, size=n_events)
    rng.shuffle(assignment)

    base_date = dt.date(2018, 1, 1)
    events, weather_blocks, enriched_rows = [], [], []
    g_vals, h_vals = [], []

    for i in range(n_events):
        c = int(assignment[i])
        start = base_date + dt.timedelta(days=int(rng.integers(0, 5 * 365)))
        doy = start.timetuple().tm_yday
        phase = 2.0 * math.pi * doy / 365.0

        tavg = 15.0 + 8.0 * math.sin(phase) + _ar1(rng, SEQ_LEN, sd=2.0)
        spread_lo = 3.0 + np.abs(_ar1(rng, SEQ_LEN, sd=1.0))
        spread_hi = 3.0 + np.abs(_ar1(rng, SEQ_LEN, sd=1.0))
        tmin = tavg - spread_lo
        tmax = tavg + spread_hi
        precip = np.maximum(
            0.0, (1.5 + math.cos(phase)) * np.abs(_ar1(rng, SEQ_LEN, sd=1.0)) - 0.5
        )
        rh_min = np.clip(35.0 + 15.0 * math.cos(phase) + _ar1(rng, SEQ_LEN, sd=6.0), 0.0, 100.0)
        rh_max = np.clip(rh_min + 20.0 + np.abs(_ar1(rng, SEQ_LEN, sd=5.0)), 0.0, 100.0)
        srad = np.maximum(0.0, 250.0 + 100.0 * math.sin(phase) + _ar1(rng, SEQ_LEN, sd=30.0))
        vpd = np.maximum(0.05, 1.2 + 0.8 * math.sin(phase) + _ar1(rng, SEQ_LEN, sd=0.3))
        wind = np.maximum(0.0, 3.0 + _ar1(rng, SEQ_LEN, sd=1.0))
        block = np.column_stack([tavg, precip, rh_min, rh_max, srad, tmin, tmax, vpd, wind])

        forest = float(county_lc[c, 1:6].sum())
        g = _static_signal(
            float(tavg.mean()), float(precip.mean()), float(vpd.mean()),
            float(county_elev[c]), forest, phase,
        )
        h = _temporal_signal(tavg)
        g_vals.append(g)
        h_vals.append(h)

        ndvi_noise = rng.normal(0.0, 0.004, size=6)
        enriched_rows.append(np.concatenate([
            [
                -0.010 * g + ndvi_noise[0],
                0.015 + 0.02 * abs(h) + abs(ndvi_noise[1]),
                -0.015 * g + ndvi_noise[2],
                0.020 + 0.02 * abs(h) + abs(ndvi_noise[3]),
                -0.030 * g + ndvi_noise[4],
                0.030 + 0.02 * abs(h) + abs(ndvi_noise[5]),
                county_elev[c],
            ],
            county_lc[c],
        ]))
        events.append(FireEvent(
            event_id=f"ev{i:05d}",
            county_id=county_ids[c],
            latitude=float(county_lat[c] + rng.normal(0.0, 0.15)),
            longitude=float(county_lon[c] + rng.normal(0.0, 0.15)),
            start_date=start,
            fire_duration_days=float(1.0 + rng.exponential(5.0)),
        ))
        weather_blocks.append(block)

    g_arr = np.array(g_vals)
    h_arr = np.array(h_vals)
    signal = g_arr + TEMPORAL_WEIGHT * h_arr
    noise_sd = noise_fraction * float(signal.std())
    targets = signal + rng.normal(0.0, noise_sd, size=n_events)

    temporal = np.array(
        [[ev.fire_duration_days, float(ev.fire_month), float(ev.fire_dayofyear)]
         for ev in events]
    )
    ds = Dataset(
        events=events,
        weather=np.stack(weather_blocks),
        enriched=np.hstack([temporal, np.stack(enriched_rows)]),
        targets=targets,
    )
    truth = SynthTruth(
        noise_free=signal, static_part=g_arr, temporal_part=h_arr,
        noise_sd=noise_sd, seed=seed,
    )
    return ds, truth


# ---------------------------------------------------------------------------
# County map export
# ---------------------------------------------------------------------------


@dataclass
class CountySummary:
    county_id: str
    opfvl: float  # observed mean loss
    ppvl: float  # predicted mean loss
    apc: float  # aggregated prediction confidence, in [0, 1]


def export_county_map(summaries, path) -> None:
    """Write `county_id,opfvl,ppvl,apc` rows, 6-decimal fixed point, sorted
    ascending by county id."""
    if not summaries:
        raise DegenerateInput("no county summaries to export")
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("county_id,opfvl,ppvl,apc\n")
        for s in sorted(summaries, key=lambda s: s.county_id):
            f.write(f"{s.county_id},{s.opfvl:.6f},{s.ppvl:.6f},{s.apc:.6f}\n")

"""The per-event loop that `mvelma.dataio.validate_and_impute` must reproduce.

`reference_validate_and_impute` takes the kept events one at a time: it
copies each 30 x 9 weather block, runs the four range rules on it, then
fills or drops column by column, and stacks the surviving blocks and
enriched rows at the end. The array version must return the same Dataset
bytes and the same report, or raise the same exception with the same
message, on any input whose enriched rows have the right length (the loop
does not check that length).
"""

import math

import numpy as np

from mvelma.dataio import (
    ENRICHED_FILE_COLUMNS,
    LC_COLUMNS,
    N_CHANNELS,
    SEQ_LEN,
    WEATHER_COLUMNS,
    Dataset,
    NdviSeries,
    ValidationReport,
    build_target,
    temporal_features,
)
from mvelma.errors import DegenerateInput, SchemaError


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


def reference_validate_and_impute(events, weather_raw, enriched_raw, ndvi_raw=None):
    """Apply the cleaning rules and assemble an aligned Dataset.

    Rules, in order: drop events below detection confidence 60 (only when
    the column is present); fill partial weather gaps with the event's
    per-variable mean over available days; drop events with a fully missing
    weather variable; fill missing elevation with the global mean of the
    present ones; zero-fill missing land-cover fractions. Targets come from
    the NDVI series when given, else from the events' target column.
    Returns (Dataset, ValidationReport); the report lists every action.
    """
    report = ValidationReport()

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

    ds = Dataset(
        events=final_events,
        weather=np.stack(rows_w),
        enriched=np.hstack([temporal_features(final_events), enr]),
        targets=targets,
    )
    report.events_out = ds.n
    return ds, report

import csv
import dataclasses
import datetime as dt
import hashlib
import io
import math
import re

import numpy as np
import pytest

from mvelma import dataio
from mvelma.errors import DegenerateInput, EmptyWindow, MvelmaError, SchemaError
from validate_reference import reference_validate_and_impute


def series(start, offsets_values):
    samples = [(start + dt.timedelta(days=off), v) for off, v in offsets_values]
    return dataio.NdviSeries("ev0", start, samples)


def small_raw(n=5, seed=0, conf=None):
    """Hand-sized raw tables that pass validation untouched."""
    rng = np.random.default_rng(seed)
    events, weather, enriched = [], {}, {}
    for i in range(n):
        eid = f"e{i}"
        ev = dataio.FireEvent(
            event_id=eid,
            county_id=f"06{2 * i + 1:03d}",
            latitude=38.0 + i,
            longitude=-121.0 - i,
            start_date=dt.date(2020, 6, 15) + dt.timedelta(days=i),
            fire_duration_days=3.0 + i,
            target=0.1 * (i + 1),
        )
        if conf is not None:
            ev.detection_confidence = conf[i]
        events.append(ev)
        tavg = rng.uniform(5, 20) + rng.normal(0, 1, 30)
        weather[eid] = np.column_stack([
            tavg,
            rng.uniform(0, 3, 30),
            rng.uniform(20, 40, 30),
            rng.uniform(50, 90, 30),
            rng.uniform(100, 300, 30),
            tavg - 3.0,
            tavg + 3.0,
            rng.uniform(0.2, 2, 30),
            rng.uniform(0, 6, 30),
        ])
        enriched[eid] = np.concatenate([
            rng.normal(0, 0.01, 6),
            [rng.uniform(100.0, 2000.0)],
            rng.dirichlet(np.ones(17)),
        ])
    return events, weather, enriched


class TestBuildTarget:
    def test_mean_before_minus_min_after(self):
        start = dt.date(2020, 7, 1)
        s = series(start, [(-20, 0.6), (-10, 0.6), (-3, 0.6), (2, 0.5), (9, 0.45), (20, 0.55)])
        assert dataio.build_target(s) == pytest.approx(0.15, abs=1e-12)

    def test_constant_series_gives_zero(self):
        start = dt.date(2020, 7, 1)
        s = series(start, [(off, 0.42) for off in (-25, -12, -1, 0, 14, 30)])
        assert dataio.build_target(s) == pytest.approx(0.0, abs=1e-15)

    def test_gain_keeps_negative_value(self):
        start = dt.date(2019, 8, 10)
        s = series(start, [(-15, 0.5), (-5, 0.7), (4, 0.65), (12, 0.62), (25, 0.80)])
        assert dataio.build_target(s) == pytest.approx(-0.02, abs=1e-12)

    def test_empty_before_window(self):
        start = dt.date(2020, 7, 1)
        with pytest.raises(EmptyWindow):
            dataio.build_target(series(start, [(2, 0.5), (10, 0.4)]))

    def test_empty_after_window(self):
        start = dt.date(2020, 7, 1)
        with pytest.raises(EmptyWindow):
            dataio.build_target(series(start, [(-20, 0.5), (-1, 0.4)]))

    @pytest.mark.parametrize("shift", [-37, 1, 400])
    def test_translation_invariant_in_date(self, shift):
        start = dt.date(2020, 7, 1)
        offs = [(-28, 0.61), (-9, 0.55), (-1, 0.58), (0, 0.52), (17, 0.31), (30, 0.44)]
        base = dataio.build_target(series(start, offs))
        moved = series(start + dt.timedelta(days=shift), offs)
        assert dataio.build_target(moved) == base

    def test_window_boundaries_inclusive(self):
        start = dt.date(2020, 7, 1)
        # -30 and -1 belong to "before"; 0 and +30 to "after"
        s = series(start, [(-30, 0.8), (-1, 0.6), (0, 0.5), (30, 0.3)])
        assert dataio.build_target(s) == pytest.approx(0.7 - 0.3, abs=1e-12)

    def test_samples_outside_windows_ignored(self):
        start = dt.date(2020, 7, 1)
        inside = [(-20, 0.6), (5, 0.4)]
        with_outside = inside + [(-31, 0.0), (31, -0.9)]
        assert dataio.build_target(series(start, with_outside)) == dataio.build_target(
            series(start, inside)
        )


SEQ = dataio.SEQ_LEN


def reference_files(events, weather, enriched, targets) -> dict:
    """{file name: bytes} of the three files as a csv.writer writes them row
    by row, each float through repr(): the oracle for the bulk writers."""

    def csv_bytes(header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode("utf-8")

    has_conf = any(ev.detection_confidence is not None for ev in events)
    header = ["event_id", "county_id", "latitude", "longitude", "start_date",
              "fire_duration_days"] + ["detection_confidence"] * has_conf
    rows = []
    for i, ev in enumerate(events):
        row = [ev.event_id, ev.county_id, repr(float(ev.latitude)), repr(float(ev.longitude)),
               ev.start_date.isoformat(), repr(float(ev.fire_duration_days))]
        if has_conf:
            conf = ev.detection_confidence
            row.append("" if conf is None else repr(float(conf)))
        if targets is not None:
            row.append(repr(float(targets[i])))
        rows.append(row)
    return {
        "events.csv": csv_bytes(header + ["target"] * (targets is not None), rows),
        "weather.csv": csv_bytes(
            ["event_id", "day_offset"] + dataio.WEATHER_COLUMNS,
            [[eid, t - SEQ, *map(repr, day)] for eid, mat in weather.items()
             for t, day in enumerate(mat.tolist())]),
        "enriched.csv": csv_bytes(
            ["event_id"] + dataio.ENRICHED_FILE_COLUMNS,
            [[eid, *map(repr, vec.tolist())] for eid, vec in enriched.items()]),
    }


class TestCsvRoundTrip:
    def test_dataset_round_trip_bit_exact(self, tmp_path):
        ds, _ = dataio.synth_generate(40, 4, seed=11)
        dataio.write_dataset(ds, tmp_path)
        ds2, report = dataio.load_dataset(tmp_path)
        assert report.events_out == ds.n
        assert np.array_equal(ds.weather, ds2.weather)
        assert np.array_equal(ds.enriched, ds2.enriched)
        assert np.array_equal(ds.targets, ds2.targets)
        for a, b in zip(ds.events, ds2.events):
            assert (a.event_id, a.county_id, a.start_date) == (b.event_id, b.county_id, b.start_date)
            assert (a.latitude, a.longitude, a.fire_duration_days) == (
                b.latitude, b.longitude, b.fire_duration_days)
        assert [e.county_id for e in ds.events] == [e.county_id for e in ds2.events]

    def test_repeated_event_id_writes_nothing(self, tmp_path):
        # load_dataset would refuse the files, so none is written
        ds, _ = dataio.synth_generate(12, 2, seed=0)
        ds.events[1] = dataclasses.replace(ds.events[1], event_id=ds.events[0].event_id)
        out = tmp_path / "out"
        with pytest.raises(SchemaError, match=f"duplicate event_id {ds.events[0].event_id!r}"):
            dataio.write_dataset(ds, out)
        assert not out.exists()

    @pytest.mark.parametrize("block_lines", [3, dataio._BLOCK_LINES])
    def test_writers_match_csv_writer_and_repr(self, tmp_path, monkeypatch, block_lines):
        """Ids that csv must quote, floats whose repr is unusual, and a
        blank and a NaN detection confidence come out as the reference
        writes them, in one block of lines or in many."""
        monkeypatch.setattr(dataio, "_BLOCK_LINES", block_lines)
        edge = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]
        ids = ["a,b", 'say "hi"', "cr\rlf\n", "plain"]
        events = [
            dataio.FireEvent(eid, county, 38.5 + i, -0.0 if i else 1e16, dt.date(2020, 6, 1 + i),
                             float(i), confidence)
            for i, (eid, county, confidence) in enumerate(zip(
                ids, ["06,001", "06003", '"06005"', "06007"], [None, math.nan, 75.0, None]))
        ]
        weather = {eid: np.arange(SEQ * 9, dtype=np.float64).reshape(SEQ, 9) / 7 for eid in ids}
        weather[ids[0]][0, :6] = edge
        weather[ids[2]][-1, 3:] = edge
        enriched = {eid: np.linspace(-1.0, 1.0, 24) * (i + 1) for i, eid in enumerate(ids)}
        enriched[ids[1]][-6:] = edge
        targets = np.array([0.1, math.nan, -0.0, 1e16])
        # the temporal columns lead the enriched matrix and are not written
        temporal = np.full((len(ids), len(dataio.TEMPORAL_COLUMNS)), 7.0)
        ds = dataio.Dataset(events, np.stack(list(weather.values())),
                            np.hstack([temporal, np.stack(list(enriched.values()))]), targets)

        dataio.write_dataset(ds, tmp_path)
        expected = reference_files(events, weather, enriched, targets)
        assert {name: (tmp_path / name).read_bytes() for name in expected} == expected

        dataio.write_dataset(ds.subset([3]), tmp_path)  # no confidence column
        expected = reference_files(events[3:], {ids[3]: weather[ids[3]]},
                                   {ids[3]: enriched[ids[3]]}, targets[3:])
        assert {name: (tmp_path / name).read_bytes() for name in expected} == expected

    def test_missing_column_raises(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text("event_id,county_id,latitude\ne0,06001,38.0\n")
        with pytest.raises(SchemaError, match="missing column"):
            dataio.read_events(p)

    def test_bad_float_reports_row_and_column(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text(
            "event_id,county_id,latitude,longitude,start_date,fire_duration_days\n"
            "e0,06001,38.0,-121.0,2020-06-01,4.0\n"
            "e1,06001,oops,-121.0,2020-06-01,4.0\n"
        )
        with pytest.raises(SchemaError, match=r"row 3.*latitude"):
            dataio.read_events(p)

    @pytest.mark.parametrize("text", ["inf", "-inf", "Infinity", "1e999"])
    def test_infinite_value_reports_row_and_column(self, tmp_path, text):
        p = tmp_path / "events.csv"
        p.write_text(
            "event_id,county_id,latitude,longitude,start_date,fire_duration_days\n"
            "e0,06001,38.0,-121.0,2020-06-01,4.0\n"
            f"e1,06001,38.0,{text},2020-06-01,4.0\n"
        )
        with pytest.raises(SchemaError, match=r"row 3 column 'longitude': not a finite number"):
            dataio.read_events(p)

    def test_infinite_weather_and_enriched_values_raise(self, tmp_path):
        ds, _ = dataio.synth_generate(12, 2, seed=3)
        dataio.write_dataset(ds, tmp_path)
        for fname, col in (("weather.csv", "wind_ms"), ("enriched.csv", "ndvi_7d_std")):
            path = tmp_path / fname
            original = path.read_text()
            header, first, *rest = original.splitlines()
            cells = first.split(",")
            cells[header.split(",").index(col)] = "inf"
            path.write_text("\n".join([header, ",".join(cells)] + rest) + "\n")
            with pytest.raises(SchemaError, match=rf"{fname} row 2 column '{col}': not a finite"):
                dataio.load_dataset(tmp_path)
            path.write_text(original)

    @pytest.mark.parametrize("text", ["", "nan"])
    def test_missing_duration_raises(self, tmp_path, text):
        p = tmp_path / "events.csv"
        p.write_text(
            "event_id,county_id,latitude,longitude,start_date,fire_duration_days\n"
            f"e0,06001,38.0,-121.0,2020-06-01,{text}\n"
        )
        with pytest.raises(SchemaError, match="row 2 column 'fire_duration_days': missing value"):
            dataio.read_events(p)

    def test_bad_date_raises(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text(
            "event_id,county_id,latitude,longitude,start_date,fire_duration_days\n"
            "e0,06001,38.0,-121.0,06/01/2020,4.0\n"
        )
        with pytest.raises(SchemaError, match="start_date"):
            dataio.read_events(p)

    def test_duplicate_event_id_raises(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text(
            "event_id,county_id,latitude,longitude,start_date,fire_duration_days\n"
            "e0,06001,38.0,-121.0,2020-06-01,4.0\n"
            "e0,06003,39.0,-120.0,2020-07-01,2.0\n"
        )
        with pytest.raises(SchemaError, match="duplicate"):
            dataio.read_events(p)

    def test_negative_duration_raises(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text(
            "event_id,county_id,latitude,longitude,start_date,fire_duration_days\n"
            "e0,06001,38.0,-121.0,2020-06-01,-1.0\n"
        )
        with pytest.raises(SchemaError, match="duration"):
            dataio.read_events(p)

    @pytest.mark.parametrize("off", ["0", "-31", "-1.5"])
    def test_day_offset_out_of_range_raises(self, tmp_path, off):
        p = tmp_path / "weather.csv"
        cols = ",".join(dataio.WEATHER_COLUMNS)
        vals = ",".join(["1.0"] * 9)
        p.write_text(f"event_id,day_offset,{cols}\ne0,{off},{vals}\n")
        with pytest.raises(SchemaError, match="day_offset"):
            dataio.read_weather(p)

    @pytest.mark.parametrize("off", ["", "nan"])
    def test_missing_day_offset_raises(self, tmp_path, off):
        p = tmp_path / "weather.csv"
        cols = ",".join(dataio.WEATHER_COLUMNS)
        vals = ",".join(["1.0"] * 9)
        p.write_text(f"event_id,day_offset,{cols}\ne0,-5,{vals}\ne0,{off},{vals}\n")
        with pytest.raises(SchemaError, match="row 3 column 'day_offset': missing value"):
            dataio.read_weather(p)

    def test_duplicate_day_offset_raises(self, tmp_path):
        p = tmp_path / "weather.csv"
        cols = ",".join(dataio.WEATHER_COLUMNS)
        vals = ",".join(["1.0"] * 9)
        p.write_text(
            f"event_id,day_offset,{cols}\ne0,-5,{vals}\ne0,-5,{vals}\n"
        )
        with pytest.raises(SchemaError, match="duplicate day_offset"):
            dataio.read_weather(p)

    def test_duplicate_of_blank_day_offset_raises(self, tmp_path):
        # a repeat must not overwrite a first row whose values were all blank
        p = tmp_path / "weather.csv"
        cols = ",".join(dataio.WEATHER_COLUMNS)
        blank = ",".join([""] * 9)
        vals = ",".join(["1.0"] * 9)
        p.write_text(
            f"event_id,day_offset,{cols}\ne0,-5,{blank}\ne0,-5,{vals}\n"
        )
        with pytest.raises(SchemaError, match="row 3: duplicate day_offset -5 for event e0"):
            dataio.read_weather(p)

    def test_ndvi_out_of_range_raises(self, tmp_path):
        p = tmp_path / "ndvi.csv"
        p.write_text("event_id,date,ndvi\ne0,2020-06-01,1.5\n")
        with pytest.raises(SchemaError, match="ndvi"):
            dataio.read_ndvi(p)

    @pytest.mark.parametrize("text", ["", "nan"])
    def test_missing_ndvi_raises(self, tmp_path, text):
        p = tmp_path / "ndvi.csv"
        p.write_text(f"event_id,date,ndvi\ne0,2020-06-01,{text}\n")
        with pytest.raises(SchemaError, match="ndvi.csv row 2 column 'ndvi': missing value"):
            dataio.read_ndvi(p)


READERS = {
    "events.csv": dataio.read_events,
    "weather.csv": dataio.read_weather,
    "enriched.csv": dataio.read_enriched,
    "ndvi.csv": dataio.read_ndvi,
}


@pytest.fixture
def input_files(tmp_path):
    """A valid copy of each of the four input files."""
    ds, _ = dataio.synth_generate(12, 2, seed=3)
    dataio.write_dataset(ds, tmp_path)
    (tmp_path / "ndvi.csv").write_text(
        "event_id,date,ndvi\nev00000,2020-06-01,0.5\nev00000,2020-06-20,0.25\n"
    )
    return tmp_path


class TestMalformedFile:
    @pytest.mark.parametrize("fname", sorted(READERS))
    def test_control_reads(self, input_files, fname):
        assert READERS[fname](input_files / fname)

    @pytest.mark.parametrize("fname", sorted(READERS))
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_field_count_mismatch_names_row(self, input_files, fname, delta):
        path = input_files / fname
        header, first, second, *rest = path.read_text().splitlines()
        cells = second.split(",")
        cells = cells[:delta] if delta < 0 else cells + ["0.5"] * delta
        path.write_text("\n".join([header, first, ",".join(cells)] + rest) + "\n")
        m = len(header.split(","))
        with pytest.raises(SchemaError) as exc_info:
            READERS[fname](path)
        assert str(exc_info.value) == f"{path} row 3: {m + delta} fields, header has {m}"

    @pytest.mark.parametrize("fname", sorted(READERS))
    def test_short_row_after_blank_lines_names_its_line(self, input_files, fname):
        path = input_files / fname
        header, first, second, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, "", first, "", "", second.rsplit(",", 1)[0]] + rest))
        m = len(header.split(","))
        with pytest.raises(SchemaError) as exc_info:
            READERS[fname](path)
        assert str(exc_info.value) == f"{path} row 6: {m - 1} fields, header has {m}"

    def test_bad_cell_after_blank_lines_names_its_line(self, tmp_path):
        p = tmp_path / "ndvi.csv"
        p.write_text("event_id,date,ndvi\n\ne0,2020-06-01,0.5\n\ne0,2020-06-20,x\n")
        with pytest.raises(SchemaError) as exc_info:
            dataio.read_ndvi(p)
        assert str(exc_info.value) == f"{p} row 5 column 'ndvi': not a number: 'x'"

    def test_bad_date_after_blank_lines_names_its_line(self, tmp_path):
        p = tmp_path / "ndvi.csv"
        p.write_text("event_id,date,ndvi\n\n\ne0,2020-06-01,0.5\ne0,June 20,0.5\n")
        with pytest.raises(SchemaError) as exc_info:
            dataio.read_ndvi(p)
        assert str(exc_info.value) == f"{p} row 5 column 'date': not an ISO date: 'June 20'"

    @pytest.mark.parametrize("fname,message", [
        ("events.csv", "duplicate event_id ev00000"),
        ("enriched.csv", "duplicate enriched row for event ev00000"),
    ])
    def test_duplicate_id_after_blank_lines_names_its_line(self, input_files, fname, message):
        path = input_files / fname
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, first, "", "", first] + rest) + "\n")
        with pytest.raises(SchemaError) as exc_info:
            READERS[fname](path)
        assert str(exc_info.value) == f"{path} row 5: {message}"

    @pytest.mark.parametrize("fname", sorted(READERS))
    def test_non_utf8_byte_names_file(self, input_files, fname):
        path = input_files / fname
        data = path.read_bytes()
        path.write_bytes(data[:40] + b"\xff" + data[40:])
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            READERS[fname](path)

    def test_blank_lines_are_skipped(self, input_files):
        path = input_files / "enriched.csv"
        expected = dataio.read_enriched(path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        got = dataio.read_enriched(path)
        assert got.keys() == expected.keys()
        assert all(np.array_equal(got[k], expected[k], equal_nan=True) for k in got)

    def test_unterminated_quote_past_field_limit_raises(self, tmp_path):
        # the quoted field runs on to the end of the file, past csv's field size limit
        p = tmp_path / "ndvi.csv"
        p.write_text('event_id,date,ndvi\ne0,"2020-06-01,0.5\n' + "e0,2020-06-02,0.5\n" * 8000)
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(p))} line \d+: field larger"):
            dataio.read_ndvi(p)

    def test_repeated_column_name_raises(self, tmp_path):
        p = tmp_path / "ndvi.csv"
        p.write_text("event_id,date,ndvi,ndvi\ne0,2020-06-01,0.5,0.4\n")
        with pytest.raises(SchemaError, match="repeated column name"):
            dataio.read_ndvi(p)


class TestColumnParse:
    """float_column gives every cell the meaning _parse_float gives it."""

    CELLS = ["1.5", " -2 ", "1_000", "+.5", "1e-3", "", " ", "nan", "NaN", "-nan", "0"]

    @staticmethod
    def table(cells):
        """Column c of a file whose records sit on lines 2, 3, ..."""
        t = dataio.Table(c=tuple(cells))
        t.lines = np.arange(2, len(cells) + 2)
        return t

    def test_matches_per_cell_parse(self):
        got = dataio.float_column(self.table(self.CELLS), "c", "f.csv")
        want = [dataio._parse_float(c, "f.csv", r, "c") for r, c in enumerate(self.CELLS, 2)]
        assert np.array_equal(got, np.array(want), equal_nan=True)

    @pytest.mark.parametrize("bad,message", [
        ("x", "not a number: 'x'"), ("inf", "not a finite number"),
        ("1e999", "not a finite number"), ("0x10", "not a number"),
    ])
    def test_bad_cell_names_its_row(self, bad, message):
        cells = ("1.0", "", bad, "2.0")
        with pytest.raises(SchemaError, match=rf"^f\.csv row 4 column 'c': {message}"):
            dataio.float_column(self.table(cells), "c", "f.csv")


class TestValidateAndImpute:
    def test_fully_missing_variable_drops_event(self):
        events, weather, enriched = small_raw()
        weather["e2"][:, 1] = np.nan  # all precipitation gone
        ds, report = dataio.validate_and_impute(events, weather, enriched)
        assert ds.n == 4
        assert report.dropped_missing_variable == [("e2", "precip_mm")]
        assert "e2" not in [ev.event_id for ev in ds.events]
        assert not np.isnan(ds.weather).any()

    def test_partial_wind_gap_filled_with_event_mean(self):
        events, weather, enriched = small_raw()
        weather["e1"][:, 8] = np.arange(30.0)
        weather["e1"][[4, 17, 23], 8] = np.nan
        expected = (np.arange(30.0).sum() - 4 - 17 - 23) / 27.0
        ds, report = dataio.validate_and_impute(events, weather, enriched)
        pos = [ev.event_id for ev in ds.events].index("e1")
        assert ds.weather[pos, [4, 17, 23], 8] == pytest.approx([expected] * 3, abs=0)
        assert ("e1", "wind_ms", 3, expected) in report.weather_fills

    def test_elevation_filled_with_mean_of_present(self):
        events, weather, enriched = small_raw()
        for i, eid in enumerate(["e0", "e2", "e4"]):
            enriched[eid][6] = [100.0, 300.0, 500.0][i]
        enriched["e1"][6] = np.nan
        enriched["e3"][6] = np.nan
        ds, report = dataio.validate_and_impute(events, weather, enriched)
        col = dataio.ENRICHED_COLUMNS.index("elevation")
        ids = [ev.event_id for ev in ds.events]
        assert ds.enriched[ids.index("e1"), col] == 300.0
        assert ds.enriched[ids.index("e3"), col] == 300.0
        assert sorted(report.elevation_fills) == ["e1", "e3"]

    def test_missing_land_cover_becomes_zero(self):
        events, weather, enriched = small_raw()
        enriched["e0"][7 + 3] = np.nan
        enriched["e0"][7 + 11] = np.nan
        ds, report = dataio.validate_and_impute(events, weather, enriched)
        ids = [ev.event_id for ev in ds.events]
        row = ds.enriched[ids.index("e0")]
        assert row[dataio.ENRICHED_COLUMNS.index("LC_03")] == 0.0
        assert row[dataio.ENRICHED_COLUMNS.index("LC_11")] == 0.0
        assert report.lc_zero_fills == [("e0", 2)]

    def test_confidence_filter_applies_only_when_present(self):
        conf = [95.0, 59.9, 60.0, 10.0, 80.0]
        events, weather, enriched = small_raw(conf=conf)
        ds, report = dataio.validate_and_impute(events, weather, enriched)
        assert [ev.event_id for ev in ds.events] == ["e0", "e2", "e4"]
        assert report.filtered_low_confidence == ["e1", "e3"]

        events2, weather2, enriched2 = small_raw()
        ds2, report2 = dataio.validate_and_impute(events2, weather2, enriched2)
        assert ds2.n == 5
        assert report2.filtered_low_confidence == []

    def test_idempotent_on_own_output(self):
        events, weather, enriched = small_raw()
        weather["e1"][[2, 9], 0] = np.nan
        enriched["e3"][6] = np.nan
        ds1, report1 = dataio.validate_and_impute(events, weather, enriched)
        assert report1.weather_fills and report1.elevation_fills

        events2 = [dataclasses.replace(ev, target=float(t)) for ev, t in zip(ds1.events, ds1.targets)]
        weather2 = {ev.event_id: ds1.weather[i] for i, ev in enumerate(ds1.events)}
        enriched2 = {ev.event_id: ds1.enriched[i, 3:] for i, ev in enumerate(ds1.events)}
        ds2, report2 = dataio.validate_and_impute(events2, weather2, enriched2)
        assert np.array_equal(ds1.weather, ds2.weather)
        assert np.array_equal(ds1.enriched, ds2.enriched)
        assert np.array_equal(ds1.targets, ds2.targets)
        assert not report2.weather_fills and not report2.elevation_fills
        assert not report2.dropped_missing_variable and not report2.lc_zero_fills

    def test_targets_from_ndvi_series_when_given(self):
        events, weather, enriched = small_raw(n=2)
        start0, start1 = events[0].start_date, events[1].start_date
        ndvi = {
            "e0": [(start0 + dt.timedelta(days=-10), 0.6), (start0 + dt.timedelta(days=5), 0.45)],
            "e1": [(start1 + dt.timedelta(days=-20), 0.5), (start1 + dt.timedelta(days=12), 0.3)],
        }
        ds, _ = dataio.validate_and_impute(events, weather, enriched, ndvi)
        assert ds.targets == pytest.approx([0.15, 0.2], abs=1e-12)

    def test_no_target_source_raises(self):
        events, weather, enriched = small_raw(n=2)
        events[1] = dataclasses.replace(events[1], target=None)
        with pytest.raises(SchemaError, match="target"):
            dataio.validate_and_impute(events, weather, enriched)

    def test_weather_range_violations_raise(self):
        events, weather, enriched = small_raw()
        weather["e0"][3, 2] = 112.0
        with pytest.raises(SchemaError, match="humidity"):
            dataio.validate_and_impute(events, weather, enriched)

        events, weather, enriched = small_raw()
        weather["e4"][0, 5] = weather["e4"][0, 6] + 5.0
        with pytest.raises(SchemaError, match="temperature"):
            dataio.validate_and_impute(events, weather, enriched)

    def test_land_cover_sum_above_one_raises(self):
        events, weather, enriched = small_raw()
        enriched["e2"][7:] = 0.2  # 17 * 0.2 > 1
        with pytest.raises(SchemaError, match="land-cover"):
            dataio.validate_and_impute(events, weather, enriched)

    def test_non_imputable_gap_raises(self):
        events, weather, enriched = small_raw()
        enriched["e1"][0] = np.nan  # ndvi_7d_slope has no fill rule
        with pytest.raises(SchemaError, match="ndvi_7d_slope"):
            dataio.validate_and_impute(events, weather, enriched)

    def test_everything_dropped_raises(self):
        events, weather, enriched = small_raw(n=2, conf=[10.0, 20.0])
        with pytest.raises(DegenerateInput):
            dataio.validate_and_impute(events, weather, enriched)

    @pytest.mark.parametrize("short", [["e3"], ["e0", "e1", "e2", "e3", "e4"]])
    @pytest.mark.parametrize("length", [23, 25])
    def test_enriched_row_of_another_length_raises(self, short, length):
        events, weather, enriched = small_raw()
        for eid in short:
            enriched[eid] = np.resize(enriched[eid], length)
        expected = f"event {short[0]}: enriched row is ({length},), expected (24,)"
        with pytest.raises(SchemaError, match=re.escape(expected)):
            dataio.validate_and_impute(events, weather, enriched)

    def test_missing_weather_block_raises(self):
        events, weather, enriched = small_raw(n=3)
        del weather["e1"]
        with pytest.raises(SchemaError, match="e1"):
            dataio.validate_and_impute(events, weather, enriched)


def messy_raw(seed):
    """small_raw tables with every cleaning action: a low and a NaN
    confidence, a filtered event with no weather rows, partial weather gaps,
    gaps filled ahead of a fully missing variable that drops the event (and a
    gap after it that is not), elevation and land-cover holes."""
    conf = [95.0, 40.0, math.nan, 75.0, 60.0, 88.0, 59.0, 99.0]
    events, weather, enriched = small_raw(n=8, seed=seed, conf=conf)
    rng = np.random.default_rng(seed + 100)
    del weather["e1"]
    weather["e0"][rng.choice(30, 4, replace=False), 0] = np.nan
    weather["e3"][rng.choice(30, 2, replace=False), 8] = np.nan
    weather["e3"][[0, 29], 4] = np.nan
    weather["e5"][rng.choice(30, 3, replace=False), 1] = np.nan
    weather["e5"][rng.choice(30, 5, replace=False), 3] = np.nan
    weather["e5"][:, 7] = np.nan
    weather["e5"][rng.choice(30, 2, replace=False), 8] = np.nan
    weather["e7"][:, 2] = np.nan
    enriched["e2"][6] = np.nan
    enriched["e4"][6] = np.nan
    enriched["e3"][7 + rng.choice(17, 3, replace=False)] = np.nan
    enriched["e0"][7 + 16] = np.nan
    return events, weather, enriched


# validate_and_impute's Dataset arrays and repr(report) for messy_raw(seed)
CLEANED_DIGESTS = {
    0: {"dataset": "27a91b0d0888789164699676def787da8cb31c25b4796bced8d069469cf96e55",
        "report": "7e0ccfedd6762685d5d0f448a15a94b592fd0a477e79740d194ebc867657aaa4"},
    1: {"dataset": "56af3dcae107c044318ce3835865dc85ed2659800d25c18909d1fab6b8e0eca8",
        "report": "c78cac066612e37df04eb5a552fca4d290f111646e993819540e56da23661939"},
    2: {"dataset": "77327a6473b0f6a236a8f207f960f4e5a20b2b35f2bc45a5bc615e760a2ec11c",
        "report": "bae585fa70a16f4a5d13656ddd583bb223eccac57d1d701b488b7dcd56c3dadf"},
}


def faulty_raw(seed):
    """Seeded small_raw-style tables with faults drawn at random: low, NaN
    and integer confidences, partial and full weather gaps, range faults,
    elevation, land-cover and non-imputable holes, misshapen weather blocks,
    absent blocks and rows, list blocks, missing targets and NDVI series
    with empty windows or none at all."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    conf = None
    if rng.random() < 0.5:
        conf = [math.nan if u < 0.15 else None if u < 0.25 else int(u * 100) if u > 0.9
                else float(rng.uniform(30, 100)) for u in rng.random(n)]
    events, weather, enriched = small_raw(n=n, seed=seed, conf=conf)
    for ev, u in zip(events, rng.random(n)):
        ev.target = None if u < 0.015 else math.nan if u < 0.03 else ev.target
    for eid in list(weather):
        w, e = weather[eid], enriched[eid]
        for _ in range(int(rng.poisson(0.8))):
            w[rng.choice(30, int(rng.integers(1, 30)), replace=False), rng.integers(9)] = np.nan
        if rng.random() < 0.12:
            w[:, rng.integers(9)] = np.nan
        day, u = rng.integers(30), rng.random()
        if u < 0.01:
            w[day, rng.integers(2, 4)] = rng.choice([-1.0, 101.0])
        elif u < 0.03:
            w[day, rng.choice([1, 8])] = -0.5
        elif u < 0.04:
            w[day, 5] = w[day, 6] + 1.0
        if rng.random() < 0.15:
            e[6] = np.nan
        if rng.random() < 0.15:
            e[7 + rng.choice(17, int(rng.integers(1, 17)), replace=False)] = np.nan
        if rng.random() < 0.03:
            e[rng.integers(6)] = np.nan
        if rng.random() < 0.01:
            e[7:] = 0.2
        if rng.random() < 0.01:
            e[7 + rng.integers(17)] = -0.1
        u = rng.random()
        weather[eid] = w[:29] if u < 0.01 else w[:, :8] if u < 0.02 else w.tolist() if u < 0.1 else w
        if rng.random() < 0.01:
            del weather[eid]
        if rng.random() < 0.01:
            del enriched[eid]
    ndvi = None
    if rng.random() < 0.15:
        ndvi = {ev.event_id: [(ev.start_date + dt.timedelta(days=int(off)), float(v))
                              for off, v in [(-rng.integers(1, 31), rng.uniform(0.3, 0.8)),
                                             (rng.integers(0, 31), rng.uniform(0.1, 0.6))]
                              if rng.random() > 0.05]
                for ev in events if rng.random() > 0.05}
    return events, weather, enriched, ndvi


def cleaned(validate, raw):
    """The Dataset's bytes and the report's repr, or the error's type and message."""
    try:
        ds, report = validate(*raw)
    except MvelmaError as exc:
        return type(exc), str(exc)
    return (_sha256(ds.weather, ds.enriched, ds.targets, [ev.event_id for ev in ds.events]),
            repr(report))


class TestCleanedBytes:
    def test_matches_per_event_loop_reference(self):
        outcomes = {"ok": 0, "raised": 0}
        for seed in range(1000):
            got = cleaned(dataio.validate_and_impute, faulty_raw(seed))
            assert got == cleaned(reference_validate_and_impute, faulty_raw(seed)), seed
            outcomes["raised" if isinstance(got[0], type) else "ok"] += 1
        # both sides of the comparison are well represented
        assert min(outcomes.values()) > 300, outcomes


    @pytest.mark.parametrize("seed", list(CLEANED_DIGESTS))
    def test_dataset_and_report_pinned_byte_for_byte(self, seed):
        ds, report = dataio.validate_and_impute(*messy_raw(seed))
        assert report.filtered_low_confidence == ["e1", "e6"]
        assert [ev.event_id for ev in ds.events] == ["e0", "e2", "e3", "e4"]
        assert {
            "dataset": _sha256(ds.weather, ds.enriched, ds.targets),
            "report": _sha256(repr(report)),
        } == CLEANED_DIGESTS[seed]


def _sha256(*parts) -> str:
    """Digest of arrays (shape, dtype and bytes) and of other values' repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.shape, part.dtype.str)).encode())
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def synth_digests(n_events, n_counties, seed, noise_fraction=None) -> dict:
    kwargs = {} if noise_fraction is None else {"noise_fraction": noise_fraction}
    ds, truth = dataio.synth_generate(n_events, n_counties, seed, **kwargs)
    events = [(e.event_id, e.county_id, e.latitude, e.longitude, e.start_date.isoformat(),
               e.fire_duration_days, e.detection_confidence, e.target) for e in ds.events]
    return {
        "weather": _sha256(ds.weather),
        "enriched": _sha256(ds.enriched),
        "targets": _sha256(ds.targets),
        "events": _sha256(events),
        "truth": _sha256(truth.noise_free, truth.static_part, truth.temporal_part,
                         truth.noise_sd, truth.seed),
    }


# The generator's outputs, pinned byte for byte: (n_events, n_counties, seed,
# noise_fraction, None for the default) -> synth_digests. A change to the
# random stream or to the arithmetic that turns draws into data changes them.
SYNTH_DIGESTS = {
    (40, 3, 0, None): {
        "weather": "22ec71f4f0523566966b089e51e23f75954c85585a55296464f478420ac6a72d",
        "enriched": "aff288077c94eabc21b9dfb71664c821780ba515b8c220344b86ee81b43b4f8d",
        "targets": "5073f6f379aa29b91491e0d88a2fa81bab9f9fd6a950028e75f99037ffcd7062",
        "events": "d7aa362722929e75bb8719afc67a557cb2ac0a9c9fe6c3848bc762eac84ad65a",
        "truth": "fa35c5435ca689a7a415c500d48a7eeeff370a55ae118c3513a75e8fd621a875",
    },
    (500, 10, 42, None): {
        "weather": "83a70ed0b08c6a15b399657234cd5301ef6418d24aa1f99d13f7952e561a93ce",
        "enriched": "8769ce7e0c2948f02501747459d4718baf7136f5c95e0312a7ba08ca12b97ce7",
        "targets": "67a3be60e242e2459608c3abe18bf6ae1d9e51e206b10274b4ce3b740eccd509",
        "events": "290df2996b45730cb0b2f74974cfcdda453781139142bf7f9770286e42c0ff83",
        "truth": "451101383c4f5354803edeaf75a81282382e53c82f1a0e4dac2d41ed76bf4877",
    },
    (5000, 10, 7, None): {
        "weather": "5e33b72a10da0d4007f7f1fcfe07b57ad28b346408d030a2b7925ffe43cf3048",
        "enriched": "d36233f844bb5dc199a1d9026d473f94a2fe695cca27407f246d05582cac9f47",
        "targets": "d389be14579fb615b926f44daf39df637592949f4e7933ed46bb48ffc0ab6971",
        "events": "7625c472504c745c351d665636c80b815f191bc486cf32d0fa7fe8b1f60ef288",
        "truth": "446f1fe079052fd78fa6bc8978e400c149dadc1c81e73d54a96d06c8863e510e",
    },
    (500, 5, 9, 0.0): {
        "weather": "ea1fca797bba9b001900b352c94d33a143170f97d1817296afa68d06e44016f4",
        "enriched": "def8aa1549f2f1b1d40bd0a0009f7fd712cdb123567739ff9e9f3cebeef23581",
        "targets": "8a4496e53d2ba7a8eed8451527132433cca6cfd0f6dba10149b986ff197c6252",
        "events": "1499fcac962ce2c1a213ee991c33dbaca4b60aaf7dabece595ade2c4eb7135f5",
        "truth": "1de1c53e19a73c41c939a255807eb08162b78ad3bcb02645df8fc210c7634b53",
    },
    # fewer events than counties: the assignment is drawn without the
    # one-event-per-county cover
    (12, 20, 5, None): {
        "weather": "e023703b646e956c9757e4557bdbecc019d291ce66aa0446a8b2a3884ccce921",
        "enriched": "fe06ddd67ae810d8b3e5fe2d634be6a59ce81c57b78fad09696f4a81d6acd1a8",
        "targets": "134186f94451706023b5da976c2a8b226966abb856fa4a8362aa58caaa246dd5",
        "events": "3a7369606057a7f24aed22e109004cdcbc8247f0b80a013f9c79940ea162379d",
        "truth": "ce65ddd51cb955b669826bfeadaaadff694d8333e11218fded43d36451f24ede",
    },
}
# write_dataset's three files for synth_generate(n_events, n_counties, seed)
DATASET_FILE_DIGESTS = {
    (500, 10, 1): {
        "events.csv": "16d3541ad22ed384039b7452a62ce89d0419fc3f6f380e64b6c2b4577dd62cc1",
        "weather.csv": "f325b77327f8fdc4024d4ff351015c31b5108202c04cf7554affc154423d67ee",
        "enriched.csv": "22bd48959a1aff529aceeb31e09c3f85a70f4494d6b6d6ec0535c99f97f22d46",
    },
    (40, 4, 0): {
        "events.csv": "56527a712a61b80e8fb2c1c8260cf004b950b0881fc5fe735414564291c28b90",
        "weather.csv": "00135785814c589eb55e5708eca37257f347d03dcad1ffa493785d916869845b",
        "enriched.csv": "8af21d35b95424032a524ece0c79f77b2012de99a1987c9d6a1462e2761eebc5",
    },
    (500, 10, 977): {
        "events.csv": "e52c87c1039669032f8b3f2dd5b09b763f22f740b8dc656a9877510b3ff3db9f",
        "weather.csv": "4ca294d1abaa836cb54f769e72fe224ba87e1d7d8a53b406a62069b6c631c26b",
        "enriched.csv": "1ef5be1eb15498308bd2d8c385ec1e19b8ddaef07ccf748a42309ce06deeb643",
    },
}


def written_digests(config, out_dir) -> dict:
    """SHA-256 of each file write_dataset writes for synth_generate(*config)."""
    n_events, n_counties, seed = config
    dataio.write_dataset(dataio.synth_generate(n_events, n_counties, seed=seed)[0], out_dir)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("events.csv", "weather.csv", "enriched.csv")}


class TestSynthGenerate:
    @pytest.mark.parametrize("config", list(SYNTH_DIGESTS), ids=str)
    def test_outputs_pinned_byte_for_byte(self, config):
        assert synth_digests(*config) == SYNTH_DIGESTS[config]

    def test_written_files_pinned_byte_for_byte(self, tmp_path):
        assert written_digests((500, 10, 1), tmp_path) == DATASET_FILE_DIGESTS[(500, 10, 1)]

    @pytest.mark.parametrize("config", [(40, 4, 0), (500, 10, 977)], ids=str)
    def test_written_files_pinned_at_synth_and_benchmark_sizes(self, tmp_path, config):
        # the sizes of CI's synth run and of the cli-default set-up
        assert written_digests(config, tmp_path) == DATASET_FILE_DIGESTS[config]

    def test_same_seed_bit_identical(self):
        a, ta = dataio.synth_generate(60, 5, seed=3)
        b, tb = dataio.synth_generate(60, 5, seed=3)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.weather, b.weather)
        assert np.array_equal(a.enriched, b.enriched)
        assert [e.event_id for e in a.events] == [e.event_id for e in b.events]
        assert [e.start_date for e in a.events] == [e.start_date for e in b.events]
        assert np.array_equal(ta.noise_free, tb.noise_free)

    def test_different_seed_differs(self):
        a, _ = dataio.synth_generate(30, 3, seed=1)
        b, _ = dataio.synth_generate(30, 3, seed=2)
        assert not np.array_equal(a.targets, b.targets)

    def test_variance_matches_documented_decomposition(self):
        ds, truth = dataio.synth_generate(5000, 10, seed=7)
        documented = truth.noise_free.var() + truth.noise_sd ** 2
        assert abs(ds.targets.var() - documented) / documented < 0.05

    def test_zero_noise_oracle_reaches_r2_one(self):
        ds, truth = dataio.synth_generate(500, 5, seed=9, noise_fraction=0.0)
        assert truth.noise_sd == 0.0
        sse = float(((ds.targets - truth.noise_free) ** 2).sum())
        sst = float(((ds.targets - ds.targets.mean()) ** 2).sum())
        assert 1.0 - sse / sst == 1.0

    def test_noise_sd_is_fraction_of_signal_std(self):
        _, truth = dataio.synth_generate(200, 4, seed=5)
        assert truth.noise_sd == pytest.approx(0.2 * truth.noise_free.std(), rel=1e-12)
        assert np.array_equal(
            truth.noise_free, truth.static_part + 0.1 * truth.temporal_part
        )

    def test_preconditions(self):
        with pytest.raises(DegenerateInput):
            dataio.synth_generate(9, 2, seed=0)
        with pytest.raises(DegenerateInput):
            dataio.synth_generate(20, 0, seed=0)

    def test_physical_ranges_and_shapes(self):
        ds, _ = dataio.synth_generate(80, 6, seed=13)
        assert ds.weather.shape == (80, 30, 9)
        assert ds.enriched.shape == (80, 27)
        assert not np.isnan(ds.weather).any() and not np.isnan(ds.enriched).any()
        rh = ds.weather[:, :, [2, 3]]
        assert rh.min() >= 0.0 and rh.max() <= 100.0
        assert ds.weather[:, :, 1].min() >= 0.0  # precip
        assert ds.weather[:, :, 8].min() >= 0.0  # wind
        assert np.all(ds.weather[:, :, 5] <= ds.weather[:, :, 6])  # tmin <= tmax
        lc = ds.enriched[:, [dataio.ENRICHED_COLUMNS.index(c) for c in dataio.LC_COLUMNS]]
        assert lc.min() >= 0.0 and np.all(lc.sum(axis=1) <= 1.0 + 1e-6)

    def test_every_county_gets_an_event(self):
        ds, _ = dataio.synth_generate(12, 12, seed=21)
        counties = {ev.county_id for ev in ds.events}
        assert len(counties) == 12
        assert all(int(cid[2:]) % 2 == 1 for cid in counties)

    def test_output_passes_validation_untouched(self):
        ds, _ = dataio.synth_generate(25, 3, seed=17)
        events = [dataclasses.replace(ev, target=float(t)) for ev, t in zip(ds.events, ds.targets)]
        weather = {ev.event_id: ds.weather[i] for i, ev in enumerate(ds.events)}
        enriched = {ev.event_id: ds.enriched[i, 3:] for i, ev in enumerate(ds.events)}
        ds2, report = dataio.validate_and_impute(events, weather, enriched)
        assert ds2.n == 25
        assert report.messages == []


class TestSplitDataset:
    def test_partition_is_disjoint_and_complete(self):
        ds, _ = dataio.synth_generate(50, 4, seed=2)
        train, test = dataio.split_dataset(ds, 0.8, seed=5)
        assert train.n == 40 and test.n == 10
        ids = {e.event_id for e in train.events} | {e.event_id for e in test.events}
        assert ids == {e.event_id for e in ds.events}
        assert not ({e.event_id for e in train.events} & {e.event_id for e in test.events})

    def test_split_is_seeded(self):
        ds, _ = dataio.synth_generate(30, 3, seed=2)
        a1, _ = dataio.split_dataset(ds, 0.7, seed=9)
        a2, _ = dataio.split_dataset(ds, 0.7, seed=9)
        b1, _ = dataio.split_dataset(ds, 0.7, seed=10)
        assert [e.event_id for e in a1.events] == [e.event_id for e in a2.events]
        assert [e.event_id for e in a1.events] != [e.event_id for e in b1.events]

    def test_rows_stay_aligned(self):
        ds, _ = dataio.synth_generate(20, 2, seed=4)
        train, _ = dataio.split_dataset(ds, 0.75, seed=1)
        lookup = {e.event_id: i for i, e in enumerate(ds.events)}
        for i, ev in enumerate(train.events):
            j = lookup[ev.event_id]
            assert np.array_equal(train.weather[i], ds.weather[j])
            assert train.targets[i] == ds.targets[j]

    @pytest.mark.parametrize("frac", [0.0, 1.0, 1.5])
    def test_fraction_bounds(self, frac):
        ds, _ = dataio.synth_generate(12, 2, seed=0)
        with pytest.raises(DegenerateInput):
            dataio.split_dataset(ds, frac, seed=0)


class TestExportCountyMap:
    def test_known_county_fixture_bytes(self, tmp_path):
        p = tmp_path / "map.csv"
        dataio.export_county_map([dataio.CountySummary("06007", 0.0123, 0.0091, 0.984)], p)
        assert p.read_bytes() == b"county_id,opfvl,ppvl,apc\n06007,0.012300,0.009100,0.984000\n"

    def test_rows_sorted_by_county(self, tmp_path):
        p = tmp_path / "map.csv"
        dataio.export_county_map(
            [
                dataio.CountySummary("06019", 0.2, 0.1, 0.5),
                dataio.CountySummary("06003", 0.3, 0.4, 0.9),
            ],
            p,
        )
        lines = p.read_text().splitlines()
        assert lines[1].startswith("06003,") and lines[2].startswith("06019,")

    def test_empty_input_raises(self, tmp_path):
        with pytest.raises(DegenerateInput):
            dataio.export_county_map([], tmp_path / "map.csv")

    def test_county_ids_quoted_as_csv_quotes_them(self, tmp_path):
        p = tmp_path / "map.csv"
        ids = ["06,001", 'say "hi"', "06003"]
        dataio.export_county_map([dataio.CountySummary(c, 0.1, 0.2, 0.5) for c in ids], p)
        with open(p, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert [r[0] for r in rows[1:]] == sorted(ids)
        assert all(len(r) == 4 for r in rows)

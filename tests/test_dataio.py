import dataclasses
import datetime as dt
import math

import numpy as np
import pytest

from mvelma import dataio
from mvelma.errors import DegenerateInput, EmptyWindow, SchemaError


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

    def test_duplicate_day_offset_raises(self, tmp_path):
        p = tmp_path / "weather.csv"
        cols = ",".join(dataio.WEATHER_COLUMNS)
        vals = ",".join(["1.0"] * 9)
        p.write_text(
            f"event_id,day_offset,{cols}\ne0,-5,{vals}\ne0,-5,{vals}\n"
        )
        with pytest.raises(SchemaError, match="duplicate day_offset"):
            dataio.read_weather(p)

    def test_ndvi_out_of_range_raises(self, tmp_path):
        p = tmp_path / "ndvi.csv"
        p.write_text("event_id,date,ndvi\ne0,2020-06-01,1.5\n")
        with pytest.raises(SchemaError, match="ndvi"):
            dataio.read_ndvi(p)


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
        col = dataio.ELEVATION_INDEX
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

    def test_missing_weather_block_raises(self):
        events, weather, enriched = small_raw(n=3)
        del weather["e1"]
        with pytest.raises(SchemaError, match="e1"):
            dataio.validate_and_impute(events, weather, enriched)


class TestSynthGenerate:
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
        lc = ds.enriched[:, dataio.LC_INDICES]
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

import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest
import tape_reference as tr

from mvelma import dataio, gp, optim, pipeline
from mvelma import numcore as nc
from mvelma.encoder import EncoderConfig
from mvelma.errors import (
    DimensionMismatch,
    EmptySplit,
    LengthMismatch,
    SchemaError,
    UnknownVariant,
    ZeroVarianceTruth,
)
from mvelma.forest import ForestConfig
from mvelma.optim import OptimizerConfig


def tiny_cfg(**kw):
    base = dict(
        encoder=EncoderConfig(hidden=6, latent=4, seed=0),
        gp_opt=OptimizerConfig(max_epochs=8, patience=4),
        forest=ForestConfig(n_trees=15, min_samples_leaf=5, seed=0),
    )
    base.update(kw)
    return pipeline.PipelineConfig(**base)


def tiny_data(n=40, seed=0):
    ds, _ = dataio.synth_generate(n, 3, seed=seed)
    return ds


class TestEvaluate:
    def test_perfect_predictions(self):
        y = np.array([0.3, -0.1, 0.6, 0.2])
        m = pipeline.evaluate(y, y)
        assert m.mae == 0.0 and m.mape_pct == 0.0 and m.nrmse == 0.0
        assert m.r2 == 1.0

    def test_constant_mean_predictor_r2_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        m = pipeline.evaluate(np.full(4, y.mean()), y)
        assert abs(m.r2) < 1e-12

    def test_hand_computed_case(self):
        m = pipeline.evaluate([1.0, 2.0, 4.0], [1.0, 2.0, 3.0])
        assert m.mae == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert m.r2 == pytest.approx(0.5, abs=1e-12)
        assert m.mape_pct == pytest.approx(100.0 / 9.0, abs=1e-12)
        assert m.nrmse == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_zero_truth_excluded_from_mape_with_warning(self):
        with pytest.warns(UserWarning, match="excluded from MAPE"):
            m = pipeline.evaluate([0.1, 1.1, 2.0], [0.0, 1.0, 2.0])
        assert m.mape_excluded == 1
        assert m.mape_pct == pytest.approx(100.0 * 0.05, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pipeline.evaluate([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(LengthMismatch):
            pipeline.evaluate([], [])

    def test_constant_truth_rejected(self):
        with pytest.raises(ZeroVarianceTruth):
            pipeline.evaluate([1.0, 2.0], [0.5, 0.5])


class TestConfidence:
    def test_anchor_points(self):
        ref = 0.4
        var = np.array([0.0, ref**2, (ref / 4.0) ** 2, (2 * ref) ** 2])
        conf = pipeline.confidence_from_variance(var, ref)
        assert conf == pytest.approx([1.0, 0.0, 0.75, 0.0], abs=1e-12)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        var = np.sort(rng.uniform(0, 4.0, 200))
        conf = pipeline.confidence_from_variance(var, 0.9)
        assert np.all(np.diff(conf) <= 1e-15)
        assert conf.min() >= 0.0 and conf.max() <= 1.0

    def test_zero_reference(self):
        conf = pipeline.confidence_from_variance([0.0, 0.1], 0.0)
        assert conf == pytest.approx([1.0, 0.0])


class TestVariantComponents:
    @pytest.mark.parametrize(
        "tag,expected",
        [
            ("full", (True, True, True)),
            ("no-bilstm", (False, True, True)),
            ("no-gpr", (True, False, True)),
            ("no-rf", (True, True, False)),
            ("no-bilstm-gpr", (False, False, True)),
            ("no-bilstm-rf", (False, True, False)),
            ("no-gpr-rf", (True, False, False)),
        ],
    )
    def test_component_flags(self, tag, expected):
        assert pipeline.variant_components(tag) == expected

    def test_unknown_tags_rejected(self):
        with pytest.raises(UnknownVariant):
            pipeline.variant_components("no-everything")
        with pytest.raises(UnknownVariant):
            pipeline.PipelineConfig(ablation="nope")
        with pytest.raises(UnknownVariant):
            pipeline.PipelineConfig(gp_input="all")
        with pytest.raises(UnknownVariant):
            pipeline.PipelineConfig(rf_target="huh")


class TestMseHead:
    def test_matches_primitive_composition_bitwise(self):
        """The fused head block against the same loss built from one tape
        node per operation (tape_reference): value and both gradients agree
        bit for bit, since the block evaluates the same expressions."""
        rng = np.random.default_rng(31)
        z, head, y = rng.standard_normal((7, 3)), rng.standard_normal(4), rng.standard_normal(7)
        grads = []
        for block in (pipeline.mse_head_node, tr.mse_head):
            tape = nc.Tape()
            latent = tape.leaf(z)
            loss, leaf = block(tape, latent, head, y)
            nc.backward(tape, loss)
            grads.append((loss.value, latent.grad, leaf.grad))
        for ours, theirs in zip(*grads):
            assert np.array_equal(ours, theirs)


class TestStandardizer:
    def test_zero_mean_unit_std_on_fit_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(200, 5))
        s = pipeline.Standardizer.fit(x)
        t = s.transform(x)
        assert np.abs(t.mean(axis=0)).max() < 1e-12
        assert np.abs(t.std(axis=0) - 1.0).max() < 1e-12

    def test_constant_column_guard(self):
        x = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
        s = pipeline.Standardizer.fit(x)
        t = s.transform(x)
        assert s.std[0] == 1.0
        assert np.all(np.isfinite(t)) and np.all(t[:, 0] == 0.0)

    def test_three_dim_weather_broadcast(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(12, 30, 9))
        s = pipeline.Standardizer.fit(w)
        t = s.transform(w)
        assert t.shape == w.shape
        flat = t.reshape(-1, 9)
        assert np.abs(flat.mean(axis=0)).max() < 1e-12


class TestTrainJoint:
    def test_full_model_trains_and_populates_fields(self):
        ds = tiny_data()
        model = pipeline.train_joint(ds, tiny_cfg())
        assert model.encoder_params is not None
        assert model.gp_state is not None and model.gp_state.chol is not None
        assert model.forest is not None and model.head is None
        assert model.sigma_ref > 0.0
        ids = set(model.train_event_ids) | set(model.test_event_ids)
        assert ids == {e.event_id for e in ds.events}
        assert not (set(model.train_event_ids) & set(model.test_event_ids))

    def test_loss_trace_best_restore(self):
        model = pipeline.train_joint(tiny_data(), tiny_cfg())
        tr = model.loss_trace
        assert tr[-1] == min(tr) and tr[-1] <= tr[0]

    def test_deterministic_end_to_end(self):
        ds = tiny_data()
        cfg = tiny_cfg()
        m1 = pipeline.train_joint(ds, cfg)
        m2 = pipeline.train_joint(ds, cfg)
        assert m1.loss_trace == m2.loss_trace
        p1 = pipeline.predict(m1, ds)
        p2 = pipeline.predict(m2, ds)
        assert np.array_equal(p1.yhat, p2.yhat)
        assert np.array_equal(p1.gp_variance, p2.gp_variance)

    def test_constant_targets_recovered(self):
        ds = tiny_data()
        ds.targets = np.full(ds.n, 0.37)
        model = pipeline.train_joint(ds, tiny_cfg())
        test = pipeline.subset_by_ids(ds, model.test_event_ids)
        pred = pipeline.predict(model, test)
        assert np.abs(pred.yhat - 0.37).max() < 1e-3

    def test_single_event_raises_empty_split(self):
        ds = tiny_data().subset([0])
        with pytest.raises(EmptySplit):
            pipeline.train_joint(ds, tiny_cfg())

    @pytest.mark.parametrize(
        "tag,has_enc,has_gp,has_rf,has_head",
        [
            ("no-bilstm", False, True, True, False),
            ("no-gpr", True, False, True, True),
            ("no-rf", True, True, False, False),
            ("no-bilstm-gpr", False, False, True, False),
            ("no-bilstm-rf", False, True, False, False),
            ("no-gpr-rf", True, False, False, True),
        ],
    )
    def test_variant_component_presence(self, tag, has_enc, has_gp, has_rf, has_head):
        model = pipeline.train_joint(tiny_data(), tiny_cfg(ablation=tag))
        assert (model.encoder_params is not None) == has_enc
        assert (model.gp_state is not None) == has_gp
        assert (model.forest is not None) == has_rf
        assert (model.head is not None) == has_head

    def test_oof_folds_changes_stack_but_trains(self):
        ds = tiny_data(n=50)
        m_in = pipeline.train_joint(ds, tiny_cfg())
        m_oof = pipeline.train_joint(ds, tiny_cfg(oof_folds=3))
        test = pipeline.subset_by_ids(ds, m_in.test_event_ids)
        p_in = pipeline.predict(m_in, test)
        p_oof = pipeline.predict(m_oof, test)
        assert np.all(np.isfinite(p_oof.yhat))
        assert not np.array_equal(p_in.yhat, p_oof.yhat)

    def test_latent_gp_input_and_residual_target(self):
        ds = tiny_data(n=50)
        model = pipeline.train_joint(
            ds, tiny_cfg(gp_input="latent", rf_target="residual")
        )
        assert model.gp_state.train_inputs.shape[1] == 4  # latent only
        pred = pipeline.predict(model, ds)
        assert np.all(np.isfinite(pred.yhat))


class TestPredict:
    def test_single_event_row(self):
        ds = tiny_data()
        model = pipeline.train_joint(ds, tiny_cfg())
        one = ds.subset([2])
        p = pipeline.predict(model, one)
        assert len(p.event_ids) == 1 and p.yhat.shape == (1,)
        for arr in (p.yhat, p.gp_mean, p.gp_variance, p.confidence):
            assert np.all(np.isfinite(arr))

    def test_no_rf_prediction_is_gp_posterior_mean(self):
        ds = tiny_data()
        model = pipeline.train_joint(ds, tiny_cfg(ablation="no-rf"))
        p = pipeline.predict(model, ds)
        assert np.array_equal(p.yhat, p.gp_mean)

    def test_no_gp_variants_report_full_confidence(self):
        ds = tiny_data()
        model = pipeline.train_joint(ds, tiny_cfg(ablation="no-bilstm-gpr"))
        p = pipeline.predict(model, ds)
        assert np.all(p.gp_variance == 0.0) and np.all(p.confidence == 1.0)
        assert np.array_equal(p.gp_mean, p.yhat)

    def test_wrong_input_width_raises(self):
        ds = tiny_data()
        model = pipeline.train_joint(ds, tiny_cfg())
        bad = dataio.Dataset(
            events=ds.events,
            weather=ds.weather[:, :, :8],
            enriched=ds.enriched,
            targets=ds.targets,
        )
        with pytest.raises(DimensionMismatch):
            pipeline.predict(model, bad)

    def test_public_predict_matches_internal_calls_bitwise(self):
        ds = tiny_data()
        model = pipeline.train_joint(ds, tiny_cfg())
        train = pipeline.subset_by_ids(ds, model.train_event_ids)
        p = pipeline.predict(model, train)

        w3 = model.weather_std.transform(train.weather)
        static = model.enriched_std.transform(train.enriched)
        z = pipeline._encode(model.encoder_params, w3)
        post = gp.posterior(model.gp_state, np.hstack([z, static]))
        from mvelma.forest import predict_forest

        stack = np.hstack([z, static, post.mean.reshape(-1, 1)])
        assert np.array_equal(p.yhat, predict_forest(model.forest, stack))
        assert np.array_equal(p.gp_mean, post.mean)

    def test_in_sample_advantage_over_seeds(self):
        train_mae, test_mae = [], []
        for seed in range(6):
            ds = tiny_data(n=50, seed=seed)
            model = pipeline.train_joint(ds, tiny_cfg())
            tr = pipeline.subset_by_ids(ds, model.train_event_ids)
            te = pipeline.subset_by_ids(ds, model.test_event_ids)
            train_mae.append(np.abs(pipeline.predict(model, tr).yhat - tr.targets).mean())
            test_mae.append(np.abs(pipeline.predict(model, te).yhat - te.targets).mean())
        assert np.median(train_mae) <= np.median(test_mae)


class TestRunAblation:
    def test_all_variants_finite_metrics(self):
        ds = tiny_data(n=50)
        cfg = tiny_cfg()
        for tag in pipeline.VARIANTS:
            m = pipeline.run_ablation(ds, tag, cfg)
            for v in (m.mae, m.r2, m.mape_pct, m.nrmse):
                assert math.isfinite(v)
            assert m.mae >= 0.0 and m.nrmse >= 0.0 and m.r2 <= 1.0

    def test_unknown_variant(self):
        with pytest.raises(UnknownVariant):
            pipeline.run_ablation(tiny_data(), "no-model", tiny_cfg())

    def test_repeat_run_identical(self):
        ds = tiny_data(n=50)
        m1 = pipeline.run_ablation(ds, "no-bilstm", tiny_cfg())
        m2 = pipeline.run_ablation(ds, "no-bilstm", tiny_cfg())
        assert m1 == m2


class TestAggregateCounty:
    def _events(self, county_ids):
        return [
            dataio.FireEvent(
                event_id=f"e{i}", county_id=c, latitude=0.0, longitude=0.0,
                start_date=__import__("datetime").date(2020, 1, 1),
                fire_duration_days=1.0,
            )
            for i, c in enumerate(county_ids)
        ]

    def test_single_county_mean(self):
        evs = self._events(["06007", "06007"])
        out = pipeline.aggregate_county(evs, [0.1, 0.3], [0.2, 0.2], [0.9, 0.7])
        assert len(out) == 1
        assert out[0].opfvl == pytest.approx(0.2, abs=1e-15)
        assert out[0].apc == pytest.approx(0.8, abs=1e-15)

    def test_single_event_county_passthrough(self):
        out = pipeline.aggregate_county(self._events(["06001"]), [0.4], [0.5], [0.6])
        assert (out[0].opfvl, out[0].ppvl, out[0].apc) == (0.4, 0.5, 0.6)

    def test_interleaved_counties_match_groupby_oracle(self):
        rng = np.random.default_rng(8)
        counties = ["06001", "06003", "06005"]
        ids = [counties[i % 3] for i in range(30)]
        obs, prd, cnf = rng.uniform(0, 1, (3, 30))
        out = pipeline.aggregate_county(self._events(ids), obs, prd, cnf)
        groups = {}
        for c, o, p, k in zip(ids, obs, prd, cnf):
            groups.setdefault(c, []).append((o, p, k))
        assert [s.county_id for s in out] == sorted(groups)
        for s in out:
            arr = np.array(groups[s.county_id])
            assert s.opfvl == pytest.approx(arr[:, 0].mean(), abs=1e-15)
            assert s.ppvl == pytest.approx(arr[:, 1].mean(), abs=1e-15)
            assert s.apc == pytest.approx(arr[:, 2].mean(), abs=1e-15)


class TestSerialization:
    @pytest.mark.parametrize("tag", ["full", "no-gpr-rf", "no-bilstm-gpr", "no-bilstm-rf"])
    def test_round_trip_predictions_bit_identical(self, tmp_path, tag):
        ds = tiny_data(n=50)
        model = pipeline.train_joint(ds, tiny_cfg(ablation=tag))
        path = tmp_path / "model.json"
        pipeline.save_model(model, path)
        loaded = pipeline.load_model(path)
        p1 = pipeline.predict(model, ds)
        p2 = pipeline.predict(loaded, ds)
        assert np.array_equal(p1.yhat, p2.yhat)
        assert np.array_equal(p1.gp_mean, p2.gp_mean)
        assert np.array_equal(p1.gp_variance, p2.gp_variance)
        assert np.array_equal(p1.confidence, p2.confidence)
        assert loaded.loss_trace == model.loss_trace
        assert dataclasses.asdict(loaded.config) == dataclasses.asdict(model.config)

    def test_format_tag_checked(self, tmp_path):
        ds = tiny_data()
        model = pipeline.train_joint(ds, tiny_cfg())
        path = tmp_path / "model.json"
        pipeline.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format"] = "mvelma-model-v0"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="format"):
            pipeline.load_model(path)

    def test_gp_factorization_recomputed_on_load(self, tmp_path):
        ds = tiny_data()
        model = pipeline.train_joint(ds, tiny_cfg(ablation="no-rf"))
        path = tmp_path / "model.json"
        pipeline.save_model(model, path)
        loaded = pipeline.load_model(path)
        assert loaded.gp_state.chol is not None
        assert np.array_equal(loaded.gp_state.alpha, model.gp_state.alpha)


class TestTapeLifetime:
    @pytest.mark.parametrize("tag", ["full", "no-gpr", "no-bilstm"])
    def test_epoch_tapes_freed_without_cycle_collector(self, monkeypatch, tag):
        tapes = []

        class RecordingTape(nc.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        descent = optim.adam_descent
        alive_after_step = []

        def checked_descent(step_fn, x0, opt):
            def step(vec):
                out = step_fn(vec)
                alive_after_step.append(sum(ref() is not None for ref in tapes))
                return out

            return descent(step, x0, opt)

        monkeypatch.setattr(nc, "Tape", RecordingTape)
        # gp.fit and both pipeline phases look the one loop up in optim
        monkeypatch.setattr(optim, "adam_descent", checked_descent)
        gc.disable()
        try:
            pipeline.train_joint(tiny_data(), tiny_cfg(ablation=tag))
            alive_at_end = sum(ref() is not None for ref in tapes)
        finally:
            gc.enable()
        assert tapes
        assert alive_at_end == 0
        assert all(alive == 0 for alive in alive_after_step)
        assert alive_after_step

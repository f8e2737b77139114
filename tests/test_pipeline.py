import dataclasses
import gc
import hashlib
import json
import math
import weakref

import numpy as np
import pytest
import tape_reference as tr
from blas_core import pinned
from oof_reference import reference_oof_means

from mvelma import dataio, encoder, gp, gradcheck, optim, pipeline
from mvelma import numcore as nc
from mvelma.encoder import EncoderConfig
from mvelma.errors import (
    DegenerateInput,
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
        # checked also where no GP reads it, since the model file records it
        with pytest.raises(UnknownVariant, match="kernel_family"):
            pipeline.PipelineConfig(kernel_family="bogus", ablation="no-gpr")
        # three fields that accept only their one value
        for field, value in (("rf_target", "residual"), ("standardize_weather", False),
                             ("standardize_enriched", False), ("standardize_weather", 1)):
            with pytest.raises(UnknownVariant, match=field):
                pipeline.PipelineConfig(**{field: value})


class TestSeeds:
    @pytest.mark.parametrize("make", [
        lambda: dataio.synth_generate(40, 4, -1),
        lambda: EncoderConfig(seed=-1),
        lambda: ForestConfig(seed=-1),
        lambda: pipeline.PipelineConfig(split_seed=-1),
    ], ids=["synth_generate", "EncoderConfig", "ForestConfig", "PipelineConfig.split_seed"])
    def test_negative_seed_rejected(self, make):
        with pytest.raises(DegenerateInput, match="seed must be >= 0"):
            make()


class TestConfigRanges:
    @pytest.mark.parametrize("make", [
        lambda: OptimizerConfig(beta1=1.0),
        lambda: OptimizerConfig(beta1=-0.1),
        lambda: OptimizerConfig(beta2=1.0),
        lambda: OptimizerConfig(eps=0.0),
        lambda: OptimizerConfig(eps=-1.0),
        lambda: OptimizerConfig(eps=math.inf),
        lambda: OptimizerConfig(min_delta=-3.0),
        lambda: OptimizerConfig(min_delta=math.nan),
        lambda: ForestConfig(features_per_split=0),
    ], ids=["beta1=1", "beta1<0", "beta2=1", "eps=0", "eps<0", "eps=inf", "min_delta<0",
            "min_delta=nan", "features_per_split=0"])
    def test_value_out_of_range_rejected(self, make):
        """Values Adam or the forest could never train with are refused as
        any value but a field's one is."""
        with pytest.raises(UnknownVariant):
            make()

    # each field that accepts only its one value, and other values it refuses:
    # in range, at the edges of the old ranges, of another type, and None
    FIXED = [
        (OptimizerConfig, "min_delta", 1e-4, [0.0, 0.5, 1e-3, None]),
        (OptimizerConfig, "beta1", 0.9, [0.0, 0.5, 0.99, None]),
        (OptimizerConfig, "beta2", 0.999, [0.0, 0.5, 0.9999, None]),
        (OptimizerConfig, "eps", 1e-8, [1e-300, 1e-7, 0.5, None]),
        (ForestConfig, "max_depth", None, [0, 3, 1000, 0.5]),
        (ForestConfig, "features_per_split", None, [1, 2, 1000, 0.5]),
        (ForestConfig, "bootstrap", True, [False, 1, 1.0, None]),
        (pipeline.PipelineConfig, "train_fraction", 0.8, [0.5, 0.7, 0.75, 0.99, None]),
    ]

    @pytest.mark.parametrize("cls,field,value,others", FIXED, ids=[f[1] for f in FIXED])
    def test_only_the_one_value_accepted(self, cls, field, value, others):
        assert getattr(cls(), field) == value
        cls(**{field: value})
        for other in others:
            with pytest.raises(UnknownVariant, match=f"{field} must be {value!r}"):
                cls(**{field: other})


class TestMseHead:
    def test_matches_primitive_composition_bitwise(self):
        """The head's value and gradients against the same loss built from
        one tape node per operation (tape_reference): value and both
        gradients agree bit for bit, since the head evaluates the same
        expressions."""
        rng = np.random.default_rng(31)
        z, head, y = rng.standard_normal((7, 3)), rng.standard_normal(4), rng.standard_normal(7)
        value, d_head, d_z = pipeline.mse_head(z, head, y)
        tape = nc.Tape()
        latent = tape.leaf(z)
        loss, leaf = tr.mse_head(tape, latent, head, y)
        nc.backward(tape, loss, 1.0)
        assert value == loss.value.item()
        assert np.array_equal(d_z, latent.grad)
        assert np.array_equal(d_head, leaf.grad.ravel())


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
        test = pipeline.subset_by_ids(ds, model.test_event_ids, "model test split")
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

    @pytest.mark.parametrize("with_rf,without_rf", [
        ("full", "no-rf"), ("no-bilstm", "no-bilstm-rf"), ("no-gpr", "no-gpr-rf"),
    ])
    def test_forest_changes_no_earlier_phase(self, with_rf, without_rf):
        """Dropping the forest leaves the encoder, the GP and the head as they
        were, bit for bit: the forest only reads what the phases before it
        computed."""
        ds = tiny_data()
        a = pipeline.train_joint(ds, tiny_cfg(ablation=with_rf))
        b = pipeline.train_joint(ds, tiny_cfg(ablation=without_rf))
        for part in ("encoder_params", "gp_state", "head"):
            assert (getattr(a, part) is None) == (getattr(b, part) is None)
        if a.encoder_params is not None:
            assert np.array_equal(a.encoder_params.flat, b.encoder_params.flat)
        if a.gp_state is not None:
            assert np.array_equal(a.gp_state.hypers_flat(), b.gp_state.hypers_flat())
            assert np.array_equal(a.gp_state.train_inputs, b.gp_state.train_inputs)
        if a.head is not None:
            assert np.array_equal(a.head, b.head)
        assert a.sigma_ref == b.sigma_ref
        assert a.loss_trace == b.loss_trace
        if with_rf == "full":
            test = pipeline.subset_by_ids(ds, a.test_event_ids, "model test split")
            assert np.array_equal(pipeline.predict(b, test).yhat,
                                  pipeline.predict(a, test).gp_mean)

    def test_oof_folds_changes_stack_but_trains(self):
        ds = tiny_data(n=50)
        m_in = pipeline.train_joint(ds, tiny_cfg())
        m_oof = pipeline.train_joint(ds, tiny_cfg(oof_folds=3))
        test = pipeline.subset_by_ids(ds, m_in.test_event_ids, "model test split")
        p_in = pipeline.predict(m_in, test)
        p_oof = pipeline.predict(m_oof, test)
        assert np.all(np.isfinite(p_oof.yhat))
        assert not np.array_equal(p_in.yhat, p_oof.yhat)

    def test_latent_gp_input_and_residual_target(self):
        # the forest fits y itself: a residual target is no longer a config
        with pytest.raises(UnknownVariant, match="rf_target"):
            tiny_cfg(gp_input="latent", rf_target="residual")
        ds = tiny_data(n=50)
        model = pipeline.train_joint(ds, tiny_cfg(gp_input="latent"))
        assert model.gp_state.train_inputs.shape[1] == 4  # latent only
        pred = pipeline.predict(model, ds)
        assert np.all(np.isfinite(pred.yhat))

    @pytest.mark.parametrize("tag, oof_calls, final_passes", [
        ("full", 1, 2), ("no-bilstm", 1, 0), ("no-gpr", 0, 1), ("no-rf", 0, 2),
        ("no-bilstm-gpr", 0, 0), ("no-bilstm-rf", 0, 0), ("no-gpr-rf", 0, 0),
    ])
    def test_skips_what_no_output_reads(self, monkeypatch, tag, oof_calls, final_passes):
        """Out-of-fold means are computed only for a forest to read, and the
        encoder runs outside training (once for the GP's initial state, once
        for the final latents) only where the GP or the forest reads z."""
        calls = {"oof": 0, "untaped": 0}
        oof_means, forward = pipeline._oof_means, encoder.forward

        def counted_oof(*args):
            calls["oof"] += 1
            return oof_means(*args)

        def counted_forward(params, weather3, tape=None):
            calls["untaped"] += tape is None
            return forward(params, weather3, tape)

        monkeypatch.setattr(pipeline, "_oof_means", counted_oof)
        monkeypatch.setattr(encoder, "forward", counted_forward)
        pipeline.train_joint(tiny_data(), tiny_cfg(ablation=tag, oof_folds=3))
        assert calls == {"oof": oof_calls, "untaped": final_passes}


class TestOofMeans:
    """Out-of-fold GP means from the one factor, against the per-fold refit
    of oof_reference."""

    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_matches_per_fold_refit(self, family):
        # periodic parts are PSD over a Euclidean norm only in 1-D
        n = 50
        rng = np.random.default_rng(4242)
        x = rng.standard_normal((n, 1 if family in ("periodic", "composite") else 5))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(n)
        state = gp.init_state(x, y, family).refresh(x, y)
        for folds in (2, 5, n, n + 3):  # n + 3 folds leave 3 empty
            found = pipeline._oof_means(state, folds, 3)
            assert np.abs(found - reference_oof_means(state, x, y, folds, 3)).max() < 1e-10

    @pytest.mark.parametrize("tag", ["full", "no-bilstm", "no-rf", "no-bilstm-rf"])
    @pytest.mark.parametrize("folds", [0, 5, 32, 500])
    def test_one_factor_and_one_posterior_per_training(self, monkeypatch, tag, folds):
        """The 32 train rows are factored once, at any fold count, including
        leave-one-out and more folds than rows."""
        calls = {"refresh": 0, "posterior": 0}
        refresh, posterior = gp.GPState.refresh, gp.posterior

        def counted_refresh(state, *args):
            calls["refresh"] += 1
            return refresh(state, *args)

        def counted_posterior(*args):
            calls["posterior"] += 1
            return posterior(*args)

        monkeypatch.setattr(gp.GPState, "refresh", counted_refresh)
        monkeypatch.setattr(gp, "posterior", counted_posterior)
        model = pipeline.train_joint(tiny_data(), tiny_cfg(ablation=tag, oof_folds=folds))
        assert len(model.train_event_ids) == 32
        assert calls == {"refresh": 1, "posterior": 1}


# SHA-256 of the saved model and of predict's yhat, gp_mean, gp_variance and
# confidence for each variant on synth_generate(120, 4, 5), by BLAS core
VARIANT_DIGESTS = {
    "SkylakeX": {
        ("full", "latent"): (
            "de783c8c0317256febf50a414d363515b78f36bfcf2d64260810d45c8547954c",
            "bbe3494fb79258c6241717a304a5925c959849a2126d22f7f99c5604c30192eb",
            "63f3efac73f7018a283894ec37e55bc54c4ef7678a08eee6e488e73ba737bd29",
            "b40e3ab0aee6312a2a89a95ccd8b9010c68849f5b521f5c230ff00a5eba3b0e2",
            "b9a3138e8e1eb68a36e22e731b8bfa9ff7c3720a6e5091c2366006fcf01dc6e5",
        ),
        ("no-bilstm", "latent"): (
            "9b2d065a6a746d7d85f1795d4dd9cb604d9a1544a25b0034c2ec5b675a06bb97",
            "1fd0781ca9ffe28669370698ca19785a1286127c16337befd83e89c933f09da9",
            "e6371832225808a134a0a6e4cfa1de25dc33ddc2b852de22c6cfa3be9f110e81",
            "814dd17e59f4ad47f2168c72c315439666edbac1b1aba21670f581b1c828f698",
            "c9f928a206e31eff2a66f63fd6a49e32c9e4cafeac532e88692243af94479644",
        ),
        ("no-gpr", "latent"): (
            "e66700e342288a93fce83e55ae2d602a098ed9cdbd31ef0f05fad2919c1f519d",
            "b63db5d1f384a8d44ad4dc7fe37c2f36a047e81b7eaef56ae087f1322c99423f",
            "b63db5d1f384a8d44ad4dc7fe37c2f36a047e81b7eaef56ae087f1322c99423f",
            "3dc463a76fc170607c07b104c3cb531362ce7d6e10c1a34e0c0f370aeae08ce8",
            "ec38ca809caaf4ffee20de9f376ae3f3ec363403e4875ba125c2f080ed75eb6d",
        ),
        ("no-rf", "latent"): (
            "7f4d14402406f3006aeeb38a70f14b4d93d2adab4820a729ef480b3200c54ca8",
            "63f3efac73f7018a283894ec37e55bc54c4ef7678a08eee6e488e73ba737bd29",
            "63f3efac73f7018a283894ec37e55bc54c4ef7678a08eee6e488e73ba737bd29",
            "b40e3ab0aee6312a2a89a95ccd8b9010c68849f5b521f5c230ff00a5eba3b0e2",
            "b9a3138e8e1eb68a36e22e731b8bfa9ff7c3720a6e5091c2366006fcf01dc6e5",
        ),
        ("no-bilstm-gpr", "latent"): (
            "473c6b6209144486893ed619004dfa4bb4a6faeb0c6ae5700d81b98c5f199eda",
            "877dcbc6f1f3830bbba391d7c3311eb5f526f7d99751ef37c53636eee587a02b",
            "877dcbc6f1f3830bbba391d7c3311eb5f526f7d99751ef37c53636eee587a02b",
            "3dc463a76fc170607c07b104c3cb531362ce7d6e10c1a34e0c0f370aeae08ce8",
            "ec38ca809caaf4ffee20de9f376ae3f3ec363403e4875ba125c2f080ed75eb6d",
        ),
        ("no-bilstm-rf", "latent"): (
            "0594c7b31907fbadcdf39229bbdb957bbc17d249545870d910a690dce44cc542",
            "e6371832225808a134a0a6e4cfa1de25dc33ddc2b852de22c6cfa3be9f110e81",
            "e6371832225808a134a0a6e4cfa1de25dc33ddc2b852de22c6cfa3be9f110e81",
            "814dd17e59f4ad47f2168c72c315439666edbac1b1aba21670f581b1c828f698",
            "c9f928a206e31eff2a66f63fd6a49e32c9e4cafeac532e88692243af94479644",
        ),
        ("no-gpr-rf", "latent"): (
            "96ee9259e327d6cf5d5a7272ebb084ad77f2e17013918ac79ea66de8ad5b62fa",
            "24171c3c0f71bb70276b40f27c17173e0940af6e7e4b0ced506797aede6cfc5b",
            "24171c3c0f71bb70276b40f27c17173e0940af6e7e4b0ced506797aede6cfc5b",
            "3dc463a76fc170607c07b104c3cb531362ce7d6e10c1a34e0c0f370aeae08ce8",
            "ec38ca809caaf4ffee20de9f376ae3f3ec363403e4875ba125c2f080ed75eb6d",
        ),
        ("full", "stacked"): (
            "32fadb624aba1af8931d346934a4072511722c1d352c6c484f8adf11aa1b8ff8",
            "4d4a93b2cc9a6bb04f3cd8443f965d3e99d4f49113b5ef2e8778108db84bbacb",
            "056eb2414b904558143d59b801c38fa672447c80e56d819c307a2888720b3302",
            "4736d189d0b8e14b070af100f089fa293076eefda096e72cec0753d7b95b6206",
            "fbeea32adf93b1d7f79e5c0c121e16b5b276695e77bcd58b9555a001626a08ac",
        ),
    },
    "Haswell": {
        ("full", "latent"): (
            "c9bcf56b4943c74b7b7ef379372ed7439a508b41a13f3935af3c729cc4667a8c",
            "bbe3494fb79258c6241717a304a5925c959849a2126d22f7f99c5604c30192eb",
            "2a01b5227039ec52533d4bd4e57bbf7f0589327c96e6fcf7194b1381f2c72a0d",
            "c1a1f4405ce8986e0c9890a78f6b72ab0ea952cf7f99636d86950cd386730458",
            "a29d5411abd85f4118c8f2a321f7c306ebc85a8d0c9ef5895ca6643146280ad4",
        ),
        ("no-bilstm", "latent"): (
            "850c6230cb321db64e720c15483f464f5ddd7924c39d27c851b623aace420dec",
            "1fd0781ca9ffe28669370698ca19785a1286127c16337befd83e89c933f09da9",
            "dfeb707d88e4823c1580c2237ae9ef3b7fdf55d5205981b1b571e8caf6f355bf",
            "608d3af5629a15c9e50c4a6b550dae340a7d6996851f31b9743be83dd0261246",
            "13f2b349f2bffb26e910af18fc2e77572a06152f855303a63dd73eeb0e265726",
        ),
        ("no-gpr", "latent"): (
            "9ed8425f5a99d7454bcddc829c30387f31756f76b92fd02039842f6233b4fc2b",
            "b63db5d1f384a8d44ad4dc7fe37c2f36a047e81b7eaef56ae087f1322c99423f",
            "b63db5d1f384a8d44ad4dc7fe37c2f36a047e81b7eaef56ae087f1322c99423f",
            "3dc463a76fc170607c07b104c3cb531362ce7d6e10c1a34e0c0f370aeae08ce8",
            "ec38ca809caaf4ffee20de9f376ae3f3ec363403e4875ba125c2f080ed75eb6d",
        ),
        ("no-rf", "latent"): (
            "730af15911833ad7504eba6748e19078f53ad010bc65421b49ebaef06aa13ea5",
            "2a01b5227039ec52533d4bd4e57bbf7f0589327c96e6fcf7194b1381f2c72a0d",
            "2a01b5227039ec52533d4bd4e57bbf7f0589327c96e6fcf7194b1381f2c72a0d",
            "c1a1f4405ce8986e0c9890a78f6b72ab0ea952cf7f99636d86950cd386730458",
            "a29d5411abd85f4118c8f2a321f7c306ebc85a8d0c9ef5895ca6643146280ad4",
        ),
        ("no-bilstm-gpr", "latent"): (
            "473c6b6209144486893ed619004dfa4bb4a6faeb0c6ae5700d81b98c5f199eda",
            "877dcbc6f1f3830bbba391d7c3311eb5f526f7d99751ef37c53636eee587a02b",
            "877dcbc6f1f3830bbba391d7c3311eb5f526f7d99751ef37c53636eee587a02b",
            "3dc463a76fc170607c07b104c3cb531362ce7d6e10c1a34e0c0f370aeae08ce8",
            "ec38ca809caaf4ffee20de9f376ae3f3ec363403e4875ba125c2f080ed75eb6d",
        ),
        ("no-bilstm-rf", "latent"): (
            "63bea60aebfaf386b50e2013a3bbb0e090ebb0f127c3726fb50329830acb61f9",
            "dfeb707d88e4823c1580c2237ae9ef3b7fdf55d5205981b1b571e8caf6f355bf",
            "dfeb707d88e4823c1580c2237ae9ef3b7fdf55d5205981b1b571e8caf6f355bf",
            "608d3af5629a15c9e50c4a6b550dae340a7d6996851f31b9743be83dd0261246",
            "13f2b349f2bffb26e910af18fc2e77572a06152f855303a63dd73eeb0e265726",
        ),
        ("no-gpr-rf", "latent"): (
            "694db187fc1cedd863f2cdadbc6e5434fd6b916e681902aa64bb7490a049bba4",
            "fb60cbb826c09e552251488498d928e843e5d08c621915b142b95f3b4860658b",
            "fb60cbb826c09e552251488498d928e843e5d08c621915b142b95f3b4860658b",
            "3dc463a76fc170607c07b104c3cb531362ce7d6e10c1a34e0c0f370aeae08ce8",
            "ec38ca809caaf4ffee20de9f376ae3f3ec363403e4875ba125c2f080ed75eb6d",
        ),
        ("full", "stacked"): (
            "64f77ec17437cc439981f1bc2d9c32f11b2d5479984a229d0195df4e249050f9",
            "4d4a93b2cc9a6bb04f3cd8443f965d3e99d4f49113b5ef2e8778108db84bbacb",
            "f6c47c7e9523e5eec44e2a6b9390ce85e8cd39dd7541beb2397296694e76ca5b",
            "8aa3a893af61f45d104ea091b74206296b5957399c61594b0432acd2e10b527c",
            "e04aeaa5d2edd41675fe3ff66c8a5530508074a543a43b97cbff1d84cca2e16a",
        ),
    },
}


@pytest.mark.determinism
class TestVariantDigests:
    """Each variant's saved model and predict's four arrays, pinned by their
    SHA-256: a change meant to keep the outputs must keep every byte, at any
    BLAS thread count. The saved model, loaded and saved again, keeps its
    bytes too."""

    @pytest.fixture(scope="class")
    def data(self):
        return dataio.synth_generate(120, 4, 5)[0]

    @pytest.mark.parametrize("tag, gp_input", list(VARIANT_DIGESTS["SkylakeX"]))
    def test_model_and_predictions_pinned(self, data, tmp_path, tag, gp_input):
        cfg = pipeline.PipelineConfig(
            encoder=EncoderConfig(hidden=8, latent=4), gp_opt=OptimizerConfig(max_epochs=15),
            forest=ForestConfig(n_trees=20), gp_input=gp_input, ablation=tag,
            oof_folds=3 if gp_input == "latent" else 0,
        )
        model = pipeline.train_joint(data, cfg)
        path = tmp_path / "model.json"
        pipeline.save_model(model, path)
        pred = pipeline.predict(model, data)
        arrays = (pred.yhat, pred.gp_mean, pred.gp_variance, pred.confidence)
        found = (hashlib.sha256(path.read_bytes()).hexdigest(),
                 *(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays))
        assert found == pinned(VARIANT_DIGESTS)[tag, gp_input]
        pipeline.save_model(pipeline.load_model(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


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
        train = pipeline.subset_by_ids(ds, model.train_event_ids, "model train split")
        p = pipeline.predict(model, train)

        w3 = model.weather_std.transform(train.weather)
        static = model.enriched_std.transform(train.enriched)
        z = pipeline._latent(model.encoder_params, w3)
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
            tr = pipeline.subset_by_ids(ds, model.train_event_ids, "model train split")
            te = pipeline.subset_by_ids(ds, model.test_event_ids, "model test split")
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


class TestBlasPin:
    def test_caller_pool_restored_after_each_pinned_call(self, tmp_path, monkeypatch, blas_pool):
        """Each entry point computes with one BLAS thread and gives the
        caller's two back, also when nested (run_ablation) or when it
        raises."""
        get, put = blas_pool
        put(2)
        seen = []

        def recording(fn):
            def call(*args, **kwargs):
                seen.append(get())
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(pipeline, "_latent", recording(pipeline._latent))
        monkeypatch.setattr(gp.GPState, "refresh", recording(gp.GPState.refresh))
        monkeypatch.setattr(gradcheck, "_mse_head_case", recording(gradcheck._mse_head_case))
        ds, path = tiny_data(), tmp_path / "model.json"
        calls = [
            lambda: pipeline.save_model(pipeline.train_joint(ds, tiny_cfg()), path),
            lambda: pipeline.load_model(path),
            lambda: pipeline.predict(pipeline.load_model(path), ds),
            lambda: gradcheck.run_all(1),
            lambda: pipeline.run_ablation(ds, "no-gpr", tiny_cfg()),
        ]
        for call in calls:
            seen.clear()
            call()
            assert seen and set(seen) == {1}
            assert get() == 2
        with pytest.raises(EmptySplit):
            pipeline.train_joint(tiny_data().subset([0]), tiny_cfg())
        assert get() == 2


class TestTapeLifetime:
    @pytest.mark.parametrize("tag", ["full", "no-gpr", "no-bilstm"])
    def test_epoch_tapes_freed_without_cycle_collector(self, monkeypatch, tag):
        self.check_tapes_freed(monkeypatch, tag)

    def test_epoch_tapes_freed_with_threaded_encoder(self, monkeypatch):
        # both encoder directions on two threads, wherever two CPUs are available
        # (train_joint holds the BLAS pin)
        monkeypatch.setattr(encoder, "_THREAD_MIN_STATE", 0)
        self.check_tapes_freed(monkeypatch, "full")

    @staticmethod
    def check_tapes_freed(monkeypatch, tag):
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
        # only the encoder trains on a tape; gp.fit takes the likelihood's
        # gradient directly
        assert bool(tapes) == pipeline.variant_components(tag)[0]
        assert alive_at_end == 0
        assert all(alive == 0 for alive in alive_after_step)
        assert alive_after_step

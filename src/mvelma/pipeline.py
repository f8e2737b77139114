"""End-to-end stacked model: joint encoder + GP training on the marginal
likelihood, posterior-mean feature stacking, forest fitting, metrics, the
seven ablation variants, and county-level aggregation.

Training runs in three phases. Phase 1 optimizes the sequence encoder
parameters and the GP hyperparameters together with one Adam loop on the
negative marginal log likelihood over [z ; static]. Phase 2 computes the
GP's in-sample posterior means (optionally out-of-fold). Phase 3 fits the
forest on [z ; static ; posterior mean]. Ablation variants drop components:
without the encoder, z becomes the 9 per-channel 30-day weather means;
without the GP, the encoder trains against a linear head by mean squared
error and the posterior-mean column disappears; without the forest, the
prediction is the GP posterior mean itself.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import encoder as enc
from . import gp, optim
from . import numcore as nc
from .dataio import ENRICHED_COLUMNS, CountySummary, Dataset, split_dataset
from .errors import (
    DimensionMismatch,
    EmptySplit,
    LengthMismatch,
    SchemaError,
    UnknownVariant,
    ZeroVarianceTruth,
)
from .forest import Forest, ForestConfig, RegressionTree, fit_forest, predict_forest
from .optim import OptimizerConfig

VARIANTS = (
    "full", "no-bilstm", "no-gpr", "no-rf",
    "no-bilstm-gpr", "no-bilstm-rf", "no-gpr-rf",
)
MODEL_FORMAT = "mvelma-model-v1"


def variant_components(tag: str):
    """(uses_encoder, uses_gp, uses_forest) for an ablation tag."""
    if tag not in VARIANTS:
        raise UnknownVariant(f"unknown ablation variant {tag!r}; choose from {VARIANTS}")
    removed = set() if tag == "full" else set(tag.split("-")[1:])
    return "bilstm" not in removed, "gpr" not in removed, "rf" not in removed


@dataclass
class PipelineConfig:
    encoder: enc.EncoderConfig = field(default_factory=enc.EncoderConfig)
    kernel_family: str = "matern25"
    gp_opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    gp_input: str = "stacked"  # GP sees [z ; static] ("stacked") or z alone ("latent")
    rf_target: str = "direct"  # forest fits y ("direct") or y - mu ("residual")
    ablation: str = "full"
    train_fraction: float = 0.8
    split_seed: int = 0
    standardize_weather: bool = True
    standardize_enriched: bool = True
    oof_folds: int = 0  # >= 2 enables out-of-fold posterior means for the stack

    def __post_init__(self):
        variant_components(self.ablation)
        if self.gp_input not in ("stacked", "latent"):
            raise UnknownVariant(f"unknown gp_input mode {self.gp_input!r}")
        if self.rf_target not in ("direct", "residual"):
            raise UnknownVariant(f"unknown rf_target mode {self.rf_target!r}")


@dataclass
class Standardizer:
    """Column z-scoring with the fitted statistics kept for prediction time."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = np.asarray(x, dtype=np.float64).reshape(-1, x.shape[-1])
        std = x.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=x.mean(axis=0), std=std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


@dataclass
class TrainedModel:
    config: PipelineConfig
    weather_std: Standardizer | None
    enriched_std: Standardizer | None
    encoder_params: enc.EncoderParams | None
    gp_state: gp.GPState | None
    forest: Forest | None
    head: np.ndarray | None  # latent+1 weights of the encoder-only linear head
    sigma_ref: float
    train_event_ids: list
    test_event_ids: list
    loss_trace: list


@dataclass
class Prediction:
    event_ids: list
    yhat: np.ndarray
    gp_mean: np.ndarray
    gp_variance: np.ndarray
    confidence: np.ndarray


@dataclass
class Metrics:
    mae: float
    r2: float
    mape_pct: float
    nrmse: float
    mape_excluded: int = 0


# ---------------------------------------------------------------------------
# Metrics and confidence
# ---------------------------------------------------------------------------


def evaluate(pred, truth) -> Metrics:
    """MAE, R^2, MAPE (%), and NRMSE (RMSE over the population std of the
    truth). Zero-truth entries are excluded from the MAPE average and
    counted with a warning."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    y = np.asarray(truth, dtype=np.float64).ravel()
    if p.size != y.size or p.size == 0:
        raise LengthMismatch(f"{p.size} predictions vs {y.size} truths")
    sd = float(y.std())
    if sd == 0.0:
        raise ZeroVarianceTruth("R^2 and NRMSE are undefined for constant truth")
    err = p - y
    mae = float(np.abs(err).mean())
    r2 = 1.0 - float((err * err).sum()) / float(((y - y.mean()) ** 2).sum())
    nonzero = y != 0.0
    excluded = int(y.size - nonzero.sum())
    if excluded:
        warnings.warn(f"{excluded} zero-truth value(s) excluded from MAPE")
    mape = 100.0 * float(np.abs(err[nonzero] / y[nonzero]).mean())
    nrmse = float(np.sqrt((err * err).mean())) / sd
    return Metrics(mae=mae, r2=r2, mape_pct=mape, nrmse=nrmse, mape_excluded=excluded)


def confidence_from_variance(variance, sigma_ref: float) -> np.ndarray:
    """Linear map from posterior sd to [0, 1]: 1 - min(sigma/sigma_ref, 1)."""
    var = np.maximum(np.asarray(variance, dtype=np.float64), 0.0)
    sd = np.sqrt(var)
    if sigma_ref <= 0.0:
        return np.where(sd == 0.0, 1.0, 0.0)
    return 1.0 - np.minimum(sd / sigma_ref, 1.0)


# ---------------------------------------------------------------------------
# Training internals
# ---------------------------------------------------------------------------


def mse_head_node(tape: nc.Tape, latent: nc.Node, head: np.ndarray, y: np.ndarray):
    """Mean squared error of the linear head z @ w + b against y, as one
    fused tape block.

    ``head`` is [w ; b]. Registers one leaf holding it and returns
    ``(loss, leaf)``; the loss node's parents are that leaf and the latent
    node. With r = z w + b - y the adjoint is (2/N) r for the prediction,
    so d/dz = (2/N) r w^T, d/dw = (2/N) z^T r and d/db = (2/N) sum(r).
    """
    leaf = tape.leaf(head)
    z, w, b = latent.value, leaf.value[:-1], leaf.value[-1:]
    resid = (z @ w + b) - nc.as_matrix(y)
    scale = 1.0 / resid.shape[0]

    def vjp(g):
        d_pred = 2.0 * ((g[0, 0] * scale) * resid)
        return np.vstack([z.T @ d_pred, d_pred.sum(axis=0, keepdims=True)]), d_pred @ w.T

    value = (resid * resid).sum() * scale
    return nc.Node(tape, np.array([[value]]), (leaf, latent), vjp), leaf


def _channel_means(weather3: np.ndarray) -> np.ndarray:
    return weather3.mean(axis=1)


def _gp_inputs(z: np.ndarray, static: np.ndarray, mode: str) -> np.ndarray:
    return z if mode == "latent" else np.hstack([z, static])


def _encode(params: enc.EncoderParams, weather3: np.ndarray) -> np.ndarray:
    return enc.forward(params, weather3, nc.Tape()).Z


def _train_joint_phase(weather3, static, y, cfg: PipelineConfig):
    """Encoder params and GP hyperparameters under one Adam loop on the NMLL.

    Returns the best encoder parameters, the refreshed GP state, the loss
    trace and the train latents under the best parameters."""
    params0 = enc.init_params(cfg.encoder)
    x0 = _gp_inputs(_encode(params0, weather3), static, cfg.gp_input)
    gp0 = gp.init_state(x0, y, cfg.kernel_family)
    n_enc = params0.flatten().size
    fixed = static if cfg.gp_input == "stacked" else None

    def step(vec):
        tape = nc.Tape()
        out = enc.forward(enc.EncoderParams.from_flat(cfg.encoder, vec[:n_enc]), weather3, tape)
        loss, hypers = gp.nmll_node(tape, gp0.with_hypers_flat(vec[n_enc:]), out.latent, y, fixed)
        nc.backward(tape, loss)
        return loss.value.item(), np.concatenate([out.params.grad.ravel(), hypers.grad.ravel()])

    vec0 = np.concatenate([params0.flatten(), gp0.hypers_flat()])
    best, trace = optim.adam_descent(step, vec0, cfg.gp_opt)
    params = enc.EncoderParams.from_flat(cfg.encoder, best[:n_enc])
    z = _encode(params, weather3)
    state = gp0.with_hypers_flat(best[n_enc:]).refresh(_gp_inputs(z, static, cfg.gp_input), y)
    return params, state, trace, z


def _train_mse_phase(weather3, y, cfg: PipelineConfig):
    """Encoder plus a linear head trained by mean squared error; used when
    the GP is ablated away and the encoder has no likelihood to descend."""
    params0 = enc.init_params(cfg.encoder)
    n_enc = params0.flatten().size
    d = cfg.encoder.latent
    rng = np.random.default_rng(cfg.encoder.seed + 1)
    head0 = np.concatenate([rng.uniform(-1.0, 1.0, d) / math.sqrt(d), [0.0]])

    def step(vec):
        tape = nc.Tape()
        out = enc.forward(enc.EncoderParams.from_flat(cfg.encoder, vec[:n_enc]), weather3, tape)
        loss, head = mse_head_node(tape, out.latent, vec[n_enc:], y)
        nc.backward(tape, loss)
        return loss.value.item(), np.concatenate([out.params.grad.ravel(), head.grad.ravel()])

    vec0 = np.concatenate([params0.flatten(), head0])
    best, trace = optim.adam_descent(step, vec0, cfg.gp_opt)
    return enc.EncoderParams.from_flat(cfg.encoder, best[:n_enc]), best[n_enc:], trace


def _oof_means(state: gp.GPState, x: np.ndarray, y: np.ndarray, folds: int, seed: int):
    """Out-of-fold posterior means with hyperparameters held fixed."""
    n = x.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    mu = np.empty(n)
    for f in range(folds):
        hold = order[f::folds]
        keep = np.setdiff1d(order, hold)
        st = state.refresh(x[keep], y[keep])
        mu[hold] = gp.posterior(st, x[hold]).mean
    return mu


def train_joint(data: Dataset, cfg: PipelineConfig | None = None) -> TrainedModel:
    """Split the dataset, run the three training phases on the train part,
    and return a model that remembers both split id sets."""
    cfg = cfg or PipelineConfig()
    if data.n < 2:
        raise EmptySplit("need at least 2 events to hold out a test split")
    train, test = split_dataset(data, cfg.train_fraction, cfg.split_seed)
    if train.n == 0:
        raise EmptySplit("train split is empty")
    uses_encoder, uses_gp, uses_forest = variant_components(cfg.ablation)

    weather_std = Standardizer.fit(train.weather) if cfg.standardize_weather else None
    enriched_std = Standardizer.fit(train.enriched) if cfg.standardize_enriched else None
    w3 = weather_std.transform(train.weather) if weather_std else train.weather
    static = enriched_std.transform(train.enriched) if enriched_std else train.enriched
    y = train.targets

    encoder_params, gp_state, head, trace = None, None, None, []
    if uses_encoder and uses_gp:
        encoder_params, gp_state, trace, z = _train_joint_phase(w3, static, y, cfg)
    elif uses_encoder:
        encoder_params, head, trace = _train_mse_phase(w3, y, cfg)
        z = _encode(encoder_params, w3)
    else:
        z = _channel_means(w3)
        if uses_gp:
            x = _gp_inputs(z, static, cfg.gp_input)
            gp_state, trace = gp.fit(
                gp.init_state(x, y, cfg.kernel_family), x, y, cfg.gp_opt
            )

    sigma_ref = 0.0
    forest = None
    if uses_gp:
        x = _gp_inputs(z, static, cfg.gp_input)
        post = gp.posterior(gp_state, x)
        sigma_ref = float(np.sqrt(np.maximum(post.variance, 0.0)).max())
        if cfg.oof_folds >= 2:
            mu = _oof_means(gp_state, x, y, cfg.oof_folds, cfg.split_seed)
        else:
            mu = post.mean
        if uses_forest:
            stack = np.hstack([z, static, mu.reshape(-1, 1)])
            rf_y = y - mu if cfg.rf_target == "residual" else y
            forest = fit_forest(stack, rf_y, cfg.forest)
    elif uses_forest:
        forest = fit_forest(np.hstack([z, static]), y, cfg.forest)

    return TrainedModel(
        config=cfg,
        weather_std=weather_std,
        enriched_std=enriched_std,
        encoder_params=encoder_params,
        gp_state=gp_state,
        forest=forest,
        head=head,
        sigma_ref=sigma_ref,
        train_event_ids=[e.event_id for e in train.events],
        test_event_ids=[e.event_id for e in test.events],
        loss_trace=[float(v) for v in trace],
    )


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict(model: TrainedModel, data: Dataset) -> Prediction:
    """Run the trained stack on a dataset. Variants without the GP report
    zero predictive variance (confidence 1)."""
    cfg = model.config
    uses_encoder, uses_gp, uses_forest = variant_components(cfg.ablation)
    if data.weather.shape[1:] != (cfg.encoder.seq_len, cfg.encoder.input_width):
        raise DimensionMismatch(
            f"weather block {data.weather.shape[1:]} does not match "
            f"({cfg.encoder.seq_len}, {cfg.encoder.input_width})"
        )
    w3 = model.weather_std.transform(data.weather) if model.weather_std else data.weather
    static = (
        model.enriched_std.transform(data.enriched) if model.enriched_std else data.enriched
    )
    if uses_encoder:
        z = _encode(model.encoder_params, w3)
    else:
        z = _channel_means(w3)

    n = data.n
    if uses_gp:
        post = gp.posterior(model.gp_state, _gp_inputs(z, static, cfg.gp_input))
        mu, var = post.mean, np.maximum(post.variance, 0.0)
        conf = confidence_from_variance(var, model.sigma_ref)
    if uses_gp and uses_forest:
        rf_out = predict_forest(model.forest, np.hstack([z, static, mu.reshape(-1, 1)]))
        yhat = mu + rf_out if cfg.rf_target == "residual" else rf_out
    elif uses_gp:
        yhat = mu.copy()
    elif uses_forest:
        yhat = predict_forest(model.forest, np.hstack([z, static]))
    else:
        yhat = z @ model.head[:-1] + model.head[-1]
    if not uses_gp:
        mu, var, conf = yhat.copy(), np.zeros(n), np.ones(n)

    return Prediction(
        event_ids=[e.event_id for e in data.events],
        yhat=np.asarray(yhat, dtype=np.float64),
        gp_mean=mu,
        gp_variance=var,
        confidence=conf,
    )


def subset_by_ids(data: Dataset, event_ids) -> Dataset:
    lookup = {e.event_id: i for i, e in enumerate(data.events)}
    return data.subset([lookup[eid] for eid in event_ids])


def run_ablation(data: Dataset, variant: str, cfg: PipelineConfig | None = None) -> Metrics:
    """Train one variant on the configured split and return test metrics."""
    cfg = replace(cfg, ablation=variant) if cfg else PipelineConfig(ablation=variant)
    model = train_joint(data, cfg)
    test = subset_by_ids(data, model.test_event_ids)
    pred = predict(model, test)
    return evaluate(pred.yhat, test.targets)


def aggregate_county(events, observed, predicted, confidence):
    """Per-county arithmetic means, sorted ascending by county id."""
    groups: dict = {}
    for ev, o, p, c in zip(events, observed, predicted, confidence):
        groups.setdefault(ev.county_id, []).append((o, p, c))
    out = []
    for cid in sorted(groups):
        arr = np.array(groups[cid])
        out.append(CountySummary(
            county_id=cid,
            opfvl=float(arr[:, 0].mean()),
            ppvl=float(arr[:, 1].mean()),
            apc=float(arr[:, 2].mean()),
        ))
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _std_doc(s: Standardizer | None):
    return None if s is None else {"mean": s.mean.tolist(), "std": s.std.tolist()}


def _std_from(doc, width: int, what: str):
    if doc is None:
        return None
    s = Standardizer(
        mean=np.asarray(doc["mean"], dtype=np.float64),
        std=np.asarray(doc["std"], dtype=np.float64),
    )
    if s.mean.shape != (width,) or s.std.shape != (width,):
        raise SchemaError(f"{what} standardizer needs {width} means and {width} stds")
    return s


def save_model(model: TrainedModel, path) -> None:
    """Write the model as self-describing JSON. Floats round-trip exactly;
    the GP's Cholesky factor is recomputed on load."""
    gp_doc = None
    if model.gp_state is not None:
        st = model.gp_state
        gp_doc = {
            "kernel": asdict(st.kernel),
            "log_noise": st.log_noise,
            "mean_const": st.mean_const,
            "train_inputs": st.train_inputs.tolist(),
            "train_targets": st.train_targets.tolist(),
        }
    forest_doc = None
    if model.forest is not None:
        forest_doc = {
            "config": asdict(model.forest.config),
            "importances": model.forest.importances.tolist(),
            "n_features": model.forest.n_features,
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                }
                for t in model.forest.trees
            ],
        }
    doc = {
        "format": MODEL_FORMAT,
        "config": asdict(model.config),
        "weather_std": _std_doc(model.weather_std),
        "enriched_std": _std_doc(model.enriched_std),
        "encoder_params": None
        if model.encoder_params is None
        else model.encoder_params.flatten().tolist(),
        "gp": gp_doc,
        "forest": forest_doc,
        "head": None if model.head is None else model.head.tolist(),
        "sigma_ref": model.sigma_ref,
        "train_event_ids": model.train_event_ids,
        "test_event_ids": model.test_event_ids,
        "loss_trace": model.loss_trace,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _config_from_doc(d) -> PipelineConfig:
    return PipelineConfig(
        encoder=enc.EncoderConfig(**d["encoder"]),
        kernel_family=d["kernel_family"],
        gp_opt=OptimizerConfig(**d["gp_opt"]),
        forest=ForestConfig(**d["forest"]),
        gp_input=d["gp_input"],
        rf_target=d["rf_target"],
        ablation=d["ablation"],
        train_fraction=d["train_fraction"],
        split_seed=d["split_seed"],
        standardize_weather=d["standardize_weather"],
        standardize_enriched=d["standardize_enriched"],
        oof_folds=d["oof_folds"],
    )


def _tree_from_doc(t, n_features: int) -> RegressionTree:
    """A forest tree whose node arrays agree in length, whose features are
    -1 (leaf) or a column index, and whose internal nodes point at children
    in range and after themselves, so every walk from the root ends at a
    leaf."""
    tree = RegressionTree(
        feature=np.asarray(t["feature"], dtype=np.int64),
        threshold=np.asarray(t["threshold"], dtype=np.float64),
        left=np.asarray(t["left"], dtype=np.int64),
        right=np.asarray(t["right"], dtype=np.int64),
        value=np.asarray(t["value"], dtype=np.float64),
    )
    size = tree.feature.size
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    if size == 0 or any(a.ndim != 1 or a.size != size for a in arrays):
        raise SchemaError("forest tree node arrays are empty or differ in length")
    if np.any(tree.feature < -1) or np.any(tree.feature >= n_features):
        raise SchemaError(f"forest tree feature index outside [-1, {n_features})")
    internal = np.flatnonzero(tree.feature >= 0)
    for child in (tree.left[internal], tree.right[internal]):
        if np.any(child <= internal) or np.any(child >= size):
            raise SchemaError("forest tree child index out of range or not after its parent")
    return tree


def _typed(value, types, what: str):
    """value itself when it is one of `types` (bool never counts as a number)."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise SchemaError(f"{what} has type {type(value).__name__}")
    return value


def _model_from_doc(doc) -> TrainedModel:
    cfg = _config_from_doc(doc["config"])

    gp_state = None
    if doc["gp"] is not None:
        d = doc["gp"]
        gp_state = gp.GPState(
            kernel=gp.KernelSpec(**d["kernel"]),
            log_noise=_typed(d["log_noise"], (int, float), "gp log_noise"),
            mean_const=_typed(d["mean_const"], (int, float), "gp mean_const"),
        ).refresh(
            np.asarray(d["train_inputs"], dtype=np.float64),
            np.asarray(d["train_targets"], dtype=np.float64),
        )

    forest = None
    if doc["forest"] is not None:
        d = doc["forest"]
        n_features = _typed(d["n_features"], int, "forest n_features")
        trees = [_tree_from_doc(t, n_features) for t in _typed(d["trees"], list, "forest trees")]
        if not trees:
            raise SchemaError("forest has no trees")
        forest = Forest(
            trees=trees,
            importances=np.asarray(d["importances"], dtype=np.float64),
            n_features=n_features,
            config=ForestConfig(**d["config"]),
        )

    return TrainedModel(
        config=cfg,
        weather_std=_std_from(doc["weather_std"], cfg.encoder.input_width, "weather"),
        enriched_std=_std_from(doc["enriched_std"], len(ENRICHED_COLUMNS), "enriched"),
        encoder_params=None
        if doc["encoder_params"] is None
        else enc.EncoderParams.from_flat(
            cfg.encoder, np.asarray(doc["encoder_params"], dtype=np.float64)
        ),
        gp_state=gp_state,
        forest=forest,
        head=None if doc["head"] is None else np.asarray(doc["head"], dtype=np.float64),
        sigma_ref=_typed(doc["sigma_ref"], (int, float), "sigma_ref"),
        train_event_ids=_typed(doc["train_event_ids"], list, "train_event_ids"),
        test_event_ids=_typed(doc["test_event_ids"], list, "test_event_ids"),
        loss_trace=_typed(doc["loss_trace"], list, "loss_trace"),
    )


def load_model(path) -> TrainedModel:
    """Read a model written by save_model.

    A file that is not such a model (truncated JSON, another format tag, a
    missing key, a value of the wrong type, a malformed forest tree) raises
    a one-line SchemaError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        found = doc.get("format") if isinstance(doc, dict) else None
        raise SchemaError(f"{path}: unsupported model format {found!r}")
    try:
        return _model_from_doc(doc)
    except KeyError as exc:
        raise SchemaError(f"{path}: model has no key {exc}") from None
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    except (TypeError, ValueError) as exc:
        message = " ".join(str(exc).split())
        raise SchemaError(f"{path}: malformed model ({type(exc).__name__}: {message})") from None

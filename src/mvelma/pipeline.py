"""End-to-end stacked model: joint encoder + GP training on the marginal
likelihood, posterior-mean feature stacking, forest fitting, metrics, the
seven ablation variants, and county-level aggregation.

train_joint runs in phases on the z-scored weather block and static
descriptors. First the representation: the encoder and the
GP hyperparameters descend the negative marginal log likelihood over
[z ; static] together; without the GP the encoder trains against a linear
head by mean squared error; without the encoder nothing trains and z is the
9 per-channel 30-day weather means. Then, alike for all seven variants and
each only where an output reads it: z, the GP inputs, the GP state (a
hyperparameter-only fit when there is no encoder), the in-sample posterior
means (out-of-fold for the forest when oof_folds >= 2, all from the state's
one Cholesky factor, and leave-one-out when oof_folds is at least the train
count), and the forest, which fits y on [z ; static ; posterior mean], or
[z ; static] without the GP. Without the forest the prediction is the GP
mean. predict builds its inputs with the same helpers (_standardized,
_latent, _gp_inputs, _stack), and subset_by_ids is the one map from event
ids to dataset rows. save_model writes the model as one JSON document and
load_model reads it back, both through one declared schema, _MODEL, which
maps each key to the kind of its value.
"""

from __future__ import annotations

import functools
import json
import math
import typing
import warnings
from collections import Counter
from dataclasses import dataclass, field, is_dataclass, replace

import numpy as np
from numpy.typing import NDArray

from . import encoder as enc
from . import gp, optim
from . import numcore as nc
from .dataio import ENRICHED_COLUMNS, CountySummary, Dataset, split_dataset
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptySplit,
    LengthMismatch,
    MvelmaError,
    NonFiniteInput,
    SchemaError,
    ShapeMismatch,
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
    rf_target: str = "direct"  # the only value: the forest fits y itself
    ablation: str = "full"
    train_fraction: float = 0.8
    split_seed: int = 0
    standardize_weather: bool = True  # the only value: weather channels are z-scored
    standardize_enriched: bool = True  # the only value: static columns are z-scored
    # 0, or k >= 2 for k-fold out-of-fold posterior means in the stack; k at
    # least the train count is leave-one-out
    oof_folds: int = 0

    def __post_init__(self):
        variant_components(self.ablation)
        if self.kernel_family not in gp.FAMILIES:
            raise UnknownVariant(f"unknown kernel_family {self.kernel_family!r}; "
                                 f"choose from {gp.FAMILIES}")
        if self.gp_input not in ("stacked", "latent"):
            raise UnknownVariant(f"unknown gp_input mode {self.gp_input!r}")
        # one value each, kept as fields for the model file's config record
        if self.rf_target != "direct":
            raise UnknownVariant(f"rf_target must be 'direct', got {self.rf_target!r}")
        if self.standardize_weather is not True or self.standardize_enriched is not True:
            raise UnknownVariant("standardize_weather and standardize_enriched must be True")
        if self.split_seed < 0:
            raise DegenerateInput("split_seed must be >= 0")
        if not 0.0 < self.train_fraction < 1.0:
            raise DegenerateInput(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.oof_folds < 0 or self.oof_folds == 1:
            raise DegenerateInput(f"oof_folds must be 0 or >= 2, got {self.oof_folds}")


@dataclass
class Standardizer:
    """Column z-scoring with the fitted statistics kept for prediction time."""

    mean: NDArray[np.float64]
    std: NDArray[np.float64]

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
    weather_std: Standardizer
    enriched_std: Standardizer
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


def mse_head(z: np.ndarray, head: np.ndarray, y: np.ndarray):
    """Mean squared error of the linear head z @ w + b against y, and its
    gradients: ``(value, d_head, d_z)``.

    ``head`` is [w ; b]. With r = z w + b - y the adjoint is (2/N) r for the
    prediction, so d/dz = (2/N) r w^T, d/dw = (2/N) z^T r and
    d/db = (2/N) sum(r).
    """
    head = nc.as_matrix(head)
    w, b = head[:-1], head[-1:]
    resid = (z @ w + b) - nc.as_matrix(y)
    scale = 1.0 / resid.shape[0]
    d_pred = 2.0 * (scale * resid)
    d_head = np.vstack([z.T @ d_pred, d_pred.sum(axis=0, keepdims=True)])
    return float((resid * resid).sum() * scale), d_head.ravel(), d_pred @ w.T


def _standardized(weather_std, enriched_std, data: Dataset):
    """The weather block and the static descriptors as the model reads them."""
    return weather_std.transform(data.weather), enriched_std.transform(data.enriched)


def _latent(params: enc.EncoderParams | None, weather3: np.ndarray) -> np.ndarray:
    """z: the encoder's latents, or the per-channel means without an encoder."""
    return weather3.mean(axis=1) if params is None else enc.forward(params, weather3).Z


def _gp_inputs(z: np.ndarray, static: np.ndarray, mode: str) -> np.ndarray:
    return z if mode == "latent" else np.hstack([z, static])


def _stack(z: np.ndarray, static: np.ndarray, mu: np.ndarray | None) -> np.ndarray:
    """The forest's input: [z ; static], and the GP mean last when there is a GP."""
    return np.hstack([z, static] if mu is None else [z, static, mu.reshape(-1, 1)])


def _train_encoder(weather3, params0: enc.EncoderParams, loss_block, block0, opt: OptimizerConfig):
    """The encoder and one loss block's own parameters under one Adam loop.

    ``loss_block(vec, z)`` returns ``(loss, d_vec, d_z)``: the loss at the
    block's parameters ``vec`` and the latents z, and its gradients in both;
    ``block0`` is its initial vector. d_z seeds the encoder's reverse pass.
    Returns the best encoder parameters, the block's best vector and the loss
    trace."""
    cfg, n_enc = params0.config, params0.flat.size

    def step(vec):
        tape = nc.Tape()
        out = enc.forward(enc.EncoderParams(cfg, vec[:n_enc]), weather3, tape)
        loss, d_vec, d_z = loss_block(vec[n_enc:], out.Z)
        nc.backward(tape, out.latent, d_z)
        return loss, np.concatenate([out.params.grad.ravel(), d_vec])

    best, trace = optim.adam_descent(step, np.concatenate([params0.flat, block0]), opt)
    return enc.EncoderParams(cfg, best[:n_enc]), best[n_enc:], trace


def _oof_means(state: gp.GPState, folds: int, seed: int):
    """Out-of-fold means of the refreshed state's n train rows, from its one
    factor: fold H, rows order[f::folds], has y_H - (A^-1_HH)^-1 alpha_H with
    A^-1 = L^-T L^-1 (Rasmussen & Williams 2006, eq. 5.12; Ginsbourger &
    Scharer, arXiv:2101.03108). Folds past the n-th hold no row, so
    folds >= n is leave-one-out."""
    y, alpha = state.train_targets, state.alpha.ravel()
    order = np.random.default_rng(seed).permutation(y.size)
    a_inv = state.chol.inverse.T @ state.chol.inverse
    mu = np.empty(y.size)
    for f in range(min(folds, y.size)):
        hold = order[f::folds]
        block = nc.cholesky(a_inv[np.ix_(hold, hold)])
        mu[hold] = y[hold] - nc.solve_spd(block, alpha[hold]).ravel()
    return mu


@nc.one_blas_thread()
def train_joint(data: Dataset, cfg: PipelineConfig | None = None) -> TrainedModel:
    """Split the dataset, train the stack on the train part, and return a
    model that remembers both split id sets."""
    cfg = cfg or PipelineConfig()
    if data.n < 2:
        raise EmptySplit("need at least 2 events to hold out a test split")
    train, test = split_dataset(data, cfg.train_fraction, cfg.split_seed)
    uses_encoder, uses_gp, uses_forest = variant_components(cfg.ablation)

    weather_std, enriched_std = Standardizer.fit(train.weather), Standardizer.fit(train.enriched)
    w3, static = _standardized(weather_std, enriched_std, train)
    y = train.targets

    # representation: the encoder descends the NMLL together with the GP
    # hyperparameters, or without the GP a linear head's MSE
    encoder_params, gp_state, head, trace = None, None, None, []
    if uses_encoder and uses_gp:
        params0 = enc.init_params(cfg.encoder)
        gp0 = gp.init_state(_gp_inputs(_latent(params0, w3), static, cfg.gp_input), y,
                            cfg.kernel_family)
        encoder_params, hypers, trace = _train_encoder(
            w3, params0,
            lambda vec, z: gp.nmll_node(
                gp0.with_hypers_flat(vec), _gp_inputs(z, static, cfg.gp_input), y, z.shape[1]
            ),
            gp0.hypers_flat(), cfg.gp_opt,
        )
        gp_state = gp0.with_hypers_flat(hypers)
    elif uses_encoder:
        d = cfg.encoder.latent
        rng = np.random.default_rng(cfg.encoder.seed + 1)
        head0 = np.concatenate([rng.uniform(-1.0, 1.0, d) / math.sqrt(d), [0.0]])
        encoder_params, head, trace = _train_encoder(
            w3, enc.init_params(cfg.encoder),
            lambda vec, z: mse_head(z, vec, y), head0, cfg.gp_opt,
        )

    # the GP state, its in-sample posterior and the forest, on the final z,
    # which nothing reads when there is neither
    z = _latent(encoder_params, w3) if uses_gp or uses_forest else None
    sigma_ref, mu, forest = 0.0, None, None
    if uses_gp:
        x = _gp_inputs(z, static, cfg.gp_input)
        if uses_encoder:
            gp_state = gp_state.refresh(x, y)
        else:
            gp_state, trace = gp.fit(gp.init_state(x, y, cfg.kernel_family), x, y, cfg.gp_opt)
        post = gp.posterior(gp_state, x)
        sigma_ref = float(np.sqrt(post.variance).max())
        mu = post.mean
        if uses_forest and cfg.oof_folds >= 2:
            mu = _oof_means(gp_state, cfg.oof_folds, cfg.split_seed)
    if uses_forest:
        forest = fit_forest(_stack(z, static, mu), y, cfg.forest)

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


@nc.one_blas_thread()
def predict(model: TrainedModel, data: Dataset) -> Prediction:
    """Run the trained stack on a dataset. Variants without the GP report
    zero predictive variance (confidence 1)."""
    cfg = model.config
    _, uses_gp, uses_forest = variant_components(cfg.ablation)
    if data.weather.shape[1:] != (cfg.encoder.seq_len, cfg.encoder.input_width):
        raise DimensionMismatch(
            f"weather block {data.weather.shape[1:]} does not match "
            f"({cfg.encoder.seq_len}, {cfg.encoder.input_width})"
        )
    w3, static = _standardized(model.weather_std, model.enriched_std, data)
    z = _latent(model.encoder_params, w3)

    mu, var, conf = None, np.zeros(data.n), np.ones(data.n)
    if uses_gp:
        post = gp.posterior(model.gp_state, _gp_inputs(z, static, cfg.gp_input))
        mu, var = post.mean, post.variance
        conf = confidence_from_variance(var, model.sigma_ref)
    if uses_forest:
        yhat = predict_forest(model.forest, _stack(z, static, mu))
    elif uses_gp:
        yhat = mu.copy()
    else:
        yhat = z @ model.head[:-1] + model.head[-1]
    if mu is None:
        mu = yhat.copy()

    return Prediction(
        event_ids=[e.event_id for e in data.events],
        yhat=np.asarray(yhat, dtype=np.float64),
        gp_mean=mu,
        gp_variance=var,
        confidence=conf,
    )


def subset_by_ids(data: Dataset, event_ids, source: str) -> Dataset:
    """The dataset's rows for `event_ids`, in their order. Ids the dataset
    lacks raise one SchemaError naming `source`, where the ids came from."""
    lookup = {e.event_id: i for i, e in enumerate(data.events)}
    missing = [eid for eid in event_ids if eid not in lookup]
    if missing:
        raise SchemaError(f"{source}: {len(missing)} event id(s) not present in the dataset, "
                          f"first missing {missing[0]!r}")
    return data.subset([lookup[eid] for eid in event_ids])


def run_ablation(data: Dataset, variant: str, cfg: PipelineConfig | None = None) -> Metrics:
    """Train one variant on the configured split and return test metrics."""
    cfg = replace(cfg, ablation=variant) if cfg else PipelineConfig(ablation=variant)
    model = train_joint(data, cfg)
    test = subset_by_ids(data, model.test_event_ids, "model test split")
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


def save_model(model: TrainedModel, path) -> None:
    """Write the model as self-describing JSON through _MODEL, the schema
    load_model reads it with. Floats round-trip exactly; the GP's Cholesky
    factor is recomputed on load. Only the format tag, the GP's stored
    fields and the encoder parameters in file order are not the model's
    attributes as they stand."""
    doc = vars(model) | {
        "format": MODEL_FORMAT,
        "gp": None if model.gp_state is None else vars(model.gp_state),
        "encoder_params": None if model.encoder_params is None
        else model.encoder_params.in_file_order(),
    }
    with open(path, "w", encoding="utf-8") as f:
        _write(doc, _MODEL, f)


# The kinds of the model file's values, as _read reads them (_write writes
# the same kinds, an object's keys in the kind's order):
#   a JSON type   str, int, float, bool, list or dict; float takes any number,
#                 int no fraction, a boolean is never a number, and no number
#                 is NaN or infinite
#   FLOATS, INTS  the annotations NDArray[np.float64] and NDArray[np.int64]: a
#                 list of numbers, or of such lists, as a float64 array whose
#                 every entry is finite, or as an int64 array
#   IDS           a list of distinct event id strings, at least one
#   [kind]        a list of values of that kind
#   (kind, None)  a value of that kind, or null
#   {key: kind}   an object with exactly these keys, in this order
#   a dataclass   an object with exactly its fields, each of the kind its
#                 annotation states (list[T] is [T], T | None is (T, None)),
#                 passed to the class, which checks the values
FLOATS, INTS, IDS = NDArray[np.float64], NDArray[np.int64], "event ids"

# save_model's document: each key and the kind of its value
_MODEL = {
    "format": str,
    "config": PipelineConfig,
    "weather_std": Standardizer,
    "enriched_std": Standardizer,
    "encoder_params": (FLOATS, None),
    "gp": ({"kernel": gp.KernelSpec, "log_noise": float, "mean_const": float,
            "train_inputs": FLOATS, "train_targets": FLOATS}, None),
    "forest": ({"config": ForestConfig, "importances": FLOATS, "n_features": int,
                "trees": [RegressionTree]}, None),
    "head": (FLOATS, None),
    "sigma_ref": float,
    "train_event_ids": IDS,
    "test_event_ids": IDS,
    "loss_trace": [float],
}


def _write(value, kind, f) -> None:
    """Write json.dumps(value)'s text to f part by part, walking `kind` as
    _read does: a list item by item, an object or a dataclass record key by
    key in the kind's order, so the forest goes one tree at a time and the
    whole document never sits in memory as lists and text. Every other value
    goes through json.dumps, an array as its list: its C encoder is about
    twice as fast as json.dump's pure Python one."""
    if isinstance(kind, tuple):
        kind = None if value is None else kind[0]
    if isinstance(kind, list):
        f.write("[")
        for i, item in enumerate(value):
            f.write(", " if i else "")
            _write(item, kind[0], f)
        f.write("]")
    elif isinstance(kind, dict) or is_dataclass(kind):
        kinds = kind if isinstance(kind, dict) else _fields(kind)
        fields = value if isinstance(value, dict) else vars(value)
        f.write("{")
        for i, key in enumerate(kinds):
            f.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write(fields[key], kinds[key], f)
        f.write("}")
    else:
        f.write(json.dumps(value.tolist() if isinstance(value, np.ndarray) else value))


def _read(value, kind, where: str):
    """value read as `kind`, or one SchemaError naming `where`, the value's
    place in the document."""
    if isinstance(kind, tuple):
        return None if value is None else _read(value, kind[0], where)
    if isinstance(kind, list):
        return [_read(item, kind[0], where) for item in _read(value, list, where)]
    if isinstance(kind, dict) or is_dataclass(kind):
        kinds = kind if isinstance(kind, dict) else _fields(kind)
        value = _keys(value, kinds, where)
        read = {k: _read(value[k], kinds[k], f"{where}.{k}") for k in kinds}
        return read if isinstance(kind, dict) else kind(**read)
    if kind == FLOATS:
        return nc.require_finite(np.asarray(_numbers(value, where), dtype=np.float64), where)
    if kind == INTS:
        array = np.asarray(_numbers(value, where))
        if array.size and array.dtype.kind not in "iu":
            raise SchemaError(f"{where} holds a number that is not an integer")
        return array.astype(np.int64)
    if kind is IDS:
        ids = _read(value, [str], where)
        repeated = [eid for eid, n in Counter(ids).items() if n > 1]
        if repeated:
            raise SchemaError(f"{where} repeats event id {repeated[0]!r}")
        if not ids:
            raise SchemaError(f"{where} is empty")
        return ids
    if isinstance(value, bool) is not (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise SchemaError(f"{where} has type {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"{where} is not finite")
    return value


@functools.cache
def _fields(cls) -> dict:
    """A dataclass's field names and the kinds their annotations state, one
    dict per class, which every call shares: resolving the annotations for
    each of 500 trees took about 90 ms of a 0.2 s load."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        kinds[name] = ([args[0]] if typing.get_origin(hint) is list
                       else (args[0], None) if type(None) in args else hint)
    return kinds


def _keys(value, kinds: dict, where: str) -> dict:
    """value itself when it is an object with exactly the keys of `kinds`: a
    missing key would take a default and an unknown one would be ignored
    without a word."""
    value = _read(value, dict, where)
    problems = ([f"missing key {k!r}" for k in kinds if k not in value]
                + [f"unknown key {k!r}" for k in value if k not in kinds])
    if problems:
        raise SchemaError(f"{where} record: {', '.join(problems)}")
    return value


def _numbers(values, where: str) -> list:
    """values itself when it is a list of numbers and of such lists: numpy
    would read a boolean as 1 or 0, a null as NaN, and parse a string such
    as "1" or " 1e3 " as a number."""
    kinds = set(map(type, _read(values, list, where)))
    if kinds - {int, float, list}:
        wrong = min(k.__name__ for k in kinds - {int, float, list})
        raise SchemaError(f"{where} holds a value of type {wrong}")
    for item in values if list in kinds else ():
        if isinstance(item, list):
            _numbers(item, where)
    return values


def _model_from_doc(doc) -> TrainedModel:
    """The model in a parsed document, read key by key through _MODEL, with
    the checks that no kind states. The GP is factored before the forest's
    arrays exist: reading the forest first raises the peak RSS of `predict`
    on a CLI-default model (500 trees, 400 GP rows) by about 3 MB."""
    doc = _keys(doc, _MODEL, "model")

    def read(key):
        return _read(doc[key], _MODEL[key], key)

    cfg = read("config")
    uses_encoder, uses_gp, uses_forest = variant_components(cfg.ablation)
    # train_joint writes a head exactly when the encoder trains without the GP
    parts = {"encoder_params": uses_encoder, "gp": uses_gp, "forest": uses_forest,
             "head": uses_encoder and not uses_gp}
    for key, used in parts.items():
        if (doc[key] is not None) != used:
            need = "present" if used else "null"
            raise SchemaError(f"{key} must be {need} under ablation {cfg.ablation!r}")
    head = read("head")
    if head is not None and head.shape != (cfg.encoder.latent + 1,):
        raise SchemaError(f"head needs {cfg.encoder.latent + 1} weights, got shape {head.shape}")

    # the widths predict builds: z, then [z ; static], then the GP mean
    z_width = cfg.encoder.latent if uses_encoder else cfg.encoder.input_width
    stack_width = z_width + len(ENRICHED_COLUMNS)
    gp_state, d = None, read("gp")
    if d is not None:
        x, width = d["train_inputs"], stack_width if cfg.gp_input == "stacked" else z_width
        if x.ndim != 2 or x.shape[1] != width:
            raise DimensionMismatch(f"gp train_inputs need {width} columns, got shape {x.shape}")
        if d["kernel"].family != cfg.kernel_family:
            raise SchemaError(f"gp kernel family {d['kernel'].family!r} is not the configured "
                              f"kernel_family {cfg.kernel_family!r}")
        if d["train_targets"].shape != x.shape[:1]:  # refresh would ravel it
            raise DimensionMismatch(f"gp train_targets need {x.shape[0]} entries, "
                                    f"got shape {d['train_targets'].shape}")
        gp_state = gp.GPState(**d).refresh(x, d["train_targets"])

    forest = read("forest")
    if forest is not None:
        forest = Forest(**forest)
        n_features, width = forest.n_features, stack_width + 1 if uses_gp else stack_width
        if n_features != width:
            raise DimensionMismatch(f"forest n_features {n_features} != stack width {width}")
        if forest.importances.shape != (n_features,):
            raise SchemaError(f"forest importances need {n_features} entries, "
                              f"got shape {forest.importances.shape}")
        # train_joint fits the forest on config.forest, one tree per n_trees
        if forest.config != cfg.forest:
            raise SchemaError("forest.config differs from config.forest")
        if len(forest.trees) != cfg.forest.n_trees:
            raise SchemaError(f"forest has {len(forest.trees)} trees, config.forest.n_trees "
                              f"is {cfg.forest.n_trees}")
        # a tree's node arrays agree in length, its features are -1 (leaf) or
        # a column index, and its internal nodes point at children in range
        # and after themselves, so every walk ends at a leaf
        for tree in forest.trees:
            size = tree.feature.size
            if size == 0 or any(a.ndim != 1 or a.size != size for a in vars(tree).values()):
                raise SchemaError("forest tree node arrays are empty or differ in length")
            if np.any(tree.feature < -1) or np.any(tree.feature >= n_features):
                raise SchemaError(f"forest tree feature index outside [-1, {n_features})")
            internal = np.flatnonzero(tree.feature >= 0)
            for child in (tree.left[internal], tree.right[internal]):
                if np.any(child <= internal) or np.any(child >= size):
                    raise SchemaError("forest tree child index out of range or not after "
                                      "its parent")

    loss_trace, sigma_ref = read("loss_trace"), read("sigma_ref")
    if sigma_ref < 0:
        raise SchemaError(f"sigma_ref {sigma_ref} is negative")
    train_ids, test_ids = read("train_event_ids"), read("test_event_ids")
    shared = set(train_ids).intersection(test_ids)
    if shared:
        raise SchemaError(f"test_event_ids shares event id {min(shared)!r} with train_event_ids")
    stds = {}
    for what, width in (("weather", cfg.encoder.input_width),
                        ("enriched", len(ENRICHED_COLUMNS))):
        s = stds[what] = read(f"{what}_std")
        if s.mean.shape != (width,) or s.std.shape != (width,):
            raise SchemaError(f"{what} standardizer needs {width} means and {width} stds")
        if np.any(s.std <= 0.0):
            raise SchemaError(f"{what} standardizer std must be positive")
    params = read("encoder_params")
    return TrainedModel(
        config=cfg,
        weather_std=stds["weather"],
        enriched_std=stds["enriched"],
        encoder_params=None if params is None
        else enc.EncoderParams.from_file_order(cfg.encoder, params),
        gp_state=gp_state,
        forest=forest,
        head=head,
        sigma_ref=sigma_ref,
        train_event_ids=train_ids,
        test_event_ids=test_ids,
        loss_trace=loss_trace,
    )


def _finite_float(text: str) -> float:
    """A JSON number, or NaN and Infinity, which json reads as constants."""
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"non-finite number {text}")
    return value


def _read_json(path, **hooks):
    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_constant=_finite_float, **hooks)


@nc.one_blas_thread()
def load_model(path) -> TrainedModel:
    """Read a model written by save_model.

    The document is read key by key through _MODEL, which gives each key the
    kind of its value (see _read), and then checked where no kind can say:
    the parts the configured ablation uses, the head, GP input and forest
    widths that predict builds, one GP target per input row, the
    standardizers' widths and positive stds, the GP kernel's family, each
    tree's structure, the forest's config and tree count, the sign of
    sigma_ref, and splits that share no event id. A file that fails, is
    truncated, or nests its values deeper than the recursion limit, raises a
    one-line SchemaError naming the file.

    json parses numbers with its own float. A literal that overflows, such
    as 1e999, reads as inf and fails a finiteness check as the model is
    built; on any failure the file is parsed once more with a hook on every
    number, so that such a literal is named first, as at parse time.
    """
    try:
        try:
            doc = _read_json(path)
            if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
                found = doc.get("format") if isinstance(doc, dict) else None
                raise SchemaError(f"unsupported model format {found!r}")
            return _model_from_doc(doc)
        except (MvelmaError, TypeError, ValueError, OverflowError):
            _read_json(path, parse_float=_finite_float)
            raise
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not a JSON document ({exc})") from None
    except RecursionError:  # from json's decoder or _numbers
        raise SchemaError(f"{path}: values nested too deeply") from None
    except (SchemaError, ShapeMismatch, UnknownVariant, DimensionMismatch,
            DegenerateInput, NonFiniteInput) as exc:
        raise SchemaError(f"{path}: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        message = " ".join(str(exc).split())
        raise SchemaError(f"{path}: malformed model ({type(exc).__name__}: {message})") from None

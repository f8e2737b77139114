"""Post-fire vegetation loss prediction.

A stacked probabilistic pipeline: a bidirectional recurrent encoder with
attention summarizes the pre-fire weather window, an exact Gaussian process
regresses the loss with calibrated uncertainty, and a random forest stacks
the latent summary, static site descriptors, and the GP mean into the final
prediction. Everything differentiable is a fused block on the minimal tape in
`numcore`: a value computed in numpy with a hand-written vector-Jacobian
product. There are three: the encoder (`encoder.forward`), the GP marginal
likelihood (`gp.nmll_node`, built on the closed-form kernel derivatives of
`gp.kernel_from_sqdist`), and the linear MSE head (`pipeline.mse_head_node`);
`optim.adam_descent` is the one training loop. The command line in `cli`
covers synthesis, training, prediction, evaluation, ablation, and county
aggregation.
"""

from . import cli, dataio, encoder, errors, forest, gp, gradcheck, numcore, optim, pipeline
from .dataio import Dataset, FireEvent, load_dataset, synth_generate, write_dataset
from .pipeline import (
    Metrics,
    PipelineConfig,
    Prediction,
    TrainedModel,
    evaluate,
    load_model,
    predict,
    run_ablation,
    save_model,
    train_joint,
)

__version__ = "0.1.0"

__all__ = [
    "cli",
    "dataio",
    "encoder",
    "errors",
    "forest",
    "gp",
    "gradcheck",
    "numcore",
    "optim",
    "pipeline",
    "Dataset",
    "FireEvent",
    "load_dataset",
    "synth_generate",
    "write_dataset",
    "Metrics",
    "PipelineConfig",
    "Prediction",
    "TrainedModel",
    "evaluate",
    "load_model",
    "predict",
    "run_ablation",
    "save_model",
    "train_joint",
    "__version__",
]

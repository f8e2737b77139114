"""Post-fire vegetation loss prediction.

A stacked probabilistic pipeline: a bidirectional recurrent encoder with
attention summarizes the pre-fire weather window, an exact Gaussian process
regresses the loss with calibrated uncertainty, and a random forest stacks
the latent summary, static site descriptors, and the GP mean into the final
prediction. Every gradient is written by hand. There are three
differentiable blocks: the encoder (`encoder.forward`), the one block on the
minimal reverse-mode tape in `numcore`; the GP marginal likelihood
(`gp.nmll_node`, built on the closed-form kernel derivatives of
`gp.kernel_from_sqdist`); and the linear MSE head (`pipeline.mse_head`). The
last two return their value with their gradients, and the gradient in the
latents seeds the encoder's reverse pass; `optim.adam_descent` is the one
training loop. The encoder stores its weights in the fused layout its
kernels use, one (W+1+H) x 4H matrix per direction; one permutation maps it
to the per-gate order of the model file at save and load.
`pipeline._train_encoder` is its one training routine, taking either the
likelihood or the head as the loss block. The command line in `cli` covers
synthesis, training, prediction, evaluation, ablation, and county
aggregation; the package does not import it, so that `python -m mvelma.cli`
runs it only once.
"""

from . import dataio, encoder, errors, forest, gp, gradcheck, numcore, optim, pipeline
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

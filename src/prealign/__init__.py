"""Random-noise pretraining for feedback-alignment networks.

A numpy library for studying what training on pure noise does to a network
that learns through fixed random feedback connections: forward/backward
passes, the noise pretraining loop, alignment and dimensionality metrics,
dataset ingestion, and experiment presets with a small CLI.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    TransformSpec,
    load_cifar,
    load_idx,
    load_stl10,
    load_usps_libsvm,
    subset,
    synthetic_blobs,
    transform_affine,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    PrealignError,
    ShapeError,
)
from .learn import (
    AdamState,
    Gradients,
    TrainConfig,
    adam_step,
    backward_bp,
    backward_fa,
    evaluate,
    train,
)
from .linalg import pca_fit, pca_project, svd
from .metrics import (
    AngleReport,
    MetaConfig,
    accuracy_auc,
    alignment_angles,
    effective_rank,
    gram_effective_dim,
    meta_loss,
    weight_feedback_distance,
    weight_trajectory_pca,
)
from .net import (
    ForwardTrace,
    Mlp,
    accuracy,
    cross_entropy,
    forward,
    init_mlp,
    load_mlp,
    save_mlp,
    softmax,
)
from .noise import (
    Gaussian,
    NoiseConfig,
    Uniform,
    pretrain_random_noise,
    sample_noise_batch,
    sample_random_labels,
)
from .records import RunRecord
from .seeds import derive_entropy, derive_trial_seed, rng_for

__all__ = [
    "__version__",
    "Dataset",
    "TransformSpec",
    "load_cifar",
    "load_idx",
    "load_stl10",
    "load_usps_libsvm",
    "subset",
    "synthetic_blobs",
    "transform_affine",
    "ConfigError",
    "DataError",
    "FormatError",
    "NumericError",
    "PrealignError",
    "ShapeError",
    "AdamState",
    "Gradients",
    "TrainConfig",
    "adam_step",
    "backward_bp",
    "backward_fa",
    "evaluate",
    "train",
    "pca_fit",
    "pca_project",
    "svd",
    "AngleReport",
    "MetaConfig",
    "accuracy_auc",
    "alignment_angles",
    "effective_rank",
    "gram_effective_dim",
    "meta_loss",
    "weight_feedback_distance",
    "weight_trajectory_pca",
    "ForwardTrace",
    "Mlp",
    "accuracy",
    "cross_entropy",
    "forward",
    "init_mlp",
    "load_mlp",
    "save_mlp",
    "softmax",
    "Gaussian",
    "NoiseConfig",
    "Uniform",
    "pretrain_random_noise",
    "sample_noise_batch",
    "sample_random_labels",
    "RunRecord",
    "derive_entropy",
    "derive_trial_seed",
    "rng_for",
]

"""Leaky-ReLU restricted Boltzmann machines with Gaussian visible units.

Constrained contrastive-divergence training, leakiness-annealed Gibbs
sampling, and partition-function estimation with exact small-scale
oracles.
"""

from .model import (
    ActivationPattern,
    HiddenKind,
    RbmParams,
    RegionGaussian,
    activation_pattern,
    bernoulli_hidden_conditional,
    bernoulli_log_unnorm_marginal,
    hidden_conditional,
    log_unnorm_marginal,
    region_precision_mean,
    response,
    visible_conditional,
)
from .projection import ProjectionReport, is_globally_safe, project_spectral
from .sampler import (
    AnnealSchedule,
    ChainSet,
    anneal_leakiness_sample,
    gibbs_step,
    make_rng,
    mix_sample,
    sample_gaussian_base,
)
from .partition import (
    AnnealingPath,
    LogZEstimate,
    PathKind,
    ais_estimate,
    eval_mean_log_likelihood,
    exact_log_z_bernoulli,
    exact_log_z_orthogonal,
    gaussian_log_z,
    intermediate_log_density,
    quadrature_log_z,
)
from .training import (
    GradientEstimate,
    NegSampler,
    TrainConfig,
    TrainingLog,
    negative_phase,
    positive_phase,
    train,
)
from .data_io import (
    Dataset,
    Normalization,
    Provenance,
    ingest,
    load_model,
    normalize,
    save_model,
    write_raw_f32,
)
from .errors import (
    DataFormatError,
    DimensionError,
    DivergentIntegralError,
    LeakyRbmError,
    ModelFileError,
    NonPDRegionError,
    PrecisionLossError,
    TrainingDivergedError,
)

__version__ = "0.1.0"

"""Correlation-based localization for ensemble data assimilation.

Taper functions that shrink noisy ensemble correlations, Student-t
significance thresholds, spike-and-slab shrinkage theory, and a blockwise
ES-MDA smoother with an experiment harness around them.
"""

from .ensemble import (
    DatumMeta,
    Ensemble,
    PredictedEnsemble,
    RowBlock,
    correlation_block,
    ensemble_variance_per_row,
    iter_blocks,
    write_ensemble_csv,
)
from .errors import (
    AssimilationError,
    BlockError,
    ConfigError,
    EnlocError,
    FieldGenerationError,
    ForwardModelError,
    InvalidEnsembleSizeError,
    WrongTaperKindError,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    load_config,
    run_experiment,
    sweep_ensemble_size,
    sweep_layers,
    t0_table_rows,
)
from .metrics import (
    MetricReport,
    chi,
    footprint,
    mean_offset,
    objective_function,
)
from .models import (
    ForwardModel,
    GrfPrior,
    GridFlowProxy,
    LinearModel,
    ScalarToyModel,
    grf_correlation,
    sample_grf,
    sample_grid_prior,
)
from .significance import (
    PercentileT0,
    StudentT0,
    adaptive_t0,
    critical_rho,
    critical_t0,
    parse_t0_strategy,
    student_t_quantile,
)
from .smoother import (
    LocalizationPolicy,
    MdaSchedule,
    ObservationSet,
    RunSeed,
    TaperField,
    gain_operator,
    kalman_gain_block,
    localized_update_step,
    perturb_observations,
    run_esmda,
)
from .spikeslab import (
    LogisticParams,
    SpikeSlabParams,
    bayes_factor_power_taper,
    gaussian_prior_taper,
    inclusion_probability,
    logistic_from_params,
    spike_slab_posterior_mean,
    taper_spike_slab,
    to_logistic_params,
)
from .tapers import (
    Cgc,
    CorrelationStats,
    Discrepancy,
    DistanceGC,
    Logistic,
    Mpo,
    Mse,
    Po,
    PowerLaw,
    TaperSpec,
    evaluate_taper,
    format_taper,
    gaspari_cohn,
    parse_taper,
    sampling_std,
    standardize,
    taper_cgc,
    taper_discrepancy,
    taper_distance,
    taper_logistic,
    taper_mpo,
    taper_mse,
    taper_po,
    taper_power,
)

__version__ = "0.1.0"

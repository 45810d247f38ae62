"""Battery state-of-charge estimation benchmark.

Trains a dense feed-forward network on drive-cycle telemetry and compares
how SGD, RMSProp, Adam, and Adamax affect MAE/MSE on held-out data.
"""

from .data import (
    DataSettings,
    DesignMatrix,
    DriveCycle,
    NormalizationStats,
    SocSeries,
    Telemetry,
    apply_normalization,
    build_design_matrix,
    coulomb_count,
    fit_normalization,
    ingest_csv,
    moving_average,
    prepare_cycle,
)
from .errors import (
    ConfigError,
    DataError,
    IngestionError,
    InputError,
    ModelMismatchError,
    NumericError,
    SocBenchError,
    TrainingDivergedError,
)
from .harness import (
    ComparisonReport,
    ExperimentResult,
    FoldMode,
    make_folds,
    run_comparison,
    train,
)
from .network import (
    Activation,
    LayerSpec,
    NetworkParameters,
    backward,
    forward,
    init_network,
    load_model,
    loss_mae,
    loss_mse,
    mlp_specs,
    predict,
    save_model,
)
from .optimizers import (
    Algorithm,
    Hyperparameters,
    OptimizerState,
    optimizer_step,
)
from .synthetic import Profile, SyntheticCellParams, generate_cycle, write_cycle_csv

__version__ = "0.1.0"

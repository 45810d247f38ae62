"""Battery state-of-charge estimation benchmark.

Trains a dense feed-forward network on drive-cycle telemetry and compares
how SGD, RMSProp, Adam, and Adamax affect MAE/MSE on held-out data.
"""

import os
import sys

# OpenBLAS reads this once, when numpy loads it: an idle worker then sleeps
# after 2**4 cycles instead of spinning for 2**28 (0.13 s of a core at
# 2.1 GHz) after every threaded product. No result changes; a set value wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

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

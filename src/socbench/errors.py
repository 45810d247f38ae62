"""Exception hierarchy shared by all socbench modules.

Each class declares the CLI exit code it ends in, so raising the right
class matters more than the message text. A rule is checked once, by the
code that makes the value (``apply_normalization``, ``load_model``), not
again where the value is used; a broken precondition is an InputError.
"""


class SocBenchError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(SocBenchError):
    """Invalid configuration: bad flag values, malformed config files,
    unknown config keys, layer dimension mismatches."""

    exit_code = 2


class InputError(SocBenchError):
    """A well-formed call received data violating its preconditions
    (shape mismatch, non-finite values, empty input)."""

    exit_code = 2


class IngestionError(SocBenchError):
    """A data CSV could not be ingested; the message lists the offending
    line numbers where applicable."""


class DataError(SocBenchError):
    """Statistically unusable data, e.g. a feature with zero variance."""


class NumericError(SocBenchError):
    """Numerical failure during computation (non-finite gradients)."""

    exit_code = 3


class TrainingDivergedError(NumericError):
    """Training loss or gradient became non-finite: a batch's loss or
    gradient (the message names epoch and batch) or the training loss
    measured after an epoch (the message names the epoch)."""


class ModelMismatchError(SocBenchError):
    """A stored model is incompatible with the data it was applied to."""

    exit_code = 4

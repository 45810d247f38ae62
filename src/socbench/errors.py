"""Exception hierarchy shared by all socbench modules.

Each class declares the CLI exit code it ends in, so raising the right
class matters more than the message text.
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
    """Training loss or gradient became non-finite."""

    def __init__(self, epoch: int, batch: int, message: str | None = None):
        self.epoch = epoch
        self.batch = batch
        super().__init__(
            message
            or f"training diverged: non-finite loss at epoch {epoch}, batch {batch}"
        )

    def __reduce__(self):
        # the message as it stands, with a comparison's cycle/optimizer/run prefix
        return type(self), (self.epoch, self.batch, str(self))


class ModelMismatchError(SocBenchError):
    """A stored model is incompatible with the data it was applied to."""

    exit_code = 4


class InternalError(SocBenchError):
    """Inconsistent internal state, e.g. a forward cache that does not
    belong to the parameters handed to backward()."""

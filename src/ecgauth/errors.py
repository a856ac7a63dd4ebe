"""Exception types shared across the package.

Every error the library raises deliberately derives from :class:`EcgAuthError`
so callers (and the command line front end) can map failure classes to exit
codes without matching on message strings.
"""


class EcgAuthError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(EcgAuthError):
    """A configuration value or constructor argument is out of range."""


class InputError(EcgAuthError):
    """An operation was called with data that violates its precondition."""


class ShapeError(InputError):
    """An array argument has the wrong dimensionality or length."""


class StateError(EcgAuthError):
    """A computation reached an invalid internal state (e.g. training diverged)."""


class ConfigurationError(EcgAuthError):
    """A run/training configuration is inconsistent or incomplete."""


class RecordParseError(EcgAuthError):
    """A record file could not be parsed.

    Attributes:
        path: file being parsed.
        line: 1-based line number of the offending line.
    """

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = int(line)
        super().__init__(f"{self.path}:{self.line}: {message}")


class DependencyError(EcgAuthError):
    """A required upstream artifact (corpus, checkpoint, registry) is missing."""


class CheckpointError(EcgAuthError):
    """Base class for checkpoint/registry container load failures."""


class CheckpointVersionError(CheckpointError):
    """The container magic or format version is not one this build reads."""


class CheckpointTruncatedError(CheckpointError):
    """The container ends before all declared bytes are present."""


class CheckpointChecksumError(CheckpointError):
    """The container content does not match its stored digest."""


class CheckpointFormatError(CheckpointError):
    """The container is structurally inconsistent (manifest, shapes, kind)."""

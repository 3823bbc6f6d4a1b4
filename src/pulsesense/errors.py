"""Exception hierarchy.

Three branches map onto the CLI exit codes: ConfigError -> 2,
DataError -> 3, anything else under PulseSenseError -> 4.
"""


class PulseSenseError(Exception):
    """Base class for all errors raised by this package."""


# --- configuration ----------------------------------------------------------

class ConfigError(PulseSenseError):
    pass


class ConfigUnknownKey(ConfigError):
    pass


class ConfigInvalidValue(ConfigError):
    pass


# --- data / parsing ---------------------------------------------------------

class DataError(PulseSenseError):
    pass


class MalformedLine(DataError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InconsistentSubcarrierCount(MalformedLine):
    pass


class NonMonotonicTimestamp(DataError):
    pass


class SchemaMismatch(DataError):
    pass


class ValueOutOfRange(DataError):
    pass


class InsufficientOverlap(DataError):
    pass


class InsufficientFrames(DataError):
    pass


class NonFiniteSample(DataError):
    pass


class EmptyStream(DataError):
    pass


# --- DSP --------------------------------------------------------------------

class InvalidBand(ConfigError):
    pass


class InvalidKernelSpec(ConfigError):
    pass


class SeriesTooShort(PulseSenseError):
    pass


class WindowLongerThanSeries(PulseSenseError):
    pass


# --- streaming --------------------------------------------------------------

class StreamFinished(PulseSenseError):
    """A push or finish on a stream that finish has already closed."""


# --- model ------------------------------------------------------------------

class ShapeMismatch(PulseSenseError):
    pass


class CacheMismatch(PulseSenseError):
    pass


class BadMagic(DataError):
    pass


class ChecksumMismatch(DataError):
    pass


class NonFiniteWeight(DataError):
    """A model container whose CRC holds but whose tensors hold a NaN or an
    infinity."""


# --- training / metrics -----------------------------------------------------

class TooFewSegments(PulseSenseError):
    pass


class EmptyTrainSet(PulseSenseError):
    pass


class DivergedLoss(PulseSenseError):
    """Raised when a training loss turns non-finite; carries the history."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history


class LengthMismatch(PulseSenseError):
    pass


class ZeroTargetForMAPE(PulseSenseError):
    pass


class EmptyInput(PulseSenseError):
    pass


class InvalidScenario(ConfigError):
    pass

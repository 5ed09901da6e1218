"""Exception hierarchy for the streaming framework.

Errors fall in two families: configuration/framework errors that abort a
run (bad graph, corrupted merge state) and per-chunk data problems that
the continuity protocol absorbs (losses, stale arrivals).
"""


class TFStreamError(Exception):
    """Base class for all framework errors."""


# --- chunk model ---------------------------------------------------------

class ShapeError(TFStreamError):
    """Payload neither 1-D nor 2-D, or without a time column."""


class MetadataError(TFStreamError):
    """Unknown continuity code or negative alignment counter."""


# --- alignment algebra ---------------------------------------------------

class EmptyInput(TFStreamError):
    """merge_params called with no inputs."""


class CounterOverflow(TFStreamError):
    """Alignment counter exceeded the configured maximum."""


class InconsistentParams(TFStreamError):
    """Merged params do not dominate chunk params; indicates a framework bug."""


# --- merge engine --------------------------------------------------------

class ProtocolError(TFStreamError):
    """Impossible continuity combination reached; indicates corrupted state."""


class InvalidInMerge(TFStreamError):
    """An invalid chunk (code -1) entered the merge process."""


class MissingTail(TFStreamError):
    """Regular continuous merge without a carried tail of the right length."""


class EmptyResult(TFStreamError):
    """Merge would produce a zero-length chunk; chunk size too small."""


# --- composite manager ---------------------------------------------------

class UnknownKey(TFStreamError):
    """Chunk delivered for a source key the consumer is not configured for."""


# --- graph / config ------------------------------------------------------

class ConfigError(TFStreamError):
    """Malformed pipeline configuration."""


class CycleError(ConfigError):
    """Processor graph contains a cycle."""


class UnknownProcessorKind(ConfigError):
    """Processor kind is not registered."""


class ChunkTooShortForDepth(ConfigError):
    """Configured chunk size cannot satisfy d + p < length at some consumer."""


# --- processors ----------------------------------------------------------

class UnsupportedFormat(TFStreamError):
    """Input file format not supported."""


class IoError(TFStreamError):
    """File could not be read or written."""


class NonIntegerRate(TFStreamError):
    """Resampling factor does not divide the input sample rate."""


class SpecMismatch(TFStreamError):
    """Filterbank design does not fit its sample rate, or is not made yet."""


class ShapeMismatch(TFStreamError):
    """Merged arrays disagree in time extent (raised by the merge only:
    validation checks each transform's inputs); a framework bug."""


# --- wire ----------------------------------------------------------------

class WireError(TFStreamError):
    """Base class for frame decoding failures; a bad frame is dropped whole."""


class ChecksumError(WireError):
    """CRC32 mismatch over header + payload."""


class VersionError(WireError):
    """Frame version not understood."""


class TruncatedFrame(WireError):
    """Byte stream ended inside a frame."""

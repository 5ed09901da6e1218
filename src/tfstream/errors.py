"""Exception hierarchy for the streaming framework.

Errors fall in two families: configuration/framework errors that abort a
run (bad graph, merged arrays of unequal extent) and per-chunk data
problems that the continuity protocol absorbs (losses, stale arrivals,
sets too short after a break).
"""


class TFStreamError(Exception):
    """Base class for all framework errors."""


# --- chunk model ---------------------------------------------------------

class ShapeError(TFStreamError):
    """Payload neither 1-D nor 2-D, or without a time column."""


class MetadataError(TFStreamError):
    """A continuity that is not a publishable ``Continuity`` member, a
    negative chunk number, or a negative, non-integer or capped-out
    alignment counter."""


# --- merge engine --------------------------------------------------------

class EmptyResult(TFStreamError):
    """A merge or a transform's window would produce a zero-length chunk
    (a short chunk after a break); the runtime drops that set and counts
    it as ``too_short``."""


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

"""Processor base classes and the kind registry.

A transform processor consumes one merged chunk per time interval and
publishes one or more features, each with its own relative alignment
counters, which graph validation composes once per key.  A transform
declares in ``history`` how many past input columns its kernel reads;
the merge carries them, so chunked processing reproduces the unchunked
computation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    ClassVar,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Type,
)

import numpy as np

from ..chunks import AlignmentParams, Continuity, DataChunk, SourceKey
from ..errors import ConfigError, UnknownProcessorKind
from ..merge import MergedChunk


@dataclass
class FeatureData:
    """One published feature array; its sample rate is the one that
    ``prepare`` returned."""

    payload: np.ndarray


class Processor:
    """Base for transform processors (one merged input set, n features)."""

    kind: ClassVar[str] = ""
    #: The names of the parameters the kind reads; validation rejects
    #: any other.
    parameters: ClassVar[Tuple[str, ...]] = ()
    #: Input contract, checked once at validation: the features merged,
    #: one key each (empty: one key of any feature), and whether each key
    #: has a frequency axis (2-D) or not (a time series).
    input_features: ClassVar[Tuple[str, ...]] = ()
    takes_2d: ClassVar[bool] = False
    #: True when processing needs (theta, beta); the graph validator then
    #: requires explicit values or an upstream calibration source.
    needs_threshold: ClassVar[bool] = False
    #: Sigmoid threshold and slope, configured or calibrated (None if the
    #: processor has none).
    theta = None
    beta = None
    #: Input columns before a new column that the kernel reads: a
    #: continuous merged chunk begins with that many columns of the
    #: previous one (see ``merge_array``).  A plan constant, final after
    #: ``prepare``.
    history: int = 0
    #: Input columns processed outside calibration, when counted.
    valid_columns: Optional[int] = None

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = dict(params)
        #: continuity of a break that published nothing yet
        self._carried: Optional[Continuity] = None

    # --- static metadata used by graph validation ------------------------

    def prepare(
        self,
        in_rate: float,
        merged: AlignmentParams,
        in_freqs: Optional[np.ndarray],
    ) -> Tuple[float, Optional[np.ndarray], AlignmentParams]:
        """Fix the input sample rate, the merged input counters and the
        frequency axis the inputs share (None for time series) before a
        run.

        Returns the one sample rate and the one frequency axis of every
        published feature, and the merged counters in output time steps:
        a processor that changes the time scale converts them.
        """
        return in_rate, in_freqs, merged

    def feature_alignment(self) -> Dict[str, AlignmentParams]:
        """Relative alignment counters per published feature."""
        raise NotImplementedError

    # --- streaming -------------------------------------------------------

    def process(self, merged: MergedChunk) -> Dict[str, FeatureData]:
        """Consume one merged chunk, return payloads per feature name."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any carried state (called once before a run); an override
        calls ``super().reset()``."""
        self._carried = None

    def step(self, merged: MergedChunk) -> List[DataChunk]:
        """The chunks to publish for one merged chunk.

        The one transform step of both the streaming runtime and the
        whole-signal reference: process and settle the continuity.  A
        break that publishes nothing is carried to the next chunk that
        publishes and overrides its continuity if that is continuous, so
        every consumer sees the break.  The features' counters are plan
        constants, composed at validation only.
        """
        outputs = self.process(merged)
        continuity = merged.continuity
        if not outputs:
            if not (continuity.continuous
                    or continuity is Continuity.CALIBRATION):
                self._carried = continuity
            return []
        if self._carried is not None and continuity.continuous:
            continuity = self._carried
        self._carried = None
        return [
            DataChunk(
                number=merged.number,
                source_key=(self.name, feature),
                payload=np.ascontiguousarray(data.payload),
                continuity=continuity,
            )
            for feature, data in outputs.items()
        ]


class SourceProcessor:
    """Base for input processors; they assign chunk numbers at ingress."""

    kind: ClassVar[str] = ""
    parameters: ClassVar[Tuple[str, ...]] = ()
    feature: ClassVar[str] = "snd"

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = dict(params)

    def chunks(self) -> Iterator[DataChunk]:
        raise NotImplementedError

    def sample_rate(self) -> float:
        raise NotImplementedError

    def chunk_size(self) -> int:
        raise NotImplementedError

    def full_signal(self) -> np.ndarray:
        """The whole input as one array (reference computations)."""
        raise NotImplementedError

    def make_chunk(
        self, number: int, payload: np.ndarray, continuity: Continuity
    ) -> DataChunk:
        """A chunk of this source's feature, as the stream and the
        whole-signal reference both emit it."""
        return DataChunk(
            number=number,
            source_key=(self.name, self.feature),
            payload=payload,
            continuity=continuity,
        )

    def calibration_signal(self) -> Optional[np.ndarray]:
        """The calibration chunk's samples, or None if none is emitted."""
        return None

    def set_overflow_numbers(self, numbers: Set[int]) -> None:
        """Script input overflows at these chunk numbers.

        Only a source that can overflow accepts any; for every other
        source a scripted overflow could never take effect.
        """
        if numbers:
            raise ConfigError(
                f"input {self.name!r} ({self.kind}) cannot overflow; "
                f"remove its overflow faults"
            )


class SinkProcessor:
    """Base for output processors; they consume chunks without merging."""

    kind: ClassVar[str] = ""
    parameters: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = dict(params)
        #: Chunks written per source key.
        self.written: Dict[SourceKey, int] = {}
        #: per received key, its sample rate, its read-only frequency
        #: axis (None: the key has none) and its cumulative counters, as
        #: graph validation resolved them
        self.rates: Dict[SourceKey, float] = {}
        self.freqs: Dict[SourceKey, Optional[np.ndarray]] = {}
        self.alignments: Dict[SourceKey, AlignmentParams] = {}

    def set_inputs(
        self,
        rates: Mapping[SourceKey, float],
        freqs: Mapping[SourceKey, Optional[np.ndarray]],
        alignments: Mapping[SourceKey, AlignmentParams],
    ) -> None:
        """Take the sample rate, frequency axis and cumulative counters
        of each received key, from the plan: chunks carry none of them."""
        self.rates = dict(rates)
        self.freqs = dict(freqs)
        self.alignments = dict(alignments)

    def consume(self, chunk: DataChunk) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


_REGISTRY: Dict[str, type] = {}


def register(cls: Type) -> Type:
    _REGISTRY[cls.kind] = cls
    return cls


def resolve_kind(kind: str) -> type:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise UnknownProcessorKind(f"unknown processor kind {kind!r}") from None


def registered_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))

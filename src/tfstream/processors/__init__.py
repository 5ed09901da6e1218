"""Processor kinds and the registry."""

from .base import (
    FeatureData,
    Processor,
    SinkProcessor,
    SourceProcessor,
    register,
    registered_kinds,
    resolve_kind,
)
from .filterbank import GammaChirpFilterbank
from .ptn import PTNProcessor
from .resampler import Resampler
from .sources import MicInput, WavReader
from .structure import StructureExtractor
from .writer import FileWriter

__all__ = [
    "FeatureData",
    "FileWriter",
    "GammaChirpFilterbank",
    "MicInput",
    "PTNProcessor",
    "Processor",
    "Resampler",
    "SinkProcessor",
    "SourceProcessor",
    "StructureExtractor",
    "WavReader",
    "register",
    "registered_kinds",
    "resolve_kind",
]

"""Exception hierarchy shared across the package, and the value check of
the configuration dataclasses."""

import math
from dataclasses import fields


class AlignFuseError(Exception):
    """Base class for all package errors."""


class DimensionError(AlignFuseError):
    """Shapes of operands are incompatible."""


class NumericError(AlignFuseError):
    """A computation produced NaN/Inf or received non-finite input."""


class ContractError(AlignFuseError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


class DegenerateInputError(AlignFuseError):
    """Input is degenerate for the requested operation (e.g. zero-norm vector)."""


class VocabError(AlignFuseError):
    """Token id out of range for the vocabulary."""


class LabelError(AlignFuseError):
    """Class label outside the configured range."""


class ConfigError(AlignFuseError):
    """Invalid or missing configuration."""


class DataFormatError(AlignFuseError):
    """On-disk dataset or manifest is malformed."""


class CheckpointError(AlignFuseError):
    """Base class for checkpoint load failures."""


class MagicMismatchError(CheckpointError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(CheckpointError):
    """File version is not supported."""


class TruncatedFileError(CheckpointError):
    """File ended before the encoded payload was complete."""


def check_fields(cfg, least: dict[str, float]) -> None:
    """ConfigError unless every ``int`` field of dataclass `cfg` holds an int
    (not a bool), every ``float`` field a finite int or float (or None where
    the annotation allows it), and every field named in `least` is at least
    its bound there. Reads the annotations as strings."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type not in ("int", "float", "float | None") or (value is None and "None" in f.type):
            continue
        kind = int if f.type == "int" else (int, float)
        if (not isinstance(value, kind) or isinstance(value, bool)
                or isinstance(value, float) and not math.isfinite(value)):
            noun = "an integer" if kind is int else "a finite number"
            raise ConfigError(f"{f.name} must be {noun}, not {value!r}")
        if f.name in least and value < least[f.name]:
            raise ConfigError(f"{f.name} must be >= {least[f.name]}, not {value!r}")

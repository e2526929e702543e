"""Exception hierarchy shared across the package, the value check of the
configuration dataclasses, and the index check of token ids, targets and
labels."""

import math
from dataclasses import fields

import numpy as np


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


def check_indices(values, n: int, noun: str, error: type[AlignFuseError]) -> np.ndarray:
    """`values` as an int64 array of indices in [0, n), else `error` naming
    the first value that is not one. A dtype that is not an integer one is
    refused (a float would be truncated, and a bool is no index): the error
    names the first float that is not a whole number, or the first value
    when every one is whole (1.0, True). Otherwise it names the first value
    outside the range (a negative one would index from the end)."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        flat = arr.reshape(-1)
        frac = flat[flat != np.trunc(flat)] if arr.dtype.kind == "f" else flat[:0]
        raise error(f"{noun} {(frac if frac.size else flat)[0].item()!r} of dtype "
                    f"{arr.dtype} is not an integer")
    bad = arr[(arr < 0) | (arr >= n)]
    if bad.size:
        raise error(f"{noun} {bad[0]} outside [0, {n})")
    return arr.astype(np.int64, copy=False)

"""Versioned binary checkpoints: model config + vocab, named parameter
blobs, and optimizer state. Byte-identical for identical state."""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import (CheckpointError, MagicMismatchError, TruncatedFileError,
                     VersionMismatchError)

MAGIC = b"ALIF"
VERSION = 1


def _write_blob(fh, name: str, arr: np.ndarray) -> None:
    name_b = name.encode("utf-8")
    fh.write(struct.pack("<I", len(name_b)))
    fh.write(name_b)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


class _Reader:
    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size

    def read(self, n: int) -> bytes:
        # checked before reading: a corrupt length must not size a buffer
        if n > self.size - self.fh.tell():
            raise TruncatedFileError(f"{self.path}: unexpected end of file")
        return self.fh.read(n)

    def read_u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def read_text(self, what: str) -> str:
        try:
            return self.read(self.read_u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8: {e}") from e

    def read_blob(self) -> tuple[str, np.ndarray]:
        name = self.read_text("blob name")
        ndim = self.read_u32()
        shape = struct.unpack(f"<{ndim}I", self.read(4 * ndim)) if ndim else ()
        data = np.frombuffer(self.read(math.prod(shape) * 8), dtype="<f8")
        try:
            return name, data.reshape(shape).copy()
        except ValueError as e:  # more axes than numpy allows, or a size past its index range
            raise CheckpointError(
                f"{self.path}: blob {name!r} has an impossible shape: {e}") from e


@contextmanager
def atomic_write(path: Path):
    """A binary file written beside `path`, synced and renamed over it on
    success and removed on any failure, so a failed write leaves the old file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path: Path, config_payload: dict,
                    params: dict[str, np.ndarray],
                    optim_state: dict[str, np.ndarray]) -> None:
    """`config_payload` is any JSON-serializable header (model config,
    vocab); `params` and `optim_state` are name -> float64 arrays. The step
    counter is the optimizer state's `t` blob. Written through `atomic_write`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = json.dumps(config_payload, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for section in (params, optim_state):
            fh.write(struct.pack("<I", len(section)))
            for name in section:
                _write_blob(fh, name, np.asarray(section[name], dtype=np.float64))


def load_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray], dict[str, np.ndarray]]:
    path = Path(path)
    with open(path, "rb") as fh:
        r = _Reader(fh, path)
        if r.read(4) != MAGIC:
            raise MagicMismatchError(f"{path}: not a checkpoint file")
        version = r.read_u32()
        if version != VERSION:
            raise VersionMismatchError(f"{path}: unsupported version {version}")
        try:
            config_payload = json.loads(r.read_text("header"))
        except (ValueError, RecursionError) as e:  # ValueError: also too-long integers
            raise CheckpointError(f"{path}: header is not JSON: {e}") from e
        if not isinstance(config_payload, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        sections = []
        for what in ("parameter", "optimizer"):
            section: dict[str, np.ndarray] = {}
            for _ in range(r.read_u32()):
                name, data = r.read_blob()
                if name in section:
                    raise CheckpointError(f"{path}: {what} section repeats the blob {name!r}")
                section[name] = data
            sections.append(section)
        if fh.read(1):
            raise TruncatedFileError(f"{path}: trailing bytes after payload")
    return config_payload, sections[0], sections[1]

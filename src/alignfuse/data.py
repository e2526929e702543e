"""Data pipeline: volumes to patch grids, clinical fields to token sequences.

Covers volume normalization, patch extraction, textualization of structured
records, a small word-level vocabulary, the synthetic dataset generator that
stands in for restricted clinical sources, and the on-disk dataset format
(JSONL manifest + raw binary volumes).
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DimensionError, VocabError
from .tensor import RngStream

PAD_ID = 0
CLS_ID = 1
MASK_ID = 2
UNK_ID = 3
RESERVED = ["[PAD]", "[CLS]", "[MASK]", "[UNK]"]

NARRATIVE_MAX_WORDS = 40

VOLUME_MAGIC = b"ALIV"
VOLUME_VERSION = 1

# fixed field order and sentence templates; surface forms are part of the
# dataset contract and are asserted verbatim in tests
FIELD_TEMPLATES = [
    ("age", "The age is {}."),
    ("gender", "The gender is {}."),
    ("education", "The education is {}."),
    ("hand", "The hand is {}."),
    ("mmse", "The MMSE score is {}."),
    ("cdr", "The CDR is {}."),
    ("logical_memory", "The logical memory is {}."),
]

_TOKEN_RE = re.compile(r"[a-z]+|[0-9]+(?:\.[0-9]+)?")


@dataclass
class PatientRecord:
    """One subject: a 3-D volume, optional clinical fields, and a label."""

    volume: np.ndarray
    label: int
    demographics: dict = field(default_factory=dict)
    lab_results: dict = field(default_factory=dict)
    narrative: str | None = None

    def fields(self) -> dict:
        out = dict(self.demographics)
        out.update(self.lab_results)
        return out


@dataclass
class PatchGrid:
    """Flattened voxel patches of one volume: patches[i] is one p^3 block."""

    patches: np.ndarray  # (P, p^3)
    side: int
    patch_size: int


@dataclass
class TokenSequence:
    ids: np.ndarray        # (L_max,) int64
    pad_mask: np.ndarray   # (L_max,) bool, True at real tokens
    length: int            # count of real tokens (incl. [CLS])


@dataclass
class Batch:
    """Records stacked for one batch-major pass. Text columns stop at the
    longest real sequence in the batch, so rows of shorter texts end in
    pads; labels are None at inference."""

    patches: np.ndarray    # (B, P, p^3)
    ids: np.ndarray        # (B, L) int64, L <= L_max
    pad_mask: np.ndarray   # (B, L) bool, True at real tokens
    labels: np.ndarray | None = None  # (B,) int64

    @classmethod
    def stack(cls, patches: list[PatchGrid], tokens: list[TokenSequence],
              labels: list[int] | None = None) -> "Batch":
        n = max(t.length for t in tokens)
        return cls(patches=np.stack([p.patches for p in patches]),
                   ids=np.stack([t.ids[:n] for t in tokens]),
                   pad_mask=np.stack([t.pad_mask[:n] for t in tokens]),
                   labels=None if labels is None
                   else np.asarray(labels, dtype=np.int64))


@dataclass
class Vocab:
    tokens: list[str]

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, UNK_ID)


# ---------------------------------------------------------------------------
# volumes


def resample_matrix(side: int, target_side: int) -> np.ndarray:
    """(target_side, side) linear interpolation weights along one axis, with
    the coordinates of ``scipy.ndimage.zoom(order=1, grid_mode=True,
    mode="nearest")``: output k reads input (k + 0.5) * side/target_side - 0.5,
    clamped to the edge voxels."""
    cc = np.clip((np.arange(target_side) + 0.5) * (side / target_side) - 0.5, 0, side - 1)
    lo = np.floor(cc).astype(np.intp)
    t = cc - lo
    rows = np.arange(target_side)
    m = np.zeros((target_side, side))
    m[rows, lo] = 1 - t
    m[rows, np.minimum(lo + 1, side - 1)] += t
    return m


def normalize_volume(raw: np.ndarray, target_side: int) -> np.ndarray:
    """Zero-pad to a cube, trilinearly resample to target_side^3, scale to [0,1].

    The resample is separable: one GEMM with `resample_matrix` per axis.
    The pad is implied, not built: each axis of length n is contracted with
    the matrix's first n rows, since the pad's zeros add nothing to the
    sums. Output k of an axis reads input positions from the floor of its
    sample point on, which grows with k, so only the first c outputs read
    any of the n real positions; the rest lie wholly in the pad, stay 0 and
    are not computed. At least 2 outputs are: BLAS takes a GEMM one column
    wide through its GEMV path, whose sums round otherwise. A
    constant-intensity volume maps to all zeros.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 3 or raw.size == 0:
        raise DimensionError("expected a nonempty 3-D volume")
    side = max(raw.shape)
    lo, hi = raw.min(), raw.max()
    if min(raw.shape) < side:  # the pad's zeros count in the range
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    if hi == lo:
        return np.zeros((target_side, target_side, target_side))
    m = resample_matrix(side, target_side).T
    reach = [max(int(m[:n].any(axis=0).sum()), min(2, target_side)) for n in raw.shape]
    part = raw
    for n, c in zip(raw.shape, reach):  # contract the leading axis; its outputs come last
        part = part.reshape(n, -1).T @ m[:n, :c]
    vol = np.zeros((target_side, target_side, target_side))
    vol[:reach[0], :reach[1], :reach[2]] = part.reshape(reach)
    lo, hi = vol.min(), vol.max()
    if hi == lo:
        return np.zeros((target_side, target_side, target_side))
    return (vol - lo) / (hi - lo)


def patchify(volume: np.ndarray, patch_size: int) -> PatchGrid:
    """Split an S^3 volume into (S/p)^3 flattened p^3 patches (lossless)."""
    volume = np.asarray(volume, dtype=np.float64)
    s = volume.shape[0]
    if volume.shape != (s, s, s):
        raise DimensionError("patchify expects a cubic volume")
    p = patch_size
    if s % p != 0:
        raise DimensionError(f"patch size {p} does not divide volume side {s}")
    g = s // p
    blocks = volume.reshape(g, p, g, p, g, p).transpose(0, 2, 4, 1, 3, 5)
    return PatchGrid(patches=blocks.reshape(g ** 3, p ** 3), side=s, patch_size=p)


# ---------------------------------------------------------------------------
# text


def _format_value(v) -> str:
    if isinstance(v, float) and v == int(v) and "e" not in repr(v):
        return repr(v)  # keep "1.0" distinct from "1" for ratings
    return str(v)


def truncate_narrative(text: str) -> str:
    words = text.split()
    return " ".join(words[:NARRATIVE_MAX_WORDS]) if len(words) > NARRATIVE_MAX_WORDS else text


def textualize_record(rec: PatientRecord) -> str:
    """Render present fields as fixed-template sentences plus the narrative."""
    fields = rec.fields()
    parts = [tmpl.format(_format_value(fields[name]))
             for name, tmpl in FIELD_TEMPLATES if fields.get(name) is not None]
    if rec.narrative:
        parts.append(truncate_narrative(rec.narrative))
    return " ".join(parts)


def word_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def build_vocab(corpus: list[str], max_size: int | None = None) -> Vocab:
    """Frequency-ordered vocabulary (ties broken lexically). `max_size`
    caps the total token count, reserved entries included, so the result
    always fits a fixed-size embedding table."""
    if not corpus:
        raise DataFormatError("cannot build a vocabulary from an empty corpus")
    counts: dict[str, int] = {}
    for text in corpus:
        for tok in word_tokens(text):
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(counts, key=lambda t: (-counts[t], t))
    if max_size is not None:
        if max_size < len(RESERVED):
            raise VocabError(f"max_size {max_size} below reserved token count")
        kept = kept[: max_size - len(RESERVED)]
    return Vocab(tokens=RESERVED + kept)


def tokenize(text: str, vocab: Vocab, l_max: int) -> TokenSequence:
    """[CLS] + word ids, truncated to l_max, zero-padded."""
    ids = [CLS_ID] + [vocab.id_of(t) for t in word_tokens(text)]
    ids = ids[:l_max]
    length = len(ids)
    out = np.zeros(l_max, dtype=np.int64)
    out[:length] = ids
    mask = np.zeros(l_max, dtype=bool)
    mask[:length] = True
    return TokenSequence(ids=out, pad_mask=mask, length=length)


# ---------------------------------------------------------------------------
# synthetic dataset generation

# per-class volume blob profile: center fractions and size fraction of side
_BLOB_PROFILES = [
    {"center": (0.30, 0.32, 0.30), "sigma": 0.09},  # NC
    {"center": (0.70, 0.35, 0.62), "sigma": 0.11},  # MCI
    {"center": (0.42, 0.72, 0.70), "sigma": 0.13},  # AD
]

_NARRATIVE_POOLS = [
    ["memory intact and daily function normal",
     "no signs of cognitive decline reported by family",
     "patient performs well on recall tasks and remains independent"],
    ["mild forgetfulness noted in recent months",
     "occasional word finding difficulty but daily activities preserved",
     "subtle decline in recent memory observed during interview"],
    ["severe memory loss with disorientation to time and place",
     "marked impairment of daily function consistent with dementia",
     "profound recall deficits and dependence on caregiver reported"],
]


def _class_profile_index(label: int, n_classes: int) -> int:
    return label if n_classes == 3 else (0, 2)[label]


def _make_volume(rng: RngStream, profile: dict, side: int) -> np.ndarray:
    dims = tuple(int(d) for d in rng.integers(side - 4, side + 5, 3))
    vol = rng.normal(dims, std=0.05)
    cf = profile["center"]
    jitter = rng.uniform(-0.03, 0.03, 3)
    centers = [(cf[i] + jitter[i]) * dims[i] for i in range(3)]
    sigma = profile["sigma"] * side
    ax = [np.arange(d, dtype=np.float64) for d in dims]
    sq = sum(((a - c) ** 2)[sl] for a, c, sl in
             zip(ax, centers, [(slice(None), None, None),
                               (None, slice(None), None),
                               (None, None, slice(None))]))
    vol += np.exp(-sq / (2.0 * sigma ** 2))
    return np.clip(vol, 0.0, None)


def _make_fields(rng: RngStream, prof_idx: int, missing_rate: float) -> tuple[dict, dict, str | None]:
    age_mu = (70, 74, 78)[prof_idx]
    demographics = {
        "age": int(np.clip(round(rng.normal((), std=4.0) + age_mu), 55, 95)),
        "gender": rng.choice(["male", "female"]),
        "education": int(rng.integers(8, 21)),
        "hand": rng.choice(["right", "right", "right", "left"]),
    }
    mmse_range = ((27, 31), (23, 27), (10, 23))[prof_idx]
    lab = {
        "mmse": int(rng.integers(*mmse_range)),
        "cdr": (0.0, 0.5, float(rng.choice([1.0, 2.0])))[prof_idx],
        "logical_memory": int(rng.integers(*((12, 19), (7, 12), (0, 7))[prof_idx])),
    }
    narrative = str(rng.choice(_NARRATIVE_POOLS[prof_idx]))
    # independent drop of every optional field
    demographics = {k: v for k, v in demographics.items()
                    if rng.uniform(0.0, 1.0) >= missing_rate}
    lab = {k: v for k, v in lab.items() if rng.uniform(0.0, 1.0) >= missing_rate}
    if rng.uniform(0.0, 1.0) < missing_rate:
        narrative = None
    return demographics, lab, narrative


def generate_synthetic_dataset(n: int, n_classes: int = 3, side: int = 32,
                               missing_rate: float = 0.0,
                               seed: int = 0) -> list[PatientRecord]:
    """Seed-deterministic labeled records with class-coded volumes and fields.

    Labels cycle 0..n_classes-1, so counts are balanced by construction. The
    volume carries a class-positioned Gaussian blob; structured fields draw
    from class-conditional ranges; each optional field is dropped
    independently with probability `missing_rate`.
    """
    if n <= 0:
        raise DataFormatError("dataset size must be positive")
    if n_classes not in (2, 3):
        raise DataFormatError("n_classes must be 2 or 3")
    if side < 5:  # raw sides are jittered by up to 4 voxels
        raise DataFormatError("volume side must be >= 5")
    if not 0.0 <= missing_rate <= 1.0:  # NaN fails both comparisons
        raise DataFormatError(f"missing rate must lie in [0, 1], not {missing_rate}")
    root = RngStream(seed)
    records = []
    for i in range(n):
        rng = root.child(i)
        label = i % n_classes
        prof_idx = _class_profile_index(label, n_classes)
        volume = _make_volume(rng.child(0), _BLOB_PROFILES[prof_idx], side)
        demo, lab, narrative = _make_fields(rng.child(1), prof_idx, missing_rate)
        records.append(PatientRecord(volume=volume, label=label,
                                     demographics=demo, lab_results=lab,
                                     narrative=narrative))
    return records


# ---------------------------------------------------------------------------
# disk format


def write_volume(path: Path, volume: np.ndarray) -> None:
    volume = np.ascontiguousarray(volume, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(VOLUME_MAGIC)
        fh.write(struct.pack("<I", VOLUME_VERSION))
        fh.write(struct.pack("<III", *volume.shape))
        fh.write(volume.astype("<f8").tobytes())


def read_volume(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(20)
        if len(header) < 20:
            raise DataFormatError(f"{path}: truncated volume header")
        if header[:4] != VOLUME_MAGIC:
            raise DataFormatError(f"{path}: bad volume magic")
        (version,) = struct.unpack("<I", header[4:8])
        if version != VOLUME_VERSION:
            raise DataFormatError(f"{path}: unsupported volume version {version}")
        dims = struct.unpack("<III", header[8:20])
        if 0 in dims:
            raise DataFormatError(f"{path}: volume header claims an empty volume {dims}")
        count = dims[0] * dims[1] * dims[2]
        left = Path(path).stat().st_size - len(header)
        if count * 8 != left:  # write_volume writes exactly the header's voxels
            what = "truncated volume payload" if count * 8 > left else "trailing bytes"
            raise DataFormatError(f"{path}: {what}: header claims {dims} voxels "
                                  f"({count * 8} bytes) but {left} bytes follow")
        volume = np.frombuffer(fh.read(count * 8), dtype="<f8").reshape(dims).copy()
    if not np.isfinite(volume).all():
        raise DataFormatError(f"{path}: non-finite voxel values")
    return volume


def dataset_manifest(path: Path) -> Path:
    """The manifest of the dataset at `path`: its manifest.jsonl when `path`
    is a directory, else `path` itself."""
    path = Path(path)
    return path / "manifest.jsonl" if path.is_dir() else path


def save_dataset(records: list[PatientRecord], out_dir: Path) -> Path:
    """Write manifest.jsonl plus one volume file per record; returns manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "volumes").mkdir(exist_ok=True)
    manifest = dataset_manifest(out_dir)
    with open(manifest, "w") as fh:
        for i, rec in enumerate(records):
            rel = f"volumes/{i:05d}.vol"
            write_volume(out_dir / rel, rec.volume)
            line = {
                "demographics": rec.demographics,
                "lab_results": rec.lab_results,
                "narrative": rec.narrative,
                "label": rec.label,
                "volume": rel,
            }
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return manifest


def load_dataset(manifest_path: Path) -> list[PatientRecord]:
    manifest_path = dataset_manifest(manifest_path)
    root = manifest_path.parent.resolve()
    records = []
    with open(manifest_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:  # ValueError: also bad UTF-8, too-long integers
                obj = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise DataFormatError(
                    f"{manifest_path}: malformed manifest line {lineno}: {exc}") from exc
            where = f"{manifest_path}: manifest line {lineno}"
            if not isinstance(obj, dict):
                raise DataFormatError(f"{where} is not a JSON object")
            for key in ("volume", "label"):
                if key not in obj:
                    raise DataFormatError(f"{where} missing field {key!r}")
            label, volume = obj["label"], obj["volume"]
            if not isinstance(label, int) or isinstance(label, bool) or label < 0:
                raise DataFormatError(f"{where}: label {label!r} is not a non-negative integer")
            # resolve() raises ValueError on a NUL
            if (not isinstance(volume, str) or "\0" in volume
                    or not (root / volume).resolve().is_relative_to(root)):
                raise DataFormatError(f"{where}: volume {volume!r} is not a path inside {root}")
            demographics = obj.get("demographics") or {}
            lab_results = obj.get("lab_results") or {}
            narrative = obj.get("narrative")
            if not (isinstance(demographics, dict) and isinstance(lab_results, dict)
                    and isinstance(narrative, (str, type(None)))):
                raise DataFormatError(f"{where}: demographics and lab_results must be "
                                      "objects and narrative a string or null")
            for name, value in [*demographics.items(), *lab_results.items()]:
                if isinstance(value, float) and not math.isfinite(value):
                    raise DataFormatError(f"{where}: clinical field {name!r} is {value!r}, "
                                          "not a finite number")
            records.append(PatientRecord(
                volume=read_volume(root / volume), label=label,
                demographics=demographics, lab_results=lab_results,
                narrative=narrative))
    if not records:
        raise DataFormatError(f"{manifest_path}: empty dataset")
    return records

"""Joint optimization loop (AdamW), evaluation metrics, modality-gap
analytics, and checkpoint integration."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .data import (
    RESERVED,
    Batch,
    PatientRecord,
    TokenSequence,
    Vocab,
    normalize_volume,
    patchify,
    textualize_record,
    tokenize,
)
from .errors import (CheckpointError, ConfigError, DegenerateInputError, DimensionError,
                     LabelError, NumericError, check_fields)
from .losses import (
    LossBreakdown,
    LossWeights,
    classification_loss,
    image_recon_loss,
    itc_loss,
    text_recon_loss,
    total_loss,
)
from .model import AlignFuseModel, ModelConfig, param_specs
from .tensor import RngStream, Tensor, softmax

PREDICT_CHUNK = 4  # records per inference batch; larger ones raise peak memory
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # AdamW moment decays and epsilon


@dataclass
class TrainConfig:
    batch_size: int = 8
    lr: float = 1e-3
    weight_decay: float = 0.01
    steps: int = 200
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    eval_every: int = 50
    grad_clip: float | None = None

    def __post_init__(self):
        check_fields(self, {"batch_size": 1, "eval_every": 1, "steps": 0, "weight_decay": 0})
        for name in ("lr", "grad_clip"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "weights" in d:
            d["weights"] = LossWeights(**d["weights"])
        return cls(**d)


class AdamW:
    """Bias-corrected Adam with decoupled weight decay."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig,
                 state: dict[str, np.ndarray] | None = None):
        """Resumes the step and moments of `state`, laid out as `state_arrays` writes them."""
        self.params = params
        self.cfg = cfg
        self.t = int(state["t"]) if state else 0
        self.m = {k: state[f"{k}.m"] if state else np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: state[f"{k}.v"] if state else np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        cfg = self.cfg
        for p in self.params.values():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericError("non-finite gradient; aborting step")
        if cfg.grad_clip is not None:
            total = math.sqrt(sum(float((p.grad ** 2).sum())
                                  for p in self.params.values() if p.grad is not None))
            if total > cfg.grad_clip:
                scale = cfg.grad_clip / total
                for p in self.params.values():
                    if p.grad is not None:
                        p.grad = p.grad * scale
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS) \
                - cfg.lr * cfg.weight_decay * p.data
            if not np.isfinite(p.data).all():
                raise NumericError(f"parameter {name} became non-finite")

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"t": np.array(float(self.t))}
        for name in self.params:
            out[f"{name}.m"] = self.m[name]
            out[f"{name}.v"] = self.v[name]
        return out


# ---------------------------------------------------------------------------
# example preparation


@dataclass
class Example:
    patches: np.ndarray  # (P, p^3), from patchify
    tokens: TokenSequence
    label: int


def prepare_examples(records: list[PatientRecord], vocab: Vocab,
                     cfg: ModelConfig) -> list[Example]:
    """Flattened patches and token sequences of `records`; a label outside the
    model's classes raises LabelError."""
    out = []
    for rec in records:
        if not 0 <= rec.label < cfg.n_classes:
            raise LabelError(f"label {rec.label} outside the model's "
                             f"{cfg.n_classes} classes")
        vol = normalize_volume(rec.volume, cfg.volume_side)
        out.append(Example(
            patches=patchify(vol, cfg.patch_size),
            tokens=tokenize(textualize_record(rec), vocab, cfg.l_max),
            label=rec.label,
        ))
    return out


def dataset_corpus(records: list[PatientRecord]) -> list[str]:
    return [textualize_record(r) for r in records]


# ---------------------------------------------------------------------------
# training


def collate(examples: list[Example]) -> Batch:
    """Stack examples into one batch, text trimmed to its longest record."""
    return Batch.stack([ex.patches for ex in examples],
                       [ex.tokens for ex in examples],
                       [ex.label for ex in examples])


def batch_loss(model: AlignFuseModel, batch: Batch,
               weights: LossWeights, rng: RngStream) -> LossBreakdown:
    """Forward the batch and combine the four objectives; the per-record
    terms are averaged over the batch."""
    fwd = model.forward_training_pass(batch, rng)
    contrastive = itc_loss(fwd.z_image_cls, fwd.z_text_cls, model.temperature())
    return total_loss(
        contrastive,
        image_recon_loss(batch.patches, fwd.recon_image, fwd.masked_patches),
        text_recon_loss(batch.ids, batch.pad_mask, fwd.recon_text_logits,
                        fwd.masked_tokens),
        classification_loss(fwd.class_logits, batch.labels), weights)


def _batch_indices(n: int, batch_size: int, step: int, seed: int) -> np.ndarray:
    """Deterministic batch for a global step: seeded shuffle per epoch,
    sequential slices, last incomplete batch kept."""
    if n == 0:
        raise DimensionError("training batches drawn from no records")
    steps_per_epoch = math.ceil(n / batch_size)
    epoch, k = divmod(step, steps_per_epoch)
    order = RngStream(seed).child(1_000_000 + epoch).permutation(n)
    return order[k * batch_size: (k + 1) * batch_size]


def train_steps(model: AlignFuseModel, optim: AdamW, examples: list[Example],
                cfg: TrainConfig, n_steps: int | None = None) -> list[dict]:
    """Run `n_steps` optimization steps (default: up to cfg.steps, resuming
    from the optimizer's step counter). Returns per-step loss records."""
    start = optim.t
    end = cfg.steps if n_steps is None else start + n_steps
    log = []
    for step in range(start, end):
        idx = _batch_indices(len(examples), cfg.batch_size, step, cfg.seed)
        batch = collate([examples[i] for i in idx])
        rng = RngStream(cfg.seed).child(2_000_000 + step)
        optim.zero_grad()
        breakdown = batch_loss(model, batch, cfg.weights, rng)
        breakdown.total.backward()
        optim.step()
        model.clamp_temperature()
        log.append({"step": step, **breakdown.scalars(), "lr": cfg.lr})
    return log


# ---------------------------------------------------------------------------
# metrics


def compute_auc(scores, labels) -> float:
    """P(random positive outranks random negative); ties count 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("AUC needs both classes present")
    # average ranks: a run of c tied scores ending at rank r gets r - (c - 1) / 2
    _, inv, cnt = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(cnt) - (cnt - 1) / 2.0)[inv]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def macro_auc(probs: np.ndarray, labels: np.ndarray) -> float | None:
    """Macro one-vs-rest AUC; None when no class has both sides present."""
    aucs = []
    for c in range(probs.shape[1]):
        binary = (labels == c).astype(int)
        if 0 < binary.sum() < len(binary):
            aucs.append(compute_auc(probs[:, c], binary))
    return float(np.mean(aucs)) if aucs else None


def modality_gap(z_image: np.ndarray, z_text: np.ndarray) -> float:
    """Distance between the centroids of unit-normalized embedding sets."""
    zi = z_image / np.linalg.norm(z_image, axis=1, keepdims=True)
    zt = z_text / np.linalg.norm(z_text, axis=1, keepdims=True)
    return float(np.linalg.norm(zi.mean(axis=0) - zt.mean(axis=0)))


@dataclass
class EvalReport:
    accuracy: float
    auc: float | None
    per_class_counts: dict[int, dict[str, int]]
    modality_gap: float
    n: int

    def to_dict(self) -> dict:
        return {**asdict(self),
                "per_class_counts": {str(k): v for k, v in self.per_class_counts.items()}}


def inference_chunks(examples: list[Example]) -> Iterator[tuple[int, list[Example]]]:
    """(start, records) for each run of PREDICT_CHUNK records, in order: the
    batches of inference, so that its memory does not grow with the
    dataset; DimensionError when there are none."""
    if not examples:
        raise DimensionError("inference over no records")
    for start in range(0, len(examples), PREDICT_CHUNK):
        yield start, examples[start:start + PREDICT_CHUNK]


def predict(model: AlignFuseModel,
            examples: list[Example]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax class probabilities plus image/text [CLS] embeddings, one
    inference chunk at a time."""
    chunks = [model.classify(collate(chunk)) for _, chunk in inference_chunks(examples)]
    logits, z_img, z_txt = (np.concatenate([t.data for t in a]) for a in zip(*chunks))
    return softmax(Tensor(logits), axis=-1).data, z_img, z_txt


def evaluate(model: AlignFuseModel, examples: list[Example]) -> EvalReport:
    probs, z_img, z_txt = predict(model, examples)
    labels = np.array([ex.label for ex in examples])
    preds = probs.argmax(axis=1)
    counts = {}
    for c in range(model.config.n_classes):
        sel = labels == c
        counts[c] = {"n": int(sel.sum()),
                     "correct": int((preds[sel] == c).sum())}
    return EvalReport(
        accuracy=float((preds == labels).mean()),
        auc=macro_auc(probs, labels),
        per_class_counts=counts,
        modality_gap=modality_gap(z_img, z_txt),
        n=len(examples),
    )


# ---------------------------------------------------------------------------
# checkpoint integration


def save_model_checkpoint(path: Path, model: AlignFuseModel, vocab: Vocab,
                          optim: AdamW | None = None) -> None:
    payload = {"model_config": model.config.to_dict(), "vocab": vocab.tokens}
    params = {name: p.data for name, p in model.params.items()}
    state = optim.state_arrays() if optim is not None else {}
    ckpt.save_checkpoint(path, payload, params, state)


def _check_blobs(path: Path, section: str, blobs: dict[str, np.ndarray],
                 expected: Iterable) -> dict[str, tuple]:
    """Walks the (name, shape, ...) entries of `expected`, raising
    CheckpointError at the first blob of `section` that is missing, of another
    shape or not finite, then at one that nothing expects or an older key
    bias of another shape or not finite. Returns the shapes."""
    shapes: dict[str, tuple] = {}

    def check(name: str, shape: tuple, owner: str) -> None:
        found = blobs[name].shape if name in blobs else "(absent)"
        if found != shape:
            raise CheckpointError(f"{path}: {section} blob {name!r} has shape {found} "
                                  f"in the checkpoint and {shape} {owner}")
        if not np.isfinite(blobs[name]).all():
            raise CheckpointError(f"{path}: {section} blob {name!r} is not finite")

    for name, shape, *_ in expected:
        shapes[name] = shape
        check(name, shape, "in the model")
    # older checkpoints hold a key-projection bias `X.wk.b` beside `X.wk.w`, one value per
    # column of the map, and its moments; softmax cancels any such bias
    for name in sorted(blobs.keys() - shapes.keys()):
        weight = name.replace(".wk.b", ".wk.w")
        if weight not in shapes:
            raise CheckpointError(f"{path}: {section} blob {name!r} is not in the model")
        check(name, shapes[weight][1:], "for an older key bias")
    return shapes


def load_model_checkpoint(path: Path, train_cfg: TrainConfig | None = None,
                          ) -> tuple[AlignFuseModel, Vocab, AdamW | None]:
    """Model, vocabulary and (with `train_cfg`) optimizer of a checkpoint;
    a header, vocabulary, parameter or optimizer blob that does not fit the
    model raises CheckpointError."""
    payload, params, state = ckpt.load_checkpoint(path)
    try:
        config = ModelConfig.from_dict(payload["model_config"])
        tokens = payload["vocab"]
    except (KeyError, ConfigError, TypeError, AttributeError) as e:
        raise CheckpointError(f"{path}: bad header: {e!r}") from e
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise CheckpointError(f"{path}: vocab must be a list of strings")
    if tokens[:len(RESERVED)] != RESERVED or len(tokens) > config.vocab_size:
        raise CheckpointError(f"{path}: vocab must start with {RESERVED} and hold at "
                              f"most vocab_size={config.vocab_size} tokens, not {len(tokens)}")
    if len(set(tokens)) < len(tokens):
        repeated = next(t for i, t in enumerate(tokens) if tokens.index(t) < i)
        raise CheckpointError(f"{path}: vocab repeats the token {repeated!r}")
    vocab = Vocab(tokens=tokens)
    shapes = _check_blobs(path, "parameter", params, param_specs(config, RngStream(0)))
    if state:  # a checkpoint saved without an optimizer has no state
        _check_blobs(path, "optimizer", state, [("t", ()), *(
            (f"{name}.{k}", shape) for name, shape in shapes.items() for k in "mv")])
        if state["t"] < 0 or state["t"] != np.floor(state["t"]):
            raise CheckpointError(f"{path}: optimizer step t={float(state['t'])!r} "
                                  "is not a non-negative integer")
    model = AlignFuseModel(config, arrays=params)
    return model, vocab, None if train_cfg is None else AdamW(model.params, train_cfg, state)

"""The four training objectives and their weighted combination.

Contrastive alignment over [CLS] features, masked image reconstruction
(MSE), masked text reconstruction (cross-entropy), and supervised
classification, combined as
``total = w_contrast * contrast + w_recon * (image + text) + w_cls * cls``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, LabelError, check_fields, check_indices
from .tensor import Tensor, as_tensor, cross_entropy, unit_rows, weighted_square_error


@dataclass
class LossWeights:
    contrastive: float = 1.0
    reconstruction: float = 1.0
    classification: float = 1.0

    def __post_init__(self):
        check_fields(self, {"contrastive": 0, "reconstruction": 0, "classification": 0})


@dataclass
class LossBreakdown:
    contrastive: Tensor
    recon_image: Tensor
    recon_text: Tensor
    classification: Tensor
    total: Tensor

    def scalars(self) -> dict[str, float]:
        return {
            "l_cl": self.contrastive.item(),
            "l_res_image": self.recon_image.item(),
            "l_res_text": self.recon_text.item(),
            "l_cls": self.classification.item(),
            "l_total": self.total.item(),
        }


def itc_loss(z_image: Tensor, z_text: Tensor, tau) -> Tensor:
    """Symmetric InfoNCE over cosine similarities of paired rows.

    Both directions (image->text and text->image) are summed, each averaged
    over the batch so the value is batch-size independent. Diagonal entries
    are the positives.
    """
    if z_image.ndim != 2 or z_image.shape != z_text.shape:
        raise DimensionError("expected two equal-shape (batch, dim) tensors")
    b = z_image.shape[0]
    zi = unit_rows(z_image)
    zt = unit_rows(z_text)
    sims = (zi @ zt.T) * as_tensor(tau) ** -1.0  # (b, b)
    pairs = np.arange(b)
    return cross_entropy(sims, pairs, 1.0 / b) + cross_entropy(sims.T, pairs, 1.0 / b)


def _record_weights(masked: np.ndarray, size: int = 1) -> np.ndarray:
    """``masked / (count * size * records)``: a mean within each record, then over records."""
    n_records = masked.size // masked.shape[-1]
    counts = np.maximum(masked.sum(axis=-1, keepdims=True), 1)  # a record with none weighs 0
    return masked / (counts * size * n_records)


def image_recon_loss(target: np.ndarray, recon: Tensor,
                     masked: np.ndarray) -> Tensor:
    """MSE over voxels of the masked patches of each record, averaged over
    records. `target` and `recon` are (..., P, V), `masked` is the (..., P)
    bool matrix of masked patches; a record with none contributes 0, and
    an empty mask set gives 0."""
    if recon.shape != tuple(target.shape):
        raise DimensionError(
            f"reconstruction shape {recon.shape} != target {target.shape}")
    weight = _record_weights(np.asarray(masked, dtype=bool), target.shape[-1])
    return weighted_square_error(recon, target, weight[..., None])


def text_recon_loss(ids: np.ndarray, pad_mask: np.ndarray, logits: Tensor,
                    masked: np.ndarray) -> Tensor:
    """Cross-entropy of the true token ids at masked positions, averaged
    within each record and then over records. `ids`, `pad_mask` and
    `masked` are (..., L), `logits` is (..., L, vocab)."""
    masked = np.asarray(masked, dtype=bool)
    if masked[..., 0].any():
        raise ContractError("masked positions must exclude [CLS]")
    if (masked & ~pad_mask).any():
        raise ContractError("masked positions must be real tokens")
    return cross_entropy(logits, ids, _record_weights(masked))


def classification_loss(class_logits: Tensor, labels) -> Tensor:
    """Negative log softmax probability of the true class, averaged over
    records. `class_logits` is (..., n_classes), `labels` an int array of
    its leading shape."""
    labels = check_indices(labels, class_logits.shape[-1], "label", LabelError)
    return cross_entropy(class_logits, labels, 1.0 / max(labels.size, 1))


def total_loss(contrastive: Tensor, recon_image: Tensor, recon_text: Tensor,
               classification: Tensor,
               weights: LossWeights | None = None) -> LossBreakdown:
    weights = weights or LossWeights()
    total = (weights.contrastive * contrastive
             + weights.reconstruction * (recon_image + recon_text)
             + weights.classification * classification)
    return LossBreakdown(contrastive=contrastive, recon_image=recon_image,
                         recon_text=recon_text, classification=classification,
                         total=total)

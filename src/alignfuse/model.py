"""The alignment/fusion network.

Two unimodal transformer encoders (volumetric patches, clinical text tokens),
two cross-modal-grounded encoders that reuse the unimodal SA/FFN weights and
add per-block cross-attention into the other modality, two lightweight
decoders that reconstruct masked inputs, and a concat+MLP fusion classifier.

All parameters live in a flat name -> Tensor dict so the optimizer and the
checkpoint writer can treat them uniformly; weight sharing between the
unimodal and grounded encoders is by construction (same Tensor objects).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Batch, PatchGrid, TokenSequence
from .errors import ConfigError, DimensionError, VocabError, check_fields, check_indices
from .tensor import (
    LN_EPS,
    RngStream,
    Tensor,
    attention_sublayer,
    concat,
    ffn_sublayer,
    linear,
)

FFN_MULT = 4  # FFN hidden width is FFN_MULT * d_model


@dataclass
class ModelConfig:
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    patch_size: int = 8
    volume_side: int = 32
    vocab_size: int = 64
    l_max: int = 70
    n_classes: int = 3
    mask_ratio: float = 0.5

    def __post_init__(self):
        check_fields(self, {"d_model": 1, "n_heads": 1, "n_enc_layers": 0, "n_dec_layers": 0,
                            "patch_size": 1, "volume_side": 1, "vocab_size": 1, "l_max": 1,
                            "n_classes": 1})
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by n_heads")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ConfigError("mask_ratio must lie in [0, 1)")
        if self.volume_side % self.patch_size != 0:
            raise ConfigError("patch_size must divide volume_side")

    @property
    def grid_side(self) -> int:
        return self.volume_side // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid_side ** 3

    @property
    def patch_voxels(self) -> int:
        return self.patch_size ** 3

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Takes a retired field of older files only at the value now fixed."""
        fixed = {"ffn_mult": FFN_MULT, "layer_norm_eps": LN_EPS, "recon_masked_only": True,
                 "fusion_hidden": d.get("d_model", cls.d_model)}
        for key in sorted(fixed.keys() & d.keys()):
            if d[key] != fixed[key]:
                raise ConfigError(f"retired field {key}={d[key]!r} must be {fixed[key]!r}")
        return cls(**{k: v for k, v in d.items() if k not in fixed})


@dataclass
class ForwardOutputs:
    z_image_cls: Tensor        # (B, d)
    z_text_cls: Tensor         # (B, d)
    class_logits: Tensor       # (B, n_classes)
    recon_image: Tensor        # (B, P, V)
    recon_text_logits: Tensor  # (B, L, vocab); column 0 unused by the loss
    masked_patches: np.ndarray  # (B, P) bool, patches replaced by the mask
    masked_tokens: np.ndarray   # (B, L) bool, real tokens only, never [CLS]


def param_specs(config: ModelConfig, rng: RngStream):
    """Yield (name, shape, draw) for every parameter in drawing order. Only
    draw() draws or allocates; call it in yield order, since the maps of one
    block share a stream."""
    d, f = config.d_model, FFN_MULT * config.d_model

    def normal(name, shape, tag):
        return name, shape, lambda: rng.child(tag).truncated_normal(shape)

    def linear(name, d_in, d_out, stream, bias=True):
        std = math.sqrt(2.0 / (d_in + d_out))  # fan-scaled: 0.02 everywhere stalls small models
        yield f"{name}.w", (d_in, d_out), lambda: stream.truncated_normal((d_in, d_out), std)
        if bias:
            yield f"{name}.b", (d_out,), lambda: np.zeros(d_out)

    def ln(name):
        yield f"{name}.g", (d,), lambda: np.ones(d)
        yield f"{name}.b", (d,), lambda: np.zeros(d)

    def attention(name, stream):
        # no key bias: q·(k + b) adds the same q·b to every score of a query,
        # which softmax over keys cancels
        for proj in ("wq", "wk", "wv", "wo"):
            yield from linear(f"{name}.{proj}", d, d, stream, bias=proj != "wk")

    def block(name, stream):
        yield from ln(f"{name}.ln1")
        yield from attention(f"{name}.sa", stream)
        yield from ln(f"{name}.ln2")
        yield from linear(f"{name}.ffn.l1", d, f, stream)
        yield from linear(f"{name}.ffn.l2", f, d, stream)

    yield from linear("img.lp", config.patch_voxels, d, rng.child(1))
    yield normal("img.pe", (config.n_patches + 1, d), 2)
    yield normal("img.cls", (d,), 3)
    yield normal("img.mask", (d,), 4)
    yield normal("txt.emb", (config.vocab_size, d), 5)
    yield normal("txt.pe", (config.l_max, d), 6)
    yield normal("txt.mask", (d,), 7)
    for m, base in (("img", 10), ("txt", 20)):
        for i in range(config.n_enc_layers):
            yield from block(f"{m}.enc.{i}", rng.child(base * 100 + i))
            yield from ln(f"{m}.ca.{i}.ln")
            yield from attention(f"{m}.ca.{i}", rng.child(base * 100 + 50 + i))
        for i in range(config.n_dec_layers):
            yield from block(f"{m}.dec.{i}", rng.child(base * 100 + 70 + i))
    yield from linear("img.dec.head", d, config.patch_voxels, rng.child(31))
    yield from linear("txt.dec.head", d, config.vocab_size, rng.child(32))
    yield from linear("fusion.l1", 2 * d, d, rng.child(33))
    yield from linear("fusion.l2", d, config.n_classes, rng.child(34))
    yield "log_tau", (), lambda: np.array(math.log(0.07))


class AlignFuseModel:
    """Config + parameter store + every forward-path operation."""

    def __init__(self, config: ModelConfig, seed: int = 0,
                 arrays: dict[str, np.ndarray] | None = None):
        """Draws from `seed`, or holds the checked `arrays` as they are and draws nothing."""
        self.config = config
        self.params = {name: Tensor(draw() if arrays is None else arrays[name], requires_grad=True)
                       for name, _, draw in param_specs(config, RngStream(seed))}

    # -- primitives -----------------------------------------------------------

    def _linear(self, name: str, x: Tensor) -> Tensor:
        return linear(x, self.params[f"{name}.w"], self.params.get(f"{name}.b"))

    def _block(self, x: Tensor, name: str, pad_mask: np.ndarray | None,
               ctx: Tensor | None = None, ctx_pad_mask: np.ndarray | None = None,
               record: list | None = None, cls_only: bool = False) -> Tensor:
        """One pre-norm block on (B, N, d) rows: self-attention, then (with
        `ctx`) cross-attention into ctx through the `<m>.ca.<i>` weights of
        block `<m>.enc.<i>`, then FFN, each one graph node with its residual.
        The (B, N) and (B, Nctx) masks of real rows leave the pads of `x` and
        `ctx` out as keys. With `cls_only` only row 0 queries and comes out,
        (B, 1, d); keys and values still span every row."""
        p, heads = self.params, self.config.n_heads

        def norm(ln):
            return p[f"{ln}.g"], p[f"{ln}.b"]

        def maps(att):  # the key map has no bias
            return [p[f"{att}.{m}"]
                    for m in ("wq.w", "wq.b", "wk.w", "wv.w", "wv.b", "wo.w", "wo.b")]
        x = attention_sublayer(x, norm(f"{name}.ln1"), maps(f"{name}.sa"), heads, pad_mask,
                               record=record, cls_only=cls_only)
        if ctx is not None:
            ca = name.replace(".enc.", ".ca.")
            x = attention_sublayer(x, norm(f"{ca}.ln"), maps(ca), heads, ctx_pad_mask, ctx=ctx)
        ffn = [p[f"{name}.ffn.{m}"] for m in ("l1.w", "l1.b", "l2.w", "l2.b")]
        return ffn_sublayer(x, norm(f"{name}.ln2"), *ffn)

    # -- embedding ------------------------------------------------------------

    def embed_image(self, patches: np.ndarray) -> Tensor:
        """(B, P, V) patches -> (B, P+1, d): a [CLS] row followed by
        LP(patch) rows, plus position embeddings."""
        cfg = self.config
        if patches.shape[1:] != (cfg.n_patches, cfg.patch_voxels):
            raise DimensionError(
                f"patch grid {patches.shape[1:]} does not match config "
                f"({cfg.n_patches}, {cfg.patch_voxels})")
        projected = self._linear("img.lp", Tensor(patches))
        cls = self.params["img.cls"].reshape(1, 1, -1) * np.ones((len(patches), 1, 1))
        return concat([cls, projected], axis=1) + self.params["img.pe"]

    def embed_text(self, ids: np.ndarray) -> Tensor:
        """(B, L) token ids -> (B, L, d) with the first L position
        embeddings."""
        ids = check_indices(ids, self.config.vocab_size, "token id", VocabError)
        return self.params["txt.emb"][ids] + self.params["txt.pe"][:ids.shape[1]]

    # -- masking --------------------------------------------------------------

    def apply_mask(self, h: Tensor, modality: str, rngs: list[RngStream],
                   pad_mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
        """In each row b of (B, N, d) `h`, replace floor(mask_ratio * n_b) of
        its n_b maskable positions, drawn with rngs[b], by the modality's mask
        embedding (position embedding retained). A position is maskable when
        it is real (every position when `pad_mask` is None) and not [CLS].
        Returns the masked tensor and the (B, N) bool matrix of replaced
        positions."""
        b, n = h.shape[0], h.shape[1]
        maskable = np.ones((b, n), dtype=bool) if pad_mask is None else pad_mask.copy()
        maskable[:, 0] = False
        chosen = np.zeros((b, n), dtype=bool)
        for row, rng in enumerate(rngs):
            candidates = np.flatnonzero(maskable[row])
            n_mask = int(math.floor(self.config.mask_ratio * len(candidates)))
            if n_mask:
                chosen[row, candidates[rng.permutation(len(candidates))[:n_mask]]] = True
        if not chosen.any():
            return h, chosen
        keep = (~chosen)[:, :, None].astype(np.float64)
        pe = self.params[f"{modality}.pe"][:n]
        replacement = self.params[f"{modality}.mask"] + pe
        return h * keep + replacement * (1.0 - keep), chosen

    # -- encoders / decoders ---------------------------------------------------

    def encode_unimodal(self, h: Tensor, modality: str,
                        pad_mask: np.ndarray | None = None) -> Tensor:
        """Pre-norm SA + FFN stack on (B, N, d); pads excluded as keys."""
        for i in range(self.config.n_enc_layers):
            h = self._block(h, f"{modality}.enc.{i}", pad_mask)
        return h

    def encode_cls(self, h: Tensor, modality: str, pad_mask: np.ndarray | None = None,
                   record: list | None = None) -> Tensor:
        """Row 0 of `encode_unimodal`, (B, d). Only the [CLS] row of the last
        block's output is read, so that block runs the [CLS] query alone (the
        class-attention layer of CaiT, Touvron et al., 2021). `record`
        receives that block's (B, h, 1, N) attention."""
        n = self.config.n_enc_layers
        for i in range(n - 1):
            h = self._block(h, f"{modality}.enc.{i}", pad_mask)
        if n:
            h = self._block(h, f"{modality}.enc.{n - 1}", pad_mask, record=record, cls_only=True)
        return h[:, 0]

    def encode_grounded(self, h_masked: Tensor, z_other: Tensor, modality: str,
                        pad_mask: np.ndarray | None = None,
                        other_pad_mask: np.ndarray | None = None) -> Tensor:
        """Per block: shared SA, then cross-attention into the other
        modality's features, then shared FFN. Only the CA weights are
        specific to this path."""
        for i in range(self.config.n_enc_layers):
            h_masked = self._block(h_masked, f"{modality}.enc.{i}", pad_mask, z_other, other_pad_mask)
        return h_masked

    def decode_modality(self, z_grounded: Tensor, modality: str,
                        pad_mask: np.ndarray | None = None) -> Tensor:
        """SA + FFN decoder stack and linear head on every row: output row j
        reconstructs sequence position j. Row 0 ([CLS]) is never a
        reconstruction target."""
        for i in range(self.config.n_dec_layers):
            z_grounded = self._block(z_grounded, f"{modality}.dec.{i}", pad_mask)
        return self._linear(f"{modality}.dec.head", z_grounded)

    # -- fusion ---------------------------------------------------------------

    def fuse_classify(self, z_image_cls: Tensor, z_text_cls: Tensor) -> Tensor:
        """(B, d) image and text [CLS] features -> (B, n_classes) logits."""
        hidden = self._linear("fusion.l1", concat([z_image_cls, z_text_cls], axis=-1)).relu()
        return self._linear("fusion.l2", hidden)

    def temperature(self) -> Tensor:
        return self.params["log_tau"].reshape(1).exp()

    def clamp_temperature(self) -> None:
        """Project the temperature back into [0.01, 1] after a step."""
        self.params["log_tau"].data = np.clip(
            self.params["log_tau"].data, math.log(0.01), math.log(1.0))

    # -- full passes -----------------------------------------------------------

    def forward_training_pass(self, batch: Batch, rng: RngStream) -> ForwardOutputs:
        """Pass 1: unimodal encodings for contrast + fusion. Pass 2: masked
        inputs through the grounded encoders and decoders for restoration.
        Shared weights receive gradient from both passes. Row j draws its
        image mask from rng.child(j).child(0) and its text mask from
        rng.child(j).child(1)."""
        pad = batch.pad_mask
        h_img = self.embed_image(batch.patches)
        h_txt = self.embed_text(batch.ids)

        z_img = self.encode_unimodal(h_img, "img")
        z_txt = self.encode_unimodal(h_txt, "txt", pad_mask=pad)

        z_img_cls = z_img[:, 0]
        z_txt_cls = z_txt[:, 0]
        class_logits = self.fuse_classify(z_img_cls, z_txt_cls)

        rows = [rng.child(j) for j in range(len(pad))]
        h_img_masked, img_masked = self.apply_mask(
            h_img, "img", [r.child(0) for r in rows])
        h_txt_masked, txt_masked = self.apply_mask(
            h_txt, "txt", [r.child(1) for r in rows], pad_mask=pad)

        zg_img = self.encode_grounded(h_img_masked, z_txt, "img",
                                      other_pad_mask=pad)
        zg_txt = self.encode_grounded(h_txt_masked, z_img, "txt", pad_mask=pad)

        return ForwardOutputs(
            z_image_cls=z_img_cls, z_text_cls=z_txt_cls,
            class_logits=class_logits,
            # sequence row i is patch i-1
            recon_image=self.decode_modality(zg_img, "img")[:, 1:],
            masked_patches=img_masked[:, 1:],
            recon_text_logits=self.decode_modality(zg_txt, "txt", pad_mask=pad),
            masked_tokens=txt_masked,
        )

    def classify(self, batch: Batch) -> tuple[Tensor, Tensor, Tensor]:
        """Deterministic inference path: no masking. Returns
        (class_logits, z_image_cls, z_text_cls), one row per record."""
        z_img = self.encode_cls(self.embed_image(batch.patches), "img")
        z_txt = self.encode_cls(self.embed_text(batch.ids), "txt", pad_mask=batch.pad_mask)
        return self.fuse_classify(z_img, z_txt), z_img, z_txt

    def require_self_attention(self) -> None:
        """Raises ConfigError when there is no encoder block to map."""
        if self.config.n_enc_layers == 0:
            raise ConfigError("attention maps need n_enc_layers >= 1: a model with no "
                              "encoder block has no self-attention to map")

    def attention_maps(self, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        """[CLS]-query self-attention of the last unimodal encoder block,
        averaged over heads, one row per record; [CLS] (and pad) keys
        removed, renormalized.

        Returns ((B, g, g, g) image heat on the (S/p)^3 grid, (B, L_max) text
        weights with zeros at [CLS] and pads). A record with no token but
        [CLS] puts all its text weight on [CLS]. Raises ConfigError when
        there is no encoder block."""
        self.require_self_attention()
        g = self.config.grid_side
        rec_img: list = []
        rec_txt: list = []
        self.encode_cls(self.embed_image(batch.patches), "img", record=rec_img)
        self.encode_cls(self.embed_text(batch.ids), "txt", pad_mask=batch.pad_mask,
                        record=rec_txt)
        img = rec_img[0][:, :, 0, 1:].mean(axis=1)  # drop [CLS] key
        txt = np.zeros((len(batch.ids), self.config.l_max))
        # pad keys already hold exactly 0: attention leaves them out
        txt[:, 1:batch.ids.shape[1]] = rec_txt[0][:, :, 0, 1:].mean(axis=1)
        txt[txt.sum(axis=1) == 0, 0] = 1.0
        return ((img / img.sum(axis=1, keepdims=True)).reshape(-1, g, g, g),
                txt / txt.sum(axis=1, keepdims=True))

    def extract_attention_map(self, patches: PatchGrid,
                              tokens: TokenSequence) -> tuple[np.ndarray, np.ndarray]:
        """Row 0 of `attention_maps` on a batch of this one record, built
        from views of the record's arrays."""
        n = tokens.length
        heat, txt = self.attention_maps(Batch(patches.patches[None], tokens.ids[None, :n],
                                              tokens.pad_mask[None, :n]))
        return heat[0], txt[0]

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alignfuse import model as model_module
from alignfuse.data import (
    CLS_ID,
    Batch,
    TokenSequence,
    build_vocab,
    patchify,
    tokenize,
)
from alignfuse.errors import ConfigError, DimensionError, VocabError
from alignfuse.model import AlignFuseModel, ModelConfig, param_specs
from alignfuse.tensor import RngStream, Tensor, finite_diff_check


def tiny_config(**kw):
    defaults = dict(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                    patch_size=2, volume_side=4, vocab_size=12, l_max=8,
                    n_classes=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


def tiny_inputs(cfg, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    vol = rng.uniform(0, 1, (cfg.volume_side,) * 3)
    patches = patchify(vol, cfg.patch_size)
    ids = np.zeros(cfg.l_max, dtype=np.int64)
    ids[0] = CLS_ID
    n_real = 5
    ids[1:n_real] = rng.integers(4, cfg.vocab_size, n_real - 1)
    return patches, TokenSequence(ids=ids, length=n_real)


def real_mask(toks):
    """The (L_max,) mask of a record's real tokens, as `Batch.stack` derives it."""
    return np.arange(len(toks.ids)) < toks.length


def one_batch(patches, toks):
    return Batch.stack([patches], [toks])


def full_encoder(model, h, modality, pad_mask=None):
    """Oracle of the [CLS]-only inference path: every unimodal block on every
    row. Returns the (B, N, d) output and each block's recorded (B, h, N, N)
    attention probabilities."""
    rec = []
    for i in range(model.config.n_enc_layers):
        h = model._block(h, f"{modality}.enc.{i}", pad_mask, record=rec)
    return h, rec


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=10, n_heads=4)

    def test_mask_ratio_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(mask_ratio=1.0)

    def test_roundtrip(self):
        cfg = tiny_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_loads_config_with_removed_field(self):
        cfg = tiny_config()
        old = {**cfg.to_dict(), "recon_masked_only": True}
        assert ModelConfig.from_dict(old) == cfg

    def test_loads_config_with_retired_fields_at_fixed_values(self):
        cfg = tiny_config()
        old = {**cfg.to_dict(), "ffn_mult": 4, "fusion_hidden": cfg.d_model,
               "layer_norm_eps": 1e-5, "recon_masked_only": True}
        assert ModelConfig.from_dict(old) == cfg

    @pytest.mark.parametrize("key,value", [
        ("ffn_mult", 2), ("fusion_hidden", 16), ("layer_norm_eps", 1e-6),
        ("recon_masked_only", False)])
    def test_retired_field_at_another_value_is_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ModelConfig.from_dict({**tiny_config().to_dict(), key: value})

    @pytest.mark.parametrize("field", ["n_heads", "patch_size"])
    def test_zero_divisor(self, field):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: 0})


class TestEmbedImage:
    def test_row_count(self):
        cfg = tiny_config(patch_size=8, volume_side=16)
        model = AlignFuseModel(cfg, seed=0)
        patches = patchify(np.zeros((16, 16, 16)), 8)
        assert model.embed_image(patches[None]).shape == (1, 9, cfg.d_model)

    def test_zero_patches_zero_lp_gives_pe_plus_cls(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        model.params["img.lp.w"].data[:] = 0.0
        patches = patchify(np.zeros((4, 4, 4)), 2)
        h = model.embed_image(patches[None])[0]
        pe = model.params["img.pe"].data
        cls = model.params["img.cls"].data
        assert np.allclose(h.data[0], cls + pe[0])
        assert np.allclose(h.data[1:], pe[1:])

    def test_differs_only_where_patches_differ(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        p1, _ = tiny_inputs(cfg, seed=1)
        p2 = p1.copy()
        p2[3] += 1.0
        h1, h2 = model.embed_image(np.stack([p1, p2])).data
        diff_rows = np.where(np.abs(h1 - h2).sum(axis=1) > 0)[0]
        assert np.array_equal(diff_rows, [4])  # row 0 is [CLS]

    def test_shape_mismatch(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        with pytest.raises(DimensionError):
            model.embed_image(patchify(np.zeros((8, 8, 8)), 2)[None])


class TestEmbedText:
    def test_identical_inputs_identical_output(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        _, toks = tiny_inputs(cfg)
        assert np.array_equal(model.embed_text(toks.ids[None]).data,
                              model.embed_text(toks.ids[None]).data)

    def test_pad_rows_carry_pad_embedding(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        toks = TokenSequence(ids=np.array([CLS_ID] + [0] * 7), length=1)
        h = model.embed_text(toks.ids[None]).data[0]
        pad_emb = model.params["txt.emb"].data[0]
        pe = model.params["txt.pe"].data
        assert np.allclose(h[1:], pad_emb + pe[1:])

    def test_swapping_tokens_permutes_lookup(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        _, toks = tiny_inputs(cfg, seed=2)
        ids2 = toks.ids.copy()
        ids2[1], ids2[2] = ids2[2], ids2[1]
        toks2 = TokenSequence(ids=ids2, length=toks.length)
        pe = model.params["txt.pe"].data
        h1, h2 = model.embed_text(np.stack([toks.ids, toks2.ids])).data - pe
        assert np.allclose(h1[1], h2[2]) and np.allclose(h1[2], h2[1])

    def test_out_of_range_id(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        toks = TokenSequence(ids=np.array([CLS_ID, 99] + [0] * 6), length=2)
        with pytest.raises(VocabError):
            model.embed_text(toks.ids[None])

    @pytest.mark.parametrize("bad", [-3, -1, 12])
    def test_id_outside_the_vocabulary_is_named(self, bad):
        # a negative id would read a row from the end of txt.emb
        model = AlignFuseModel(tiny_config(), seed=0)
        with pytest.raises(VocabError, match=f"token id {bad} "):
            model.embed_text(np.array([[1, bad, 5]]))

    @pytest.mark.parametrize("row, named", [([1, 2.5, 5], "2.5"), ([1.0, 2, 5], "1.0")])
    def test_non_integer_id_is_named(self, row, named):
        # an array of float dtype would be truncated to a row; the error names
        # the first fraction, or the first id when every one is whole
        model = AlignFuseModel(tiny_config(), seed=0)
        with pytest.raises(VocabError, match=f"token id {named} of dtype float64 "):
            model.embed_text(np.array([row]))

    @pytest.mark.parametrize("shape", [(8,), (1, 1, 8), (2, 9)])
    def test_ids_not_batch_by_length_are_refused(self, shape):
        # (B, L) with L <= l_max, checked before the ids themselves: even an
        # out-of-vocabulary id gives the shape error
        model = AlignFuseModel(tiny_config(), seed=0)
        assert model.config.l_max == 8
        ids = np.full(shape, model.config.vocab_size)
        with pytest.raises(DimensionError, match=f"token ids of shape {re.escape(str(shape))}"):
            model.embed_text(ids)


class TestApplyMask:
    def setup_method(self):
        self.cfg = tiny_config(patch_size=2, volume_side=6)  # 27 patches
        self.model = AlignFuseModel(self.cfg, seed=0)
        self.h = self.model.embed_image(tiny_inputs(self.cfg)[0][None])

    def mask(self, seed, mask_ratio=0.5):
        # same seed, so the same parameters as self.model
        model = AlignFuseModel(tiny_config(patch_size=2, volume_side=6,
                                           mask_ratio=mask_ratio), seed=0)
        h2, chosen = model.apply_mask(self.h, "img", [RngStream(seed)])
        return h2, np.flatnonzero(chosen[0])

    def test_ratio_zero_is_identity(self):
        h2, idx = self.mask(0, mask_ratio=0.0)
        assert h2 is self.h and idx.size == 0

    def test_exact_mask_count(self):
        h2, idx = self.mask(1, mask_ratio=0.5)
        assert idx.size == 13  # floor(0.5 * 27)

    def test_seed_determinism(self):
        _, i1 = self.mask(7)
        _, i2 = self.mask(7)
        assert np.array_equal(i1, i2)

    @pytest.mark.parametrize("seed", range(20))
    def test_cls_never_masked(self, seed):
        _, idx = self.mask(seed, mask_ratio=0.9)
        assert 0 not in idx

    def test_masked_rows_are_mask_embedding_plus_pe(self):
        h2, idx = self.mask(3)
        expected = (self.model.params["img.mask"].data
                    + self.model.params["img.pe"].data[idx])
        assert np.allclose(h2.data[0, idx], expected)
        kept = np.setdiff1d(np.arange(self.h.shape[1]), idx)
        assert np.array_equal(h2.data[0, kept], self.h.data[0, kept])

    def test_rows_draw_from_their_own_stream(self):
        h = self.model.embed_image(np.stack([tiny_inputs(self.cfg, seed=s)[0]
                                             for s in (0, 1)]))
        _, chosen = self.model.apply_mask(h, "img", [RngStream(5), RngStream(6)])
        assert np.array_equal(np.flatnonzero(chosen[0]), self.mask(5)[1])
        assert np.array_equal(np.flatnonzero(chosen[1]), self.mask(6)[1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=5),
           n=st.integers(2, 12), padded=st.booleans(),
           mask_ratio=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32))
    @example(lengths=[12, 1, 5], n=12, padded=True, mask_ratio=0.99, seed=3)
    @example(lengths=[1], n=2, padded=True, mask_ratio=0.5, seed=0)
    def test_masks_real_non_cls_positions_row_by_row(self, lengths, n, padded, mask_ratio,
                                                     seed):
        model = AlignFuseModel(tiny_config(n_enc_layers=0, n_dec_layers=0, l_max=12,
                                           mask_ratio=mask_ratio), seed=0)
        b = len(lengths)
        h = Tensor(np.random.Generator(np.random.PCG64(seed)).normal(size=(b, n, 8)))
        pad = np.arange(n) < np.minimum(lengths, n)[:, None] if padded else None
        real = np.ones((b, n), dtype=bool) if pad is None else pad

        def streams():
            return [RngStream(seed + row) for row in range(b)]

        out, chosen = model.apply_mask(h, "txt", streams(), pad_mask=pad)
        assert not (chosen & ~real).any() and not chosen[:, 0].any()
        assert np.array_equal(chosen.sum(axis=1),
                              [math.floor(mask_ratio * (r.sum() - 1)) for r in real])
        for row, rng in enumerate(streams()):
            alone = model.apply_mask(Tensor(h.data[row:row + 1]), "txt", [rng],
                                     pad_mask=None if pad is None else pad[row:row + 1])[1]
            assert np.array_equal(alone[0], chosen[row])
        replacement = model.params["txt.mask"].data + model.params["txt.pe"].data[:n]
        assert np.array_equal(out.data[chosen], np.broadcast_to(replacement, h.shape)[chosen])
        assert np.array_equal(out.data[~chosen], h.data[~chosen])


class TestEncoders:
    def test_empty_stack_is_identity(self):
        cfg = tiny_config(n_enc_layers=0)
        model = AlignFuseModel(cfg, seed=0)
        patches, _ = tiny_inputs(cfg)
        h = model.embed_image(patches[None])
        z = model.encode_unimodal(h, "img")
        assert np.array_equal(z.data, h.data)

    def test_attention_rows_sum_to_one(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        _, toks = tiny_inputs(cfg)
        _, rec = full_encoder(model, model.embed_text(toks.ids[None]), "txt",
                              pad_mask=real_mask(toks)[None])
        for att in rec:
            assert np.allclose(att.sum(axis=-1), 1.0, atol=1e-9)

    def test_pad_keys_get_exactly_zero(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        _, toks = tiny_inputs(cfg)
        _, rec = full_encoder(model, model.embed_text(toks.ids[None]), "txt",
                              pad_mask=real_mask(toks)[None])
        for att in rec:
            assert np.all(att[0][:, :, ~real_mask(toks)] == 0.0)

    def test_grounded_with_zero_ca_output_equals_unimodal(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        h = model.embed_image(patches[None])
        z_other = model.encode_unimodal(model.embed_text(toks.ids[None]), "txt",
                                        pad_mask=real_mask(toks)[None])
        for i in range(cfg.n_enc_layers):
            model.params[f"img.ca.{i}.wo.w"].data[:] = 0.0
            model.params[f"img.ca.{i}.wo.b"].data[:] = 0.0
        zg = model.encode_grounded(h, z_other, "img",
                                   other_pad_mask=real_mask(toks)[None])
        zu = model.encode_unimodal(h, "img")
        assert np.allclose(zg.data, zu.data)

    def test_grounded_sensitive_to_other_modality(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        h = model.embed_image(patches[None])
        z_other = model.encode_unimodal(model.embed_text(toks.ids[None]), "txt",
                                        pad_mask=real_mask(toks)[None])
        z1 = model.encode_grounded(h, z_other, "img",
                                   other_pad_mask=real_mask(toks)[None]).data
        bumped = Tensor(z_other.data + np.eye(1, z_other.shape[1], 2).T * 0.5)
        z2 = model.encode_grounded(h, bumped, "img",
                                   other_pad_mask=real_mask(toks)[None]).data
        assert not np.array_equal(z1, z2)


class TestWeightSharing:
    def _outputs(self, model, patches, toks):
        h = model.embed_image(patches[None])
        z_txt = model.encode_unimodal(model.embed_text(toks.ids[None]), "txt",
                                      pad_mask=real_mask(toks)[None])
        zu = model.encode_unimodal(h, "img").data.copy()
        zg = model.encode_grounded(h, z_txt, "img",
                                   other_pad_mask=real_mask(toks)[None]).data.copy()
        return zu, zg

    def test_sa_weight_touches_both_paths(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        zu0, zg0 = self._outputs(model, patches, toks)
        model.params["img.enc.0.sa.wq.w"].data[0, 0] += 0.25
        zu1, zg1 = self._outputs(model, patches, toks)
        assert not np.array_equal(zu0, zu1)
        assert not np.array_equal(zg0, zg1)

    def test_ca_weight_touches_only_grounded(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        zu0, zg0 = self._outputs(model, patches, toks)
        model.params["img.ca.0.wq.w"].data[0, 0] += 0.25
        zu1, zg1 = self._outputs(model, patches, toks)
        assert np.array_equal(zu0, zu1)
        assert not np.array_equal(zg0, zg1)

    def test_text_side_sharing(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        h_txt = model.embed_text(toks.ids[None])
        z_img = model.encode_unimodal(model.embed_image(patches[None]), "img")
        pad = real_mask(toks)[None]

        def outs():
            zu = model.encode_unimodal(h_txt, "txt", pad_mask=pad)
            zg = model.encode_grounded(h_txt, z_img, "txt", pad_mask=pad)
            return zu.data.copy(), zg.data.copy()

        zu0, zg0 = outs()
        model.params["txt.enc.0.ffn.l1.w"].data[0, 0] += 0.25
        zu1, zg1 = outs()
        assert not np.array_equal(zu0, zu1) and not np.array_equal(zg0, zg1)
        model.params["txt.ca.0.wv.w"].data[0, 0] += 0.25
        zu2, zg2 = outs()
        assert np.array_equal(zu1, zu2) and not np.array_equal(zg1, zg2)


class TestDecode:
    def test_image_head_shape(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        z = model.encode_unimodal(model.embed_image(patches[None]), "img")
        out = model.decode_modality(z, "img")
        assert out.shape == (1, cfg.n_patches + 1, cfg.patch_voxels)

    def test_zero_blocks_is_linear_head(self):
        cfg = tiny_config(n_dec_layers=0)
        model = AlignFuseModel(cfg, seed=0)
        patches, _ = tiny_inputs(cfg)
        z = model.embed_image(patches[None])
        out = model.decode_modality(z, "img")
        w = model.params["img.dec.head.w"].data
        b = model.params["img.dec.head.b"].data
        assert np.allclose(out.data[0], z.data[0] @ w + b)

    def test_text_logits_make_distributions(self):
        from alignfuse.tensor import softmax as sm

        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        _, toks = tiny_inputs(cfg)
        z = model.encode_unimodal(model.embed_text(toks.ids[None]), "txt",
                                  pad_mask=real_mask(toks)[None])
        logits = model.decode_modality(z, "txt", pad_mask=real_mask(toks)[None])
        assert logits.shape == (1, cfg.l_max, cfg.vocab_size)
        probs = sm(logits, axis=-1).data
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)


class TestFuseClassify:
    def test_zero_weights_give_zero_logits(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        for name in ("fusion.l1.w", "fusion.l1.b", "fusion.l2.w", "fusion.l2.b"):
            model.params[name].data[:] = 0.0
        logits = model.fuse_classify(Tensor(np.ones((1, 8))), Tensor(np.ones((1, 8))))
        assert np.all(logits.data == 0.0)

    def test_concat_order_matters(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        zi = Tensor(np.linspace(-1, 1, 8).reshape(1, -1))
        zt = Tensor(np.linspace(1, -1, 8).reshape(1, -1) * 0.5)
        a = model.fuse_classify(zi, zt).data
        b = model.fuse_classify(zt, zi).data
        assert not np.allclose(a, b)

    def test_hand_computed_mlp(self):
        cfg = tiny_config(d_model=2, n_heads=1, n_classes=2)
        model = AlignFuseModel(cfg, seed=0)
        model.params["fusion.l1.w"].data = np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [0.5, 0.5]])
        model.params["fusion.l1.b"].data = np.array([0.1, -0.2])
        model.params["fusion.l2.w"].data = np.array([[1.0, 2.0], [3.0, -1.0]])
        model.params["fusion.l2.b"].data = np.array([0.0, 1.0])
        zi, zt = Tensor([[1.0, 2.0]]), Tensor([[3.0, -1.0]])
        # hidden = relu([1,2,3,-1] @ w1 + b1) = relu([3.6, -1.7]) = [3.6, 0]
        # logits = [3.6*1 + 0*3, 3.6*2 - 0] + [0, 1] = [3.6, 8.2]
        logits = model.fuse_classify(zi, zt)
        assert np.allclose(logits.data, [[3.6, 8.2]])


class TestForwardTrainingPass:
    def test_mask_ratio_zero_convention(self):
        cfg = tiny_config(mask_ratio=0.0)
        model = AlignFuseModel(cfg, seed=0)
        out = model.forward_training_pass(one_batch(*tiny_inputs(cfg)), RngStream(0))
        assert not out.masked_patches.any()
        assert not out.masked_tokens.any()
        assert out.recon_image.shape == (1, cfg.n_patches, cfg.patch_voxels)

    def test_bitwise_determinism(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        batch = one_batch(*tiny_inputs(cfg))
        o1 = model.forward_training_pass(batch, RngStream(5))
        o2 = model.forward_training_pass(batch, RngStream(5))
        assert np.array_equal(o1.class_logits.data, o2.class_logits.data)
        assert np.array_equal(o1.recon_image.data, o2.recon_image.data)
        assert np.array_equal(o1.recon_text_logits.data, o2.recon_text_logits.data)
        assert np.array_equal(o1.masked_patches, o2.masked_patches)

    def test_masked_token_positions_are_real(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        batch = one_batch(*tiny_inputs(cfg))
        out = model.forward_training_pass(batch, RngStream(9))
        assert out.masked_tokens.any()
        assert not out.masked_tokens[:, 0].any()
        assert batch.pad_mask[out.masked_tokens].all()

    def test_shared_weight_gets_grad_from_either_pass(self):
        from alignfuse.losses import (
            LossWeights,
            classification_loss,
            image_recon_loss,
            itc_loss,
            text_recon_loss,
        )

        cfg = tiny_config()
        batch = one_batch(*tiny_inputs(cfg))
        name = "img.enc.0.sa.wv.w"

        def grad_norm(w_contrast, w_recon):
            model = AlignFuseModel(cfg, seed=0)
            out = model.forward_training_pass(batch, RngStream(0))
            contrast = itc_loss(out.z_image_cls, out.z_text_cls,
                                model.temperature())
            recon = image_recon_loss(batch.patches, out.recon_image,
                                     out.masked_patches) \
                + text_recon_loss(batch.ids, batch.pad_mask,
                                  out.recon_text_logits, out.masked_tokens)
            cls = classification_loss(out.class_logits, [1])
            loss = w_contrast * (contrast + cls) + w_recon * recon
            loss.backward()
            return float(np.abs(model.params[name].grad).sum())

        # either pass alone reaches the shared SA weight
        assert grad_norm(1.0, 0.0) > 0.0
        assert grad_norm(0.0, 1.0) > 0.0


def ragged_batch(cfg, lengths):
    """Records whose texts have the given real lengths ([CLS] included)."""
    rng = np.random.Generator(np.random.PCG64(17))
    patches, tokens = [], []
    for i, n_real in enumerate(lengths):
        patches.append(tiny_inputs(cfg, seed=i)[0])
        ids = np.zeros(cfg.l_max, dtype=np.int64)
        ids[0] = CLS_ID
        ids[1:n_real] = rng.integers(4, cfg.vocab_size, n_real - 1)
        tokens.append(TokenSequence(ids=ids, length=n_real))
    return patches, tokens


class TestBatchMajor:
    def test_text_trimmed_to_longest_record(self):
        cfg = tiny_config(l_max=12)
        batch = Batch.stack(*ragged_batch(cfg, [3, 7, 5]))
        assert batch.ids.shape == (3, 7)
        assert np.array_equal(batch.pad_mask.sum(axis=1), [3, 7, 5])

    def test_batch_loss_equals_mean_of_single_records(self):
        from alignfuse.losses import LossWeights
        from alignfuse.train import batch_loss

        cfg = tiny_config(l_max=12)
        model = AlignFuseModel(cfg, seed=2)
        patches, tokens = ragged_batch(cfg, [3, 9, 6, 12])
        labels = [0, 1, 2, 1]
        rng = RngStream(23)

        class RowOf:
            """Stream for a one-record batch whose row 0 is row j of `rng`."""

            def __init__(self, j):
                self.j = j

            def child(self, tag):
                assert tag == 0
                return rng.child(self.j)

        whole = batch_loss(model, Batch.stack(patches, tokens, labels),
                           LossWeights(), rng).scalars()
        singles = [batch_loss(model, Batch.stack([p], [t], [y]), LossWeights(),
                              RowOf(j)).scalars()
                   for j, (p, t, y) in enumerate(zip(patches, tokens, labels))]
        out = model.forward_training_pass(Batch.stack(patches, tokens), rng)
        for j, (p, t) in enumerate(zip(patches, tokens)):
            one = model.forward_training_pass(Batch.stack([p], [t]), RowOf(j))
            assert np.array_equal(out.masked_patches[j], one.masked_patches[0])
            n = one.masked_tokens.shape[1]
            assert np.array_equal(out.masked_tokens[j, :n], one.masked_tokens[0])
            assert not out.masked_tokens[j, n:].any()
        for key in ("l_res_image", "l_res_text", "l_cls"):
            expected = np.mean([s[key] for s in singles])
            assert abs(whole[key] - expected) < 1e-10, key

    def test_trimmed_classify_matches_text_padded_to_l_max(self):
        cfg = tiny_config(l_max=12)
        model = AlignFuseModel(cfg, seed=4)
        patches, tokens = ragged_batch(cfg, [3, 8, 5])
        trimmed = Batch.stack(patches, tokens)
        padded = Batch(patches=trimmed.patches,
                       ids=np.stack([t.ids for t in tokens]),
                       pad_mask=np.stack([real_mask(t) for t in tokens]))
        assert trimmed.ids.shape[1] < padded.ids.shape[1]
        for a, b in zip(model.classify(trimmed), model.classify(padded)):
            assert np.allclose(a.data, b.data, rtol=0.0, atol=1e-12)

    def test_per_row_pad_bias_isolates_records(self):
        cfg = tiny_config(l_max=12)
        model = AlignFuseModel(cfg, seed=4)
        patches, tokens = ragged_batch(cfg, [3, 8, 5])
        batch = Batch.stack(patches, tokens)
        logits = model.classify(batch)[0].data
        for j, (p, t) in enumerate(zip(patches, tokens)):
            alone = model.classify(Batch.stack([p], [t]))[0].data[0]
            assert np.allclose(logits[j], alone, rtol=0.0, atol=1e-12)


class TestAttentionMap:
    def test_single_patch_heat(self):
        cfg = tiny_config(patch_size=4, volume_side=4)
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        heat, _ = model.extract_attention_map(patches, toks)
        assert heat.shape == (1, 1, 1)
        assert np.allclose(heat, 1.0)

    def test_heat_sums_to_one_and_grid_shape(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        heat, txt = model.extract_attention_map(patches, toks)
        assert heat.shape == (cfg.grid_side,) * 3
        assert np.isclose(heat.sum(), 1.0, atol=1e-6)
        assert np.isclose(txt.sum(), 1.0, atol=1e-6)
        assert txt.shape == (cfg.l_max,)
        assert np.all(heat >= 0) and np.all(txt >= 0)
        assert txt[0] == 0.0
        assert np.all(txt[~real_mask(toks)] == 0.0)

    def test_matches_recorded_attention(self):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        _, rec = full_encoder(model, model.embed_image(patches[None]), "img")
        row = rec[-1][0, :, 0, 1:].mean(axis=0)
        heat, _ = model.extract_attention_map(patches, toks)
        assert np.allclose(heat.reshape(-1), row / row.sum())

    def test_text_weights_span_l_max_with_zeros_at_cls_and_pads(self):
        cfg = tiny_config(l_max=12)
        model = AlignFuseModel(cfg, seed=0)
        (patches,), (toks,) = ragged_batch(cfg, [5])
        _, txt = model.extract_attention_map(patches, toks)
        assert txt.shape == (cfg.l_max,)
        assert txt[0] == 0.0 and np.all(txt[5:] == 0.0)
        assert np.all(txt[1:5] > 0.0) and np.isclose(txt.sum(), 1.0, atol=1e-12)
        # the same weights as the [CLS] row of the full-length encoding
        _, rec = full_encoder(model, model.embed_text(toks.ids[None]), "txt",
                              pad_mask=real_mask(toks)[None])
        row = rec[-1][0, :, 0, :].mean(axis=0)
        row[0] = 0.0
        assert np.allclose(txt, row / row.sum(), rtol=0.0, atol=1e-12)

    def test_leaves_the_record_unchanged_and_gives_the_stacked_bits(self):
        # the one-record batch is views of the record's arrays, not a copy
        cfg = tiny_config(l_max=12)
        model = AlignFuseModel(cfg, seed=2)
        (patches,), (toks,) = ragged_batch(cfg, [5])
        before = [a.copy() for a in (patches, toks.ids)]
        heat, txt = model.extract_attention_map(patches, toks)
        for a, b in zip((patches, toks.ids), before):
            assert a.tobytes() == b.tobytes()
        stacked_heat, stacked_txt = model.attention_maps(one_batch(patches, toks))
        assert heat.tobytes() == stacked_heat[0].tobytes()
        assert txt.tobytes() == stacked_txt[0].tobytes()

    def test_batch_rows_match_single_records(self):
        cfg = tiny_config(l_max=12)
        model = AlignFuseModel(cfg, seed=3)
        patches, tokens = ragged_batch(cfg, [1, 8, 5])
        heat, txt = model.attention_maps(Batch.stack(patches, tokens))
        assert heat.shape == (3,) + (cfg.grid_side,) * 3
        assert txt.shape == (3, cfg.l_max)
        for j, (p, t) in enumerate(zip(patches, tokens)):
            one_heat, one_txt = model.extract_attention_map(p, t)
            assert np.allclose(heat[j], one_heat, rtol=0.0, atol=1e-12)
            assert np.allclose(txt[j], one_txt, rtol=0.0, atol=1e-12)
        # the [CLS]-only record is one-hot at [CLS]; the others are zero there
        assert np.array_equal(txt[0], np.eye(cfg.l_max)[0])
        assert txt[1, 0] == 0.0 and txt[2, 0] == 0.0
        assert np.all(txt[1, 8:] == 0.0) and np.all(txt[2, 5:] == 0.0)


class TestClsOnlyInference:
    """`classify` and `attention_maps` run the last unimodal block for the
    [CLS] query alone; the oracle runs every block on every row."""

    @staticmethod
    def _model_and_batch(n_layers, n_heads, lengths, seed):
        cfg = tiny_config(d_model=12, n_heads=n_heads, n_enc_layers=n_layers, l_max=8)
        return AlignFuseModel(cfg, seed=seed), Batch.stack(*ragged_batch(cfg, lengths))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_layers=st.integers(0, 3), n_heads=st.integers(1, 4),
           lengths=st.lists(st.integers(1, 8), min_size=1, max_size=5), seed=st.integers(0, 3))
    @example(n_layers=2, n_heads=3, lengths=[8, 1, 4], seed=0)
    @example(n_layers=0, n_heads=1, lengths=[1], seed=1)
    def test_classify_equals_full_encoder_row_zero(self, n_layers, n_heads, lengths, seed):
        model, batch = self._model_and_batch(n_layers, n_heads, lengths, seed)
        z_img, _ = full_encoder(model, model.embed_image(batch.patches), "img")
        z_txt, _ = full_encoder(model, model.embed_text(batch.ids), "txt", batch.pad_mask)
        expected = (model.fuse_classify(z_img[:, 0], z_txt[:, 0]), z_img[:, 0], z_txt[:, 0])
        for got, want in zip(model.classify(batch), expected):
            assert got.shape == want.shape
            assert np.allclose(got.data, want.data, rtol=0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_layers=st.integers(1, 3), n_heads=st.integers(1, 4),
           lengths=st.lists(st.integers(1, 8), min_size=1, max_size=5), seed=st.integers(0, 3))
    @example(n_layers=3, n_heads=4, lengths=[1, 6, 8, 2, 1], seed=2)
    def test_attention_maps_equal_full_recorded_cls_row(self, n_layers, n_heads, lengths, seed):
        model, batch = self._model_and_batch(n_layers, n_heads, lengths, seed)
        _, rec_img = full_encoder(model, model.embed_image(batch.patches), "img")
        _, rec_txt = full_encoder(model, model.embed_text(batch.ids), "txt", batch.pad_mask)
        img = rec_img[-1][:, :, 0, 1:].mean(axis=1)
        txt = np.zeros((len(lengths), model.config.l_max))
        txt[:, :batch.ids.shape[1]] = rec_txt[-1][:, :, 0].mean(axis=1)
        txt[:, 0] = 0.0
        txt[txt.sum(axis=1) == 0, 0] = 1.0
        heat, txt_w = model.attention_maps(batch)
        g = model.config.grid_side
        assert np.allclose(heat, (img / img.sum(axis=1, keepdims=True)).reshape(-1, g, g, g),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(txt_w, txt / txt.sum(axis=1, keepdims=True), rtol=0.0, atol=1e-12)

    def test_last_block_ffn_runs_one_row_per_record(self):
        cfg = tiny_config(n_enc_layers=2, l_max=12)
        model = AlignFuseModel(cfg, seed=0)
        batch = Batch.stack(*ragged_batch(cfg, [3, 8, 5]))
        rows, ffn = [], model_module.ffn_sublayer

        def spy(x, *maps):  # the FFN node's input rows and its output rows
            out = ffn(x, *maps)
            rows.extend([x.shape, out.shape])
            return out
        with mock.patch.object(model_module, "ffn_sublayer", spy):
            model.classify(batch)
        # block 0 on every row, block 1 on [CLS] alone
        n_img, n_txt, d = cfg.n_patches + 1, batch.ids.shape[1], cfg.d_model
        assert sorted(rows) == sorted(2 * [(3, n_img, d)] + 2 * [(3, n_txt, d)]
                                      + 4 * [(3, 1, d)])

    def test_no_encoder_block_has_no_attention_map(self):
        cfg = tiny_config(n_enc_layers=0)
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        with pytest.raises(ConfigError, match="n_enc_layers"):
            model.attention_maps(one_batch(patches, toks))
        with pytest.raises(ConfigError, match="n_enc_layers"):
            model.extract_attention_map(patches, toks)


class TestParameters:
    def test_desk_config_count_and_no_key_bias(self):
        params = AlignFuseModel(ModelConfig(), seed=0).params
        assert (len(params), sum(p.size for p in params.values())) == (173, 557_828)
        assert not [name for name in params if name.endswith(".wk.b")]

    def test_every_parameter_gets_a_gradient(self):
        # a parameter that cannot change the loss reads only rounding (a key
        # bias read up to 2.3e-16 here); the smallest live one reads 6.6e-3
        from alignfuse.losses import LossWeights
        from alignfuse.train import Example, batch_loss, collate

        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        batch = collate([Example(*tiny_inputs(cfg, seed=s), label=s) for s in (1, 2)])
        batch_loss(model, batch, LossWeights(), RngStream(0)).total.backward()
        largest = {name: 0.0 if p.grad is None else float(np.abs(p.grad).max())
                   for name, p in model.params.items()}
        assert {name: g for name, g in largest.items() if g <= 1e-9} == {}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_enc=st.integers(0, 3), n_dec=st.integers(0, 3), n_heads=st.integers(1, 2),
           patch_size=st.integers(1, 3), grid_side=st.integers(1, 2),
           vocab_size=st.integers(1, 9), l_max=st.integers(1, 6), n_classes=st.integers(1, 4))
    def test_param_specs_walk_the_model_without_drawing(self, n_enc, n_dec, n_heads, patch_size,
                                                         grid_side, vocab_size, l_max, n_classes):
        cfg = ModelConfig(d_model=2 * n_heads, n_heads=n_heads, n_enc_layers=n_enc,
                          n_dec_layers=n_dec, patch_size=patch_size,
                          volume_side=patch_size * grid_side, vocab_size=vocab_size,
                          l_max=l_max, n_classes=n_classes)
        with mock.patch.object(RngStream, "truncated_normal",
                               side_effect=AssertionError("a parameter was drawn")):
            walked = [(name, shape) for name, shape, _ in param_specs(cfg, RngStream(0))]
        params = AlignFuseModel(cfg, seed=0).params
        assert walked == [(name, p.data.shape) for name, p in params.items()]


class TestFullModelGradient:
    def test_full_loss_finite_difference(self):
        from alignfuse.losses import LossWeights
        from alignfuse.train import batch_loss, collate, Example

        cfg = tiny_config()  # d_model=8, N_e=1, N_d=1, P=8, L_max=8
        model = AlignFuseModel(cfg, seed=3)
        batch = collate([Example(*tiny_inputs(cfg, seed=s), label=s % 3)
                         for s in (1, 2)])

        checked = ["img.enc.0.sa.wq.w", "txt.ca.0.wk.w", "fusion.l1.w",
                   "img.mask", "txt.emb", "log_tau", "img.dec.head.w"]
        for name in checked:
            p = model.params[name]

            def f(t):
                for q in model.params.values():
                    q.grad = None
                return batch_loss(model, batch, LossWeights(),
                                  RngStream(11)).total

            err = finite_diff_check(f, p, max_elements=6, rng=RngStream(1))
            assert err < 1e-4, f"{name}: {err}"

import hashlib
import json
import math
import struct
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alignfuse import checkpoint as ckpt
from alignfuse import tensor
from alignfuse.data import Vocab, build_vocab, generate_synthetic_dataset
from alignfuse.errors import (
    CheckpointError,
    DegenerateInputError,
    DimensionError,
    MagicMismatchError,
    TruncatedFileError,
    VersionMismatchError,
)
from alignfuse.losses import LossWeights
from alignfuse.model import AlignFuseModel, ModelConfig
from alignfuse.tensor import RngStream, Tensor
from alignfuse.train import (
    AdamW,
    TrainConfig,
    batch_loss,
    collate,
    compute_auc,
    dataset_corpus,
    evaluate,
    load_model_checkpoint,
    macro_auc,
    modality_gap,
    predict,
    prepare_examples,
    save_model_checkpoint,
    train_steps,
)


def tiny_model_config(**overrides):
    base = dict(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                patch_size=2, volume_side=4, vocab_size=24, l_max=8,
                n_classes=3)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_setup(n=8, seed=0):
    records = generate_synthetic_dataset(n, 3, side=6, missing_rate=0.2,
                                         seed=seed)
    mcfg = tiny_model_config()
    vocab = build_vocab(dataset_corpus(records), max_size=mcfg.vocab_size)
    model = AlignFuseModel(mcfg, seed=seed)
    examples = prepare_examples(records, vocab, mcfg)
    return model, vocab, examples


def params_digest(model):
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    return h.hexdigest()


class TestAdamW:
    def make(self, value, **cfg_overrides):
        p = Tensor(np.array([value]), requires_grad=True)
        cfg = TrainConfig(**{"lr": 0.1, "weight_decay": 0.0, **cfg_overrides})
        return p, AdamW({"p": p}, cfg)

    def test_zero_grad_no_decay_leaves_param(self):
        p, opt = self.make(3.0)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] == 3.0

    def test_first_step_moves_by_almost_lr(self):
        # with g=1 the bias-corrected update is g/(|g|+eps) ~ 1, so the
        # parameter moves by ~lr on the first step regardless of g's scale
        p, opt = self.make(1.0)
        p.grad = np.ones(1)
        opt.step()
        assert abs(p.data[0] - 0.9) < 1e-7

    def test_decay_only_shrinks_multiplicatively(self):
        p, opt = self.make(2.0, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert abs(p.data[0] - 2.0 * (1.0 - 0.1 * 0.5)) < 1e-15

    def test_decay_zero_matches_adam_reference(self):
        # two steps against a scalar Adam reference computed longhand
        p, opt = self.make(0.5)
        cfg = opt.cfg
        ref_p, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate([0.3, -0.7], start=1):
            p.grad = np.array([g])
            opt.step()
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            ref_p -= cfg.lr * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(p.data[0] - ref_p) < 1e-15

    def test_nonfinite_grad_aborts(self):
        from alignfuse.errors import NumericError
        p, opt = self.make(1.0)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError):
            opt.step()

    def test_grad_clip_caps_global_norm(self):
        cfg = TrainConfig(lr=0.1, grad_clip=1.0)
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([[0.5]]), requires_grad=True)
        opt = AdamW({"a": a, "b": b}, cfg)
        a.grad, b.grad = np.array([3.0, 4.0]), np.array([[12.0]])  # norm 13
        opt.step()
        norm = math.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
        assert norm <= 1.0 + 1e-12
        assert np.allclose(a.grad, [3.0 / 13.0, 4.0 / 13.0])

    def test_grad_clip_takes_a_read_only_gradient(self):
        # Tensor.sum hands its parent a read-only broadcast view
        p = Tensor(np.zeros((2, 3)), requires_grad=True)
        opt = AdamW({"p": p}, TrainConfig(lr=0.1, grad_clip=1.0))
        p.grad = np.broadcast_to(np.array(2.0), (2, 3))  # norm 2 * sqrt(6)
        opt.step()
        assert np.allclose(p.grad, 1.0 / math.sqrt(6.0))

    def test_grad_clip_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.3, -0.4]), "b": np.array([[0.1]])}  # norm < 1
        results = []
        for clip in (1.0, None):
            params = {"a": Tensor(np.array([1.0, 2.0]), requires_grad=True),
                      "b": Tensor(np.array([[0.5]]), requires_grad=True)}
            opt = AdamW(params, TrainConfig(lr=0.1, grad_clip=clip))
            for k, p in params.items():
                p.grad = grads[k].copy()
            opt.step()
            for k, p in params.items():
                assert np.array_equal(p.grad, grads[k])
            results.append({k: p.data.copy() for k, p in params.items()})
        for k in grads:
            assert np.array_equal(results[0][k], results[1][k])

    def test_state_roundtrip(self):
        p, opt = self.make(1.0)
        p.grad = np.array([0.2])
        opt.step()
        state = {k: v.copy() for k, v in opt.state_arrays().items()}
        p2 = Tensor(np.array([1.0]), requires_grad=True)
        opt2 = AdamW({"p": p2}, opt.cfg, state)
        assert opt2.t == 1
        assert np.array_equal(opt2.m["p"], opt.m["p"])
        assert np.array_equal(opt2.v["p"], opt.v["p"])


class TestComputeAuc:
    def pairwise_auc(self, scores, labels):
        scores = np.asarray(scores, dtype=float)
        labels = np.asarray(labels)
        pos = np.where(labels == 1)[0]
        neg = np.where(labels == 0)[0]
        total = 0.0
        for i in pos:
            for j in neg:
                if scores[i] > scores[j]:
                    total += 1.0
                elif scores[i] == scores[j]:
                    total += 0.5
        return total / (len(pos) * len(neg))

    def test_perfect_separation(self):
        assert compute_auc([0.9, 0.8, 0.3], [1, 1, 0]) == 1.0

    def test_all_tied(self):
        assert compute_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_mixed_hand_case(self):
        assert compute_auc([0.5, 0.9, 0.1], [1, 0, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateInputError):
            compute_auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_pairwise_oracle_exactly(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(4, 30))
        # quantized scores so ties actually occur
        scores = rng.integers(0, 6, size=n) / 5.0
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert compute_auc(scores, labels) == self.pairwise_auc(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.Generator(np.random.PCG64(7))
        scores = rng.normal(size=20)
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 0, 1
        a = compute_auc(scores, labels)
        b = compute_auc(np.exp(scores) * 3.0 + 1.0, labels)
        assert a == b

    def test_macro_auc_skips_absent_classes(self):
        probs = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.6, 0.1]])
        labels = np.array([0, 1, 1])  # class 2 has no positives
        got = macro_auc(probs, labels)
        expected = (compute_auc(probs[:, 0], (labels == 0).astype(int))
                    + compute_auc(probs[:, 1], (labels == 1).astype(int))) / 2
        assert got == expected

    def test_macro_auc_none_when_single_class(self):
        probs = np.full((4, 3), 1 / 3)
        assert macro_auc(probs, np.zeros(4, dtype=int)) is None


class TestModalityGap:
    def test_identical_sets_zero(self):
        z = np.random.default_rng(0).normal(size=(5, 8))
        assert modality_gap(z, z) == 0.0

    def test_hand_case(self):
        zi = np.array([[1.0, 0.0], [1.0, 0.0]])
        zt = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert abs(modality_gap(zi, zt) - math.sqrt(2.0)) < 1e-15

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.PCG64(1))
        zi = rng.normal(size=(6, 4))
        zt = rng.normal(size=(6, 4))
        a = modality_gap(zi, zt)
        b = modality_gap(zi * 7.5, zt * 0.01)
        assert abs(a - b) < 1e-12


class TestEvaluate:
    def test_constant_classifier_accuracy(self):
        model, vocab, examples = tiny_setup(n=6)
        # force class-0 predictions by pinning the fusion output bias
        model.params["fusion.l2.w"].data[:] = 0.0
        model.params["fusion.l2.b"].data[:] = [5.0, 0.0, 0.0]
        report = evaluate(model, examples)
        labels = [ex.label for ex in examples]
        assert report.accuracy == labels.count(0) / len(labels)
        assert report.n == 6

    def test_evaluate_does_not_mutate_params(self):
        model, vocab, examples = tiny_setup(n=4)
        before = params_digest(model)
        evaluate(model, examples)
        assert params_digest(model) == before

    def test_per_class_counts_cover_dataset(self):
        model, vocab, examples = tiny_setup(n=6)
        report = evaluate(model, examples)
        assert sum(v["n"] for v in report.per_class_counts.values()) == 6

    @pytest.mark.parametrize("run", [predict, evaluate])
    def test_no_records_is_refused(self, run):
        model, _, _ = tiny_setup(n=3)
        with pytest.raises(DimensionError, match="inference over no records"):
            run(model, [])


class TestTrainSteps:
    def test_same_seed_same_trajectory(self):
        logs = []
        digests = []
        for _ in range(2):
            model, vocab, examples = tiny_setup(n=6, seed=3)
            cfg = TrainConfig(batch_size=3, steps=4, seed=3)
            optim = AdamW(model.params, cfg)
            logs.append(train_steps(model, optim, examples, cfg))
            digests.append(params_digest(model))
        assert logs[0] == logs[1]
        assert digests[0] == digests[1]

    def test_no_records_is_refused(self):
        model, _, _ = tiny_setup(n=3)
        cfg = TrainConfig(batch_size=2, steps=1, seed=0)
        with pytest.raises(DimensionError, match="no records"):
            train_steps(model, AdamW(model.params, cfg), [], cfg)

    def test_log_schema(self):
        model, vocab, examples = tiny_setup(n=4)
        cfg = TrainConfig(batch_size=4, steps=2, seed=0)
        log = train_steps(model, AdamW(model.params, cfg), examples, cfg)
        assert [e["step"] for e in log] == [0, 1]
        for e in log:
            for key in ("l_cl", "l_res_image", "l_res_text", "l_cls",
                        "l_total", "lr"):
                assert key in e and math.isfinite(e[key])

    def test_loss_decreases(self):
        model, vocab, examples = tiny_setup(n=16, seed=1)
        cfg = TrainConfig(batch_size=8, steps=30, seed=1, lr=1e-3)
        log = train_steps(model, AdamW(model.params, cfg), examples, cfg)
        first = np.mean([e["l_total"] for e in log[:5]])
        last = np.mean([e["l_total"] for e in log[-5:]])
        assert last < first

    def test_temperature_stays_in_bounds(self):
        model, vocab, examples = tiny_setup(n=6, seed=2)
        cfg = TrainConfig(batch_size=3, steps=5, seed=2, lr=0.5)
        train_steps(model, AdamW(model.params, cfg), examples, cfg)
        tau = float(model.temperature().data[0])
        assert 0.01 - 1e-12 <= tau <= 1.0 + 1e-12

    def test_steps_hold_one_graph_at_a_time(self):
        # backward frees each step's graph, so the next step's forward does
        # not build beside it: held by the loss until the step ends, it would
        # peak near two graphs
        model, _, examples = tiny_setup(n=8)
        cfg = TrainConfig(batch_size=8, steps=10, seed=0)
        optim = AdamW(model.params, cfg)
        train_steps(model, optim, examples, cfg, n_steps=1)  # AdamW's moments
        tracemalloc.start()
        try:
            peaks = []
            for n_steps in (1, 3):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                train_steps(model, optim, examples, cfg, n_steps=n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]

    @staticmethod
    def step_memory(mcfg, records):
        """Bytes the graph holds after the forward of one step on a batch of
        all `records`, and the step's peak, forward and backward."""
        vocab = build_vocab(dataset_corpus(records), max_size=mcfg.vocab_size)
        model = AlignFuseModel(mcfg, seed=0)
        batch = collate(prepare_examples(records, vocab, mcfg))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = batch_loss(model, batch, LossWeights(), RngStream(0)).total
            graph = tracemalloc.get_traced_memory()[0] - before
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in model.params.values())
        return graph, peak

    def test_desk_step_memory_is_bounded(self):
        # default config, batch 8: the graph holds 32.9 MiB after the forward
        # and the step peaks at 41.2 MiB (44.0 and 51.6 when every attention
        # node kept its probabilities)
        records = generate_synthetic_dataset(8, 3, side=32, seed=1)
        graph, peak = self.step_memory(ModelConfig(), records)
        assert graph < 34 * 2**20
        assert peak < 43 * 2**20

    def test_bigvol_step_peak_is_bounded(self, monkeypatch):
        # one step at the 64³ shape (patch 8, 513 image tokens, batch 4): the
        # graph holds 88.8 MiB after the forward and the step peaks at 108.4
        # MiB in the sublayer backwards (119.6 when the one-tile attention
        # nodes kept their probabilities, 150.0 when the FFN nodes also kept
        # h). The tile count of a 513-token node follows the tile workers, so
        # theirs is fixed here.
        monkeypatch.setattr(tensor, "TILE_WORKERS", 2)
        records = generate_synthetic_dataset(4, 3, side=64, seed=1)
        graph, peak = self.step_memory(ModelConfig(volume_side=64, patch_size=8, l_max=40),
                                       records)
        assert graph < 90 * 2**20
        assert peak < 111 * 2**20

    def test_tiled_attention_gives_the_same_bits(self, monkeypatch):
        def run():
            model, _, examples = tiny_setup(n=6, seed=3)
            cfg = TrainConfig(batch_size=3, steps=2, seed=3)
            log = train_steps(model, AdamW(model.params, cfg), examples, cfg)
            return (log, params_digest(model), *predict(model, examples),
                    *model.attention_maps(collate(examples[:4])))

        one_tile = run()  # every node of the tiny model fits one tile
        monkeypatch.setattr(tensor, "ATTENTION_TILE_BYTES", 8)  # one head slice per tile
        tiled = run()
        assert tiled[:2] == one_tile[:2]
        for got, want in zip(tiled[2:], one_tile[2:]):
            assert np.array_equal(got, want)

    def test_graph_size_is_pinned(self):
        # tensors reachable from one tiny batch's loss, parameters included;
        # any change in an op's node count moves it (each attention and FFN
        # sublayer of a block is one node with its residual, as are the
        # embedding, head and fusion maps)
        model, _, examples = tiny_setup()
        total = batch_loss(model, collate(examples), LossWeights(), RngStream(0)).total
        seen, stack = set(), [total]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._prev)
        assert len(seen) == 163

    def test_graph_keeps_no_norm_or_gelu_output(self):
        # the sublayer nodes rebuild the layer-norm outputs and the GELU output
        # in backward: the arrays that the wq, l1 and l2 maps read die during
        # the forward, while the graph lives
        model, _, examples = tiny_setup()
        read = []

        class Spy(np.ndarray):  # a weight that takes a weakref to what it multiplies
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and isinstance(inputs[1], Spy):
                    read.append(weakref.ref(inputs[0]))
                inputs = [a.view(np.ndarray) if isinstance(a, Spy) else a for a in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)
        for name in ("img.enc.0.sa.wq.w", "img.enc.0.ffn.l1.w", "img.enc.0.ffn.l2.w"):
            model.params[name].data = model.params[name].data.view(Spy)
        total = batch_loss(model, collate(examples), LossWeights(), RngStream(0)).total
        forward = list(read)
        assert len(forward) == 6  # each map in the unimodal and the grounded pass
        assert [r for r in forward if r() is not None] == []
        total.backward()
        assert all(model.params[name].grad is not None for name in model.params)

    def test_no_backward_closure_holds_a_tensor(self):
        # graph nodes and their closures keep arrays and shapes: a captured
        # tensor would keep its whole value alive for the graph's lifetime
        model, _, examples = tiny_setup()
        total = batch_loss(model, collate(examples), LossWeights(), RngStream(0)).total
        nodes, stack, held = set(), list(total._prev), []
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes.add(id(node))
                stack.extend(node._prev)
                if node._backward is not None:
                    held.extend(captured(node._backward))
        held.extend(captured(total.node._backward))
        assert len(nodes) == 162 and len(held) > len(nodes)
        assert [type(o).__name__ for o in held if isinstance(o, Tensor)] == []


def captured(fn) -> list:
    """What `fn`'s closure cells and defaults hold, searched through
    tuples, lists and the functions they hold."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            found.append(obj)
    return found


class TestCheckpointing:
    def test_roundtrip_bitwise(self, tmp_path):
        model, vocab, examples = tiny_setup(n=4)
        cfg = TrainConfig(batch_size=4, steps=2, seed=0)
        optim = AdamW(model.params, cfg)
        train_steps(model, optim, examples, cfg)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, vocab, optim)

        model2, vocab2, optim2 = load_model_checkpoint(path, cfg)
        assert vocab2.tokens == vocab.tokens
        assert optim2.t == optim.t
        assert params_digest(model2) == params_digest(model)
        for name in optim.m:
            assert np.array_equal(optim2.m[name], optim.m[name])
            assert np.array_equal(optim2.v[name], optim.v[name])

    def test_save_is_deterministic(self, tmp_path):
        model, vocab, _ = tiny_setup(n=4)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model_checkpoint(a, model, vocab)
        save_model_checkpoint(b, model, vocab)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_overwrite_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        model, vocab, _ = tiny_setup(n=4)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, vocab)
        old = path.read_bytes()
        write_blob, calls = ckpt._write_blob, []

        def fail_third(*args):
            calls.append(args[1])
            if len(calls) == 3:
                raise OSError("no space left on device")
            write_blob(*args)

        monkeypatch.setattr(ckpt, "_write_blob", fail_third)
        with pytest.raises(OSError, match="no space"):
            save_model_checkpoint(path, model, vocab)
        assert len(calls) == 3
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_loads_the_checked_blobs_without_drawing(self, tmp_path, monkeypatch):
        # the model and optimizer hold the checkpoint's arrays: no parameter
        # is drawn and no moment is allocated only to be overwritten
        model, vocab, examples = tiny_setup(n=4)
        cfg = TrainConfig(batch_size=4, steps=2, seed=0)
        optim = AdamW(model.params, cfg)
        train_steps(model, optim, examples, cfg)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, vocab, optim)
        _, params, state = ckpt.load_checkpoint(path)

        def refuse(*args, **kwargs):
            raise AssertionError("an array was drawn or allocated")

        monkeypatch.setattr(RngStream, "truncated_normal", refuse)
        monkeypatch.setattr(np, "zeros_like", refuse)
        for train_cfg in (None, cfg):
            model2, _, optim2 = load_model_checkpoint(path, train_cfg)
            assert model2.params.keys() == params.keys()
            for name, p in model2.params.items():
                assert p.data.shape == params[name].shape
                assert p.data.tobytes() == params[name].tobytes()
        assert optim2.params is model2.params and optim2.t == 2
        for name in params:
            for k, moments in (("m", optim2.m), ("v", optim2.v)):
                assert moments[name].shape == state[f"{name}.{k}"].shape
                assert moments[name].tobytes() == state[f"{name}.{k}"].tobytes()

    def test_checkpoint_without_optimizer_resumes_at_step_zero(self, tmp_path):
        model, vocab, _ = tiny_setup(n=4)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, vocab)
        _, _, optim = load_model_checkpoint(path, TrainConfig())
        assert optim.t == 0
        for name, p in optim.params.items():
            assert optim.m[name].shape == optim.v[name].shape == p.data.shape
            assert not optim.m[name].any() and not optim.v[name].any()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(MagicMismatchError):
            load_model_checkpoint(path)

    def test_bad_version(self, tmp_path):
        model, vocab, _ = tiny_setup(n=4)
        path = tmp_path / "v.ckpt"
        save_model_checkpoint(path, model, vocab)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_model_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model, vocab, _ = tiny_setup(n=4)
        path = tmp_path / "t.ckpt"
        save_model_checkpoint(path, model, vocab)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(TruncatedFileError):
            load_model_checkpoint(path)

    def test_loads_header_with_retired_fields(self, tmp_path):
        # the model_config header of checkpoints written before the retired
        # fields became constants
        model, vocab, _ = tiny_setup(n=4)
        path = tmp_path / "old.ckpt"
        save_model_checkpoint(path, model, vocab)
        payload, params, state = ckpt.load_checkpoint(path)
        payload["model_config"].update(ffn_mult=4, fusion_hidden=8,
                                       layer_norm_eps=1e-5)
        ckpt.save_checkpoint(path, payload, params, state)
        model2, _, _ = load_model_checkpoint(path)
        assert model2.config == model.config
        assert params_digest(model2) == params_digest(model)

    def test_header_step_is_not_written_and_an_old_one_is_ignored(self, tmp_path):
        model, vocab, examples = tiny_setup(n=4)
        cfg = TrainConfig(batch_size=4, steps=2, seed=0)
        optim = AdamW(model.params, cfg)
        train_steps(model, optim, examples, cfg)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, vocab, optim)
        payload, params, state = ckpt.load_checkpoint(path)
        assert set(payload) == {"model_config", "vocab"}
        # checkpoints written before held the step in the header too
        ckpt.save_checkpoint(path, {**payload, "step": 7}, params, state)
        _, _, optim2 = load_model_checkpoint(path, cfg)
        assert optim2.t == 2

    # the CLI tests cover parameter blobs and the header; these are the
    # optimizer-state cases they leave out
    @pytest.mark.parametrize("edit,blob", [
        (lambda s: s.pop("fusion.l1.w.v"), "fusion.l1.w.v"),
        (lambda s: s.update({"t": np.zeros(2)}), "'t'"),
    ], ids=["missing_moment", "step_counter_shape"])
    def test_optimizer_state_that_does_not_fit_the_model(self, tmp_path, edit, blob):
        model, vocab, _ = tiny_setup(n=4)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, vocab,
                              AdamW(model.params, TrainConfig()))
        payload, params, state = ckpt.load_checkpoint(path)
        edit(state)
        ckpt.save_checkpoint(path, payload, params, state)
        with pytest.raises(CheckpointError, match=blob):
            load_model_checkpoint(path)

    @pytest.mark.parametrize("t", [2.5, -3.0])
    def test_step_counter_that_is_not_a_non_negative_integer(self, tmp_path, t):
        model, vocab, _ = tiny_setup(n=4)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, vocab, AdamW(model.params, TrainConfig()))
        payload, params, state = ckpt.load_checkpoint(path)
        ckpt.save_checkpoint(path, payload, params, {**state, "t": np.array(t)})
        with pytest.raises(CheckpointError, match=f"t={t!r}"):
            load_model_checkpoint(path, TrainConfig())

    def test_key_bias_blobs_of_older_checkpoints_are_ignored(self, tmp_path):
        # older checkpoints hold a key-projection bias and its moments, which
        # cannot change any output: any stored value loads as if absent
        model, vocab, examples = tiny_setup(n=4)
        cfg = TrainConfig(batch_size=4, steps=2, seed=0)
        optim = AdamW(model.params, cfg)
        train_steps(model, optim, examples, cfg)
        new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
        save_model_checkpoint(new, model, vocab, optim)
        payload, params, state = ckpt.load_checkpoint(new)
        rng = np.random.default_rng(0)
        biases = [n[:-len(".w")] + ".b" for n in params if n.endswith(".wk.w")]
        assert len(biases) == 6
        for name in biases:
            params[name] = rng.normal(size=8)
            state[f"{name}.m"], state[f"{name}.v"] = rng.normal(size=8), rng.uniform(size=8)
        ckpt.save_checkpoint(old, payload, params, state)
        (m_new, _, o_new), (m_old, _, o_old) = (load_model_checkpoint(p, cfg) for p in (new, old))
        assert params_digest(m_old) == params_digest(m_new)
        assert o_old.t == o_new.t and o_old.m.keys() == o_new.m.keys()
        assert evaluate(m_old, examples).to_dict() == evaluate(m_new, examples).to_dict()

    @pytest.mark.parametrize("section, name", [("parameter", "img.enc.0.sa.wk.b"),
                                               ("optimizer", "img.enc.0.sa.wk.b.m")])
    @pytest.mark.parametrize("blob, refused", [
        (np.full(8, np.nan), "is not finite"),
        (np.zeros((5, 7)), r"has shape \(5, 7\) in the checkpoint and \(8,\) for an older key bias"),
    ], ids=["nan", "shape"])
    def test_older_key_bias_must_be_finite_and_one_value_per_column(self, tmp_path, section,
                                                                    name, blob, refused):
        # a well-formed one loads as if absent (the test above); any other is refused
        model, vocab, _ = tiny_setup(n=4)
        cfg = TrainConfig(batch_size=4, steps=1, seed=0)
        path = tmp_path / "x.ckpt"
        save_model_checkpoint(path, model, vocab, AdamW(model.params, cfg))
        payload, params, state = ckpt.load_checkpoint(path)
        (params if section == "parameter" else state)[name] = blob
        ckpt.save_checkpoint(path, payload, params, state)
        with pytest.raises(CheckpointError, match=f"{section} blob '{name}' {refused}"):
            load_model_checkpoint(path, cfg)

    @pytest.mark.parametrize("section", ["parameter", "optimizer"])
    @pytest.mark.parametrize("name", ["img.enc.0.sa.wk.bias", "fusion.wk.b", "zzz.wk.b.junk",
                                      "img.enc.0.sa.wk.b.x"])
    def test_blob_that_merely_contains_wk_b_is_refused(self, tmp_path, section, name):
        # only `<attention>.wk.b` and its `.m` / `.v` moments are the older key bias
        model, vocab, _ = tiny_setup(n=4)
        cfg = TrainConfig(batch_size=4, steps=1, seed=0)
        path = tmp_path / "x.ckpt"
        save_model_checkpoint(path, model, vocab, AdamW(model.params, cfg))
        payload, params, state = ckpt.load_checkpoint(path)
        (params if section == "parameter" else state)[name] = np.zeros(8)
        ckpt.save_checkpoint(path, payload, params, state)
        with pytest.raises(CheckpointError, match=f"{section} blob '{name}' is not in the model"):
            load_model_checkpoint(path, cfg)

    def test_resume_matches_uninterrupted(self, tmp_path):
        # 6 steps straight through
        model_a, vocab, examples = tiny_setup(n=6, seed=5)
        cfg = TrainConfig(batch_size=3, steps=6, seed=5)
        optim_a = AdamW(model_a.params, cfg)
        log_a = train_steps(model_a, optim_a, examples, cfg)

        # 3 steps, checkpoint, reload, 3 more
        model_b, _, examples_b = tiny_setup(n=6, seed=5)
        optim_b = AdamW(model_b.params, cfg)
        log_b = train_steps(model_b, optim_b, examples_b, cfg, n_steps=3)
        path = tmp_path / "mid.ckpt"
        save_model_checkpoint(path, model_b, vocab, optim_b)
        model_c, _, optim_c = load_model_checkpoint(path, cfg)
        log_c = train_steps(model_c, optim_c, examples_b, cfg)

        assert log_b + log_c == log_a
        assert params_digest(model_c) == params_digest(model_a)


@pytest.fixture(scope="module")
def final_ckpt(tmp_path_factory):
    """A tiny-config checkpoint saved after two steps."""
    model, vocab, examples = tiny_setup(n=4)
    cfg = TrainConfig(batch_size=4, steps=2, seed=0)
    optim = AdamW(model.params, cfg)
    train_steps(model, optim, examples, cfg)
    path = tmp_path_factory.mktemp("fuzz") / "final.ckpt"
    save_model_checkpoint(path, model, vocab, optim)
    return path


def u32_fields(raw: bytes) -> list[int]:
    """Offsets of the u32 header length, blob counts, name lengths, ndims and
    dimensions of checkpoint bytes `raw`, in file order."""
    offsets, at = [8], 12 + struct.unpack_from("<I", raw, 8)[0]
    for _ in range(2):  # the parameter and optimizer sections
        offsets.append(at)
        (count,), at = struct.unpack_from("<I", raw, at), at + 4
        for _ in range(count):
            offsets.append(at)
            at += 4 + struct.unpack_from("<I", raw, at)[0]
            (ndim,) = struct.unpack_from("<I", raw, at)
            offsets += [at + 4 * i for i in range(ndim + 1)]
            shape = struct.unpack_from(f"<{ndim}I", raw, at + 4)
            at += 4 * (ndim + 1) + 8 * math.prod(shape)
    return offsets


def corrupt(raw: bytes, edit) -> bytes:
    """Checkpoint bytes `raw` after one edit: ("byte", i, value) overwrites a
    byte, ("cut", n) truncates, ("u32", k, value) overwrites the k-th field of
    `u32_fields`, ("header", text) replaces the JSON header and ("config",
    key, value) one model_config entry of it. Positions wrap around."""
    kind, *args = edit
    if kind == "byte":
        i = args[0] % len(raw)
        return raw[:i] + bytes([args[1]]) + raw[i + 1:]
    if kind == "cut":
        return raw[:args[0] % len(raw)]
    if kind == "u32":
        fields = u32_fields(raw)
        at = fields[args[0] % len(fields)]
        return raw[:at] + struct.pack("<I", args[1]) + raw[at + 4:]
    end = 12 + struct.unpack_from("<I", raw, 8)[0]
    if kind == "config":
        header = json.loads(raw[12:end])
        header["model_config"][args[0]] = args[1]
        args = [json.dumps(header, sort_keys=True).encode()]
    return raw[:8] + struct.pack("<I", len(args[0])) + args[0] + raw[end:]


CHECKPOINT_EDITS = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 2**20), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, 2**20)),
    st.tuples(st.just("u32"), st.integers(0, 2**10),
              st.one_of(st.integers(0, 80), st.integers(0, 2**32 - 1))))


class TestCorruptCheckpointFuzz:
    @settings(max_examples=200, deadline=None)
    @given(edit=CHECKPOINT_EDITS)
    # sizes above the address space or the file, and JSON that Python cannot read
    @example(edit=("u32", 4, 0xFFFFFFF0))  # the first blob's first dimension
    @example(edit=("u32", 960, 21))  # a rank-21 blob with a zero and huge dimensions
    @example(edit=("config", "l_max", 10**12))
    @example(edit=("config", "n_enc_layers", 10**6))
    @example(edit=("header", b"[" * 100_000))
    @example(edit=("header", b'{"step": ' + b"1" * 5000 + b"}"))
    def test_loads_or_raises_checkpoint_error(self, final_ckpt, edit):
        bad = final_ckpt.with_name("bad.ckpt")
        bad.write_bytes(corrupt(final_ckpt.read_bytes(), edit))
        try:
            load_model_checkpoint(bad, TrainConfig())
        except CheckpointError:
            pass

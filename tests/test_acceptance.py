"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line directly to the terminal (bypassing capture) before
asserting, so a full run yields one status line per criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from alignfuse.cli import EXIT_OK, main
from alignfuse.data import (
    build_vocab,
    generate_synthetic_dataset,
)
from alignfuse.losses import LossWeights, classification_loss, image_recon_loss, itc_loss
from alignfuse.model import AlignFuseModel, ModelConfig
from alignfuse.tensor import RngStream, Tensor, finite_diff_check, softmax
from alignfuse.train import (
    AdamW,
    TrainConfig,
    batch_loss,
    collate,
    Example,
    compute_auc,
    dataset_corpus,
    evaluate,
    load_model_checkpoint,
    modality_gap,
    predict,
    prepare_examples,
    save_model_checkpoint,
    train_steps,
)

pytestmark = pytest.mark.acceptance


def report(capsys, num: int, title: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {num:2d} ({title}): {status} — {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


def tiny_config(**overrides):
    base = dict(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                patch_size=2, volume_side=4, vocab_size=16, l_max=8,
                n_classes=3)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_inputs(cfg: ModelConfig, seed: int = 0):
    rng = RngStream(seed)
    patches = rng.child(1).uniform(0.0, 1.0, (cfg.n_patches, cfg.patch_voxels))
    from alignfuse.data import TokenSequence
    length = 6
    ids = np.zeros(cfg.l_max, dtype=np.int64)
    ids[0] = 1
    ids[1:length] = rng.child(2).integers(4, cfg.vocab_size, length - 1)
    toks = TokenSequence(ids=ids, length=length)
    return patches, toks


# ---------------------------------------------------------------------------
# shared end-to-end runs (desk defaults: d_model=64, 200 steps, lr 1e-3)


@pytest.fixture(scope="module")
def desk_run():
    t0 = time.monotonic()
    train_recs = generate_synthetic_dataset(64, 3, side=32, missing_rate=0.2,
                                            seed=0)
    held_recs = generate_synthetic_dataset(32, 3, side=32, missing_rate=0.2,
                                           seed=1)
    mcfg = ModelConfig()
    tcfg = TrainConfig()
    vocab = build_vocab(dataset_corpus(train_recs), max_size=mcfg.vocab_size)
    model = AlignFuseModel(mcfg, seed=tcfg.seed)
    train_ex = prepare_examples(train_recs, vocab, mcfg)
    held_ex = prepare_examples(held_recs, vocab, mcfg)
    optim = AdamW(model.params, tcfg)
    log = train_steps(model, optim, train_ex, tcfg)
    held = evaluate(model, held_ex)
    return {"log": log, "held": held, "seconds": time.monotonic() - t0}


class TestCriterion1:
    def test_gradient_correctness(self, capsys):
        t0 = time.monotonic()
        worst = 0.0

        # every differentiable primitive, 10 seeds
        def ops(seed):
            rng = RngStream(seed)
            a = Tensor(rng.child(1).normal((3, 4)), requires_grad=True)
            w = Tensor(rng.child(2).normal((4, 3)), requires_grad=True)
            cases = [
                (lambda t: (t + t * 2.0).sum(), a),
                (lambda t: (t * Tensor(rng.child(3).normal((3, 4)))).sum(), a),
                (lambda t: (t @ Tensor(rng.child(4).normal((4, 2)))).sum(), a),
                (lambda t: (Tensor(rng.child(5).normal((3, 4))) @ t).sum(), w),
                (lambda t: (t ** 3.0).sum(), a),
                (lambda t: (t * 0.1).exp().sum(), a),
                (lambda t: ((t * t) + 0.5).log().sum(), a),
                (lambda t: ((t * t) + 0.5).sqrt().sum(), a),
                (lambda t: t.gelu().sum(), a),
                (lambda t: t.relu().mean(), Tensor(
                    rng.child(6).normal((3, 4)) + 0.3, requires_grad=True)),
                (lambda t: (softmax(t, axis=-1)
                            * Tensor(rng.child(7).normal((3, 4)))).sum(), a),
                (lambda t: t.transpose(1, 0).reshape(12).mean(), a),
            ]
            return max(finite_diff_check(f, x) for f, x in cases)

        for seed in range(10):
            worst = max(worst, ops(seed))

        # full combined objective on a small config, 10 seeds
        cfg = tiny_config()
        for seed in range(10):
            model = AlignFuseModel(cfg, seed=seed)
            batch = collate([Example(*tiny_inputs(cfg, seed=seed * 10 + s),
                                     label=s % 3) for s in (1, 2)])

            def f(t):
                for q in model.params.values():
                    q.grad = None
                return batch_loss(model, batch, LossWeights(),
                                  RngStream(seed + 100)).total

            for name in ("img.enc.0.sa.wq.w", "txt.ca.0.wk.w", "fusion.l1.w",
                         "txt.emb", "log_tau"):
                err = finite_diff_check(f, model.params[name], max_elements=4,
                                        rng=RngStream(seed))
                worst = max(worst, err)

        dt = time.monotonic() - t0
        ok = worst < 1e-4 and dt < 60.0
        report(capsys, 1, "gradient correctness", ok,
               f"max rel err {worst:.2e} (tol 1e-4), {dt:.1f}s (budget 60s)")


class TestCriterion2:
    def test_loss_value_oracles(self, capsys):
        z1 = Tensor([[1.0, 2.0, 3.0]])
        a = itc_loss(z1, z1, 0.07).item()
        z2 = Tensor([[1.0, 0.0], [1.0, 0.0]])
        b = itc_loss(z2, z2, 0.07).item()
        c = classification_loss(Tensor([0.0, 0.0, 0.0]), 1).item()
        x = np.random.default_rng(0).uniform(0, 1, (4, 8))
        d = image_recon_loss(x, Tensor(x), np.isin(np.arange(4), [0, 2])).item()
        ok = (a == 0.0 and abs(b - 2 * math.log(2)) < 1e-12
              and abs(c - math.log(3)) < 1e-12 and d == 0.0)
        report(capsys, 2, "loss value oracles", ok,
               f"b=1 itc {a}, uniform b=2 itc dev {abs(b - 2 * math.log(2)):.1e}, "
               f"uniform 3-class dev {abs(c - math.log(3)):.1e}, exact recon {d}")


class TestCriterion3:
    def test_weight_sharing(self, capsys):
        cfg = tiny_config()
        patches, toks = tiny_inputs(cfg)

        def outputs(model):
            zi = model.encode_unimodal(model.embed_image(patches[None]), "img")
            zt = model.encode_unimodal(model.embed_text(toks.ids[None]), "txt",
                                       pad_mask=np.arange(cfg.l_max)[None] < toks.length)
            gi = model.encode_grounded(model.embed_image(patches[None]), zt, "img")
            return zi.data.copy(), gi.data.copy()

        base_uni, base_gr = outputs(AlignFuseModel(cfg, seed=0))

        m = AlignFuseModel(cfg, seed=0)
        m.params["img.enc.0.sa.wq.w"].data[0, 0] += 0.37
        sa_uni, sa_gr = outputs(m)
        sa_ok = (not np.array_equal(sa_uni, base_uni)
                 and not np.array_equal(sa_gr, base_gr))

        m = AlignFuseModel(cfg, seed=0)
        m.params["img.ca.0.wq.w"].data[0, 0] += 0.37
        ca_uni, ca_gr = outputs(m)
        ca_ok = (np.array_equal(ca_uni, base_uni)
                 and not np.array_equal(ca_gr, base_gr))

        report(capsys, 3, "weight sharing", sa_ok and ca_ok,
               f"SA perturbation hits both paths: {sa_ok}; "
               f"CA perturbation hits grounded only: {ca_ok}")


class TestCriterion4:
    def test_end_to_end_learning(self, capsys, desk_run):
        held = desk_run["held"]
        ok = (held.accuracy >= 0.95 and held.auc is not None
              and held.auc >= 0.98 and desk_run["seconds"] < 600.0)
        report(capsys, 4, "end-to-end learning", ok,
               f"held-out acc {held.accuracy:.4f} (>=0.95), "
               f"macro AUC {held.auc:.4f} (>=0.98), "
               f"{desk_run['seconds']:.0f}s (<600s)")


class TestCriterion5:
    def test_alignment_effect(self, capsys):
        recs = generate_synthetic_dataset(32, 3, side=32, missing_rate=0.2,
                                          seed=0)
        mcfg = ModelConfig()
        vocab = build_vocab(dataset_corpus(recs), max_size=mcfg.vocab_size)
        ex = prepare_examples(recs, vocab, mcfg)

        def run(lam_cl):
            tcfg = TrainConfig(steps=60,
                               weights=LossWeights(contrastive=lam_cl))
            model = AlignFuseModel(mcfg, seed=0)
            _, zi, zt = predict(model, ex)
            g_init = modality_gap(zi, zt)
            train_steps(model, AdamW(model.params, tcfg), ex, tcfg)
            _, zi, zt = predict(model, ex)
            return g_init, modality_gap(zi, zt)

        g_init, g_on = run(1.0)
        _, g_off = run(0.0)
        ok = g_on < g_off and g_on < g_init
        report(capsys, 5, "alignment effect", ok,
               f"gap init {g_init:.4f}, with contrastive {g_on:.4f}, "
               f"without {g_off:.4f}")


class TestCriterion6:
    def test_restoration_effect(self, capsys, desk_run):
        log = desk_run["log"]
        details = []
        ok = True
        for key in ("l_res_image", "l_res_text"):
            first = float(np.mean([e[key] for e in log[:10]]))
            last = float(np.mean([e[key] for e in log[-10:]]))
            ok = ok and last <= 0.5 * first
            details.append(f"{key} {first:.4f}->{last:.4f}")
        report(capsys, 6, "restoration effect", ok,
               "; ".join(details) + " (each must halve)")


class TestCriterion7:
    def test_missing_data_robustness(self, capsys):
        train_recs = generate_synthetic_dataset(64, 3, side=32,
                                                missing_rate=0.9, seed=0)
        held_recs = generate_synthetic_dataset(32, 3, side=32,
                                               missing_rate=0.9, seed=1)
        mcfg = ModelConfig()
        tcfg = TrainConfig()
        vocab = build_vocab(dataset_corpus(train_recs),
                            max_size=mcfg.vocab_size)
        model = AlignFuseModel(mcfg, seed=tcfg.seed)
        train_ex = prepare_examples(train_recs, vocab, mcfg)
        held_ex = prepare_examples(held_recs, vocab, mcfg)
        train_steps(model, AdamW(model.params, tcfg), train_ex, tcfg)
        held = evaluate(model, held_ex)
        ok = held.accuracy > 0.40
        report(capsys, 7, "missing-data robustness", ok,
               f"missing_rate=0.9 held-out acc {held.accuracy:.4f} (>0.40)")


class TestCriterion8:
    def test_determinism_and_persistence(self, capsys, tmp_path):
        cfg = {"model": {"d_model": 8, "n_heads": 2, "n_enc_layers": 1,
                         "n_dec_layers": 1, "patch_size": 4, "volume_side": 8,
                         "vocab_size": 48, "l_max": 12},
               "train": {"steps": 4, "batch_size": 4, "seed": 0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        ds = tmp_path / "ds"
        assert main(["synth", "--n", "8", "--classes", "3", "--side", "12",
                     "--seed", "0", "--out", str(ds)]) == EXIT_OK
        runs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--dataset", str(ds), "--config",
                         str(cfg_path), "--out", str(out)]) == EXIT_OK
            runs.append(out)
        same_metrics = ((runs[0] / "metrics.jsonl").read_bytes()
                        == (runs[1] / "metrics.jsonl").read_bytes())
        same_ckpt = ((runs[0] / "final.ckpt").read_bytes()
                     == (runs[1] / "final.ckpt").read_bytes())

        # save -> load -> resume equals an uninterrupted run, bitwise
        recs = generate_synthetic_dataset(8, 3, side=12, missing_rate=0.2,
                                          seed=0)
        mcfg = ModelConfig(**cfg["model"])
        tcfg = TrainConfig(**{**cfg["train"], "steps": 6})
        vocab = build_vocab(dataset_corpus(recs), max_size=mcfg.vocab_size)
        ex = prepare_examples(recs, vocab, mcfg)

        model_a = AlignFuseModel(mcfg, seed=0)
        optim_a = AdamW(model_a.params, tcfg)
        train_steps(model_a, optim_a, ex, tcfg)

        model_b = AlignFuseModel(mcfg, seed=0)
        optim_b = AdamW(model_b.params, tcfg)
        train_steps(model_b, optim_b, ex, tcfg, n_steps=3)
        mid = tmp_path / "mid.ckpt"
        save_model_checkpoint(mid, model_b, vocab, optim_b)
        model_c, _, optim_c = load_model_checkpoint(mid, tcfg)
        train_steps(model_c, optim_c, ex, tcfg)
        resume_ok = all(
            np.array_equal(model_c.params[k].data, model_a.params[k].data)
            for k in model_a.params)

        ok = same_metrics and same_ckpt and resume_ok
        report(capsys, 8, "determinism & persistence", ok,
               f"identical metrics {same_metrics}, identical checkpoints "
               f"{same_ckpt}, resume bitwise {resume_ok}")


class TestCriterion9:
    def test_attention_contract(self, capsys):
        cfg = tiny_config()
        model = AlignFuseModel(cfg, seed=0)
        patches, toks = tiny_inputs(cfg)
        heat, txt_w = model.extract_attention_map(patches, toks)
        g = cfg.grid_side
        grid = heat.reshape(g, g, g)
        sums_ok = (abs(heat.sum() - 1.0) < 1e-6
                   and abs(txt_w.sum() - 1.0) < 1e-6)
        shape_ok = grid.shape == (g, g, g) and heat.size == g ** 3

        single_cfg = tiny_config(volume_side=2, patch_size=2)
        single = AlignFuseModel(single_cfg, seed=0)
        sp, st = tiny_inputs(single_cfg)
        s_heat, _ = single.extract_attention_map(sp, st)
        flat = np.asarray(s_heat).reshape(-1)
        single_ok = flat.shape == (1,) and flat[0] == 1.0

        ok = sums_ok and shape_ok and single_ok
        report(capsys, 9, "attention contract", ok,
               f"row sums within 1e-6: {sums_ok}, grid ({g},{g},{g}): "
               f"{shape_ok}, single patch -> [1.0]: {single_ok}")


class TestCriterion10:
    def test_metric_primitives(self, capsys):
        def pairwise(scores, labels):
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

        mismatches = 0
        for seed in range(100):
            rng = np.random.Generator(np.random.PCG64(seed))
            n = int(rng.integers(4, 40))
            scores = rng.integers(0, 8, size=n) / 7.0
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            if compute_auc(scores, labels) != pairwise(scores, labels):
                mismatches += 1
        ok = mismatches == 0
        report(capsys, 10, "metric primitives", ok,
               f"{100 - mismatches}/100 AUC sets match the pairwise oracle "
               "exactly")

"""Workload definitions, their timed loops, output checks and metrics.

Every workload is one closed loop with a single caller. Its inputs are
generated from the run's seed; the package receives only those inputs.

- Train workloads run the sequence of ``alignfuse train``: optimizer steps,
  an evaluation every ``eval_every`` steps that writes ``best.ckpt`` when
  accuracy improves, then a final evaluation and ``final.ckpt``.
- ``infer_disk`` repeats what ``alignfuse eval`` followed by ``alignfuse
  export --what attention`` do: load the checkpoint, load and prepare the
  on-disk dataset, evaluate, then extract one attention map per record.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from alignfuse import data as af_data
from alignfuse import model as af_model
from alignfuse import train as af_train
from alignfuse.errors import AlignFuseError
from alignfuse.tensor import no_grad

from spans import Tracer, aggregate

N_CLASSES = 3
SETUP_REPEATS = 3
WARMUP_STEPS = 2
TRACE_PASSES = 2  # inference passes per phase in the traced run
# errors that fail an operation and end the run
PACKAGE_ERRORS = (AlignFuseError, OSError)
# probe kernel time on the reference machine, per kernel
PROBE_REF_S = {"python": 0.022, "attention": 0.036}
EXPORT_CHUNK = 32    # exported records per timed operation on infer_disk
INFER_MODEL_SEED = 0  # the checkpoint under test is the same for every seed


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                       # "train" or "infer"
    n_records: int
    missing_rate: float
    side: int                       # synthetic raw volume side (jittered +-4)
    model: dict = field(default_factory=dict)  # ModelConfig overrides
    batch_size: int = 8
    eval_every: int = 4
    # loss_final averages l_total over steps [start, end); an untraced run
    # makes at least `end` steps so the window always exists
    loss_window: tuple[int, int] = (16, 32)
    trace_steps: int = 16  # steps in each phase of a traced run
    probe: str = "python"  # SpeedProbe kernel

    def model_config(self) -> af_model.ModelConfig:
        return af_model.ModelConfig(**self.model)

    def train_config(self, seed: int) -> af_train.TrainConfig:
        return af_train.TrainConfig(batch_size=self.batch_size, seed=seed,
                                    eval_every=self.eval_every)


WORKLOADS = {
    w.name: w for w in (
        Workload("train_desk", "train", n_records=64, missing_rate=0.2,
                 side=32),
        Workload("train_bigvol", "train", n_records=32, missing_rate=0.0,
                 side=64, model={"volume_side": 64, "patch_size": 8,
                                 "l_max": 40},
                 batch_size=4, eval_every=5, loss_window=(10, 21),
                 trace_steps=8, probe="attention"),
        Workload("infer_disk", "infer", n_records=256, missing_rate=0.5,
                 side=32),
    )
}


class Ops:
    """Counts operations attempted and failed, with the reason of each
    failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class SpeedProbe:
    """Measures how fast the host runs at the moment.

    On a shared host, speed drifts by tens of percent within seconds. Probes
    run between timed operations, never inside one, and ``scaled`` converts
    a wall interval to seconds of a reference machine, using the probes on
    either side of it. Each kernel mirrors what a workload spends its time
    on, so that the host slows both alike, and calls no package code, so
    that a change to the package does not move it:

    - "python": a chain of small float64 matmuls with a tape of Python
      closures replayed backwards (per-op overhead; desk and infer_disk);
    - "attention": softmax attention over 513 tokens, large BLAS calls and
      memory-bound elementwise work (train_bigvol).
    """

    def __init__(self, kind: str = "python"):
        rng = np.random.default_rng(0)
        self._kernel = getattr(self, "_" + kind)
        self._ref_s = PROBE_REF_S[kind]
        self._x = rng.standard_normal((65, 64))
        self._w = rng.standard_normal((64, 64)) * 0.125
        self._qkv = rng.standard_normal((3, 4, 513, 16))
        self.marks: list[tuple[float, float]] = []  # (start, end) per probe

    def _python(self) -> None:
        x, w, tape = self._x, self._w, []
        for _ in range(300):
            y = np.maximum(x @ w, 0.0) * 0.5 + x * 0.5
            tape.append(lambda g, y=y: (g * (y > 0.0)) @ w.T + g * 0.5)
            x = y
        g = np.ones_like(x)
        for fn in reversed(tape):
            g = fn(g)

    def _attention(self) -> None:
        q, k, v = self._qkv
        for _ in range(2):
            s = (q @ k.transpose(0, 2, 1)) * 0.25
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            (p * ((p @ v) @ v.transpose(0, 2, 1))).sum()

    def __call__(self) -> None:
        t = time.perf_counter()
        self._kernel()
        self.marks.append((t, time.perf_counter()))

    @property
    def durations(self) -> list[float]:
        return [end - start for start, end in self.marks]

    def scaled(self, t0: float, t1: float, reference: bool = True) -> float:
        """Seconds of the wall interval [t0, t1] spent outside probes. With
        `reference`, each part between two consecutive probes is scaled to
        the reference machine by their mean duration."""
        total = 0.0
        for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:]):
            lo, hi = max(t0, e0), min(t1, s1)
            if hi > lo:
                scale = (2.0 * self._ref_s / ((e0 - s0) + (e1 - s1))
                         if reference else 1.0)
                total += (hi - lo) * scale
        return total


def tail_rank(n: int) -> int:
    """0-based rank of the highest percentile with at least ten of `n`
    sorted samples beyond it; the maximum when there are ten or fewer."""
    return n - 11 if n > 10 else n - 1


def tail(samples: list[float]) -> float:
    return sorted(samples)[tail_rank(len(samples))]


def real_token_frac(examples) -> float:
    lengths = [ex.tokens.length for ex in examples]
    return sum(lengths) / (len(examples) * len(examples[0].tokens.ids))


def probs_normalized(probs: np.ndarray) -> bool:
    return bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9))


def attention_ok(heat: np.ndarray, txt_w: np.ndarray, l_max: int) -> bool:
    return (abs(float(heat.sum()) - 1.0) <= 1e-9
            and abs(float(txt_w.sum()) - 1.0) <= 1e-9
            and txt_w.shape == (l_max,))


def _setup_once(w: Workload, seed: int, root: Path) -> dict:
    """Train: write the dataset (as ``alignfuse synth`` does), load and
    prepare it. Infer: write the dataset and the checkpoint of a freshly
    initialised model with optimizer state, in the format training
    writes."""
    mc = w.model_config()
    records = af_data.generate_synthetic_dataset(
        w.n_records, N_CLASSES, side=w.side, missing_rate=w.missing_rate,
        seed=seed)
    af_data.save_dataset(records, root / "data")
    if w.kind == "train":
        records = af_data.load_dataset(root / "data")
    vocab = af_data.build_vocab(af_train.dataset_corpus(records),
                                max_size=mc.vocab_size)
    examples = af_train.prepare_examples(records, vocab, mc)
    state = {"vocab": vocab, "examples": examples}
    if w.kind == "infer":
        model = af_model.AlignFuseModel(mc, seed=INFER_MODEL_SEED)
        af_train.save_model_checkpoint(
            root / "model.ckpt", model, vocab,
            af_train.AdamW(model.params, w.train_config(seed)))
        state["model"] = model
    return state


# ---------------------------------------------------------------------------
# train workloads


def _train_phase(w: Workload, seed: int, state: dict, out: Path,
                 seconds: float, min_steps: int, ops: Ops, mark) -> dict:
    """One train sequence, running until `seconds` have passed and at least
    `min_steps` steps are done. Returns wall intervals of every step, every
    evaluation and the whole sequence; step intervals leave out evaluation
    and checkpoint stalls."""
    mc, tc = w.model_config(), w.train_config(seed)
    examples = state["examples"]
    model = af_model.AlignFuseModel(mc, seed=seed)
    optim = af_train.AdamW(model.params, tc)
    out.mkdir(parents=True, exist_ok=True)
    log, steps, evals = [], [], []
    best = {"accuracy": -1.0}
    probe = SpeedProbe(w.probe)

    def eval_and_track():
        probe()
        t = time.perf_counter()
        report = af_train.evaluate(model, examples)
        evals.append((t, time.perf_counter()))
        ops.check(True, "evaluate")
        if report.accuracy > best["accuracy"]:
            best["accuracy"] = report.accuracy
            af_train.save_model_checkpoint(out / "best.ckpt", model,
                                           state["vocab"], optim)
            ops.check(True, "save best.ckpt")
        return report

    probe()
    t0 = time.perf_counter()
    while len(log) < min_steps or time.perf_counter() - t0 < seconds:
        with mark("bench.step"):
            t = time.perf_counter()
            entry = af_train.train_steps(model, optim, examples, tc,
                                         n_steps=1)[0]
            steps.append((t, time.perf_counter()))
        losses = [v for k, v in entry.items() if k.startswith("l_")]
        ops.check(all(math.isfinite(v) for v in losses),
                  f"non-finite loss at step {entry['step']}")
        log.append(entry)
        if optim.t % tc.eval_every == 0:
            eval_and_track()
        probe()
    report = eval_and_track()
    af_train.save_model_checkpoint(out / "final.ckpt", model, state["vocab"],
                                   optim)
    ops.check(True, "save final.ckpt")
    probe()

    reloaded, _, _ = af_train.load_model_checkpoint(out / "final.ckpt")
    ops.check(af_train.evaluate(reloaded, examples).to_dict()
              == report.to_dict(),
              "evaluate on the reloaded final.ckpt differs from the model")
    return {"log": log, "op": steps, "eval": evals,
            "sequence": (t0, probe.marks[-1][0]), "probe": probe,
            "ckpt_bytes": os.path.getsize(out / "final.ckpt"),
            "model": reloaded, "samples": len(log) * w.batch_size}


def _train_checks(w: Workload, phase: dict, examples, ops: Ops) -> None:
    model = phase["model"]
    probs, _, _ = af_train.predict(model, examples)
    ops.check(probs_normalized(probs), "probability rows do not sum to 1")
    l_max = w.model_config().l_max
    with no_grad():
        for ex in examples[:4]:
            heat, txt_w = model.extract_attention_map(ex.patches, ex.tokens)
            ops.check(attention_ok(heat, txt_w, l_max),
                      "attention map not normalized or wrong text length")


def _warm_train(w: Workload, seed: int, state: dict) -> None:
    """Let allocations and lazy set-up settle before timing."""
    model = af_model.AlignFuseModel(w.model_config(), seed=seed)
    tc = w.train_config(seed)
    af_train.train_steps(model, af_train.AdamW(model.params, tc),
                         state["examples"], tc, n_steps=WARMUP_STEPS)


# ---------------------------------------------------------------------------
# inference workload


def _infer_pass(w: Workload, root: Path, reference: dict, ops: Ops,
                probe: SpeedProbe, out: dict) -> None:
    """One eval + attention export pass. Appends wall intervals to `out`:
    the eval part, each chunk of EXPORT_CHUNK exported records, and the
    whole pass."""
    t0 = time.perf_counter()
    model, vocab, _ = af_train.load_model_checkpoint(root / "model.ckpt")
    ops.check(True, "load checkpoint")
    probe()
    records = af_data.load_dataset(root / "data")
    probe()
    examples = af_train.prepare_examples(records, vocab, model.config)
    probe()
    report = af_train.evaluate(model, examples)
    out["eval"].append((t0, time.perf_counter()))
    ops.check(report.to_dict() == reference,
              "evaluate on the loaded checkpoint differs from the model")
    l_max = model.config.l_max
    maps = []
    with no_grad():
        for i in range(0, len(examples), EXPORT_CHUNK):
            probe()
            t = time.perf_counter()
            maps += [model.extract_attention_map(ex.patches, ex.tokens)
                     for ex in examples[i:i + EXPORT_CHUNK]]
            out["op"].append((t, time.perf_counter()))
    probe()
    maps_ok = all(attention_ok(heat, txt_w, l_max) for heat, txt_w in maps)
    out["pass"].append((t0, probe.marks[-1][0]))
    ops.check(maps_ok, "attention map not normalized or wrong text length")


def _infer_phase(w: Workload, root: Path, reference: dict, seconds: float,
                 min_passes: int, ops: Ops, mark) -> dict:
    out = {"eval": [], "op": [], "pass": [], "probe": SpeedProbe(w.probe)}
    out["probe"]()
    t0 = time.perf_counter()
    while len(out["pass"]) < min_passes or time.perf_counter() - t0 < seconds:
        with mark("bench.pass"):
            _infer_pass(w, root, reference, ops, out["probe"], out)
    return out


# ---------------------------------------------------------------------------
# runs


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    ops: Ops
    details: dict
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.ops.failures


def _setup_timed(w: Workload, seed: int, work: Path,
                 ops: Ops) -> tuple[dict, float]:
    """Set up SETUP_REPEATS times from scratch; returns the last state and
    the median set-up time."""
    times, fracs, state = [], [], None
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        state = _setup_once(w, seed, work)
        times.append(time.perf_counter() - t)
        fracs.append(real_token_frac(state["examples"]))
    ops.check(len(set(fracs)) == 1,
              f"real token share differs between set-ups: {fracs}")
    return state, statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(w: Workload, seed: int, seconds: float, work: Path) -> Result:
    """End-to-end metrics; tracing is off. Timings other than set-up are in
    seconds of the reference machine (see SpeedProbe); the details keep the
    wall-clock values."""
    ops = Ops()
    state, setup_s = _setup_timed(w, seed, work, ops)
    if w.kind == "train":
        _warm_train(w, seed, state)
        phase = _train_phase(w, seed, state, work / "run", seconds,
                             w.loss_window[1], ops, nullcontext)
        _train_checks(w, phase, state["examples"], ops)
        a, b = w.loss_window
        loss_final = statistics.fmean(e["l_total"] for e in phase["log"][a:b])
        work_done, sequences = phase["samples"], [phase["sequence"]]
    else:
        model, examples = state["model"], state["examples"]
        reference = af_train.evaluate(model, examples).to_dict()
        probs, _, _ = af_train.predict(model, examples)
        ops.check(probs_normalized(probs), "probability rows do not sum to 1")
        labels = np.array([ex.label for ex in examples])
        loss_final = float(-np.log(probs[np.arange(len(labels)), labels]).mean())
        phase = _infer_phase(w, work, reference, seconds, 1, ops, nullcontext)
        work_done, sequences = w.n_records, phase["pass"]

    def summary(duration) -> dict:
        op_s = [duration(*iv) for iv in phase["op"]]
        return {"op_s_p50": statistics.median(op_s), "op_s_tail": tail(op_s),
                "records_per_s": work_done / statistics.median(
                    [duration(*iv) for iv in sequences]),
                "eval_records_per_s": w.n_records / statistics.median(
                    [duration(*iv) for iv in phase["eval"]])}

    ref = summary(phase["probe"].scaled)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (ref["op_s_p50"], "ref_s"),
        "op_s_tail": (ref["op_s_tail"], "ref_s"),
        "records_per_s": (ref["records_per_s"], "1/ref_s"),
        "eval_records_per_s": (ref["eval_records_per_s"], "1/ref_s"),
        "loss_final": (loss_final, "nats"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ops_ok_frac": (1.0 - len(ops.failures) / max(ops.attempted, 1), "frac"),
    }
    probe_s = phase["probe"].durations
    n_ops = len(phase["op"])
    details = {"op_samples": n_ops,
               "op_s_tail_percentile": 100.0 * (tail_rank(n_ops) + 1) / n_ops,
               "probes": len(probe_s),
               "probe_ms_p50": 1000.0 * statistics.median(probe_s),
               "wall": summary(lambda t0, t1: phase["probe"].scaled(
                   t0, t1, reference=False))}
    return Result(metrics, ops, details)


def run_traced(w: Workload, seed: int, seconds: float, work: Path) -> Result:
    """Per-layer metrics. The same phase runs untraced, then traced; the
    difference in median step (or pass) time is the tracing overhead."""
    ops = Ops()
    tracer = Tracer()
    _setup_once(w, seed, work)  # warm the set-up path
    with tracer.installed():
        state = _setup_once(w, seed, work)
    if w.kind == "train":
        _warm_train(w, seed, state)
        plain = _train_phase(w, seed, state, work / "plain", 0.0,
                             w.trace_steps, ops, nullcontext)
        with tracer.installed():
            traced = _train_phase(w, seed, state, work / "traced", 0.0,
                                  w.trace_steps, ops, tracer.span)
        _train_checks(w, traced, state["examples"], ops)
        ops.check(plain["log"] == traced["log"],
                  "traced loss sequence differs from the untraced one")
        ckpt_bytes = [plain["ckpt_bytes"], traced["ckpt_bytes"]]
    else:
        reference = af_train.evaluate(state["model"], state["examples"]).to_dict()
        plain = _infer_phase(w, work, reference, 0.0, TRACE_PASSES, ops,
                             nullcontext)
        with tracer.installed():
            traced = _infer_phase(w, work, reference, 0.0, TRACE_PASSES, ops,
                                  tracer.span)
        ckpt_bytes = [os.path.getsize(work / "model.ckpt")]
    # compared per step (train) or per pass (infer), in reference seconds
    unit = "op" if w.kind == "train" else "pass"
    scaled = [statistics.median(p["probe"].scaled(*iv) for iv in p[unit])
              for p in (plain, traced)]
    overhead = scaled[1] / scaled[0] - 1.0
    nodes = tracer.graph_nodes
    ops.check(len(set(nodes)) <= 1, f"graph node count varies by step: {sorted(set(nodes))}")
    ops.check(len(set(ckpt_bytes)) == 1, f"checkpoint size varies: {ckpt_bytes}")

    n_units, unit_self, calls = aggregate(tracer.spans)
    per_unit = lambda *names: sum(unit_self.get(n, 0.0) for n in names)
    per_call = lambda name: statistics.fmean(calls[name]) if name in calls else 0.0
    prep_calls = calls.get("data.prepare_examples", [])
    metrics = {
        "tensor.graph_nodes_per_step": (float(nodes[0]) if nodes else 0.0, "count"),
        "tensor.backward_ms": (per_unit("tensor.backward"), "ms"),
        "model.embed_ms": (per_unit("model.embed_image", "model.embed_text"), "ms"),
        "model.apply_mask_ms": (per_unit("model.apply_mask"), "ms"),
        "model.encode_unimodal_ms": (per_unit("model.encode_unimodal"), "ms"),
        "model.encode_grounded_ms": (per_unit("model.encode_grounded"), "ms"),
        "model.decode_ms": (per_unit("model.decode_modality"), "ms"),
        "model.fuse_classify_ms": (per_unit("model.fuse_classify"), "ms"),
        "model.classify_ms_per_record": (per_call("model.classify"), "ms"),
        "model.attention_map_ms_per_record":
            (per_call("model.extract_attention_map"), "ms"),
        "losses.itc_ms": (per_unit("losses.itc_loss"), "ms"),
        "losses.image_recon_ms": (per_unit("losses.image_recon_loss"), "ms"),
        "losses.text_recon_ms": (per_unit("losses.text_recon_loss"), "ms"),
        "losses.classification_ms": (per_unit("losses.classification_loss"), "ms"),
        "train.forward_ms": (per_unit("train.batch_loss"), "ms"),
        "train.adamw_ms": (per_unit("train.adamw_step"), "ms"),
        "train.evaluate_ms": (per_call("train.evaluate"), "ms"),
        "data.load_dataset_ms": (per_call("data.load_dataset"), "ms"),
        "data.prepare_ms_per_record":
            (sum(prep_calls) / (len(prep_calls) * w.n_records) if prep_calls else 0.0, "ms"),
        "data.real_token_frac": (real_token_frac(state["examples"]), "frac"),
        "checkpoint.save_ms": (per_call("checkpoint.save"), "ms"),
        "checkpoint.load_ms": (per_call("checkpoint.load"), "ms"),
        "checkpoint.bytes": (float(ckpt_bytes[0]), "count"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    details = {"trace_units": n_units, "spans": len(tracer.spans),
               "absent_layers": tracer.absent}
    return Result(metrics, ops, details, tracer)


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        overrides: dict | None = None) -> Result:
    """Runs one workload in `work` (a scratch directory the caller owns).
    `overrides` replaces Workload fields, for the smoke test's tiny config."""
    w = replace(WORKLOADS[name], **(overrides or {}))
    return (run_traced if trace else run_untraced)(w, seed, seconds, work)

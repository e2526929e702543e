"""Command-line entry point: dataset synthesis, training, evaluation,
and embedding/attention export.

Exit codes: 0 success, 1 usage or configuration, 2 data format,
3 numeric abort, 4 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .data import (
    build_vocab,
    dataset_manifest,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    DimensionError,
    LabelError,
    NumericError,
    VocabError,
)
from .model import AlignFuseModel, ModelConfig, param_specs
from .tensor import BLAS_THREADS, RngStream, no_grad
from .train import (
    AdamW,
    TrainConfig,
    collate,
    dataset_corpus,
    evaluate,
    inference_chunks,
    load_model_checkpoint,
    modality_gap,
    predict,
    prepare_examples,
    save_model_checkpoint,
    train_steps,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit, so the exit-code
    policy lives in one place."""

    def error(self, message):
        raise UsageError(message)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# configuration


def load_run_config(config_path: str | None,
                    seed_override: int | None) -> tuple[ModelConfig, TrainConfig]:
    """JSON file with optional "model" and "train" sections; every field
    falls back to its dataclass default. --seed beats the file."""
    raw = {}
    if config_path is not None:
        p = Path(config_path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as e:  # ValueError: also bad UTF-8, too-long integers
            raise ConfigError(f"config file {p} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {p} must contain a JSON object")
        unknown = set(raw) - {"model", "train"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for name, section in raw.items():
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be a JSON object")
    try:
        model_cfg = ModelConfig.from_dict(raw.get("model", {}))
        train_cfg = TrainConfig.from_dict(raw.get("train", {}))
    except TypeError as e:
        raise ConfigError(f"bad config field: {e}")
    if seed_override is not None:
        train_cfg.seed = seed_override
    return model_cfg, train_cfg


def blas_build() -> dict | None:
    """The BLAS entry of numpy's build configuration; None when this numpy
    cannot report it."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None


def write_run_manifest(out_dir: Path, dataset: str, model_cfg: ModelConfig,
                       train_cfg: TrainConfig) -> Path:
    ds = Path(dataset)
    manifest = {
        "command": "train",
        "dataset": str(ds.resolve()),
        "out_dir": str(out_dir.resolve()),
        "seed": train_cfg.seed,
        "model_config": model_cfg.to_dict(),
        "train_config": train_cfg.to_dict(),
        "checksums": {"dataset_manifest": sha256_file(dataset_manifest(ds))},
        # the bits of a run depend on the BLAS build and the kernel it picks
        "blas": {"build": blas_build(), "threads": BLAS_THREADS},
    }
    path = out_dir / "run_manifest.json"
    with atomic_write(path) as fh:
        fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    records = generate_synthetic_dataset(
        args.n, args.classes, side=args.side,
        missing_rate=args.missing_rate, seed=args.seed)
    out_dir = Path(args.out)
    save_dataset(records, out_dir)
    counts: dict[int, int] = {}
    for rec in records:
        counts[rec.label] = counts.get(rec.label, 0) + 1
    for label in sorted(counts):
        print(f"class {label}: {counts[label]} records")
    print(f"wrote {len(records)} records to {out_dir}")
    return EXIT_OK


def build_model(model_cfg: ModelConfig, train_cfg: TrainConfig) -> tuple[AlignFuseModel, AdamW]:
    """A freshly drawn model and its optimizer; sizes that cannot be
    allocated raise ConfigError naming the parameter count."""
    try:
        model = AlignFuseModel(model_cfg, seed=train_cfg.seed)
        return model, AdamW(model.params, train_cfg)
    except MemoryError:
        count = sum(math.prod(shape) for _, shape, _ in param_specs(model_cfg, RngStream(0)))
        raise ConfigError(f"a model of {count:,} parameters does not fit in memory") from None


def cmd_train(args) -> int:
    model_cfg, train_cfg = load_run_config(args.config, args.seed)
    model, optim = build_model(model_cfg, train_cfg)
    records = load_dataset(Path(args.dataset))
    vocab = build_vocab(dataset_corpus(records), max_size=model_cfg.vocab_size)
    examples = prepare_examples(records, vocab, model_cfg)
    del records  # the raw volumes are not read again: free them for the run
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    write_run_manifest(out_dir, args.dataset, model_cfg, train_cfg)

    best = {"accuracy": -1.0}

    def eval_and_track():
        report = evaluate(model, examples)
        if report.accuracy > best["accuracy"]:
            best["accuracy"] = report.accuracy
            save_model_checkpoint(out_dir / "best.ckpt", model, vocab, optim)
        return report

    final_loss = report = None
    last_wall = time.monotonic()
    with open(out_dir / "metrics.jsonl", "w") as mfh, \
            open(out_dir / "timings.jsonl", "w") as tfh:
        while optim.t < train_cfg.steps:
            entry = train_steps(model, optim, examples, train_cfg, n_steps=1)[0]
            mfh.write(json.dumps(entry, sort_keys=True) + "\n")
            # since the previous entry: an evaluation stall lands in the next step
            now = time.monotonic()
            tfh.write(json.dumps({"step": entry["step"],
                                  "wall_ms": (now - last_wall) * 1000.0}) + "\n")
            last_wall, final_loss = now, entry["l_total"]
            report = eval_and_track() if optim.t % train_cfg.eval_every == 0 else None

    if report is None:  # no step was taken, or the last one was not evaluated
        report = eval_and_track()
    save_model_checkpoint(out_dir / "final.ckpt", model, vocab, optim)
    summary = {
        "steps": optim.t,
        "final_total_loss": final_loss,
        "train_accuracy": report.accuracy,
        "best_train_accuracy": best["accuracy"],
    }
    with atomic_write(out_dir / "train_summary.json") as fh:
        fh.write((json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    model, vocab, _ = load_model_checkpoint(Path(args.checkpoint))
    examples = prepare_examples(load_dataset(Path(args.dataset)), vocab, model.config)
    report = evaluate(model, examples)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        if out.is_dir() or args.out.endswith("/"):
            out.mkdir(parents=True, exist_ok=True)
            out = out / "eval_report.json"
        else:
            out.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(out) as fh:
            fh.write((text + "\n").encode())
    return EXIT_OK


def cmd_export(args) -> int:
    model, vocab, _ = load_model_checkpoint(Path(args.checkpoint))
    if args.what == "attention":
        model.require_self_attention()
    examples = prepare_examples(load_dataset(Path(args.dataset)), vocab, model.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.what == "embeddings":
        probs, z_img, z_txt = predict(model, examples)
        with atomic_write(out_dir / "embeddings.jsonl") as fh:
            for i, ex in enumerate(examples):
                fh.write((json.dumps({
                    "index": i,
                    "label": ex.label,
                    "z_image": z_img[i].tolist(),
                    "z_text": z_txt[i].tolist(),
                }) + "\n").encode())
        gap = modality_gap(z_img, z_txt)
        with atomic_write(out_dir / "embeddings_summary.json") as fh:
            fh.write((json.dumps({"modality_gap": gap, "n": len(examples)},
                                 sort_keys=True) + "\n").encode())
        print(f"modality_gap {gap:.6f} over {len(examples)} records")
    else:
        # one atomic file: a chunk that fails leaves no partial export
        with atomic_write(out_dir / "attention.jsonl") as fh, no_grad():
            for start, chunk in inference_chunks(examples):
                heat, txt_w = model.attention_maps(collate(chunk))
                for i, ex in enumerate(chunk):
                    fh.write((json.dumps({
                        "index": start + i,
                        "label": ex.label,
                        "grid_side": model.config.grid_side,
                        "image_heat": heat[i].tolist(),
                        "text_weights": txt_w[i].tolist(),
                    }) + "\n").encode())
        print(f"wrote attention maps for {len(examples)} records")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="alignfuse",
                     description="Train and inspect a volumetric image + "
                                 "clinical text alignment/fusion model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--side", type=int, default=32)
    p.add_argument("--missing-rate", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", default=None,
                   help="JSON with optional 'model' and 'train' sections")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="export embeddings or attention maps")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--what", choices=("embeddings", "attention"),
                   required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, VocabError, LabelError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, CheckpointError, DimensionError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from alignfuse import checkpoint as ckpt
from alignfuse import cli, tensor
from alignfuse.cli import EXIT_DATA, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from alignfuse.data import load_dataset, read_volume, write_volume
from alignfuse.errors import CheckpointError, NumericError
from alignfuse.model import AlignFuseModel
from alignfuse.tensor import RngStream
from alignfuse.train import (PREDICT_CHUNK, load_model_checkpoint, modality_gap,
                             prepare_examples)

TINY_CFG = {
    "model": {"d_model": 8, "n_heads": 2, "n_enc_layers": 1,
              "n_dec_layers": 1, "patch_size": 4, "volume_side": 8,
              "vocab_size": 48, "l_max": 12},
    "train": {"steps": 3, "batch_size": 4, "eval_every": 2, "seed": 0},
}


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def refuse_replacing(target: Path):
    """`os.replace` that raises OSError for a rename onto `target`."""
    replace = os.replace

    def fake(src, dst, *args, **kwargs):
        if Path(dst) == target:
            raise OSError(f"cannot replace {dst}")
        return replace(src, dst, *args, **kwargs)
    return fake


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny synth+train shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    run = root / "run"
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(TINY_CFG))
    assert main(["synth", "--n", "12", "--classes", "3", "--side", "16",
                 "--seed", "0", "--out", str(ds)]) == EXIT_OK
    assert main(["train", "--dataset", str(ds), "--config", str(cfg),
                 "--out", str(run)]) == EXIT_OK
    return ds, run, cfg


class TestSynth:
    def test_balanced_counts_and_row_total(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["synth", "--n", "12", "--classes", "3", "--side", "12",
                     "--seed", "1", "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        for c in range(3):
            assert f"class {c}: 4 records" in printed
        lines = (out / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 12
        labels = [json.loads(l)["label"] for l in lines]
        assert all(labels.count(c) == 4 for c in range(3))

    def test_same_flags_same_bytes(self, tmp_path):
        flags = ["synth", "--n", "6", "--classes", "2", "--side", "10",
                 "--missing-rate", "0.5", "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(flags + ["--out", str(a)]) == EXIT_OK
        assert main(flags + ["--out", str(b)]) == EXIT_OK
        assert dir_digest(a) == dir_digest(b)

    def test_missing_required_flag(self, capsys):
        assert main(["synth", "--n", "4"]) == EXIT_USAGE

    @pytest.mark.parametrize("side", [0, 4])
    def test_side_below_five_exits_2(self, tmp_path, capsys, side):
        out = tmp_path / "ds"
        assert main(["synth", "--n", "4", "--side", str(side),
                     "--out", str(out)]) == EXIT_DATA
        assert "side" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["1.5", "-0.1", "nan"])
    def test_missing_rate_outside_unit_interval_exits_2(self, tmp_path, capsys, rate):
        out = tmp_path / "ds"
        assert main(["synth", "--n", "4", "--missing-rate", rate,
                     "--out", str(out)]) == EXIT_DATA
        assert "missing rate" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_outputs_exist(self, trained):
        _, run, _ = trained
        for name in ("run_manifest.json", "metrics.jsonl", "timings.jsonl",
                     "final.ckpt", "best.ckpt", "train_summary.json"):
            assert (run / name).is_file()

    def test_metrics_schema(self, trained):
        _, run, _ = trained
        entries = [json.loads(l) for l in
                   (run / "metrics.jsonl").read_text().splitlines()]
        assert [e["step"] for e in entries] == [0, 1, 2]
        for e in entries:
            assert set(e) == {"step", "l_cl", "l_res_image", "l_res_text",
                              "l_cls", "l_total", "lr"}

    def test_run_manifest_reproduces_config(self, trained):
        _, run, _ = trained
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["train_config"]["steps"] == 3
        assert manifest["model_config"]["d_model"] == 8
        assert "dataset_manifest" in manifest["checksums"]

    def test_run_manifest_records_the_blas(self, trained):
        _, run, _ = trained
        blas = json.loads((run / "run_manifest.json").read_text())["blas"]
        assert blas["threads"] == tensor.BLAS_THREADS
        assert blas["build"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    @pytest.mark.skipif(tensor.BLAS_THREADS is None, reason="BLAS threads are not pinned")
    def test_bits_hold_across_blas_threads_and_cpus(self, trained, tmp_path):
        # desk-sized GEMMs, which OpenBLAS splits between its threads when it
        # may; attention runs in tiles of a few head slices, on the tile
        # workers when there is more than one CPU
        ds, _, _ = trained
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"steps": 2, "batch_size": 8, "eval_every": 2}}))
        child = ("import os, sys\n"
                 "if sys.argv[1] == 'one_cpu':\n"
                 "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                 "from alignfuse import cli, tensor\n"
                 "tensor.ATTENTION_TILE_BYTES = 1 << 18\n"
                 "sys.exit(cli.main(sys.argv[2:]))\n")
        runs = []
        for name, threads in (("one", "1"), ("two", "2"), ("one_cpu", None)):
            env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            subprocess.run([sys.executable, "-c", child, name, "train", "--dataset", str(ds),
                            "--config", str(cfg), "--out", str(tmp_path / name)],
                           env=env, check=True, capture_output=True, timeout=300)
            runs.append([(tmp_path / name / out).read_bytes()
                         for out in ("metrics.jsonl", "final.ckpt")])
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_rerun_is_bitwise_identical(self, trained, tmp_path):
        ds, run, cfg = trained
        run2 = tmp_path / "run2"
        assert main(["train", "--dataset", str(ds), "--config", str(cfg),
                     "--out", str(run2)]) == EXIT_OK
        assert (run2 / "metrics.jsonl").read_bytes() == \
            (run / "metrics.jsonl").read_bytes()
        assert (run2 / "final.ckpt").read_bytes() == \
            (run / "final.ckpt").read_bytes()

    def test_steps_zero_checkpoint_is_initialization(self, trained, tmp_path):
        ds, _, _ = trained
        cfg = dict(TINY_CFG)
        cfg["train"] = {**TINY_CFG["train"], "steps": 0}
        cfg_a = tmp_path / "a.json"
        cfg_a.write_text(json.dumps(cfg))
        run_a, run_b = tmp_path / "ra", tmp_path / "rb"
        assert main(["train", "--dataset", str(ds), "--config", str(cfg_a),
                     "--out", str(run_a)]) == EXIT_OK
        assert main(["train", "--dataset", str(ds), "--config", str(cfg_a),
                     "--out", str(run_b)]) == EXIT_OK
        # no steps taken, so the two untrained checkpoints agree bit for bit
        assert (run_a / "final.ckpt").read_bytes() == \
            (run_b / "final.ckpt").read_bytes()
        entries = (run_a / "metrics.jsonl").read_text().splitlines()
        assert entries == []

    def test_non_utf8_config_is_a_config_error(self, trained, tmp_path, capsys):
        ds, _, _ = trained
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff" + json.dumps(TINY_CFG).encode())
        assert main(["train", "--dataset", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_seed_flag_overrides_the_config_seed(self, trained, tmp_path):
        ds, _, _ = trained
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CFG, "train": {**TINY_CFG["train"], "steps": 0}}))
        assert main(["train", "--dataset", str(ds), "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        manifest = json.loads((tmp_path / "r" / "run_manifest.json").read_text())
        assert manifest["seed"] == manifest["train_config"]["seed"] == 5

    @pytest.mark.parametrize("raw,message", [
        ([TINY_CFG], "must contain a JSON object"),
        ({**TINY_CFG, "optim": {}}, "unknown config sections: ['optim']")],
        ids=["array", "unknown_section"])
    def test_config_file_shape(self, trained, tmp_path, capsys, raw, message):
        ds, _, _ = trained
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        rc = main(["train", "--dataset", str(ds), "--config", str(bad),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_missing_config_file(self, trained, tmp_path):
        ds, _, _ = trained
        rc = main(["train", "--dataset", str(ds), "--config",
                   str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")])
        assert rc == EXIT_USAGE

    # json.loads raises RecursionError past Python's recursion limit, and a
    # plain ValueError past its 4,300-digit integer limit
    @pytest.mark.parametrize("text", [
        "{not json", "[" * 100_000, '{"train": {"steps": ' + "1" * 5000 + "}}"],
        ids=["not_json", "nested_too_deep", "integer_too_long"])
    def test_bad_config_json(self, trained, tmp_path, capsys, text):
        ds, _, _ = trained
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["train", "--dataset", str(ds), "--config", str(bad),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("section,field,value", [
        ("model", "n_heads", 0), ("train", "eval_every", 0),
        ("train", "steps", -1), ("train", "beta1", 0.9),
        ("model", "fusion_hidden", 16)])
    def test_impossible_config(self, trained, tmp_path, capsys, section,
                               field, value):
        ds, _, _ = trained
        cfg = {**TINY_CFG, section: {**TINY_CFG[section], field: value}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["train", "--dataset", str(ds), "--config", str(bad),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("section,field,value", [
        ("train", "steps", 1.5), ("train", "seed", 1.5), ("train", "steps", True),
        ("train", "batch_size", 2.5), ("train", "grad_clip", "1"), ("model", "d_model", 8.0),
        ("train.weights", "contrastive", "x"), ("model", "l_max", 0), ("model", "d_model", 0),
        ("model", "n_enc_layers", -1), ("train", "weight_decay", -1), ("train", "grad_clip", 0),
        ("train", "lr", float("nan")), ("train", "weight_decay", float("nan")),
        ("train.weights", "contrastive", float("inf")),
        ("train.weights", "classification", -1.0)])
    def test_bad_config_value(self, trained, tmp_path, capsys, section, field, value):
        ds, _, _ = trained
        cfg = json.loads(json.dumps(TINY_CFG))
        if section == "train.weights":
            cfg["train"]["weights"] = {field: value}
        else:
            cfg[section][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))  # NaN and Infinity as Python's json writes them
        rc = main(["train", "--dataset", str(ds), "--config", str(bad),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_unallocatable_model_is_a_config_error(self, trained, tmp_path):
        # d_model = 10^12 passes every field check; drawing its first weight
        # asks for 3.64 PiB, refused here by a 4 GB address-space limit
        ds, _, _ = trained
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"d_model": 10 ** 12}}))
        limit = 4 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "alignfuse.cli", "train", "--dataset", str(ds),
             "--config", str(bad), "--out", str(tmp_path / "r")],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_USAGE
        assert "config error:" in proc.stderr and "parameters" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("raw", [{"model": None}, {"train": "x"}, {"train": []}],
                             ids=["model_null", "train_string", "train_list"])
    def test_config_section_not_an_object(self, trained, tmp_path, capsys, raw):
        ds, _, _ = trained
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        rc = main(["train", "--dataset", str(ds), "--config", str(bad),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert next(iter(raw)) in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("steps,eval_every,calls", [(6, 3, 2), (5, 3, 2), (0, 3, 1)])
    def test_final_evaluation_reuses_the_last_step_report(
            self, trained, tmp_path, monkeypatch, steps, eval_every, calls):
        ds, _, _ = trained
        counted, evaluate = [], cli.evaluate

        def counting_evaluate(model, examples):
            counted.append(1)
            return evaluate(model, examples)

        monkeypatch.setattr(cli, "evaluate", counting_evaluate)
        cfg = {**TINY_CFG, "train": {**TINY_CFG["train"], "steps": steps,
                                     "eval_every": eval_every}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--dataset", str(ds), "--config", str(path),
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        assert len(counted) == calls

    def test_raw_records_are_freed_before_training(self, trained, tmp_path, monkeypatch):
        # the raw volumes are read only to build the examples and the vocabulary
        ds, _, cfg = trained
        loaded, live = [], []
        load_dataset, train_steps = cli.load_dataset, cli.train_steps

        def watched_load(path):
            records = load_dataset(path)
            loaded.extend(weakref.ref(rec) for rec in records)
            return records

        def counting_steps(*args, **kwargs):
            gc.collect()
            live.append(sum(ref() is not None for ref in loaded))
            return train_steps(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", watched_load)
        monkeypatch.setattr(cli, "train_steps", counting_steps)
        assert main(["train", "--dataset", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        assert len(loaded) == 12
        assert live == [0] * TINY_CFG["train"]["steps"]

    def test_failed_summary_write_keeps_the_old_summary(self, trained, tmp_path,
                                                         monkeypatch, capsys):
        ds, run, cfg = trained
        out = tmp_path / "run"
        shutil.copytree(run, out)
        summary = out / "train_summary.json"
        old = summary.read_bytes()
        monkeypatch.setattr(os, "replace", refuse_replacing(summary))
        assert main(["train", "--dataset", str(ds), "--config", str(cfg),
                     "--out", str(out)]) == EXIT_IO
        assert "cannot replace" in capsys.readouterr().err
        assert summary.read_bytes() == old
        assert list(out.glob("*.tmp")) == []

    def test_malformed_dataset_manifest(self, trained, tmp_path, capsys):
        _, _, cfg = trained
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "manifest.jsonl").write_text('{"bad": 1}\nnot json at all\n')
        rc = main(["train", "--dataset", str(ds), "--config", str(cfg),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_DATA


class TestEval:
    def test_eval_twice_identical(self, trained, tmp_path, capsys):
        ds, run, _ = trained
        ckpt = str(run / "final.ckpt")
        outs = []
        for name in ("e1.json", "e2.json"):
            out = tmp_path / name
            assert main(["eval", "--dataset", str(ds), "--checkpoint", ckpt,
                         "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert report["n"] == 12
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_out_directory_gets_eval_report(self, trained, tmp_path, capsys):
        ds, run, _ = trained
        out = tmp_path / "reports"
        assert main(["eval", "--dataset", str(ds), "--checkpoint", str(run / "final.ckpt"),
                     "--out", f"{out}/"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert (out / "eval_report.json").read_text() == printed

    def test_failed_report_write_keeps_the_old_report(self, trained, tmp_path,
                                                       monkeypatch, capsys):
        ds, run, _ = trained
        out = tmp_path / "reports"
        argv = ["eval", "--dataset", str(ds), "--checkpoint", str(run / "final.ckpt"),
                "--out", f"{out}/"]
        assert main(argv) == EXIT_OK
        report = out / "eval_report.json"
        old = report.read_bytes()
        monkeypatch.setattr(os, "replace", refuse_replacing(report))
        assert main(argv) == EXIT_IO
        assert "cannot replace" in capsys.readouterr().err
        assert report.read_bytes() == old
        assert [p.name for p in out.iterdir()] == ["eval_report.json"]

    def test_trailing_bytes(self, trained, tmp_path, capsys):
        ds, run, _ = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes((run / "final.ckpt").read_bytes() + b"\0")
        rc = main(["eval", "--dataset", str(ds), "--checkpoint", str(bad)])
        assert rc == EXIT_DATA
        assert "trailing bytes" in capsys.readouterr().err

    def test_truncated_checkpoint(self, trained, tmp_path):
        ds, run, _ = trained
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes((run / "final.ckpt").read_bytes()[:-50])
        rc = main(["eval", "--dataset", str(ds), "--checkpoint", str(broken)])
        assert rc == EXIT_DATA

    def test_not_a_checkpoint(self, trained, tmp_path):
        ds, _, _ = trained
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"garbage bytes here")
        rc = main(["eval", "--dataset", str(ds), "--checkpoint", str(junk)])
        assert rc == EXIT_DATA

    def test_blob_shape_larger_than_file(self, trained, tmp_path, capsys):
        ds, run, _ = trained
        raw = bytearray((run / "final.ckpt").read_bytes())
        name_at = first_blob_name_at(raw)
        name_len = struct.unpack_from("<I", raw, name_at - 4)[0]
        struct.pack_into("<I", raw, name_at + name_len + 4, 0xFFFFFFF0)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        rc = main(["eval", "--dataset", str(ds), "--checkpoint", str(bad)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "unexpected end of file" in err and "Traceback" not in err


def first_blob_name_at(raw: bytes) -> int:
    """Offset of the first blob name in checkpoint bytes `raw`: magic,
    version, header length, header, blob count, name length, name."""
    return 12 + struct.unpack_from("<I", raw, 8)[0] + 8


# offset of the byte to overwrite, its new value, and the message
CORRUPT_BYTE = {
    "header_not_utf8": (lambda raw: 12, 0xFF, "header is not UTF-8"),
    "header_not_json": (lambda raw: 12, ord("x"), "header is not JSON"),
    "blob_name_not_utf8": (first_blob_name_at, 0xFF, "blob name is not UTF-8"),
}


class TestCorruptCheckpointBytes:
    @pytest.mark.parametrize("case", sorted(CORRUPT_BYTE))
    def test_eval_exits_2(self, trained, tmp_path, capsys, case):
        ds, run, _ = trained
        at, value, message = CORRUPT_BYTE[case]
        raw = bytearray((run / "final.ckpt").read_bytes())
        raw[at(raw)] = value
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        rc = main(["eval", "--dataset", str(ds), "--checkpoint", str(bad)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_header_not_an_object_exits_2(self, trained, tmp_path, capsys):
        ds, run, _ = trained
        header, params, state = ckpt.load_checkpoint(run / "final.ckpt")
        bad = tmp_path / "bad.ckpt"
        ckpt.save_checkpoint(bad, [header], params, state)
        rc = main(["eval", "--dataset", str(ds), "--checkpoint", str(bad)])
        assert rc == EXIT_DATA
        assert "header is not a JSON object" in capsys.readouterr().err

    # written by hand: json.dumps cannot nest this deep or print this integer
    @pytest.mark.parametrize("header", [b"[" * 100_000, b'{"step": ' + b"1" * 5000 + b"}"],
                             ids=["nested_too_deep", "integer_too_long"])
    def test_header_python_cannot_read_exits_2(self, trained, tmp_path, capsys, header):
        ds, run, _ = trained
        raw = (run / "final.ckpt").read_bytes()
        rest = raw[12 + struct.unpack_from("<I", raw, 8)[0]:]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:8] + struct.pack("<I", len(header)) + header + rest)
        rc = main(["eval", "--dataset", str(ds), "--checkpoint", str(bad)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "header is not JSON" in err and "Traceback" not in err


def edit_checkpoint(src: Path, dst: Path, edit) -> Path:
    """A copy of checkpoint `src` at `dst`, with `edit` applied to its
    (header, params, optimizer state) triple."""
    parts = ckpt.load_checkpoint(src)
    edit(*parts)
    ckpt.save_checkpoint(dst, *parts)
    return dst


def write_blob_lists(dst: Path, header: dict, params: list, state: list) -> Path:
    """A checkpoint at `dst` whose two sections are lists of (name, array)
    pairs, so a name may repeat, which no dict can express."""
    payload = json.dumps(header, sort_keys=True).encode()
    with open(dst, "wb") as fh:
        fh.write(ckpt.MAGIC + struct.pack("<II", ckpt.VERSION, len(payload)) + payload)
        for section in (params, state):
            fh.write(struct.pack("<I", len(section)))
            for name, arr in section:
                ckpt._write_blob(fh, name, arr)
    return dst


BAD_CHECKPOINT = {
    "missing_param": (lambda h, p, s: p.pop("log_tau"), "log_tau"),
    "extra_param": (lambda h, p, s: p.update({"extra.w": np.zeros(3)}), "extra.w"),
    "param_shape": (lambda h, p, s: p.update({"fusion.l2.b": np.zeros(1)}),
                    "fusion.l2.b"),
    "optimizer_state": (lambda h, p, s: s.update({"img.lp.w.m": np.zeros(2)}),
                        "img.lp.w.m"),
    "unknown_header_field": (
        lambda h, p, s: h["model_config"].update({"n_experts": 2}), "n_experts"),
    "model_config_not_object": (lambda h, p, s: h.update({"model_config": []}),
                                "bad header"),
    "bad_header_value": (lambda h, p, s: h["model_config"].update({"d_model": 8.0}),
                         "d_model"),
    "nan_param": (lambda h, p, s: p["fusion.l2.b"].fill(np.nan), "fusion.l2.b"),
    "inf_log_tau": (lambda h, p, s: p["log_tau"].fill(np.inf), "log_tau"),
    "nan_optimizer_state": (lambda h, p, s: s["img.lp.w.v"].fill(np.nan), "img.lp.w.v"),
    "fractional_step": (lambda h, p, s: s.update({"t": np.array(2.5)}), "t=2.5"),
    "negative_step": (lambda h, p, s: s.update({"t": np.array(-3.0)}), "t=-3.0"),
    "vocab_too_long": (lambda h, p, s: h["vocab"].extend(f"w{i}" for i in range(60)),
                       "vocab_size=48"),
    "vocab_string": (lambda h, p, s: h.update({"vocab": "abc"}), "vocab"),
    "vocab_not_strings": (lambda h, p, s: h["vocab"].append(7), "vocab"),
    "vocab_without_reserved": (lambda h, p, s: h.update({"vocab": ["[PAD]"]}), "vocab"),
    # sizes whose parameters could not be drawn: above the address space, and
    # one encoder block more than the file holds
    "l_max_beyond_memory": (lambda h, p, s: h["model_config"].update({"l_max": 10**15}),
                            "txt.pe"),
    "extra_encoder_block": (lambda h, p, s: h["model_config"].update(
        {"n_enc_layers": h["model_config"]["n_enc_layers"] + 1}), "img.enc.1.ln1.g"),
}


class TestBadCheckpoint:
    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT))
    def test_eval_exits_2_naming_the_blob(self, trained, tmp_path, capsys, case):
        ds, run, _ = trained
        edit, name = BAD_CHECKPOINT[case]
        bad = edit_checkpoint(run / "final.ckpt", tmp_path / "bad.ckpt", edit)
        rc = main(["eval", "--dataset", str(ds), "--checkpoint", str(bad)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err


    def test_repeated_vocab_token_exits_2(self, trained, tmp_path, capsys):
        # entry 4 copied over entry 5 would tokenize every record differently
        ds, run, _ = trained
        token = ckpt.load_checkpoint(run / "final.ckpt")[0]["vocab"][4]
        bad = edit_checkpoint(run / "final.ckpt", tmp_path / "bad.ckpt",
                              lambda h, p, s: h["vocab"].__setitem__(5, h["vocab"][4]))
        rc = main(["eval", "--dataset", str(ds), "--checkpoint", str(bad)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"repeats the token {token!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("section, name", [("parameter", "img.lp.w"),
                                               ("parameter", "log_tau"), ("optimizer", "t")])
    def test_repeated_blob_exits_2(self, trained, tmp_path, capsys, section, name):
        # a second copy, appended as zeros, would otherwise replace the first
        ds, run, _ = trained
        header, params, state = ckpt.load_checkpoint(run / "final.ckpt")
        lists = {"parameter": list(params.items()), "optimizer": list(state.items())}
        blobs = params if section == "parameter" else state
        lists[section].append((name, np.zeros_like(blobs[name])))
        bad = write_blob_lists(tmp_path / "bad.ckpt", header, lists["parameter"],
                               lists["optimizer"])
        rc = main(["eval", "--dataset", str(ds), "--checkpoint", str(bad)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{section} section repeats the blob {name!r}" in err and "Traceback" not in err

    def test_header_is_checked_before_any_parameter_is_drawn(self, trained, tmp_path,
                                                             monkeypatch):
        # without the patch a model of 10**6 blocks would draw until memory runs out
        def refuse(*args, **kwargs):
            raise AssertionError("a parameter was drawn")

        monkeypatch.setattr(RngStream, "truncated_normal", refuse)
        _, run, _ = trained
        bad = edit_checkpoint(run / "final.ckpt", tmp_path / "bad.ckpt",
                              lambda h, p, s: h["model_config"].update({"n_enc_layers": 10**6}))
        with pytest.raises(CheckpointError, match=r"img\.enc\.1\.ln1\.g"):
            load_model_checkpoint(bad)


class TestExport:
    def test_embeddings_rows_and_gap_recomputation(self, trained, tmp_path):
        ds, run, _ = trained
        out = tmp_path / "exp"
        assert main(["export", "--dataset", str(ds), "--checkpoint",
                     str(run / "final.ckpt"), "--what", "embeddings",
                     "--out", str(out)]) == EXIT_OK
        rows = [json.loads(l) for l in
                (out / "embeddings.jsonl").read_text().splitlines()]
        assert len(rows) == 12
        z_img = np.array([r["z_image"] for r in rows])
        z_txt = np.array([r["z_text"] for r in rows])
        reported = json.loads(
            (out / "embeddings_summary.json").read_text())["modality_gap"]
        assert abs(modality_gap(z_img, z_txt) - reported) < 1e-12

    def test_attention_rows_normalized(self, trained, tmp_path):
        ds, run, _ = trained
        out = tmp_path / "att"
        assert main(["export", "--dataset", str(ds), "--checkpoint",
                     str(run / "final.ckpt"), "--what", "attention",
                     "--out", str(out)]) == EXIT_OK
        rows = [json.loads(l) for l in
                (out / "attention.jsonl").read_text().splitlines()]
        assert len(rows) == 12
        g = rows[0]["grid_side"]
        for r in rows:
            heat = np.array(r["image_heat"])
            assert heat.shape == (g, g, g)
            assert abs(heat.sum() - 1.0) < 1e-6
            txt = np.array(r["text_weights"])
            assert abs(txt.sum() - 1.0) < 1e-6

    def test_failed_attention_export_leaves_no_file(self, trained, tmp_path,
                                                    monkeypatch, capsys):
        # the third of three chunks fails after two were computed
        ds, run, _ = trained
        real, calls = AlignFuseModel.attention_maps, []

        def fail_third_chunk(model, batch):
            calls.append(len(batch.ids))
            if len(calls) == 3:
                raise NumericError("non-finite attention in the third chunk")
            return real(model, batch)

        monkeypatch.setattr(AlignFuseModel, "attention_maps", fail_third_chunk)
        out = tmp_path / "att"
        assert main(["export", "--dataset", str(ds), "--checkpoint",
                     str(run / "final.ckpt"), "--what", "attention",
                     "--out", str(out)]) == EXIT_NUMERIC
        assert "third chunk" in capsys.readouterr().err
        assert calls == [PREDICT_CHUNK] * 3
        assert list(out.iterdir()) == []

    def test_attention_batches_match_single_records(self, trained, tmp_path):
        ds, run, _ = trained
        # 10 records leave a tail chunk shorter than the inference batch
        ds10 = tmp_path / "ds10"
        assert main(["synth", "--n", "10", "--classes", "3", "--side", "16",
                     "--seed", "0", "--out", str(ds10)]) == EXIT_OK
        out = tmp_path / "att"
        assert main(["export", "--dataset", str(ds10), "--checkpoint",
                     str(run / "final.ckpt"), "--what", "attention",
                     "--out", str(out)]) == EXIT_OK
        rows = [json.loads(l) for l in
                (out / "attention.jsonl").read_text().splitlines()]
        model, vocab, _ = load_model_checkpoint(run / "final.ckpt")
        examples = prepare_examples(load_dataset(ds10), vocab, model.config)
        assert 10 % PREDICT_CHUNK == 2
        assert [r["index"] for r in rows] == list(range(10))
        assert [r["label"] for r in rows] == [ex.label for ex in examples]
        for r, ex in zip(rows, examples):
            heat, txt = model.extract_attention_map(ex.patches, ex.tokens)
            assert np.allclose(r["image_heat"], heat, rtol=0.0, atol=1e-12)
            assert np.allclose(r["text_weights"], txt, rtol=0.0, atol=1e-12)

    def test_attention_of_a_model_without_encoder_blocks_exits_1(self, trained, tmp_path,
                                                                  capsys):
        ds, _, _ = trained
        cfg = {"model": {**TINY_CFG["model"], "n_enc_layers": 0},
               "train": {**TINY_CFG["train"], "steps": 0}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(ds), "--config", str(tmp_path / "cfg.json"),
                     "--out", str(run)]) == EXIT_OK
        args = ["export", "--dataset", str(ds), "--checkpoint", str(run / "final.ckpt")]
        capsys.readouterr()
        assert main(args + ["--what", "attention", "--out", str(tmp_path / "att")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n_enc_layers" in err
        assert "Traceback" not in err
        assert not (tmp_path / "att").exists()
        # the [CLS] rows need no block: embeddings still export
        assert main(args + ["--what", "embeddings", "--out", str(tmp_path / "emb")]) == EXIT_OK

    def test_invalid_what_flag(self, trained, tmp_path):
        ds, run, _ = trained
        rc = main(["export", "--dataset", str(ds), "--checkpoint",
                   str(run / "final.ckpt"), "--what", "volumes",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE


def copy_dataset(ds: Path, dst: Path, edit_first=None) -> Path:
    """A copy of dataset `ds` at `dst`. `edit_first` maps the first manifest
    record (a dict) to the line written in its place."""
    shutil.copytree(ds, dst)
    if edit_first is not None:
        manifest = dst / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[0] = edit_first(json.loads(lines[0]))
        manifest.write_text("\n".join(lines) + "\n")
    return dst


def run_on(command: str, ds: Path, trained, tmp_path) -> int:
    """`train` with the tiny config, or `eval` of the tiny run's checkpoint."""
    _, run, cfg = trained
    if command == "train":
        return main(["train", "--dataset", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")])
    return main(["eval", "--dataset", str(ds), "--checkpoint",
                 str(run / "final.ckpt")])


MALFORMED_FIRST_LINE = {
    "not_an_object": lambda rec: "[1, 2]",
    "non_integer_label": lambda rec: json.dumps({**rec, "label": "abc"}),
    "negative_label": lambda rec: json.dumps({**rec, "label": -1}),
    "volume_outside_root": lambda rec: json.dumps(
        {**rec, "volume": "../other/00001.vol"}),
    "demographics_not_an_object": lambda rec: json.dumps({**rec, "demographics": [1]}),
    "volume_with_nul": lambda rec: json.dumps({**rec, "volume": "volumes/a\u0000b.vol"}),
    # json.loads raises RecursionError, and a plain ValueError past the
    # 4,300-digit integer limit
    "nested_too_deep": lambda rec: "[" * 100_000,
    "integer_too_long": lambda rec: '{"label": ' + "7" * 5000 + "}",
    # textualizing would call int() on these
    "nan_demographic": lambda rec: json.dumps({**rec, "demographics": {"age": math.nan}}),
    "minus_infinity_demographic": lambda rec: json.dumps(
        {**rec, "demographics": {"age": -math.inf}}),
    "overflowing_lab_result": lambda rec: json.dumps(
        {**rec, "lab_results": {"mmse": 0}}).replace('"mmse": 0', '"mmse": 1e400'),
}


def edit_volume(ds: Path, edit) -> None:
    """Replace the bytes of volume 00001 of dataset `ds` by `edit(bytes)`."""
    path = ds / "volumes" / "00001.vol"
    path.write_bytes(edit(path.read_bytes()))


# an edit of a dataset directory, and the message it must exit 2 with
BAD_DATASET = {
    "empty_manifest": (lambda ds: (ds / "manifest.jsonl").write_text(""), "empty dataset"),
    "short_volume_header": (lambda ds: edit_volume(ds, lambda raw: raw[:19]),
                            "00001.vol: truncated volume header"),
    "volume_version_2": (lambda ds: edit_volume(
        ds, lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:]),
        "00001.vol: unsupported volume version 2"),
    "volume_header_claims_half_the_voxels": (lambda ds: edit_volume(
        ds, lambda raw: raw[:8] + struct.pack("<I", struct.unpack("<I", raw[8:12])[0] // 2)
        + raw[12:]), "00001.vol: trailing bytes"),
    # zero voxels claimed and none follow, so only the dimension gives it away
    "volume_header_with_a_zero_dimension": (lambda ds: edit_volume(
        ds, lambda raw: raw[:8] + struct.pack("<III", 0, 32, 32)),
        "00001.vol: volume header claims an empty volume (0, 32, 32)"),
    "non_utf8_manifest": (lambda ds: (ds / "manifest.jsonl").write_bytes(
        b'{"x": "\xff", ' + (ds / "manifest.jsonl").read_bytes()[1:]),
        "manifest line 1"),
}


class TestBadDataset:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_FIRST_LINE))
    def test_malformed_manifest_line(self, trained, tmp_path, capsys,
                                     case, command):
        ds = copy_dataset(trained[0], tmp_path / "ds", MALFORMED_FIRST_LINE[case])
        # a readable volume outside the dataset root
        shutil.copytree(ds / "volumes", tmp_path / "other")
        assert run_on(command, ds, trained, tmp_path) == EXIT_DATA
        assert "manifest line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_finite_voxel(self, trained, tmp_path, capsys, command):
        ds = copy_dataset(trained[0], tmp_path / "ds")
        path = ds / "volumes" / "00003.vol"
        vol = read_volume(path)
        vol[1, 2, 3] = np.nan
        write_volume(path, vol)
        assert run_on(command, ds, trained, tmp_path) == EXIT_DATA
        assert "00003.vol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_volume_header_larger_than_file(self, trained, tmp_path, capsys,
                                            command):
        ds = copy_dataset(trained[0], tmp_path / "ds")
        path = ds / "volumes" / "00002.vol"
        # a 100-byte file whose header claims 100000^3 voxels
        raw = path.read_bytes()[:8] + struct.pack("<III", 100000, 100000, 100000)
        path.write_bytes(raw + bytes(100 - len(raw)))
        assert run_on(command, ds, trained, tmp_path) == EXIT_DATA
        assert "00002.vol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("case", sorted(BAD_DATASET))
    def test_bad_dataset_exits_2(self, trained, tmp_path, capsys, case, command):
        ds = copy_dataset(trained[0], tmp_path / "ds")
        edit, message = BAD_DATASET[case]
        edit(ds)
        assert run_on(command, ds, trained, tmp_path) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_label_outside_model_classes(self, trained, tmp_path, capsys,
                                         command):
        ds = copy_dataset(trained[0], tmp_path / "ds",
                          lambda rec: json.dumps({**rec, "label": 7}))
        assert run_on(command, ds, trained, tmp_path) == EXIT_USAGE
        assert "label 7" in capsys.readouterr().err

"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the ``alignfuse`` package
from outside it. Each call of a wrapped callable records one span: name,
start, end and the index of the enclosing span. Spans stay in memory and are
written out once, when the run ends. A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# span name -> "module:attribute path" of the public callable it wraps
TARGETS = {
    "tensor.backward": "alignfuse.tensor:Tensor.backward",
    "model.embed_image": "alignfuse.model:AlignFuseModel.embed_image",
    "model.embed_text": "alignfuse.model:AlignFuseModel.embed_text",
    "model.apply_mask": "alignfuse.model:AlignFuseModel.apply_mask",
    "model.encode_unimodal": "alignfuse.model:AlignFuseModel.encode_unimodal",
    "model.encode_grounded": "alignfuse.model:AlignFuseModel.encode_grounded",
    "model.decode_modality": "alignfuse.model:AlignFuseModel.decode_modality",
    "model.fuse_classify": "alignfuse.model:AlignFuseModel.fuse_classify",
    "model.classify": "alignfuse.model:AlignFuseModel.classify",
    "model.extract_attention_map":
        "alignfuse.model:AlignFuseModel.extract_attention_map",
    "losses.itc_loss": "alignfuse.losses:itc_loss",
    "losses.image_recon_loss": "alignfuse.losses:image_recon_loss",
    "losses.text_recon_loss": "alignfuse.losses:text_recon_loss",
    "losses.classification_loss": "alignfuse.losses:classification_loss",
    "train.batch_loss": "alignfuse.train:batch_loss",
    "train.adamw_step": "alignfuse.train:AdamW.step",
    "train.evaluate": "alignfuse.train:evaluate",
    "data.load_dataset": "alignfuse.data:load_dataset",
    "data.prepare_examples": "alignfuse.train:prepare_examples",
    "checkpoint.save": "alignfuse.train:save_model_checkpoint",
    "checkpoint.load": "alignfuse.train:load_model_checkpoint",
}

# spans the benchmark opens around one train step or one inference pass
UNIT_SPANS = ("bench.step", "bench.pass")


def count_graph_nodes(root) -> int | None:
    """Distinct tensors reachable from `root` through parent links, leaves
    included; None when the tensor type no longer exposes its parents."""
    seen: set[int] = set()
    stack = [root]
    try:
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node._prev)
    except AttributeError:
        return None
    return len(seen)


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals
    (clipped to the span). `spans` rows are [name, start, end, parent]."""
    children: list[list[int]] = [[] for _ in spans]
    for i, row in enumerate(spans):
        if row[3] >= 0:
            children[row[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append((end - start) - covered)
    return out


def _resolve(spec: str):
    """(owner, attribute, original) for "module:Class.attr" or "module:func"."""
    module_name, path = spec.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self, targets: dict[str, str] | None = None):
        self.targets = TARGETS if targets is None else targets
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.graph_nodes: list[int] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(row)
        self._stack.append(idx)
        row[1] = time.perf_counter()
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        count_nodes = name == "tensor.backward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_nodes:
                n = count_graph_nodes(args[0])
                if n is not None:
                    self.graph_nodes.append(n)
                elif "tensor.graph_nodes" not in self.absent:
                    self.absent.append("tensor.graph_nodes")
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs. A function is replaced in
        each loaded ``alignfuse`` module that imported it by name; a method
        is replaced on its class. A target that no longer exists is listed
        in ``absent`` and skipped."""
        undo = []
        try:
            for name, spec in self.targets.items():
                try:
                    owner, attr, original = _resolve(spec)
                except (ImportError, AttributeError):
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    owners = [owner]
                else:
                    owners = [m for n, m in list(sys.modules.items())
                              if m is not None and n.split(".")[0] == "alignfuse"
                              and getattr(m, attr, None) is original]
                for o in owners:
                    setattr(o, attr, wrapper)
                    undo.append((o, attr, original))
            yield self
        finally:
            for o, attr, original in reversed(undo):
                setattr(o, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def aggregate(spans: list[list]) -> tuple[int, dict[str, float], dict[str, list[float]]]:
    """Returns the number of unit spans (train steps or inference passes),
    the self time in ms per unit of each span name nested in a unit, and the
    inclusive duration in ms of every call of each span name."""
    selfs = self_times(spans)
    n_units = sum(1 for row in spans if row[0] in UNIT_SPANS)
    unit_self: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    for row, self_s in zip(spans, selfs):
        name, start, end, parent = row
        calls.setdefault(name, []).append((end - start) * 1000.0)
        while parent >= 0 and spans[parent][0] not in UNIT_SPANS:
            parent = spans[parent][3]
        if parent >= 0:
            unit_self[name] = unit_self.get(name, 0.0) + self_s * 1000.0
    if n_units:
        unit_self = {k: v / n_units for k, v in unit_self.items()}
    return n_units, unit_self, calls

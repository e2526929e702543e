"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import alignfuse
from alignfuse.losses import LossWeights
from alignfuse.model import ModelConfig
from alignfuse.train import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(alignfuse.__file__).resolve().parents[1]


def package_nodes():
    """(file name, node) for every AST node of the package source."""
    root = Path(alignfuse.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_no_assert_statements():
    # contract checks must raise: `python -O` strips assert statements
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def is_grad(target: ast.expr) -> bool:
    """`target` is a `.grad` attribute or a subscript of one."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr == "grad"


def test_no_in_place_gradient_writes():
    # a gradient handed to Tensor._accum may be shared with another parent
    # or be a read-only view, so nothing may write into it
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, ast.AugAssign) and is_grad(node.target)]
    assert found == []


def test_readme_documents_every_config_field():
    # rows of the README configuration table: | section | a / b | defaults |
    documented: dict[str, set[str]] = {}
    for section, names in re.findall(r"^\| (model|train|train\.weights) \| ([^|]+) \|",
                                     README.read_text(), flags=re.MULTILINE):
        documented.setdefault(section, set()).update(n.strip() for n in names.split("/"))
    assert documented == {
        "model": {f.name for f in fields(ModelConfig)},
        "train": {f.name for f in fields(TrainConfig)} - {"weights"},
        "train.weights": {f.name for f in fields(LossWeights)},
    }


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats takes most of a second to import and nothing in the package needs it
    code = "import sys, alignfuse.cli; print([m for m in sys.modules if 'scipy.stats' in m])"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_scipy_use_is_scipy_special_alone():
    # numpy and scipy are the runtime dependencies; the package takes erf
    # from scipy and nothing else (the volume resample is numpy GEMMs)
    modules = set()
    for _, node in package_nodes():
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.update(f"{node.module}.{a.name}" if node.module == "scipy" else node.module
                           for a in node.names)
    assert {m for m in modules if m.split(".")[0] == "scipy"} == {"scipy.special"}


def test_one_owner_for_gradient_routing():
    # ops hand Tensor._node their parents and one backward that returns a
    # gradient per parent; _node alone adds them into the graph nodes of the
    # parents that require grad, and Node.backward seeds the sweep
    tree = ast.parse((Path(alignfuse.__file__).parent / "tensor.py").read_text())
    callers: dict[str, set[str]] = {"_accum": set(), "_result": set()}
    for top in tree.body:
        for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = f"{top.name}.{fn.name}" if isinstance(top, ast.ClassDef) else fn.name
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in callers):
                    callers[node.func.attr].add(owner)
    assert callers == {"_accum": {"Tensor._node", "Node.backward"}, "_result": set()}


def test_node_has_one_form():
    # every op builds its node as Tensor._node(data, parents, grads): three
    # positional arguments, no keyword and no unpacked argument list
    tree = ast.parse((Path(alignfuse.__file__).parent / "tensor.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "_node"]
    assert len(calls) > 20
    assert [node.lineno for node in calls
            if len(node.args) != 3 or node.keywords
            or any(isinstance(a, ast.Starred) for a in node.args)] == []


def test_blocks_reach_no_unfused_op():
    # each sublayer of a block is one graph node with its residual: the
    # model's methods reach the engine's layer_norm, gelu and linear only
    # through _linear, for the patch embedding, the decoder heads and the
    # fusion MLP, and _block reaches none of them, adds no residual and
    # slices no [CLS] row
    tree = ast.parse((Path(alignfuse.__file__).parent / "model.py").read_text())
    (model,) = [top for top in tree.body
                if isinstance(top, ast.ClassDef) and top.name == "AlignFuseModel"]
    calls = {}
    for fn in model.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == "_block":
            assert [node.lineno for node in ast.walk(fn)
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    or isinstance(node, ast.Slice)] == []
        if isinstance(fn, ast.FunctionDef):
            funcs = [node.func for node in ast.walk(fn) if isinstance(node, ast.Call)]
            calls[fn.name] = {f.id if isinstance(f, ast.Name) else f.attr for f in funcs
                              if isinstance(f, (ast.Name, ast.Attribute))}
    unfused = {"layer_norm", "gelu", "linear"}
    assert {name for name, called in calls.items() if called & unfused} == {"_linear"}
    assert {name for name, called in calls.items() if "_linear" in called} == {
        "embed_image", "decode_modality", "fuse_classify"}
    assert {"attention_sublayer", "ffn_sublayer"} <= calls["_block"]
    reached, stack = set(), ["_block"]
    while stack:
        for name in calls[stack.pop()] & calls.keys() - reached:
            reached.add(name)
            stack.append(name)
    assert reached == set()


def assigned_attributes(node: ast.AST) -> list[str]:
    """Attribute names that `node` assigns: by `=`, an augmented or annotated
    assignment, tuple unpacking or a `setattr` with a literal name."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id == "setattr" and len(node.args) > 1
          and isinstance(node.args[1], ast.Constant)):
        return [node.args[1].value]
    else:
        return []
    names = []
    while targets:
        t = targets.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            targets.extend(t.elts)
        elif isinstance(t, ast.Attribute):
            names.append(t.attr)
    return names


def test_graph_links_have_one_owner():
    # backward() frees each graph it ran by clearing these links, so only
    # the graph node's constructor and its sweep may write them
    root = Path(alignfuse.__file__).parent
    owners = set()
    for path in sorted(root.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            items = top.body if isinstance(top, ast.ClassDef) else [top]
            for item in items:
                if isinstance(top, ast.ClassDef) and isinstance(item, ast.FunctionDef):
                    owner = f"{top.name}.{item.name}"
                else:
                    owner = getattr(top, "name", path.name)
                if any(attr in ("_prev", "_backward")
                       for node in ast.walk(item) for attr in assigned_attributes(node)):
                    owners.add(owner)
    assert owners == {"Node.__init__", "Node.backward"}


def test_pad_bias_has_one_owner():
    # attention alone turns a (B, Nkv) key mask into scores: no other module
    # builds, imports or names the pad bias
    owners = {name for name, node in package_nodes()
              if isinstance(node, ast.Name) and node.id == "NEG_MASK_BIAS"
              or isinstance(node, ast.alias) and node.name == "NEG_MASK_BIAS"}
    assert owners == {"tensor.py"}


def test_threads_and_native_calls_live_in_tensor_alone():
    # the BLAS pin and the attention tile workers are the engine's business
    importers = set()
    for name, node in package_nodes():
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "ctypes" or m.startswith("concurrent") for m in mods):
            importers.add(name)
    assert importers == {"tensor.py"}

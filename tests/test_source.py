"""Checks on the package source itself."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import alignfuse
from alignfuse.losses import LossWeights
from alignfuse.model import ModelConfig
from alignfuse.train import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_assert_statements():
    # contract checks must raise: `python -O` strips assert statements
    root = Path(alignfuse.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
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

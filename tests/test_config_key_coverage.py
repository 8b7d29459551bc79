"""Every config key is set by a test or by a README config block.

A key counts as set when a line of the form `key = value` opens a line
of a string in a file under tests/ other than this one (an f-string
counts by its constant parts), or a line of a plain ``` block in README.
A plain key is an ExperimentConfig field without a dotted prefix; a
prefix (embedding., matrix., dictionary.) is set by any key under it;
each train.* key TrainConfig accepts is checked on its own.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

from multisent.experiment import _PREFIXES, _TRAIN_KEYS, ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
KEY_LINE = re.compile(r"^\s*([\w.]+)\s*=", re.M)


def config_keys() -> set[str]:
    """Plain keys, the non-train prefixes, and train.NAME for each train key."""
    plain = {f.name for f in fields(ExperimentConfig) if f.name not in _PREFIXES}
    prefixes = {prefix for prefix in _PREFIXES.values() if prefix != "train."}
    return plain | prefixes | {f"train.{name}" for name in _TRAIN_KEYS}


def keys_set_in_tests() -> set[str]:
    found = set()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        if path.resolve() == Path(__file__).resolve():
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update(KEY_LINE.findall(node.value))
    return found


def keys_set_in_readme() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return {key for block in re.findall(r"```\n(.*?)```", readme, re.S)
            for key in KEY_LINE.findall(block)}


def test_every_config_key_is_set():
    keys = config_keys()
    assert {"corpus", "tokenize_mode", "embedding.", "train.fine_tune_embeddings"} <= keys
    used = keys_set_in_tests() | keys_set_in_readme()
    unset = [key for key in sorted(keys)
             if not any(u.startswith(key) if key.endswith(".") else u == key for u in used)]
    assert unset == []

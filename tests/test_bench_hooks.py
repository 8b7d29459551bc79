"""The traced benchmark's hooks still name plain functions the package defines.

A hooked method that became a property or cached_property would be
wrapped as a function and break the traced run."""

import os
import subprocess
import sys
from pathlib import Path

import multisent

SRC = str(Path(multisent.__file__).resolve().parent.parent)
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

# install() patches modules process-wide, so it runs in its own interpreter.
CHECK = """
import importlib
import inspect
from spans import HOOKS, Tracer

def resolve(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = inspect.getattr_static(target, part)
    return target

for name, module, attr, _ in HOOKS:
    target = resolve(module, attr)
    assert inspect.isfunction(target), (
        f"{name}: {module}.{attr} is a {type(target).__name__}, not a plain function")
Tracer().install()
for name, module, attr, _ in HOOKS:
    assert hasattr(resolve(module, attr), "__wrapped__"), f"{name}: {module}.{attr} is not traced"
print(len(HOOKS))
"""


def test_every_hook_resolves_and_is_wrapped():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([PERFBENCH, SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0

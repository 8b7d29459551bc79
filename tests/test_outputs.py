"""Every output is replaced whole or not at all, through errors.write_output."""

import ast
import errno
from pathlib import Path

import pytest

from multisent import errors
from multisent.errors import write_output

SRC = Path(errors.__file__).resolve().parent


def test_writes_text_as_utf8_bytes(tmp_path):
    target = tmp_path / "out.txt"
    write_output(target, "a\r\nb\n漢\n")
    assert target.read_bytes() == "a\r\nb\n漢\n".encode("utf-8")
    write_output(target, "new\n")
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_that_fails_halfway_keeps_the_old_target(tmp_path, monkeypatch):
    target = tmp_path / "preds.jsonl"
    target.write_text("old\n", encoding="utf-8")
    real_open = open

    class HalfWritten:
        """A file that takes the first half of what it is given, then finds the disk full."""

        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(errors, "open", HalfWritten, raising=False)
    with pytest.raises(OSError) as caught:
        write_output(target, "new\n" * 1000)
    assert caught.value.errno == errno.ENOSPC
    assert caught.value.filename == str(target)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["preds.jsonl"]


def test_text_that_cannot_be_encoded_leaves_no_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_output(tmp_path / "out.txt", "fine\n\ud800\n")
    assert list(tmp_path.iterdir()) == []


def _writes_in_place(tree: ast.AST) -> list[int]:
    """Lines of calls that open a file for writing or call write_text/write_bytes."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+"):
                lines.append(node.lineno)
    return lines


def test_no_output_is_written_in_place_outside_the_helper():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = next((node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                       and path.name == "errors.py" and node.name == "write_output"), None)
        allowed = set(_writes_in_place(helper)) if helper is not None else set()
        found += [f"{path.relative_to(SRC)}:{line}" for line in _writes_in_place(tree)
                  if line not in allowed]
    assert found == []
    assert _writes_in_place(ast.parse('open(p, "w")\nPath(p).write_text(t)\n')) == [1, 2]

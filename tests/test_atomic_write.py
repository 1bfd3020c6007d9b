"""Output files are written atomically: every write in the package goes
through ``corpus.atomic_write``, and a write that fails part-way leaves
the previous file whole and no temporary file behind."""

import ast
from pathlib import Path

import numpy as np
import pytest

from dialdistill import corpus
from dialdistill.checkpoint import load_model, save_model
from dialdistill.corpus import atomic_write
from dialdistill.model import TransformerModel, desk_config

PACKAGE = Path(corpus.__file__).parent


def write_calls(source: str) -> list:
    """Line numbers of every ``open`` in a mode that writes, and of every
    ``write_text`` or ``write_bytes`` call, outside ``atomic_write``."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "atomic_write"
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            found.append(node.lineno)
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            reads = mode is None or (isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value))
            if not reads:
                found.append(node.lineno)
    return found


class TestOneWriter:
    def test_no_write_outside_atomic_write(self):
        offenders = {
            path.name: write_calls(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))
        }
        assert {name: lines for name, lines in offenders.items() if lines} == {}

    def test_the_scan_finds_writes(self):
        source = (
            "open(p, 'w')\nopen(p, mode='ab')\nopen(p, m)\np.write_text(s)\np.write_bytes(b)\n"
            "open(p)\nopen(p, 'rb')\nopen(p, encoding='utf-8')\n"
            "def atomic_write(p):\n    open(p, 'w')\n"
        )
        assert write_calls(source) == [1, 2, 3, 4, 5]


class Interrupted(Exception):
    pass


def leftovers(directory: Path, keep: str) -> list:
    return sorted(p.name for p in directory.iterdir() if p.name != keep)


class TestAtomicWrite:
    def test_writes_text_and_bytes(self, tmp_path):
        with atomic_write(tmp_path / "a.txt") as fh:
            fh.write("é\n")
        with atomic_write(tmp_path / "b.bin", "wb") as fh:
            fh.write(b"\x00\xff")
        assert (tmp_path / "a.txt").read_bytes() == "é\n".encode("utf-8")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
        assert leftovers(tmp_path, "a.txt") == ["b.bin"]

    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(Interrupted):
            with atomic_write(path) as fh:
                fh.write("new, but only in part")
                raise Interrupted
        assert path.read_text(encoding="utf-8") == "old\n"
        assert leftovers(tmp_path, "out.txt") == []

    def test_failed_sync_keeps_the_previous_checkpoint_loadable(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        first = TransformerModel.build(desk_config(20), seed=1)
        save_model(first, path)
        second = TransformerModel.build(desk_config(20), seed=2)

        def failing_fsync(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr(corpus.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="no space"):
            save_model(second, path)
        loaded, _ = load_model(path)
        assert np.array_equal(loaded.params.values, first.params.values)
        assert leftovers(tmp_path, "model.ckpt") == []

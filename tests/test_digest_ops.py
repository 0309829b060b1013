"""tools/digest_ops.py: one digest per CLI op of the benchmark corpus."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digest_ops.py"


@pytest.fixture
def digest_ops(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delitem(sys.modules, "corpus", raising=False)
    spec = importlib.util.spec_from_file_location("digest_ops", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("corpus", None)


def test_level_ops_are_digested_and_compared(digest_ops, tmp_path, capsys):
    ops = digest_ops.digest_ops([1], ["level"])
    assert len(ops) == 30 and all(op["exit"] == 0 for op in ops.values())
    assert digest_ops.digest_ops([1], ["level"]) == ops
    changed = dict(ops)
    first, second = sorted(ops)[:2]
    changed[first] = dict(ops[first], sha256="0" * 64)
    del changed[second]
    assert digest_ops.differences(ops, changed) == [first, second]
    assert digest_ops.differences(ops, dict(ops)) == []

"""tools/digest_ops.py: one digest per CLI op of the benchmark corpus."""

import importlib.util
import json
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
    # the command line picks the same workloads, and digests them the same
    out = tmp_path / "level.json"
    assert digest_ops.main(["--seeds", "1", "--workloads", "level", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"seeds": [1], "ops": ops}
    assert capsys.readouterr().out == f"30 ops digested to {out}\n"
    with pytest.raises(SystemExit) as exit_info:
        digest_ops.main(["--seeds", "1", "--workloads", "level,nope", "--out", str(out)])
    assert exit_info.value.code == 2 and "unknown workloads nope" in capsys.readouterr().err
    changed = dict(ops)
    first, second = sorted(ops)[:2]
    changed[first] = dict(ops[first], sha256="0" * 64)
    del changed[second]
    assert digest_ops.differences(ops, changed) == [first, second]
    assert digest_ops.differences(ops, dict(ops)) == []

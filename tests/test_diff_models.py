"""``tools/diff_models.py``, the parser gate, still runs against this tree."""

import importlib.util
import json
import os
import re
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "diff_models", os.path.join(ROOT, "tools", "diff_models.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_prints_one_digest_pair_per_input(tmp_path):
    corpus_file = os.path.join(ROOT, "src", "solbuglab", "data", "corpus", "contracts",
                               "approve_race_buggy.sol")
    items = [{"name": "approve_race_buggy.sol", "path": corpus_file},
             {"name": "fragment-0.sol", "source": "contract C { function f() { x = 1 } }"},
             {"name": "fragment-1.sol", "source": "pragma solidity ^0.4.24; ( ] {"}]
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text("".join(json.dumps(item) + "\n" for item in items), encoding="utf-8")

    side = _load_tool().run_side(os.path.join(ROOT, "src"), str(inputs))
    try:
        out, err = side.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        side.kill()
        raise
    assert side.returncode == 0, err
    lines = out.splitlines()
    assert len(lines) == len(items)
    for line in lines:
        pair = json.loads(line)
        assert len(pair) == 2 and all(re.fullmatch("[0-9a-f]{64}", d) for d in pair)

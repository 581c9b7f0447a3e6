"""Tests of the benchmark itself: generator, references, metric names."""

import filecmp
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import metrics  # noqa: E402

SMALL = gen.Axes(functions=((1, 3), (16, 1)), contracts=((1, 2), (14, 1)),
                 guards=((12, 2),), depth=((12, 2),))


def _tree(path):
    return sorted(os.path.relpath(os.path.join(d, f), path)
                  for d, _, files in os.walk(path) for f in files)


@pytest.mark.parametrize("workload", ["wide", "guarded"])
def test_same_seed_gives_identical_bytes(tmp_path, workload):
    gen.generate(workload, 7, str(tmp_path / "a"))
    gen.generate(workload, 7, str(tmp_path / "b"))
    names = _tree(tmp_path / "a")
    assert names == _tree(tmp_path / "b")
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                           shallow=False)
    assert mismatch == [] and errors == []


def test_seed_changes_text_but_not_sizes(tmp_path):
    gen.write_generated(str(tmp_path / "a"), SMALL, 1, "t")
    gen.write_generated(str(tmp_path / "b"), SMALL, 2, "t")
    names = [n for n in _tree(tmp_path / "a") if n.endswith(".sol")]
    sizes = {n: (os.path.getsize(tmp_path / "a" / n), os.path.getsize(tmp_path / "b" / n))
             for n in names}
    assert all(a == b for a, b in sizes.values())
    assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "b" / n).read_bytes()
               for n in names)


def test_corpus_reference_gives_the_bundled_counts(tmp_path):
    reference = gen.generate("corpus", 1, str(tmp_path))
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    expected = gen.bench_reference(manifest, reference, metrics.DETECTOR_IDS)
    micro = {segment: tuple(sum(c[key] for c in kinds.values()) for key in ("tp", "fp", "fn"))
             for segment, kinds in expected.items()}
    assert micro == {"all": (8, 1, 2), "non-crafted": (8, 0, 0), "crafted": (0, 1, 2)}


def test_generated_manifest_loads_and_planted_verdicts_hold(tmp_path):
    from solbuglab import corpus
    from solbuglab.detectors import detect_all
    from solbuglab.parser import parse_file

    reference = gen.write_generated(str(tmp_path), SMALL, 3, "t")
    manifest = corpus.load_manifest(str(tmp_path / "manifest.json"))
    assert sorted(e.path for e in manifest.entries) == sorted(reference["files"])
    planted = Counter()
    for entry in manifest.entries:
        found = Counter(f.bug_id for f in detect_all(parse_file(manifest.resolve(entry))))
        assert found == Counter(reference["files"][entry.path]), entry.path
        planted.update(entry.targets)
    assert set(planted) == set(metrics.DETECTOR_IDS)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == metrics.benchmark_doc()
    names = [w["name"] for w in metrics.benchmark_doc()["workloads"]]
    assert names == ["corpus"] + list(gen.WORKLOAD_AXES)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "corpus",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [row["name"] for row in rows]
    assert all(result["metrics"][row["name"]]["unit"] == row["unit"] for row in rows)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""

"""Scoring: confusion counts, undefined ratios, coverage, and report IO."""

import json

import pytest

from solbuglab.corpus import CorpusEntry, CorpusManifest, EntryKind, Origin
from solbuglab.evaluation import (
    ConfusionCounts,
    ToolReport,
    coverage,
    evaluate,
    load_report,
    self_report,
)
from solbuglab.inputs import InputError
from solbuglab.versions import ANY_VERSION


def entry(path, labels=(), targets=None, kind=EntryKind.BUGGY):
    labels = frozenset(labels)
    return CorpusEntry(path=path, solidity_versions=ANY_VERSION, kind=kind,
                       origin=Origin.HANDWRITTEN, labels=labels,
                       targets=frozenset(targets) if targets is not None else labels)


def manifest_of(*entries):
    return CorpusManifest(schema_version="1", entries=tuple(entries),
                          base_dir="/nonexistent")


def tool(claims, findings, name="t"):
    return ToolReport(tool_name=name, claims=frozenset(claims),
                      findings=frozenset(findings))


def per_kind(t, m):
    return dict(evaluate(t, m).segment("all").per_kind)


def test_precision_recall_basic():
    counts = ConfusionCounts(tp=3, fp=1, fn=2)
    assert counts.precision() == pytest.approx(0.75)
    assert counts.recall() == pytest.approx(0.6)


def test_zero_denominators_stay_none():
    assert ConfusionCounts().precision() is None
    assert ConfusionCounts().recall() is None
    assert ConfusionCounts(fp=2).recall() is None
    assert ConfusionCounts(fn=2).precision() is None


def test_match_counts():
    m = manifest_of(
        entry("a.sol", labels={"D-a-R"}),
        entry("b.sol", labels=set(), targets={"D-a-R"}, kind=EntryKind.FIXED),
        entry("c.sol", labels={"F-c-T"}),
    )
    t = tool({"D-a-R"}, {("a.sol", "D-a-R"), ("b.sol", "D-a-R")})
    counts = per_kind(t, m)
    assert counts["D-a-R"] == ConfusionCounts(tp=1, fp=1, fn=0)
    assert "F-c-T" not in counts  # unclaimed
    assert evaluate(t, m).warnings == ()


def test_match_scope_excludes_unrelated_entries():
    m = manifest_of(
        entry("a.sol", labels={"D-a-R"}),
        entry("x.sol", labels={"H-a-S"}),  # outside claims, outside scope
    )
    t = tool({"D-a-R"}, set())
    counts = per_kind(t, m)
    assert counts["D-a-R"] == ConfusionCounts(tp=0, fp=0, fn=1)
    total = sum((c for c in counts.values()), ConfusionCounts())
    assert total.tp + total.fp + total.fn == 1  # x.sol never scored


def test_match_warns_and_excludes_junk_findings():
    m = manifest_of(entry("a.sol", labels={"D-a-R"}))
    t = tool({"D-a-R"}, {
        ("a.sol", "D-a-R"),
        ("ghost.sol", "D-a-R"),      # unknown file
        ("a.sol", "F-c-T"),          # unclaimed kind
    })
    assert per_kind(t, m)["D-a-R"] == ConfusionCounts(tp=1, fp=0, fn=0)
    warnings = evaluate(t, m).warnings
    assert any("ghost.sol" in w for w in warnings)
    assert any("unclaimed" in w for w in warnings)


def test_coverage_examples():
    cov = coverage({"A-a-IO", "D-a-R", "F-c-T"})
    assert cov == pytest.approx(3 / 49)
    assert coverage({"A-a-IO", "NOT-REAL"}) == pytest.approx(1 / 49)
    assert coverage(set()) == 0.0


def test_evaluate_self_on_shipped_corpus(manifest):
    report = evaluate(self_report(manifest), manifest, split_crafted=True)
    assert report.coverage == pytest.approx(7 / 49)
    plain = report.segment("non-crafted")
    assert plain.micro == ConfusionCounts(tp=8, fp=0, fn=0)
    assert plain.micro.precision() == 1.0
    assert plain.micro.recall() == 1.0
    crafted = report.segment("crafted")
    assert crafted.micro == ConfusionCounts(tp=0, fp=1, fn=2)
    assert crafted.micro.recall() == 0.0
    overall = report.segment("all")
    assert overall.micro == ConfusionCounts(tp=8, fp=1, fn=2)


def test_segments_score_like_match_on_their_entries_alone():
    m = manifest_of(
        entry("a.sol", labels={"D-a-R"}),
        entry("b.sol", labels=set(), targets={"D-a-R"}, kind=EntryKind.FIXED),
        entry("c.sol", labels={"F-c-T"}, kind=EntryKind.CRAFTED),
        entry("d.sol", labels=set(), targets={"D-a-R"}, kind=EntryKind.CRAFTED),
    )
    t = tool({"D-a-R", "F-c-T", "NOT-REAL"},
             {("a.sol", "D-a-R"), ("d.sol", "D-a-R"),
              ("ghost.sol", "D-a-R"), ("ghost.sol", "F-c-T")})
    report = evaluate(t, m, split_crafted=True)
    for name, picked in (("all", m.entries), ("non-crafted", m.entries[:2]),
                         ("crafted", m.entries[2:])):
        alone = evaluate(t, manifest_of(*picked)).segment("all")
        assert report.segment(name).per_kind == alone.per_kind
        assert report.segment(name).micro == alone.micro
    ghost = "finding on file outside the corpus ignored: ghost.sol"
    # the report lists each warning once, in first-seen order
    assert report.warnings == ("claims outside the catalog ignored: NOT-REAL", ghost)


def test_disjoint_claims_yield_undefined_metrics():
    m = manifest_of(entry("a.sol", labels={"D-a-R"}))
    report = evaluate(tool({"H-a-S"}, set()), m)
    micro = report.segment("all").micro
    assert micro == ConfusionCounts()
    assert micro.precision() is None
    assert micro.recall() is None
    doc = json.loads(report.to_json())
    assert doc["segments"][0]["micro"]["precision"] is None
    assert doc["segments"][0]["macro"]["recall"] is None
    assert "n/a" in report.to_text()


def test_macro_skips_undefined_kinds():
    m = manifest_of(
        entry("a.sol", labels={"D-a-R"}),
        entry("b.sol", labels=set(), targets={"F-c-T"}, kind=EntryKind.FIXED),
    )
    t = tool({"D-a-R", "F-c-T"}, {("a.sol", "D-a-R")})
    seg = evaluate(t, m).segment("all")
    # F-c-T has no labeled or reported instance: undefined, left out of macro
    assert seg.macro_precision() == 1.0
    assert seg.macro_recall() == 1.0


def test_to_json_is_stable():
    m = manifest_of(entry("a.sol", labels={"D-a-R"}))
    t = tool({"D-a-R"}, {("a.sol", "D-a-R")})
    assert evaluate(t, m).to_json() == evaluate(t, m).to_json()


def test_load_report_and_id_map(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({
        "tool_name": "oy",
        "claims": ["REENTRANCY", "F-c-T"],
        "id_map": {"REENTRANCY": "D-a-R"},
        "findings": [
            {"file": "a.sol", "bug_id": "REENTRANCY"},
            {"file": "b.sol", "bug_id": "F-c-T"},
        ],
    }), encoding="utf-8")
    report = load_report(str(path))
    assert report.claims == frozenset({"D-a-R", "F-c-T"})
    assert ("a.sol", "D-a-R") in report.findings


def test_load_report_rejects_unmapped_ids(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({
        "tool_name": "oy",
        "claims": ["MYSTERY"],
        "findings": [{"file": "a.sol", "bug_id": "MYSTERY"}],
    }), encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_report(str(path))
    assert "MYSTERY" in str(err.value)


def test_external_report_scoring(tmp_path, manifest):
    # a tool claiming two kinds, hitting one of two reentrancy files
    path = tmp_path / "ext.json"
    path.write_text(json.dumps({
        "tool_name": "ext",
        "claims": ["D-a-R", "E-a-SW"],
        "findings": [
            {"file": "contracts/reentrancy_buggy.sol", "bug_id": "D-a-R"},
            {"file": "contracts/ecrecover_fixed.sol", "bug_id": "E-a-SW"},
        ],
    }), encoding="utf-8")
    report = evaluate(load_report(str(path)), manifest)
    counts = dict(report.segment("all").per_kind)
    assert counts["D-a-R"] == ConfusionCounts(tp=1, fp=0, fn=2)
    assert counts["E-a-SW"] == ConfusionCounts(tp=0, fp=1, fn=1)


def test_duplicate_findings_count_once():
    m = manifest_of(entry("a.sol", labels={"D-a-R"}))
    t = tool({"D-a-R"}, {("a.sol", "D-a-R")})
    again = tool({"D-a-R"}, list(t.findings) + [("a.sol", "D-a-R")])
    assert per_kind(t, m) == per_kind(again, m)

"""Manifest loading and validation."""

import json
import os
from collections import Counter

import pytest

from solbuglab import corpus
from solbuglab.corpus import EntryKind, load_manifest
from solbuglab.detectors import DETECTABLE_BUG_IDS
from solbuglab.inputs import InputError


def test_shipped_corpus_loads(manifest):
    assert manifest.schema_version == "1"
    assert len(manifest.entries) == 18
    assert Counter(e.kind.value for e in manifest.entries) == {
        "buggy": 8, "fixed": 7, "crafted": 3}
    assert Counter(e.origin.value for e in manifest.entries)["handwritten"] == 18


def test_every_detectable_kind_has_a_pair(manifest):
    for bug_id in DETECTABLE_BUG_IDS:
        buggy = [e for e in manifest.entries
                 if e.kind is EntryKind.BUGGY and bug_id in e.labels | e.targets]
        fixed = [e for e in manifest.entries
                 if e.kind is EntryKind.FIXED and bug_id in e.labels | e.targets]
        assert buggy, bug_id
        assert fixed, bug_id
        for entry in buggy:
            assert bug_id in entry.labels
        for entry in fixed:
            assert bug_id not in entry.labels
            assert bug_id in entry.targets


def test_crafted_entries_have_strategy_and_expectations(manifest):
    crafted = [e for e in manifest.entries if e.kind is EntryKind.CRAFTED]
    assert sorted(e.strategy for e in crafted) == [1, 2, 3]
    for entry in crafted:
        assert entry.expectations
        for bug_id, outcome in entry.expectations:
            assert outcome in ("miss", "false-positive")
            assert bug_id in entry.targets


def test_entry_paths_resolve(manifest):
    for entry in manifest.entries:
        assert os.path.isfile(manifest.resolve(entry))


def write_manifest(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_sources(tmp_path, *names):
    """Put the listed contract files beside the manifest, so that only the
    problem a test plants is reported."""
    for name in names:
        (tmp_path / name).write_text("contract C {}", encoding="utf-8")


def test_all_violations_reported_together(tmp_path):
    write_sources(tmp_path, "a.sol")
    path = write_manifest(tmp_path, {
        "schema_version": "9",
        "entries": [
            {"path": "a.sol", "solidity_versions": "junk", "kind": "mystery",
             "origin": "nowhere", "labels": ["Q-q-Q"], "strategy": 2},
            {"path": "a.sol", "kind": "buggy", "origin": "unchanged",
             "labels": ["D-a-R"]},
            {"kind": "crafted", "origin": "handwritten", "labels": []},
        ],
    })
    with pytest.raises(InputError) as err:
        load_manifest(path)
    text = str(err.value)
    for expected in ("schema_version", "junk", "mystery", "nowhere", "Q-q-Q",
                     "strategy", "duplicate path", "missing path"):
        assert expected in text
    assert len(err.value.problems) >= 7


def test_fixed_entry_must_drop_its_label(tmp_path):
    write_sources(tmp_path, "x.sol")
    path = write_manifest(tmp_path, {
        "schema_version": "1",
        "entries": [{"path": "x.sol", "kind": "fixed", "origin": "modified",
                     "labels": ["F-c-T"], "targets": ["F-c-T"]}],
    })
    with pytest.raises(InputError) as err:
        load_manifest(path)
    assert "still labels" in str(err.value)


def test_missing_file_is_a_violation(tmp_path):
    path = write_manifest(tmp_path, {
        "schema_version": "1",
        "entries": [{"path": "ghost.sol", "kind": "buggy",
                     "origin": "unchanged", "labels": ["D-a-R"]}],
    })
    with pytest.raises(InputError) as err:
        load_manifest(path)
    assert "not found" in str(err.value)


def test_unreadable_file_is_a_violation(tmp_path, monkeypatch):
    (tmp_path / "locked.sol").write_text("contract C {}", encoding="utf-8")
    path = write_manifest(tmp_path, {
        "schema_version": "1",
        "entries": [{"path": "locked.sol", "kind": "buggy",
                     "origin": "unchanged", "labels": ["D-a-R"]}],
    })

    def refuse_sources(name, *args, **kwargs):
        if str(name).endswith(".sol"):
            raise PermissionError("permission denied")
        return open(name, *args, **kwargs)

    monkeypatch.setattr(corpus, "open", refuse_sources, raising=False)
    with pytest.raises(InputError) as err:
        load_manifest(path)
    assert "locked.sol" in str(err.value)
    assert "unreadable: permission denied" in str(err.value)


def test_targets_default_to_labels(tmp_path):
    write_sources(tmp_path, "x.sol")
    path = write_manifest(tmp_path, {
        "schema_version": "1",
        "entries": [{"path": "x.sol", "kind": "buggy", "origin": "unchanged",
                     "labels": ["D-a-R", "F-c-T"]}],
    })
    entry = load_manifest(path).entries[0]
    assert entry.targets == entry.labels == frozenset({"D-a-R", "F-c-T"})


def test_expectation_values_validated(tmp_path):
    write_sources(tmp_path, "x.sol")
    path = write_manifest(tmp_path, {
        "schema_version": "1",
        "entries": [{"path": "x.sol", "kind": "crafted", "origin": "handwritten",
                     "strategy": 1, "labels": ["D-a-R"],
                     "expectations": {"D-a-R": "explodes"}}],
    })
    with pytest.raises(InputError) as err:
        load_manifest(path)
    assert "explodes" in str(err.value)


@pytest.mark.parametrize("strategy", [True, 1.0])
def test_crafted_strategy_must_be_an_int(tmp_path, strategy):
    write_sources(tmp_path, "x.sol")
    path = write_manifest(tmp_path, {
        "schema_version": "1",
        "entries": [{"path": "x.sol", "kind": "crafted", "origin": "handwritten",
                     "strategy": strategy, "labels": ["D-a-R"]}],
    })
    with pytest.raises(InputError) as err:
        load_manifest(path)
    assert "crafted entry needs strategy 1..3, got %r" % strategy in str(err.value)


def test_large_synthetic_manifest(tmp_path):
    # headline mix: 21 unchanged, 69 modified, 86 handwritten
    mix = [("unchanged", 21), ("modified", 69), ("handwritten", 86)]
    pool = ["D-a-R", "A-a-IS", "F-c-T", "H-a-S", "E-a-SA", "I-b-F", "G-a-B"]
    entries = []
    index = 0
    for origin, count in mix:
        for _ in range(count):
            bug = pool[index % len(pool)]
            entries.append({
                "path": "c%03d.sol" % index,
                "solidity_versions": "^0.4.24",
                "kind": "buggy",
                "origin": origin,
                "labels": [bug],
            })
            index += 1
    write_sources(tmp_path, *(e["path"] for e in entries))
    path = write_manifest(tmp_path, {"schema_version": "1", "entries": entries})
    manifest = load_manifest(path)
    assert len(manifest.entries) == 176
    assert Counter(e.origin.value for e in manifest.entries) == {
        "unchanged": 21, "modified": 69, "handwritten": 86}
    assert Counter(e.kind.value for e in manifest.entries) == {"buggy": 176}


def test_default_manifest_path_exists():
    assert os.path.isfile(corpus.default_manifest_path())

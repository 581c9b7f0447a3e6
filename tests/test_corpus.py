"""Manifest loading, validation, selection, and canonical serialization."""

import json
import os

import pytest

from solbuglab import corpus
from solbuglab.corpus import (
    EntryKind,
    Origin,
    load_manifest,
    select,
    serialize_manifest,
)
from solbuglab.detectors import DETECTABLE_BUG_IDS
from solbuglab.inputs import InputError


def test_shipped_corpus_loads(manifest):
    assert manifest.schema_version == "1"
    assert len(manifest.entries) == 18
    assert manifest.kind_counts() == {"buggy": 8, "fixed": 7, "crafted": 3}
    assert manifest.origin_counts()["handwritten"] == 18


def test_every_detectable_kind_has_a_pair(manifest):
    for bug_id in DETECTABLE_BUG_IDS:
        buggy = select(manifest, bug_id=bug_id, kind=EntryKind.BUGGY)
        fixed = select(manifest, bug_id=bug_id, kind=EntryKind.FIXED)
        assert buggy, bug_id
        assert fixed, bug_id
        for entry in buggy:
            assert bug_id in entry.labels
        for entry in fixed:
            assert bug_id not in entry.labels
            assert bug_id in entry.targets


def test_crafted_entries_have_strategy_and_expectations(manifest):
    crafted = select(manifest, kind=EntryKind.CRAFTED)
    assert sorted(e.strategy for e in crafted) == [1, 2, 3]
    for entry in crafted:
        assert entry.expectations
        for bug_id, outcome in entry.expectations:
            assert outcome in ("miss", "false-positive")
            assert bug_id in entry.targets


def test_entry_paths_resolve(manifest):
    for entry in manifest.entries:
        assert os.path.isfile(manifest.resolve(entry))


def test_select_filters_compose(manifest):
    assert select(manifest, bug_id="D-a-R", kind=EntryKind.CRAFTED,
                  strategy=1)[0].path.endswith("crafted_split_reentrancy.sol")
    assert select(manifest, bug_id="D-a-R", strategy=2) == ()
    everything = select(manifest)
    assert everything == manifest.entries


def test_serialize_fixpoint(manifest, tmp_path):
    text = serialize_manifest(manifest)
    alt = tmp_path / "manifest.json"
    alt.write_text(text, encoding="utf-8")
    reloaded = load_manifest(str(alt), require_files=False)
    assert serialize_manifest(reloaded) == text


def write_manifest(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_all_violations_reported_together(tmp_path):
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
        load_manifest(path, require_files=False)
    text = str(err.value)
    for expected in ("schema_version", "junk", "mystery", "nowhere", "Q-q-Q",
                     "strategy", "duplicate path", "missing path"):
        assert expected in text
    assert len(err.value.problems) >= 7


def test_fixed_entry_must_drop_its_label(tmp_path):
    path = write_manifest(tmp_path, {
        "schema_version": "1",
        "entries": [{"path": "x.sol", "kind": "fixed", "origin": "modified",
                     "labels": ["F-c-T"], "targets": ["F-c-T"]}],
    })
    with pytest.raises(InputError) as err:
        load_manifest(path, require_files=False)
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
    # same document passes when file checks are deferred
    loaded = load_manifest(path, require_files=False)
    assert loaded.entries[0].labels == frozenset({"D-a-R"})


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
    path = write_manifest(tmp_path, {
        "schema_version": "1",
        "entries": [{"path": "x.sol", "kind": "buggy", "origin": "unchanged",
                     "labels": ["D-a-R", "F-c-T"]}],
    })
    entry = load_manifest(path, require_files=False).entries[0]
    assert entry.targets == entry.labels == frozenset({"D-a-R", "F-c-T"})


def test_expectation_values_validated(tmp_path):
    path = write_manifest(tmp_path, {
        "schema_version": "1",
        "entries": [{"path": "x.sol", "kind": "crafted", "origin": "handwritten",
                     "strategy": 1, "labels": ["D-a-R"],
                     "expectations": {"D-a-R": "explodes"}}],
    })
    with pytest.raises(InputError) as err:
        load_manifest(path, require_files=False)
    assert "explodes" in str(err.value)


@pytest.mark.parametrize("strategy", [True, 1.0])
def test_crafted_strategy_must_be_an_int(tmp_path, strategy):
    path = write_manifest(tmp_path, {
        "schema_version": "1",
        "entries": [{"path": "x.sol", "kind": "crafted", "origin": "handwritten",
                     "strategy": strategy, "labels": ["D-a-R"]}],
    })
    with pytest.raises(InputError) as err:
        load_manifest(path, require_files=False)
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
    path = write_manifest(tmp_path, {"schema_version": "1", "entries": entries})
    manifest = load_manifest(path, require_files=False)
    assert len(manifest.entries) == 176
    assert manifest.origin_counts() == {"unchanged": 21, "modified": 69,
                                        "handwritten": 86}
    assert manifest.kind_counts()["buggy"] == 176
    # canonical form is stable here too
    text = serialize_manifest(manifest)
    alt = tmp_path / "round.json"
    alt.write_text(text, encoding="utf-8")
    assert serialize_manifest(load_manifest(str(alt), require_files=False)) == text


def test_entry_lookup(manifest):
    entry = manifest.entry_for("contracts/reentrancy_buggy.sol")
    assert entry.kind is EntryKind.BUGGY
    with pytest.raises(KeyError):
        manifest.entry_for("contracts/none.sol")


def test_default_manifest_path_exists():
    assert os.path.isfile(corpus.default_manifest_path())

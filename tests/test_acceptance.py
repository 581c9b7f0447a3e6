"""Acceptance gate: one test per shipped promise.

Each test prints through the conftest summary as a PASS/FAIL line. These
lean on independent re-computation (hand oracles, brute-force scoring)
rather than re-running the code under test twice.
"""

import json
import os
import random
import time

import pytest

from solbuglab import collector, taxonomy
from solbuglab.collector import (
    ProjectSnapshot,
    RecordedSearchClient,
    WatchConfig,
    load_state,
    run_cycle,
    save_state,
)
from solbuglab.corpus import CorpusEntry, CorpusManifest, EntryKind, Origin
from solbuglab.detectors import DETECTABLE_BUG_IDS, detect_all
from solbuglab.evaluation import ToolReport, coverage, evaluate
from solbuglab.lexer import lex
from solbuglab.parser import parse, parse_file
from solbuglab.taxonomy import (
    BugRecord,
    Certainty,
    EffectClass,
    Severity,
    UngradeableEffectsError,
    grade_severity,
    merge_records,
)
from solbuglab.versions import ANY_VERSION

from test_collector import FakeResponse, FakeUrlopen


def test_criterion_1_detector_pairs(manifest):
    """Every buggy fixture yields exactly its labeled finding, its fixed
    twin yields none, and the whole pair sweep finishes inside a second."""
    total = 0.0
    checked = {bug_id: [0, 0] for bug_id in DETECTABLE_BUG_IDS}
    for bug_id in DETECTABLE_BUG_IDS:
        exercised = [e for e in manifest.entries if bug_id in e.labels | e.targets]
        for entry in (e for e in exercised if e.kind is EntryKind.BUGGY):
            started = time.perf_counter()
            model = parse_file(manifest.resolve(entry))
            findings = detect_all(model)
            total += time.perf_counter() - started
            checked[bug_id][0] += 1
            assert [f.bug_id for f in findings] == [bug_id], entry.path
        for entry in (e for e in exercised if e.kind is EntryKind.FIXED):
            started = time.perf_counter()
            model = parse_file(manifest.resolve(entry))
            findings = detect_all(model)
            total += time.perf_counter() - started
            checked[bug_id][1] += 1
            assert findings == [], entry.path
    for bug_id, (buggy, fixed) in checked.items():
        assert buggy >= 1 and fixed >= 1, bug_id
    assert total < 1.0, total


def test_criterion_2_catalog_and_grading():
    kinds = taxonomy.catalog()
    assert len(kinds) == 49
    assert len(taxonomy.categories()) == 9
    per_category = {}
    per_severity = {}
    for kind in kinds:
        per_category[kind.category] = per_category.get(kind.category, 0) + 1
        per_severity[kind.severity] = per_severity.get(kind.severity, 0) + 1
    assert per_category == {"A": 10, "B": 1, "C": 2, "D": 5, "E": 5,
                            "F": 8, "G": 4, "H": 7, "I": 7}
    assert per_severity == {Severity.CRITICAL: 4, Severity.HIGH: 24,
                            Severity.MIDDLE: 16, Severity.LOW: 5}
    spot = {"D-a-R": Severity.CRITICAL, "D-b-L": Severity.CRITICAL,
            "H-a-S": Severity.CRITICAL, "H-a-WC": Severity.CRITICAL,
            "F-c-T": Severity.MIDDLE,
            "G-a-B": Severity.LOW, "I-a-I": Severity.LOW,
            "I-a-N": Severity.LOW, "I-a-UC": Severity.LOW,
            "I-a-UD": Severity.LOW}
    for bug_id, expected in spot.items():
        assert taxonomy.kind_by_id(bug_id).severity is expected, bug_id
    for kind in kinds:
        assert grade_severity(kind.effects) is kind.severity, kind.id
    with pytest.raises(UngradeableEffectsError):
        grade_severity(set())
    with pytest.raises(UngradeableEffectsError):
        grade_severity({(EffectClass.SERVICEABILITY, Certainty.MAY)})


def test_criterion_3_coverage_ratio():
    cov = coverage({"A-a-IO", "D-a-R", "F-c-T"})
    assert abs(cov - 3 / 49) <= 1e-9
    assert round(cov, 6) == 0.061224


# --- criterion 4: brute-force scoring oracle ----------------------------

def _entry(path, labels, targets, kind, strategy=None):
    return CorpusEntry(path=path, solidity_versions=ANY_VERSION, kind=kind,
                       origin=Origin.MODIFIED, labels=frozenset(labels),
                       targets=frozenset(targets), strategy=strategy)


def _oracle(tool, entries):
    """Straight triple loop, sharing no code with the evaluator."""
    claims = sorted(tool.claims & taxonomy.catalog_ids())
    result = {}
    for bug_id in claims:
        tp = fp = fn = 0
        for item in entries:
            if not (item.labels | item.targets) & set(claims):
                continue
            has = bug_id in item.labels
            found = (item.path, bug_id) in tool.findings
            if has and found:
                tp += 1
            elif has:
                fn += 1
            elif found:
                fp += 1
        result[bug_id] = (tp, fp, fn)
    return result


def _random_case(rng):
    pool = sorted(rng.sample(sorted(taxonomy.catalog_ids()), 8))
    entries = []
    for index in range(rng.randrange(3, 12)):
        kind = rng.choice([EntryKind.BUGGY, EntryKind.FIXED, EntryKind.CRAFTED])
        labels = set(rng.sample(pool, rng.randrange(0, 3)))
        if kind is EntryKind.FIXED:
            targets = labels or {rng.choice(pool)}
            labels = set()
        else:
            targets = set(labels)
            if rng.random() < 0.3:
                targets.add(rng.choice(pool))
        entries.append(_entry(
            "c%d.sol" % index, labels, targets, kind,
            strategy=rng.choice([1, 2, 3]) if kind is EntryKind.CRAFTED else None))
    claims = frozenset(rng.sample(pool, rng.randrange(1, 6)))
    findings = set()
    for item in entries:
        for bug_id in claims:
            if rng.random() < 0.35:
                findings.add((item.path, bug_id))
    if rng.random() < 0.5:
        findings.add(("ghost.sol", rng.choice(sorted(claims))))
    if rng.random() < 0.5:
        findings.add((entries[0].path, "ZZ-not-real"))
    tool = ToolReport(tool_name="fuzz", claims=claims,
                      findings=frozenset(findings))
    manifest = CorpusManifest(schema_version="1", entries=tuple(entries),
                              base_dir="/nonexistent")
    return tool, manifest


def test_criterion_4_scoring_matches_oracle():
    rng = random.Random(1337)
    undefined_seen = 0
    for _ in range(20):
        tool, manifest = _random_case(rng)
        report = evaluate(tool, manifest, split_crafted=True)
        subsets = {
            "all": manifest.entries,
            "non-crafted": tuple(e for e in manifest.entries
                                 if e.kind is not EntryKind.CRAFTED),
            "crafted": tuple(e for e in manifest.entries
                             if e.kind is EntryKind.CRAFTED),
        }
        for name, subset in subsets.items():
            segment = report.segment(name)
            expected = _oracle(tool, subset)
            actual = {bug_id: (c.tp, c.fp, c.fn)
                      for bug_id, c in segment.per_kind}
            assert actual == expected, name
            micro = tuple(sum(v[i] for v in expected.values()) for i in range(3))
            assert (segment.micro.tp, segment.micro.fp, segment.micro.fn) == micro
            for _, counts in segment.per_kind:
                if counts.precision() is None or counts.recall() is None:
                    undefined_seen += 1
    assert undefined_seen > 0  # zero denominators occurred and surfaced

    # and they surface as None / null, never 0.0 or 1.0
    quiet_tool = ToolReport(tool_name="quiet", claims=frozenset({"H-a-S"}),
                            findings=frozenset())
    lone = CorpusManifest(schema_version="1",
                          entries=(_entry("a.sol", {"D-a-R"}, {"D-a-R"},
                                          EntryKind.BUGGY),),
                          base_dir="/nonexistent")
    report = evaluate(quiet_tool, lone, split_crafted=False)
    micro = report.segment("all").micro
    assert micro.precision() is None
    assert micro.recall() is None
    doc = json.loads(report.to_json())
    assert doc["segments"][0]["micro"]["precision"] is None
    assert doc["segments"][0]["micro"]["recall"] is None


def test_criterion_5_merge_is_stable():
    # the three rules, pinned
    theft = BugRecord(source="s1", name="Reentrancy",
                      behavior="call before state update",
                      consequence=frozenset({"theft"}))
    twin = BugRecord(source="s2", name="Recursive Call",
                     behavior="Call  Before State Update",
                     consequence=frozenset({"theft"}))
    clash = BugRecord(source="s3", name="Callback Abuse",
                      behavior="call before state update",
                      consequence=frozenset({"lockup"}))
    other = BugRecord(source="s4", name="Frozen Funds",
                      behavior="no withdraw path",
                      consequence=frozenset({"lockup"}))

    kept = merge_records([theft, other])
    assert sorted(r.name for r in kept) == ["Frozen Funds", "Reentrancy"]

    collapsed = merge_records([theft, twin])
    assert len(collapsed) == 1
    assert collapsed[0].name == "Recursive Call"  # smallest name wins
    assert collapsed[0].renamed is False
    assert set(collapsed[0].aliases) == {"Reentrancy", "Recursive Call"}

    unioned = merge_records([theft, clash])
    assert len(unioned) == 1
    assert unioned[0].renamed is True
    assert unioned[0].consequence == frozenset({"theft", "lockup"})

    # properties over random multisets
    behaviors = ["alpha beta", "gamma", "delta epsilon zeta", "eta"]
    names = ["N1", "N2", "N3", "N4", "N5"]
    consequences = ["c1", "c2", "c3"]
    rng = random.Random(777)
    for _ in range(100):
        records = []
        for _ in range(rng.randrange(0, 14)):
            behavior = rng.choice(behaviors)
            if rng.random() < 0.4:
                behavior = behavior.title()
            if rng.random() < 0.3:
                behavior = "  " + behavior.replace(" ", "   ")
            records.append(BugRecord(
                source="s%d" % rng.randrange(5),
                name=rng.choice(names),
                behavior=behavior,
                consequence=frozenset(rng.sample(consequences,
                                                 rng.randrange(0, 3)))))
        merged = merge_records(records)
        assert merge_records(merged) == merged
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert merge_records(shuffled) == merged


def test_criterion_6_crafted_traps(manifest):
    crafted = [e for e in manifest.entries if e.kind is EntryKind.CRAFTED]
    assert crafted
    for entry in crafted:
        model = parse_file(manifest.resolve(entry))
        found = {f.bug_id for f in detect_all(model)}
        assert entry.expectations, entry.path
        for bug_id, outcome in entry.expectations:
            if outcome == "miss":
                assert bug_id in entry.labels, entry.path
                assert bug_id not in found, (entry.path, "expected a miss")
            else:  # false-positive
                assert bug_id not in entry.labels, entry.path
                assert bug_id in found, (entry.path, "expected a false alarm")

    from solbuglab.evaluation import self_report
    report = evaluate(self_report(manifest), manifest, split_crafted=True)
    crafted_recall = report.segment("crafted").micro.recall()
    plain_recall = report.segment("non-crafted").micro.recall()
    assert crafted_recall is not None and plain_recall is not None
    assert crafted_recall < plain_recall


def test_criterion_7_version_gates(manifest, contracts_dir):
    cases = [("wrong_operator_buggy.sol", "A-a-W"),
             ("uninitialized_storage_buggy.sol", "A-c-US")]
    for name, bug_id in cases:
        with open(os.path.join(contracts_dir, name), encoding="utf-8") as handle:
            source = handle.read()
        assert "pragma solidity ^0.4.24;" in source

        original = detect_all(parse(source, name))
        assert bug_id in {f.bug_id for f in original}

        repinned = source.replace("pragma solidity ^0.4.24;",
                                  "pragma solidity 0.6.2;")
        assert detect_all(parse(repinned, name)) == []

        stripped = source.replace("pragma solidity ^0.4.24;", "")
        assert bug_id in {f.bug_id for f in detect_all(parse(stripped, name))}


def test_criterion_8_lossless_lex_and_partition(manifest):
    for entry in manifest.entries:
        with open(manifest.resolve(entry), encoding="utf-8") as handle:
            source = handle.read()
        tokens = lex(source)
        assert "".join(t.text for t in tokens) == source, entry.path

        model = parse(source, entry.path)
        for contract in model.contracts:
            for fn in contract.functions:
                if not fn.has_body:
                    continue
                lo, hi = fn.body_span
                if hi <= lo:
                    assert fn.body == ()
                    continue
                spans = [s.span for s in fn.body]
                assert spans[0][0] == lo, (entry.path, fn.name)
                assert spans[-1][1] == hi, (entry.path, fn.name)
                for left, right in zip(spans, spans[1:]):
                    assert left[1] == right[0], (entry.path, fn.name)

    pieces = ["pragma", "solidity", "^0.4.24", ";", "contract", "C", "{", "}",
              "(", ")", "function", "uint", "x", "=", "+", "-", "=+", "1",
              "0x1f", '"s"', "'c'", "// c\n", "/* b */", "\n", " ", "\t",
              '"open', "/* open", "é", "mapping", "=>", "[", "]", "."]
    rng = random.Random(31337)
    for _ in range(1000):
        source = "".join(rng.choice(pieces)
                         for _ in range(rng.randrange(0, 50)))
        tokens = lex(source)
        assert "".join(t.text for t in tokens) == source
        for left, right in zip(tokens, tokens[1:]):
            assert left.end == right.start
        assert parse(source, "fuzz.sol") is not None


def test_criterion_9_watch_state_durability(tmp_path, monkeypatch):
    path = str(tmp_path / "state.json")
    projects = {
        "github.com/a/x": ProjectSnapshot("github.com/a/x",
                                          "2026-01-01T00:00:00Z", "k1"),
        "github.com/b/y": ProjectSnapshot("github.com/b/y",
                                          "2026-02-01T00:00:00Z", "k1; k2"),
    }
    save_state(path, "cursor-1", projects)
    first = open(path, "rb").read()
    cursor, loaded = load_state(path)
    assert (cursor, loaded) == ("cursor-1", projects)
    save_state(path, cursor, loaded)
    assert open(path, "rb").read() == first  # byte-identical round trip

    def torn(src, dst):
        raise OSError("simulated crash")

    monkeypatch.setattr(os, "replace", torn)
    with pytest.raises(OSError):
        save_state(path, "cursor-2", {})
    monkeypatch.undo()
    assert open(path, "rb").read() == first  # old state intact
    assert [n for n in os.listdir(tmp_path)
            if n.startswith(".watch_state-")] == []

    # a failed delivery must not advance state; the retry re-sends the delta
    config = WatchConfig(keywords=("k",), notify="https://hooks.example/in",
                         state_path=str(tmp_path / "cycle.json"))
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"k": [
        {"full_name": "a/x", "html_url": "https://github.com/a/x",
         "updated_at": "2026-03-01T00:00:00Z"},
    ]}), encoding="utf-8")
    client = RecordedSearchClient(str(replay))

    monkeypatch.setattr(collector, "default_clock", lambda: "t1")
    monkeypatch.setattr(collector, "urlopen", FakeUrlopen([FakeResponse(502)]))
    failed = run_cycle(config, client)
    assert failed.status == "delivery-failed"
    assert not os.path.exists(config.state_path)

    hook = FakeUrlopen([FakeResponse(200)])
    monkeypatch.setattr(collector, "default_clock", lambda: "t2")
    monkeypatch.setattr(collector, "urlopen", hook)
    retried = run_cycle(config, client)
    assert retried.status == "ok"
    assert retried.changes == failed.changes  # same delta delivered
    assert [p["project_id"] for p in json.loads(hook.requests[0].data)["added"]] == [
        "github.com/a/x"]
    assert load_state(config.state_path)[0] == "t2"

    # same inputs, same clock: state files and notification bodies match
    # byte for byte across independent runs
    capture = FakeUrlopen([FakeResponse(200)] * 2)
    monkeypatch.setattr(collector, "default_clock", lambda: "t9")
    monkeypatch.setattr(collector, "urlopen", capture)
    twins = []
    for run in ("one", "two"):
        twin = WatchConfig(keywords=("k",), notify="https://hooks.example/in",
                           state_path=str(tmp_path / ("twin-%s.json" % run)))
        result = run_cycle(twin, client)
        assert result.status == "ok"
        twins.append(twin.state_path)
    assert open(twins[0], "rb").read() == open(twins[1], "rb").read()
    assert capture.requests[0].data == capture.requests[1].data

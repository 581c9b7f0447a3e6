"""Command-line behavior and exit codes, driven in-process, and the process
boundary: ``python -m solbuglab.cli`` and the console script."""

import ast
import errno
import gc
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from solbuglab import cli, parser, runner
from solbuglab.corpus import default_manifest_path
from solbuglab.detectors import DETECTABLE_BUG_IDS

from test_golden import CASES, GOLDEN_DIR


@pytest.fixture()
def contracts(contracts_dir):
    return contracts_dir


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_text_format(capsys, contracts):
    code, out, err = run_cli(capsys, "scan",
                             os.path.join(contracts, "reentrancy_buggy.sol"))
    assert code == 0
    assert "D-a-R" in out
    assert "Critical" in out
    assert err == ""


def test_scan_clean_file_empty_output(capsys, contracts):
    code, out, _ = run_cli(capsys, "scan",
                           os.path.join(contracts, "reentrancy_fixed.sol"))
    assert code == 0
    assert out == ""


def test_scan_strict_gates_on_findings(capsys, contracts):
    code, _, _ = run_cli(capsys, "scan", "--strict",
                         os.path.join(contracts, "reentrancy_buggy.sol"))
    assert code == 1
    code, _, _ = run_cli(capsys, "scan", "--strict",
                         os.path.join(contracts, "reentrancy_fixed.sol"))
    assert code == 0


def test_scan_fail_on_threshold(capsys, contracts):
    target = os.path.join(contracts, "approve_race_buggy.sol")
    code, _, _ = run_cli(capsys, "scan", "--fail-on", "High", target)
    assert code == 0  # F-c-T is Middle
    code, _, _ = run_cli(capsys, "scan", "--fail-on", "Middle", target)
    assert code == 1


def test_scan_directory_ordered_json(capsys, contracts):
    code, out, _ = run_cli(capsys, "scan", "--format", "json", contracts)
    assert code == 0
    doc = json.loads(out)
    assert doc["errors"] == []
    keys = [(f["file"], f["span"][0], f["bug_id"]) for f in doc["findings"]]
    assert keys == sorted(keys)
    found_ids = {f["bug_id"] for f in doc["findings"]}
    assert found_ids == {"A-a-IS", "A-a-W", "A-c-US", "D-a-R",
                         "E-a-SA", "E-a-SW", "F-c-T"}
    # stable across runs
    code2, out2, _ = run_cli(capsys, "scan", "--format", "json", contracts)
    assert out2 == out


def test_scan_rules_subset_and_unknown(capsys, contracts):
    target = os.path.join(contracts, "integer_sign_buggy.sol")
    code, out, _ = run_cli(capsys, "scan", "--rules", "A-a-W", target)
    assert code == 0
    assert out == ""
    code, _, err = run_cli(capsys, "scan", "--rules", "A-a-W,BOGUS", target)
    assert code == 2
    assert "BOGUS" in err


@pytest.mark.parametrize("rules, message", [("BOGUS", "no detector for: BOGUS"),
                                            ("A-a-W,BOGUS", "no detector for: BOGUS"),
                                            (",", "--rules names no rule"),
                                            (" , ", "--rules names no rule")])
def test_scan_bad_rules_rejected_before_any_file(capsys, monkeypatch, tmp_path,
                                                 rules, message):
    def no_parse(path):
        raise AssertionError("read %s" % path)

    monkeypatch.setattr(runner, "parse_file", no_parse)
    (tmp_path / "a.sol").write_text("contract A {}\n", encoding="utf-8")
    for target in (tmp_path, tmp_path / "empty"):
        target.mkdir(exist_ok=True)
        code, out, err = run_cli(capsys, "scan", "--rules", rules, str(target))
        assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_scan_superscript_digit_file(capsys, tmp_path):
    path = tmp_path / "sup.sol"
    path.write_text("pragma solidity ^0.4.24;\n"
                    "contract C { function f() public { uint x = ²; } }\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "scan", "--format", "json", str(path))
    assert code == 0
    assert json.loads(out)["findings"] == []
    assert err == ""


def test_scan_missing_path(capsys):
    code, _, err = run_cli(capsys, "scan", "/no/such/place.sol")
    assert code == 2
    assert "no such file" in err


def test_scan_path_that_is_not_a_file_or_directory(capsys, tmp_path):
    fifo = tmp_path / "f.sol"
    os.mkfifo(fifo)
    code, out, err = run_cli(capsys, "scan", str(fifo))
    assert code == 2
    assert out == ""
    assert err == "error: %s: not a regular file or directory\n" % fifo


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_scan_reports_a_directory_it_cannot_list(capsys, monkeypatch, tmp_path,
                                                  contracts, fmt):
    with open(os.path.join(contracts, "reentrancy_buggy.sol"), "rb") as handle:
        source = handle.read()
    (tmp_path / "seen.sol").write_bytes(source)
    locked = tmp_path / "locked"
    locked.mkdir()
    (locked / "hidden.sol").write_bytes(source)
    real_scandir = os.scandir

    def scandir(path="."):
        if os.fspath(path) == str(locked):
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
        return real_scandir(path)

    # root can read a chmod 000 directory, so the refusal is simulated
    monkeypatch.setattr(os, "scandir", scandir)
    code, out, err = run_cli(capsys, "scan", "--format", fmt, str(tmp_path))
    assert code == 2
    message = "%s: cannot list directory: Permission denied" % locked
    if fmt == "json":
        doc = json.loads(out)
        assert doc["errors"] == [message]
        assert [f["file"] for f in doc["findings"]] == [str(tmp_path / "seen.sol")]
        assert err == ""
    else:
        assert out.startswith(str(tmp_path / "seen.sol"))
        assert err == "error: %s\n" % message


def test_bench_self_text(capsys):
    code, out, _ = run_cli(capsys, "bench", "--split-crafted")
    assert code == 0
    assert "coverage: 0.1429" in out
    assert "non-crafted" in out
    assert "crafted" in out


def test_bench_json_stable(capsys):
    code, out, _ = run_cli(capsys, "bench", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool_name"] == "self"
    micro = doc["segments"][0]["micro"]
    assert (micro["tp"], micro["fp"], micro["fn"]) == (8, 1, 2)
    _, out2, _ = run_cli(capsys, "bench", "--format", "json")
    assert out2 == out


def test_bench_parses_each_entry_once(capsys, monkeypatch, manifest):
    calls = []
    real_parse = parser.parse

    def counting_parse(source, file_path="<string>"):
        calls.append(file_path)
        return real_parse(source, file_path)

    monkeypatch.setattr(parser, "parse", counting_parse)
    code, _, _ = run_cli(capsys, "bench", "--format", "json")
    assert code == 0
    assert sorted(calls) == sorted(manifest.resolve(e) for e in manifest.entries)


def test_bench_gates(capsys):
    code, _, err = run_cli(capsys, "bench", "--min-precision", "0.95")
    assert code == 1
    assert "below" in err
    code, _, _ = run_cli(capsys, "bench", "--min-precision", "0.8",
                         "--min-recall", "0.7")
    assert code == 0


def usage_error(capsys, *argv):
    """The stdout and stderr of an argument that argparse rejects (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    return captured.out, captured.err


@pytest.mark.parametrize("gate", ["--min-precision", "--min-recall"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5", "high"])
def test_bench_gate_outside_zero_to_one_is_a_usage_error(capsys, gate, value):
    out, err = usage_error(capsys, "bench", gate, value)
    assert out == ""
    assert "is not a number from 0 to 1" in err


# the crafted traps keep the bundled corpus's micro precision below 1
@pytest.mark.parametrize("value, code", [("0", 0), ("1", 1)])
def test_bench_gate_bounds_are_accepted(capsys, value, code):
    assert run_cli(capsys, "bench", "--min-precision", value)[0] == code


def test_bench_missing_corpus(capsys):
    code, _, err = run_cli(capsys, "bench", "--corpus", "/no/file.json")
    assert code == 2
    assert err.startswith("error:")


def test_bench_external_report(capsys, tmp_path):
    report = tmp_path / "tool.json"
    report.write_text(json.dumps({
        "tool_name": "ext",
        "claims": ["D-a-R"],
        "findings": [{"file": "contracts/reentrancy_buggy.sol",
                      "bug_id": "D-a-R"}],
    }), encoding="utf-8")
    code, out, _ = run_cli(capsys, "bench", "--tool", str(report),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool_name"] == "ext"
    micro = doc["segments"][0]["micro"]
    assert micro["tp"] == 1
    assert micro["fn"] == 2  # modern fixture and crafted trap missed


def test_bench_invalid_report(capsys, tmp_path):
    report = tmp_path / "tool.json"
    report.write_text(json.dumps({"tool_name": "ext", "claims": ["WHAT"]}),
                      encoding="utf-8")
    code, _, err = run_cli(capsys, "bench", "--tool", str(report))
    assert code == 2
    assert "WHAT" in err


@pytest.mark.parametrize("flag, what", [("--tool", "tool report"),
                                        ("--corpus", "manifest")])
def test_bench_input_that_is_not_an_object(capsys, tmp_path, flag, what):
    path = tmp_path / "input.json"
    path.write_text("[1, 2]", encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", flag, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "%s: a %s must be a JSON object, not list" % (path, what) in err


@pytest.mark.parametrize("command, body, says", [
    (["bench", "--tool"], '{"tool_name": }', "Expecting value: line 1 column 15"),
    (["bench", "--tool"], '{"tool_name": "ext", "claims": ["WHAT"]}',
     "tool report has 1 problem(s)"),
    (["bench", "--corpus"], "{,}", "Expecting property name"),
    (["bench", "--corpus"], '{"schema_version": "9", "entries": []}',
     "manifest has 1 problem(s)"),
    (["merge"], "[", "Expecting value"),
    (["watch", "--once", "--config"], "{", "Expecting property name"),
    (["watch", "--once", "--config"], '{"interval_days": "soon"}',
     "watch config has 1 problem(s)"),
    (["bench", "--tool"], '{"tool_name": "ext", "claims": 5}',
     "tool report has 1 problem(s):\n  claims must be a list\n"),
    (["bench", "--tool"], '{"tool_name": "ext", "claims": "D-a-R"}',
     "tool report has 1 problem(s):\n  claims must be a list\n"),
    (["bench", "--tool"], '{"tool_name": "ext", "claims": ["D-a-R"], "findings": 7}',
     "tool report has 1 problem(s):\n  findings must be a list\n"),
    (["bench", "--tool"], '{"tool_name": "ext", "id_map": {"R": ["D-a-R"]}, "claims": ["R"]}',
     "tool report has 2 problem(s):\n  id_map: value for R must be a string\n"),
], ids=["tool-json", "tool-problems", "corpus-json", "corpus-violations",
        "merge-json", "watch-config-json", "watch-config-problems",
        "tool-claims-number", "tool-claims-string", "tool-findings-number",
        "tool-id-map-list"])
def test_input_errors_name_the_file_once(capsys, tmp_path, command, body, says):
    path = tmp_path / "input.json"
    path.write_text(body, encoding="utf-8")
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s: %s" % (path, says))
    assert err.count(str(path)) == 1


@pytest.mark.parametrize("fields, says", [
    ({"path": "a.sol", "solidity_versions": 5}, "a.sol: solidity_versions must be a string"),
    ({"path": "a.sol", "solidity_versions": ["^0.4.24"]},
     "a.sol: solidity_versions must be a string"),
    ({"path": "a.sol", "solidity_versions": "foo 1.2"},
     "a.sol: bad solidity_versions: not a list of version clauses: 'foo 1.2'"),
    ({"path": "a.sol", "solidity_versions": "0.4.24.1"},
     "a.sol: bad solidity_versions: not a list of version clauses: '0.4.24.1'"),
    ({"path": 5}, "entry 0: path must be a non-empty string"),
    ({"path": ""}, "entry 0: path must be a non-empty string"),
    ({}, "entry 0: missing path"),
], ids=["versions-number", "versions-list", "versions-not-clauses", "versions-four-parts",
        "path-number", "path-empty", "path-missing"])
def test_bench_manifest_entry_of_wrong_type(capsys, tmp_path, fields, says):
    (tmp_path / "a.sol").write_text("pragma solidity ^0.4.24;\n", encoding="utf-8")
    entry = dict({"kind": "buggy", "origin": "handwritten", "labels": ["D-a-R"]}, **fields)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema_version": "1", "entries": [entry]}),
                        encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--corpus", str(manifest))
    assert (code, out) == (2, "")
    assert err == "error: %s: manifest has 1 problem(s):\n  %s\n" % (manifest, says)


def test_catalog_overview(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "total: 49 kinds, 7 with detectors" in out


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--list")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 49
    assert sum(1 for l in lines if "[detector]" in l) == 7


def test_detector_flags_match_registry(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--list", "--format", "json")
    assert code == 0
    flags = {kind["id"]: kind["has_detector"] for kind in json.loads(out)}
    assert len(flags) == 49
    assert flags == {bug_id: bug_id in DETECTABLE_BUG_IDS for bug_id in flags}


def test_catalog_category(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--category", "D")
    assert code == 0
    assert "Interaction" in out
    assert "D-a-R" in out
    code, _, err = run_cli(capsys, "catalog", "--category", "Z")
    assert code == 2
    assert "Z" in err


@pytest.mark.parametrize("argv", [
    ("--list", "--kind", "A-a-W"),
    ("--list", "--category", "D"),
    ("--category", "D", "--kind", "A-a-W"),
], ids=["list-kind", "list-category", "category-kind"])
def test_catalog_views_exclude_each_other(capsys, argv):
    out, err = usage_error(capsys, "catalog", *argv)
    assert out == ""
    assert "not allowed with argument" in err


def test_catalog_kind_detail(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--kind", "A-a-W", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["severity"] == "High"
    assert doc["has_detector"] is True
    assert doc["affected_versions"] != "*"
    code, _, _ = run_cli(capsys, "catalog", "--kind", "Z-z-Z")
    assert code == 2


def test_merge_json_output(capsys, tmp_path):
    records = tmp_path / "records.json"
    records.write_text(json.dumps([
        {"source": "s1", "name": "Reentrancy",
         "behavior": "call before update", "consequence": ["theft"]},
        {"source": "s2", "name": "Recursive Call",
         "behavior": "Call Before Update", "consequence": ["lockup"]},
    ]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "merge", str(records))
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1
    assert doc[0]["renamed"] is True
    assert doc[0]["consequence"] == ["lockup", "theft"]


def test_merge_schema_violation(capsys, tmp_path):
    records = tmp_path / "records.json"
    records.write_text(json.dumps([{"source": "s1"}]), encoding="utf-8")
    code, _, err = run_cli(capsys, "merge", str(records))
    assert code == 2
    assert "record 0" in err


def test_watch_once_with_replay(capsys, tmp_path):
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({
        "smart contract tools": [
            {"full_name": "a/x", "html_url": "https://github.com/a/x",
             "updated_at": "2026-01-01T00:00:00Z"},
        ],
    }), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "keywords": ["smart contract tools"],
        "interval_days": 5,
        "state_path": str(tmp_path / "state.json"),
    }), encoding="utf-8")
    code, out, _ = run_cli(capsys, "watch", "--config", str(config),
                           "--replay", str(replay), "--once")
    assert code == 0
    assert "every 5 day(s)" in out
    assert "github.com/a/x" in out
    assert "ok: 1 added" in out
    assert os.path.exists(str(tmp_path / "state.json"))


def test_watch_reports_each_cycle_as_it_ends(capsys, monkeypatch, tmp_path):
    from solbuglab import collector

    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"k": []}), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keywords": ["k"], "interval_days": 2,
                                  "state_path": str(tmp_path / "state.json")}),
                      encoding="utf-8")
    naps = []

    def sleep(seconds):
        naps.append(seconds)
        if len(naps) == 2:  # interrupted after the second cycle
            raise KeyboardInterrupt

    monkeypatch.setattr(collector.time, "sleep", sleep)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["watch", "--config", str(config), "--replay", str(replay)])
    assert capsys.readouterr().out.splitlines() == [
        "watching 1 keyword(s), checking every 2 day(s)",
        "ok: 0 added, 0 updated, 0 removed",
        "ok: 0 added, 0 updated, 0 removed",
    ]
    assert naps == [2 * 86400.0] * 2


def test_watch_auth_failure(capsys, tmp_path):
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"smart contract tools": {"error": "auth"}}),
                      encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "keywords": ["smart contract tools"],
        "state_path": str(tmp_path / "state.json"),
    }), encoding="utf-8")
    code, _, err = run_cli(capsys, "watch", "--config", str(config),
                           "--replay", str(replay), "--once")
    assert code == 2
    assert "token" in err


@pytest.mark.parametrize("replay, problem", [
    ([1, 2], "must be a JSON object"),
    ("x", "must be a JSON object"),
    ({"smart contract bugs": 5}, "'smart contract bugs' must be a list of objects"),
    ({"smart contract bugs": [1]}, "'smart contract bugs' must be a list of objects"),
], ids=["list", "string", "int-results", "int-item"])
def test_watch_refuses_malformed_replay(capsys, tmp_path, replay, problem):
    replay_path = tmp_path / "replay.json"
    replay_path.write_text(json.dumps(replay), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"state_path": str(tmp_path / "state.json")}),
                      encoding="utf-8")
    code, out, err = run_cli(capsys, "watch", "--config", str(config),
                             "--replay", str(replay_path), "--once")
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s: " % replay_path)
    assert problem in err
    assert "Traceback" not in err
    assert not os.path.exists(str(tmp_path / "state.json"))


def test_watch_bad_config(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"interval_days": "soon"}), encoding="utf-8")
    code, _, err = run_cli(capsys, "watch", "--config", str(config), "--once")
    assert code == 2
    assert "interval_days" in err


def test_watch_refuses_an_interval_too_long_to_sleep(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"interval_days": 200000, "keywords": ["k"],
                                  "state_path": str(tmp_path / "state.json")}),
                      encoding="utf-8")
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"k": []}), encoding="utf-8")
    code, out, err = run_cli(capsys, "watch", "--config", str(config),
                             "--replay", str(replay))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: " % config)
    assert "interval_days must be an integer from 1 to " in err


def test_watch_refuses_a_search_reply_that_is_no_result_page(capsys, monkeypatch, tmp_path):
    from solbuglab import collector
    from test_collector import FakeResponse, FakeUrlopen

    monkeypatch.setattr(collector, "urlopen",
                        FakeUrlopen([FakeResponse(200, ["not", "an", "object"])]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keywords": ["k"], "endpoint": "https://search.example/api",
                                  "state_path": str(tmp_path / "state.json")}),
                      encoding="utf-8")
    code, _, err = run_cli(capsys, "watch", "--config", str(config), "--once")
    assert code == 2
    assert err == ("error: search reply from https://search.example/api is not a "
                   "JSON object with an items list of objects\n")
    assert not os.path.exists(str(tmp_path / "state.json"))


def test_watch_ends_a_search_answered_4xx_without_a_retry(capsys, monkeypatch, tmp_path):
    from solbuglab import collector
    from test_collector import FakeResponse, FakeUrlopen

    monkeypatch.setattr(collector, "urlopen", FakeUrlopen([FakeResponse(404)]))
    naps = []
    monkeypatch.setattr(collector.time, "sleep", naps.append)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keywords": ["k"], "endpoint": "https://search.example/api",
                                  "state_path": str(tmp_path / "state.json")}),
                      encoding="utf-8")
    code, _, err = run_cli(capsys, "watch", "--config", str(config), "--once")
    assert (code, err, naps) == (
        2, "error: search endpoint https://search.example/api answered HTTP 404\n", [])
    assert not os.path.exists(str(tmp_path / "state.json"))


def test_watch_refuses_an_endpoint_that_is_no_http_url(capsys, monkeypatch, tmp_path):
    from solbuglab import collector

    naps = []
    monkeypatch.setattr(collector.time, "sleep", naps.append)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keywords": ["k"], "endpoint": "api.example/search",
                                  "state_path": str(tmp_path / "state.json")}),
                      encoding="utf-8")
    code, out, err = run_cli(capsys, "watch", "--config", str(config), "--once")
    assert (code, out, naps) == (2, "", [])
    assert err == ("error: %s: watch config has 1 problem(s):\n"
                   "  endpoint must be an http(s) URL\n" % config)
    assert not os.path.exists(str(tmp_path / "state.json"))


@pytest.mark.parametrize("state, says", [
    ("{not json", "Expecting property name enclosed in double quotes"),
    ("[]", "a watch state must be a JSON object, not list"),
    ('{"cursor": null, "projects": [{"last_update": "t"}]}', "watch state"),
    ('{"cursor": 7}', "watch state"),
    ('{"projects": {}}', "watch state"),
], ids=["invalid-json", "not-an-object", "no-project-id", "bad-cursor", "bad-projects"])
def test_watch_refuses_corrupt_state(capsys, tmp_path, state, says):
    state_path = tmp_path / "state.json"
    state_path.write_text(state, encoding="utf-8")
    before = state_path.read_bytes()
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"k": []}), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keywords": ["k"], "state_path": str(state_path)}),
                      encoding="utf-8")
    code, _, err = run_cli(capsys, "watch", "--config", str(config),
                           "--replay", str(replay), "--once")
    assert code == 2
    assert err.startswith("error: %s: %s" % (state_path, says))
    assert state_path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["config.json", "replay.json", "state.json"]


# Every JSON input file, read through one reader: how a command takes it, the
# top-level type it must have, and a document of that type with one problem.
_INPUTS = {
    "bench-corpus": (["bench", "--corpus", "{input}"], dict,
                     '{"schema_version": "9", "entries": []}'),
    "bench-tool": (["bench", "--tool", "{input}"], dict,
                   '{"tool_name": "ext", "claims": ["WHAT"]}'),
    "merge": (["merge", "{input}"], list, '[{"source": "s1"}]'),
    "watch-config": (["watch", "--once", "--config", "{input}", "--replay", "{replay}"],
                     dict, '{"interval_days": "soon"}'),
    "watch-replay": (["watch", "--once", "--config", "{config}", "--replay", "{input}"],
                     dict, '{"k": 5}'),
    "watch-state": (["watch", "--once", "--config", "{config}", "--replay", "{replay}"],
                    dict, '{"cursor": 7}'),
}
_BODIES = {"non-utf8": b'\xff{"k": []}', "invalid-json": b"{not json",
           "deep-nesting": b"[" * 100000}
_CASES = ("missing", "directory", *_BODIES, "wrong-type", "content")


@pytest.mark.parametrize("name, case", [
    (name, case) for name in _INPUTS for case in _CASES
    if (name, case) != ("watch-state", "missing")  # a fresh start, not an error
])
def test_every_bad_input_file_exits_2_naming_it_once(capsys, tmp_path, name, case):
    argv, kind, content = _INPUTS[name]
    state = tmp_path / "state.json"
    bad = state if name == "watch-state" else tmp_path / "input.json"
    if case == "directory":
        bad.mkdir()
    elif case != "missing":
        bad.write_bytes({"wrong-type": b"{}" if kind is list else b"[]",
                         "content": content.encode()}.get(case) or _BODIES[case])
    before = state.read_bytes() if state.is_file() else None
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"k": []}), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keywords": ["k"], "state_path": str(state)}),
                      encoding="utf-8")
    code, out, err = run_cli(capsys, *(arg.format(input=bad, replay=replay, config=config)
                                       for arg in argv))
    assert code == 2
    assert err.startswith("error: %s: " % bad)
    assert err.count("error: ") == 1
    assert err.count(str(bad)) == 1
    assert "Traceback" not in err
    watching = "watching 1 keyword(s), checking every 15 day(s)\n"
    assert out == (watching if name == "watch-state" else "")
    if name == "watch-state":
        assert state.is_dir() if case == "directory" else state.read_bytes() == before
    else:
        assert not state.exists()


def test_default_corpus_is_bundled():
    assert os.path.basename(default_manifest_path()) == "manifest.json"


def run_python(probe):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)


def test_import_does_not_load_requests():
    # each command imports what only it needs, so the others skip that cost
    probe = ("import sys, solbuglab.cli; print(*(name in sys.modules for name in "
             "('urllib.request', 'solbuglab.collector', 'solbuglab.corpus', "
             "'solbuglab.evaluation')))")
    done = run_python(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"] * 4


# --- the process boundary ----------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
CORPUS_DIR = os.path.dirname(default_manifest_path())


def run_module(*argv, **kwargs):
    """``python -m solbuglab.cli ARGV`` from the corpus directory."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "solbuglab.cli", *argv],
                          cwd=CORPUS_DIR, env=env, timeout=60, **kwargs)


def test_scan_reports_a_fifo_inside_a_directory_and_never_opens_it(tmp_path):
    shutil.copy(os.path.join(CORPUS_DIR, "contracts", "reentrancy_buggy.sol"), tmp_path)
    fifo = tmp_path / "f.sol"
    os.mkfifo(fifo)
    dangling = tmp_path / "a.sol"
    os.symlink(tmp_path / "missing.sol", dangling)
    # opening the FIFO would block until the timeout; the directory is named
    # twice, and each entry is still reported once, in sorted order
    done = run_module("scan", "--format", "json", str(tmp_path), str(tmp_path),
                      capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (2, "")
    doc = json.loads(done.stdout)
    assert doc["errors"] == ["%s: not a regular file or directory" % entry
                             for entry in (dangling, fifo)]
    assert {f["file"] for f in doc["findings"]} == {str(tmp_path / "reentrancy_buggy.sol")}


@pytest.mark.parametrize("case", ["scan_json", "scan_text", "bench_json",
                                  "catalog_text"])
def test_process_output_matches_golden(case):
    done = run_module(*CASES[case], capture_output=True)
    with open(os.path.join(GOLDEN_DIR, case + ".out"), "rb") as handle:
        expected = handle.read()
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == expected


@pytest.mark.parametrize("argv, code", [
    (["scan", "--strict", "contracts"], 1),
    (["scan", "--rules", "A-a-W,BOGUS", "contracts"], 2),
])
def test_process_exit_codes(argv, code):
    done = run_module(*argv, capture_output=True)
    assert done.returncode == code


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reader_that_quits_ends_the_scan_quietly(fmt):
    # a reader gone before the first write, as in `solbuglab scan ... | head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_module("scan", "--format", fmt, "contracts", stdout=write_end,
                          stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")  # no traceback


def test_interrupt_ends_the_watch_quietly(tmp_path):
    # Ctrl-C while watch sleeps between cycles, as the one way to stop it
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"k": []}), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keywords": ["k"], "state_path": str(tmp_path / "state.json")}),
                      encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=SRC)
    with subprocess.Popen([sys.executable, "-m", "solbuglab.cli", "watch", "--config",
                           str(config), "--replay", str(replay)], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.readline().startswith("watching 1 keyword(s)")
            assert proc.stdout.readline() == "ok: 0 added, 0 updated, 0 removed\n"
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (130, "")  # 128 + SIGINT, no traceback


def test_watch_leaves_a_closed_pipe_to_the_entry_point(monkeypatch, tmp_path):
    # a reader that quits after the first line: run() then exits quietly
    class Closed:
        def write(self, text):
            if text.startswith("ok"):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"k": []}), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"keywords": ["k"], "state_path": str(tmp_path / "state.json")}),
                      encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(BrokenPipeError):
        cli.main(["watch", "--once", "--config", str(config), "--replay", str(replay)])


def test_only_the_process_entry_freezes_the_heap(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["catalog"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before
    # run() freezes the heap once main() has returned, and then exits
    probe = ("import atexit, gc, sys; from solbuglab import cli; "
             "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr)); "
             "sys.argv[1:] = ['catalog']; cli.run()")
    done = run_python(probe)
    assert done.returncode == 0
    assert int(done.stderr) > 0


def test_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["solbuglab"]
    module, _, name = target.partition(":")
    assert module == cli.__name__
    with open(cli.__file__, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    main_block = [node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(main_block) == 1
    assert [ast.unparse(stmt) for stmt in main_block[0].body] == ["%s()" % name]
    assert getattr(cli, name) is cli.run

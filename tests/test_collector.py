"""Watcher: polling, diffing, delivery, and state durability."""

import json
import os

import pytest
import requests

from solbuglab.collector import (
    AuthError,
    HttpSearchClient,
    ProjectSnapshot,
    RecordedSearchClient,
    WatchConfig,
    default_clock,
    diff,
    load_config,
    load_state,
    poll,
    run_cycle,
    save_state,
    watch_loop,
)
from solbuglab.inputs import InputError


def item(full_name, updated, host="github.com"):
    return {"full_name": full_name, "updated_at": updated,
            "html_url": "https://%s/%s" % (host, full_name)}


def snap(project_id, updated, matched="k"):
    return ProjectSnapshot(project_id=project_id, last_update=updated,
                           matched_keyword=matched)


def test_defaults():
    config = WatchConfig()
    assert config.interval_days == 15
    assert len(config.keywords) == 6
    assert all(k.startswith("smart contract") for k in config.keywords)


def test_poll_merges_across_keywords():
    client = RecordedSearchClient({
        "k1": [item("a/x", "2026-01-01T00:00:00Z"),
               item("b/y", "2026-01-02T00:00:00Z")],
        "k2": [item("a/x", "2026-02-01T00:00:00Z")],
    })
    config = WatchConfig(keywords=("k1", "k2"))
    projects = poll(client, config)
    assert set(projects) == {"github.com/a/x", "github.com/b/y"}
    merged = projects["github.com/a/x"]
    assert merged.last_update == "2026-02-01T00:00:00Z"  # newest wins
    assert merged.matched_keyword == "k1; k2"
    assert projects["github.com/b/y"].matched_keyword == "k1"


def test_poll_skips_malformed_items():
    client = RecordedSearchClient({
        "k": [item("a/x", "2026-01-01T00:00:00Z"),
              {"full_name": "broken"},
              {"updated_at": "2026-01-01T00:00:00Z"}],
    })
    projects = poll(client, WatchConfig(keywords=("k",)))
    assert set(projects) == {"github.com/a/x"}


def test_poll_large_result_set():
    names = ["org%03d/tool%03d" % (i, i) for i in range(266)]
    client = RecordedSearchClient({
        "k": [item(name, "2026-01-01T00:00:00Z") for name in names],
    })
    projects = poll(client, WatchConfig(keywords=("k",)))
    assert len(projects) == 266


def test_diff_added_updated_removed():
    previous = {
        "h/a/x": snap("h/a/x", "2026-01-01T00:00:00Z"),
        "h/b/y": snap("h/b/y", "2026-01-01T00:00:00Z"),
        "h/c/z": snap("h/c/z", "2026-01-01T00:00:00Z"),
    }
    current = {
        "h/a/x": snap("h/a/x", "2026-03-01T00:00:00Z"),   # newer
        "h/b/y": snap("h/b/y", "2026-01-01T00:00:00Z"),   # same stamp
        "h/d/w": snap("h/d/w", "2026-02-01T00:00:00Z"),   # new
    }
    changes = diff(previous, current)
    assert [s.project_id for s in changes.added] == ["h/d/w"]
    assert [s.project_id for s in changes.updated] == ["h/a/x"]
    assert [s.project_id for s in changes.removed] == ["h/c/z"]
    assert not changes.is_empty()
    assert diff(current, current).is_empty()


def test_diff_keyword_change_alone_is_not_an_update():
    previous = {"h/a/x": snap("h/a/x", "2026-01-01T00:00:00Z", "k1")}
    current = {"h/a/x": snap("h/a/x", "2026-01-01T00:00:00Z", "k1; k2")}
    assert diff(previous, current).is_empty()


def test_state_round_trip_byte_identical(tmp_path):
    path = str(tmp_path / "state.json")
    projects = {
        "h/b/y": snap("h/b/y", "2026-01-02T00:00:00Z", "k2"),
        "h/a/x": snap("h/a/x", "2026-01-01T00:00:00Z", "k1"),
    }
    save_state(path, "2026-08-22T00:00:00Z", projects)
    first = open(path, "rb").read()
    cursor, loaded = load_state(path)
    assert cursor == "2026-08-22T00:00:00Z"
    assert loaded == projects
    save_state(path, cursor, loaded)
    assert open(path, "rb").read() == first


def test_missing_state_is_fresh_start(tmp_path):
    cursor, projects = load_state(str(tmp_path / "none.json"))
    assert cursor is None
    assert projects == {}


def test_crashed_write_leaves_old_state(tmp_path, monkeypatch):
    path = str(tmp_path / "state.json")
    save_state(path, "c1", {"h/a/x": snap("h/a/x", "2026-01-01T00:00:00Z")})
    before = open(path, "rb").read()

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        save_state(path, "c2", {})
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".watch_state-")]
    assert leftovers == []


def test_run_cycle_advances_state_even_when_quiet(tmp_path):
    config = WatchConfig(keywords=("k",), state_path=str(tmp_path / "s.json"))
    client = RecordedSearchClient({"k": [item("a/x", "2026-01-01T00:00:00Z")]})
    first = run_cycle(config, client, clock=lambda: "t1")
    assert first.status == "ok"
    assert len(first.changes.added) == 1
    second = run_cycle(config, client, clock=lambda: "t2")
    assert second.status == "ok"
    assert second.changes.is_empty()
    cursor, _ = load_state(config.state_path)
    assert cursor == "t2"  # cursor moved despite empty delta


def test_failed_webhook_keeps_state(tmp_path):
    config = WatchConfig(keywords=("k",), state_path=str(tmp_path / "s.json"),
                         notify="https://hooks.example/in")
    client = RecordedSearchClient({"k": [item("a/x", "2026-01-01T00:00:00Z")]})

    class Failing:
        status_code = 500

    result = run_cycle(config, client, clock=lambda: "t1",
                       http_post=lambda url, json, timeout: Failing())
    assert result.status == "delivery-failed"
    assert not os.path.exists(config.state_path)

    class Accepted:
        status_code = 204

    posted = {}

    def accept(url, json, timeout):
        posted["url"] = url
        posted["body"] = json
        return Accepted()

    retry = run_cycle(config, client, clock=lambda: "t2", http_post=accept)
    assert retry.status == "ok"
    assert posted["url"] == "https://hooks.example/in"
    assert [p["project_id"] for p in posted["body"]["added"]] == ["github.com/a/x"]
    assert posted["body"]["at"] == "t2"
    assert load_state(config.state_path)[0] == "t2"


def test_webhook_connection_error_is_failed_delivery(tmp_path):
    config = WatchConfig(keywords=("k",), state_path=str(tmp_path / "s.json"),
                         notify="https://hooks.example/in")
    client = RecordedSearchClient({"k": [item("a/x", "2026-01-01T00:00:00Z")]})

    def explode(url, json, timeout):
        raise requests.ConnectionError("refused")

    result = run_cycle(config, client, http_post=explode)
    assert result.status == "delivery-failed"


def test_watch_loop_sleeps_interval(tmp_path):
    config = WatchConfig(keywords=("k",), interval_days=3,
                         state_path=str(tmp_path / "s.json"))
    client = RecordedSearchClient({"k": []})
    naps = []
    results = list(watch_loop(config, client, cycles=3, sleep=naps.append,
                              clock=lambda: "t"))
    assert len(results) == 3
    assert naps == [3 * 86400.0, 3 * 86400.0]


def test_replayed_auth_failure(tmp_path):
    client = RecordedSearchClient({"k": {"error": "auth"}})
    with pytest.raises(AuthError):
        poll(client, WatchConfig(keywords=("k",)))


class FakeResponse:
    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload if payload is not None else {"items": []}
        self.headers = headers or {}

    def json(self):
        return self._payload

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(str(self.status_code))


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append({"url": url, "params": dict(params), "headers": headers})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def test_http_client_pages_until_short_batch():
    config = WatchConfig(per_page=2, max_pages=5)
    session = FakeSession([
        FakeResponse(200, {"items": [item("a/x", "t"), item("b/y", "t")]}),
        FakeResponse(200, {"items": [item("c/z", "t")]}),
    ])
    client = HttpSearchClient(config, session=session, sleep=lambda s: None)
    results = client.search("smart contract bugs")
    assert len(results) == 3
    assert [c["params"]["page"] for c in session.calls] == [1, 2]
    assert session.calls[0]["params"]["q"] == "smart contract bugs"


def test_http_client_retries_with_backoff_then_succeeds():
    config = WatchConfig(max_retries=3)
    session = FakeSession([
        requests.ConnectionError("reset"),
        FakeResponse(503),
        FakeResponse(200, {"items": []}),
    ])
    naps = []
    client = HttpSearchClient(config, session=session, sleep=naps.append)
    assert client.search("k") == []
    assert naps == [1.0, 2.0]  # doubling delays


def test_http_client_gives_up_after_max_retries():
    config = WatchConfig(max_retries=1)
    session = FakeSession([FakeResponse(500), FakeResponse(500)])
    client = HttpSearchClient(config, session=session, sleep=lambda s: None)
    with pytest.raises(RuntimeError):
        client.search("k")


def test_http_client_auth_error_names_the_fix(monkeypatch):
    monkeypatch.setenv("REPO_SEARCH_TOKEN", "expired")
    config = WatchConfig()
    session = FakeSession([FakeResponse(401)])
    client = HttpSearchClient(config, session=session, sleep=lambda s: None)
    with pytest.raises(AuthError) as err:
        client.search("k")
    message = str(err.value)
    assert "REPO_SEARCH_TOKEN" in message
    assert "401" in message


def test_http_client_sleeps_through_rate_limit():
    config = WatchConfig()
    session = FakeSession([
        FakeResponse(403, headers={"X-RateLimit-Remaining": "0",
                                   "X-RateLimit-Reset": "0"}),
        FakeResponse(200, {"items": []}),
    ])
    naps = []
    client = HttpSearchClient(config, session=session, sleep=naps.append)
    assert client.search("k") == []
    assert len(naps) == 1


def test_http_client_names_a_rate_limit_that_never_resets():
    config = WatchConfig(max_retries=2)
    limited = FakeResponse(403, headers={"X-RateLimit-Remaining": "0",
                                         "X-RateLimit-Reset": "0"})
    session = FakeSession([limited] * 3)
    naps = []
    client = HttpSearchClient(config, session=session, sleep=naps.append)
    with pytest.raises(RuntimeError) as err:
        client.search("k")
    assert str(err.value) == "search rate limit did not reset after 2 retries"
    assert (len(session.calls), len(naps)) == (3, 2)  # no sleep after the last reply


def test_http_client_403_without_rate_limit_is_auth():
    config = WatchConfig()
    session = FakeSession([FakeResponse(403)])
    client = HttpSearchClient(config, session=session, sleep=lambda s: None)
    with pytest.raises(AuthError):
        client.search("k")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "keywords": ["solidity analyzers"],
        "interval_days": 30,
        "notify": "https://hooks.example/x",
        "state_path": "watch.json",
    }), encoding="utf-8")
    config = load_config(str(path))
    assert config.keywords == ("solidity analyzers",)
    assert config.interval_days == 30
    assert config.notify == "https://hooks.example/x"
    assert config.per_page == 50  # untouched default


def test_load_config_reports_every_problem(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "keywords": [],
        "interval_days": True,
        "notify": "gopher://x",
        "mystery": 1,
    }), encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_config(str(path))
    assert len(err.value.problems) == 4


def test_default_clock_shape():
    stamp = default_clock()
    assert len(stamp) == 20
    assert stamp.endswith("Z")
    assert stamp[4] == stamp[7] == "-"

"""Watcher: polling, diffing, delivery, and state durability."""

import http.client
import http.server
import io
import json
import os
import threading
import time
from urllib.error import HTTPError
from urllib.parse import parse_qsl, urlsplit

import pytest

from solbuglab import collector
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


def replay(tmp_path, results):
    """A client that replays ``results`` from a replay file in ``tmp_path``."""
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(results), encoding="utf-8")
    return RecordedSearchClient(str(path))


def clock_reads(monkeypatch, *stamps):
    """Make ``default_clock`` return ``stamps`` in turn."""
    stamps = iter(stamps)
    monkeypatch.setattr(collector, "default_clock", lambda: next(stamps))


def snap(project_id, updated, matched="k"):
    return ProjectSnapshot(project_id=project_id, last_update=updated,
                           matched_keyword=matched)


def test_defaults():
    config = WatchConfig()
    assert config.interval_days == 15
    assert len(config.keywords) == 6
    assert all(k.startswith("smart contract") for k in config.keywords)


def test_poll_merges_across_keywords(tmp_path):
    client = replay(tmp_path, {
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


def test_poll_skips_malformed_items(tmp_path):
    client = replay(tmp_path, {
        "k": [item("a/x", "2026-01-01T00:00:00Z"),
              {"full_name": "broken"},
              {"updated_at": "2026-01-01T00:00:00Z"}],
    })
    projects = poll(client, WatchConfig(keywords=("k",)))
    assert set(projects) == {"github.com/a/x"}


def test_poll_large_result_set(tmp_path):
    names = ["org%03d/tool%03d" % (i, i) for i in range(266)]
    client = replay(tmp_path, {
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


def test_run_cycle_advances_state_even_when_quiet(tmp_path, monkeypatch, capsys):
    config = WatchConfig(keywords=("k",), state_path=str(tmp_path / "s.json"))
    client = replay(tmp_path, {"k": [item("a/x", "2026-01-01T00:00:00Z")]})
    clock_reads(monkeypatch, "t1", "t2")
    first = run_cycle(config, client)
    assert first.status == "ok"
    assert len(first.changes.added) == 1
    assert capsys.readouterr().out == (
        "added   github.com/a/x  2026-01-01T00:00:00Z  (k)\n")
    second = run_cycle(config, client)
    assert second.status == "ok"
    assert second.changes.is_empty()
    cursor, _ = load_state(config.state_path)
    assert cursor == "t2"  # cursor moved despite empty delta


def test_failed_webhook_keeps_state(tmp_path, monkeypatch):
    config = WatchConfig(keywords=("k",), state_path=str(tmp_path / "s.json"),
                         notify="https://hooks.example/in")
    client = replay(tmp_path, {"k": [item("a/x", "2026-01-01T00:00:00Z")]})

    clock_reads(monkeypatch, "t1", "t2")
    monkeypatch.setattr(collector, "urlopen", FakeUrlopen([FakeResponse(500)]))
    result = run_cycle(config, client)
    assert result.status == "delivery-failed"
    assert not os.path.exists(config.state_path)

    hook = FakeUrlopen([FakeResponse(204)])
    monkeypatch.setattr(collector, "urlopen", hook)
    retry = run_cycle(config, client)
    assert retry.status == "ok"
    posted = hook.requests[0]
    assert posted.full_url == "https://hooks.example/in"
    body = json.loads(posted.data)
    assert [p["project_id"] for p in body["added"]] == ["github.com/a/x"]
    assert body["at"] == "t2"
    assert load_state(config.state_path)[0] == "t2"


def test_webhook_connection_error_is_failed_delivery(tmp_path, monkeypatch):
    config = WatchConfig(keywords=("k",), state_path=str(tmp_path / "s.json"),
                         notify="https://hooks.example/in")
    client = replay(tmp_path, {"k": [item("a/x", "2026-01-01T00:00:00Z")]})
    monkeypatch.setattr(collector, "urlopen", FakeUrlopen([ConnectionRefusedError("refused")]))
    result = run_cycle(config, client)
    assert result.status == "delivery-failed"


def test_webhook_malformed_reply_is_failed_delivery(tmp_path, monkeypatch):
    config = WatchConfig(keywords=("k",), state_path=str(tmp_path / "s.json"),
                         notify="https://hooks.example/in")
    client = replay(tmp_path, {"k": [item("a/x", "2026-01-01T00:00:00Z")]})
    monkeypatch.setattr(collector, "urlopen",
                        FakeUrlopen([http.client.BadStatusLine("HTTP/9 nope")]))
    result = run_cycle(config, client)
    assert result.status == "delivery-failed"
    assert not os.path.exists(config.state_path)


def test_watch_loop_sleeps_interval(tmp_path, monkeypatch):
    config = WatchConfig(keywords=("k",), interval_days=3,
                         state_path=str(tmp_path / "s.json"))
    client = replay(tmp_path, {"k": []})
    naps = []
    monkeypatch.setattr(collector.time, "sleep", naps.append)
    clock_reads(monkeypatch, "t", "t", "t")
    results = list(watch_loop(config, client, cycles=3))
    assert len(results) == 3
    assert naps == [3 * 86400.0, 3 * 86400.0]


def test_replayed_auth_failure(tmp_path):
    client = replay(tmp_path, {"k": {"error": "auth"}})
    with pytest.raises(AuthError):
        poll(client, WatchConfig(keywords=("k",)))


class FakeResponse:
    """A reply of ``FakeUrlopen``: a status, headers, and a JSON body."""

    def __init__(self, status, payload=None, headers=None):
        self.status = status
        self.headers = headers or {}
        self.body = json.dumps({"items": []} if payload is None else payload).encode()

    def read(self):
        return self.body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


class FakeUrlopen:
    """Stands in for ``urlopen`` as ``collector`` binds it: records each
    request and answers with the next reply. It raises a reply that is an
    exception, and a reply with a status of 300 or more as ``HTTPError``,
    as ``urlopen`` does."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def __call__(self, request, timeout):
        self.requests.append(request)
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        if reply.status >= 300:
            raise HTTPError(request.full_url, reply.status, "", reply.headers,
                            io.BytesIO(reply.body))
        return reply


def query(request):
    """The query parameters of ``request``'s URL."""
    return dict(parse_qsl(urlsplit(request.full_url).query))


def http_client(monkeypatch, config, fake, naps=None):
    """An HttpSearchClient whose requests go to ``fake`` and whose sleeps
    go to ``naps``."""
    monkeypatch.setattr(collector, "urlopen", fake)
    monkeypatch.setattr(collector.time, "sleep", [].append if naps is None else naps.append)
    return HttpSearchClient(config)


def test_http_client_pages_until_short_batch(monkeypatch):
    monkeypatch.setattr(collector, "PER_PAGE", 2)
    monkeypatch.setattr(collector, "MAX_PAGES", 5)
    config = WatchConfig()
    fake = FakeUrlopen([
        FakeResponse(200, {"items": [item("a/x", "t"), item("b/y", "t")]}),
        FakeResponse(200, {"items": [item("c/z", "t")]}),
    ])
    client = http_client(monkeypatch, config, fake)
    results = client.search("smart contract bugs")
    assert len(results) == 3
    assert [query(r)["page"] for r in fake.requests] == ["1", "2"]
    assert query(fake.requests[0])["q"] == "smart contract bugs"


def test_http_client_retries_with_backoff_then_succeeds(monkeypatch):
    monkeypatch.setattr(collector, "MAX_RETRIES", 3)
    config = WatchConfig()
    fake = FakeUrlopen([
        ConnectionResetError("reset"),
        FakeResponse(503),
        http.client.IncompleteRead(b""),
        FakeResponse(200, {"items": []}),
    ])
    naps = []
    client = http_client(monkeypatch, config, fake, naps)
    assert client.search("k") == []
    assert naps == [1.0, 2.0, 4.0]  # doubling delays


def test_http_client_gives_up_after_max_retries(monkeypatch):
    monkeypatch.setattr(collector, "MAX_RETRIES", 1)
    config = WatchConfig()
    fake = FakeUrlopen([FakeResponse(500), FakeResponse(500)])
    client = http_client(monkeypatch, config, fake)
    with pytest.raises(RuntimeError):
        client.search("k")


def test_http_client_auth_error_names_the_fix(monkeypatch):
    monkeypatch.setenv("REPO_SEARCH_TOKEN", "expired")
    config = WatchConfig()
    fake = FakeUrlopen([FakeResponse(401)])
    client = http_client(monkeypatch, config, fake)
    with pytest.raises(AuthError) as err:
        client.search("k")
    message = str(err.value)
    assert "REPO_SEARCH_TOKEN" in message
    assert "401" in message


def test_http_client_sleeps_through_rate_limit(monkeypatch):
    config = WatchConfig()
    fake = FakeUrlopen([
        FakeResponse(403, headers={"X-RateLimit-Remaining": "0",
                                   "X-RateLimit-Reset": "0"}),
        FakeResponse(200, {"items": []}),
    ])
    naps = []
    client = http_client(monkeypatch, config, fake, naps)
    assert client.search("k") == []
    assert len(naps) == 1


def test_http_client_names_a_rate_limit_that_never_resets(monkeypatch):
    monkeypatch.setattr(collector, "MAX_RETRIES", 2)
    config = WatchConfig()
    limited = FakeResponse(403, headers={"X-RateLimit-Remaining": "0",
                                         "X-RateLimit-Reset": "0"})
    fake = FakeUrlopen([limited] * 3)
    naps = []
    client = http_client(monkeypatch, config, fake, naps)
    with pytest.raises(RuntimeError) as err:
        client.search("k")
    assert str(err.value) == "search rate limit did not reset after 2 retries"
    assert (len(fake.requests), len(naps)) == (3, 2)  # no sleep after the last reply


@pytest.mark.parametrize("reset", ["soon", "inf"])
def test_http_client_backs_off_a_rate_limit_with_no_reset_time(monkeypatch, reset):
    monkeypatch.setattr(collector, "MAX_RETRIES", 2)
    limited = FakeResponse(403, headers={"X-RateLimit-Remaining": "0",
                                         "X-RateLimit-Reset": reset})
    fake = FakeUrlopen([limited] * 3)
    naps = []
    client = http_client(monkeypatch, WatchConfig(), fake)

    def nap(seconds):
        if seconds == float("inf"):  # as time.sleep does
            raise OverflowError("timestamp out of range for platform time_t")
        naps.append(seconds)

    monkeypatch.setattr(collector.time, "sleep", nap)
    with pytest.raises(RuntimeError) as err:
        client.search("k")
    assert str(err.value) == "search rate limit did not reset after 2 retries"
    assert (len(fake.requests), naps) == (3, [1.0, 2.0])  # the usual backoff


class NotJsonResponse(FakeResponse):
    def read(self):
        return b"<html>"


@pytest.mark.parametrize("reply", [
    FakeResponse(200, ["not", "an", "object"]), FakeResponse(200, {"items": 5}),
    FakeResponse(200, {"items": [item("a/x", "t"), "b/y"]}), NotJsonResponse(200),
], ids=["list", "items-number", "item-string", "not-json"])
def test_http_client_rejects_a_reply_that_is_no_result_page(monkeypatch, reply):
    config = WatchConfig(endpoint="https://search.example/api")
    fake = FakeUrlopen([reply])
    client = http_client(monkeypatch, config, fake)
    with pytest.raises(RuntimeError) as err:
        client.search("k")
    assert str(err.value) == ("search reply from https://search.example/api is not a "
                              "JSON object with an items list of objects")


def test_http_client_403_without_rate_limit_is_auth(monkeypatch):
    config = WatchConfig()
    fake = FakeUrlopen([FakeResponse(403)])
    client = http_client(monkeypatch, config, fake)
    with pytest.raises(AuthError):
        client.search("k")


def test_search_and_webhook_over_a_real_http_server(monkeypatch):
    """The search client and the webhook against a localhost server, with
    only the sleeps replaced."""
    replies = {  # path: the replies it gives in turn, as (status, headers, body)
        "/search": [(200, {}, json.dumps({"items": [item("a/x", "t"), item("b/y", "t")]})),
                    (200, {}, json.dumps({"items": [item("c/z", "t")]}))],
        "/flaky": [(500, {}, ""), (200, {}, '{"items": []}')],
        "/limited": [(403, {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "soon"},
                      "")] * 4,
        "/html": [(200, {"Content-Type": "text/html"}, "<html>")],
        "/404": [(404, {}, "")],
        "/hook": [(500, {}, ""), (204, {}, "")],
    }
    seen = []  # (method, path with query, headers, body) of each request

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            seen.append((self.command, self.path, self.headers, body))
            status, headers, reply = replies[urlsplit(self.path).path].pop(0)
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply.encode())

        do_POST = do_GET

        def log_message(self, *args):
            pass

    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "127.0.0.1")
    monkeypatch.setenv("REPO_SEARCH_TOKEN", "sekrit")
    monkeypatch.setattr(collector, "PER_PAGE", 2)
    naps = []
    monkeypatch.setattr(collector.time, "sleep", naps.append)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        base = "http://127.0.0.1:%d" % server.server_address[1]

        def search(path):
            return HttpSearchClient(WatchConfig(endpoint=base + path)).search("smart bugs")

        assert [i["full_name"] for i in search("/search")] == ["a/x", "b/y", "c/z"]
        assert [(method, path) for method, path, _, _ in seen] == [
            ("GET", "/search?q=smart+bugs&per_page=2&page=1"),
            ("GET", "/search?q=smart+bugs&per_page=2&page=2")]
        headers = seen[0][2]
        assert headers["Accept"] == "application/vnd.github+json"
        assert headers["Authorization"] == "Bearer sekrit"

        assert search("/flaky") == []
        assert naps == [1.0]
        with pytest.raises(RuntimeError) as err:
            search("/limited")
        assert str(err.value) == "search rate limit did not reset after 3 retries"
        assert naps == [1.0, 1.0, 2.0, 4.0]
        with pytest.raises(RuntimeError) as err:
            search("/html")
        assert str(err.value) == ("search reply from %s/html is not a JSON object with "
                                  "an items list of objects" % base)
        with pytest.raises(RuntimeError) as err:
            search("/404")
        assert str(err.value) == "search endpoint %s/404 answered HTTP 404" % base
        assert naps == [1.0, 1.0, 2.0, 4.0]  # neither is retried

        del seen[:]
        changes = collector.ChangeSet(added=(snap("github.com/a/x", "t"),))
        assert not collector.notify_webhook(changes, base + "/hook", "t1")
        assert collector.notify_webhook(changes, base + "/hook", "t1")
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    posted = (b'{"added": [{"project_id": "github.com/a/x", "last_update": "t", '
              b'"matched_keyword": "k"}], "updated": [], "removed": [], "at": "t1"}')
    assert [(method, path, body) for method, path, _, body in seen] == [
        ("POST", "/hook", posted)] * 2
    assert [headers["Content-Type"] for _, _, headers, _ in seen] == ["application/json"] * 2


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
    assert config.token_env == "REPO_SEARCH_TOKEN"  # untouched default


def test_load_config_reports_every_problem(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "keywords": [],
        "interval_days": True,
        "notify": "gopher://x",
        "endpoint": "api.example/search",
        "mystery": 1,
    }), encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_config(str(path))
    assert len(err.value.problems) == 5


@pytest.mark.parametrize("key, problem", [
    ("endpoint", "endpoint must be an http(s) URL"),
    ("notify", "notify must be 'stdout' or an http(s) URL"),
])
@pytest.mark.parametrize("url", ["api.example/search", "http://[::1/search", "https:///search"],
                         ids=["no-scheme", "open-bracket", "no-host"])
def test_load_config_refuses_a_url_with_no_host_to_send_to(tmp_path, key, problem, url):
    # urllib's Request raises ValueError on the first two, and urlopen finds
    # no host in the third, so a watch with any of them could never send
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: url}), encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_config(str(path))
    assert err.value.problems == [problem]
    path.write_text(json.dumps({key: "http://[::1]:8080/search"}), encoding="utf-8")
    assert getattr(load_config(str(path)), key) == "http://[::1]:8080/search"


def test_load_config_bounds_interval_days_by_the_longest_sleep(tmp_path):
    longest = int(threading.TIMEOUT_MAX // 86400)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"interval_days": longest}), encoding="utf-8")
    assert load_config(str(path)).interval_days == longest
    with pytest.raises(OverflowError):  # a day more is too long to sleep
        time.sleep((longest + 1) * 86400.0)
    for days in (longest + 1, 200000):
        path.write_text(json.dumps({"interval_days": days}), encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_config(str(path))
        assert err.value.problems == ["interval_days must be an integer from 1 to %d" % longest]


@pytest.mark.parametrize("key", ["per_page", "max_pages", "max_retries"])
def test_load_config_rejects_the_search_constants(tmp_path, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: 10}), encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_config(str(path))
    assert err.value.problems == ["unknown key %r" % key]


def test_default_clock_shape():
    stamp = default_clock()
    assert len(stamp) == 20
    assert stamp.endswith("Z")
    assert stamp[4] == stamp[7] == "-"

"""Periodic discovery of analysis-tool repositories via keyword search.

The collector polls a code-hosting search API on a fixed interval, keeps a
snapshot of every project seen, and pushes the delta (added, updated,
removed) to stdout or a webhook. State only advances after a successful
delivery, so a failed push is retried with the same delta next cycle.

Each cycle reads ``default_clock`` once, and that stamp is both the state's
cursor and a webhook's ``at``.
"""

import http.client
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from threading import TIMEOUT_MAX
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple
from urllib.error import HTTPError
from urllib.parse import urlencode, urlparse
from urllib.request import Request, urlopen

from .inputs import InputError, read_json

DEFAULT_KEYWORDS = (
    "smart contract vulnerabilities",
    "smart contract bugs",
    "smart contract defects",
    "smart contract problems",
    "smart contract security",
    "smart contract analysis tools",
)

DEFAULT_INTERVAL_DAYS = 15
PER_PAGE = 50  # results asked for per search page
MAX_PAGES = 4  # pages read per keyword
MAX_RETRIES = 3  # retries of a failed or rate-limited search request
MAX_INTERVAL_DAYS = int(TIMEOUT_MAX // 86400)  # the longest wait time.sleep takes


class AuthError(RuntimeError):
    """The search endpoint rejected our credentials."""


class WatchConfig(NamedTuple):
    keywords: Tuple[str, ...] = DEFAULT_KEYWORDS
    interval_days: int = DEFAULT_INTERVAL_DAYS
    endpoint: str = "https://api.github.com/search/repositories"
    token_env: str = "REPO_SEARCH_TOKEN"
    state_path: str = "watch_state.json"
    notify: str = "stdout"  # "stdout" or a webhook URL


def _http_url(value: object) -> bool:
    """Whether ``value`` is an http(s) URL that names a host."""
    try:
        return (isinstance(value, str) and value.startswith(("http://", "https://"))
                and bool(urlparse(value).hostname))
    except ValueError:  # urlparse refuses, for one, an unclosed "[" around an IPv6 host
        return False


def load_config(path: str) -> WatchConfig:
    """Read a config JSON file; every key is optional, every problem is
    reported at once."""
    raw = read_json(path, "watch config")
    problems: List[str] = []
    for key in sorted(set(raw) - set(WatchConfig._fields)):
        problems.append("unknown key %r" % key)

    fields: Dict[str, object] = {}
    keywords = raw.get("keywords")
    if keywords is not None:
        if (not isinstance(keywords, list) or not keywords
                or not all(isinstance(k, str) and k.strip() for k in keywords)):
            problems.append("keywords must be a non-empty list of non-empty strings")
        else:
            fields["keywords"] = tuple(keywords)
    interval = raw.get("interval_days")
    if interval is not None:
        if (not isinstance(interval, int) or isinstance(interval, bool)
                or not 1 <= interval <= MAX_INTERVAL_DAYS):
            problems.append("interval_days must be an integer from 1 to %d"
                            % MAX_INTERVAL_DAYS)
        else:
            fields["interval_days"] = interval
    for key in ("endpoint", "token_env", "state_path"):
        value = raw.get(key)
        if value is not None:
            if not isinstance(value, str) or not value:
                problems.append("%s must be a non-empty string" % key)
            elif key == "endpoint" and not _http_url(value):
                problems.append("endpoint must be an http(s) URL")
            else:
                fields[key] = value
    notify = raw.get("notify")
    if notify is not None:
        if notify == "stdout" or _http_url(notify):
            fields["notify"] = notify
        else:
            problems.append("notify must be 'stdout' or an http(s) URL")
    if problems:
        raise InputError(path, "watch config", problems)
    return WatchConfig(**fields)


class ProjectSnapshot(NamedTuple):
    project_id: str  # host/owner/name
    last_update: str  # ISO-8601 as reported by the host
    matched_keyword: str  # every matching keyword, sorted, joined with "; "


def _send(request: Request) -> Tuple[int, Mapping[str, str], bytes]:
    """The reply's status, headers and body, an error status included. No
    reply at all raises OSError or http.client.HTTPException."""
    try:
        reply = urlopen(request, timeout=30)
    except HTTPError as error:  # a 4xx or 5xx status: a reply all the same
        reply = error
    with reply:
        return reply.status, reply.headers, reply.read()


class HttpSearchClient:
    """Keyword search against a code-host search API.

    Retries transient failures with exponential backoff, sleeps through
    rate-limit windows, and turns credential rejections into AuthError with
    the fix spelled out.
    """

    def __init__(self, config: WatchConfig):
        self._config = config
        self._token = os.environ.get(config.token_env, "")

    def _get(self, params: Dict[str, object]) -> object:
        config = self._config
        url = config.endpoint + ("&" if "?" in config.endpoint else "?") + urlencode(params)
        request = Request(url, headers={"Accept": "application/vnd.github+json"})
        if self._token:  # for the endpoint alone: a redirect does not carry it on
            request.add_unredirected_header("Authorization", "Bearer %s" % self._token)
        delay = 1.0
        for attempt in range(MAX_RETRIES + 1):
            try:
                status, headers, body = _send(request)
            except (OSError, http.client.HTTPException) as exc:
                failure = "search request failed after %d retries: %s" % (MAX_RETRIES, exc)
            else:
                if status in (401, 403):
                    remaining = headers.get("X-RateLimit-Remaining")
                    reset = headers.get("X-RateLimit-Reset")
                    if status == 403 and remaining == "0" and reset:
                        if attempt < MAX_RETRIES:
                            try:
                                time.sleep(max(0.0, float(reset) - time.time()) + 1.0)
                            except (ValueError, OverflowError):  # no time to sleep until
                                time.sleep(delay)  # back off as after a failure
                                delay *= 2
                        continue
                    raise AuthError(
                        "search authentication failed (HTTP %d): set $%s to a valid "
                        "API token for %s" % (status, config.token_env, config.endpoint))
                if status < 400:
                    try:
                        return json.loads(body)
                    except ValueError:  # not JSON: search reports it as no result page
                        return None
                if status < 500:
                    raise RuntimeError("search endpoint %s answered HTTP %d"
                                       % (config.endpoint, status))
                failure = "search endpoint kept failing (HTTP %d)" % status
            if attempt == MAX_RETRIES:
                raise RuntimeError(failure)
            time.sleep(delay)  # exponential backoff
            delay *= 2
        # only a rate limit still in force at the last attempt ends up here
        raise RuntimeError("search rate limit did not reset after %d retries" % MAX_RETRIES)

    def search(self, keyword: str) -> List[dict]:
        items: List[dict] = []
        for page in range(1, MAX_PAGES + 1):
            payload = self._get({"q": keyword, "per_page": PER_PAGE, "page": page})
            batch = payload.get("items", []) if isinstance(payload, dict) else None
            if not (isinstance(batch, list) and all(isinstance(i, dict) for i in batch)):
                raise RuntimeError("search reply from %s is not a JSON object with an "
                                   "items list of objects" % self._config.endpoint)
            items.extend(batch)
            if len(batch) < PER_PAGE:
                break
        return items


class RecordedSearchClient:
    """Replays canned search results from a JSON file.

    The document maps keyword to a list of result items (JSON objects). A
    value of {"error": "auth"} simulates a credential rejection, and any
    other {"error": ...} value a failed search. Any other document raises
    InputError, naming the file.
    """

    def __init__(self, path: str):
        data = read_json(path, "replay file")
        for keyword, value in data.items():
            if not (isinstance(value, list) and all(isinstance(v, dict) for v in value)
                    or isinstance(value, dict) and "error" in value):
                raise InputError(path, 'results for %r must be a list of objects or '
                                 'an {"error": ...} object' % (keyword,))
        self._data = data

    def search(self, keyword: str) -> List[dict]:
        value = self._data.get(keyword, [])
        if isinstance(value, dict):
            if value.get("error") == "auth":
                raise AuthError("search authentication failed (replayed): set a "
                                "valid API token")
            raise RuntimeError("replayed error: %r" % value)
        return list(value)


def _project_id(item: dict) -> Optional[str]:
    full_name = item.get("full_name")
    if not isinstance(full_name, str) or "/" not in full_name:
        return None
    host = "github.com"
    html_url = item.get("html_url")
    if isinstance(html_url, str):
        netloc = urlparse(html_url).netloc
        if netloc:
            host = netloc
    return "%s/%s" % (host, full_name)


def poll(client, config: WatchConfig) -> Dict[str, ProjectSnapshot]:
    """Search every keyword and merge the hits into one snapshot per
    project, keeping the newest update stamp."""
    merged: Dict[str, ProjectSnapshot] = {}
    matches: Dict[str, set] = {}
    for keyword in config.keywords:
        for item in client.search(keyword):
            project_id = _project_id(item)
            updated = item.get("updated_at")
            if project_id is None or not isinstance(updated, str):
                continue
            matches.setdefault(project_id, set()).add(keyword)
            known = merged.get(project_id)
            if known is None or updated > known.last_update:
                merged[project_id] = ProjectSnapshot(
                    project_id=project_id, last_update=updated, matched_keyword="")
    return {
        project_id: snapshot._replace(
            matched_keyword="; ".join(sorted(matches[project_id])))
        for project_id, snapshot in merged.items()
    }


class ChangeSet(NamedTuple):
    added: Tuple[ProjectSnapshot, ...] = ()
    updated: Tuple[ProjectSnapshot, ...] = ()
    removed: Tuple[ProjectSnapshot, ...] = ()

    def is_empty(self) -> bool:
        return not (self.added or self.updated or self.removed)


def diff(previous: Mapping[str, ProjectSnapshot],
         current: Mapping[str, ProjectSnapshot]) -> ChangeSet:
    """Delta between polls. A project counts as updated only when its stamp
    moved strictly forward."""
    added = [current[k] for k in current.keys() - previous.keys()]
    removed = [previous[k] for k in previous.keys() - current.keys()]
    updated = [current[k] for k in current.keys() & previous.keys()
               if current[k].last_update > previous[k].last_update]
    key = lambda s: s.project_id
    return ChangeSet(added=tuple(sorted(added, key=key)),
                     updated=tuple(sorted(updated, key=key)),
                     removed=tuple(sorted(removed, key=key)))


def default_clock() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def notify_stdout(changes: ChangeSet) -> None:
    for verb, snapshots in (("added", changes.added), ("updated", changes.updated),
                            ("removed", changes.removed)):
        for snapshot in snapshots:
            sys.stdout.write("%-7s %s  %s  (%s)\n" % ((verb,) + snapshot))


def notify_webhook(changes: ChangeSet, url: str, at: str) -> bool:
    """POST the delta, stamped ``at``, as JSON. Only a 2xx response counts
    as delivered."""
    body = {
        "added": [s._asdict() for s in changes.added],
        "updated": [s._asdict() for s in changes.updated],
        "removed": [s._asdict() for s in changes.removed],
        "at": at,
    }
    request = Request(url, json.dumps(body).encode(), {"Content-Type": "application/json"})
    try:
        return 200 <= _send(request)[0] < 300
    except (OSError, http.client.HTTPException):
        return False


def load_state(path: str) -> Tuple[Optional[str], Dict[str, ProjectSnapshot]]:
    """Missing state file means a fresh start, not an error. A file that is
    not watch state raises InputError and is left as it is."""
    if not os.path.exists(path):
        return None, {}
    raw = read_json(path, "watch state")
    cursor = raw.get("cursor")
    items = raw.get("projects", [])
    if cursor is not None and not isinstance(cursor, str):
        raise InputError(path, "watch state cursor must be a string")
    if not isinstance(items, list):
        raise InputError(path, "watch state projects must be a list")
    projects = {}
    for index, item in enumerate(items):
        if not (isinstance(item, dict)
                and all(isinstance(item.get(key), str)
                        for key in ("project_id", "last_update"))
                and isinstance(item.get("matched_keyword", ""), str)):
            raise InputError(path, "watch state project %d needs string project_id "
                             "and last_update" % index)
        snapshot = ProjectSnapshot(project_id=item["project_id"],
                                   last_update=item["last_update"],
                                   matched_keyword=item.get("matched_keyword", ""))
        projects[snapshot.project_id] = snapshot
    return cursor, projects


def save_state(path: str, cursor: Optional[str],
               projects: Mapping[str, ProjectSnapshot]) -> None:
    """Write-and-rename so a crash mid-write never leaves a torn file."""
    doc = {
        "cursor": cursor,
        "projects": [projects[k]._asdict() for k in sorted(projects)],
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(dir=directory, prefix=".watch_state-")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            out.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


class CycleResult(NamedTuple):
    status: str  # "ok" or "delivery-failed"
    changes: ChangeSet


def run_cycle(config: WatchConfig, client) -> CycleResult:
    """One poll-diff-notify-save pass.

    An empty delta skips delivery but still advances the cursor. A failed
    delivery leaves the state untouched so the next cycle re-sends the same
    delta.
    """
    _, previous = load_state(config.state_path)
    current = poll(client, config)
    changes = diff(previous, current)
    checked_at = default_clock()
    if not changes.is_empty():
        if config.notify == "stdout":
            notify_stdout(changes)
        elif not notify_webhook(changes, config.notify, checked_at):
            return CycleResult(status="delivery-failed", changes=changes)
    save_state(config.state_path, checked_at, current)
    return CycleResult(status="ok", changes=changes)


def watch_loop(config: WatchConfig, client,
               cycles: Optional[int] = None) -> Iterator[CycleResult]:
    """Run cycles forever, or a fixed number of them, sleeping the
    configured interval in between; yield each result as its cycle ends."""
    count = 0
    while cycles is None or count < cycles:
        if count:
            time.sleep(config.interval_days * 86400.0)
        yield run_cycle(config, client)
        count += 1

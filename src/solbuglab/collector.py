"""Periodic discovery of analysis-tool repositories via keyword search.

The collector polls a code-hosting search API on a fixed interval, keeps a
snapshot of every project seen, and pushes the delta (added, updated,
removed) to stdout or a webhook. State only advances after a successful
delivery, so a failed push is retried with the same delta next cycle.
"""

import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import urlparse

import requests

DEFAULT_KEYWORDS = (
    "smart contract vulnerabilities",
    "smart contract bugs",
    "smart contract defects",
    "smart contract problems",
    "smart contract security",
    "smart contract analysis tools",
)

DEFAULT_INTERVAL_DAYS = 15


class ConfigError(ValueError):
    """Watch configuration failed validation."""

    def __init__(self, problems: Sequence[str], path: str):
        self.problems = list(problems)
        super().__init__("%s: watch config has %d problem(s):\n  %s"
                         % (path, len(self.problems), "\n  ".join(self.problems)))


class StateError(ValueError):
    """The watch state file holds something other than watch state."""


class AuthError(RuntimeError):
    """The search endpoint rejected our credentials."""


class WatchConfig(NamedTuple):
    keywords: Tuple[str, ...] = DEFAULT_KEYWORDS
    interval_days: int = DEFAULT_INTERVAL_DAYS
    endpoint: str = "https://api.github.com/search/repositories"
    token_env: str = "REPO_SEARCH_TOKEN"
    state_path: str = "watch_state.json"
    notify: str = "stdout"  # "stdout" or a webhook URL
    per_page: int = 50
    max_pages: int = 4
    max_retries: int = 3


def load_config(path: str) -> WatchConfig:
    """Read a config JSON file; every key is optional, every problem is
    reported at once."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    problems: List[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"], path)
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
    for key in ("interval_days", "per_page", "max_pages", "max_retries"):
        value = raw.get(key)
        if value is not None:
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                problems.append("%s must be a positive integer" % key)
            else:
                fields[key] = value
    for key in ("endpoint", "token_env", "state_path"):
        value = raw.get(key)
        if value is not None:
            if not isinstance(value, str) or not value:
                problems.append("%s must be a non-empty string" % key)
            else:
                fields[key] = value
    notify = raw.get("notify")
    if notify is not None:
        if notify == "stdout" or (isinstance(notify, str)
                                  and notify.startswith(("http://", "https://"))):
            fields["notify"] = notify
        else:
            problems.append("notify must be 'stdout' or an http(s) URL")
    if problems:
        raise ConfigError(problems, path)
    return WatchConfig(**fields)


class ProjectSnapshot(NamedTuple):
    project_id: str  # host/owner/name
    last_update: str  # ISO-8601 as reported by the host
    matched_keyword: str  # every matching keyword, sorted, joined with "; "


class HttpSearchClient:
    """Keyword search against a code-host search API.

    Retries transient failures with exponential backoff, sleeps through
    rate-limit windows, and turns credential rejections into AuthError with
    the fix spelled out.
    """

    def __init__(self, config: WatchConfig,
                 session: Optional[requests.Session] = None,
                 sleep: Optional[Callable[[float], None]] = None):
        self._config = config
        self._session = session or requests.Session()
        self._sleep = sleep if sleep is not None else time.sleep
        self._token = os.environ.get(config.token_env, "")

    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/vnd.github+json"}
        if self._token:
            headers["Authorization"] = "Bearer %s" % self._token
        return headers

    def _get(self, params: Dict[str, object]) -> dict:
        config = self._config
        delay = 1.0
        for attempt in range(config.max_retries + 1):
            try:
                response = self._session.get(config.endpoint, params=params,
                                             headers=self._headers(), timeout=30)
            except requests.RequestException as exc:
                if attempt == config.max_retries:
                    raise RuntimeError("search request failed after %d retries: %s"
                                       % (config.max_retries, exc))
                self._sleep(delay)
                delay *= 2
                continue
            if response.status_code in (401, 403):
                remaining = response.headers.get("X-RateLimit-Remaining")
                reset = response.headers.get("X-RateLimit-Reset")
                if response.status_code == 403 and remaining == "0" and reset:
                    wait = max(0.0, float(reset) - time.time()) + 1.0
                    self._sleep(wait)
                    continue
                raise AuthError(
                    "search authentication failed (HTTP %d): set $%s to a valid "
                    "API token for %s" % (response.status_code,
                                          config.token_env, config.endpoint))
            if response.status_code >= 500:
                if attempt == config.max_retries:
                    raise RuntimeError("search endpoint kept failing (HTTP %d)"
                                       % response.status_code)
                self._sleep(delay)
                delay *= 2
                continue
            response.raise_for_status()
            return response.json()
        raise RuntimeError("unreachable")

    def search(self, keyword: str) -> List[dict]:
        items: List[dict] = []
        for page in range(1, self._config.max_pages + 1):
            payload = self._get({"q": keyword, "per_page": self._config.per_page,
                                 "page": page})
            batch = payload.get("items", [])
            items.extend(batch)
            if len(batch) < self._config.per_page:
                break
        return items


class RecordedSearchClient:
    """Replays canned search results from a JSON file or mapping.

    The document maps keyword to a list of result items. A mapping value of
    {"error": "auth"} simulates a credential rejection.
    """

    def __init__(self, source):
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                self._data = json.load(handle)
        else:
            self._data = dict(source)

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


def notify_stdout(changes: ChangeSet, out=None) -> bool:
    out = out if out is not None else sys.stdout
    for verb, snapshots in (("added", changes.added), ("updated", changes.updated),
                            ("removed", changes.removed)):
        for snapshot in snapshots:
            out.write("%-7s %s  %s  (%s)\n" % (verb, snapshot.project_id,
                                               snapshot.last_update,
                                               snapshot.matched_keyword))
    return True


def notify_webhook(changes: ChangeSet, url: str,
                   clock: Callable[[], str] = default_clock,
                   http_post: Callable = requests.post) -> bool:
    """POST the delta as JSON. Only a 2xx response counts as delivered."""
    body = {
        "added": [s._asdict() for s in changes.added],
        "updated": [s._asdict() for s in changes.updated],
        "removed": [s._asdict() for s in changes.removed],
        "at": clock(),
    }
    try:
        response = http_post(url, json=body, timeout=30)
    except requests.RequestException:
        return False
    return 200 <= response.status_code < 300


def load_state(path: str) -> Tuple[Optional[str], Dict[str, ProjectSnapshot]]:
    """Missing state file means a fresh start, not an error. A file that is
    not watch state raises StateError and is left as it is."""
    if not os.path.exists(path):
        return None, {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise StateError("%s: watch state is not valid JSON: %s" % (path, exc)) from None
    if not isinstance(raw, dict):
        raise StateError("%s: watch state must be a JSON object, not %s"
                         % (path, type(raw).__name__))
    cursor = raw.get("cursor")
    items = raw.get("projects", [])
    if cursor is not None and not isinstance(cursor, str):
        raise StateError("%s: watch state cursor must be a string" % path)
    if not isinstance(items, list):
        raise StateError("%s: watch state projects must be a list" % path)
    projects = {}
    for index, item in enumerate(items):
        if not (isinstance(item, dict)
                and all(isinstance(item.get(key), str)
                        for key in ("project_id", "last_update"))
                and isinstance(item.get("matched_keyword", ""), str)):
            raise StateError("%s: watch state project %d needs string project_id "
                             "and last_update" % (path, index))
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
    checked_at: str


def run_cycle(config: WatchConfig, client,
              clock: Callable[[], str] = default_clock,
              http_post: Callable = requests.post,
              out=None) -> CycleResult:
    """One poll-diff-notify-save pass.

    An empty delta skips delivery but still advances the cursor. A failed
    delivery leaves the state untouched so the next cycle re-sends the same
    delta.
    """
    _, previous = load_state(config.state_path)
    current = poll(client, config)
    changes = diff(previous, current)
    checked_at = clock()
    if not changes.is_empty():
        if config.notify == "stdout":
            delivered = notify_stdout(changes, out=out)
        else:
            delivered = notify_webhook(changes, config.notify,
                                       clock=clock, http_post=http_post)
        if not delivered:
            return CycleResult(status="delivery-failed", changes=changes,
                               checked_at=checked_at)
    save_state(config.state_path, checked_at, current)
    return CycleResult(status="ok", changes=changes, checked_at=checked_at)


def watch_loop(config: WatchConfig, client, cycles: Optional[int] = None,
               sleep: Optional[Callable[[float], None]] = None,
               clock: Callable[[], str] = default_clock,
               http_post: Callable = requests.post,
               out=None) -> List[CycleResult]:
    """Run cycles forever, or a fixed number of them, sleeping the
    configured interval in between."""
    sleep = sleep if sleep is not None else time.sleep
    results: List[CycleResult] = []
    count = 0
    while cycles is None or count < cycles:
        results.append(run_cycle(config, client, clock=clock,
                                 http_post=http_post, out=out))
        count += 1
        if cycles is not None and count >= cycles:
            break
        sleep(config.interval_days * 86400.0)
    return results

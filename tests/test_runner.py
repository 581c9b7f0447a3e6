"""Splitting scan and bench across CPUs: the output never depends on it."""

import json
import os
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from solbuglab import cli, runner
from solbuglab.corpus import default_manifest_path

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")),
    reason="the split needs fork and CPU affinity")

CORPUS = os.path.dirname(default_manifest_path())


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    """Copies of the bundled corpus, with a manifest, holding three split
    floors of bytes, and a directory whose only file cannot be read."""
    root = tmp_path_factory.mktemp("big")
    with open(default_manifest_path(), encoding="utf-8") as fh:
        manifest = json.load(fh)
    corpus_bytes = sum(os.path.getsize(os.path.join(CORPUS, e["path"]))
                       for e in manifest["entries"])
    copies = -(-3 * runner.SPLIT_FLOOR_BYTES // corpus_bytes)
    entries = []
    for k in range(copies):
        shutil.copytree(os.path.join(CORPUS, "contracts"),
                        str(root / "contracts" / ("copy%02d" % k)))
        entries += [dict(e, path=e["path"].replace("contracts/",
                                                    "contracts/copy%02d/" % k))
                    for e in manifest["entries"]]
    (root / "manifest.json").write_text(json.dumps(dict(manifest, entries=entries)),
                                        encoding="utf-8")
    (root / "broken").mkdir()
    os.symlink(str(root / "nowhere.sol"), str(root / "broken" / "gone.sol"))
    return root


def commands(root):
    contracts, broken = str(root / "contracts"), str(root / "broken")
    return {
        "scan-json": ["scan", "--format", "json", "--strict", contracts],
        "scan-text": ["scan", contracts, broken],
        "bench": ["bench", "--split-crafted", "--format", "json",
                  "--corpus", str(root / "manifest.json")],
    }


@pytest.fixture()
def one_cpu():
    """Narrow this process's own CPU mask to one CPU, then restore it."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


@pytest.fixture()
def several_cpus(monkeypatch):
    """At least two usable CPUs; on a one-CPU host two processes share it."""
    count = max(len(os.sched_getaffinity(0)), 2)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: count)
    return count


@pytest.fixture()
def forks(monkeypatch):
    """The pids os.fork returned to this process."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture()
def parent_scans(monkeypatch):
    """The paths of each group this process scanned itself, with its CPU
    mask at the time."""
    parent, scans = os.getpid(), []
    real_group = runner._scan_group

    def recording_group(paths, enabled):
        if os.getpid() == parent:
            scans.append((list(paths), os.sched_getaffinity(0)))
        return real_group(paths, enabled)

    monkeypatch.setattr(runner, "_scan_group", recording_group)
    return scans


def contract_count(root):
    return sum(len(names) for _, _, names in os.walk(str(root / "contracts")))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def reference(big):
    """Each command's exit code and output with one usable CPU."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        out = {}
        for name, argv in commands(big).items():
            stdout, stderr = StringIO(), StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
            out[name] = (code, stdout.getvalue(), stderr.getvalue())
        return out
    finally:
        os.sched_setaffinity(0, mask)


@pytest.mark.parametrize("name", ["scan-json", "scan-text", "bench"])
def test_split_output_matches_one_cpu(capsys, big, reference, several_cpus, forks,
                                      parent_scans, name):
    mask = os.sched_getaffinity(0)
    assert run(capsys, commands(big)[name]) == reference[name]
    assert 1 <= len(forks) <= several_cpus - 1
    assert os.sched_getaffinity(0) == mask
    # the caller scanned its own group only, with its full CPU mask
    scanned = [path for paths, _ in parent_scans for path in paths]
    assert 0 < len(scanned) < contract_count(big)
    assert [cpus for _, cpus in parent_scans] == [mask]
    code, out, err = reference[name]
    assert code == {"scan-json": 1, "scan-text": 2, "bench": 0}[name]
    if name == "scan-text":
        assert "gone.sol" in err


def test_one_cpu_never_forks(capsys, big, reference, one_cpu, forks):
    assert run(capsys, commands(big)["scan-json"]) == reference["scan-json"]
    assert forks == []


def test_below_the_floor_never_forks(capsys, several_cpus, forks):
    mask = os.sched_getaffinity(0)
    code, out, _ = run(capsys, ["scan", "--format", "json", CORPUS])
    assert code == 0 and json.loads(out)["findings"]
    assert forks == []
    assert os.sched_getaffinity(0) == mask


def test_fork_failure_scans_in_process(capsys, monkeypatch, big, reference, several_cpus):
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    mask = os.sched_getaffinity(0)
    for name, argv in commands(big).items():
        assert run(capsys, argv) == reference[name]
    assert os.sched_getaffinity(0) == mask


@pytest.mark.parametrize("failure", ["raise", "short", "exit-status"])
def test_failed_worker_is_scanned_again(capsys, monkeypatch, big, reference,
                                        several_cpus, forks, parent_scans, failure):
    parent = os.getpid()
    recording_group, real_exit = runner._scan_group, os._exit

    def failing_in_workers(paths, enabled):
        if os.getpid() != parent and failure == "raise":
            raise RuntimeError("worker crashed")
        results = recording_group(paths, enabled)
        return results[:-1] if os.getpid() != parent and failure == "short" else results

    def exit_three(code):
        real_exit(3)  # after sending a full result

    monkeypatch.setattr(runner, "_scan_group", failing_in_workers)
    if failure == "exit-status":
        monkeypatch.setattr(os, "_exit", exit_three)
    mask = os.sched_getaffinity(0)
    for name, argv in commands(big).items():
        del parent_scans[:]
        assert run(capsys, argv) == reference[name]
        scanned = [path for paths, _ in parent_scans for path in paths]
        assert len(set(scanned)) == len(scanned) >= contract_count(big)
    assert forks
    assert os.sched_getaffinity(0) == mask


def test_interrupt_kills_and_reaps_workers(monkeypatch, big, several_cpus, forks):
    parent = os.getpid()

    def slow_workers(paths, enabled):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "_scan_group", slow_workers)
    paths = sorted(os.path.join(d, name) for d, _, names in os.walk(str(big / "contracts"))
                   for name in names)
    mask = os.sched_getaffinity(0)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        runner.scan_files(paths)
    assert time.monotonic() - started < 30
    assert forks
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # already reaped
    assert os.sched_getaffinity(0) == mask


@pytest.mark.parametrize("sizes, cpus, groups", [
    ([], 4, [[]]),
    ([10 ** 6], 4, [[0]]),  # one file is never split
    ([1, 2, 3], 8, [[2, 1, 0]]),  # below two floors of bytes
    ([40, 30, 20, 20, 10], 2, [[0, 3], [1, 2, 4]]),
    ([40, 30, 20, 20, 10], 3, [[0], [1, 4], [2, 3]]),
    ([40, 30, 20, 20, 10], 1, [[0, 1, 2, 3, 4]]),
])
def test_plan_groups_deals_largest_first_within_the_floor(monkeypatch, sizes, cpus, groups):
    monkeypatch.setattr(runner, "SPLIT_FLOOR_BYTES", 10)
    assert runner.plan_groups(sizes, cpus) == groups

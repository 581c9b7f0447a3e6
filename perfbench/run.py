"""solbuglab benchmark: end-to-end CLI timings, or per-layer traced numbers.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload is generated from the seed
under ``.perfbench/work/`` and the program is run from ``src/`` as it is
checked out.  With ``--trace 0`` the real CLI (``python -m solbuglab.cli
scan`` and ``bench``) runs in fresh interpreters, one at a time, and the
in-process library path is timed without tracing.  With ``--trace 1`` the
public calls into each layer are wrapped in spans from this side, and the
per-layer numbers are derived from them.  Every output is checked against
the generator's reference; a mismatch is printed with its file and bug id
and counted as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit and sample count.  Full samples, mismatches and spans
are written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from typing import Dict, List, Optional, Tuple

import gen
import metrics
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

# A run measures in rounds and starts another only when the last round's
# duration still fits before --seconds is up.  The host's speed drifts by
# tens of percent, so the samples of every metric spread over the whole run
# instead of sitting in one block.
SETUP_PER_ROUND = 2
MIN_LATENCY_SAMPLES = 100
SETUP_CHILD_REPS = 5
PROBE_REPS = 3
# Children are killed past this point, so a run ends within 180 s.
RUN_LIMIT_S = 170
STARTED = time.perf_counter()

# Scale probes: (axis, base size); each axis is timed at base and 8 x base.
# wide stresses the structural axes and guarded the guard and depth axes;
# the other axes stay at corpus-like sizes.
_SMALL = {"functions": 2, "contracts": 1, "guards": 2, "depth": 2}
PROBE_BASES = {
    "corpus": dict(_SMALL),
    "wide": dict(_SMALL, functions=200, contracts=200),
    "guarded": dict(_SMALL, guards=100, depth=100),
}


class CheckoutError(Exception):
    """The checkout does not hold the program this benchmark runs."""


class Checker:
    """Compares program output with the reference and counts failures."""

    def __init__(self, workload: "Workload"):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.mismatches) < 50:
            self.mismatches.append(message)
            print("mismatch: %s: %s" % (self.workload.name, message), file=sys.stderr)

    def findings(self, path: str, found: Counter) -> None:
        """One file's findings (bug id -> count) against the reference."""
        self.attempted += 1
        expected = self.workload.reference["files"].get(path)
        if expected is None:
            self.fail("%s: not in the reference" % path)
            return
        if not self.workload.reference["exact_counts"]:
            found = Counter(dict.fromkeys(found, 1))
        for bug_id in sorted(set(found) | set(expected)):
            if found.get(bug_id, 0) != expected.get(bug_id, 0):
                self.fail("%s: %s found %d, expected %d"
                          % (path, bug_id, found.get(bug_id, 0), expected.get(bug_id, 0)))
                return

    def scan(self, code: int, stdout: bytes, paths: List[str]) -> Optional[int]:
        """A ``scan --format json`` result; returns the finding count."""
        try:
            doc = json.loads(stdout)
            found: Dict[str, Counter] = {path: Counter() for path in paths}
            for finding in doc["findings"]:
                found.setdefault(finding["file"], Counter())[finding["bug_id"]] += 1
            errors = doc["errors"]
        except (ValueError, KeyError, TypeError) as exc:
            self.attempted += len(paths)
            self.fail("scan output unreadable (exit %d): %s" % (code, exc), len(paths))
            return None
        if code != 0 or errors:
            self.attempted += len(paths)
            self.fail("scan exit %d, errors %s" % (code, errors[:3]), len(paths))
            return None
        for path in sorted(found):
            self.findings(path, found[path])
        return len(doc["findings"])

    def bench(self, code: int, stdout: bytes) -> None:
        """A ``bench --split-crafted --format json`` result, per segment and kind."""
        expected = self.workload.bench_expected
        cells = sum(len(kinds) for kinds in expected.values())
        self.attempted += cells
        try:
            doc = json.loads(stdout)
            got = {seg["name"]: {k["bug_id"]: {c: k[c] for c in ("tp", "fp", "fn")}
                                 for k in seg["kinds"]}
                   for seg in doc["segments"]}
        except (ValueError, KeyError, TypeError) as exc:
            self.fail("bench output unreadable (exit %d): %s" % (code, exc), cells)
            return
        if code != 0:
            self.fail("bench exit %d" % code, cells)
            return
        for segment, kinds in expected.items():
            for bug_id, counts in kinds.items():
                actual = got.get(segment, {}).get(bug_id)
                if actual != counts:
                    self.fail("bench %s %s: got %s, expected %s"
                              % (segment, bug_id, actual, counts))


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.dir = os.path.join(STATE, "work", name)
        if os.path.isdir(self.dir):
            shutil.rmtree(self.dir)
        os.makedirs(self.dir)
        self.reference = gen.generate(name, seed, self.dir)
        with open(os.path.join(self.dir, "manifest.json"), encoding="utf-8") as fh:
            self.manifest = json.load(fh)
        self.paths = sorted(self.reference["files"])
        self.bytes = sum(os.path.getsize(os.path.join(self.dir, p)) for p in self.paths)
        self.bench_expected = gen.bench_reference(self.manifest, self.reference,
                                                  metrics.DETECTOR_IDS)
        self.empty = os.path.join(STATE, "work", "empty.sol")
        open(self.empty, "w").close()


# --- child processes --------------------------------------------------------

def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: List[str], cwd: str) -> Tuple[float, int, bytes, bytes, float]:
    """Run a child to completion: wall seconds, exit code, stdout, stderr and
    peak RSS in MB from the child's own rusage."""
    out_path = os.path.join(STATE, "work", "child.out")
    err_path = os.path.join(STATE, "work", "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=cwd, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(max(0.0, STARTED + RUN_LIMIT_S - started), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise CheckoutError("%s ended by signal %d after %.1f s"
                            % (" ".join(argv[:3]), -proc.returncode, wall))
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return wall, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024


CLI = ["-m", "solbuglab.cli"]


def scan_argv(paths: List[str]) -> List[str]:
    return CLI + ["scan", "--format", "json"] + paths


BENCH_ARGV = CLI + ["bench", "--split-crafted", "--format", "json",
                    "--corpus", "manifest.json"]


def setup_rep(wl: Workload, checker: Checker) -> float:
    wall, code, stdout, _, _ = run_child(scan_argv([wl.empty]), wl.dir)
    checker.attempted += 1
    try:
        clean = json.loads(stdout) == {"errors": [], "findings": []}
    except ValueError:
        clean = False
    if code != 0 or not clean:
        checker.fail("scan of an empty file: exit %d, output %r" % (code, stdout[:200]))
    return wall


# --- in-process library path --------------------------------------------------

def import_program():
    """Import solbuglab from this checkout's src/, nowhere else."""
    sys.path.insert(0, SRC)
    import solbuglab
    from solbuglab import cli, detectors, lexer, parser
    where = os.path.dirname(os.path.abspath(solbuglab.__file__))
    if where != os.path.join(SRC, "solbuglab"):
        raise CheckoutError("solbuglab imported from %s, not from %s" % (where, SRC))
    return cli, detectors, lexer, parser


def latency_pass(wl: Workload, checker: Checker, parse_file, detect_all) -> List[float]:
    """parse_file then detect_all on every file; milliseconds per file."""
    gc.collect()  # start every pass from the same heap state
    samples = []
    for path in wl.paths:
        full = os.path.join(wl.dir, path)
        started = time.perf_counter()
        found = detect_all(parse_file(full))
        samples.append((time.perf_counter() - started) * 1000)
        checker.findings(path, Counter(f.bug_id for f in found))
    return samples


@contextlib.contextmanager
def in_dir(path: str):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def call_cli(main, argv: List[str]) -> Tuple[float, int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        started = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - started
    return wall, code, out.getvalue()


# --- the two kinds of run ----------------------------------------------------

def rounds(seconds: float, one_round, more=lambda: False) -> int:
    """Call one_round until the next one would end past seconds from now,
    and for as long as more() says so."""
    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        started = time.perf_counter()
        one_round()
        done += 1
        now = time.perf_counter()
        if now + (now - started) > deadline and not more():
            return done


def end_to_end(wl: Workload, seconds: float, checker: Checker) -> Tuple[dict, dict]:
    _, detectors, _, parser = import_program()
    started = time.perf_counter()
    setup_rep(wl, checker)  # warm-up: byte-code caches and file cache
    samples: Dict[str, list] = {"setup_s": [], "scan_s": [], "bench_s": [],
                                "file_ms": [], "peak_rss_mb": []}

    def one_round():
        for _ in range(SETUP_PER_ROUND):
            samples["setup_s"].append(setup_rep(wl, checker))
        wall, code, stdout, _, rss = run_child(scan_argv(wl.paths), wl.dir)
        checker.scan(code, stdout, wl.paths)
        samples["scan_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        wall, code, stdout, _, _ = run_child(BENCH_ARGV, wl.dir)
        checker.bench(code, stdout)
        samples["bench_s"].append(wall)
        samples["file_ms"].extend(latency_pass(wl, checker, parser.parse_file,
                                               detectors.detect_all))

    rounds(seconds - (time.perf_counter() - started), one_round,
           lambda: len(samples["file_ms"]) < MIN_LATENCY_SAMPLES)
    scan_s = statistics.median(samples["scan_s"])
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "scan_s": scan_s,
        "scan_kb_per_s": wl.bytes / 1024 / scan_s,
        "bench_s": statistics.median(samples["bench_s"]),
        "file_ms_p50": statistics.median(samples["file_ms"]),
        "file_ms_p90": statistics.quantiles(samples["file_ms"], n=10)[8],
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    counts = {name: len(samples[name]) for name in ("setup_s", "scan_s", "bench_s",
                                                     "peak_rss_mb")}
    counts["scan_kb_per_s"] = counts["scan_s"]
    counts["file_ms_p50"] = counts["file_ms_p90"] = len(samples["file_ms"])
    return values, {"samples": samples, "counts": counts}


def setup_layers(wl: Workload) -> Dict[str, float]:
    """Import costs from ``-X importtime`` and the first catalog() call, each
    in fresh interpreters."""
    cli_s, collector_s, catalog_s = [], [], []
    for _ in range(SETUP_CHILD_REPS):
        _, code, _, stderr, _ = run_child(["-X", "importtime", "-c", "import solbuglab.cli"],
                                          wl.dir)
        if code != 0:
            raise CheckoutError("import solbuglab.cli failed:\n" + stderr.decode(errors="replace"))
        cumulative = {}
        for line in stderr.decode(errors="replace").splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        cli_s.append(cumulative.get("solbuglab.cli", 0.0))
        collector_s.append(cumulative.get("solbuglab.collector", 0.0))
        _, code, stdout, stderr, _ = run_child(
            ["-c", "import time, solbuglab.taxonomy as t\n"
                   "s = time.perf_counter(); t.catalog(); print(time.perf_counter() - s)"],
            wl.dir)
        if code != 0:
            raise CheckoutError("catalog() failed:\n" + stderr.decode(errors="replace"))
        catalog_s.append(float(stdout))
    return {"setup.import_cli_s": statistics.median(cli_s),
            "setup.import_collector_s": statistics.median(collector_s),
            "taxonomy.catalog_s": statistics.median(catalog_s)}


def probe_layers(wl: Workload, tracer: tracing.Tracer, parser, detectors) -> Dict[str, float]:
    """*.scale8.* ratios: time at 8 x base over time at base on one axis."""
    bases = PROBE_BASES[wl.name]
    axes = gen.Axes(**{axis: ((base, 1), (8 * base, 1)) for axis, base in bases.items()})
    probe_dir = os.path.join(wl.dir, "probes")
    gen.write_generated(probe_dir, axes, wl.seed, "probes")
    parse_s: Dict[Tuple[str, int], float] = {}
    detect_s: Dict[Tuple[str, int], float] = {}
    for axis, base in bases.items():
        for size in (base, 8 * base):
            path = os.path.join(probe_dir, "contracts", "%s_%04d_00.sol" % (axis, size))
            parse_reps, detect_reps = [], []
            for _ in range(PROBE_REPS):
                first = len(tracer.spans)
                detectors.detect_all(parser.parse_file(path))
                members = list(range(first, len(tracer.spans)))
                parse_reps.append(sum(tracing.self_time(tracer.spans, i, members)
                                      for i in members
                                      if tracer.spans[i][tracing.NAME] == "parser.parse"))
                detect_reps.append(tracing.total(tracer.spans, members,
                                                 "detectors.detect_all"))
            parse_s[axis, size] = statistics.median(parse_reps)
            detect_s[axis, size] = statistics.median(detect_reps)

    def ratio(table, axis):
        return table[axis, 8 * bases[axis]] / table[axis, bases[axis]]

    return {"parser.scale8.functions": ratio(parse_s, "functions"),
            "parser.scale8.contracts": ratio(parse_s, "contracts"),
            "parser.scale8.depth": ratio(parse_s, "depth"),
            "detectors.scale8.guards": ratio(detect_s, "guards")}


def alloc_layers(wl: Workload, lexer, parser) -> Dict[str, float]:
    """tracemalloc peaks of lex and parse on the workload's largest file."""
    largest = max(wl.paths, key=lambda p: os.path.getsize(os.path.join(wl.dir, p)))
    with open(os.path.join(wl.dir, largest), "rb") as fh:
        source = fh.read().decode("utf-8", "surrogateescape")
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in (("lexer.peak_alloc_mb", lambda: lexer.lex(source)),
                           ("parser.peak_alloc_mb", lambda: parser.parse(source, largest))):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()
    return peaks


def traced(wl: Workload, seconds: float, checker: Checker) -> Tuple[dict, dict]:
    started = time.perf_counter()
    values = setup_layers(wl)
    counts = dict.fromkeys(values, SETUP_CHILD_REPS)
    cli, detectors, lexer, parser = import_program()
    alloc = alloc_layers(wl, lexer, parser)
    scan = ["scan", "--format", "json"] + wl.paths
    tracer = tracing.Tracer()
    untraced_s, traced_s, scan_rows = [], [], []

    def one_round():
        wall, code, out = call_cli(cli.main, scan)
        checker.scan(code, out.encode(), wl.paths)
        untraced_s.append(wall)
        tracer.install()
        try:
            root = len(tracer.spans)
            wall, code, out = call_cli(cli.main, scan)
        finally:
            tracer.remove()
        row = tracing.scan_layers(tracer.spans, root, metrics.DETECTOR_IDS)
        row["cli.findings"] = checker.scan(code, out.encode(), wl.paths) or 0
        traced_s.append(wall)
        scan_rows.append(row)

    with in_dir(wl.dir):
        rounds(seconds - (time.perf_counter() - started), one_round)
        tracer.install()
        try:
            root = len(tracer.spans)
            _, code, out = call_cli(cli.main, BENCH_ARGV[len(CLI):])
            checker.bench(code, out.encode())
            bench = tracing.bench_layers(tracer.spans, root)
            probes = probe_layers(wl, tracer, parser, detectors)
        finally:
            tracer.remove()
    scans = tracing.median_by_key(scan_rows)
    scans["trace.overhead_share"] = (statistics.median(traced_s)
                                     / statistics.median(untraced_s) - 1)
    for part, n in ((alloc, 1), (bench, 1), (probes, PROBE_REPS), (scans, len(scan_rows))):
        values.update(part)
        counts.update(dict.fromkeys(part, n))
    return values, {"counts": counts, "spans": tracer.spans,
                    "untraced_scan_s": untraced_s, "traced_scan_s": traced_s}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="solbuglab benchmark")
    ap.add_argument("--workload", choices=[name for name, _ in metrics.WORKLOADS],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # End by SystemExit on SIGTERM, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "solbuglab", "cli.py")):
        print("error: no program under %s; run from the root of a solbuglab checkout" % SRC,
              file=sys.stderr)
        return 2
    try:
        wl = Workload(args.workload, args.seed)
        checker = Checker(wl)
        run = traced if args.trace else end_to_end
        values, detail = run(wl, args.seconds, checker)
    except (CheckoutError, OSError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    names = metrics.metric_names(bool(args.trace))
    print("workload %s seed %d: %d files, %.1f KB" % (wl.name, wl.seed, len(wl.paths),
                                                      wl.bytes / 1024))
    for name in names:
        print("%-30s %14.6g %-6s n=%d" % (name, values[name], metrics.UNITS[name],
                                          detail["counts"][name]))
    share = checker.failed / checker.attempted
    print("%-30s %14.6g %-6s (%d of %d)" % ("failed_share", share, "ratio",
                                            checker.failed, checker.attempted))
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (wl.name, wl.seed, args.trace)), "w") as fh:
        json.dump({"workload": wl.name, "seed": wl.seed, "seconds": args.seconds,
                   "bytes": wl.bytes, "files": len(wl.paths), "metrics": values,
                   "failed_share": share, "attempted": checker.attempted,
                   "failed": checker.failed, "mismatches": checker.mismatches,
                   **detail}, fh)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": metrics.UNITS[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

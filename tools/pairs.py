"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload wide --seed 3 --pairs 10

PARENT_DIR and CHANGE_DIR are roots of solbuglab checkouts (for example
``git archive HEAD~1 | tar -x -C DIR`` for the parent).  Each pair runs
``perfbench/run.py --workload W --seed N`` once in each checkout, one run at
a time; the parent goes first in even pairs and the change in odd ones.
Each run lasts as long as the benchmark itself sets.

For each end-to-end metric of the parent's ``BENCHMARK.json`` the output
gives both sides' medians and quartiles, how many pairs the change won (ties
count for neither side) and a verdict:

- ``gain``: the change won at least nine pairs in ten and its median beats
  the parent's by more than the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, a share of the parent's median;
- ``unresolved``: the parent's interquartile range is wider than that bound
  and not every run of the change beats every run of the parent;
- ``within bound`` otherwise.

The failed operations of each side are totalled last.  Exit status: 0 when
every run completed, 2 when a checkout cannot be run.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, NamedTuple, Sequence, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float  # share of the parent's median it may get worse by


class Row(NamedTuple):
    metric: Metric
    parent: Tuple[float, float, float]  # first quartile, median, third quartile
    change: Tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str


class RunError(Exception):
    """A benchmark run could not be made or gave no result."""


def load_metrics(checkout: str) -> List[Metric]:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    return [Metric(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]]


def summarize(metrics: Sequence[Metric], parent_runs: Sequence[Dict[str, float]],
              change_runs: Sequence[Dict[str, float]]) -> List[Row]:
    """One row per metric; ``parent_runs[i]`` and ``change_runs[i]`` are
    pair i's values by metric name.  At least two pairs."""

    rows = []
    for metric in metrics:
        sign = 1 if metric.better == "lower" else -1  # > 0: the change is better
        old = [run[metric.name] for run in parent_runs]
        new = [run[metric.name] for run in change_runs]
        wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        parent = tuple(statistics.quantiles(old, n=4))
        change = tuple(statistics.quantiles(new, n=4))
        gain = sign * (parent[1] - change[1])
        spread = parent[2] - parent[0]
        allowed = metric.bound * abs(parent[1])
        if wins * 10 >= 9 * len(old) and gain > spread:
            verdict = "gain"
        elif -gain > allowed:
            verdict = "worse"
        elif spread > allowed and not all(sign * (a - b) > 0 for a in old for b in new):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append(Row(metric, parent, change, wins, len(old), verdict))
    return rows


def format_rows(rows: Sequence[Row]) -> str:
    lines = ["| metric | parent median (q1-q3) | change median (q1-q3) | change won | verdict |",
             "|---|---|---|---|---|"]
    for row in rows:
        p, c = row.parent, row.change
        lines.append("| %s (%s) | %.4g (%.4g-%.4g) | %.4g (%.4g-%.4g) | %d of %d | %s |" % (
            row.metric.name, row.metric.unit, p[1], p[0], p[2], c[1], c[0], c[2],
            row.wins, row.pairs, row.verdict))
    return "\n".join(lines)


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its last output line."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("%s: exit %d\n%s" % (checkout, proc.returncode, proc.stderr))
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise RunError("%s: last line is not JSON: %r" % (checkout, lines[-1])) from None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = (args.parent_dir, args.change_dir)
    for checkout in sides:
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            print("error: %s: no perfbench/run.py" % checkout, file=sys.stderr)
            return 2
    try:
        metrics = load_metrics(args.parent_dir)
    except (OSError, ValueError, KeyError) as exc:
        print("error: %s: BENCHMARK.json: %s" % (args.parent_dir, exc), file=sys.stderr)
        return 2

    results: Tuple[List[dict], List[dict]] = ([], [])
    for pair in range(args.pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            try:
                result = run_once(sides[side], args.workload, args.seed)
            except RunError as exc:
                print("error: %s" % exc, file=sys.stderr)
                return 2
            results[side].append(result)
        print("pair %d of %d done" % (pair + 1, args.pairs), file=sys.stderr)

    values = [[{name: m["value"] for name, m in r["metrics"].items()} for r in runs]
              for runs in results]
    print("workload %s seed %d, %d pairs" % (args.workload, args.seed, args.pairs))
    print(format_rows(summarize(metrics, *values)))
    for label, runs in zip(("parent", "change"), results):
        print("%s: %d failed of %d attempted" % (
            label, sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

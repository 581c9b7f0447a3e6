"""Metric and workload definitions of the benchmark: one place for names,
units, directions and bounds.

``BENCHMARK.json`` at the repository root is written from these tables; run
``python3 perfbench/metrics.py`` after changing them.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

DETECTOR_IDS = ("A-a-IS", "A-a-W", "A-c-US", "D-a-R", "E-a-SA", "E-a-SW", "F-c-T")

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("corpus", "the 18 bundled labeled files and manifest, crafted traps included; "
               "almost all start-up cost, so import and set-up changes show here"),
    ("wide", "generated files up to 512 functions per contract and 400 contracts per "
             "file in both pragma families; lex and parse dominate and grow faster than input"),
    ("guarded", "generated long bodies with many require/if guards, nesting, casts, "
                "ecrecover checks and approve writes; guard matching in detectors dominates"),
)

# name, unit, better, bound (share of the parent's median a metric may
# worsen).  On a shared 2-vCPU VM the host's speed drifts by up to ~40% over
# tens of seconds, so every timing gets the largest bound the format allows;
# peak RSS repeats to within 2%.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("scan_s", "s", "lower", 0.25),
    ("scan_kb_per_s", "KB/s", "higher", 0.25),
    ("bench_s", "s", "lower", 0.25),
    ("file_ms_p50", "ms", "lower", 0.25),
    ("file_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("setup.import_cli_s", "s", "lower"),
    ("setup.import_collector_s", "s", "lower"),
    ("taxonomy.catalog_s", "s", "lower"),
    ("read.files", "count", "higher"),
    ("read.kb", "KB", "higher"),
    ("lexer.lex_s", "s", "lower"),
    ("lexer.tokens", "count", "higher"),
    ("lexer.peak_alloc_mb", "MB", "lower"),
    ("parser.self_s", "s", "lower"),
    ("parser.contracts", "count", "higher"),
    ("parser.functions", "count", "higher"),
    ("parser.stmts", "count", "higher"),
    ("parser.guards", "count", "higher"),
    ("parser.diagnostics", "count", "lower"),
    ("parser.peak_alloc_mb", "MB", "lower"),
    ("parser.scale8.functions", "ratio", "lower"),
    ("parser.scale8.contracts", "ratio", "lower"),
    ("parser.scale8.depth", "ratio", "lower"),
) + tuple(
    metric for bug_id in DETECTOR_IDS for metric in (
        ("detectors.%s.s" % bug_id, "s", "lower"),
        ("detectors.%s.findings" % bug_id, "count", "higher"),
    )
) + (
    ("detectors.detect_all_s", "s", "lower"),
    ("detectors.gated_rules", "count", "higher"),
    ("detectors.scale8.guards", "ratio", "lower"),
    ("corpus.load_manifest_s", "s", "lower"),
    ("corpus.entries", "count", "higher"),
    ("evaluation.self_report_s", "s", "lower"),
    ("evaluation.evaluate_s", "s", "lower"),
    ("evaluation.parses_per_entry", "ratio", "lower"),
    ("cli.scan_s", "s", "lower"),
    ("cli.report_self_s", "s", "lower"),
    ("cli.findings", "count", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_doc() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def metric_names(trace: bool) -> List[str]:
    return [row[0] for row in (PER_LAYER if trace else END_TO_END)]


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(benchmark_doc(), fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

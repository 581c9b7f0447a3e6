"""Command-line front end.

Exit codes: 0 clean, 1 policy failure (strict scan found bugs, a benchmark
gate missed, a watch delivery failed), 2 usage or input errors, 130 when
interrupted (Ctrl-C), 141 when the reader of standard output went away
(``solbuglab scan ... | head``).
"""

import argparse
import gc
import json
import os
import sys
from typing import List, Optional, Sequence, Set

from . import runner, taxonomy
from .detectors import DETECTABLE_BUG_IDS, Finding, UnknownRuleError, rule_ids
from .inputs import InputError, read_json
from .taxonomy import Severity

# Severity lists the grades worst first; a higher rank is more severe.
_SEVERITY_RANK = {severity: rank for rank, severity in enumerate(reversed(Severity))}


def _collect_sol_files(paths: Sequence[str], errors: List[str]) -> List[str]:
    def unlisted(exc: OSError) -> None:
        errors.append("%s: cannot list directory: %s" % (exc.filename, exc.strerror))

    files: Set[str] = set()
    irregular: Set[str] = set()
    for path in paths:
        if not os.path.exists(path):
            errors.append("%s: no such file or directory" % path)
            continue
        found = [path]
        if os.path.isdir(path):
            found = [os.path.join(root, name)
                     for root, _, names in os.walk(path, onerror=unlisted)
                     for name in names if name.endswith(".sol")]
        for entry in found:  # a FIFO or device would block or fail the read: never open it
            (files if os.path.isfile(entry) else irregular).add(entry)
    errors.extend("%s: not a regular file or directory" % entry for entry in sorted(irregular))
    return sorted(files)


def _cmd_scan(args) -> int:
    if args.rules == "all":
        enabled = None
    else:
        enabled = [r.strip() for r in args.rules.split(",") if r.strip()]
        try:
            rule_ids(enabled)
        except UnknownRuleError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        if not enabled:
            print("error: --rules names no rule", file=sys.stderr)
            return 2
    errors: List[str] = []
    files = _collect_sol_files(args.paths, errors)
    findings: List[Finding] = []
    for path, (error, found) in zip(files, runner.scan_files(files, enabled)):
        if error is not None:
            errors.append("%s: %s" % (path, error))
        findings.extend(found)
    findings.sort(key=lambda f: f.sort_key())

    severity_of = {kind.id: kind.severity for kind in taxonomy.catalog()}
    if args.format == "json":
        doc = {
            "findings": [
                {"file": f.file, "bug_id": f.bug_id,
                 "severity": severity_of[f.bug_id].value,
                 "contract": f.contract, "function": f.function,
                 "span": [f.span[0], f.span[1]], "message": f.message}
                for f in findings
            ],
            "errors": errors,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for f in findings:
            print("%s:%d-%d: %s %s %s" % (f.file, f.span[0], f.span[1], f.bug_id,
                                          severity_of[f.bug_id].value, f.message))
        for message in errors:
            print("error: %s" % message, file=sys.stderr)
    if errors:
        return 2
    if args.fail_on is not None:
        threshold = _SEVERITY_RANK[Severity(args.fail_on)]
        if any(_SEVERITY_RANK[severity_of[f.bug_id]] >= threshold for f in findings):
            return 1
    if args.strict and findings:
        return 1
    return 0


def _cmd_bench(args) -> int:
    from . import corpus, evaluation  # only bench scores against a corpus

    manifest = corpus.load_manifest(args.corpus or corpus.default_manifest_path())
    if args.tool != "self":
        tool = evaluation.load_report(args.tool)
    else:
        try:
            tool = evaluation.self_report(manifest)
        except OSError as exc:  # a corpus file gone since the manifest was read
            print("error: %s" % exc, file=sys.stderr)
            return 2
    report = evaluation.evaluate(tool, manifest, split_crafted=args.split_crafted)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())

    micro = report.segment("all").micro
    failed = False
    for gate, value in (("precision", args.min_precision), ("recall", args.min_recall)):
        if value is None:
            continue
        actual = micro.precision() if gate == "precision" else micro.recall()
        if actual is None:
            print("gate: micro %s is undefined, cannot meet %.3f" % (gate, value),
                  file=sys.stderr)
            failed = True
        elif actual < value:
            print("gate: micro %s %.3f below %.3f" % (gate, actual, value),
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


def _effects_text(kind: taxonomy.BugKind) -> str:
    return ", ".join("%s/%s" % (c.value, m.value)
                     for c, m in sorted(kind.effects,
                                        key=lambda e: (e[0].value, e[1].value)))


def _kind_doc(kind: taxonomy.BugKind) -> dict:
    return {
        "id": kind.id,
        "display_name": kind.display_name,
        "category": kind.category,
        "severity": kind.severity.value,
        "effects": sorted([c.value, m.value] for c, m in kind.effects),
        "affected_versions": kind.affected_versions.describe(),
        "has_detector": kind.id in DETECTABLE_BUG_IDS,
        "criteria": kind.criteria_text,
        "name_source": kind.name_source,
    }


def _print_kind_lines(kinds) -> None:
    for kind in kinds:
        marker = " [detector]" if kind.id in DETECTABLE_BUG_IDS else ""
        print("%-8s %-8s %s%s" % (kind.id, kind.severity.value,
                                  kind.display_name, marker))


def _cmd_catalog(args) -> int:
    kinds = taxonomy.catalog()
    if args.kind is not None:
        try:
            kind = taxonomy.kind_by_id(args.kind)
        except KeyError:
            print("error: unknown bug id %s" % args.kind, file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps(_kind_doc(kind), indent=2, sort_keys=True))
        else:
            print("%s  %s" % (kind.id, kind.display_name))
            print("category:  %s" % kind.category)
            print("severity:  %s" % kind.severity.value)
            print("effects:   %s" % _effects_text(kind))
            print("versions:  %s" % kind.affected_versions.describe())
            print("detector:  %s" % ("yes" if kind.id in DETECTABLE_BUG_IDS else "no"))
            print("name:      %s" % kind.name_source)
            print("criteria:  %s" % kind.criteria_text)
        return 0
    if args.category is not None:
        matching = [c for c in taxonomy.categories() if c.id == args.category]
        if not matching:
            print("error: unknown category %s" % args.category, file=sys.stderr)
            return 2
        category = matching[0]
        picked = taxonomy.kinds_in_category(category.id)
        if args.format == "json":
            doc = {"id": category.id, "name": category.name,
                   "definition": category.definition,
                   "kinds": [_kind_doc(k) for k in picked]}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print("%s  %s: %s" % (category.id, category.name, category.definition))
            _print_kind_lines(picked)
        return 0
    if args.list:
        if args.format == "json":
            print(json.dumps([_kind_doc(k) for k in kinds], indent=2, sort_keys=True))
        else:
            _print_kind_lines(kinds)
        return 0
    # overview
    if args.format == "json":
        doc = {
            "kinds": len(kinds),
            "detectors": sorted(DETECTABLE_BUG_IDS),
            "categories": [
                {"id": c.id, "name": c.name,
                 "kinds": len(taxonomy.kinds_in_category(c.id))}
                for c in taxonomy.categories()
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for category in taxonomy.categories():
            print("%s  %-12s %2d kinds" % (category.id, category.name,
                                           len(taxonomy.kinds_in_category(category.id))))
        print("total: %d kinds, %d with detectors" % (len(kinds),
                                                      len(DETECTABLE_BUG_IDS)))
    return 0


def _cmd_merge(args) -> int:
    raw = read_json(args.records, "records file", list)
    problems: List[str] = []
    records: List[taxonomy.BugRecord] = []
    for index, item in enumerate(raw):
        where = "record %d" % index
        if not isinstance(item, dict):
            problems.append("%s: not an object" % where)
            continue
        missing = [key for key in ("source", "name", "behavior")
                   if not isinstance(item.get(key), str) or not item[key]]
        if missing:
            problems.append("%s: missing or empty %s" % (where, ", ".join(missing)))
            continue
        consequence = item.get("consequence", [])
        if (not isinstance(consequence, list)
                or not all(isinstance(c, str) for c in consequence)):
            problems.append("%s: consequence must be a list of strings" % where)
            continue
        records.append(taxonomy.BugRecord(source=item["source"], name=item["name"],
                                          behavior=item["behavior"],
                                          consequence=frozenset(consequence)))
    if problems:
        raise InputError(args.records, "records file", problems)
    merged = taxonomy.merge_records(records)
    if args.format == "json":
        doc = [
            {"source": r.source, "name": r.name, "behavior": r.behavior,
             "consequence": sorted(r.consequence), "aliases": list(r.aliases),
             "renamed": r.renamed}
            for r in merged
        ]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for r in merged:
            marker = " [renamed]" if r.renamed else ""
            print("%s (%s)%s: %s" % (r.name, r.source, marker, r.behavior))
    return 0


def _cmd_watch(args) -> int:
    from . import collector  # imports urllib.request, which no other command needs
    config = collector.load_config(args.config) if args.config else collector.WatchConfig()
    if args.replay:
        client = collector.RecordedSearchClient(args.replay)
    else:
        client = collector.HttpSearchClient(config)
    print("watching %d keyword(s), checking every %d day(s)"
          % (len(config.keywords), config.interval_days))
    failed = False
    try:
        for result in collector.watch_loop(config, client, cycles=1 if args.once else None):
            changes = result.changes
            print("%s: %d added, %d updated, %d removed"
                  % (result.status, len(changes.added), len(changes.updated),
                     len(changes.removed)), flush=True)
            failed = failed or result.status != "ok"
    except BrokenPipeError:
        raise  # a reader that quit: run() exits quietly
    except (RuntimeError, OSError) as exc:  # a failed search or state save
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 1 if failed else 0


def _fraction(text: str) -> float:
    """A gate value: a number from 0 to 1, NaN excluded."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError("%r is not a number from 0 to 1" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solbuglab",
        description="Find, catalog, and benchmark Solidity bug patterns.")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run detectors over contract files")
    scan.add_argument("paths", nargs="+", help=".sol files or directories")
    scan.add_argument("--rules", default="all",
                      help="comma-separated bug ids, or 'all' (default)")
    scan.add_argument("--format", choices=("text", "json"), default="text")
    scan.add_argument("--strict", action="store_true",
                      help="exit 1 when any finding is reported")
    scan.add_argument("--fail-on", choices=[s.value for s in Severity],
                      default=None,
                      help="exit 1 on findings at or above this severity")
    scan.set_defaults(func=_cmd_scan)

    bench = sub.add_parser("bench", help="score a tool against a corpus")
    bench.add_argument("--corpus", default=None,
                       help="manifest path (default: bundled corpus)")
    bench.add_argument("--tool", default="self",
                       help="'self' or a tool report JSON file")
    bench.add_argument("--split-crafted", action="store_true",
                       help="also score crafted traps separately")
    bench.add_argument("--format", choices=("text", "json"), default="text")
    bench.add_argument("--min-precision", type=_fraction, default=None)
    bench.add_argument("--min-recall", type=_fraction, default=None)
    bench.set_defaults(func=_cmd_bench)

    cat = sub.add_parser("catalog", help="browse the bug kind catalog")
    shown = cat.add_mutually_exclusive_group()
    shown.add_argument("--list", action="store_true", help="list every kind")
    shown.add_argument("--category", default=None, help="show one category")
    shown.add_argument("--kind", default=None, help="show one bug kind in full")
    cat.add_argument("--format", choices=("text", "json"), default="text")
    cat.set_defaults(func=_cmd_catalog)

    merge = sub.add_parser("merge", help="merge bug records from several sources")
    merge.add_argument("records", help="JSON file with a list of records")
    merge.add_argument("--format", choices=("text", "json"), default="json")
    merge.set_defaults(func=_cmd_merge)

    watch = sub.add_parser("watch", help="poll for new analysis-tool projects")
    watch.add_argument("--config", default=None, help="watch config JSON file")
    watch.add_argument("--once", action="store_true", help="run a single cycle")
    watch.add_argument("--replay", default=None,
                       help="JSON file of canned search results instead of HTTP")
    watch.set_defaults(func=_cmd_watch)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point of ``python -m solbuglab.cli`` and the ``solbuglab``
    script: run main(), then exit the process with its code. main() changes
    nothing process-wide, so tests and library callers run it in process."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a reader that quit
    except KeyboardInterrupt:
        code = 130  # 128 + SIGINT, as a shell reports an interrupted command
    # The exit-time collections then skip the heap, and the OS frees it.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

"""Scoring detection tools against a corpus manifest.

A tool is scored only on the bug kinds it claims and only on corpus entries
that exercise one of those kinds. Ratios with a zero denominator stay None
end to end; they are reported as null/n-a, never coerced to 0 or 1.
"""

import json
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .corpus import CorpusManifest, EntryKind
from .detectors import DETECTABLE_BUG_IDS
from .inputs import InputError, read_json
from .runner import scan_files
from .taxonomy import catalog, catalog_ids


class ToolReport(NamedTuple):
    """What a tool claims to find, and what it found where.

    findings pair a manifest-relative file path with a bug id.
    """
    tool_name: str
    claims: FrozenSet[str]
    findings: FrozenSet[Tuple[str, str]]


class ConfusionCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def precision(self) -> Optional[float]:
        denom = self.tp + self.fp
        return None if denom == 0 else self.tp / denom

    def recall(self) -> Optional[float]:
        denom = self.tp + self.fn
        return None if denom == 0 else self.tp / denom

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def coverage(claims: Iterable[str]) -> float:
    """Share of the catalog the claims cover. Ids outside the catalog do not
    count."""
    return len(set(claims) & catalog_ids()) / len(catalog())


def _score(tool: ToolReport, manifest: CorpusManifest, split_crafted: bool
           ) -> Tuple[Dict[str, Dict[str, ConfusionCounts]], List[str]]:
    """Per-segment, per-kind confusion counts over the manifest entries in
    the tool's scope, with the claims and findings checked once. The
    segments are "all" and, with split_crafted, "non-crafted" and
    "crafted"."""
    warnings: List[str] = []
    claims = tool.claims & catalog_ids()
    unknown_claims = sorted(tool.claims - claims)
    if unknown_claims:
        warnings.append("claims outside the catalog ignored: %s"
                        % ", ".join(unknown_claims))

    known_paths = {entry.path for entry in manifest.entries}
    usable: Dict[str, set] = {}
    for file_path, bug_id in sorted(tool.findings):
        if file_path not in known_paths:
            warnings.append("finding on file outside the corpus ignored: %s" % file_path)
        elif bug_id not in claims:
            warnings.append("finding for unclaimed kind ignored: %s on %s"
                            % (bug_id, file_path))
        else:
            usable.setdefault(file_path, set()).add(bug_id)

    names = ("all", "non-crafted", "crafted") if split_crafted else ("all",)
    counts = {name: {bug_id: ConfusionCounts() for bug_id in sorted(claims)}
              for name in names}
    for entry in manifest.entries:
        if not (entry.labels | entry.targets) & claims:
            continue
        segments = [counts["all"]]
        if split_crafted:
            crafted = entry.kind is EntryKind.CRAFTED
            segments.append(counts["crafted" if crafted else "non-crafted"])
        reported = usable.get(entry.path, set())
        for bug_id in claims:
            expected = bug_id in entry.labels
            found = bug_id in reported
            if expected and found:
                outcome = ConfusionCounts(tp=1)
            elif expected:
                outcome = ConfusionCounts(fn=1)
            elif found:
                outcome = ConfusionCounts(fp=1)
            else:
                continue
            for segment in segments:
                segment[bug_id] += outcome
    return counts, warnings


def match(tool: ToolReport, manifest: CorpusManifest
          ) -> Tuple[Dict[str, ConfusionCounts], List[str]]:
    """Per-kind confusion counts over the manifest entries in the tool's
    scope. Findings on files the manifest does not list, or for kinds the
    tool does not claim, are excluded with a warning."""
    counts, warnings = _score(tool, manifest, split_crafted=False)
    return counts["all"], warnings


def _macro(values: Sequence[Optional[float]]) -> Optional[float]:
    defined = [v for v in values if v is not None]
    return None if not defined else sum(defined) / len(defined)


class SegmentMetrics(NamedTuple):
    name: str
    per_kind: Tuple[Tuple[str, ConfusionCounts], ...]
    micro: ConfusionCounts

    def macro_precision(self) -> Optional[float]:
        return _macro([c.precision() for _, c in self.per_kind])

    def macro_recall(self) -> Optional[float]:
        return _macro([c.recall() for _, c in self.per_kind])


class MetricsReport(NamedTuple):
    tool_name: str
    coverage: float
    segments: Tuple[SegmentMetrics, ...]
    warnings: Tuple[str, ...]

    def segment(self, name: str) -> SegmentMetrics:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(name)

    def to_json(self) -> str:
        doc = {
            "tool_name": self.tool_name,
            "coverage": self.coverage,
            "segments": [
                {
                    "name": seg.name,
                    "kinds": [
                        {"bug_id": bug_id, "tp": c.tp, "fp": c.fp, "fn": c.fn,
                         "precision": c.precision(), "recall": c.recall()}
                        for bug_id, c in seg.per_kind
                    ],
                    "micro": {"tp": seg.micro.tp, "fp": seg.micro.fp,
                              "fn": seg.micro.fn,
                              "precision": seg.micro.precision(),
                              "recall": seg.micro.recall()},
                    "macro": {"precision": seg.macro_precision(),
                              "recall": seg.macro_recall()},
                }
                for seg in self.segments
            ],
            "warnings": list(self.warnings),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        def show(value: Optional[float]) -> str:
            return "n/a" if value is None else "%.3f" % value

        lines = ["tool: %s  coverage: %.4f" % (self.tool_name, self.coverage)]
        header = "%-12s %-8s %4s %4s %4s %10s %8s" % (
            "segment", "kind", "tp", "fp", "fn", "precision", "recall")
        lines.append(header)
        for seg in self.segments:
            for bug_id, c in seg.per_kind:
                lines.append("%-12s %-8s %4d %4d %4d %10s %8s" % (
                    seg.name, bug_id, c.tp, c.fp, c.fn,
                    show(c.precision()), show(c.recall())))
            c = seg.micro
            lines.append("%-12s %-8s %4d %4d %4d %10s %8s" % (
                seg.name, "micro", c.tp, c.fp, c.fn,
                show(c.precision()), show(c.recall())))
            lines.append("%-12s %-8s %4s %4s %4s %10s %8s" % (
                seg.name, "macro", "", "", "",
                show(seg.macro_precision()), show(seg.macro_recall())))
        for warning in self.warnings:
            lines.append("warning: %s" % warning)
        return "\n".join(lines) + "\n"


def evaluate(tool: ToolReport, manifest: CorpusManifest,
             split_crafted: bool = False) -> MetricsReport:
    """Score a tool report. With split_crafted, crafted entries are also
    scored apart from the rest, exposing detectors that only do well on
    straight-line examples. Each warning is listed once."""
    counts, warnings = _score(tool, manifest, split_crafted)
    segments = tuple(SegmentMetrics(name=name,
                                    per_kind=tuple(sorted(per_kind.items())),
                                    micro=sum(per_kind.values(), ConfusionCounts()))
                     for name, per_kind in counts.items())
    return MetricsReport(tool_name=tool.tool_name,
                         coverage=coverage(tool.claims),
                         segments=segments,
                         warnings=tuple(dict.fromkeys(warnings)))


def self_report(manifest: CorpusManifest) -> ToolReport:
    """Run the built-in detectors over every corpus file and package the
    outcome as a tool report."""
    findings = set()
    paths = [manifest.resolve(entry) for entry in manifest.entries]
    for entry, (error, found) in zip(manifest.entries, scan_files(paths)):
        if error is not None:
            raise error
        findings.update((entry.path, finding.bug_id) for finding in found)
    return ToolReport(tool_name="self",
                      claims=frozenset(DETECTABLE_BUG_IDS),
                      findings=frozenset(findings))


def load_report(path: str) -> ToolReport:
    """Read an external tool report.

    Expected JSON: {"tool_name": ..., "claims": [...], "findings":
    [{"file": ..., "bug_id": ...}]}, plus an optional "id_map" translating
    the tool's native ids to catalog ids. Ids that stay unknown after
    mapping fail validation rather than silently vanishing.
    """
    raw = read_json(path, "tool report")
    problems: List[str] = []
    tool_name = raw.get("tool_name")
    if not isinstance(tool_name, str) or not tool_name:
        problems.append("tool_name must be a non-empty string")
        tool_name = "<unnamed>"
    id_map = raw.get("id_map", {})
    if not isinstance(id_map, dict):
        problems.append("id_map must be an object")
        id_map = {}
    unmappable = sorted(k for k, v in id_map.items() if not isinstance(v, str))
    if unmappable:
        problems.append("id_map: value for %s must be a string" % ", ".join(unmappable))
        id_map = {k: v for k, v in id_map.items() if isinstance(v, str)}
    known = catalog_ids()

    def listed(key: str) -> list:
        value = raw.get(key, [])
        if isinstance(value, list):
            return value
        problems.append("%s must be a list" % key)
        return []

    def translate(bug_id, where: str) -> Optional[str]:
        if not isinstance(bug_id, str):
            problems.append("%s: bug id must be a string" % where)
            return None
        mapped = id_map.get(bug_id, bug_id)
        if mapped not in known:
            problems.append("%s: id %r is not in the catalog and has no mapping"
                            % (where, bug_id))
            return None
        return mapped

    claims = set()
    for bug_id in listed("claims"):
        mapped = translate(bug_id, "claims")
        if mapped:
            claims.add(mapped)
    findings = set()
    for index, item in enumerate(listed("findings")):
        where = "finding %d" % index
        if not isinstance(item, dict) or not isinstance(item.get("file"), str):
            problems.append("%s: needs file and bug_id fields" % where)
            continue
        mapped = translate(item.get("bug_id"), where)
        if mapped:
            findings.add((item["file"], mapped))
    if problems:
        raise InputError(path, "tool report", problems)
    return ToolReport(tool_name=tool_name,
                      claims=frozenset(claims),
                      findings=frozenset(findings))

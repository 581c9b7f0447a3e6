"""Benchmark corpus manifest: loading and validation.

A manifest is a JSON document listing contract files with the bug kinds
planted in them. Validation collects every problem in one pass instead of
stopping at the first, so a broken manifest is fixable in one round.
"""

import os
from enum import Enum
from importlib import resources
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from .inputs import InputError, read_json
from .taxonomy import catalog_ids
from .versions import PragmaConstraint, VersionSyntaxError, parse_constraint


class EntryKind(Enum):
    BUGGY = "buggy"
    FIXED = "fixed"
    CRAFTED = "crafted"


class Origin(Enum):
    UNCHANGED = "unchanged"
    MODIFIED = "modified"
    HANDWRITTEN = "handwritten"


# what a crafted entry predicts a detector will do wrong there
EXPECTATION_VALUES = ("miss", "false-positive")


class CorpusEntry(NamedTuple):
    """One contract file in the corpus.

    labels are the bug kinds actually present; targets are the kinds the
    entry exercises, present or not (a fixed file targets the kind its buggy
    twin carries but no longer labels it). expectations carries predicted
    detector errors for crafted traps, as (bug_id, outcome) pairs.
    """
    path: str
    solidity_versions: PragmaConstraint
    kind: EntryKind
    origin: Origin
    labels: FrozenSet[str]
    targets: FrozenSet[str]
    strategy: Optional[int] = None
    notes: str = ""
    expectations: Tuple[Tuple[str, str], ...] = ()


class CorpusManifest(NamedTuple):
    schema_version: str
    entries: Tuple[CorpusEntry, ...]
    base_dir: str

    def resolve(self, entry: CorpusEntry) -> str:
        return os.path.join(self.base_dir, entry.path)


def _check_ids(raw, label: str, where: str, known: FrozenSet[str],
               problems: List[str]) -> FrozenSet[str]:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        problems.append("%s: %s must be a list of bug ids" % (where, label))
        return frozenset()
    unknown = sorted(set(raw) - known)
    if unknown:
        problems.append("%s: unknown %s id(s) %s" % (where, label, ", ".join(unknown)))
    return frozenset(raw) & known


def load_manifest(path: str) -> CorpusManifest:
    """Load and validate a manifest, raising InputError with every problem
    found. Each listed file must exist and be readable beside it."""
    raw = read_json(path, "manifest")
    problems: List[str] = []
    base_dir = os.path.dirname(os.path.abspath(path))
    known = catalog_ids()

    schema_version = raw.get("schema_version")
    if schema_version != "1":
        problems.append("unsupported schema_version %r" % (schema_version,))
    raw_entries = raw.get("entries")
    if not isinstance(raw_entries, list):
        raise InputError(path, "manifest", problems + ["entries must be a list"])

    entries: List[CorpusEntry] = []
    seen_paths: set = set()
    for index, item in enumerate(raw_entries):
        where = "entry %d" % index
        if not isinstance(item, dict):
            problems.append("%s: not an object" % where)
            continue
        entry_path = item.get("path")
        has_path = isinstance(entry_path, str) and entry_path != ""
        if has_path:
            where = entry_path
            if entry_path in seen_paths:
                problems.append("%s: duplicate path" % where)
            seen_paths.add(entry_path)
        else:
            problems.append("%s: %s" % (where, "missing path" if entry_path is None
                                          else "path must be a non-empty string"))
            entry_path = "<entry %d>" % index

        versions = item.get("solidity_versions", "*")
        constraint = PragmaConstraint()
        if not isinstance(versions, str):
            problems.append("%s: solidity_versions must be a string" % where)
        else:
            try:
                constraint = parse_constraint(versions)
            except VersionSyntaxError as exc:
                problems.append("%s: bad solidity_versions: %s" % (where, exc))

        try:
            kind = EntryKind(item.get("kind"))
        except ValueError:
            problems.append("%s: unknown kind %r" % (where, item.get("kind")))
            kind = EntryKind.BUGGY
        try:
            origin = Origin(item.get("origin"))
        except ValueError:
            problems.append("%s: unknown origin %r" % (where, item.get("origin")))
            origin = Origin.HANDWRITTEN

        strategy = item.get("strategy")
        if kind is EntryKind.CRAFTED:
            if type(strategy) is not int or not 1 <= strategy <= 3:
                problems.append("%s: crafted entry needs strategy 1..3, got %r"
                                  % (where, strategy))
                strategy = None
        elif strategy is not None:
            problems.append("%s: strategy only applies to crafted entries" % where)
            strategy = None

        labels = _check_ids(item.get("labels", []), "label", where, known, problems)
        if "targets" in item:
            targets = _check_ids(item["targets"], "target", where, known, problems)
        else:
            targets = labels
        if kind is EntryKind.FIXED and labels & targets:
            problems.append("%s: fixed entry still labels its target kind(s) %s"
                              % (where, ", ".join(sorted(labels & targets))))

        expectations: List[Tuple[str, str]] = []
        raw_exp = item.get("expectations", {})
        if not isinstance(raw_exp, dict):
            problems.append("%s: expectations must be an object" % where)
            raw_exp = {}
        for bug_id in sorted(raw_exp):
            outcome = raw_exp[bug_id]
            if bug_id not in known:
                problems.append("%s: expectation for unknown id %s" % (where, bug_id))
            elif outcome not in EXPECTATION_VALUES:
                problems.append("%s: expectation for %s must be one of %s, got %r"
                                  % (where, bug_id, "/".join(EXPECTATION_VALUES), outcome))
            else:
                expectations.append((bug_id, outcome))

        notes = item.get("notes", "")
        if not isinstance(notes, str):
            problems.append("%s: notes must be a string" % where)
            notes = ""

        if has_path:
            full = os.path.join(base_dir, entry_path)
            if not os.path.isfile(full):
                problems.append("%s: file not found under %s" % (where, base_dir))
            else:
                try:
                    with open(full, "rb") as fh:
                        fh.read()
                except OSError as exc:
                    problems.append("%s: unreadable: %s" % (where, exc))

        entries.append(CorpusEntry(
            path=entry_path,
            solidity_versions=constraint,
            kind=kind,
            origin=origin,
            labels=labels,
            targets=targets,
            strategy=strategy,
            notes=notes,
            expectations=tuple(expectations),
        ))

    if problems:
        raise InputError(path, "manifest", problems)
    entries.sort(key=lambda e: e.path)
    return CorpusManifest(schema_version=schema_version,
                          entries=tuple(entries),
                          base_dir=base_dir)


def default_manifest_path() -> str:
    """Path of the corpus shipped inside the package."""
    return str(resources.files("solbuglab").joinpath("data/corpus/manifest.json"))

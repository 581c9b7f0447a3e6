"""Bug kind catalog, severity rubric, and cross-source record merging.

The catalog ships as packaged JSON and is loaded once per process. Severity
is not stored opinion: every kind carries its effect set, and its severity is
what grade_severity() makes of that set.
"""

import json
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple

from .versions import ANY_VERSION, PragmaConstraint, parse_constraint


class Severity(Enum):
    CRITICAL = "Critical"
    HIGH = "High"
    MIDDLE = "Middle"
    LOW = "Low"


class EffectClass(Enum):
    FUNCTIONALITY = "functionality"
    PERFORMANCE = "performance"
    SECURITY = "security"
    SERVICEABILITY = "serviceability"


class Certainty(Enum):
    MAY = "may"
    MUST = "must"


Effect = Tuple[EffectClass, Certainty]


class UngradeableEffectsError(ValueError):
    """No rubric row matches the given effect set."""


# Rubric rows in grade order; the first row whose trigger effect is present
# decides the severity.
_RUBRIC: Tuple[Tuple[Severity, Tuple[Effect, ...]], ...] = (
    (Severity.CRITICAL, ((EffectClass.SECURITY, Certainty.MUST),)),
    (Severity.HIGH, ((EffectClass.SECURITY, Certainty.MAY),
                     (EffectClass.FUNCTIONALITY, Certainty.MUST))),
    (Severity.MIDDLE, ((EffectClass.FUNCTIONALITY, Certainty.MAY),
                       (EffectClass.PERFORMANCE, Certainty.MUST))),
    (Severity.LOW, ((EffectClass.PERFORMANCE, Certainty.MAY),
                    (EffectClass.SERVICEABILITY, Certainty.MUST))),
)


def grade_severity(effects: Iterable[Effect]) -> Severity:
    """Grade an effect set, worst matching rubric row first.

    Raises UngradeableEffectsError when the set is empty or no row matches
    (for example a lone serviceability/may effect), rather than guessing.
    """
    effect_set = set(effects)
    for pair in effect_set:
        if (not isinstance(pair, tuple) or len(pair) != 2
                or not isinstance(pair[0], EffectClass)
                or not isinstance(pair[1], Certainty)):
            raise TypeError("effects must be (EffectClass, Certainty) pairs, got %r" % (pair,))
    for severity, triggers in _RUBRIC:
        if any(trigger in effect_set for trigger in triggers):
            return severity
    raise UngradeableEffectsError(
        "no severity rule matches effect set %s"
        % sorted((c.value, m.value) for c, m in effect_set))


class Category(NamedTuple):
    id: str
    name: str
    definition: str


class BugKind(NamedTuple):
    id: str
    display_name: str
    category: str
    severity: Severity
    effects: FrozenSet[Effect]
    affected_versions: PragmaConstraint
    criteria_text: str
    name_source: str  # "documented" or "expanded"


class CatalogError(ValueError):
    """The packaged catalog file is malformed."""


def _load_raw() -> dict:
    path = resources.files("solbuglab").joinpath("data/bug_catalog.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _parse_effect(raw: Sequence[str]) -> Effect:
    if len(raw) != 2:
        raise CatalogError("effect must be a [class, certainty] pair, got %r" % (raw,))
    try:
        return (EffectClass(raw[0]), Certainty(raw[1]))
    except ValueError as exc:
        raise CatalogError(str(exc)) from None


@lru_cache(maxsize=1)
def _catalog() -> Tuple[Tuple[Category, ...], Tuple[BugKind, ...], Dict[str, BugKind]]:
    raw = _load_raw()
    cats = tuple(Category(id=c["id"], name=c["name"], definition=c["definition"])
                 for c in raw["categories"])
    cat_ids = {c.id for c in cats}
    if len(cat_ids) != len(cats):
        raise CatalogError("duplicate category ids")
    kinds: List[BugKind] = []
    seen = set()
    for entry in raw["kinds"]:
        bug_id = entry["id"]
        if bug_id in seen:
            raise CatalogError("duplicate bug id %s" % bug_id)
        seen.add(bug_id)
        if entry["category"] not in cat_ids:
            raise CatalogError("%s names unknown category %s" % (bug_id, entry["category"]))
        if bug_id.split("-")[0] != entry["category"]:
            raise CatalogError("%s is filed under category %s" % (bug_id, entry["category"]))
        effects = frozenset(_parse_effect(e) for e in entry["effects"])
        raw_versions = entry.get("affected_versions")
        affected = ANY_VERSION if raw_versions is None else parse_constraint(raw_versions)
        if entry["name_source"] not in ("documented", "expanded"):
            raise CatalogError("%s has unknown name_source %r" % (bug_id, entry["name_source"]))
        kinds.append(BugKind(
            id=bug_id,
            display_name=entry["display_name"],
            category=entry["category"],
            severity=grade_severity(effects),
            effects=effects,
            affected_versions=affected,
            criteria_text=entry["criteria_text"],
            name_source=entry["name_source"],
        ))
    return cats, tuple(kinds), {kind.id: kind for kind in kinds}


def categories() -> Tuple[Category, ...]:
    return _catalog()[0]


def catalog() -> Tuple[BugKind, ...]:
    return _catalog()[1]


def catalog_ids() -> FrozenSet[str]:
    return frozenset(kind.id for kind in catalog())


def kind_by_id(bug_id: str) -> BugKind:
    """The kind with id ``bug_id``; KeyError when there is none."""
    return _catalog()[2][bug_id]


def kinds_in_category(category_id: str) -> Tuple[BugKind, ...]:
    return tuple(kind for kind in catalog() if kind.category == category_id)


# --- merging bug records from multiple sources ---------------------------

class BugRecord(NamedTuple):
    """One source's description of a bug kind.

    behavior is the observable faulty behavior; consequence is the set of
    outcomes the source attributes to it. aliases accumulates the names a
    merged record absorbed; renamed marks records whose name no longer
    matches any single source.
    """
    source: str
    name: str
    behavior: str
    consequence: FrozenSet[str] = frozenset()
    aliases: Tuple[str, ...] = ()
    renamed: bool = False


def normalize_behavior(text: str) -> str:
    """Whitespace-insensitive, case-insensitive key for behavior equality."""
    return " ".join(text.lower().split())


def _norm_consequence(consequence: Iterable[str]) -> FrozenSet[str]:
    return frozenset(normalize_behavior(c) for c in consequence)


def merge_records(records: Iterable[BugRecord]) -> List[BugRecord]:
    """Merge records that describe the same behavior.

    Records with differing behaviors never interact. Records agreeing on
    behavior and consequence collapse to one, keeping the lexicographically
    smallest name. Records agreeing on behavior but not consequence collapse
    the same way but with the consequences unioned and renamed set, marking
    that the kept name belongs to only one of the sources. Either way every
    contributing name lands in aliases. The result is sorted by behavior key
    and independent of input order and of repeated application.
    """
    groups: Dict[str, List[BugRecord]] = {}
    for record in records:
        groups.setdefault(normalize_behavior(record.behavior), []).append(record)

    merged: List[BugRecord] = []
    for key in sorted(groups):
        group = groups[key]
        if len(group) == 1:
            merged.append(group[0])
            continue
        names = sorted({r.name for r in group})
        alias_pool = sorted(set(names).union(*(r.aliases for r in group)))
        sources = "; ".join(sorted({r.source for r in group}))
        consequences = {_norm_consequence(r.consequence) for r in group}
        name = names[0]
        if len(consequences) == 1:
            consequence = next(iter(consequences))
            renamed = any(r.renamed for r in group)
        else:
            consequence = frozenset().union(*consequences)
            renamed = True
        merged.append(BugRecord(
            source=sources,
            name=name,
            behavior=key,
            consequence=consequence,
            aliases=tuple(alias_pool),
            renamed=renamed,
        ))
    merged.sort(key=lambda r: normalize_behavior(r.behavior))
    return merged

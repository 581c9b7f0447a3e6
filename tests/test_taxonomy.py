"""Catalog shape, severity rubric, and record merging."""

import random

import pytest

from solbuglab import taxonomy
from solbuglab.detectors import DETECTABLE_BUG_IDS
from solbuglab.taxonomy import (
    BugRecord,
    Certainty,
    EffectClass,
    Severity,
    UngradeableEffectsError,
    grade_severity,
    merge_records,
)


def test_catalog_counts():
    kinds = taxonomy.catalog()
    assert len(kinds) == 49
    assert len(taxonomy.categories()) == 9
    per_category = {}
    for kind in kinds:
        per_category[kind.category] = per_category.get(kind.category, 0) + 1
    assert per_category == {"A": 10, "B": 1, "C": 2, "D": 5, "E": 5,
                            "F": 8, "G": 4, "H": 7, "I": 7}


def test_severity_distribution():
    tally = {}
    for kind in taxonomy.catalog():
        tally[kind.severity] = tally.get(kind.severity, 0) + 1
    assert tally == {Severity.CRITICAL: 4, Severity.HIGH: 24,
                     Severity.MIDDLE: 16, Severity.LOW: 5}


@pytest.mark.parametrize("bug_id,severity", [
    ("D-a-R", Severity.CRITICAL),
    ("D-b-L", Severity.CRITICAL),
    ("H-a-S", Severity.CRITICAL),
    ("H-a-WC", Severity.CRITICAL),
    ("A-a-IO", Severity.HIGH),
    ("E-a-SA", Severity.HIGH),
    ("F-c-T", Severity.MIDDLE),
    ("C-a-U", Severity.MIDDLE),
    ("G-a-B", Severity.LOW),
    ("I-a-UD", Severity.LOW),
])
def test_severity_spot_checks(bug_id, severity):
    assert taxonomy.kind_by_id(bug_id).severity is severity


def test_version_gates_in_catalog():
    gated = {k.id: k.affected_versions for k in taxonomy.catalog()
             if not k.affected_versions.is_unbounded()}
    assert set(gated) == {"A-a-W", "A-c-US"}
    for constraint in gated.values():
        assert constraint.contains((0, 4, 26))
        assert not constraint.contains((0, 4, 27))


def test_unique_display_names():
    names = [k.display_name for k in taxonomy.catalog()]
    assert len(set(names)) == len(names)


def test_name_sources():
    documented = {k.id for k in taxonomy.catalog() if k.name_source == "documented"}
    assert documented == set(DETECTABLE_BUG_IDS)


@pytest.mark.parametrize("effects,severity", [
    ({(EffectClass.SECURITY, Certainty.MUST)}, Severity.CRITICAL),
    ({(EffectClass.SECURITY, Certainty.MAY)}, Severity.HIGH),
    ({(EffectClass.FUNCTIONALITY, Certainty.MUST)}, Severity.HIGH),
    ({(EffectClass.FUNCTIONALITY, Certainty.MAY)}, Severity.MIDDLE),
    ({(EffectClass.PERFORMANCE, Certainty.MUST)}, Severity.MIDDLE),
    ({(EffectClass.PERFORMANCE, Certainty.MAY)}, Severity.LOW),
    ({(EffectClass.SERVICEABILITY, Certainty.MUST)}, Severity.LOW),
    # worst effect wins regardless of what else is present
    ({(EffectClass.SERVICEABILITY, Certainty.MUST),
      (EffectClass.SECURITY, Certainty.MUST)}, Severity.CRITICAL),
    ({(EffectClass.FUNCTIONALITY, Certainty.MUST),
      (EffectClass.SECURITY, Certainty.MAY)}, Severity.HIGH),
])
def test_grade_severity_rubric(effects, severity):
    assert grade_severity(effects) is severity


def test_ungradeable_effect_sets_raise():
    with pytest.raises(UngradeableEffectsError):
        grade_severity(set())
    with pytest.raises(UngradeableEffectsError):
        grade_severity({(EffectClass.SERVICEABILITY, Certainty.MAY)})
    with pytest.raises(TypeError):
        grade_severity({("security", "must")})


# --- merging -------------------------------------------------------------

def rec(source, name, behavior, *consequence):
    return BugRecord(source=source, name=name, behavior=behavior,
                     consequence=frozenset(consequence))


def test_merge_distinct_behaviors_untouched():
    a = rec("s1", "Locked Funds", "no withdraw path", "lockup")
    b = rec("s2", "Replay", "missing nonce", "double spend")
    merged = merge_records([a, b])
    assert sorted(r.name for r in merged) == ["Locked Funds", "Replay"]
    assert all(not r.renamed for r in merged)


def test_merge_identical_keeps_smallest_name():
    a = rec("s1", "Reentrancy", "call before state update", "theft")
    b = rec("s2", "Recursive Call", "Call Before State Update", "theft")
    merged = merge_records([a, b])
    assert len(merged) == 1
    out = merged[0]
    assert out.name == "Recursive Call"
    assert out.renamed is False
    assert out.aliases == ("Recursive Call", "Reentrancy")
    assert out.source == "s1; s2"
    assert out.behavior == "call before state update"


def test_merge_conflicting_consequences_unions_and_flags():
    a = rec("s1", "Reentrancy", "call before state update", "theft")
    b = rec("s2", "Recursive Call", "call before state update", "lockup")
    merged = merge_records([a, b])
    assert len(merged) == 1
    out = merged[0]
    assert out.renamed is True
    assert out.consequence == frozenset({"theft", "lockup"})
    assert set(out.aliases) == {"Reentrancy", "Recursive Call"}


def test_merge_singleton_passes_through():
    a = rec("s1", "Weird", "Some  Behavior", "x")
    merged = merge_records([a])
    assert merged == [a]  # untouched, original spacing preserved


def _random_records(rng):
    behaviors = ["call before update", "missing nonce", "unchecked send",
                 "strict balance test"]
    names = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon"]
    consequences = ["theft", "lockup", "griefing", "stall"]
    records = []
    for _ in range(rng.randrange(1, 12)):
        behavior = rng.choice(behaviors)
        # jitter case and spacing; normalization must see through it
        if rng.random() < 0.5:
            behavior = behavior.upper()
        if rng.random() < 0.3:
            behavior = behavior.replace(" ", "  ")
        records.append(BugRecord(
            source="s%d" % rng.randrange(4),
            name=rng.choice(names),
            behavior=behavior,
            consequence=frozenset(rng.sample(consequences,
                                             rng.randrange(0, 3))),
        ))
    return records


def test_merge_idempotent_and_order_free():
    rng = random.Random(4242)
    for _ in range(60):
        records = _random_records(rng)
        merged = merge_records(records)
        assert merge_records(merged) == merged
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert merge_records(shuffled) == merged
        # one record per behavior key afterwards
        keys = [taxonomy.normalize_behavior(r.behavior) for r in merged]
        assert len(keys) == len(set(keys))

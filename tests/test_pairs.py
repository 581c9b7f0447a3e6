"""``tools/pairs.py``'s summary of paired benchmark runs, on made-up runs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "tools", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load_tool()

PARENT = [0.50, 0.52, 0.54, 0.56, 0.58, 0.50, 0.52, 0.54, 0.56, 0.58]


def _runs(name, values):
    return [{name: v} for v in values]


def _row(better, parent, change, bound=0.25):
    metric = pairs.Metric("m", "ms", better, bound)
    (row,) = pairs.summarize([metric], _runs("m", parent), _runs("m", change))
    return row


def test_quartiles_wins_and_a_gain():
    change = [v - 0.1 for v in PARENT]
    change[3] = 0.6  # one lost pair still leaves nine of ten
    row = _row("lower", PARENT, change)
    assert row.parent == pytest.approx((0.515, 0.54, 0.565))
    assert row.wins == 9 and row.pairs == 10
    assert row.verdict == "gain"


def test_eight_wins_in_ten_are_no_gain():
    change = [v - 0.1 for v in PARENT]
    change[3] = change[4] = 0.6
    assert _row("lower", PARENT, change).verdict == "within bound"


def test_a_gap_inside_the_parent_spread_is_no_gain():
    assert _row("lower", PARENT, [v - 0.01 for v in PARENT]).verdict == "within bound"


def test_ties_count_for_neither_side():
    row = _row("lower", PARENT, list(PARENT))
    assert row.wins == 0
    assert row.verdict == "within bound"


def test_higher_is_better_turns_the_comparison():
    up = _row("higher", PARENT, [v + 0.1 for v in PARENT])
    assert up.wins == 10 and up.verdict == "gain"
    down = _row("higher", PARENT, [v * 0.5 for v in PARENT])
    assert down.wins == 0 and down.verdict == "worse"


def test_worse_beyond_the_bound_of_the_parent_median():
    assert _row("lower", PARENT, [v * 1.3 for v in PARENT]).verdict == "worse"
    assert _row("lower", PARENT, [v * 1.2 for v in PARENT]).verdict == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert _row("lower", wide, [1.5] * 10, bound=0.1).verdict == "unresolved"
    # unless every run of the change beats every run of the parent
    assert _row("lower", wide, [0.95] * 10, bound=0.1).verdict == "within bound"


def test_table_has_one_line_per_metric():
    metrics = [pairs.Metric("a_s", "s", "lower", 0.25), pairs.Metric("b", "KB/s", "higher", 0.25)]
    runs = [{"a_s": v, "b": 1 / v} for v in PARENT]
    table = pairs.format_rows(pairs.summarize(metrics, runs, runs))
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[2].startswith("| a_s (s) | 0.54 (0.515-0.565) |")
    assert lines[3].startswith("| b (KB/s) |")

"""Byte-for-byte CLI output on the bundled corpus and catalog.

Each case runs the CLI in-process from the corpus directory, so scanned
paths are relative, and compares stdout with ``tests/golden/<case>.out``.
``scan_non_ascii_json`` runs from ``tests/golden`` instead and scans
``non_ascii.sol``: multi-byte text in identifiers, comments and strings and
one byte that is not UTF-8, so finding spans pin the byte offsets end to
end. ``scan_rules_json`` also runs there and scans ``rules.sol``: two
contracts, every function-level rule firing in more than one function, and
``=+`` at file level, in a state-variable initializer and in a modifier, so
the contract and function each finding is filed under are pinned.
``merge_*`` merge ``records.json``: two records with the same behaviour but
different consequences, three names for one behaviour, and a lone record.
``bench_tool_*`` score ``tool_report.json``, which maps native ids, repeats
a finding, and has findings on an unclaimed kind and on a file outside the
corpus, so tool reports, merged records and the scoring records are pinned
too. Every case exits 0 with nothing on stderr. After an intended output change,
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""

import contextlib
import io
import os
import sys

import pytest

from solbuglab import cli
from solbuglab.corpus import default_manifest_path

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
TOOL_REPORT = os.path.join(GOLDEN_DIR, "tool_report.json")

CASES = {
    "scan_json": ["scan", "--format", "json", "contracts"],
    "scan_text": ["scan", "contracts"],
    "bench_json": ["bench", "--split-crafted", "--format", "json"],
    "bench_text": ["bench", "--split-crafted"],
    "catalog_json": ["catalog", "--format", "json"],
    "catalog_text": ["catalog"],
    "catalog_list_json": ["catalog", "--list", "--format", "json"],
    "catalog_list_text": ["catalog", "--list"],
    "catalog_kind_json": ["catalog", "--kind", "A-a-W", "--format", "json"],
    "catalog_kind_text": ["catalog", "--kind", "A-a-W"],
    "catalog_category_json": ["catalog", "--category", "A", "--format", "json"],
    "catalog_category_text": ["catalog", "--category", "A"],
    "scan_non_ascii_json": ["scan", "--format", "json", "non_ascii.sol"],
    "scan_rules_json": ["scan", "--format", "json", "rules.sol"],
    "merge_json": ["merge", "records.json"],
    "merge_text": ["merge", "records.json", "--format", "text"],
    "bench_tool_json": ["bench", "--split-crafted", "--tool", TOOL_REPORT,
                        "--format", "json"],
    "bench_tool_text": ["bench", "--split-crafted", "--tool", TOOL_REPORT],
}
# Cases that run somewhere other than the corpus directory.
CWD = {"scan_non_ascii_json": GOLDEN_DIR, "scan_rules_json": GOLDEN_DIR,
       "merge_json": GOLDEN_DIR, "merge_text": GOLDEN_DIR}


def _run(case):
    """(exit code, stdout, stderr) of one case's CLI run."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CWD.get(case) or os.path.dirname(default_manifest_path()))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(CASES[case])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case):
    code, out, err = _run(case)
    with open(os.path.join(GOLDEN_DIR, case + ".out"), "r", encoding="utf-8",
              newline="") as handle:
        expected = handle.read()
    assert (code, err) == (0, "")
    assert out == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in CASES:
        code, out, err = _run(name)
        if (code, err) != (0, ""):
            sys.exit("%s: exit %d, stderr %r" % (name, code, err))
        with open(os.path.join(GOLDEN_DIR, name + ".out"), "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(out)

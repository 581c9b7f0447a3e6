"""The contract every record type keeps as a ``NamedTuple``.

Records are immutable tuples with fixed, named fields: they compare and hash
by value and pickle through the runner's pipe.  The field lists are pinned
here, so a renamed, dropped or reordered field fails.  Only
``detectors.DetectorEntry`` stays a dataclass; a record that turns back into
one would add its class-creation cost to every command's start-up.
"""

import os
import pickle
import subprocess
import sys

import pytest

from solbuglab import collector, corpus, detectors, evaluation, model, taxonomy, versions
from solbuglab.parser import parse

FIELDS = {
    model.CallDetail: ("callee", "member", "carries_value", "gas_specified",
                       "payload_empty"),
    model.AssignDetail: ("lhs", "rhs", "lhs_base", "lhs_is_state_var"),
    model.VarDecl: ("name", "type_text", "type_class", "storage_location",
                    "has_initializer", "span"),
    model.Guard: ("kind", "condition", "span"),
    model.Stmt: ("kind", "span", "text", "call", "assign", "decl", "tokens"),
    model.FunctionDecl: ("name", "params", "visibility", "body", "span", "body_span",
                         "is_fallback", "has_body", "guards"),
    model.ContractDecl: ("name", "kind", "state_vars", "functions", "span"),
    model.Diagnostic: ("message", "span"),
    model.SourceModel: ("file_path", "pragma", "contracts", "diagnostics", "tokens"),
    versions.PragmaConstraint: ("raw_text", "lower", "upper"),
    taxonomy.Category: ("id", "name", "definition"),
    taxonomy.BugKind: ("id", "display_name", "category", "severity", "effects",
                       "affected_versions", "criteria_text", "name_source"),
    taxonomy.BugRecord: ("source", "name", "behavior", "consequence", "aliases",
                         "renamed"),
    detectors.Finding: ("bug_id", "file", "contract", "function", "span", "message"),
    corpus.CorpusEntry: ("path", "solidity_versions", "kind", "origin", "labels",
                         "targets", "strategy", "notes", "expectations"),
    corpus.CorpusManifest: ("schema_version", "entries", "base_dir"),
    evaluation.ToolReport: ("tool_name", "claims", "findings"),
    evaluation.ConfusionCounts: ("tp", "fp", "fn"),
    evaluation.SegmentMetrics: ("name", "per_kind", "micro"),
    evaluation.MetricsReport: ("tool_name", "coverage", "segments", "warnings"),
    collector.WatchConfig: ("keywords", "interval_days", "endpoint", "token_env",
                            "state_path", "notify", "per_page", "max_pages",
                            "max_retries"),
    collector.ProjectSnapshot: ("project_id", "last_update", "matched_keyword"),
    collector.ChangeSet: ("added", "updated", "removed"),
    collector.CycleResult: ("status", "changes", "checked_at"),
}

SOURCE = """pragma solidity ^0.4.24;
contract C {
    uint total;
    function f(int x) public returns (uint) {
        total += 1;
        return uint(x);
    }
}
"""


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_record_is_a_tuple_with_pinned_fields(cls):
    assert issubclass(cls, tuple)
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_record_is_immutable_and_compares_by_value(cls):
    record = cls(*range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    twin = cls(**{name: value for value, name in enumerate(cls._fields)})
    assert record == twin and hash(record) == hash(twin)
    assert record._replace(**{cls._fields[0]: -1}) != record


def test_finding_survives_a_pickle_round_trip():
    findings = detectors.detect_all(parse(SOURCE, "c.sol"))
    assert findings
    for finding in findings:
        again = pickle.loads(pickle.dumps(finding))
        assert again == finding and type(again) is detectors.Finding


def test_repr_leaves_out_tokens():
    source_model = parse(SOURCE, "c.sol")
    stmt = source_model.contracts[0].functions[0].body[0]
    assert stmt.tokens and source_model.tokens
    for record in (stmt, source_model):
        text = repr(record)
        assert text.startswith(type(record).__name__ + "(")
        assert "tokens" not in text and "Token(" not in text
    assert repr(stmt).startswith("Stmt(kind=<StmtKind.")
    assert "span=%r, text=%r" % (stmt.span, stmt.text) in repr(stmt)
    assert "diagnostics=()" in repr(source_model)


def test_only_the_detector_entry_is_a_dataclass():
    probe = (
        "import sys\n"
        "from solbuglab import cli, collector, corpus, evaluation\n"
        "print(*sorted('%s.%s' % (name, attr)\n"
        "              for name, module in list(sys.modules.items())\n"
        "              if name.startswith('solbuglab')\n"
        "              for attr, value in vars(module).items()\n"
        "              if isinstance(value, type) and value.__module__ == name\n"
        "              and '__dataclass_fields__' in vars(value)))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(detectors.__file__)))
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["solbuglab.detectors.DetectorEntry"]

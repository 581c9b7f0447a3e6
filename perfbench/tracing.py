"""In-memory spans around the public calls into each solbuglab layer.

Spans are recorded from the benchmark's side only: ``Tracer.install``
replaces the public functions in every loaded ``solbuglab`` module that
binds them, and ``Tracer.remove`` puts the originals back.  The program's
own files are not changed.

A span is ``[name, start, end, parent, file, counts]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``file`` identifies the source
file the call works on (inherited from the parent when the call does not
name one), and ``counts`` holds what the call produced, recorded at the
same boundary.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, FILE, COUNTS = range(6)


def _model_counts(model) -> Dict[str, int]:
    functions = [fn for c in model.contracts for fn in c.functions]
    return {
        "contracts": len(model.contracts),
        "functions": len(functions),
        "stmts": sum(len(fn.body) for fn in functions),
        "guards": sum(len(fn.guards) for fn in functions),
        "diagnostics": len(model.diagnostics),
        "bytes": model.tokens[-1].end if model.tokens else 0,
    }


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable, file_of: Optional[Callable] = None,
              count: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            file_id = file_of(*args, **kwargs) if file_of else (
                spans[parent][FILE] if parent >= 0 else None)
            index = len(spans)
            span = [name, 0.0, 0.0, parent, file_id, None]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(result)
            return result

        return traced

    def _replace_everywhere(self, original: Callable, replacement: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("solbuglab") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append(lambda m=module, a=attr, v=value: setattr(m, a, v))

    def install(self) -> None:
        """Wrap the public layer functions of an imported solbuglab."""
        from solbuglab import cli, corpus, detectors, evaluation, lexer, parser

        def path_arg(path, *_, **__):
            return path

        def source_path_arg(source, file_path="<string>", *_, **__):
            return file_path

        def model_arg(model, *_, **__):
            return model.file_path

        wraps = (
            (lexer.lex, "lexer.lex", None, lambda toks: {"tokens": len(toks)}),
            (parser.parse, "parser.parse", source_path_arg, _model_counts),
            (parser.parse_file, "parser.parse_file", path_arg, _model_counts),
            (detectors.detect_all, "detectors.detect_all", model_arg,
             lambda found: {"findings": len(found)}),
            (detectors.version_applies, "versions.version_applies", None,
             lambda applies: {"gated": int(not applies)}),
            (corpus.load_manifest, "corpus.load_manifest", path_arg,
             lambda manifest: {"entries": len(manifest.entries)}),
            (evaluation.self_report, "evaluation.self_report", None, None),
            (evaluation.evaluate, "evaluation.evaluate", None, None),
            (cli.main, "cli.main", None, None),
        )
        for original, name, file_of, count in wraps:
            self._replace_everywhere(original, self._wrap(name, original, file_of, count))
        for bug_id, entry in list(detectors.DETECTORS.items()):
            rule = self._wrap("detectors." + bug_id, entry.rule, model_arg,
                              lambda found: {"findings": len(found)})
            detectors.DETECTORS[bug_id] = dataclasses.replace(entry, rule=rule)
            self._undo.append(lambda k=bug_id, e=entry: detectors.DETECTORS.__setitem__(k, e))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


# --- deriving layer numbers from spans -------------------------------------

def subtree(spans: List[list], root: int) -> List[int]:
    """Indexes of root and every span below it (spans are in start order)."""
    inside = {root}
    out = [root]
    for i in range(root + 1, len(spans)):
        if spans[i][PARENT] in inside:
            inside.add(i)
            out.append(i)
        elif spans[i][START] >= spans[root][END]:
            break
    return out


def duration(span: list) -> float:
    return span[END] - span[START]


def self_time(spans: List[list], index: int, members: List[int]) -> float:
    children = sum(duration(spans[i]) for i in members if spans[i][PARENT] == index)
    return duration(spans[index]) - children


def total(spans: List[list], members: List[int], name: str) -> float:
    return sum(duration(spans[i]) for i in members if spans[i][NAME] == name)


def count(spans: List[list], members: List[int], name: str, key: str) -> int:
    return sum((spans[i][COUNTS] or {}).get(key, 0) for i in members
               if spans[i][NAME] == name)


def calls(spans: List[list], members: List[int], name: str) -> int:
    return sum(1 for i in members if spans[i][NAME] == name)


def scan_layers(spans: List[list], root: int, detector_ids) -> Dict[str, float]:
    """Per-layer numbers of one traced ``cli.main(["scan", ...])`` call."""
    members = subtree(spans, root)
    out: Dict[str, float] = {
        "read.files": calls(spans, members, "parser.parse_file"),
        "read.kb": count(spans, members, "parser.parse_file", "bytes") / 1024,
        "lexer.lex_s": total(spans, members, "lexer.lex"),
        "lexer.tokens": count(spans, members, "lexer.lex", "tokens"),
        "parser.self_s": sum(self_time(spans, i, members) for i in members
                             if spans[i][NAME] == "parser.parse"),
    }
    for key in ("contracts", "functions", "stmts", "guards", "diagnostics"):
        out["parser." + key] = count(spans, members, "parser.parse", key)
    for bug_id in detector_ids:
        name = "detectors." + bug_id
        out[name + ".s"] = total(spans, members, name)
        out[name + ".findings"] = count(spans, members, name, "findings")
    out["detectors.detect_all_s"] = total(spans, members, "detectors.detect_all")
    out["detectors.gated_rules"] = count(spans, members, "versions.version_applies", "gated")
    out["cli.scan_s"] = duration(spans[root])
    out["cli.report_self_s"] = duration(spans[root]) - sum(
        duration(spans[i]) for i in members
        if spans[i][PARENT] == root
        and spans[i][NAME] in ("parser.parse_file", "detectors.detect_all"))
    return out


def bench_layers(spans: List[list], root: int) -> Dict[str, float]:
    """Per-layer numbers of one traced ``cli.main(["bench", ...])`` call."""
    members = subtree(spans, root)
    entries = count(spans, members, "corpus.load_manifest", "entries")
    return {
        "corpus.load_manifest_s": total(spans, members, "corpus.load_manifest"),
        "corpus.entries": entries,
        "evaluation.self_report_s": total(spans, members, "evaluation.self_report"),
        "evaluation.evaluate_s": total(spans, members, "evaluation.evaluate"),
        "evaluation.parses_per_entry": (calls(spans, members, "parser.parse") / entries
                                        if entries else 0.0),
    }


def median_by_key(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}

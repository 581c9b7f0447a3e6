"""Lexical bug detectors over the structural source model.

Each rule is a pure function from a SourceModel to findings.  Rules match
surface patterns, not semantics: a guard that merely looks like a fix
suppresses a finding, and a fix the rule cannot see lexically does not.
That trade-off is the point; the labeled corpus measures it.

Detectors of kinds the catalog ties to a compiler-version range only run
when the file's pragma intersects that range; a missing or unparseable
pragma counts as "could be any version" and enables them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .lexer import TokenKind
from .model import (
    FunctionDecl,
    Guard,
    SourceModel,
    Span,
    Stmt,
    StmtKind,
    StorageLocation,
    TypeClass,
    Visibility,
)
from .taxonomy import kind_by_id
from .versions import version_applies


@dataclass(frozen=True)
class Finding:
    bug_id: str
    file: str
    contract: str
    function: str
    span: Span
    message: str

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.file, self.span[0], self.bug_id)


class UnknownRuleError(ValueError):
    """detect_all was asked for a bug id with no registered rule."""


def _nospace(text: str) -> str:
    return "".join(text.split())


_GLUE_RE = re.compile(r"\s*([.\[\](),;])\s*")


def _snippet(text: str) -> str:
    """Reattach punctuation the token join spaced out, for messages."""
    return _GLUE_RE.sub(r"\1", text)


def _anchor(stmt: Stmt) -> Span:
    if stmt.tokens:
        return (stmt.tokens[0].start, stmt.tokens[-1].end)
    return stmt.span


# Guards compare an operand against zero in three families: an order op
# against 0 (A-a-IS), ==/!= against the zero address (E-a-SW) and == against
# 0 (F-c-T).  Per family, the first pattern finds ``operand OP zero`` and the
# rest ``zero OP operand`` in a condition with whitespace removed; they are
# zero-width, so overlapping comparisons are found too.  Group 1 is the operand's word run
# next to the operator.  In ``0>=x`` the operand is ``x`` after ``>=`` and
# ``=x`` after ``>``, hence two order patterns.
_ZERO_ADDR = r"(?:address\(0(?:x0+)?\)|0x0+(?![\w$]))"
ORDER_VS_ZERO = (re.compile(r"(?<![\w$])(?=([\w$]*)(?:>=|<=|>|<)0(?![\w.]))"),
                 re.compile(r"(?<![\w.])(?=0[<>]([\w$]*))"),
                 re.compile(r"(?<![\w.])(?=0[<>]=([\w$]*))"))
ADDRESS_VS_ZERO = (re.compile(rf"(?<![\w$])(?=([\w$]*)(?:==|!=){_ZERO_ADDR})"),
                   re.compile(rf"(?={_ZERO_ADDR}(?:==|!=)([\w$]*))"))
EQUALS_ZERO = (re.compile(r"(?<![\w$])(?=([\w$]*)==0(?![\w.]))"),
               re.compile(r"(?<![\w.])(?=0==([\w$]*))"))
_WORD_CHAR = re.compile(r"[\w$]")
_HEAD_RUN = re.compile(r"[\w$]*")
_TAIL_RUN = re.compile(r"(?s:.*[^\w$])?([\w$]*)")


class GuardIndex:
    """Where a function's guards compare an operand against zero.

    On the first query the conditions are flattened and scanned once with
    ``family`` (ORDER_VS_ZERO, ADDRESS_VS_ZERO or EQUALS_ZERO), each
    comparison filed under its operand's word run.  An operand is looked up
    by its end run and its start run, in a table of the compared texts of
    its length that is built once per run and length.  It must be exactly
    the compared text, with no word character or ``$`` just outside it;
    whitespace in an operand never matches.
    """

    def __init__(self, guards: Iterable[Guard], family: Tuple[re.Pattern, ...]) -> None:
        self._guards, self._family = guards, family
        # (operand first?, run) -> [(guard offset, flat condition, run edge)]
        self._sites: Optional[Dict[Tuple[bool, str], List[Tuple[int, str, int]]]] = None
        self._tables: Dict[Tuple[bool, str, int], Dict[str, int]] = {}

    def _earliest(self, operand_first: bool, operand: str) -> float:
        if self._sites is None:  # built on first use: most functions cast nothing
            self._sites = {}
            for guard in self._guards:
                offset, flat = guard.span[0], _nospace(guard.condition)
                for n, pattern in enumerate(self._family):
                    for m in pattern.finditer(flat):
                        self._sites.setdefault((n == 0, m.group(1)), []).append(
                            (offset, flat, m.end(1) if n == 0 else m.start(1)))
        run = (_TAIL_RUN.fullmatch(operand).group(1) if operand_first
               else _HEAD_RUN.match(operand).group())
        size = len(operand)
        table = self._tables.get((operand_first, run, size))
        if table is None:
            table = self._tables[operand_first, run, size] = {}
            for offset, flat, edge in self._sites.get((operand_first, run), ()):
                lo, hi = (edge - size, edge) if operand_first else (edge, edge + size)
                outside = lo - 1 if operand_first else hi
                if lo >= 0 and hi <= len(flat) and not (
                        outside >= 0 and _WORD_CHAR.match(flat, outside)):
                    table[flat[lo:hi]] = min(offset, table.get(flat[lo:hi], offset))
        return table.get(operand, float("inf"))

    def checked(self, operands: Iterable[str], before: float = float("inf")) -> bool:
        """True when a guard starting before offset ``before`` (default: any
        guard) compares one of ``operands`` against zero."""
        return any(min(self._earliest(True, o), self._earliest(False, o)) < before
                   for o in operands)


_UINT_CAST_RE = re.compile(r"^uint\d*$")


def detect_integer_sign(model: SourceModel) -> List[Finding]:
    """Signed values converted to unsigned without a zero lower-bound check."""

    findings: List[Finding] = []
    for contract in model.contracts:
        signed_state = {
            v.name for v in contract.state_vars
            if v.type_class is TypeClass.SIGNED_INT
        }
        for fn in contract.functions:
            guards = GuardIndex(fn.guards, ORDER_VS_ZERO)
            signed = set(signed_state)
            signed.update(
                p.name for p in fn.params if p.type_class is TypeClass.SIGNED_INT
            )
            signed.update(
                s.decl.name for s in fn.body
                if s.decl is not None and s.decl.type_class is TypeClass.SIGNED_INT
            )
            for s in fn.body:
                findings.extend(
                    _cast_findings(model, contract.name, fn, guards, s, signed)
                )
    return findings


def _cast_findings(
    model: SourceModel,
    contract_name: str,
    fn: FunctionDecl,
    guards: GuardIndex,
    stmt: Stmt,
    signed: set,
) -> List[Finding]:
    out: List[Finding] = []
    toks = stmt.tokens
    for i, tok in enumerate(toks):
        if tok.kind is not TokenKind.KEYWORD or not _UINT_CAST_RE.match(tok.text):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        depth = 0
        close = None
        for j in range(i + 1, len(toks)):
            if toks[j].text == "(":
                depth += 1
            elif toks[j].text == ")":
                depth -= 1
                if depth == 0:
                    close = j
                    break
        if close is None:
            continue
        inner = toks[i + 2 : close]
        if not inner:
            continue
        inner_idents = [
            t.text for t in inner if t.kind is TokenKind.IDENTIFIER
        ]
        from_pool = any(name in signed for name in inner_idents)
        negative_literal = (
            inner[0].text == "-"
            and len(inner) >= 2
            and inner[1].kind is TokenKind.NUMBER
        )
        if not from_pool and not negative_literal:
            continue

        cast_span = (tok.start, toks[close].end)
        candidates = [" ".join(t.text for t in inner)]
        if len(inner) == 1:
            candidates.append(inner[0].text)
        else:
            candidates.extend(n for n in inner_idents if n in signed)
        if guards.checked((_nospace(c) for c in candidates if c), cast_span[0]):
            continue
        out.append(
            Finding(
                bug_id="A-a-IS",
                file=model.file_path,
                contract=contract_name,
                function=fn.name,
                span=cast_span,
                message=(
                    f"{tok.text}({_snippet(candidates[0])}) converts a signed value "
                    "to unsigned with no preceding check that it is non-negative"
                ),
            )
        )
    return out


_SIGN_OPERANDS = frozenset(("this", "msg", "tx", "now", "true", "false"))
_PREV_EXCLUDE = "=!<>+-*/%&|^~"


def detect_wrong_operator(model: SourceModel) -> List[Finding]:
    """``=+`` or ``=-`` written where ``+=``/``-=`` (or ``=``) was meant."""

    findings: List[Finding] = []
    toks = model.tokens
    for i, tok in enumerate(toks):
        if tok.kind is not TokenKind.PUNCTUATION or tok.text != "=":
            continue
        if i + 1 >= len(toks):
            continue
        sign = toks[i + 1]
        if sign.kind is not TokenKind.PUNCTUATION or sign.text not in ("+", "-"):
            continue
        if sign.start != tok.end:
            continue
        if i > 0:
            prev = toks[i - 1]
            if (
                prev.kind is TokenKind.PUNCTUATION
                and prev.end == tok.start
                and prev.text[-1] in _PREV_EXCLUDE
            ):
                continue
        operand = None
        for j in range(i + 2, len(toks)):
            if toks[j].is_code():
                operand = toks[j]
                break
        if operand is None:
            continue
        if not (
            operand.kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER)
            or operand.text in _SIGN_OPERANDS
        ):
            continue
        contract = model.contract_at(tok.start)
        fn = model.function_at(tok.start)
        findings.append(
            Finding(
                bug_id="A-a-W",
                file=model.file_path,
                contract=contract.name if contract else "<top>",
                function=fn.name if fn else "",
                span=(tok.start, sign.end),
                message=(
                    f"'={sign.text}' assigns a {'positive' if sign.text == '+' else 'negated'} "
                    f"value instead of applying '{sign.text}='"
                ),
            )
        )
    return findings


def detect_uninitialized_storage(model: SourceModel) -> List[Finding]:
    """Composite/array locals without initializer default to storage (<=0.4.26)."""

    findings: List[Finding] = []
    for contract in model.contracts:
        for fn in contract.functions:
            for s in fn.body:
                d = s.decl
                if d is None or d.has_initializer:
                    continue
                if d.type_class not in (TypeClass.USER_COMPOSITE, TypeClass.ARRAY):
                    continue
                if d.storage_location not in (
                    StorageLocation.STORAGE,
                    StorageLocation.DEFAULT,
                ):
                    continue
                findings.append(
                    Finding(
                        bug_id="A-c-US",
                        file=model.file_path,
                        contract=contract.name,
                        function=fn.name,
                        span=d.span,
                        message=(
                            f"local '{d.name}' ({d.type_text}) has no initializer and "
                            "no data location, so it aliases storage slot 0"
                        ),
                    )
                )
    return findings


def detect_reentrancy(model: SourceModel) -> List[Finding]:
    """Unbounded-gas empty-payload value call followed by a state write."""

    findings: List[Finding] = []
    for contract in model.contracts:
        for fn in contract.functions:
            calls = [
                s for s in fn.body
                if s.call is not None
                and s.call.member == "call"
                and s.call.carries_value
                and not s.call.gas_specified
                and s.call.payload_empty
            ]
            if not calls:
                continue
            writes = [
                s for s in fn.body
                if s.assign is not None and s.assign.lhs_is_state_var
            ]
            for call_stmt in calls:
                call_span = _anchor(call_stmt)
                late = [
                    w for w in writes if _anchor(w)[0] > call_span[0]
                ]
                if not late:
                    continue
                findings.append(
                    Finding(
                        bug_id="D-a-R",
                        file=model.file_path,
                        contract=contract.name,
                        function=fn.name,
                        span=call_span,
                        message=(
                            f"'{_snippet(call_stmt.call.callee)}' receives ether via .call with "
                            "all gas and no payload before "
                            f"'{_snippet(late[0].assign.lhs)}' is updated; the callee can re-enter"
                        ),
                    )
                )
    return findings


def detect_short_address(model: SourceModel) -> List[Finding]:
    """Externally callable transfer-shaped functions with no calldata length check."""

    findings: List[Finding] = []
    for contract in model.contracts:
        for fn in contract.functions:
            if not fn.has_body or fn.is_fallback or fn.name == "constructor":
                continue
            if fn.visibility not in (
                Visibility.PUBLIC, Visibility.EXTERNAL, Visibility.DEFAULT,
            ):
                continue
            addr_params = [
                p.name for p in fn.params
                if p.type_class is TypeClass.ADDRESS and p.name
            ]
            uint_params = [
                p.name for p in fn.params
                if p.type_class is TypeClass.UNSIGNED_INT and p.name
            ]
            if not addr_params or not uint_params:
                continue
            if any("msg.data.length" in _nospace(s.text) for s in fn.body):
                continue
            hit_param = ""  # addr_params are named, so "" means no hit
            for s in fn.body:
                if s.assign is not None:
                    flat = _nospace(s.assign.lhs)
                    for p in addr_params:
                        if f"[{p}]" in flat:
                            hit_param = p
                            break
                if not hit_param and s.call is not None:
                    moves_value = s.call.member in ("send", "transfer") or (
                        s.call.member == "call" and s.call.carries_value
                    )
                    if moves_value and _nospace(s.call.callee) in addr_params:
                        hit_param = _nospace(s.call.callee)
                if hit_param:
                    break
            if not hit_param:
                continue
            findings.append(
                Finding(
                    bug_id="E-a-SA",
                    file=model.file_path,
                    contract=contract.name,
                    function=fn.name,
                    span=fn.span,
                    message=(
                        f"'{fn.name}' moves value keyed by caller-supplied address "
                        f"'{hit_param}' and amount without checking msg.data.length, "
                        "so truncated calldata shifts the amount"
                    ),
                )
            )
    return findings


_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"


def detect_wrong_signature_guard(model: SourceModel) -> List[Finding]:
    """ecrecover result compared for equality with no zero-address rejection.

    On any malformed input ecrecover yields the zero address, so comparing the
    result to a supplied address succeeds when both are zero.
    """

    findings: List[Finding] = []
    for contract in model.contracts:
        for fn in contract.functions:
            rec_stmts = [
                s for s in fn.body
                if any(t.text == "ecrecover" for t in s.tokens)
            ]
            if not rec_stmts:
                continue
            result_vars: List[str] = []
            for s in rec_stmts:
                if s.decl is not None and s.decl.name:
                    result_vars.append(s.decl.name)
                elif s.assign is not None and "ecrecover" in s.assign.rhs:
                    if _nospace(s.assign.lhs) == s.assign.lhs_base:
                        result_vars.append(s.assign.lhs_base)

            compare_stmt: Optional[Stmt] = None
            comparands: List[str] = []
            for s in fn.body:
                flat = _nospace(s.text)
                for v in result_vars:
                    n = re.escape(v)
                    for m in re.finditer(rf"(?<![\w$]){n}==({_IDENT})", flat):
                        comparands.append(m.group(1))
                        compare_stmt = compare_stmt or s
                    for m in re.finditer(rf"({_IDENT})=={n}(?![\w$])", flat):
                        comparands.append(m.group(1))
                        compare_stmt = compare_stmt or s
                if "ecrecover" in flat and "==" in flat:
                    for m in re.finditer(rf"\)==({_IDENT})", flat):
                        comparands.append(m.group(1))
                        compare_stmt = compare_stmt or s
                    for m in re.finditer(rf"({_IDENT})==ecrecover\(", flat):
                        comparands.append(m.group(1))
                        compare_stmt = compare_stmt or s
            if compare_stmt is None:
                continue
            names = result_vars + comparands
            guards = GuardIndex(fn.guards, ADDRESS_VS_ZERO)
            if guards.checked(n for n in names if n):
                continue
            findings.append(
                Finding(
                    bug_id="E-a-SW",
                    file=model.file_path,
                    contract=contract.name,
                    function=fn.name,
                    span=_anchor(compare_stmt),
                    message=(
                        "ecrecover result is matched against a supplied address with "
                        "no zero-address rejection; a bad signature recovers 0x0 and "
                        "matches a zero input"
                    ),
                )
            )
    return findings


_DOUBLE_INDEX_RE = re.compile(rf"^{_IDENT}\[[^\[\]]+\]\[[^\[\]]+\]$")


def detect_approve_race(model: SourceModel) -> List[Finding]:
    """approve() overwriting a live allowance without forcing it through zero."""

    findings: List[Finding] = []
    for contract in model.contracts:
        for fn in contract.functions:
            if fn.name != "approve":
                continue
            addr_params = [
                p.name for p in fn.params if p.type_class is TypeClass.ADDRESS
            ]
            uint_params = [
                p.name for p in fn.params
                if p.type_class is TypeClass.UNSIGNED_INT and p.name
            ]
            if not addr_params or not uint_params:
                continue
            guards = GuardIndex(fn.guards, EQUALS_ZERO)
            for s in fn.body:
                if s.kind is not StmtKind.ASSIGNMENT or s.assign is None:
                    continue
                lhs = _nospace(s.assign.lhs)
                rhs = _nospace(s.assign.rhs)
                if not _DOUBLE_INDEX_RE.match(lhs):
                    continue
                value_param = next((u for u in uint_params if rhs == u), None)
                if value_param is None:
                    continue
                if guards.checked((value_param, lhs)):
                    continue
                findings.append(
                    Finding(
                        bug_id="F-c-T",
                        file=model.file_path,
                        contract=contract.name,
                        function=fn.name,
                        span=_anchor(s),
                        message=(
                            f"approve writes '{value_param}' over the stored allowance "
                            "directly; a spender racing the change can use both the "
                            "old and the new allowance"
                        ),
                    )
                )
    return findings


Rule = Callable[[SourceModel], List[Finding]]


@dataclass(frozen=True)
class DetectorEntry:
    bug_id: str
    rule: Rule = field(repr=False)


DETECTORS: Dict[str, DetectorEntry] = {
    entry.bug_id: entry
    for entry in (
        DetectorEntry("A-a-IS", detect_integer_sign),
        DetectorEntry("A-a-W", detect_wrong_operator),
        DetectorEntry("A-c-US", detect_uninitialized_storage),
        DetectorEntry("D-a-R", detect_reentrancy),
        DetectorEntry("E-a-SA", detect_short_address),
        DetectorEntry("E-a-SW", detect_wrong_signature_guard),
        DetectorEntry("F-c-T", detect_approve_race),
    )
}

DETECTABLE_BUG_IDS: Tuple[str, ...] = tuple(sorted(DETECTORS))


def detect_all(
    model: SourceModel, enabled: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the enabled rules (default: all) with version gating applied.

    Output is deterministic and ordered by (file, span start, bug id).
    Unknown ids in ``enabled`` raise UnknownRuleError.
    """

    if enabled is None:
        ids = list(DETECTABLE_BUG_IDS)
    else:
        unknown = sorted(set(enabled) - set(DETECTORS))
        if unknown:
            raise UnknownRuleError(
                "no detector for: " + ", ".join(unknown)
            )
        ids = sorted(set(enabled))
    findings: List[Finding] = []
    for bug_id in ids:
        entry = DETECTORS[bug_id]
        if not version_applies(model.pragma, kind_by_id(bug_id).affected_versions):
            continue
        findings.extend(entry.rule(model))
    findings.sort(key=Finding.sort_key)
    return findings

"""Lexical bug detectors over the structural source model.

Each rule is a pure function from a SourceModel to findings;
``DETECTORS[bug_id].rule(model)`` runs one rule and ``detect_all`` runs the
enabled ones behind the version gate.  Six rules decide one function at a
time.  Each is written as a check, ``check(contract, fn)``, that yields
``(span, message)`` pairs; one driver, ``_per_function``, walks the
contracts and their functions in source order and files every pair as a
Finding under that contract and function.  The wrong-operator rule (A-a-W)
reads the whole token stream instead, so it also sees state-variable
initializers, modifiers and code outside every contract.

Rules match surface patterns, not semantics: a guard that merely looks like
a fix suppresses a finding, and a fix the rule cannot see lexically does
not.  That trade-off is the point; the labeled corpus measures it.

Detectors of kinds the catalog ties to a compiler-version range only run
when the file's pragma intersects that range; a missing, unparseable or
contradictory pragma counts as "could be any version" and enables them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import indexOf
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from .lexer import (_IDENTIFIER, _KEYWORD, _NUMBER, _PUNCTUATION, _TRIVIA, END, KIND, START,
                    TEXT, Token, _partners, _texts)
from .model import (
    ContractDecl,
    FunctionDecl,
    Guard,
    SourceModel,
    Span,
    Stmt,
    TypeClass,
    VarDecl,
)
from .taxonomy import kind_by_id
from .versions import version_applies

# Module constant: attribute lookups on an Enum class are slow.
_STORAGE_TYPES = (TypeClass.USER_COMPOSITE, TypeClass.ARRAY)


class Finding(NamedTuple):
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


def _join(toks: Sequence[Token]) -> str:
    return " ".join(map(_texts, toks))


def _nospace(text: str) -> str:
    return "".join(text.split())


_GLUE_RE = re.compile(r"\s*([.\[\](),;])\s*")


def _snippet(text: str) -> str:
    """Reattach punctuation the token join spaced out, for messages."""
    return _GLUE_RE.sub(r"\1", text)


def _anchor(stmt: Stmt) -> Span:
    return (stmt.tokens[0][START], stmt.tokens[-1][END])


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
    by its end run and its start run; a query scans the sites of its run.
    It must be exactly the compared text, with no word character or ``$``
    just outside it; whitespace in an operand never matches.
    """

    def __init__(self, guards: Iterable[Guard], family: Tuple[re.Pattern, ...]) -> None:
        self._guards, self._family = guards, family
        # (operand first?, run) -> [(guard offset, flat condition, run edge)]
        self._sites: Optional[Dict[Tuple[bool, str], List[Tuple[int, str, int]]]] = None

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
        size, earliest = len(operand), float("inf")
        for offset, flat, edge in self._sites.get((operand_first, run), ()):
            lo, hi = (edge - size, edge) if operand_first else (edge, edge + size)
            outside = lo - 1 if operand_first else hi
            # a window past either end of ``flat`` slices shorter than ``operand``
            if (offset < earliest and flat[lo:hi] == operand
                    and not (outside >= 0 and _WORD_CHAR.match(flat, outside))):
                earliest = offset
        return earliest

    def checked(self, operands: Iterable[str], before: float = float("inf")) -> bool:
        """True when a guard starting before offset ``before`` (default: any
        guard) compares one of ``operands`` against zero."""
        return any(min(self._earliest(True, o), self._earliest(False, o)) < before
                   for o in operands)


def _names(decls: Iterable[VarDecl], type_class: TypeClass) -> List[str]:
    """Names of the named declarations of ``type_class``, in order."""
    return [d.name for d in decls if d.type_class is type_class and d.name]


Rule = Callable[[SourceModel], List[Finding]]
Hits = Iterator[Tuple[Span, str]]  # (span, message) per finding of one function
Check = Callable[[ContractDecl, FunctionDecl], Hits]


@dataclass(frozen=True)
class DetectorEntry:
    bug_id: str
    rule: Rule = field(repr=False)


def _per_function(bug_id: str, check: Check) -> DetectorEntry:
    """The entry of a rule decided one function at a time: every
    ``(span, message)`` that ``check(contract, fn)`` yields becomes a finding
    filed under that contract and function, in source order."""

    def rule(model: SourceModel) -> List[Finding]:
        return [Finding(bug_id, model.file_path, contract.name, fn.name, span, message)
                for contract in model.contracts for fn in contract.functions
                for span, message in check(contract, fn)]

    return DetectorEntry(bug_id, rule)


_UINT_CAST_RE = re.compile(r"^uint\d*$")


def _integer_sign(contract: ContractDecl, fn: FunctionDecl) -> Hits:
    """Signed values converted to unsigned without a zero lower-bound check;
    a statement whose text lacks ``uint`` holds no cast and is not walked.
    Each cast's ``)`` is read from its statement's ``_partners``."""

    guards = GuardIndex(fn.guards, ORDER_VS_ZERO)
    signed: Optional[Set[str]] = None  # built at the first cast
    for stmt in fn.body:
        if "uint" not in stmt.text:
            continue
        toks = stmt.tokens
        partner: Optional[List[int]] = None
        for i, tok in enumerate(toks):
            if (tok[KIND] is not _KEYWORD or not _UINT_CAST_RE.match(tok[TEXT])
                    or i + 1 >= len(toks) or toks[i + 1][TEXT] != "("):
                continue
            if partner is None:
                partner = _partners(list(map(_texts, toks)))
            close = partner[i + 1]
            inner = toks[i + 2 : close]
            if close == len(toks) or not inner:
                continue
            if signed is None:
                locals_ = (s.decl for s in fn.body if s.decl is not None)
                signed = set(_names((*contract.state_vars, *fn.params, *locals_),
                                    TypeClass.SIGNED_INT))
            inner_idents = [t[TEXT] for t in inner if t[KIND] is _IDENTIFIER]
            negative_literal = (inner[0][TEXT] == "-" and len(inner) >= 2
                                and inner[1][KIND] is _NUMBER)
            if not negative_literal and not any(n in signed for n in inner_idents):
                continue
            candidates = [_join(inner)]  # a one-token cast's operand is its text
            if len(inner) > 1:
                candidates.extend(n for n in inner_idents if n in signed)
            if guards.checked((_nospace(c) for c in candidates if c), tok[START]):
                continue
            yield (tok[START], toks[close][END]), (
                f"{tok[TEXT]}({_snippet(candidates[0])}) converts a signed value "
                "to unsigned with no preceding check that it is non-negative")


_SIGN_OPERANDS = frozenset(("this", "msg", "tx", "now", "true", "false"))
_PREV_EXCLUDE = "=!<>+-*/%&|^~"


def _wrong_operator(bug_id: str) -> DetectorEntry:
    """``=+`` or ``=-`` written where ``+=``/``-=`` (or ``=``) was meant.

    A file-level rule: it reads the whole token stream, so it also flags
    state-variable initializers, modifiers and code outside every contract
    (filed under ``<top>``).  C-level searches of the token texts find each
    ``=``, and only one that a sign follows is read further; ``=``, ``+`` and
    ``-`` only ever lex as punctuation, and neighbouring tokens touch."""

    def rule(model: SourceModel) -> List[Finding]:
        findings: List[Finding] = []
        toks = model.tokens
        texts, i = map(_texts, toks), -1  # no list: a large file's would raise peak RSS
        while True:
            try:
                i += indexOf(texts, "=") + 1
            except ValueError:
                break
            if i + 1 == len(toks) or toks[i + 1][TEXT] not in ("+", "-"):
                continue
            prev = toks[i - 1] if i else None
            if prev is not None and prev[KIND] is _PUNCTUATION and prev[TEXT][-1] in _PREV_EXCLUDE:
                continue
            tok, sign = toks[i], toks[i + 1]
            operand = next((toks[j] for j in range(i + 2, len(toks))
                            if toks[j][KIND] not in _TRIVIA), None)
            if operand is None or not (
                    operand[KIND] in (_IDENTIFIER, _NUMBER)
                    or operand[TEXT] in _SIGN_OPERANDS):
                continue
            contract = model.contract_at(tok[START])
            fn = model.function_at(tok[START])
            findings.append(Finding(
                bug_id, model.file_path, contract.name if contract else "<top>",
                fn.name if fn else "", (tok[START], sign[END]),
                f"'={sign[TEXT]}' assigns a {'positive' if sign[TEXT] == '+' else 'negated'} "
                f"value instead of applying '{sign[TEXT]}='"))
        return findings

    return DetectorEntry(bug_id, rule)


def _uninitialized_storage(contract: ContractDecl, fn: FunctionDecl) -> Hits:
    """Composite/array locals without initializer default to storage (<=0.4.26)."""

    for s in fn.body:
        d = s.decl
        if (d is not None and not d.has_initializer
                and d.type_class in _STORAGE_TYPES and not d.memory_or_calldata):
            yield d.span, (f"local '{d.name}' ({d.type_text}) has no initializer and "
                           "no data location, so it aliases storage slot 0")


def _reentrancy(contract: ContractDecl, fn: FunctionDecl) -> Hits:
    """Unbounded-gas empty-payload value call followed by a state write."""

    calls = [s for s in fn.body
             if s.call is not None and s.call.member == "call" and s.call.carries_value
             and not s.call.gas_specified and s.call.payload_empty]
    if not calls:
        return
    writes = [s for s in fn.body if s.assign is not None and s.assign.lhs_is_state_var]
    for call_stmt in calls:
        call_span = _anchor(call_stmt)
        late = next((w for w in writes if _anchor(w)[0] > call_span[0]), None)
        if late is not None:
            yield call_span, (
                f"'{_snippet(call_stmt.call.callee)}' receives ether via .call with "
                "all gas and no payload before "
                f"'{_snippet(late.assign.lhs)}' is updated; the callee can re-enter")


def _short_address(contract: ContractDecl, fn: FunctionDecl) -> Hits:
    """Externally callable transfer-shaped functions with no calldata length
    check.  A constructor, including one named after its contract as before
    Solidity 0.4.22, runs only at deployment."""

    if (not fn.has_body or fn.is_fallback or fn.name in ("constructor", contract.name)
            or not fn.externally_callable):
        return
    addr_params = _names(fn.params, TypeClass.ADDRESS)
    if (not addr_params or not _names(fn.params, TypeClass.UNSIGNED_INT)
            or any("msg.data.length" in _nospace(s.text) for s in fn.body)):
        return
    for s in fn.body:
        hit = None
        if s.assign is not None:
            flat = _nospace(s.assign.lhs)
            hit = next((p for p in addr_params if f"[{p}]" in flat), None)
        if hit is None and s.call is not None and (
                s.call.member in ("send", "transfer")
                or (s.call.member == "call" and s.call.carries_value)):
            callee = _nospace(s.call.callee)
            hit = callee if callee in addr_params else None
        if hit is not None:
            yield fn.span, (
                f"'{fn.name}' moves value keyed by caller-supplied address "
                f"'{hit}' and amount without checking msg.data.length, "
                "so truncated calldata shifts the amount")
            return


_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"


def _wrong_signature_guard(contract: ContractDecl, fn: FunctionDecl) -> Hits:
    """ecrecover result compared for equality with no zero-address rejection.

    On any malformed input ecrecover yields the zero address, so comparing the
    result to a supplied address succeeds when both are zero.  The result is
    a declared variable or an assignment's whole left side, so a mapping
    entry or struct field that stores it counts.  Only a statement whose
    text contains ``ecrecover`` has its tokens walked, and only one with two
    ``=`` or more is flattened: every pattern needs ``==``.
    """

    rec_stmts = [s for s in fn.body
                 if "ecrecover" in s.text and any(t[TEXT] == "ecrecover" for t in s.tokens)]
    if not rec_stmts:
        return
    result_vars: List[str] = []
    for s in rec_stmts:
        if s.decl is not None and s.decl.name:
            result_vars.append(s.decl.name)
        elif s.assign is not None and "ecrecover" in s.assign.rhs:
            result_vars.append(_nospace(s.assign.lhs))
    var_patterns = [p for v in map(re.escape, result_vars)
                    for p in (rf"(?<![\w$]){v}==({_IDENT})", rf"({_IDENT})=={v}(?![\w$])")]
    compare_stmt: Optional[Stmt] = None
    comparands: List[str] = []
    for s in fn.body:
        if s.text.count("=") < 2:
            continue
        flat = _nospace(s.text)
        patterns = var_patterns
        if "ecrecover" in flat and "==" in flat:
            patterns = var_patterns + [rf"\)==({_IDENT})", rf"({_IDENT})==ecrecover\("]
        for pattern in patterns:
            for m in re.finditer(pattern, flat):
                comparands.append(m.group(1))
                compare_stmt = compare_stmt or s
    if compare_stmt is None:
        return
    guards = GuardIndex(fn.guards, ADDRESS_VS_ZERO)
    if not guards.checked(n for n in result_vars + comparands if n):
        yield _anchor(compare_stmt), (
            "ecrecover result is matched against a supplied address with "
            "no zero-address rejection; a bad signature recovers 0x0 and "
            "matches a zero input")


_DOUBLE_INDEX_RE = re.compile(rf"^{_IDENT}\[[^\[\]]+\]\[[^\[\]]+\]$")


def _approve_race(contract: ContractDecl, fn: FunctionDecl) -> Hits:
    """approve() overwriting a live allowance without forcing it through zero.

    An unnamed ``address`` parameter counts: the spender need not be named
    for the allowance write to race."""

    if fn.name != "approve" or not any(p.type_class is TypeClass.ADDRESS for p in fn.params):
        return
    uint_params = _names(fn.params, TypeClass.UNSIGNED_INT)
    guards = GuardIndex(fn.guards, EQUALS_ZERO)
    for s in fn.body:
        if s.assign is None or s.assign.compound:
            continue
        lhs, rhs = _nospace(s.assign.lhs), _nospace(s.assign.rhs)
        if (_DOUBLE_INDEX_RE.match(lhs) and rhs in uint_params
                and not guards.checked((rhs, lhs))):
            yield _anchor(s), (
                f"approve writes '{rhs}' over the stored allowance "
                "directly; a spender racing the change can use both the "
                "old and the new allowance")


DETECTORS: Dict[str, DetectorEntry] = {
    entry.bug_id: entry
    for entry in (
        _per_function("A-a-IS", _integer_sign),
        _wrong_operator("A-a-W"),
        _per_function("A-c-US", _uninitialized_storage),
        _per_function("D-a-R", _reentrancy),
        _per_function("E-a-SA", _short_address),
        _per_function("E-a-SW", _wrong_signature_guard),
        _per_function("F-c-T", _approve_race),
    )
}

DETECTABLE_BUG_IDS: Tuple[str, ...] = tuple(sorted(DETECTORS))


def rule_ids(enabled: Sequence[str]) -> List[str]:
    """The distinct ids in ``enabled``, sorted; UnknownRuleError names every
    id with no rule."""
    unknown = sorted(set(enabled) - set(DETECTORS))
    if unknown:
        raise UnknownRuleError("no detector for: " + ", ".join(unknown))
    return sorted(set(enabled))


def detect_all(
    model: SourceModel, enabled: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the enabled rules (default: all) with version gating applied.

    Output is deterministic and ordered by (file, span start, bug id).
    Unknown ids in ``enabled`` raise UnknownRuleError.
    """

    findings: List[Finding] = []
    for bug_id in DETECTABLE_BUG_IDS if enabled is None else rule_ids(enabled):
        entry = DETECTORS[bug_id]
        if not version_applies(model.pragma, kind_by_id(bug_id).affected_versions):
            continue
        findings.extend(entry.rule(model))
    findings.sort(key=Finding.sort_key)
    return findings

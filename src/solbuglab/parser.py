"""Shallow structural parser for Solidity source.

Goals: pragma constraints, contract/function/state-variable structure, and a
flat statement list per function body with byte spans and light
classification.  Non-goals: a full AST, expression trees, type checking.

Tolerance is absolute: any input produces a model plus diagnostics, never an
exception.  Unrecognized constructs become opaque statements.  Statement
spans partition each function body exactly (leading trivia sticks to the
following statement, trailing trivia to the last one).

Brackets follow one rule.  A group ends at the partner of its opening
bracket, counting that bracket's kind only (``_find_matching``).  An index
is at the top level of a token range when no bracket opened earlier in the
range is still open there (``_top_level``): the three kinds count together,
so ``(a]`` is a closed group, and a closer with nothing open is ignored.
Statement ends, parameter and base lists, call-option keys and the
operators that classify a statement are all read at the top level.

Modifier declarations are skipped as opaque contract members on purpose:
their bodies do not contribute guards to the functions that invoke them,
which mirrors how the lexical detectors reason (and mis-reason) about code.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .lexer import Token, TokenKind, code_tokens, lex
from .model import (
    AssignDetail,
    CallDetail,
    ContractDecl,
    Diagnostic,
    FunctionDecl,
    Guard,
    SourceModel,
    Span,
    Stmt,
    StmtKind,
    StorageLocation,
    TypeClass,
    VarDecl,
    Visibility,
)
from .versions import (
    ANY_VERSION,
    PragmaConstraint,
    VersionSyntaxError,
    parse_constraint,
)

_ELEMENTARY_TYPES = ("address", "bool", "string", "bytes", "byte", "var")
_DECL_FILTER = frozenset(
    ("public", "private", "internal", "external", "constant", "immutable",
     "override", "virtual", "payable", "indexed")
)
_LOCATIONS = {
    "storage": StorageLocation.STORAGE,
    "memory": StorageLocation.MEMORY,
    "calldata": StorageLocation.CALLDATA,
}
_VISIBILITY = {
    "public": Visibility.PUBLIC,
    "external": Visibility.EXTERNAL,
    "internal": Visibility.INTERNAL,
    "private": Visibility.PRIVATE,
}
_COMPOUND_OPS = frozenset(
    ("+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=")
)
_CALL_MEMBERS = frozenset(("call", "delegatecall", "callcode", "send", "transfer"))
_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}


def _join(toks: Sequence[Token]) -> str:
    return " ".join(t.text for t in toks)


def _span_of(toks: Sequence[Token]) -> Span:
    if not toks:
        return (0, 0)
    return (toks[0].start, toks[-1].end)


def _find_matching(ts: Sequence[Token], i: int, end: Optional[int] = None) -> int:
    """Index of the partner of the bracket ``ts[i]``.  From an opener it
    looks forward, no further than ``end`` (default ``len(ts)``), and gives
    ``end`` if none; from a closer it looks back and gives -1 if none."""

    own = ts[i].text
    if own in _OPENERS:
        partner, step = _OPENERS[own], 1
        stop = len(ts) if end is None else end
    else:
        partner, step, stop = _CLOSERS[own], -1, -1
    depth = 0
    for j in range(i, stop, step):
        x = ts[j].text
        if x == own:
            depth += 1
        elif x == partner:
            depth -= 1
            if depth == 0:
                return j
    return stop


def _skip_group(ts: Sequence[Token], i: int, end: int) -> int:
    """Index just past the group opened at ``ts[i]``, clamped to ``end``;
    ``end`` also when ``i`` is at or past it."""
    return end if i >= end else min(_find_matching(ts, i, end) + 1, end)


def _top_level(toks: Sequence[Token], lo: int, hi: int) -> Iterator[int]:
    """The indexes in ``toks[lo:hi]`` that no bracket opened in that range
    encloses: an opener is at the top level, its group's inside and closer
    are not, and a closer with nothing open is ignored."""

    depth = 0
    for i in range(lo, hi):
        if depth == 0:
            yield i
        x = toks[i].text
        if x in "([{":
            depth += 1
        elif depth and x in ")]}":
            depth -= 1


def _skip_to(ts: Sequence[Token], i: int, stop: Tuple[str, ...]) -> int:
    for j in range(i, len(ts)):
        if ts[j].text in stop:
            return j
    return len(ts)


def _is_word(tok: Token) -> bool:
    return tok.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)


def _is_type_start(tok: Token, structs: Set[str], contracts: Set[str]) -> bool:
    text = tok.text
    if text == "mapping" or text in _ELEMENTARY_TYPES:
        return True
    if tok.kind == TokenKind.KEYWORD and (
        text.startswith("int") or text.startswith("uint")
        or text.startswith("bytes") or text.startswith("fixed")
        or text.startswith("ufixed")
    ):
        return True
    return tok.kind == TokenKind.IDENTIFIER and (text in structs or text in contracts)


def _classify_type(toks: Sequence[Token], structs: Set[str]) -> TypeClass:
    if not toks:
        return TypeClass.OTHER
    first = toks[0].text
    # a top-level ``[`` past the first token: ``T[]``, ``mapping(...)[...]``
    if any(toks[i].text == "[" for i in _top_level(toks, 1, len(toks))):
        return TypeClass.ARRAY
    if first == "mapping":
        return TypeClass.MAPPING
    if any(t.text in structs for t in toks):
        return TypeClass.USER_COMPOSITE
    if first in ("bytes", "string"):
        return TypeClass.ARRAY
    if first == "address":
        return TypeClass.ADDRESS
    if first.startswith("uint"):
        return TypeClass.UNSIGNED_INT
    if first.startswith("int"):
        return TypeClass.SIGNED_INT
    return TypeClass.OTHER


def _parse_var_decl(
    toks: Sequence[Token],
    structs: Set[str],
    contracts: Set[str],
    *,
    member: bool,
    allow_unnamed: bool = False,
) -> Optional[VarDecl]:
    """Interpret ``toks`` (no trailing ``;``) as a variable declaration.

    ``member`` relaxes the leading-type check: at contract level any
    identifier can open a type, inside bodies it must be a known struct or
    contract name so that plain assignments are not mistaken for decls.
    """

    if not toks:
        return None
    eq = _find_top_level(toks, ("=",))
    decl_toks = list(toks[:eq] if eq is not None else toks)
    has_init = eq is not None

    location = StorageLocation.DEFAULT
    filtered: List[Token] = []
    for t in decl_toks:
        if t.text in _LOCATIONS and location is StorageLocation.DEFAULT:
            location = _LOCATIONS[t.text]
            continue
        if t.text in _DECL_FILTER:
            continue
        filtered.append(t)
    if not filtered:
        return None

    head = filtered[0]
    if head.kind == TokenKind.IDENTIFIER and member:
        pass  # contract-level: trust position
    elif not _is_type_start(head, structs, contracts):
        return None

    name = ""
    type_toks: Sequence[Token] = filtered
    if len(filtered) >= 2 and filtered[-1].kind == TokenKind.IDENTIFIER:
        prev = filtered[-2]
        if prev.text != "." and (_is_word(prev) or prev.text in (")", "]")):
            name = filtered[-1].text
            type_toks = filtered[:-1]
    if not name and not allow_unnamed:
        return None
    if any(t.text == "(" for t in type_toks) and type_toks[0].text != "mapping":
        return None  # function calls are not declarations

    return VarDecl(
        name=name,
        type_text=_join(type_toks),
        type_class=_classify_type(type_toks, structs),
        storage_location=location,
        has_initializer=has_init,
        span=_span_of(toks),
    )


def _find_top_level(
    toks: Sequence[Token], ops: Tuple[str, ...], lo: int = 0, hi: Optional[int] = None
) -> Optional[int]:
    """Index of the first top-level punctuation token in ``ops`` within
    ``toks[lo:hi]``; None if none."""

    for i in _top_level(toks, lo, len(toks) if hi is None else hi):
        if toks[i].text in ops and toks[i].kind == TokenKind.PUNCTUATION:
            return i
    return None


def _scan_call(toks: Sequence[Token]) -> Optional[CallDetail]:
    """Find the first ether-capable member call in a token run."""

    for i in range(len(toks) - 1):
        if toks[i].text != "." or toks[i].kind != TokenKind.PUNCTUATION:
            continue
        nxt = toks[i + 1]
        if nxt.kind != TokenKind.IDENTIFIER or nxt.text not in _CALL_MEMBERS:
            continue
        callee = _callee_before(toks, i)
        member = nxt.text
        carries, gas, payload_empty = _call_suffix(toks, i + 2, member)
        return CallDetail(
            callee=callee,
            member=member,
            carries_value=carries,
            gas_specified=gas,
            payload_empty=payload_empty,
        )
    return None


def _callee_before(toks: Sequence[Token], dot: int) -> str:
    start = dot
    j = dot - 1
    while j >= 0:
        t = toks[j]
        if t.text in (")", "]"):
            opened = _find_matching(toks, j)
            if opened < 0:
                break
            start = opened
            j = opened - 1
            continue
        if _is_word(t) or t.kind == TokenKind.NUMBER:
            start = j
            j -= 1
            if j >= 0 and toks[j].text == ".":
                j -= 1
                continue
            break
        break
    return _join(toks[start:dot])


def _call_suffix(
    toks: Sequence[Token], k: int, member: str
) -> Tuple[bool, bool, bool]:
    if member in ("send", "transfer"):
        # fixed 2300-gas stipend: value moves, gas is effectively pinned
        return True, True, True

    carries = False
    gas = False
    payload_empty = True
    if k < len(toks) and toks[k].text == "{":
        end = _find_matching(toks, k)
        # a key follows the opening brace or a top-level comma
        for j in _top_level(toks, k + 1, end):
            if toks[j].text == ":" and toks[j - 2].text in ("{", ","):
                carries |= toks[j - 1].text == "value"
                gas |= toks[j - 1].text == "gas"
        k = end + 1
    else:
        while (
            k + 2 < len(toks)
            and toks[k].text == "."
            and toks[k + 1].text in ("value", "gas")
            and toks[k + 2].text == "("
        ):
            if toks[k + 1].text == "value":
                carries = True
            else:
                gas = True
            k = _skip_group(toks, k + 2, len(toks))

    if k < len(toks) and toks[k].text == "(":
        end = _find_matching(toks, k)
        args = toks[k + 1 : end]
        payload_empty = not args or (
            len(args) == 1
            and args[0].kind == TokenKind.STRING
            and args[0].text in ('""', "''")
        )
    return carries, gas, payload_empty


def _guard(kind: str, toks: Sequence[Token], p: int, span: Span) -> Tuple[Guard, int]:
    """Guard ``kind`` on the group opened at ``toks[p]``, and the index of
    that group's closer (``len(toks)`` if unclosed).  With no ``(`` at
    ``p`` the condition is empty at ``span`` and the index is ``p - 1``."""

    if p >= len(toks) or toks[p].text != "(":
        return Guard(kind, "", span), p - 1
    close = _find_matching(toks, p)
    cond = toks[p + 1 : close]
    return Guard(kind, _join(cond), _span_of(cond) if cond else span), close


class _BodyParser:
    def __init__(
        self,
        toks: Sequence[Token],
        body_span: Span,
        state_vars: Set[str],
        structs: Set[str],
        contracts: Set[str],
        diagnostics: List[Diagnostic],
    ):
        self.toks = toks
        self.body_span = body_span
        self.state_vars = state_vars
        self.structs = structs
        self.contracts = contracts
        self.diagnostics = diagnostics
        # (kind, tokens, details) per statement; spans are set by _stretch
        self.stmts: List[Tuple[StmtKind, Sequence[Token], dict]] = []
        self.guards: List[Guard] = []

    def run(self) -> Tuple[List[Stmt], List[Guard]]:
        bt = self.toks
        i = 0
        while i < len(bt):
            text = bt[i].text
            if text == "if":
                i = self._handle_if(i)
            elif text == "else":
                i = self._handle_header(i, i + 1)
            elif text in ("for", "while"):
                i = self._handle_loop(i)
            elif text in ("do", "unchecked"):
                i = self._handle_header(i, i + 1)
            elif text == "assembly":
                i = self._handle_assembly(i)
            elif text in ("{", "}"):
                self._emit(StmtKind.OPAQUE, bt[i : i + 1])
                i += 1
            else:
                i = self._handle_simple(i)
        return self._stretch(), self.guards

    def _handle_if(self, i: int) -> int:
        bt = self.toks
        guard, close = _guard("if", bt, i + 1, bt[i].span)
        last = min(close, len(bt) - 1)
        if last + 1 < len(bt) and bt[last + 1].text == "{":
            last += 1
        slice_ = bt[i : last + 1]
        self._emit(StmtKind.IF_GUARD, slice_, call=_scan_call(slice_))
        self.guards.append(guard)
        return last + 1

    def _handle_loop(self, i: int) -> int:
        bt = self.toks
        after = i + 1
        if after < len(bt) and bt[after].text == "(":
            after = _skip_group(bt, after, len(bt))
        return self._handle_header(i, after)

    def _handle_header(self, i: int, after: int) -> int:
        """Emit an opaque header (else/do/loop), absorbing a trailing brace."""

        bt = self.toks
        last = after - 1
        if after < len(bt) and bt[after].text == "{":
            last = after
        self._emit(StmtKind.OPAQUE, bt[i : last + 1])
        return last + 1

    def _handle_assembly(self, i: int) -> int:
        end = _skip_group(self.toks, _skip_to(self.toks, i, ("{",)), len(self.toks))
        self._emit(StmtKind.OPAQUE, self.toks[i:end])
        return end

    def _handle_simple(self, i: int) -> int:
        """A statement from ``bt[i]`` (not a brace) through the first
        top-level ``;``, or up to a top-level ``}`` that ends the enclosing
        block mid-statement."""

        bt = self.toks
        end = len(bt)
        for j in _top_level(bt, i, end):
            if bt[j].text == ";":
                end = j + 1
                break
            if bt[j].text == "}":
                self.diagnostics.append(
                    Diagnostic("statement not terminated", _span_of(bt[i:j])))
                end = j
                break
        self._classify_and_emit(bt[i:end])
        return end

    def _emit(self, kind: StmtKind, slice_: Sequence[Token], **details) -> None:
        self.stmts.append((kind, slice_, details))

    def _classify_and_emit(self, slice_: Sequence[Token]) -> None:
        core = list(slice_)
        if core and core[-1].text == ";":
            core = core[:-1]
        if not core:
            self._emit(StmtKind.OPAQUE, slice_)
            return
        first = core[0].text

        if first == "return":
            self._emit(StmtKind.RETURN, slice_, call=_scan_call(core))
            return
        if first in ("require", "assert"):
            p = _skip_to(core, 0, ("(",))
            self.guards.append(_guard(first, core, p, _span_of(core))[0])
            self._emit(StmtKind.REQUIRE_OR_ASSERT, slice_, call=_scan_call(core))
            return
        if first == "delete":
            self._emit(StmtKind.ASSIGNMENT, slice_, assign=self._assign(core[1:]))
            return
        if first in ("emit", "revert", "throw", "break", "continue", "_"):
            self._emit(StmtKind.OPAQUE, slice_, call=_scan_call(core))
            return

        if _is_type_start(core[0], self.structs, self.contracts):
            decl = _parse_var_decl(core, self.structs, self.contracts, member=False)
            if decl is not None:
                call = _scan_call(core)
                kind = StmtKind.EXTERNAL_CALL if call else StmtKind.LOCAL_VAR_DECL
                self._emit(kind, slice_, decl=decl, call=call)
                return

        eq = _find_top_level(core, ("=",))
        if eq is not None:
            rhs = core[eq + 1 :]
            call = _scan_call(rhs)
            kind = StmtKind.EXTERNAL_CALL if call else StmtKind.ASSIGNMENT
            self._emit(kind, slice_, assign=self._assign(core[:eq], rhs), call=call)
            return

        comp = _find_top_level(core, tuple(_COMPOUND_OPS))
        if comp is not None:
            assign = self._assign(core[:comp], core[comp + 1 :])
            self._emit(StmtKind.COMPOUND_ASSIGNMENT, slice_, assign=assign)
            return

        bump = _find_top_level(core, ("++", "--"))
        if bump is not None:
            assign = self._assign(core[:bump] + core[bump + 1 :])
            self._emit(StmtKind.COMPOUND_ASSIGNMENT, slice_, assign=assign)
            return

        call = _scan_call(core)
        kind = StmtKind.EXTERNAL_CALL if call else StmtKind.OPAQUE
        self._emit(kind, slice_, call=call)

    def _assign(self, lhs: Sequence[Token], rhs: Sequence[Token] = ()) -> AssignDetail:
        """The write to ``lhs``; its base is the first identifier in it."""
        base = next((t.text for t in lhs if t.kind == TokenKind.IDENTIFIER), "")
        return AssignDetail(lhs=_join(lhs), rhs=_join(rhs), lhs_base=base,
                            lhs_is_state_var=base in self.state_vars)

    def _stretch(self) -> List[Stmt]:
        """Re-span statements so they exactly partition the body interior."""

        lo, hi = self.body_span
        if not self.stmts:
            if hi > lo:
                return [Stmt(kind=StmtKind.OPAQUE, span=(lo, hi), text="")]
            return []
        out: List[Stmt] = []
        prev_end = lo
        last = len(self.stmts) - 1
        for idx, (kind, slice_, details) in enumerate(self.stmts):
            end = slice_[-1].end if idx < last else max(slice_[-1].end, hi)
            out.append(
                Stmt(
                    kind=kind,
                    span=(prev_end, end),
                    text=_join(slice_),
                    tokens=tuple(slice_),
                    **details,
                )
            )
            prev_end = end
        return out


def _collect_global_names(sig: Sequence[Token]) -> Tuple[Set[str], Set[str]]:
    structs: Set[str] = set()
    contracts: Set[str] = set()
    for i in range(len(sig) - 1):
        if sig[i].text == "struct" and sig[i + 1].kind == TokenKind.IDENTIFIER:
            structs.add(sig[i + 1].text)
        elif (
            sig[i].text in ("contract", "library", "interface")
            and sig[i + 1].kind == TokenKind.IDENTIFIER
        ):
            contracts.add(sig[i + 1].text)
    return structs, contracts


class _FunctionRaw:
    def __init__(self):
        self.name = ""
        self.params: Tuple[VarDecl, ...] = ()
        self.visibility = Visibility.DEFAULT
        self.is_fallback = False
        self.has_body = True
        self.span: Span = (0, 0)
        self.body_span: Span = (0, 0)
        self.body_toks: List[Token] = []


def _parse_params(
    toks: Sequence[Token], structs: Set[str], contracts: Set[str]
) -> Tuple[VarDecl, ...]:
    commas = [i for i in _top_level(toks, 0, len(toks)) if toks[i].text == ","]
    # a parameter slot is a declaration by position, so any leading
    # identifier may open a type here
    decls = (_parse_var_decl(toks[a + 1 : b], structs, contracts, member=True,
                             allow_unnamed=True)
             for a, b in zip([-1] + commas, commas + [len(toks)]))
    return tuple(d for d in decls if d is not None)


def _parse_function_header(
    sig: Sequence[Token],
    i: int,
    end: int,
    structs: Set[str],
    contracts: Set[str],
    diagnostics: List[Diagnostic],
) -> Tuple[_FunctionRaw, int]:
    """Parse the function starting at ``sig[i]``, reading no token at or
    past ``end`` (the enclosing contract's closing brace)."""

    fn = _FunctionRaw()
    start_tok = sig[i]
    kw = start_tok.text
    k = i + 1
    if kw == "function":
        if k < end and _is_word(sig[k]):
            fn.name = sig[k].text
            k += 1
    else:
        fn.name = kw if kw != "constructor" else "constructor"
    fn.is_fallback = fn.name in ("", "fallback", "receive")

    if k < end and sig[k].text == "(":
        close = _find_matching(sig, k, end)
        if close >= end:
            diagnostics.append(
                Diagnostic("unclosed parameter list", (start_tok.start, sig[end - 1].end))
            )
            close = end - 1
        fn.params = _parse_params(sig[k + 1 : close], structs, contracts)
        k = close + 1

    while k < end and sig[k].text not in ("{", ";"):
        text = sig[k].text
        if text in _VISIBILITY:
            fn.visibility = _VISIBILITY[text]
            k += 1
        elif text == "payable":  # stepped over alone, even when "(" follows
            k += 1
        elif k + 1 < end and sig[k + 1].text == "(":
            k = _skip_group(sig, k + 1, end)
        else:
            k += 1

    if k >= end:
        fn.has_body = False
        fn.span = (start_tok.start, sig[end - 1].end)
        fn.body_span = (sig[end - 1].end, sig[end - 1].end)
        return fn, end

    if sig[k].text == ";":
        fn.has_body = False
        fn.span = (start_tok.start, sig[k].end)
        fn.body_span = (sig[k].end, sig[k].end)
        return fn, k + 1

    close = _find_matching(sig, k, end)
    if close >= end:
        diagnostics.append(
            Diagnostic("unclosed function body", (start_tok.start, sig[end - 1].end))
        )
        close = end - 1
    fn.body_toks = sig[k + 1 : close]
    fn.body_span = (sig[k].end, sig[close].start)
    fn.span = (start_tok.start, sig[close].end)
    return fn, close + 1


class _ContractRaw:
    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name
        self.bases: List[str] = []
        self.span: Span = (0, 0)
        self.state_vars: List[VarDecl] = []
        self.functions: List[_FunctionRaw] = []


def _parse_contract(
    sig: Sequence[Token],
    i: int,
    structs: Set[str],
    contracts: Set[str],
    diagnostics: List[Diagnostic],
) -> Tuple[Optional[_ContractRaw], int]:
    kind = sig[i].text
    start_tok = sig[i]
    name = "<anonymous>"
    k = i + 1
    if k < len(sig) and _is_word(sig[k]):
        name = sig[k].text
        k += 1
    raw = _ContractRaw(kind, name)

    open_ = _skip_to(sig, k, ("{", ";"))
    if open_ >= len(sig) or sig[open_].text == ";":
        # forward declaration or garbage; nothing to record
        return None, (open_ + 1 if open_ < len(sig) else len(sig))
    if any(t.text == "is" for t in sig[k:open_]):
        raw.bases = [sig[j].text for j in _top_level(sig, k, open_)
                     if sig[j].kind == TokenKind.IDENTIFIER]
    close = _find_matching(sig, open_)
    if close >= len(sig):
        diagnostics.append(
            Diagnostic(f"unclosed {kind} body", (start_tok.start, sig[-1].end))
        )
        close = len(sig) - 1
    raw.span = (start_tok.start, sig[close].end)

    j = open_ + 1
    while j < close:
        text = sig[j].text
        if text in ("function", "constructor", "fallback", "receive"):
            fn, j = _parse_function_header(
                sig, j, close, structs, contracts, diagnostics
            )
            raw.functions.append(fn)
        elif text == "modifier":
            stop = _skip_to(sig, j, ("{", ";"))
            if stop >= close or sig[stop].text == ";":
                j = min(stop + 1, close)
            else:
                j = _skip_group(sig, stop, close)
        elif text in ("struct", "enum"):
            j = _skip_group(sig, _skip_to(sig, j, ("{",)), close)
        elif text in ("event", "error", "using"):
            j = min(_skip_to(sig, j, (";",)) + 1, close)
        else:
            end = _find_top_level(sig, (";",), j, close)
            if end is None:
                end = close
            piece = sig[j:end]
            decl = _parse_var_decl(piece, structs, contracts, member=True)
            if decl is not None:
                raw.state_vars.append(decl)
            j = end + 1
    return raw, close + 1


def _state_names(name: str, own_vars: Dict[str, Set[str]],
                 bases_of: Dict[str, Sequence[str]], seen: Set[str]) -> Set[str]:
    """State variables of ``name`` and its bases declared in the file; not a
    closure, so parsing leaves no function-cell cycle for the collector."""
    if name in seen or name not in own_vars:
        return set()
    seen.add(name)
    out = set(own_vars[name])
    for base in bases_of[name]:
        out |= _state_names(base, own_vars, bases_of, seen)
    return out


def parse(source: str, file_path: str = "<string>") -> SourceModel:
    """Parse Solidity source into a structural model.  Never raises."""

    tokens = tuple(lex(source))  # the lexer's list is freed here, not at return
    sig = code_tokens(tokens)
    diagnostics: List[Diagnostic] = []
    structs, contract_names = _collect_global_names(sig)

    pragma: Optional[PragmaConstraint] = None
    has_directive = False  # a ``pragma solidity`` was seen, parseable or not
    raws: List[_ContractRaw] = []
    i = 0
    while i < len(sig):
        text = sig[i].text
        if text == "pragma":
            end = _skip_to(sig, i + 1, (";",))
            if i + 1 < end and sig[i + 1].text == "solidity":
                has_directive = True
                clause = _join(sig[i + 2 : end])
                try:
                    c = parse_constraint(clause)
                    pragma = c if pragma is None else pragma.intersect(c)
                except VersionSyntaxError:
                    diagnostics.append(
                        Diagnostic(
                            f"unparseable version pragma: {clause!r}",
                            (sig[i].start, sig[min(end, len(sig) - 1)].end),
                        )
                    )
            i = end + 1
        elif text in ("contract", "library", "interface"):
            raw, i = _parse_contract(sig, i, structs, contract_names, diagnostics)
            if raw is not None:
                raws.append(raw)
        elif text in ("import", "using"):
            i = _skip_to(sig, i, (";",)) + 1
        elif text == "struct":
            i = _skip_group(sig, _skip_to(sig, i, ("{",)), len(sig))
        else:
            i += 1

    # An unknown version could be any: every rule runs.  An unparseable
    # directive has its diagnostic already.
    if pragma is None or pragma.is_empty():
        if pragma is not None or not has_directive:
            diagnostics.append(Diagnostic(
                "no solidity version pragma" if pragma is None
                else "contradictory version pragmas match no compiler", (0, 0)))
        pragma = ANY_VERSION

    own_vars = {r.name: {v.name for v in r.state_vars} for r in raws}
    bases_of = {r.name: r.bases for r in raws}
    contracts: List[ContractDecl] = []
    for raw in raws:
        state_names = _state_names(raw.name, own_vars, bases_of, set())
        functions: List[FunctionDecl] = []
        for fn in raw.functions:
            body_parser = _BodyParser(
                fn.body_toks, fn.body_span, state_names, structs,
                contract_names, diagnostics,
            )
            stmts, guards = body_parser.run()
            functions.append(
                FunctionDecl(
                    name=fn.name,
                    params=fn.params,
                    visibility=fn.visibility,
                    body=tuple(stmts),
                    span=fn.span,
                    body_span=fn.body_span,
                    is_fallback=fn.is_fallback,
                    has_body=fn.has_body,
                    guards=tuple(guards),
                )
            )
        contracts.append(
            ContractDecl(
                name=raw.name,
                kind=raw.kind,
                state_vars=tuple(raw.state_vars),
                functions=tuple(functions),
                span=raw.span,
            )
        )

    return SourceModel(
        file_path=file_path,
        pragma=pragma,
        contracts=tuple(contracts),
        diagnostics=tuple(diagnostics),
        tokens=tokens,
    )


def parse_file(path: str) -> SourceModel:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse(data.decode("utf-8", "surrogateescape"), file_path=path)

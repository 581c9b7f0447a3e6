"""Shallow structural parser for Solidity source.

Goals: pragma constraints, contract/function/state-variable structure, and a
flat statement list per function body with byte spans and light
classification.  Non-goals: a full AST, expression trees, type checking.

Tolerance is absolute: any input produces a model plus diagnostics, never an
exception.  Unrecognized constructs become opaque statements.  Statement
spans partition each function body exactly (leading trivia sticks to the
following statement, trailing trivia to the last one).

Modifier declarations are skipped as opaque contract members on purpose:
their bodies do not contribute guards to the functions that invoke them,
which mirrors how the lexical detectors reason (and mis-reason) about code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

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
    """Index of the token closing the group opened at ``i``, looking no
    further than ``end`` (default ``len(ts)``); ``end`` if none."""

    if end is None:
        end = len(ts)
    close = _OPENERS[ts[i].text]
    open_ = ts[i].text
    depth = 0
    for j in range(i, end):
        x = ts[j].text
        if x == open_:
            depth += 1
        elif x == close:
            depth -= 1
            if depth == 0:
                return j
    return end


def _match_back(ts: Sequence[Token], i: int) -> int:
    """Index of the token opening the group closed at ``i``; -1 if none."""

    open_ = _CLOSERS[ts[i].text]
    close = ts[i].text
    depth = 0
    for j in range(i, -1, -1):
        x = ts[j].text
        if x == close:
            depth += 1
        elif x == open_:
            depth -= 1
            if depth == 0:
                return j
    return -1


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
    if first == "mapping":
        # mapping(...)[...] is array-like at the outermost level
        if _has_outer_bracket(toks[1:]):
            return TypeClass.ARRAY
        return TypeClass.MAPPING
    if _has_outer_bracket(toks[1:]):
        return TypeClass.ARRAY
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


def _has_outer_bracket(toks: Sequence[Token]) -> bool:
    depth = 0
    for t in toks:
        if t.text == "(" or t.text == "{":
            depth += 1
        elif t.text == ")" or t.text == "}":
            depth -= 1
        elif t.text == "[" and depth == 0:
            return True
    return False


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
    """Index of the first punctuation token in ``ops`` outside every bracket,
    looking at ``toks[lo:hi]`` (a stray closer is ignored); None if none."""

    depth = 0
    for i in range(lo, len(toks) if hi is None else hi):
        t = toks[i]
        x = t.text
        if x in "([{":
            depth += 1
        elif x in ")]}":
            if depth > 0:
                depth -= 1
        elif depth == 0 and x in ops and t.kind == TokenKind.PUNCTUATION:
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
            opened = _match_back(toks, j)
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
        depth = 0
        for j in range(k, min(end, len(toks))):
            x = toks[j].text
            if x == "{":
                depth += 1
            elif x == "}":
                depth -= 1
            elif depth == 1 and x == ":" and j > 0:
                key = toks[j - 1].text
                if key == "value":
                    carries = True
                elif key == "gas":
                    gas = True
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
            k = _find_matching(toks, k + 2) + 1

    if k < len(toks) and toks[k].text == "(":
        end = _find_matching(toks, k)
        args = toks[k + 1 : end]
        payload_empty = not args or (
            len(args) == 1
            and args[0].kind == TokenKind.STRING
            and args[0].text in ('""', "''")
        )
    return carries, gas, payload_empty


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
        cond_text = ""
        cond_span = (bt[i].start, bt[i].end)
        last = i
        if i + 1 < len(bt) and bt[i + 1].text == "(":
            close = _find_matching(bt, i + 1)
            if close >= len(bt):
                close = len(bt) - 1
            cond_toks = bt[i + 2 : close]
            cond_text = _join(cond_toks)
            cond_span = _span_of(cond_toks) if cond_toks else cond_span
            last = close
        if last + 1 < len(bt) and bt[last + 1].text == "{":
            last += 1
        slice_ = bt[i : last + 1]
        self._emit(StmtKind.IF_GUARD, slice_, call=_scan_call(slice_))
        self.guards.append(Guard("if", cond_text, cond_span))
        return last + 1

    def _handle_loop(self, i: int) -> int:
        bt = self.toks
        last = i
        if i + 1 < len(bt) and bt[i + 1].text == "(":
            close = _find_matching(bt, i + 1)
            last = min(close, len(bt) - 1)
        return self._handle_header(i, last + 1)

    def _handle_header(self, i: int, after: int) -> int:
        """Emit an opaque header (else/do/loop), absorbing a trailing brace."""

        bt = self.toks
        last = after - 1
        if after < len(bt) and bt[after].text == "{":
            last = after
        self._emit(StmtKind.OPAQUE, bt[i : last + 1])
        return last + 1

    def _handle_assembly(self, i: int) -> int:
        bt = self.toks
        j = _skip_to(bt, i, ("{",))
        if j >= len(bt):
            self._emit(StmtKind.OPAQUE, bt[i:])
            return len(bt)
        close = _find_matching(bt, j)
        close = min(close, len(bt) - 1)
        self._emit(StmtKind.OPAQUE, bt[i : close + 1])
        return close + 1

    def _handle_simple(self, i: int) -> int:
        bt = self.toks
        j = i
        paren = bracket = brace = 0
        end = None
        while j < len(bt):
            x = bt[j].text
            if x == "(":
                paren += 1
            elif x == ")":
                paren = max(0, paren - 1)
            elif x == "[":
                bracket += 1
            elif x == "]":
                bracket = max(0, bracket - 1)
            elif x == "{":
                brace += 1
            elif x == "}":
                if brace == 0:
                    break  # enclosing block ends mid-statement
                brace -= 1
            elif x == ";" and paren == 0 and bracket == 0 and brace == 0:
                end = j
                break
            j += 1
        if end is None:
            slice_ = bt[i:j]
            if j < len(bt):
                self.diagnostics.append(
                    Diagnostic("statement not terminated", _span_of(slice_ or bt[i : i + 1]))
                )
            nxt = j
        else:
            slice_ = bt[i : end + 1]
            nxt = end + 1
        if slice_:
            self._classify_and_emit(slice_)
        return max(nxt, i + 1)

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
            cond_text = ""
            cond_span = _span_of(core)
            p = _skip_to(core, 0, ("(",))
            if p < len(core):
                close = _find_matching(core, p)
                cond_toks = core[p + 1 : close]
                cond_text = _join(cond_toks)
                if cond_toks:
                    cond_span = _span_of(cond_toks)
            self.guards.append(Guard(first, cond_text, cond_span))
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
    params: List[VarDecl] = []
    start = 0
    depth = 0
    pieces: List[Sequence[Token]] = []
    for i, t in enumerate(toks):
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        elif t.text == "," and depth == 0:
            pieces.append(toks[start:i])
            start = i + 1
    pieces.append(toks[start:])
    for piece in pieces:
        if not piece:
            continue
        # a parameter slot is a declaration by position, so any leading
        # identifier may open a type here
        decl = _parse_var_decl(
            piece, structs, contracts, member=True, allow_unnamed=True
        )
        if decl is not None:
            params.append(decl)
    return tuple(params)


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
            k = min(_find_matching(sig, k + 1, end), end - 1) + 1
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
        depth = 0
        for t in sig[k:open_]:
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            elif depth == 0 and t.kind == TokenKind.IDENTIFIER and t.text != "is":
                raw.bases.append(t.text)
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
                j = min(_find_matching(sig, stop), close - 1) + 1
        elif text in ("struct", "enum"):
            stop = _skip_to(sig, j, ("{",))
            if stop >= close:
                j = close
            else:
                j = min(_find_matching(sig, stop), close - 1) + 1
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


def parse(source: str, file_path: str = "<string>") -> SourceModel:
    """Parse Solidity source into a structural model.  Never raises."""

    tokens = tuple(lex(source))  # the lexer's list is freed here, not at return
    sig = code_tokens(tokens)
    diagnostics: List[Diagnostic] = []
    structs, contract_names = _collect_global_names(sig)

    pragma: Optional[PragmaConstraint] = None
    raws: List[_ContractRaw] = []
    i = 0
    while i < len(sig):
        text = sig[i].text
        if text == "pragma":
            end = _skip_to(sig, i + 1, (";",))
            if i + 1 < end and sig[i + 1].text == "solidity":
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
            stop = _skip_to(sig, i, ("{",))
            i = (_find_matching(sig, stop) + 1) if stop < len(sig) else len(sig)
        else:
            i += 1

    # An unknown version could be any: every rule runs.
    if pragma is None or pragma.is_empty():
        diagnostics.append(Diagnostic(
            "no solidity version pragma" if pragma is None
            else "contradictory version pragmas match no compiler", (0, 0)))
        pragma = ANY_VERSION

    own_vars = {r.name: {v.name for v in r.state_vars} for r in raws}
    bases_of = {r.name: list(r.bases) for r in raws}

    def resolve(name: str, seen: Set[str]) -> Set[str]:
        if name in seen or name not in own_vars:
            return set()
        seen.add(name)
        out = set(own_vars[name])
        for b in bases_of.get(name, ()):
            out |= resolve(b, seen)
        return out

    contracts: List[ContractDecl] = []
    for raw in raws:
        state_names = resolve(raw.name, set())
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

"""Shallow structural parser for Solidity source.

Goals: pragma constraints, contract/function/state-variable structure, and a
flat statement list per function body with byte spans and light
classification.  Non-goals: a full AST, expression trees, type checking.

Tolerance is absolute: any input produces a model plus diagnostics, never an
exception.  Unrecognized constructs become opaque statements.  Statement
spans partition each function body exactly (leading trivia sticks to the
following statement, trailing trivia to the last one).

Brackets follow one rule: a group ends at the partner of its opening
bracket, counting that bracket's kind only (``_find_matching``).  An index
is at the top level of a range when no group opened in the range encloses
it (``_top_level``): in ``(a]; b`` the ``(`` encloses the rest, and a
closer with nothing open is at the top level.  An unclosed group runs to its
bound and takes no token as its closer: a contract to the next contract
keyword or the end of input, a parameter list or function body to the end
of its contract.

Declarations follow one rule too: a declaration ends at its first top-level
``;`` or just after its first top-level ``{...}`` group, and never reads past
its bound.  This holds for file-level directives and declarations, contract
headers and members, function headers after the parameter list, and
``assembly`` blocks.  Contracts are declared only at file level, so a
``contract``, ``library`` or ``interface`` keyword bounds every file-level
declaration before it, and a contract's body bounds its members.  So an
unclosed file-level group encloses everything up to the next contract
keyword: ``( pragma solidity ^0.4.24; contract C {}`` has no pragma.

Statement ends, parameter and base lists, call-option keys and the
operators that classify a statement are all read at the top level.  A body
statement is classified from the one top-level walk that finds its end: the
walk records the first top-level ``=``, compound operator and ``++``/``--``.

Each contract is parsed in one pass where it stands.  One walk finds where
each member ends; for a function it also finds its body's closing brace,
once.  The members that end at ``;`` are tried as state variables.  Then
each function is built once, body statements and guards included, against
the contract's state variable names: its own and those of each base
declared earlier in the file.  A base declared later lends none: solc
rejects such a file ("Definition of base has to precede definition of
derived contract").  Repeated and cyclic base names, which solc rejects
too, resolve against the contracts parsed so far.

Modifier declarations are skipped as opaque contract members on purpose:
their bodies do not contribute guards to the functions that invoke them,
which mirrors how the lexical detectors reason (and mis-reason) about code.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .lexer import END, KIND, START, TEXT, Token, TokenKind, code_tokens, lex
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
# The class of each token text that ends or classifies a body statement or a
# declaration when it is at its top level.  A declaration ends at a ``;`` or
# after the group a ``{`` opens (``_DECL_ENDS``).
_MARKS = dict.fromkeys(("+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="),
                       "compound")
_MARKS.update({";": ";", "{": "{", "}": "}", "=": "=", "++": "bump", "--": "bump"})
_DECL_ENDS = (";", "{")
_CALL_MEMBERS = frozenset(("call", "delegatecall", "callcode", "send", "transfer"))
# The block headers of a body, each with whether a ``(...)`` group follows
# its keyword.
_HEADERS = {"if": True, "for": True, "while": True,
            "else": False, "do": False, "unchecked": False}
_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}
_DECLS = frozenset(("contract", "library", "interface"))
_FUNCTIONS = frozenset(("function", "constructor", "fallback", "receive"))


_texts = itemgetter(TEXT)


def _join(toks: Sequence[Token]) -> str:
    return " ".join(map(_texts, toks))


def _span_of(toks: Sequence[Token]) -> Span:
    if not toks:
        return (0, 0)
    return (toks[0][START], toks[-1][END])


def _find_matching(ts: Sequence[Token], i: int, end: Optional[int] = None) -> int:
    """Index of the partner of the bracket ``ts[i]``.  From an opener it
    looks forward, no further than ``end`` (default ``len(ts)``), and gives
    ``end`` if none; from a closer it looks back and gives -1 if none."""

    own = ts[i][TEXT]
    if own in _OPENERS:
        partner, step = _OPENERS[own], 1
        stop = len(ts) if end is None else end
    else:
        partner, step, stop = _CLOSERS[own], -1, -1
    depth = 0
    for j in range(i, stop, step):
        x = ts[j][TEXT]
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
    """The indexes in ``toks[lo:hi]`` that no group opened in that range
    encloses: an opener is at the top level, the walk resumes past its
    partner, and a closer with nothing open is at the top level too."""

    i = lo
    while i < hi:
        yield i
        i = _skip_group(toks, i, hi) if toks[i][TEXT] in _OPENERS else i + 1


def _walk_marks(
    toks: Sequence[Token], lo: int, hi: int, stops: Tuple[str, ...]
) -> Tuple[int, Dict[str, int]]:
    """One walk over the top level of ``toks[lo:hi]``, up to the first token
    whose ``_MARKS`` class is in ``stops``: that token's index (``hi`` if
    none), and each class met before it with its first index from ``lo``."""

    marks: Dict[str, int] = {}
    for j in _top_level(toks, lo, hi):
        mark = _MARKS.get(toks[j][TEXT])
        if mark is not None:
            if mark in stops:
                return j, marks
            marks.setdefault(mark, j - lo)
    return hi, marks


def _decl_end(toks: Sequence[Token], stop: int, hi: int) -> int:
    """Index past a declaration whose walk stopped at ``toks[stop]``: past
    the group a ``{`` opens, else past the ``;``; ``hi`` at most."""
    if stop < hi and toks[stop][TEXT] == "{":
        return _skip_group(toks, stop, hi)
    return min(stop + 1, hi)


def _is_word(tok: Token) -> bool:
    return tok[KIND] in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)


def _is_type_start(tok: Token, structs: Set[str], contracts: Set[str]) -> bool:
    kind, text = tok[KIND], tok[TEXT]
    if text == "mapping" or text in _ELEMENTARY_TYPES:
        return True
    if kind == TokenKind.KEYWORD and (
        text.startswith("int") or text.startswith("uint")
        or text.startswith("bytes") or text.startswith("fixed")
        or text.startswith("ufixed")
    ):
        return True
    return kind == TokenKind.IDENTIFIER and (text in structs or text in contracts)


def _classify_type(toks: Sequence[Token], structs: Set[str]) -> TypeClass:
    if not toks:
        return TypeClass.OTHER
    first = toks[0][TEXT]
    # a top-level ``[`` past the first token: ``T[]``, ``mapping(...)[...]``
    if "[" in map(_texts, toks) and any(
            toks[i][TEXT] == "[" for i in _top_level(toks, 1, len(toks))):
        return TypeClass.ARRAY
    if first == "mapping":
        return TypeClass.MAPPING
    if any(t[TEXT] in structs for t in toks):
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
    eq: Optional[int],
    structs: Set[str],
    contracts: Set[str],
    *,
    member: bool,
    allow_unnamed: bool = False,
) -> Optional[VarDecl]:
    """Interpret ``toks`` (no trailing ``;``) as a variable declaration;
    ``eq`` is the index of its first top-level ``=``, or None.

    ``member`` relaxes the leading-type check: at contract level any
    identifier can open a type, inside bodies it must be a known struct or
    contract name so that plain assignments are not mistaken for decls.
    """

    location = StorageLocation.DEFAULT
    filtered: List[Token] = []
    for t in toks[:eq]:
        text = t[TEXT]
        if text in _LOCATIONS and location is StorageLocation.DEFAULT:
            location = _LOCATIONS[text]
        elif text not in _DECL_FILTER:
            # the head is checked before any later token is looked at, so an
            # event, ``using`` or modifier is rejected on its keyword
            # (contract level trusts an identifier's position)
            if not filtered and not (member and t[KIND] == TokenKind.IDENTIFIER
                                     or _is_type_start(t, structs, contracts)):
                return None
            filtered.append(t)
    if not filtered:
        return None

    name = ""
    type_toks: Sequence[Token] = filtered
    if len(filtered) >= 2 and filtered[-1][KIND] == TokenKind.IDENTIFIER:
        prev = filtered[-2]
        if prev[TEXT] != "." and (_is_word(prev) or prev[TEXT] in (")", "]")):
            name = filtered[-1][TEXT]
            type_toks = filtered[:-1]
    if not name and not allow_unnamed:
        return None
    if any(t[TEXT] == "(" for t in type_toks) and type_toks[0][TEXT] != "mapping":
        return None  # function calls are not declarations

    return VarDecl(
        name=name,
        type_text=_join(type_toks),
        type_class=_classify_type(type_toks, structs),
        storage_location=location,
        has_initializer=eq is not None,
        span=_span_of(toks),
    )


def _scan_call(toks: Sequence[Token]) -> Optional[CallDetail]:
    """Find the first ether-capable member call in a token run."""

    for i in range(len(toks) - 1):
        if toks[i][TEXT] != "." or toks[i][KIND] != TokenKind.PUNCTUATION:
            continue
        nxt = toks[i + 1]
        if nxt[KIND] != TokenKind.IDENTIFIER or nxt[TEXT] not in _CALL_MEMBERS:
            continue
        callee = _callee_before(toks, i)
        member = nxt[TEXT]
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
        if t[TEXT] in (")", "]"):
            opened = _find_matching(toks, j)
            if opened < 0:
                break
            start = opened
            j = opened - 1
            continue
        if _is_word(t) or t[KIND] == TokenKind.NUMBER:
            start = j
            j -= 1
            if j >= 0 and toks[j][TEXT] == ".":
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
    if k < len(toks) and toks[k][TEXT] == "{":
        end = _find_matching(toks, k)
        # a key follows the opening brace or a top-level comma
        for j in _top_level(toks, k + 1, end):
            if toks[j][TEXT] == ":" and toks[j - 2][TEXT] in ("{", ","):
                carries |= toks[j - 1][TEXT] == "value"
                gas |= toks[j - 1][TEXT] == "gas"
        k = end + 1
    else:
        while (
            k + 2 < len(toks)
            and toks[k][TEXT] == "."
            and toks[k + 1][TEXT] in ("value", "gas")
            and toks[k + 2][TEXT] == "("
        ):
            if toks[k + 1][TEXT] == "value":
                carries = True
            else:
                gas = True
            k = _skip_group(toks, k + 2, len(toks))

    if k < len(toks) and toks[k][TEXT] == "(":
        end = _find_matching(toks, k)
        args = toks[k + 1 : end]
        payload_empty = not args or (
            len(args) == 1
            and args[0][KIND] == TokenKind.STRING
            and args[0][TEXT] in ('""', "''")
        )
    return carries, gas, payload_empty


def _guard(kind: str, toks: Sequence[Token], p: int, span: Span) -> Tuple[Guard, int]:
    """Guard ``kind`` on the group opened at ``toks[p]``, and the index of
    that group's closer (``len(toks)`` if unclosed).  With no ``(`` at
    ``p`` the condition is empty at ``span`` and the index is ``p - 1``."""

    if p >= len(toks) or toks[p][TEXT] != "(":
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
        self.stmts: List[Stmt] = []
        self.guards: List[Guard] = []
        self.prev_end = body_span[0]  # where the next statement's span starts
        # the statement holding the last token runs to the body's end
        self.last_end = toks[-1][END] if toks else None

    def run(self) -> Tuple[Tuple[Stmt, ...], Tuple[Guard, ...]]:
        """The body's statements, spans partitioning the body exactly, and
        its guards."""

        bt = self.toks
        i = 0
        while i < len(bt):
            text = bt[i][TEXT]
            if text in _HEADERS:
                i = self._handle_header(i)
            elif text == "assembly":
                i = self._handle_assembly(i)
            elif text in ("{", "}"):
                self._emit(StmtKind.OPAQUE, bt[i : i + 1])
                i += 1
            else:
                i = self._handle_simple(i)
        lo, hi = self.body_span
        if not bt and hi > lo:
            self.stmts.append(Stmt(kind=StmtKind.OPAQUE, span=(lo, hi), text=""))
        return tuple(self.stmts), tuple(self.guards)

    def _handle_header(self, i: int) -> int:
        """A block header: its keyword, the ``(...)`` group if the keyword
        takes one, and a ``{`` that follows."""

        bt = self.toks
        kw = bt[i][TEXT]
        after = i + 1
        if kw == "if":
            guard, close = _guard("if", bt, after, (bt[i][START], bt[i][END]))
            self.guards.append(guard)
            after = min(close + 1, len(bt))
        elif _HEADERS[kw] and after < len(bt) and bt[after][TEXT] == "(":
            after = _skip_group(bt, after, len(bt))
        if after < len(bt) and bt[after][TEXT] == "{":
            after += 1
        slice_ = bt[i:after]
        if kw == "if":
            self._emit(StmtKind.IF_GUARD, slice_, call=_scan_call(slice_))
        else:
            self._emit(StmtKind.OPAQUE, slice_)
        return after

    def _handle_assembly(self, i: int) -> int:
        bt = self.toks
        end = _decl_end(bt, _walk_marks(bt, i, len(bt), _DECL_ENDS)[0], len(bt))
        self._emit(StmtKind.OPAQUE, bt[i:end])
        return end

    def _handle_simple(self, i: int) -> int:
        """A statement from ``bt[i]`` (not a brace) through the first
        top-level ``;``, or up to a top-level ``}`` that ends the enclosing
        block mid-statement."""

        bt = self.toks
        end, marks = _walk_marks(bt, i, len(bt), (";", "}"))
        if end < len(bt) and bt[end][TEXT] == ";":
            end += 1
        elif end < len(bt):
            self.diagnostics.append(
                Diagnostic("statement not terminated", _span_of(bt[i:end])))
        self._classify_and_emit(bt[i:end], marks)
        return end

    def _emit(self, kind: StmtKind, slice_: Sequence[Token], **details) -> None:
        end = slice_[-1][END]
        if end == self.last_end:
            end = self.body_span[1]
        self.stmts.append(Stmt(kind=kind, span=(self.prev_end, end), text=_join(slice_),
                               tokens=tuple(slice_), **details))
        self.prev_end = end

    def _classify_and_emit(self, slice_: Sequence[Token], marks: Dict[str, int]) -> None:
        core = slice_[:-1] if slice_ and slice_[-1][TEXT] == ";" else slice_
        if not core:
            self._emit(StmtKind.OPAQUE, slice_)
            return
        first = core[0][TEXT]
        eq = marks.get("=")

        if first == "return":
            self._emit(StmtKind.RETURN, slice_, call=_scan_call(core))
            return
        if first in ("require", "assert"):
            self.guards.append(_guard(first, core, 1, _span_of(core))[0])
            self._emit(StmtKind.REQUIRE_OR_ASSERT, slice_, call=_scan_call(core))
            return
        if first == "delete":
            self._emit(StmtKind.ASSIGNMENT, slice_, assign=self._assign(core[1:]))
            return
        if first in ("emit", "revert", "throw", "break", "continue", "_"):
            self._emit(StmtKind.OPAQUE, slice_, call=_scan_call(core))
            return

        if _is_type_start(core[0], self.structs, self.contracts):
            decl = _parse_var_decl(core, eq, self.structs, self.contracts, member=False)
            if decl is not None:
                call = _scan_call(core)
                kind = StmtKind.EXTERNAL_CALL if call else StmtKind.LOCAL_VAR_DECL
                self._emit(kind, slice_, decl=decl, call=call)
                return

        if eq is not None:
            rhs = core[eq + 1 :]
            call = _scan_call(rhs)
            kind = StmtKind.EXTERNAL_CALL if call else StmtKind.ASSIGNMENT
            self._emit(kind, slice_, assign=self._assign(core[:eq], rhs), call=call)
            return

        comp = marks.get("compound")
        if comp is not None:
            assign = self._assign(core[:comp], core[comp + 1 :])
            self._emit(StmtKind.COMPOUND_ASSIGNMENT, slice_, assign=assign)
            return

        bump = marks.get("bump")
        if bump is not None:
            assign = self._assign(core[:bump] + core[bump + 1 :])
            self._emit(StmtKind.COMPOUND_ASSIGNMENT, slice_, assign=assign)
            return

        call = _scan_call(core)
        kind = StmtKind.EXTERNAL_CALL if call else StmtKind.OPAQUE
        self._emit(kind, slice_, call=call)

    def _assign(self, lhs: Sequence[Token], rhs: Sequence[Token] = ()) -> AssignDetail:
        """The write to ``lhs``; its base is the first identifier in it."""
        base = next((t[TEXT] for t in lhs if t[KIND] == TokenKind.IDENTIFIER), "")
        return AssignDetail(lhs=_join(lhs), rhs=_join(rhs), lhs_base=base,
                            lhs_is_state_var=base in self.state_vars)


def _collect_global_names(sig: Sequence[Token]) -> Tuple[Set[str], Set[str], List[int]]:
    """The struct and contract names declared in ``sig``, and the index of
    each ``_DECLS`` keyword in order, then ``len(sig)``."""
    structs: Set[str] = set()
    contracts: Set[str] = set()
    decls: List[int] = []
    for i, tok in enumerate(sig):
        if tok[TEXT] in _DECLS or tok[TEXT] == "struct":
            text = tok[TEXT]
            if text in _DECLS:
                decls.append(i)
            if i + 1 < len(sig) and sig[i + 1][KIND] == TokenKind.IDENTIFIER:
                (structs if text == "struct" else contracts).add(sig[i + 1][TEXT])
    decls.append(len(sig))
    return structs, contracts, decls


def _parse_params(
    toks: Sequence[Token], structs: Set[str], contracts: Set[str]
) -> Tuple[VarDecl, ...]:
    commas = [i for i in _top_level(toks, 0, len(toks)) if toks[i][TEXT] == ","]
    # a parameter slot is a declaration by position, so any leading
    # identifier may open a type here
    decls = (_parse_var_decl(toks[a + 1 : b], _walk_marks(toks, a + 1, b, ())[1].get("="),
                             structs, contracts, member=True, allow_unnamed=True)
             for a, b in zip([-1] + commas, commas + [len(toks)]))
    return tuple(d for d in decls if d is not None)


def _parse_function(
    sig: Sequence[Token],
    i: int,
    stop: int,
    closer: int,
    end: int,
    state_names: Set[str],
    structs: Set[str],
    contracts: Set[str],
    diagnostics: List[Diagnostic],
) -> FunctionDecl:
    """The function starting at ``sig[i]``, whose header ends at ``sig[stop]``
    and whose body, if the ``{`` there opens one, ends at ``sig[closer]``.
    Reads no token at or past ``end``: the enclosing contract's closing
    brace, or its bound if the contract has none."""

    start = sig[i][START]
    name = sig[i][TEXT]
    k = i + 1
    if name == "function":
        name = ""
        if k < stop and _is_word(sig[k]):
            name = sig[k][TEXT]
            k += 1
    is_fallback = name in ("", "fallback", "receive")

    params: Tuple[VarDecl, ...] = ()
    if k < stop and sig[k][TEXT] == "(":
        group = _find_matching(sig, k, stop)
        if group >= stop:  # unclosed, so the header ran to ``end``
            diagnostics.append(
                Diagnostic("unclosed parameter list", (start, sig[end - 1][END]))
            )
        params = _parse_params(sig[k + 1 : group], structs, contracts)
        k = group + 1

    visibility = Visibility.DEFAULT  # the last visibility word at the top level
    for k in _top_level(sig, k, stop):
        visibility = _VISIBILITY.get(sig[k][TEXT], visibility)

    if stop >= end or sig[stop][TEXT] == ";":  # no body: ends at its ";" or at ``end``
        last = sig[min(stop, end - 1)][END]
        return FunctionDecl(name, params, visibility, (), (start, last), (last, last),
                            is_fallback, has_body=False)

    if closer < end:
        span_end, body_end = sig[closer][END], sig[closer][START]
    else:
        span_end = body_end = sig[end - 1][END]
        diagnostics.append(Diagnostic("unclosed function body", (start, span_end)))
    body_span = (sig[stop][END], body_end)
    body, guards = _BodyParser(sig[stop + 1 : closer], body_span, state_names, structs,
                               contracts, diagnostics).run()
    return FunctionDecl(name, params, visibility, body, (start, span_end), body_span,
                        is_fallback, guards=guards)


def _parse_contract(
    sig: Sequence[Token],
    i: int,
    bound: int,
    inherited: Dict[str, Set[str]],
    structs: Set[str],
    contracts: Set[str],
    diagnostics: List[Diagnostic],
) -> Tuple[Optional[ContractDecl], int]:
    """The contract starting at ``sig[i]`` (None for a declaration with no
    body), and the index past it, reading no token at or past ``bound``.
    ``inherited`` maps each contract parsed before it to its state variable
    names, its bases' included; the contract's own entry is added."""

    kind = sig[i][TEXT]
    start = sig[i][START]
    name = "<anonymous>"
    k = i + 1
    if k < bound and _is_word(sig[k]):
        name = sig[k][TEXT]
        k += 1

    open_ = _walk_marks(sig, k, bound, _DECL_ENDS)[0]
    if open_ >= bound or sig[open_][TEXT] == ";":
        # forward declaration or garbage; nothing to record
        return None, min(open_ + 1, bound)
    bases: List[str] = []
    if any(t[TEXT] == "is" for t in sig[k:open_]):
        bases = [sig[j][TEXT] for j in _top_level(sig, k, open_)
                 if sig[j][KIND] == TokenKind.IDENTIFIER]
    close = resume = _find_matching(sig, open_, bound)
    if close < bound:
        resume += 1
    else:
        diagnostics.append(Diagnostic(f"unclosed {kind} body", (start, sig[close - 1][END])))

    state_vars: List[VarDecl] = []
    heads: List[Tuple[int, int, int]] = []  # a function's first index, header end, body end
    j = open_ + 1
    while j < close:  # each member ends at its first top-level ";" or "{...}" group
        stop, marks = _walk_marks(sig, j, close, _DECL_ENDS)
        group = stop < close and sig[stop][TEXT] == "{"
        last = _find_matching(sig, stop, close) if group else stop
        if sig[j][TEXT] in _FUNCTIONS:
            heads.append((j, stop, last))
        elif not group:  # a member with no body statements; only a state variable is kept
            decl = _parse_var_decl(sig[j:stop], marks.get("="), structs, contracts,
                                   member=True)
            if decl is not None:
                state_vars.append(decl)
        j = last + 1

    state_names = {v.name for v in state_vars}.union(*(inherited.get(b, ()) for b in bases))
    inherited[name] = state_names
    functions = tuple(_parse_function(sig, *head, close, state_names, structs, contracts,
                                      diagnostics) for head in heads)
    contract = ContractDecl(name, kind, tuple(state_vars), functions,
                            (start, sig[resume - 1][END]))
    return contract, resume


def parse(source: str, file_path: str = "<string>") -> SourceModel:
    """Parse Solidity source into a structural model.  Never raises."""

    tokens = tuple(lex(source))  # the lexer's list is freed here, not at return
    sig = code_tokens(tokens)
    diagnostics: List[Diagnostic] = []
    structs, contract_names, decls = _collect_global_names(sig)

    pragma: Optional[PragmaConstraint] = None
    has_directive = False  # a ``pragma solidity`` was seen, parseable or not
    contracts: List[ContractDecl] = []
    inherited: Dict[str, Set[str]] = {}
    i = 0
    for bound in decls:  # each declaration keyword ends the scans before it
        while i < bound:
            if sig[i][TEXT] in _DECLS:
                found, i = _parse_contract(sig, i, bound, inherited, structs, contract_names,
                                           diagnostics)
                if found is not None:
                    contracts.append(found)
                continue
            stop = _walk_marks(sig, i, bound, _DECL_ENDS)[0]
            if sig[i][TEXT] == "pragma" and i + 1 < stop and sig[i + 1][TEXT] == "solidity":
                has_directive = True
                clause = _join(sig[i + 2 : stop])
                try:
                    if not clause:  # an empty clause names no version
                        raise VersionSyntaxError(clause)
                    c = parse_constraint(clause)
                    pragma = c if pragma is None else pragma.intersect(c)
                except VersionSyntaxError:
                    span = (sig[i][START], sig[min(stop, bound - 1)][END])
                    diagnostics.append(
                        Diagnostic(f"unparseable version pragma: {clause!r}", span))
            i = _decl_end(sig, stop, bound)

    # An unknown version could be any: every rule runs.  An unparseable
    # directive has its diagnostic already.
    if pragma is None or pragma.is_empty():
        if pragma is not None or not has_directive:
            diagnostics.append(Diagnostic(
                "no solidity version pragma" if pragma is None
                else "contradictory version pragmas match no compiler", (0, 0)))
        pragma = ANY_VERSION

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

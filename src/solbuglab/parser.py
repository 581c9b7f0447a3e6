"""Shallow structural parser for Solidity source.

Goals: pragma constraints, contract/function/state-variable structure, and a
flat statement list per function body with byte spans.  The model keeps
only the distinctions a rule reads: a statement's first ether-capable member
call, its write (plain or compound, to state or not) and its local
declaration; a declaration's type class, if a rule reads that class, and
whether it is declared ``memory`` or ``calldata``; and whether a function
is callable from outside.  Non-goals: a full AST, expression trees, type
checking.

Tolerance is absolute: any input produces a model plus diagnostics, never an
exception.  Unrecognized constructs become statements with no call, write
or declaration.  Statement spans partition each function body exactly
(leading trivia sticks to the following statement, trailing trivia to the
last one).

Brackets follow one rule: a group ends at the partner of its opening
bracket, counting that bracket's kind only.  The lexer's ``_partners`` pass
over a file's code tokens finds every bracket's partner (``_Code``): an
unclosed opener's is the end of input, and a closer with nothing open has
none.  Read within a bound, a group ends at its partner or at the bound,
whichever comes first, so every group is skipped by one lookup.  An index
is at the top level of a range when no group opened in the range encloses
it (``_top_level``): in ``(a]; b`` the ``(`` encloses the rest, and a
closer with nothing open is at the top level.  An unclosed group runs to
its bound and takes no token as its closer: a contract to the next
contract keyword or the end of input, a parameter list or function body to
the end of its contract.  The parser reads ``(lo, hi)`` ranges of the one
token list and slices it only to build the records of the model.

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
operators that classify a statement are all read at the top level, by one
walker, ``_top_level``.  A body statement is classified from the one
top-level walk that finds its end: the walk records the first top-level
``=``, compound operator and ``++``/``--``.

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

from itertools import compress, count
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .lexer import (_IDENTIFIER, _KEYWORD, _NUMBER, _OPENERS, _STRING, END, KIND, START, TEXT,
                    Token, _partners, _texts, code_tokens, lex)
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
    TypeClass,
    VarDecl,
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
# Each data location word, with whether it is ``memory`` or ``calldata``.
_LOCATIONS = {"storage": False, "memory": True, "calldata": True}
# Each visibility word, with whether it lets a function be called from outside.
_VISIBILITY = {"public": True, "external": True, "internal": False, "private": False}
# The class of each token text that ends or classifies a body statement or a
# declaration when it is at its top level.  A declaration ends at a ``;`` or
# after the group a ``{`` opens (``_DECL_ENDS``).
_MARKS = dict.fromkeys(("+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="),
                       "compound")
_MARKS.update({";": ";", "{": "{", "}": "}", "=": "=", "++": "bump", "--": "bump"})
_DECL_ENDS = (";", "{")
# Member names only ever lex as identifiers, and ``.`` as punctuation.
_CALL_MEMBERS = frozenset(("call", "delegatecall", "callcode", "send", "transfer"))
# The block headers of a body, each with whether a ``(...)`` group follows
# its keyword.
_HEADERS = {"if": True, "for": True, "while": True,
            "else": False, "do": False, "unchecked": False}
_DECLS = frozenset(("contract", "library", "interface"))
_FUNCTIONS = frozenset(("function", "constructor", "fallback", "receive"))
# The keywords that the declaration scan over a file's code tokens stops at.
_INDEXED = frozenset((*_DECLS, "struct"))
# Module constants: attribute lookups on an Enum class are slow.
_WORDS = (_IDENTIFIER, _KEYWORD)
_CALLEE_PARTS = (_IDENTIFIER, _KEYWORD, _NUMBER)


class _Code:
    """A file's code tokens, read by index in ``(lo, hi)`` ranges: ``toks``,
    their ``texts``, and ``partner``, the index of each bracket's partner of
    its own kind (``_partners``).  A scan finds the struct and contract
    names declared, and ``decls``: the index of each ``_DECLS`` keyword in
    order, then ``len(toks)``.  ``diagnostics`` gathers the file's
    diagnostics."""

    __slots__ = ("toks", "texts", "partner", "structs", "contracts", "decls", "diagnostics")

    def __init__(self, toks: Sequence[Token]) -> None:
        n = len(toks)
        self.toks, self.texts = toks, list(map(_texts, toks))
        self.partner, self.decls, self.diagnostics = _partners(self.texts), [], []
        self.structs: Set[str] = set()
        self.contracts: Set[str] = set()
        texts = self.texts
        for i in compress(count(), map(_INDEXED.__contains__, texts)):
            text = texts[i]
            if text != "struct":
                self.decls.append(i)
            if i + 1 < n and toks[i + 1][KIND] is _IDENTIFIER:
                (self.structs if text == "struct" else self.contracts).add(texts[i + 1])
        self.decls.append(n)

    def span(self, lo: int, hi: int) -> Span:
        """The byte span of ``toks[lo:hi]``, (0, 0) when it is empty."""
        return (self.toks[lo][START], self.toks[hi - 1][END]) if lo < hi else (0, 0)


def _top_level(code: _Code, lo: int, hi: int) -> Iterator[int]:
    """The indexes in ``[lo, hi)`` that no group opened in that range
    encloses: an opener is at the top level, the walk resumes past its
    partner, and a closer with nothing open is at the top level too."""

    texts, partner = code.texts, code.partner
    i = lo
    while i < hi:
        yield i
        i = min(partner[i] + 1, hi) if texts[i] in _OPENERS else i + 1


def _walk_marks(
    code: _Code, lo: int, hi: int, stops: Tuple[str, ...]
) -> Tuple[int, Dict[str, int]]:
    """One walk over the top level of ``[lo, hi)`` (``_top_level``), up to
    the first token whose ``_MARKS`` class is in ``stops``: that token's
    index (``hi`` if none), and each class met before it with its first
    index."""

    texts = code.texts
    marks: Dict[str, int] = {}
    for i in _top_level(code, lo, hi):
        mark = _MARKS.get(texts[i])
        if mark in stops:
            return i, marks
        if mark is not None:
            marks.setdefault(mark, i)
    return hi, marks


def _decl_end(code: _Code, stop: int, hi: int) -> int:
    """Index past a declaration whose walk stopped at ``stop``: past the
    group a ``{`` opens, else past the ``;``; ``hi`` at most."""
    if stop < hi and code.texts[stop] == "{":
        return min(code.partner[stop] + 1, hi)
    return min(stop + 1, hi)


def _is_word(tok: Token) -> bool:
    return tok[KIND] in _WORDS


def _is_type_start(tok: Token, structs: Set[str], contracts: Set[str]) -> bool:
    kind, text = tok[KIND], tok[TEXT]
    if text == "mapping" or text in _ELEMENTARY_TYPES:
        return True
    if kind is _KEYWORD and (
        text.startswith("int") or text.startswith("uint")
        or text.startswith("bytes") or text.startswith("fixed")
        or text.startswith("ufixed")
    ):
        return True
    return kind is _IDENTIFIER and (text in structs or text in contracts)


def _classify_type(code: _Code, kept: List[int], type_texts: List[str]) -> Optional[TypeClass]:
    """The class of the type whose tokens are at ``kept``, with those
    texts, or None for a type of no class; the tokens between them are not
    brackets."""
    first = type_texts[0]
    # a top-level ``[`` past the first token: ``T[]``, ``mapping(...)[...]``
    if "[" in type_texts and any(
            code.texts[i] == "[" for i in _top_level(code, kept[0] + 1, kept[-1] + 1)):
        return TypeClass.ARRAY
    if first == "mapping":
        return None
    if not code.structs.isdisjoint(type_texts):
        return TypeClass.USER_COMPOSITE
    if first in ("bytes", "string"):
        return TypeClass.ARRAY
    if first == "address":
        return TypeClass.ADDRESS
    stem = first.rstrip("0123456789")  # only ``int``, ``uint`` and their sizes
    if stem == "uint":
        return TypeClass.UNSIGNED_INT
    if stem == "int":
        return TypeClass.SIGNED_INT
    return None


def _parse_var_decl(
    code: _Code,
    lo: int,
    hi: int,
    eq: Optional[int],
    *,
    member: bool,
    allow_unnamed: bool = False,
) -> Optional[VarDecl]:
    """Interpret ``[lo, hi)`` (no trailing ``;``) as a variable declaration;
    ``eq`` is the index of its first top-level ``=``, or None.

    ``member`` relaxes the leading-type check: at contract level any
    identifier can open a type, inside bodies it must be a known struct or
    contract name so that plain assignments are not mistaken for decls.
    """

    toks, texts = code.toks, code.texts
    location: Optional[bool] = None  # the first location word's, if any
    kept: List[int] = []
    for i in range(lo, hi if eq is None else eq):
        text = texts[i]
        if text in _LOCATIONS and location is None:
            location = _LOCATIONS[text]
        elif text not in _DECL_FILTER:
            # the head is checked before any later token is looked at, so an
            # event, ``using`` or modifier is rejected on its keyword
            # (contract level trusts an identifier's position)
            if not kept and not (member and toks[i][KIND] is _IDENTIFIER
                                 or _is_type_start(toks[i], code.structs, code.contracts)):
                return None
            kept.append(i)
    if not kept:
        return None

    name = ""
    if len(kept) >= 2 and toks[kept[-1]][KIND] is _IDENTIFIER:
        prev = kept[-2]
        if texts[prev] != "." and (_is_word(toks[prev]) or texts[prev] in (")", "]")):
            name = texts[kept.pop()]
    if not name and not allow_unnamed:
        return None
    type_texts = [texts[i] for i in kept]
    if "(" in type_texts and type_texts[0] != "mapping":
        return None  # function calls are not declarations

    return VarDecl(name=name, type_text=" ".join(type_texts),
                   type_class=_classify_type(code, kept, type_texts),
                   memory_or_calldata=bool(location),
                   has_initializer=eq is not None, span=code.span(lo, hi))


def _scan_call(code: _Code, lo: int, hi: int) -> Optional[CallDetail]:
    """Find the first ether-capable member call in ``[lo, hi)``."""

    texts = code.texts
    for i in range(lo, hi - 1):
        if texts[i] == "." and texts[i + 1] in _CALL_MEMBERS:
            member = texts[i + 1]
            carries, gas, payload_empty = _call_suffix(code, i + 2, hi, member)
            return CallDetail(
                callee=_callee_before(code, lo, i),
                member=member,
                carries_value=carries,
                gas_specified=gas,
                payload_empty=payload_empty,
            )
    return None


def _callee_before(code: _Code, lo: int, dot: int) -> str:
    toks, texts, partner = code.toks, code.texts, code.partner
    start = dot
    j = dot - 1
    while j >= lo:
        if texts[j] in (")", "]"):
            if partner[j] < lo:
                break
            start = partner[j]
            j = start - 1
            continue
        if toks[j][KIND] in _CALLEE_PARTS:
            start = j
            j -= 1
            if j >= lo and texts[j] == ".":
                j -= 1
                continue
        break
    return " ".join(texts[start:dot])


def _call_suffix(code: _Code, k: int, hi: int, member: str) -> Tuple[bool, bool, bool]:
    if member in ("send", "transfer"):
        # fixed 2300-gas stipend: value moves, gas is effectively pinned
        return True, True, True

    texts, partner = code.texts, code.partner
    carries = False
    gas = False
    payload_empty = True
    if k < hi and texts[k] == "{":
        end = min(partner[k], hi)
        # a key follows the opening brace or a top-level comma
        for j in _top_level(code, k + 1, end):
            if texts[j] == ":" and texts[j - 2] in ("{", ","):
                carries |= texts[j - 1] == "value"
                gas |= texts[j - 1] == "gas"
        k = end + 1
    else:
        while (
            k + 2 < hi
            and texts[k] == "."
            and texts[k + 1] in ("value", "gas")
            and texts[k + 2] == "("
        ):
            if texts[k + 1] == "value":
                carries = True
            else:
                gas = True
            k = min(partner[k + 2] + 1, hi)

    if k < hi and texts[k] == "(":
        end = min(partner[k], hi)
        payload_empty = end == k + 1 or (
            end == k + 2
            and code.toks[k + 1][KIND] is _STRING
            and texts[k + 1] in ('""', "''")
        )
    return carries, gas, payload_empty


def _guard(code: _Code, p: int, hi: int, span: Span) -> Tuple[Guard, int]:
    """The guard on the group opened at ``p``, and the index of that
    group's closer (``hi`` if unclosed before it).  With no ``(`` at ``p``
    the condition is empty at ``span`` and the index is ``p - 1``."""

    if p >= hi or code.texts[p] != "(":
        return Guard("", span), p - 1
    close = min(code.partner[p], hi)
    cond = " ".join(code.texts[p + 1 : close])
    return Guard(cond, code.span(p + 1, close) if close > p + 1 else span), close


class _BodyParser:
    def __init__(
        self, code: _Code, lo: int, hi: int, body_span: Span, state_vars: Set[str]
    ):
        self.code, self.toks, self.texts = code, code.toks, code.texts
        self.lo, self.hi = lo, hi  # the body's tokens
        self.body_span = body_span
        self.state_vars = state_vars
        self.stmts: List[Stmt] = []
        self.guards: List[Guard] = []
        self.prev_end = body_span[0]  # where the next statement's span starts
        # the statement holding the last token runs to the body's end
        self.last_end = code.toks[hi - 1][END] if hi > lo else None

    def run(self) -> Tuple[Tuple[Stmt, ...], Tuple[Guard, ...]]:
        """The body's statements, spans partitioning the body exactly, and
        its guards."""

        texts, hi = self.texts, self.hi
        i = self.lo
        while i < hi:
            text = texts[i]
            if text in _HEADERS:
                i = self._handle_header(i)
            elif text == "assembly":
                i = self._handle_assembly(i)
            elif text in ("{", "}"):
                self._emit(i, i + 1)
                i += 1
            else:
                i = self._handle_simple(i)
        start, end = self.body_span
        if self.lo == hi and end > start:
            self.stmts.append(Stmt(span=(start, end), text=""))
        return tuple(self.stmts), tuple(self.guards)

    def _handle_header(self, i: int) -> int:
        """A block header: its keyword, the ``(...)`` group if the keyword
        takes one, and a ``{`` that follows."""

        code, texts, hi = self.code, self.texts, self.hi
        kw = texts[i]
        after = i + 1
        if kw == "if":
            guard, close = _guard(code, after, hi, code.span(i, after))
            self.guards.append(guard)
            after = min(close + 1, hi)
        elif _HEADERS[kw] and after < hi and texts[after] == "(":
            after = min(code.partner[after] + 1, hi)
        if after < hi and texts[after] == "{":
            after += 1
        self._emit(i, after, call=_scan_call(code, i, after) if kw == "if" else None)
        return after

    def _handle_assembly(self, i: int) -> int:
        code, hi = self.code, self.hi
        end = _decl_end(code, _walk_marks(code, i, hi, _DECL_ENDS)[0], hi)
        self._emit(i, end)
        return end

    def _handle_simple(self, i: int) -> int:
        """A statement from ``i`` (not a brace) through the first top-level
        ``;``, or up to a top-level ``}`` that ends the enclosing block
        mid-statement."""

        code, hi = self.code, self.hi
        end, marks = _walk_marks(code, i, hi, (";", "}"))
        if end < hi and self.texts[end] == ";":
            end += 1
        elif end < hi:
            code.diagnostics.append(Diagnostic("statement not terminated", code.span(i, end)))
        self._classify_and_emit(i, end, marks)
        return end

    def _emit(self, lo: int, hi: int, call: Optional[CallDetail] = None,
              assign: Optional[AssignDetail] = None, decl: Optional[VarDecl] = None) -> None:
        toks = self.toks
        end = toks[hi - 1][END]
        if end == self.last_end:
            end = self.body_span[1]
        self.stmts.append(Stmt(span=(self.prev_end, end),
                               text=" ".join(self.texts[lo:hi]), call=call, assign=assign,
                               decl=decl, tokens=toks[lo:hi]))
        self.prev_end = end

    def _classify_and_emit(self, lo: int, hi: int, marks: Dict[str, int]) -> None:
        code, texts = self.code, self.texts
        core = hi - 1 if texts[hi - 1] == ";" else hi  # the statement without its ";"
        if core == lo:
            self._emit(lo, hi)
            return
        first = texts[lo]
        eq = marks.get("=")

        if first in ("return", "require", "assert", "emit", "revert", "throw", "break",
                     "continue", "_"):
            if first in ("require", "assert"):
                self.guards.append(_guard(code, lo + 1, core, code.span(lo, core))[0])
            self._emit(lo, hi, call=_scan_call(code, lo, core))
            return
        if first == "delete":
            self._emit(lo, hi, assign=self._assign(lo + 1, core))
            return

        if _is_type_start(self.toks[lo], code.structs, code.contracts):
            decl = _parse_var_decl(code, lo, core, eq, member=False)
            if decl is not None:
                self._emit(lo, hi, decl=decl, call=_scan_call(code, lo, core))
                return

        if eq is not None:
            self._emit(lo, hi, assign=self._assign(lo, eq, eq + 1, core),
                       call=_scan_call(code, eq + 1, core))
            return

        comp = marks.get("compound")
        if comp is not None:
            self._emit(lo, hi, assign=self._assign(lo, comp, comp + 1, core, compound=True))
            return

        bump = marks.get("bump")
        if bump is not None:
            lhs = " ".join(texts[lo:bump] + texts[bump + 1 : core])
            self._emit(lo, hi, assign=self._assign(lo, core, lhs=lhs, compound=True))
            return

        self._emit(lo, hi, call=_scan_call(code, lo, core))

    def _assign(self, lo: int, hi: int, rhs_lo: int = 0, rhs_hi: int = 0,
                lhs: Optional[str] = None, compound: bool = False) -> AssignDetail:
        """The write to ``[lo, hi)`` (its text ``lhs`` when given) of
        ``[rhs_lo, rhs_hi)``, ``compound`` for an operator-assignment or
        ``++``/``--``; it writes state when its first identifier is a state
        variable."""
        toks, texts = self.toks, self.texts
        base = next((texts[i] for i in range(lo, hi) if toks[i][KIND] is _IDENTIFIER), "")
        return AssignDetail(lhs=" ".join(texts[lo:hi]) if lhs is None else lhs,
                            rhs=" ".join(texts[rhs_lo:rhs_hi]),
                            lhs_is_state_var=base in self.state_vars, compound=compound)


def _parse_params(code: _Code, lo: int, hi: int) -> Tuple[VarDecl, ...]:
    commas = [i for i in _top_level(code, lo, hi) if code.texts[i] == ","]
    # a parameter slot is a declaration by position, so any leading
    # identifier may open a type here
    decls = (_parse_var_decl(code, a + 1, b, _walk_marks(code, a + 1, b, ())[1].get("="),
                             member=True, allow_unnamed=True)
             for a, b in zip([lo - 1] + commas, commas + [hi]))
    return tuple(d for d in decls if d is not None)


def _parse_function(
    code: _Code, i: int, stop: int, closer: int, end: int, state_names: Set[str]
) -> FunctionDecl:
    """The function starting at ``i``, whose header ends at ``stop`` and
    whose body, if the ``{`` there opens one, ends at ``closer``.  Reads no
    token at or past ``end``: the enclosing contract's closing brace, or its
    bound if the contract has none."""

    toks, texts = code.toks, code.texts
    start = toks[i][START]
    name = texts[i]
    k = i + 1
    if name == "function":
        name = ""
        if k < stop and _is_word(toks[k]):
            name = texts[k]
            k += 1
    is_fallback = name in ("", "fallback", "receive")

    params: Tuple[VarDecl, ...] = ()
    if k < stop and texts[k] == "(":
        group = min(code.partner[k], stop)
        if group >= stop:  # unclosed, so the header ran to ``end``
            code.diagnostics.append(
                Diagnostic("unclosed parameter list", (start, toks[end - 1][END]))
            )
        params = _parse_params(code, k + 1, group)
        k = group + 1

    exposed = True  # callable from outside, unless the last top-level visibility word says not
    for k in _top_level(code, k, stop):
        exposed = _VISIBILITY.get(texts[k], exposed)

    if stop >= end or texts[stop] == ";":  # no body: ends at its ";" or at ``end``
        last = toks[min(stop, end - 1)][END]
        return FunctionDecl(name, params, exposed, (), (start, last), (last, last),
                            is_fallback, has_body=False)

    if closer < end:
        span_end, body_end = toks[closer][END], toks[closer][START]
    else:
        span_end = body_end = toks[end - 1][END]
        code.diagnostics.append(Diagnostic("unclosed function body", (start, span_end)))
    body_span = (toks[stop][END], body_end)
    body, guards = _BodyParser(code, stop + 1, closer, body_span, state_names).run()
    return FunctionDecl(name, params, exposed, body, (start, span_end), body_span,
                        is_fallback, guards=guards)


def _parse_contract(
    code: _Code, i: int, bound: int, inherited: Dict[str, Set[str]]
) -> Tuple[Optional[ContractDecl], int]:
    """The contract starting at ``i`` (None for a declaration with no body),
    and the index past it, reading no token at or past ``bound``.
    ``inherited`` maps each contract parsed before it to its state variable
    names, its bases' included; the contract's own entry is added."""

    toks, texts = code.toks, code.texts
    kind = texts[i]
    start = toks[i][START]
    name = "<anonymous>"
    k = i + 1
    if k < bound and _is_word(toks[k]):
        name = texts[k]
        k += 1

    open_ = _walk_marks(code, k, bound, _DECL_ENDS)[0]
    if open_ >= bound or texts[open_] == ";":
        # forward declaration or garbage; nothing to record
        return None, min(open_ + 1, bound)
    bases: List[str] = []
    if "is" in texts[k:open_]:
        bases = [texts[j] for j in _top_level(code, k, open_) if toks[j][KIND] is _IDENTIFIER]
    close = resume = min(code.partner[open_], bound)
    if close < bound:
        resume += 1
    else:
        code.diagnostics.append(
            Diagnostic(f"unclosed {kind} body", (start, toks[close - 1][END])))

    state_vars: List[VarDecl] = []
    heads: List[Tuple[int, int, int]] = []  # a function's first index, header end, body end
    j = open_ + 1
    while j < close:  # each member ends at its first top-level ";" or "{...}" group
        stop, marks = _walk_marks(code, j, close, _DECL_ENDS)
        group = stop < close and texts[stop] == "{"
        last = min(code.partner[stop], close) if group else stop
        if texts[j] in _FUNCTIONS:
            heads.append((j, stop, last))
        elif not group:  # a member with no body statements; only a state variable is kept
            decl = _parse_var_decl(code, j, stop, marks.get("="), member=True)
            if decl is not None:
                state_vars.append(decl)
        j = last + 1

    state_names = {v.name for v in state_vars}.union(*(inherited.get(b, ()) for b in bases))
    inherited[name] = state_names
    functions = tuple(_parse_function(code, *head, close, state_names) for head in heads)
    contract = ContractDecl(name, tuple(state_vars), functions,
                            (start, toks[resume - 1][END]))
    return contract, resume


def parse(source: str, file_path: str = "<string>") -> SourceModel:
    """Parse Solidity source into a structural model.  Never raises."""

    tokens = tuple(lex(source))  # the lexer's list is freed here, not at return
    code = _Code(tuple(code_tokens(tokens)))
    toks, texts = code.toks, code.texts

    pragma: Optional[PragmaConstraint] = None
    has_directive = False  # a ``pragma solidity`` was seen, parseable or not
    contracts: List[ContractDecl] = []
    inherited: Dict[str, Set[str]] = {}
    i = 0
    for bound in code.decls:  # each declaration keyword ends the scans before it
        while i < bound:
            if texts[i] in _DECLS:
                found, i = _parse_contract(code, i, bound, inherited)
                if found is not None:
                    contracts.append(found)
                continue
            stop = _walk_marks(code, i, bound, _DECL_ENDS)[0]
            if texts[i] == "pragma" and i + 1 < stop and texts[i + 1] == "solidity":
                has_directive = True
                clause = " ".join(texts[i + 2 : stop])
                try:
                    if not clause:  # an empty clause names no version
                        raise VersionSyntaxError(clause)
                    c = parse_constraint(clause)
                    pragma = c if pragma is None else pragma.intersect(c)
                except VersionSyntaxError:
                    span = (toks[i][START], toks[min(stop, bound - 1)][END])
                    code.diagnostics.append(
                        Diagnostic(f"unparseable version pragma: {clause!r}", span))
            i = _decl_end(code, stop, bound)

    # An unknown version could be any: every rule runs.  An unparseable
    # directive has its diagnostic already.
    if pragma is None or pragma.is_empty():
        if pragma is not None or not has_directive:
            code.diagnostics.append(Diagnostic(
                "no solidity version pragma" if pragma is None
                else "contradictory version pragmas match no compiler", (0, 0)))
        pragma = ANY_VERSION

    return SourceModel(
        file_path=file_path,
        pragma=pragma,
        contracts=tuple(contracts),
        diagnostics=tuple(code.diagnostics),
        tokens=tokens,
    )


def parse_file(path: str) -> SourceModel:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse(data.decode("utf-8", "surrogateescape"), file_path=path)

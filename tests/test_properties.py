"""Front-end contract on arbitrary input, checked with hypothesis: lexing
never raises and is lossless with contiguous byte spans; parsing never
raises, is deterministic, and its statement spans partition each body.
The lexer gives the tokens of the ``finditer`` lexer it replaced, the guard
index the verdicts of the per-guard regex predicates it replaced, and the
token-walking rules (A-a-W, A-a-IS, E-a-SW) the findings of the versions
that read token fields by name and walked every token; the replaced
versions are kept here unchanged as oracles.  The lexer's bracket-partner
pass gives what a walk that counts one bracket kind finds (``_walk``)."""

import random
import re
from types import SimpleNamespace
from typing import Dict, Iterable, List

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from solbuglab.detectors import (
    ADDRESS_VS_ZERO,
    DETECTORS,
    EQUALS_ZERO,
    ORDER_VS_ZERO,
    DetectorEntry,
    Finding,
    GuardIndex,
    _anchor,
    _names,
    _nospace,
    _per_function,
    _snippet,
)
from solbuglab.lexer import (
    _TRIVIA, KIND, TEXT, Token, TokenKind, _classify_word, _partners, code_tokens, lex,
)
from solbuglab.model import Guard, TypeClass
from solbuglab.parser import _Code, _top_level, parse

from test_parser import body_partition_holds

# Lone surrogates included: ``str`` input need not come from a decoder.
_ANY_TEXT = st.text(st.characters(exclude_categories=()))
# What ``parse_file`` hands the parser for arbitrary file bytes.
_FILE_TEXT = st.binary().map(lambda b: b.decode("utf-8", "surrogateescape"))
# Arbitrary text alone rarely forms a function body, so mix in fragments.
_FRAGMENTS = (
    "pragma solidity ^0.4.24;", "pragma solidity ", "contract C ", "library L ",
    "interface I ", " is B ", "{", "}", "(", ")", "[", "]", ";", ",", ".", "=",
    "+", "-", "=+", "function f", "function ", "constructor", "fallback ",
    "modifier m ", "struct S ", "event E ", "public ", "payable ", "returns ",
    "uint256 x", "int8 y", "address a", "mapping(address => uint) m",
    "storage ", "memory ", "if (x > 0) ", "else ", "for (i = 0; i < 3; i++) ",
    "while (x) ", "do ", "assembly { let z := 1 }", "require(x >= 0)",
    "assert(y)", "return ", "delete m[a]", "emit E()", "x += 1", "x++",
    "a.call.value(1)()", "a.call{value: 1}(\"\")", "a.transfer(1)",
    "uint256(x)", "// c\n", "/* c */", "/*", '"s"', "'t", "\\", "\n", " ",
    "0x1f", "1e9", "²", "é", "\udc80", "=-", "uint8(", "uint(", "ecrecover(",
)
_SOLIDITY_ISH = st.lists(
    st.sampled_from(_FRAGMENTS) | st.text(max_size=3), max_size=60
).map("".join)
_SOURCES = _ANY_TEXT | _FILE_TEXT | _SOLIDITY_ISH
# Whole statements that the token-walking rules find or guard against: a
# signed local cast to unsigned, an ecrecover result compared, and "=-".
_STATEMENTS = (
    "int8 y = -1; uint8(y)", "require(y >= 0)",
    "address r = ecrecover(h, v, r, s); require(r == o)",
    "require(r != address(0))", "x =- y",
)
# The soup placed in a function's parameter list and body, so that bodies
# are parsed and partitioned; brackets in it need not balance.
_IN_FUNCTION = st.tuples(
    _SOLIDITY_ISH,
    st.lists(_SOLIDITY_ISH | st.sampled_from(_STATEMENTS), max_size=4).map("; ".join)
).map(lambda soup: "contract C is B { function f(%s) public { %s } }" % soup)

_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _byte_len(source):
    try:
        return len(source.encode("utf-8", "surrogateescape"))
    except UnicodeEncodeError:
        return None  # a lone surrogate outside the escape range


@_SETTINGS
@given(_SOURCES)
def test_lex_is_lossless_with_contiguous_byte_spans(source):
    tokens = lex(source)
    assert "".join(t.text for t in tokens) == source
    if not tokens:
        assert source == ""
        return
    assert tokens[0].start == 0
    for left, right in zip(tokens, tokens[1:]):
        assert left.end == right.start
    for token in tokens:
        assert token.end > token.start
    size = _byte_len(source)
    if size is not None:
        assert tokens[-1].end == size


@_SETTINGS
@given(st.binary())
def test_spans_index_the_file_bytes(data):
    source = data.decode("utf-8", "surrogateescape")
    for token in lex(source):
        piece = data[token.start:token.end]
        assert piece.decode("utf-8", "surrogateescape") == token.text


# --- lexer against the finditer lexer it replaced ---------------------------

_TOKEN_RE = re.compile(
    r"""
     ([ \t\r\n\f\v]+)
    |(//[^\n]*|/\*[\s\S]*?(?:\*/|\Z))
    |("[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*"?|'[^'\\\n]*(?:\\[\s\S]?[^'\\\n]*)*'?)
    |(0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)*(?:[eE][+-]?\d+)?)
    |([A-Za-z_$][A-Za-z0-9_$]*)
    |(>>=|<<=|\*\*=
      |==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|\|=|&=|\^=|\+\+|--|\*\*|<<|>>|=>|->|:=
      |[\s\S])
    """,
    re.VERBOSE,
)
# Token kind by the index of the group that matched; words are classified.
_GROUP_KINDS = (
    None, TokenKind.WHITESPACE, TokenKind.COMMENT, TokenKind.STRING,
    TokenKind.NUMBER, None, TokenKind.PUNCTUATION,
)


def _reference_lex(source: str) -> List[Token]:
    new = tuple.__new__  # skips NamedTuple's Python-level __new__
    words: Dict[str, TokenKind] = {}
    tokens: List[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(source):
        text = m.group()
        kind = _GROUP_KINDS[m.lastindex]
        if kind is None:
            kind = words.get(text)
            if kind is None:
                kind = words[text] = _classify_word(text)
        append(new(Token, (kind, text, m.start(), m.end())))
    if source.isascii():
        return tokens
    return _rebase_to_bytes(tokens)


def _reference_byte_len(text: str) -> int:
    try:
        return len(text.encode("utf-8", "surrogateescape"))
    except UnicodeEncodeError:
        # a lone surrogate no byte decodes to counts as its 3-byte form
        return sum(1 if "\udc80" <= c <= "\udcff"
                   else len(c.encode("utf-8", "surrogatepass")) for c in text)


def _rebase_to_bytes(tokens: List[Token]) -> List[Token]:
    """Convert char-indexed spans to byte offsets for non-ASCII input."""

    new = tuple.__new__
    out: List[Token] = []
    pos = 0
    for kind, text, _, _ in tokens:
        end = pos + (len(text) if text.isascii() else _reference_byte_len(text))
        out.append(new(Token, (kind, text, pos, end)))
        pos = end
    return out


@_SETTINGS
@given(_SOURCES)
@example("x = '\u00e9\ud800\udcff /* \"open")
@example("\u00b2 // \U0001f680\r\n\"a\\\n\tb")
@example("uint256 x; // past the cached small ints\n" * 8)
# ``/`` texts and non-ASCII ones are classified by the regex, the rest by
# their first character
@example("/")
@example("/=")
@example("//x")
@example("/*x")
@example("\u00b2")  # not a ``\d`` digit: punctuation
@example("\u0663")  # a ``\d`` digit: a number
@example("\x1c")  # whitespace to ``str.isspace``, punctuation here
@example("$a")
@example("_")
@example('"')
@example("'")
def test_lex_matches_the_finditer_lexer_and_shares_atoms(source):
    tokens = lex(source)
    assert tokens == _reference_lex(source)
    texts = {}
    for token in tokens:
        assert texts.setdefault(token.text, token.text) is token.text
    for left, right in zip(tokens, tokens[1:]):
        assert left.end is right.start


def _drop_closing_braces(source: str, count: int) -> str:
    """``source`` without its last ``count`` ``}``, so that the contracts
    and bodies they closed stay open."""
    for _ in range(count):
        source = "".join(source.rsplit("}", 1))
    return source


@_SETTINGS
@given(source=_SOURCES | _IN_FUNCTION, unclosed=st.integers(0, 3))
# an unclosed contract with a closed body; the second of two contracts left open
@example(source="contract C { function f() { }", unclosed=0)
@example(source="contract A { } contract B { }", unclosed=1)
# scans that ran past a later contract keyword
@example(source="contract A { ] contract B { } }", unclosed=0)
@example(source="pragma solidity contract B { }", unclosed=0)
@example(source="import contract B { }", unclosed=0)
@example(source="struct S contract B { }", unclosed=0)
@example(source="contract A contract B { }", unclosed=0)
# one rule for where a declaration ends (``test_parser.DECLARATION_ENDS``)
@example(source="contract A { event E(uint a) } contract B { uint x; }", unclosed=0)
@example(source="contract C { function f() payable(public) internal { } }", unclosed=0)
@example(source="contract C { function f() public { require x (y); } }", unclosed=0)
@example(source="contract C { using {f} for T; uint x; function g() {} }", unclosed=0)
@example(source='import {A} from "x"; pragma solidity ^0.4.24; contract C { }', unclosed=0)
@example(source="function f() pure returns (uint) { return 1; } contract C { }", unclosed=0)
@example(source="( pragma solidity ^0.4.24; contract C {}", unclosed=0)
@example(source="pragma solidity ; contract B { }", unclosed=0)
def test_parse_is_total_deterministic_and_partitions_bodies(source, unclosed):
    source = _drop_closing_braces(source, unclosed)
    model = parse(source, "prop.sol")
    assert parse(source, "prop.sol") == model
    for contract in model.contracts:
        for fn in contract.functions:
            assert (contract.span[0] <= fn.span[0] <= fn.body_span[0]
                    <= fn.body_span[1] <= fn.span[1] <= contract.span[1]), fn.name
            if fn.has_body:
                assert body_partition_holds(fn), fn.name
    # a contract keyword starts a declaration wherever it stands
    names = {contract.name for contract in model.contracts}
    code = code_tokens(model.tokens)
    for i in range(len(code) - 2):
        if (code[i][TEXT] == "contract" and code[i + 1][KIND] == TokenKind.IDENTIFIER
                and code[i + 2][TEXT] == "{"):
            assert code[i + 1][TEXT] in names, code[i + 1][TEXT]


# Contract members of every kind, whole and cut short, in two contracts.
_MEMBERS = st.lists(st.sampled_from((
    "uint x;", "uint y = 1", "S s;", "event E(uint a)", "event E(uint a);",
    "error Err(uint a)", "modifier m() { _; }", "modifier m(uint a)", "struct S { uint a; }",
    "struct S", "enum E { A }", "using {f} for T;", "using L for T",
    "function f() public { x = 1; }", "function g() payable(public) internal",
    "constructor()", "{", "}", "(", ")", "[", "]", ";", "contract",
)), max_size=10).map(" ".join)
_TWO_CONTRACTS = st.tuples(_MEMBERS, _MEMBERS).map(
    lambda members: "contract A { %s } contract B { %s }" % members)


@_SETTINGS
@given(_TWO_CONTRACTS | _SOLIDITY_ISH)
@example("contract A { event E(uint a) } contract B { uint x; }")
@example("contract C { function f() public { if (a) { x = 1 } } }")
def test_members_lie_inside_their_contract(source):
    """Members lie inside their contract; contracts, and the functions of
    each, come in source order without overlap, as ``contract_at`` and
    ``function_at`` bisect on; diagnostics come in source order, the
    file-level ``(0, 0)`` ones last."""
    model = parse(source, "prop.sol")
    for contract in model.contracts:
        lo, hi = contract.span
        for member in (*contract.state_vars, *contract.functions):
            assert lo <= member.span[0] <= member.span[1] <= hi, member.name
    for records in (model.contracts, *(c.functions for c in model.contracts)):
        for before, after in zip(records, records[1:]):
            assert before.span[1] <= after.span[0], (before.name, after.name)
    order = [(d.span == (0, 0), d.span[0]) for d in model.diagnostics]
    assert order == sorted(order), [d.message for d in model.diagnostics]


_PARTNER_TEXTS = {"(": ")", "[": "]", "{": "}", ")": "(", "]": "[", "}": "{"}


def _walk(texts, i, end=None):
    """Index of the partner of the bracket ``texts[i]``, found by counting
    its kind only.  From an opener it looks forward, no further than ``end``
    (default ``len(texts)``), and gives ``end`` if none; from a closer it
    looks back and gives -1 if none."""

    own, partner = texts[i], _PARTNER_TEXTS[texts[i]]
    if own in ("(", "[", "{"):
        step, stop = 1, len(texts) if end is None else end
    else:
        step, stop = -1, -1
    depth = 0
    for j in range(i, stop, step):
        if texts[j] == own:
            depth += 1
        elif texts[j] == partner:
            depth -= 1
            if depth == 0:
                return j
    return stop


_BRACKETS = st.lists(st.sampled_from(("(", ")", "[", "]", "{", "}", ";", "x", "contract")),
                     max_size=40).map(" ".join)


@_SETTINGS
@given(_BRACKETS | _SOLIDITY_ISH)
@example("x = (a]; y = 1;")
@example("{ ] }")
def test_top_level_never_enters_a_group(source):
    """One bracket rule: the top-level walk skips each top-level opener's
    group through its partner as ``_walk`` finds it."""
    code = _Code(code_tokens(lex(source)))
    n = len(code.toks)
    top = list(_top_level(code, 0, n))
    for i in top:
        if code.texts[i] in "([{":
            close = _walk(code.texts, i, n)
            assert not [j for j in top if i < j <= close], (i, close)


_OPENER_TEXTS, _CLOSER_TEXTS = ("(", "[", "{"), (")", "]", "}")
# Token texts as the lexer splits source, and free texts, brackets among them.
_TOKEN_TEXTS = ((_BRACKETS | _SOLIDITY_ISH).map(lambda s: [t.text for t in code_tokens(lex(s))])
                | st.lists(st.sampled_from(_OPENER_TEXTS + _CLOSER_TEXTS) | st.text(max_size=3),
                           max_size=60))


@_SETTINGS
@given(_TOKEN_TEXTS, st.randoms(use_true_random=False))
@example(["(", "[", ")", "]", "{", "(", "}"], random.Random(0))
def test_partner_table_answers_as_the_walk(texts, rnd):
    """A lookup in the lexer's partner pass, clamped to a bound, gives what
    ``_walk`` finds: forward from each opener to any end, and back from each
    closer to any start."""
    partner = _partners(texts)
    n = len(texts)
    for i, text in enumerate(texts):
        if text in _OPENER_TEXTS:
            for end in {n, i + 1, rnd.randint(i + 1, n)}:
                assert min(partner[i], end) == _walk(texts, i, end), (i, end)
        elif text in _CLOSER_TEXTS:
            for lo in {0, i, rnd.randint(0, i)}:
                walked = _walk(texts[lo:], i - lo)
                assert (partner[i] - lo if partner[i] >= lo else -1) == walked, (i, lo)


# --- guard index against the regex predicates it replaced ------------------

def _zero_bound_checked(candidates: Iterable[str], conditions: Iterable[str]) -> bool:
    """True when some condition compares a candidate against 0 with an order op."""

    pats = []
    for cand in candidates:
        if not cand:
            continue
        c = re.escape(_nospace(cand))
        pats.append(re.compile(rf"(?<![\w$]){c}(?:>=|<=|>|<)0(?![\w.])"))
        pats.append(re.compile(rf"(?<![\w.])0(?:>=|<=|>|<){c}(?![\w$])"))
    for cond in conditions:
        flat = _nospace(cond)
        for p in pats:
            if p.search(flat):
                return True
    return False


_ZERO_ADDR = r"(?:address\(0(?:x0+)?\)|0x0+(?![\w$]))"


def _zero_address_checked(names: Iterable[str], conditions: Iterable[str]) -> bool:
    pats = []
    for name in names:
        if not name:
            continue
        n = re.escape(name)
        pats.append(re.compile(rf"(?<![\w$]){n}(?:==|!=){_ZERO_ADDR}"))
        pats.append(re.compile(rf"{_ZERO_ADDR}(?:==|!=){n}(?![\w$])"))
    for cond in conditions:
        flat = _nospace(cond)
        for p in pats:
            if p.search(flat):
                return True
    return False


def _approve_zero_guarded(fn, value_param: str, lhs_flat: str) -> bool:
    pats = []
    for cand in (value_param, lhs_flat):
        c = re.escape(cand)
        pats.append(re.compile(rf"(?<![\w$]){c}==0(?![\w.])"))
        pats.append(re.compile(rf"(?<![\w.])0=={c}(?![\w$])"))
    for g in fn.guards:
        flat = _nospace(g.condition)
        for p in pats:
            if p.search(flat):
                return True
    return False


# Operands are word runs (``$``, non-ASCII letters and a non-ASCII digit
# included), possibly joined by ``.``, ``-``, brackets, ``=`` or whitespace.
_WORD = st.sampled_from(("x", "y", "_v", "$", "é", "\u0663", "0", "1"))
_RUN = st.lists(_WORD, min_size=1, max_size=2).map("".join)
_OPERAND = st.lists(_RUN, min_size=1, max_size=2).flatmap(
    lambda words: st.sampled_from((".", "-", "[", "]", "=", ">", " ", "\t")).map(
        lambda sep: sep.join(words)))
# Conditions are comparisons of operands with zero spellings through the
# operators that overlap (``>=`` and ``>``, ``==`` and ``=``), joined by glue
# that may touch them.  Each test favours its own family's operators and
# zeros, and draws the others too.
_ZEROS = ("0", "address(0)", "0x0", "00", "0x00", "0x0a", "address(0x00)",
          "address(0x0)")
_OPERATORS = (">=", "==", "!=", ">", "<", "<=", "=")
_GLUE = st.sampled_from(
    ("&&", " ", "||", "", "(", ")", ".", "-", "$", "a", "1", "!", "\u3000"))
_OFFSET = st.integers(0, 40)
_CAST = st.just(float("inf")) | _OFFSET  # inf: any guard precedes


@st.composite
def _guard_cases(draw, operators, zeros, operands_per_query):
    """Guards and queries that share operands, so that matches are common.
    Several queries go to one index, so sites filed by an earlier query are
    read again; a cast offset of inf stands for "any guard"."""
    pool = draw(st.lists(_OPERAND, min_size=1, max_size=3))
    side = st.sampled_from(pool)
    comparison = st.tuples(
        side, st.sampled_from(operators) | st.sampled_from(_OPERATORS),
        st.sampled_from(zeros) | st.sampled_from(_ZEROS), st.booleans()).map(
        lambda c: c[0] + c[1] + c[2] if c[3] else c[2] + c[1] + c[0])
    condition = st.tuples(st.lists(comparison, max_size=3), _GLUE).map(
        lambda c: c[1].join(c[0]))
    guards = draw(st.lists(st.builds(
        lambda text, offset: Guard(text, (offset, offset + 1)),
        condition, _OFFSET), max_size=5))
    operand = side | _OPERAND | st.just("")
    flat = [_nospace(g.condition) for g in guards if g.condition.strip()]
    if flat:  # slices of a condition hit operator and boundary edge cases
        operand |= st.sampled_from(flat).flatmap(lambda text: st.tuples(
            st.integers(0, len(text)), st.integers(0, len(text))).map(
                lambda ends: text[min(ends):max(ends)]))
    operands = st.lists(operand, min_size=operands_per_query[0],
                        max_size=operands_per_query[1])
    queries = draw(st.lists(st.tuples(operands, _CAST),
                            min_size=1, max_size=4))
    return guards, queries


def _before(guards, offset):
    return [g for g in guards if g.span[0] < offset]


@_SETTINGS
@given(_guard_cases((">=", "<=", ">", "<"), ("0",), (0, 3)))
# ``$`` just outside an operand that is not one word run: no match
@example(([Guard("a$.x>=0&&0>=x.$", (0, 1))], [([".x", "x."], float("inf"))]))
# guards out of offset order: the earliest match counts, not the first filed
@example(([Guard("x>=0", (9, 10)), Guard("x>=0", (2, 3))], [(["x"], 5)]))
def test_order_guard_index_matches_zero_bound_regexes(case):
    guards, queries = case
    index = GuardIndex(guards, ORDER_VS_ZERO)
    for candidates, offset in queries:
        expected = _zero_bound_checked(
            candidates, [g.condition for g in _before(guards, offset)])
        flat = (_nospace(c) for c in candidates if c)
        assert index.checked(flat, offset) == expected


@_SETTINGS
@given(_guard_cases(("==", "!="), ("address(0)", "address(0x00)", "0x0"), (0, 3)))
def test_address_guard_index_matches_zero_address_regexes(case):
    guards, queries = case
    index = GuardIndex(guards, ADDRESS_VS_ZERO)
    for names, offset in queries:
        expected = _zero_address_checked(
            names, [g.condition for g in _before(guards, offset)])
        assert index.checked((n for n in names if n), offset) == expected


@_SETTINGS
@given(_guard_cases(("==",), ("0",), (2, 2)))
def test_equals_guard_index_matches_approve_zero_regexes(case):
    guards, queries = case
    index = GuardIndex(guards, EQUALS_ZERO)
    for (value_param, lhs), offset in queries:
        fn = SimpleNamespace(guards=_before(guards, offset))
        expected = _approve_zero_guarded(fn, value_param, lhs)
        assert index.checked((value_param, lhs), offset) == expected


# --- token-walking rules against the versions they replaced ----------------
# Copied unchanged but for A-a-IS finding a cast's ``)`` with ``_walk``: they
# read token fields by name and walk every token of every statement (A-a-IS,
# E-a-SW) or of the file (A-a-W).

_UINT_CAST_RE = re.compile(r"^uint\d*$")


def _reference_integer_sign(contract, fn):
    """Signed values converted to unsigned without a zero lower-bound check."""

    guards = GuardIndex(fn.guards, ORDER_VS_ZERO)
    signed = None  # built at the first cast
    for stmt in fn.body:
        toks = stmt.tokens
        for i, tok in enumerate(toks):
            if (tok.kind is not TokenKind.KEYWORD or not _UINT_CAST_RE.match(tok.text)
                    or i + 1 >= len(toks) or toks[i + 1].text != "("):
                continue
            close = _walk([t.text for t in toks], i + 1)
            inner = toks[i + 2 : close]
            if close == len(toks) or not inner:
                continue
            if signed is None:
                locals_ = (s.decl for s in fn.body if s.decl is not None)
                signed = set(_names((*contract.state_vars, *fn.params, *locals_),
                                    TypeClass.SIGNED_INT))
            inner_idents = [t.text for t in inner if t.kind is TokenKind.IDENTIFIER]
            negative_literal = (inner[0].text == "-" and len(inner) >= 2
                                and inner[1].kind is TokenKind.NUMBER)
            if not negative_literal and not any(n in signed for n in inner_idents):
                continue
            candidates = [" ".join(t.text for t in inner)]
            if len(inner) == 1:
                candidates.append(inner[0].text)
            else:
                candidates.extend(n for n in inner_idents if n in signed)
            if guards.checked((_nospace(c) for c in candidates if c), tok.start):
                continue
            yield (tok.start, toks[close].end), (
                f"{tok.text}({_snippet(candidates[0])}) converts a signed value "
                "to unsigned with no preceding check that it is non-negative")


_SIGN_OPERANDS = frozenset(("this", "msg", "tx", "now", "true", "false"))
_PREV_EXCLUDE = "=!<>+-*/%&|^~"


def _reference_wrong_operator(bug_id):
    """``=+`` or ``=-`` written where ``+=``/``-=`` (or ``=``) was meant."""

    def rule(model):
        findings = []
        toks = model.tokens
        for i, tok in enumerate(toks):
            if tok.kind is not TokenKind.PUNCTUATION or tok.text != "=" or i + 1 >= len(toks):
                continue
            sign = toks[i + 1]
            if (sign.kind is not TokenKind.PUNCTUATION or sign.text not in ("+", "-")
                    or sign.start != tok.end):
                continue
            prev = toks[i - 1] if i else None
            if (prev is not None and prev.kind is TokenKind.PUNCTUATION
                    and prev.end == tok.start and prev.text[-1] in _PREV_EXCLUDE):
                continue
            operand = next((toks[j] for j in range(i + 2, len(toks))
                            if toks[j].kind not in _TRIVIA), None)
            if operand is None or not (
                    operand.kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER)
                    or operand.text in _SIGN_OPERANDS):
                continue
            contract = model.contract_at(tok.start)
            fn = model.function_at(tok.start)
            findings.append(Finding(
                bug_id, model.file_path, contract.name if contract else "<top>",
                fn.name if fn else "", (tok.start, sign.end),
                f"'={sign.text}' assigns a {'positive' if sign.text == '+' else 'negated'} "
                f"value instead of applying '{sign.text}='"))
        return findings

    return DetectorEntry(bug_id, rule)


_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"


def _reference_wrong_signature_guard(contract, fn):
    """ecrecover result compared for equality with no zero-address rejection."""

    rec_stmts = [s for s in fn.body if any(t.text == "ecrecover" for t in s.tokens)]
    if not rec_stmts:
        return
    result_vars = []
    for s in rec_stmts:
        if s.decl is not None and s.decl.name:
            result_vars.append(s.decl.name)
        elif s.assign is not None and "ecrecover" in s.assign.rhs:
            result_vars.append(_nospace(s.assign.lhs))
    var_patterns = [p for v in map(re.escape, result_vars)
                    for p in (rf"(?<![\w$]){v}==({_IDENT})", rf"({_IDENT})=={v}(?![\w$])")]
    compare_stmt = None
    comparands = []
    for s in fn.body:
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


_REFERENCE_RULES = {
    "A-a-W": _reference_wrong_operator("A-a-W"),
    "A-a-IS": _per_function("A-a-IS", _reference_integer_sign),
    "E-a-SW": _per_function("E-a-SW", _reference_wrong_signature_guard),
}


@pytest.mark.parametrize("bug_id", sorted(_REFERENCE_RULES))
@_SETTINGS
@given(source=_IN_FUNCTION | _SOLIDITY_ISH)
# one input on which each rule finds something, as the soup rarely does
@example(source="uint x =- 1; contract C { uint a =+ 2; function f() public "
                "{ x =-y; x ==- 1; x = -1; x=-/* c */now; } }")
@example(source="contract C { int8 y; function f() public { uint8(y); uint(-1); "
                "require(y >= 0); uint(y); uint256 z = uint256(y - 1); } }")
@example(source="contract C { function f(bytes32 h, uint8 v, bytes32 r, bytes32 s, "
                "address o) public { address a = ecrecover(h, v, r, s); "
                "require(a == o); require(ecrecover(h, v, r, s) == o); } }")
# an ``=`` right after an operator that ends in one, a nested cast, an
# unclosed one, a parenthesised operand, a cast after a stray ``)``, and an
# ``ecrecover`` comparison written ``= =``
@example(source="contract C { function f() public { x ===- 1; x = =- 1; } }")
@example(source="contract C { int8 y; function f() public { x = uint8(uint16(y)); } }")
@example(source="contract C { int8 y; function f() public { x = uint8(y; uint(y); } }")
@example(source="contract C { int8 y; function f() public { x = uint256((y)); } }")
@example(source="contract C { int8 y; function f() public { x = ) + uint8(y); } }")
@example(source="contract C { function f(bytes32 h, uint8 v, bytes32 r, bytes32 s, "
                "address o) public { require(ecrecover(h, v, r, s) = = o); } }")
# an ``ecrecover`` result stored in a mapping entry and in a struct field
@example(source="contract C { function f(bytes32 h, uint8 v, bytes32 r, bytes32 s, "
                "address o) public { m[h] = ecrecover(h, v, r, s); require(m[h] == o); "
                "a.b = ecrecover(h, v, r, s); require(o == a . b); } }")
def test_token_walking_rules_match_the_rules_they_replaced(bug_id, source):
    model = parse(source, "prop.sol")
    assert DETECTORS[bug_id].rule(model) == _REFERENCE_RULES[bug_id].rule(model)

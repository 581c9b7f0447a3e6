"""Tolerant, lossless Solidity lexer.

Every byte of the input lands in exactly one token, so the concatenation of
token texts reproduces the source byte-for-byte.  Unterminated strings and
comments, stray bytes, and non-ASCII input never raise; the surrounding text
keeps lexing.  Spans are byte offsets into the UTF-8 encoding of the source,
computed in the one pass that builds the tokens (a byte that the file's decoder
escaped to a lone surrogate counts as that one byte).  Tokens of equal text
from one ``lex`` call share one ``str``, and each token's ``start`` is the
``end`` of the token before it, so a large file holds each distinct text
once.

Multi-character operators are folded into single tokens (``==``, ``+=``,
``>>=``...) but ``=+`` and ``=-`` deliberately are not: an assignment glyph
immediately followed by a sign stays two adjacent tokens, which is what the
wrong-operator detector keys on.

A token's kind is the class of the alternative that split it off, found
once per distinct text in a ``lex`` call.  For an ASCII text the first
character decides: whitespace, a quote (string), a digit (number), a
letter, ``_`` or ``$`` (word), anything else punctuation.  A text that
starts with ``/`` (a comment or an operator) or holds a non-ASCII character
(``²`` is punctuation, ``٣`` a number) is matched against the alternatives
again.  A word is a keyword when it is in ``KEYWORDS`` or is a sized type
such as ``uint8`` or ``bytes32``, and an identifier otherwise.

The program's one bracket rule is ``_partners``: a group ends at the
partner of its opening bracket, counting that bracket's kind only.  The
parser reads it for a file's code tokens, A-a-IS for a statement's tokens.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import compress, count
from operator import itemgetter
from typing import Dict, List, NamedTuple, Sequence, Tuple


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    PUNCTUATION = "punctuation"
    KEYWORD = "keyword"
    COMMENT = "comment"
    WHITESPACE = "whitespace"


# Field positions in a Token: ``tok[TEXT]`` reads what ``tok.text`` does,
# without the attribute lookup.
KIND, TEXT, START, END = range(4)
_texts = itemgetter(TEXT)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int


# Module constants: attribute lookups on an Enum class are slow.  The
# parser and the detectors import these for their per-token comparisons.
_TRIVIA = (TokenKind.WHITESPACE, TokenKind.COMMENT)
_IDENTIFIER, _KEYWORD, _NUMBER = TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.NUMBER
_STRING, _PUNCTUATION = TokenKind.STRING, TokenKind.PUNCTUATION

KEYWORDS = frozenset(
    """
    abstract address anonymous as assembly bool break byte bytes calldata
    case catch constant constructor continue contract days default delete do
    else emit enum ether event external fallback false finney fixed for
    function gwei hours if immutable import indexed int interface internal is
    let library mapping memory minutes modifier new now override payable
    pragma private public pure receive return returns seconds storage string
    struct szabo this throw true try type ufixed uint using view virtual
    weeks wei while
    """.split()
)

_SIZED_TYPE_RE = re.compile(r"^(?:u?int\d+|bytes\d+|u?fixed\d+x\d+)$")

# One alternative per token class, tried in this order at each position.
# A string runs to its closing quote, skipping backslash escapes (an escaped
# line break included); unterminated, it stops before the line break.  A
# digit that ``\d`` does not accept (``²``) is a one-character punctuation
# token.  Operators are longest match first; ``=+`` and ``=-`` are absent.
_ALTERNATIVES = (
    r"[ \t\r\n\f\v]+",
    r"//[^\n]*|/\*[\s\S]*?(?:\*/|\Z)",
    r""""[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*"?|'[^'\\\n]*(?:\\[\s\S]?[^'\\\n]*)*'?""",
    r"0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)*(?:[eE][+-]?\d+)?",
    r"[A-Za-z_$][A-Za-z0-9_$]*",
    r""">>=|<<=|\*\*=
      |==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|\|=|&=|\^=|\+\+|--|\*\*|<<|>>|=>|->|:=
      |[\s\S]""",
)
# Splits the source into token texts: ``findall`` with no group returns them.
_SPLIT_RE = re.compile("|".join("(?:%s)" % a for a in _ALTERNATIVES), re.VERBOSE)
# Names the class of one token text by the index of the group that matches.
# Matched alone, a text takes the group it took in place: with no lookahead
# and no anchor but the comment's ``\Z``, an alternative that failed in place
# fails on the text alone too, and ``/*`` starts a comment either way.
_TOKEN_RE = re.compile("|".join("(%s)" % a for a in _ALTERNATIVES), re.VERBOSE)
# Token kind by that group index; words are classified.
_GROUP_KINDS = (
    None, TokenKind.WHITESPACE, TokenKind.COMMENT, TokenKind.STRING,
    TokenKind.NUMBER, None, TokenKind.PUNCTUATION,
)
# The group of an ASCII text by its first character, which alone picks the
# alternative that matched: the alternatives before the last start with
# disjoint ASCII characters, and each matches whatever one of them starts.
# ``/`` is left out: ``//`` and ``/*`` are comments, ``/`` and ``/=`` not.
_FIRST_CHAR_GROUPS = {c: _TOKEN_RE.match(c).lastindex
                      for c in map(chr, range(128)) if c != "/"}


def _classify_word(word: str) -> TokenKind:
    if word in KEYWORDS or _SIZED_TYPE_RE.match(word):
        return TokenKind.KEYWORD
    return TokenKind.IDENTIFIER


def _byte_len(text: str) -> int:
    try:
        return len(text.encode("utf-8", "surrogateescape"))
    except UnicodeEncodeError:
        # a lone surrogate no byte decodes to counts as its 3-byte form
        return sum(1 if "\udc80" <= c <= "\udcff"
                   else len(c.encode("utf-8", "surrogatepass")) for c in text)


def lex(source: str) -> List[Token]:
    new = tuple.__new__  # skips NamedTuple's Python-level __new__
    # text -> (kind, the one str every token of that text holds, byte length)
    atoms: Dict[str, Tuple[TokenKind, str, int]] = {}
    tokens: List[Token] = []
    append = tokens.append
    get = atoms.get
    first_group = _FIRST_CHAR_GROUPS.get
    start = 0
    for text in _SPLIT_RE.findall(source):
        atom = get(text)
        if atom is None:
            ascii_text = text.isascii()
            size = len(text) if ascii_text else _byte_len(text)
            group = ascii_text and first_group(text[0]) or _TOKEN_RE.match(text).lastindex
            atom = atoms[text] = (_GROUP_KINDS[group] or _classify_word(text), text, size)
        kind, text, size = atom
        end = start + size
        append(new(Token, (kind, text, start, end)))
        start = end
    return tokens


def code_tokens(tokens: Sequence[Token]) -> List[Token]:
    """Tokens with whitespace and comments dropped."""

    return [t for t in tokens if t[KIND] not in _TRIVIA]


_OPENERS = frozenset("([{")


def _partners(texts: Sequence[str]) -> List[int]:
    """The index of each bracket's partner of its own kind in ``texts``:
    ``len(texts)`` for an unclosed opener, -1 for a closer with nothing
    open (and ``len(texts)`` at a text that is no bracket)."""

    n = len(texts)
    partner = [n] * n
    paren, square, brace = [], [], []  # the open groups of each kind
    opened = {"(": paren, ")": paren, "[": square, "]": square, "{": brace, "}": brace}
    for i in compress(count(), map(opened.__contains__, texts)):
        text = texts[i]
        stack = opened[text]
        if text in _OPENERS:
            stack.append(i)
        elif stack:
            j = stack.pop()
            partner[i], partner[j] = j, i
        else:
            partner[i] = -1
    return partner

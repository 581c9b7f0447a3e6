"""Tokenizer behavior: losslessness, spans, and the token shapes the
detectors depend on."""

import random

from solbuglab.lexer import _TRIVIA, KIND, START, TokenKind, code_tokens, lex


def kinds(tokens):
    return [t.kind for t in tokens if t.kind not in (TokenKind.WHITESPACE,
                                                     TokenKind.COMMENT)]


def texts(tokens):
    return [t.text for t in tokens if t.kind not in (TokenKind.WHITESPACE,
                                                     TokenKind.COMMENT)]


def test_empty_source():
    assert lex("") == []


def test_pragma_line_shape():
    tokens = code_tokens(lex("pragma solidity ^0.4.24;"))
    assert [t.text for t in tokens] == ["pragma", "solidity", "^", "0.4.24", ";"]
    assert tokens[0].kind is TokenKind.KEYWORD
    assert tokens[3].kind is TokenKind.NUMBER


def test_version_literal_is_one_token():
    tokens = texts(lex("x = 0.4.26;"))
    assert "0.4.26" in tokens


def test_spans_by_hand():
    source = "uint a = 1; // note"
    tokens = lex(source)
    assert "".join(t.text for t in tokens) == source
    expected = [("uint", 0, 4), (" ", 4, 5), ("a", 5, 6), (" ", 6, 7),
                ("=", 7, 8), (" ", 8, 9), ("1", 9, 10), (";", 10, 11),
                (" ", 11, 12), ("// note", 12, 19)]
    assert [(t.text, t.start, t.end) for t in tokens] == expected
    assert tokens[0][START:] == (0, 4)
    assert tokens[0][KIND] not in _TRIVIA and tokens[-1][KIND] in _TRIVIA


def test_wrong_operator_adjacency_preserved():
    tokens = code_tokens(lex("myNum =+ 1;"))
    assert [t.text for t in tokens] == ["myNum", "=", "+", "1", ";"]
    eq = tokens[1]
    plus = tokens[2]
    assert eq.end == plus.start  # '=+' stays glued, unlike 'a = +1'


def test_compound_operators_stay_single():
    tokens = texts(lex("a += 1; b -= 2; c <<= 3; d >>= 4; e **= 5;"))
    for op in ("+=", "-=", "<<=", ">>=", "**="):
        assert op in tokens


def test_keywords_and_sized_types():
    tokens = lex("uint256 x; bytes32 y; int8 z; fixed128x18 q; custom w;")
    keyword_texts = [t.text for t in tokens if t.kind is TokenKind.KEYWORD]
    assert "uint256" in keyword_texts
    assert "bytes32" in keyword_texts
    assert "int8" in keyword_texts
    assert "fixed128x18" in keyword_texts
    assert "custom" not in keyword_texts


def test_comments_and_strings():
    source = 'a = "he;llo"; /* b = 2; */ c = 3; // tail'
    cooked = texts(lex(source))
    assert '"he;llo"' in cooked
    assert "b" not in cooked
    assert "c" in cooked


def test_unterminated_string_stops_at_newline():
    source = 'x = "oops\ny = 1;'
    tokens = lex(source)
    assert "".join(t.text for t in tokens) == source
    string_tok = [t for t in tokens if t.kind is TokenKind.STRING][0]
    assert string_tok.text == '"oops'


def test_unterminated_comment_runs_to_eof():
    source = "a = 1; /* no end"
    tokens = lex(source)
    assert "".join(t.text for t in tokens) == source
    assert tokens[-1].kind is TokenKind.COMMENT


def test_hex_and_exponent_numbers():
    tokens = texts(lex("a = 0xDEAD_beef; b = 1e18; c = 2.5e-3;"))
    assert "0xDEAD_beef" in tokens
    assert "1e18" in tokens
    assert "2.5e-3" in tokens


def test_non_ascii_offsets_stay_byte_based():
    source = '// café 中文 note\nuint a;'
    tokens = lex(source)
    assert "".join(t.text for t in tokens) == source
    uint_tok = [t for t in tokens if t.text == "uint"][0]
    as_bytes = source.encode("utf-8")
    assert as_bytes[uint_tok.start:uint_tok.start + 4] == b"uint"


def test_digit_outside_decimal_class_is_punctuation():
    # str.isdigit() accepts "²" but the number pattern's \d does not
    tokens = code_tokens(lex("uint x = ²;"))
    assert [(t.kind, t.text) for t in tokens[3:]] == [
        (TokenKind.PUNCTUATION, "²"), (TokenKind.PUNCTUATION, ";")]
    assert tokens[3][START:] == (9, 11)


def test_lone_surrogate_keeps_spans_contiguous():
    source = "a\ud800b\udc80"
    tokens = lex(source)
    assert "".join(t.text for t in tokens) == source
    assert [t[START:] for t in tokens] == [(0, 1), (1, 4), (4, 5), (5, 6)]


_FUZZ_PIECES = [
    "contract", " ", "\n", "\t", "{", "}", "(", ")", ";", "=", "+", "-",
    "=+", "+=", "uint256", "x", "_y", "$z", "0.4.24", "42", "0x1f", '"s"',
    "'c'", "// line\n", "/* block */", "msg.sender", "ü", "\\", "@", "#",
    '"unterminated', "/* open", "1e9", "..", "...",
]


def test_round_trip_on_seeded_fuzz():
    rng = random.Random(20260822)
    for _ in range(300):
        source = "".join(rng.choice(_FUZZ_PIECES)
                         for _ in range(rng.randrange(0, 40)))
        tokens = lex(source)
        assert "".join(t.text for t in tokens) == source
        for earlier, later in zip(tokens, tokens[1:]):
            assert earlier.end == later.start

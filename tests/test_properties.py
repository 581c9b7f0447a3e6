"""Front-end contract on arbitrary input, checked with hypothesis: lexing
never raises and is lossless with contiguous byte spans; parsing never
raises, is deterministic, and its statement spans partition each body."""

from hypothesis import HealthCheck, given, settings, strategies as st

from solbuglab.lexer import lex
from solbuglab.parser import parse

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
    "0x1f", "1e9", "²", "é", "\udc80",
)
_SOLIDITY_ISH = st.lists(
    st.sampled_from(_FRAGMENTS) | st.text(max_size=3), max_size=60
).map("".join)
_SOURCES = _ANY_TEXT | _FILE_TEXT | _SOLIDITY_ISH

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


@_SETTINGS
@given(_SOURCES)
def test_parse_is_total_deterministic_and_partitions_bodies(source):
    model = parse(source, "prop.sol")
    assert parse(source, "prop.sol") == model
    for contract in model.contracts:
        for fn in contract.functions:
            if fn.has_body:
                assert body_partition_holds(fn), fn.name

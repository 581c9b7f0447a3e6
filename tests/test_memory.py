"""The model of a large file holds each token text once.

``parse`` keeps every token in ``SourceModel.tokens``, so on a large file
the tokens are most of what the model retains. Tokens of equal text from one
``lex`` call share one ``str``, and each token starts with the ``int`` that
ended the token before it. On the 500-function file below, tracemalloc
counts about 176 retained bytes per token with that sharing, 196 without
the shared ``str``, 208 without the shared ``int`` and 218 without either
(CPython 3.11, 64-bit). The bound fails the model if either is lost.
"""

import gc
import tracemalloc

from solbuglab.parser import parse

BOUND_BYTES_PER_TOKEN = 190

_FUNCTION = """
    function pay{i}(uint256 amount, address to) public {{
        require(amount > {i}); // checked
        if (amount > total) {{ total += amount; }}
        to.transfer(amount);
    }}
"""


def functions_source(n):
    body = "".join(_FUNCTION.format(i=i) for i in range(n))
    return "pragma solidity ^0.4.24;\ncontract Wide {\n    uint256 total;\n%s}\n" % body


def test_parse_retains_few_bytes_per_token():
    parse(functions_source(3))  # compile lazily built regexes outside the count
    source = functions_source(500)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = parse(source)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    per_token = retained / len(model.tokens)
    assert per_token < BOUND_BYTES_PER_TOKEN, "%.1f bytes per token" % per_token

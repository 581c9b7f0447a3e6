"""The model of a large file holds each token text once, and parsing
leaves no cyclic garbage behind.

``parse`` keeps every token in ``SourceModel.tokens``, so on a large file
the tokens are most of what the model retains. Tokens of equal text from one
``lex`` call share one ``str``, and each token starts with the ``int`` that
ended the token before it. On the 500-function file below, tracemalloc
counts about 176 retained bytes per token with that sharing, 196 without
the shared ``str``, 208 without the shared ``int`` and 218 without either
(CPython 3.11, 64-bit). The bound fails the model if either is lost.

Everything ``parse`` and ``detect_all`` allocate is freed by reference
counting alone: no cycle waits for the cyclic collector, so a scan of many
files neither holds dead models nor triggers collections to free them.
"""

import gc
import glob
import os
import tracemalloc

import pytest

from solbuglab.corpus import default_manifest_path
from solbuglab.detectors import detect_all
from solbuglab.parser import parse, parse_file

_SOURCES = sorted(
    glob.glob(os.path.join(os.path.dirname(default_manifest_path()), "contracts", "*.sol"))
    + glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "*.sol")))

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


@pytest.mark.parametrize("path", _SOURCES, ids=os.path.basename)
def test_parse_and_detect_leave_no_cycles(path):
    detect_all(parse_file(path))  # compile lazily built regexes first
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        detect_all(parse_file(path))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()

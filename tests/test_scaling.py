"""Parse and detection cost grow linearly: input 8x larger on one axis
(functions per contract, contracts per file, nesting depth, guarded units
in one body) may cost at most 12x.  Detection is timed on the functions
and contracts axes too, since the wrong-operator rule reads the whole
token stream.  The same axes are also counted in Python trace events,
which are the same on every run and every host.

The 1x side is timed as eight runs in a row, kept alive like the 8x
result, so both sides run equally long and hold equally much output;
alternating them lets a slow phase of a shared host hit both alike.  Time
is the process's CPU time, so another process sharing the CPU does not
count against the ratio.
"""

import sys
import time
from functools import partial

import pytest

from solbuglab.detectors import detect_all
from solbuglab.parser import parse

BOUND = 12.0
REPEATS = 3

_FUNCTION = """
    function pay{i}(uint256 amount, address to) public {{
        require(amount > {i});
        if (amount > total) {{ total += amount; }}
        total =- amount;
        to.transfer(amount);
    }}
"""
_STATE = """
    mapping(address => uint256) balances;
    uint256 total;
"""


def functions_source(n):
    body = "".join(_FUNCTION.format(i=i) for i in range(n))
    return "pragma solidity ^0.4.24;\ncontract Wide {%s%s}\n" % (_STATE, body)


def contracts_source(n):
    return "pragma solidity ^0.4.24;\n" + "".join(
        "contract C%d {%s}\n" % (i, _FUNCTION.format(i=i))
        for i in range(n))


def depth_source(n):
    opens = "".join("        if (cap > %d) {\n            total += %d;\n" % (i, i)
                    for i in range(n))
    return ("pragma solidity ^0.4.24;\ncontract Deep {%s"
            "    function settle(uint256 cap) public {\n%s%s    }\n}\n"
            % (_STATE, opens, "        }\n" * n))


def timed(call):
    started = time.process_time()
    result = call()
    return time.process_time() - started, result


@pytest.mark.parametrize("make, base, functions_at_8x", [
    (functions_source, 200, 1600),
    (contracts_source, 200, 1600),
    (depth_source, 100, 1),
], ids=["functions", "contracts", "depth"])
def test_parse_scales_linearly(make, base, functions_at_8x):
    small, large = make(base), make(8 * base)
    small_s, large_s = [], []
    for _ in range(REPEATS):
        small_s.append(timed(lambda: [parse(small) for _ in range(8)])[0] / 8)
        elapsed, model = timed(lambda: parse(large))
        large_s.append(elapsed)
        assert sum(len(c.functions) for c in model.contracts) == functions_at_8x
        del model  # so the next 1x batch runs beside no more live output
    ratio = min(large_s) / min(small_s)
    assert ratio <= BOUND, "8x input took %.1fx as long" % ratio


# Sign units: a signed local cast to unsigned after a zero check, and a
# signed expression cast before its check, so each unit adds guards both
# before and after a cast.
_SIGN_UNIT = """
        int256 v{k} = delta - {k};
        require(v{k} >= 0);
        uint256 a{k} = uint256(v{k});
        uint256 b{k} = uint256(delta - {k});
        require(delta - {k} >= 0);
        assert(0 <= b{k});
"""


def guarded_source(n, nested):
    opens = "".join(("        if (cap > %d) {\n" % k if nested else "")
                    + _SIGN_UNIT.format(k=k) for k in range(n))
    return ("pragma solidity ^0.4.24;\ncontract Guarded {\n"
            "    function settle(int256 delta, uint256 cap) public {\n%s%s    }\n}\n"
            % (opens, "        }\n" * n if nested else ""))


@pytest.mark.parametrize("make, base, findings_at_8x", [
    (partial(guarded_source, nested=False), 100, 800),
    (partial(guarded_source, nested=True), 100, 800),
    (functions_source, 200, 3200),
    (contracts_source, 200, 3200),
], ids=["guards", "depth", "functions", "contracts"])
def test_detect_scales_linearly(make, base, findings_at_8x):
    # guards, depth: the delta - k casts (the v casts are checked);
    # functions, contracts: one A-a-W and one E-a-SA finding per function
    small, large = parse(make(base)), parse(make(8 * base))
    small_s, large_s = [], []
    for _ in range(REPEATS):
        small_s.append(timed(lambda: [detect_all(small) for _ in range(8)])[0] / 8)
        elapsed, findings = timed(lambda: detect_all(large))
        large_s.append(elapsed)
        assert len(findings) == findings_at_8x
        del findings
    ratio = min(large_s) / min(small_s)
    assert ratio <= BOUND, "8x input took %.1fx as long" % ratio


EVENT_BOUND = 8.5  # 7.7-8.1 measured


def trace_events(source):
    """The Python trace events (calls, lines, returns, exceptions) of
    ``detect_all(parse(source))`` in this thread."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += 1
        return tracer

    sys.settrace(tracer)
    try:
        detect_all(parse(source))
    finally:
        sys.settrace(None)
    return count


@pytest.mark.parametrize("make, scale, bound", [
    (functions_source, 8, EVENT_BOUND),
    (contracts_source, 8, EVENT_BOUND),
    (depth_source, 8, EVENT_BOUND),
    (partial(guarded_source, nested=False), 8, EVENT_BOUND),
    (partial(guarded_source, nested=True), 8, EVENT_BOUND),
    (depth_source, 64, 68.0),  # 61.6 measured
], ids=["functions", "contracts", "depth", "guards", "guards-nested", "depth-64x"])
def test_counted_work_scales_linearly(make, scale, bound):
    """Counted work on input ``scale`` times larger grows at most ``bound``
    times.  Trace events do not see work inside a C call, so a quadratic
    slice, join or ``in`` on a list shows only in the CPU-time tests above,
    which stay."""
    detect_all(parse(make(1)))  # fill the caches that the first parse fills
    ratio = trace_events(make(100 * scale)) / trace_events(make(100))
    assert ratio <= bound, "%dx input took %.2fx the trace events" % (scale, ratio)

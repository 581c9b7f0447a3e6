"""Compare the parser models and findings of two solbuglab source trees.

    python3 tools/diff_models.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``solbuglab`` package (for example ``git archive HEAD~1 src | tar -x -C DIR``
for the parent).  Each tree is imported in its own child process, which
parses every input and runs ``detect_all`` on the model.  An input differs
when the two models differ by full ``repr``, tokens included, or when the
findings differ.

The inputs are the bundled corpus, ``tests/golden/*.sol``, the ``wide`` and
``guarded`` workloads of seeds 1 and 7 as ``perfbench/gen.py`` writes them,
and 20,000 fragment sources of seed 1 that mix every kind of declaration
with unbalanced brackets and with the guards, casts, ``ecrecover`` calls
and double-index writes that the detectors read.  The output is the count
of differing inputs and the first few of them.  Exit status: 0 when nothing
differs, 1 when something does, 2 when a tree cannot be run.  Standard
library only.
"""

import argparse
import glob
import json
import os
import random
import subprocess
import sys
import tempfile
from typing import List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = (("wide", 1), ("wide", 7), ("guarded", 1), ("guarded", 7))
FRAGMENT_COUNT = 20000
FRAGMENT_SEED = 1
# Directives, declarations and members of every kind, whole and cut short,
# with brackets that need not balance.
FRAGMENTS = (
    "pragma solidity ^0.4.24;", "pragma solidity ^0.5.0 ", "pragma solidity ",
    "pragma experimental X;", 'import "a.sol";', 'import {A} from "x";', "import ",
    "using L for T;", "using {f} for T ", "contract C ", "library L ", "interface I ",
    "is B ", "contract C { ", "contract D is C { ", "function h() public { ", "} ",
    "struct S { uint a; }", "struct S ", "enum E { A, B }", "enum E ",
    "event E(uint a);", "event E(uint a) ", "error Err(uint a);", "error Err ",
    "modifier m(uint a) ", "modifier m() { _; }", "function f() ",
    "function g(uint a) public ", "payable(public) ", "internal ", "external ",
    "returns (uint) ", "constructor() ", "fallback() external ", "uint x;",
    "uint y = 1;", "mapping(address => uint) m;", "address a ", "S s;",
    "require(x);", "require x (y);", "assert(y > 0);", "assembly { let z := 1 }",
    "assembly ", "if (x) ", "x = 1;", "a.call.value(1)();", "{", "}", "(", ")",
    "[", "]", ";", ",", "=", "\n",
    # what the guard-reading rules (A-a-IS, E-a-SW, F-c-T) look for
    "require(a.b >= 0);", "if (0 <= x[i]) ", "require(x >= 0);", "uint256(a.b)",
    "uint(x[i])", "uint8(x)", "uint(-1)", "int256 x = -1;", "int x;", "int a;",
    "require(s != address(0));", "ecrecover(h, v, r, s)",
    "address r = ecrecover(h, v, r, s);", "require(r == s);", "a[b][c] = d;",
    "a[msg.sender][s] = v;", "require(v == 0);",
    "function approve(address s, uint v) public { ",
    # what tells writes, visibility, data locations and type classes apart,
    # and a guard whose operand has a longer word before it
    "a[msg.sender][s] += v;", "x++;", "delete a[b][c];", "private ", "S memory t;",
    "S calldata t;", "S storage t;", "mapping(uint => S) ms;", "return a.call.value(1)();",
    "require(ax.b >= 0);", "uint(x.b)",
)

# Run in each child with the tree's ``src`` on the path: one line of JSON per
# input, the digests of the model's and the findings' ``repr``.
WORKER = r"""
import hashlib, json, sys
from solbuglab.detectors import detect_all
from solbuglab.parser import parse, parse_file

def digest(obj):
    return hashlib.sha256(repr(obj).encode("utf-8", "backslashreplace")).hexdigest()

with open(sys.argv[1], encoding="utf-8") as fh:
    for line in fh:
        item = json.loads(line)
        if "path" in item:
            model = parse_file(item["path"])
        else:
            model = parse(item["source"], item["name"])
        print(json.dumps([digest(model), digest(detect_all(model))]))
"""


def fragment_sources() -> List[str]:
    rng = random.Random(FRAGMENT_SEED)
    return [" ".join(rng.choice(FRAGMENTS) for _ in range(rng.randrange(1, 40)))
            for _ in range(FRAGMENT_COUNT)]


def file_inputs(scratch: str) -> List[dict]:
    """The input files, each with the name it is reported by."""
    found = [(ROOT, os.path.join(ROOT, "src", "solbuglab", "data", "corpus", "contracts")),
             (ROOT, os.path.join(ROOT, "tests", "golden"))]
    for workload, seed in WORKLOADS:
        out = os.path.join(scratch, "%s-%d" % (workload, seed))
        subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "gen.py"),
                        "--workload", workload, "--seed", str(seed), "--out", out],
                       check=True)
        found.append((scratch, os.path.join(out, "contracts")))
    return [{"name": os.path.relpath(path, base), "path": path}
            for base, folder in found
            for path in sorted(glob.glob(os.path.join(folder, "*.sol")))]


def run_side(src: str, inputs: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen([sys.executable, "-c", WORKER, inputs], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    args = ap.parse_args()
    for src in (args.parent_src, args.change_src):
        if not os.path.isfile(os.path.join(src, "solbuglab", "parser.py")):
            print("error: %s: no solbuglab package" % src, file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory() as scratch:
        items = file_inputs(scratch)
        items += [{"name": "fragment-%d.sol" % n, "source": source}
                  for n, source in enumerate(fragment_sources())]
        inputs = os.path.join(scratch, "inputs.jsonl")
        with open(inputs, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(item) + "\n" for item in items)
        sides = [run_side(src, inputs) for src in (args.parent_src, args.change_src)]
        outputs: List[List[Tuple[str, str]]] = []
        for src, side in zip((args.parent_src, args.change_src), sides):
            out, err = side.communicate()
            if side.returncode != 0:
                print("error: %s: worker failed:\n%s" % (src, err), file=sys.stderr)
                return 2
            outputs.append([tuple(json.loads(line)) for line in out.splitlines()])

    files = sum("path" in item for item in items)
    print("inputs: %d files, %d fragments (seed %d)"
          % (files, len(items) - files, FRAGMENT_SEED))
    differing = []
    for item, old, new in zip(items, *outputs):
        parts = [part for part, a, b in zip(("model", "findings"), old, new) if a != b]
        if parts:
            differing.append((item, parts))
    print("differing inputs: %d (models %d, findings %d)" % (
        len(differing), sum("model" in p for _, p in differing),
        sum("findings" in p for _, p in differing)))
    for item, parts in differing[:5]:
        source = "" if "path" in item else " %r" % item["source"]
        print("  %s: %s%s" % (" and ".join(parts), item["name"], source))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

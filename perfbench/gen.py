"""Deterministic workload generator for the solbuglab benchmark.

Every workload is a directory holding ``contracts/*.sol``, a schema-1
``manifest.json`` that ``solbuglab.corpus.load_manifest`` accepts, and an
``expected.json`` reference of findings per file.  The reference is never
produced by the program under test:

- ``corpus`` copies the bundled corpus; its reference comes from the
  manifest labels, adjusted by each crafted entry's ``expectations``.
- ``wide`` and ``guarded`` plant templates whose verdict is known when they
  are written.  Plain templates are the bundled non-crafted buggy/fixed
  pairs with identifiers renamed, so each verdict is the pair's label.
  Guard variants are built to be lexically protected or unprotected under
  the README rule ("a require/assert/if that checks the relevant condition
  counts").  ``A-a-W`` and ``A-c-US`` only apply up to 0.4.26, so planted
  instances of them in ``>=0.5`` files have no finding and no label.

The same seed and sizes give byte-identical output.  Sizes never depend on
the seed: a seed shuffles template order and picks identifier tags of fixed
width, so run-to-run cost differences come from the machine, not the input.

Run ``python3 perfbench/gen.py --workload wide --seed 1 --out DIR`` to write
a workload for inspection.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
from dataclasses import dataclass
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BUNDLED_CORPUS = os.path.join(os.path.dirname(HERE), "src", "solbuglab", "data",
                              "corpus")

LEGACY = "^0.4.24"
MODERN = "0.5.16"
FAMILIES = (LEGACY, MODERN)
# README: "A-a-W and A-c-US only apply to compilers up to 0.4.26".
LEGACY_ONLY_KINDS = frozenset(("A-a-W", "A-c-US"))


@dataclass(frozen=True)
class Axes:
    """Generator axis sizes, as (size, files) pairs: ``files`` files are
    written at each ``size``.

    functions: functions in one contract.
    contracts: one-function contracts in one file.
    guards: guarded units in one long function body, flat.
    depth: guarded units in one long body, each one block deeper.
    """

    functions: Tuple[Tuple[int, int], ...] = ()
    contracts: Tuple[Tuple[int, int], ...] = ()
    guards: Tuple[Tuple[int, int], ...] = ()
    depth: Tuple[Tuple[int, int], ...] = ()


# Workload sizes.  Each axis has one large file and many small ones, so one
# pass gives over a hundred per-file latencies while the large files, where
# cost outgrows input, still set most of the time.  The large files are kept
# small enough for several rounds to fit in one run; the per-layer scale
# probes in run.py go to 1600.
WORKLOAD_AXES: Dict[str, Axes] = {
    "wide": Axes(functions=((1, 40), (8, 8), (64, 2), (512, 1)),
                 contracts=((1, 40), (8, 8), (64, 2), (400, 1))),
    "guarded": Axes(guards=((8, 30), (32, 10), (256, 1)),
                    depth=((8, 30), (32, 10), (256, 1))),
}


# --- plain templates: the bundled non-crafted pairs, renamed ---------------

# State each template needs, declared once per contract.  {s} is the
# contract's identifier tag.
_STATE = {
    "deposits": "    mapping(address => uint256) public deposits{s};\n",
    "balance": "    mapping(address => uint256) public balance{s};\n",
    "balances": "    mapping(address => uint256) public balances{s};\n",
    "allowed": ("    mapping(address => mapping(address => uint256)) public allowed{s};\n"
                "    event Approval(address indexed owner, address indexed spender, "
                "uint256 value);\n"),
    "donation": ("    uint256 public donationCount{s};\n"
                 "    struct Donation{s} {{\n"
                 "        address donor;\n"
                 "        uint256 amount;\n"
                 "    }}\n"),
    "myNum": "    uint256 private myNum{s};\n",
    "admin": "    address public admin{s};\n",
}


@dataclass(frozen=True)
class Template:
    bug_id: str
    buggy: bool
    state: str      # key into _STATE
    text: str       # {f} function tag, {s} contract tag


_SIGN_HEAD = "    function withdrawUpTo{f}(int256 amount) public {{\n"
_SIGN_TAIL = ("        uint256 value = uint256(amount);\n"
              "        require(value <= 1 ether);\n"
              "        require(deposits{s}[msg.sender] >= value);\n"
              "        deposits{s}[msg.sender] -= value;\n"
              "        msg.sender.transfer(value);\n"
              "    }}\n")
_REENTRANCY_HEAD = ("    function withdraw{f}() public {{\n"
                    "        uint256 amount = balance{s}[msg.sender];\n"
                    "        require(amount > 0);\n")
_SHORT_HEAD = "    function sendCoin{f}(address _to, uint256 _amount) public returns (bool) {{\n"
_SHORT_TAIL = ("        require(balances{s}[msg.sender] >= _amount);\n"
               "        balances{s}[msg.sender] -= _amount;\n"
               "        balances{s}[_to] += _amount;\n"
               "        return true;\n"
               "    }}\n")
_ECRECOVER_HEAD = ("    function teardownFor{f}(address _id, bytes32 _hash, uint8 _v, "
                   "bytes32 _r, bytes32 _s) public {{\n")
_ECRECOVER_TAIL = ("        address signer = ecrecover(_hash, _v, _r, _s);\n"
                   "        require(signer == _id);\n"
                   "        selfdestruct(_id);\n"
                   "    }}\n")
# F-c-T keys on the function name, so approve keeps it.
_APPROVE_HEAD = ("    function approve(address _spender, uint256 _value) public returns (bool) {{\n"
                 "        require(msg.data.length == 68);\n")
_APPROVE_TAIL = ("        allowed{s}[msg.sender][_spender] = _value;\n"
                 "        emit Approval(msg.sender, _spender, _value);\n"
                 "        return true;\n"
                 "    }}\n")

# One buggy and one fixed template per bundled pair: integer_sign,
# reentrancy, short_address, ecrecover, approve_race, uninitialized_storage
# and wrong_operator.
TEMPLATES: Tuple[Template, ...] = (
    Template("A-a-IS", True, "deposits", _SIGN_HEAD + _SIGN_TAIL),
    Template("A-a-IS", False, "deposits",
             _SIGN_HEAD + "        require(amount >= 0);\n" + _SIGN_TAIL),
    Template("D-a-R", True, "balance",
             _REENTRANCY_HEAD
             + "        msg.sender.call.value(amount)();\n"
             + "        balance{s}[msg.sender] = 0;\n    }}\n"),
    Template("D-a-R", False, "balance",
             _REENTRANCY_HEAD
             + "        balance{s}[msg.sender] = 0;\n"
             + "        msg.sender.call.value(amount)();\n    }}\n"),
    Template("E-a-SA", True, "balances", _SHORT_HEAD + _SHORT_TAIL),
    Template("E-a-SA", False, "balances",
             _SHORT_HEAD + "        require(msg.data.length == 68);\n" + _SHORT_TAIL),
    Template("E-a-SW", True, "admin", _ECRECOVER_HEAD + _ECRECOVER_TAIL),
    Template("E-a-SW", False, "admin",
             _ECRECOVER_HEAD + "        require(_id != address(0));\n" + _ECRECOVER_TAIL),
    Template("F-c-T", True, "allowed", _APPROVE_HEAD + _APPROVE_TAIL),
    Template("F-c-T", False, "allowed",
             _APPROVE_HEAD
             + "        require(_value == 0 || allowed{s}[msg.sender][_spender] == 0);\n"
             + _APPROVE_TAIL),
    Template("A-c-US", True, "donation",
             "    function recordDonation{f}(uint256 amount) public {{\n"
             "        Donation{s} donation;\n"
             "        donation.donor = msg.sender;\n"
             "        donation.amount = amount;\n"
             "        donationCount{s} += 1;\n"
             "    }}\n"),
    Template("A-c-US", False, "donation",
             "    function recordDonation{f}(uint256 amount) public {{\n"
             "        Donation{s} memory donation = Donation{s}(msg.sender, amount);\n"
             "        donation.amount = amount;\n"
             "        donationCount{s} += 1;\n"
             "    }}\n"),
    Template("A-a-W", True, "myNum",
             "    function bumpGuess{f}() public {{\n"
             "        myNum{s} =+ 1;\n"
             "    }}\n"),
    Template("A-a-W", False, "myNum",
             "    function bumpGuess{f}() public {{\n"
             "        myNum{s} += 1;\n"
             "    }}\n"),
)


class _File:
    """One generated file: text plus the verdicts planted in it."""

    def __init__(self, family: str):
        self.family = family
        self.parts: List[str] = ["pragma solidity %s;\n" % family]
        self.findings: Dict[str, int] = {}
        self.targets: set = set()

    def plant(self, bug_id: str, found: bool) -> None:
        """Record one planted instance of bug_id and whether it must be found."""
        self.targets.add(bug_id)
        if found and (bug_id not in LEGACY_ONLY_KINDS or self.family == LEGACY):
            self.findings[bug_id] = self.findings.get(bug_id, 0) + 1

    def text(self) -> str:
        return "".join(self.parts)


def _tag(rng: random.Random) -> str:
    return "_%06x" % rng.getrandbits(24)


def _balanced(rng: random.Random, variants, count: int, offset: int) -> list:
    """count variants taken in turn from offset, shuffled.  The multiset
    depends on count and offset only, so file sizes do not depend on the
    seed."""
    picked = [variants[(offset + i) % len(variants)] for i in range(count)]
    rng.shuffle(picked)
    return picked


def _plain_contract(out: _File, rng: random.Random, index: int,
                    templates: List[Template]) -> None:
    s = _tag(rng) + "%04d" % index
    needs = sorted({t.state for t in templates})
    out.parts.append("\ncontract Wide%s {\n" % s)
    out.parts.extend(_STATE[key].format(s=s) for key in needs)
    for k, template in enumerate(templates):
        out.parts.append("\n" + template.text.format(f="%s_%04d" % (s, k), s=s))
        out.plant(template.bug_id, template.buggy)
    out.parts.append("}\n")


def plain_file(rng: random.Random, family: str, contracts: int,
               functions: int, offset: int = 0) -> _File:
    """contracts contracts of functions template functions each."""
    out = _File(family)
    order = _balanced(rng, TEMPLATES, contracts * functions, offset)
    for c in range(contracts):
        _plain_contract(out, rng, c, order[c * functions:(c + 1) * functions])
    return out


# --- guarded bodies ---------------------------------------------------------

# A unit declares a signed local and casts it to unsigned.  "protected"
# variants check the sign before the cast; the others do not, or check it
# only after the cast, or check something other than the sign.
_SIGN_UNITS = (
    ("require", True,
     "        int256 v{k} = delta - {n};\n        require(v{k} >= 0);\n"
     "        uint256 u{k} = uint256(v{k});\n"),
    ("assert-reversed", True,
     "        int256 v{k} = delta - {n};\n        assert(0 <= v{k});\n"
     "        uint256 u{k} = uint256(v{k});\n"),
    ("if-block", True,
     "        int256 v{k} = delta - {n};\n        if (v{k} >= 0) {{\n"
     "            total{s} += uint256(v{k});\n        }}\n"),
    ("unchecked", False,
     "        int256 v{k} = delta - {n};\n        uint256 u{k} = uint256(v{k});\n"),
    ("check-after-cast", False,
     "        int256 v{k} = delta - {n};\n        uint256 u{k} = uint256(v{k});\n"
     "        require(v{k} >= 0);\n"),
    ("nonzero-only", False,
     "        int256 v{k} = delta - {n};\n        require(v{k} != 0);\n"
     "        uint256 u{k} = uint256(v{k});\n"),
)

# ecrecover checks: a zero-address rejection of the compared address
# protects; one of an unrelated address does not.
_SIGNER_VARIANTS = (
    ("rejects-zero", True, "        require(_id != address(0));\n"),
    ("no-check", False, ""),
    ("unrelated-check", False, "        require(owner{s} != address(0));\n"),
)

# approve writes: forcing the old or new allowance through zero protects;
# a positivity check does not.
_APPROVE_VARIANTS = (
    ("either-zero", True,
     "        require(_value == 0 || allowed{s}[msg.sender][_spender] == 0);\n"),
    ("stored-zero", True, "        require(allowed{s}[msg.sender][_spender] == 0);\n"),
    ("no-check", False, ""),
    ("positive-only", False, "        require(_value > 0);\n"),
)


def guarded_file(rng: random.Random, family: str, units: int, nested: bool,
                 side_functions: int, offset: int = 0) -> _File:
    """One contract with a long guarded body plus ecrecover and approve
    functions.  The body holds units sign units; nested opens one more
    block (an if on an unrelated bound) before each unit."""
    out = _File(family)
    s = _tag(rng)
    out.parts.append(
        "\ncontract Guarded%s {\n"
        "    uint256 public total%s;\n"
        "    address public owner%s;\n"
        "    mapping(address => mapping(address => uint256)) public allowed%s;\n"
        "    event Approval(address indexed owner, address indexed spender, uint256 value);\n"
        "\n    function settle(int256 delta, uint256 cap) public {\n" % (s, s, s, s))
    for k, (_, protected, text) in enumerate(_balanced(rng, _SIGN_UNITS, units, offset)):
        if nested:
            out.parts.append("        if (cap > %d) {\n" % k)
        out.parts.append(text.format(k="%05d" % k, n=k, s=s))
        out.plant("A-a-IS", not protected)
    if nested:
        out.parts.append("        }\n" * units)
    out.parts.append("    }\n")
    for k, (_, protected, check) in enumerate(_balanced(rng, _SIGNER_VARIANTS,
                                                        side_functions, offset)):
        out.parts.append("\n" + (_ECRECOVER_HEAD + check + _ECRECOVER_TAIL).format(
            f="%s_%04d" % (s, k), s=s))
        out.plant("E-a-SW", not protected)
    for _, protected, check in _balanced(rng, _APPROVE_VARIANTS, side_functions, offset):
        out.parts.append("\n" + (_APPROVE_HEAD + check + _APPROVE_TAIL).format(s=s))
        out.plant("F-c-T", not protected)
    out.parts.append("}\n")
    return out


# --- workloads ------------------------------------------------------------

def _files_for(axes: Axes, rng: random.Random) -> List[Tuple[str, _File]]:
    """Files for every axis size; pragma families alternate file by file."""
    files: List[Tuple[str, _File]] = []
    makers = (
        ("functions", axes.functions, lambda fam, n, i: plain_file(rng, fam, 1, n, i)),
        ("contracts", axes.contracts, lambda fam, n, i: plain_file(rng, fam, n, 1, i)),
        ("guards", axes.guards,
         lambda fam, n, i: guarded_file(rng, fam, n, False, max(1, n // 8), i)),
        ("depth", axes.depth,
         lambda fam, n, i: guarded_file(rng, fam, n, True, max(1, n // 8), i)),
    )
    for axis, sizes, make in makers:
        for size, count in sizes:
            for copy in range(count):
                family = FAMILIES[len(files) % 2]
                name = "%s_%04d_%02d.sol" % (axis, size, copy)
                files.append((name, make(family, size, len(files))))
    return files


def write_generated(out_dir: str, axes: Axes, seed: int, label: str) -> dict:
    """Write generated files, manifest and reference; return the reference."""
    rng = random.Random("%s:%d" % (label, seed))
    os.makedirs(os.path.join(out_dir, "contracts"), exist_ok=True)
    entries = []
    expected: Dict[str, Dict[str, int]] = {}
    for name, generated in _files_for(axes, rng):
        path = "contracts/" + name
        with open(os.path.join(out_dir, path), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(generated.text())
        labels = sorted(generated.findings)
        entries.append({
            "path": path,
            "solidity_versions": generated.family,
            "kind": "buggy" if labels else "fixed",
            "origin": "modified",
            "strategy": None,
            "labels": labels,
            "targets": sorted(generated.targets),
            "notes": "generated from bundled pair templates, identifiers renamed",
        })
        expected[path] = dict(sorted(generated.findings.items()))
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"schema_version": "1", "entries": entries})
    reference = {"exact_counts": True, "files": expected}
    _write_json(os.path.join(out_dir, "expected.json"), reference)
    return reference


def corpus_reference(manifest: dict) -> dict:
    """Expected findings per file from manifest labels and expectations.

    A non-crafted file yields exactly its labels.  On a crafted file, a
    ``miss`` expectation removes the kind and a ``false-positive`` one adds
    it.  The manifest says which kinds appear, not how often.
    """
    files: Dict[str, Dict[str, int]] = {}
    for entry in manifest["entries"]:
        found = set(entry.get("labels", []))
        for bug_id, outcome in entry.get("expectations", {}).items():
            if outcome == "miss":
                found.discard(bug_id)
            elif outcome == "false-positive":
                found.add(bug_id)
        files[entry["path"]] = {bug_id: 1 for bug_id in sorted(found)}
    return {"exact_counts": False, "files": files}


def write_corpus(out_dir: str) -> dict:
    """Copy the bundled corpus and write its reference."""
    if not os.path.isfile(os.path.join(BUNDLED_CORPUS, "manifest.json")):
        raise FileNotFoundError("bundled corpus not found under %s" % BUNDLED_CORPUS)
    shutil.copytree(BUNDLED_CORPUS, out_dir, dirs_exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    reference = corpus_reference(manifest)
    _write_json(os.path.join(out_dir, "expected.json"), reference)
    return reference


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write one workload into an empty out_dir; return its reference."""
    if workload == "corpus":
        return write_corpus(out_dir)
    return write_generated(out_dir, WORKLOAD_AXES[workload], seed, workload)


def bench_reference(manifest: dict, reference: dict, claims) -> Dict[str, Dict[str, dict]]:
    """Expected ``bench --split-crafted`` counts per segment and kind.

    Scoring follows the README: a tool is scored on the kinds it claims,
    over entries that label or target one of them.
    """
    segments = {
        "all": lambda e: True,
        "non-crafted": lambda e: e["kind"] != "crafted",
        "crafted": lambda e: e["kind"] == "crafted",
    }
    out: Dict[str, Dict[str, dict]] = {}
    for name, keep in segments.items():
        counts = {bug_id: {"tp": 0, "fp": 0, "fn": 0} for bug_id in sorted(claims)}
        for entry in manifest["entries"]:
            labels = set(entry.get("labels", []))
            if not keep(entry) or not (labels | set(entry.get("targets", labels))) & set(claims):
                continue
            found = set(reference["files"][entry["path"]])
            for bug_id in claims:
                if bug_id in labels and bug_id in found:
                    counts[bug_id]["tp"] += 1
                elif bug_id in labels:
                    counts[bug_id]["fn"] += 1
                elif bug_id in found:
                    counts[bug_id]["fp"] += 1
        out[name] = counts
    return out


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("corpus",) + tuple(WORKLOAD_AXES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to create")
    args = ap.parse_args()
    os.makedirs(args.out)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Detector rules: one positive and one negative per rule, plus gating,
ordering, and registry behavior."""

import os

import pytest

from solbuglab.detectors import (
    DETECTABLE_BUG_IDS,
    DETECTORS,
    Finding,
    UnknownRuleError,
    detect_all,
)
from solbuglab.parser import parse, parse_file

from conftest import fixture_source


def ids(findings):
    return [f.bug_id for f in findings]


def run(source, enabled=None):
    return detect_all(parse(source, "<test>"), enabled=enabled)


HEADER = "pragma solidity ^0.4.24;\n"


# --- A-a-IS: signed value cast to unsigned ------------------------------

def test_integer_sign_fires_on_unguarded_cast():
    findings = run(HEADER + """
        contract C {
            function f(int256 amount) public pure returns (uint256) {
                uint256 value = uint256(amount);
                return value;
            }
        }
    """)
    assert ids(findings) == ["A-a-IS"]
    assert findings[0].function == "f"


def test_integer_sign_quiet_when_guarded():
    findings = run(HEADER + """
        contract C {
            function f(int256 amount) public pure returns (uint256) {
                require(amount >= 0);
                uint256 value = uint256(amount);
                return value;
            }
        }
    """)
    assert findings == []


def test_integer_sign_negative_literal():
    findings = run(HEADER + """
        contract C {
            function f() public pure returns (uint8) {
                return uint8(-1);
            }
        }
    """)
    assert ids(findings) == ["A-a-IS"]


def test_integer_sign_ignores_unsigned_sources():
    findings = run(HEADER + """
        contract C {
            function f(uint32 a) public pure returns (uint256) {
                return uint256(a);
            }
        }
    """)
    assert findings == []


# --- A-a-W: '=+' / '=-' where a compound op was meant -------------------

def test_wrong_operator_both_signs():
    findings = run(HEADER + """
        contract C {
            uint myNum = 0;
            function f() public {
                myNum =+ 1;
                myNum =- 1;
            }
        }
    """)
    assert ids(findings) == ["A-a-W", "A-a-W"]
    assert findings[0].span[0] < findings[1].span[0]


def test_wrong_operator_ignores_spaced_and_compound():
    findings = run(HEADER + """
        contract C {
            uint myNum = 0;
            function f() public {
                myNum = + 1;
                myNum += 1;
                myNum = -1;
            }
        }
    """)
    assert findings == []


def test_wrong_operator_ignores_comparisons():
    findings = run(HEADER + """
        contract C {
            uint a = 1;
            function f() public view returns (bool) {
                return a <=+ 1 || a ==+ 2 || a >=- 3 || a !=- 4;
            }
        }
    """)
    assert findings == []


# --- A-c-US: uninitialized storage-aliasing local -----------------------

def test_uninitialized_storage_struct():
    findings = run(HEADER + """
        contract C {
            struct Rec { address who; uint amount; }
            Rec[] log;
            function f(uint amount) public {
                Rec rec;
                rec.who = msg.sender;
                rec.amount = amount;
            }
        }
    """)
    assert ids(findings) == ["A-c-US"]


def test_uninitialized_storage_quiet_with_memory_or_init():
    findings = run(HEADER + """
        contract C {
            struct Rec { address who; uint amount; }
            function f(uint amount) public view {
                Rec memory rec = Rec(msg.sender, amount);
                uint plain;
                plain = amount;
            }
        }
    """)
    assert findings == []


# --- D-a-R: value call with open gas before a state write ---------------

def test_reentrancy_legacy_fixture():
    findings = detect_all(parse(fixture_source("reentrancy_buggy.sol"),
                                "reentrancy_buggy.sol"))
    assert ids(findings) == ["D-a-R"]
    assert findings[0].contract == "Vault"


def test_reentrancy_modern_fixture():
    findings = detect_all(parse(fixture_source("reentrancy_modern_buggy.sol"),
                                "reentrancy_modern_buggy.sol"))
    assert ids(findings) == ["D-a-R"]


def test_reentrancy_quiet_when_write_first():
    findings = detect_all(parse(fixture_source("reentrancy_fixed.sol"),
                                "reentrancy_fixed.sol"))
    assert findings == []


def test_reentrancy_ignores_send_and_gas_capped():
    findings = run(HEADER + """
        contract C {
            mapping(address => uint) balance;
            function a() public {
                msg.sender.send(balance[msg.sender]);
                balance[msg.sender] = 0;
            }
            function b() public {
                msg.sender.call.gas(2300).value(balance[msg.sender])();
                balance[msg.sender] = 0;
            }
        }
    """)
    assert findings == []


def test_reentrancy_needs_late_state_write():
    findings = run(HEADER + """
        contract C {
            mapping(address => uint) balance;
            function f() public {
                balance[msg.sender] = 0;
                msg.sender.call.value(1)();
            }
        }
    """)
    assert findings == []


# --- E-a-SA: value moved by address+amount, calldata length unchecked ---

def test_short_address_fires_on_public_transfer():
    findings = detect_all(parse(fixture_source("short_address_buggy.sol"),
                                "short_address_buggy.sol"))
    assert ids(findings) == ["E-a-SA"]


def test_short_address_quiet_with_length_check():
    findings = detect_all(parse(fixture_source("short_address_fixed.sol"),
                                "short_address_fixed.sol"))
    assert findings == []


def test_short_address_ignores_internal_helpers():
    findings = run(HEADER + """
        contract C {
            mapping(address => uint) balance;
            function move(address to, uint amount) internal {
                balance[to] = amount;
            }
        }
    """)
    assert findings == []


# --- E-a-SW: ecrecover equality with no zero-address rejection ----------

def test_wrong_signature_fires():
    findings = detect_all(parse(fixture_source("ecrecover_buggy.sol"),
                                "ecrecover_buggy.sol"))
    assert ids(findings) == ["E-a-SW"]


def test_wrong_signature_quiet_with_zero_check():
    findings = detect_all(parse(fixture_source("ecrecover_fixed.sol"),
                                "ecrecover_fixed.sol"))
    assert findings == []


def test_wrong_signature_needs_comparison():
    findings = run(HEADER + """
        contract C {
            function f(bytes32 h, uint8 v, bytes32 r, bytes32 s) public pure returns (address) {
                address signer = ecrecover(h, v, r, s);
                return signer;
            }
        }
    """)
    assert findings == []


# --- F-c-T: allowance overwritten without a zero step -------------------

def test_approve_race_fires():
    findings = detect_all(parse(fixture_source("approve_race_buggy.sol"),
                                "approve_race_buggy.sol"))
    assert ids(findings) == ["F-c-T"]


def test_approve_race_quiet_with_zero_rule():
    findings = detect_all(parse(fixture_source("approve_race_fixed.sol"),
                                "approve_race_fixed.sol"))
    assert findings == []


# --- cross-cutting ------------------------------------------------------

def test_version_gating_silences_legacy_rules():
    legacy_body = """
        contract C {
            struct Rec { uint a; }
            uint myNum = 0;
            function f() public {
                Rec rec;
                myNum =+ 1;
                rec.a = myNum;
            }
        }
    """
    modern = detect_all(parse("pragma solidity 0.6.2;\n" + legacy_body, "<m>"))
    assert modern == []
    legacy = detect_all(parse(HEADER + legacy_body, "<l>"))
    assert sorted(ids(legacy)) == ["A-a-W", "A-c-US"]
    unpinned = detect_all(parse(legacy_body, "<u>"))
    assert sorted(ids(unpinned)) == ["A-a-W", "A-c-US"]


# Unions are not modelled, so ``||`` makes the pragma unreadable; either
# way the version is unknown and every rule runs.
@pytest.mark.parametrize("pragmas, diagnostics", [
    ("pragma solidity ^0.4.24;\npragma solidity ^0.5.0;\n",
     ["contradictory version pragmas match no compiler"]),
    ("pragma solidity ^0.4.20 || ^0.5.0;\n",
     ["unparseable version pragma: '^ 0.4.20 || ^ 0.5.0'"]),
    ("", ["no solidity version pragma"]),
], ids=["two-directives", "union", "no-directive"])
def test_unknown_version_runs_every_rule(pragmas, diagnostics):
    model = parse(pragmas + """
        contract C {
            function f(int x) public pure returns (uint) {
                return uint(x);
            }
        }
    """, "<p>")
    assert model.pragma.is_unbounded()
    assert [d.message for d in model.diagnostics] == diagnostics
    assert ids(detect_all(model)) == ["A-a-IS"]


def test_findings_are_ordered():
    source = HEADER + """
        contract C {
            struct Rec { uint a; }
            uint myNum = 0;
            function late() public {
                myNum =+ 1;
            }
            function early(int x) public returns (uint) {
                Rec rec;
                rec.a = 1;
                return uint(x);
            }
        }
    """
    findings = detect_all(parse(source, "<o>"))
    assert [f.sort_key() for f in findings] == sorted(f.sort_key() for f in findings)
    assert len(findings) == 3


def test_enabled_subset_filters():
    source = fixture_source("approve_race_buggy.sol")
    model = parse(source, "approve_race_buggy.sol")
    assert ids(detect_all(model, enabled=["D-a-R"])) == []
    assert ids(detect_all(model, enabled=["F-c-T"])) == ["F-c-T"]


def test_unknown_rule_rejected_by_name():
    model = parse(HEADER + "contract C {}", "<x>")
    with pytest.raises(UnknownRuleError) as err:
        detect_all(model, enabled=["F-c-T", "NOPE", "ALSO-BAD"])
    message = str(err.value)
    assert "ALSO-BAD" in message and "NOPE" in message


def test_registry_matches_public_tuple():
    assert set(DETECTORS) == set(DETECTABLE_BUG_IDS)
    assert list(DETECTABLE_BUG_IDS) == sorted(DETECTABLE_BUG_IDS)


def test_monotonic_under_unrelated_additions():
    base = HEADER + """
        contract C {
            mapping(address => uint) balance;
            function w() public {
                msg.sender.call.value(balance[msg.sender])();
                balance[msg.sender] = 0;
            }
        }
    """
    extended = HEADER + """
        contract C {
            mapping(address => uint) balance;
            function w() public {
                msg.sender.call.value(balance[msg.sender])();
                balance[msg.sender] = 0;
            }
            function harmless(uint a) public pure returns (uint) {
                return a + 1;
            }
        }
    """
    assert ids(run(base)) == ids(run(extended)) == ["D-a-R"]


RULES_SOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "rules.sol")


@pytest.mark.parametrize("bug_id", DETECTABLE_BUG_IDS)
def test_registry_rule_is_the_per_rule_entry_point(bug_id):
    model = parse_file(RULES_SOL)
    found = DETECTORS[bug_id].rule(model)
    assert found and {f.bug_id for f in found} == {bug_id}
    assert detect_all(model, [bug_id]) == sorted(found, key=Finding.sort_key)

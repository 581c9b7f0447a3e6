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


@pytest.mark.parametrize("state_type, findings", [
    ("int", ["A-a-IS"]), ("int64", ["A-a-IS"]), ("intFlag", []), ("int_t", []),
])
def test_integer_sign_reads_only_int_types_as_signed(state_type, findings):
    assert ids(run(HEADER + """
        contract C {
            %s f;
            function g() public returns (uint256) {
                return uint(f);
            }
        }
    """ % state_type)) == findings


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


@pytest.mark.parametrize("local, findings", [
    ("Rec rec;", ["A-c-US"]),
    ("Rec rec = recs[0];", []),  # points at a live record, not at slot 0
], ids=["buggy", "fixed"])
def test_uninitialized_storage_needs_a_missing_initializer(local, findings):
    assert ids(run(HEADER + """
        contract C {
            struct Rec { address who; uint amount; }
            Rec[] recs;
            function f() public {
                %s
                rec.who = msg.sender;
            }
        }
    """ % local)) == findings


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


@pytest.mark.parametrize("payload, findings", [
    ("", ["D-a-R"]),
    ('bytes4(keccak256("deposit()"))', []),
], ids=["buggy", "fixed"])
def test_reentrancy_needs_an_empty_payload(payload, findings):
    assert ids(run(HEADER + """
        contract C {
            mapping(address => uint) balance;
            function f() public {
                msg.sender.call.value(balance[msg.sender])(%s);
                balance[msg.sender] = 0;
            }
        }
    """ % payload)) == findings


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


@pytest.mark.parametrize("head, findings", [
    ("function give(address to, uint amount) public", ["E-a-SA"]),
    # neither is called by name with caller-supplied arguments
    ("function(address to, uint amount) public", []),
    ("constructor(address to, uint amount) public", []),
], ids=["named", "fallback", "constructor"])
def test_short_address_skips_fallback_and_constructor(head, findings):
    assert ids(run(HEADER + """
        contract C {
            mapping(address => uint) balance;
            %s {
                balance[to] = amount;
            }
        }
    """ % head)) == findings


@pytest.mark.parametrize("call, findings", [
    ("to.call.value(amount)();", ["E-a-SA"]),
    ("to.call(amount);", []),  # moves no ether
], ids=["buggy", "fixed"])
def test_short_address_counts_a_value_call_as_moving_value(call, findings):
    assert ids(run(HEADER + """
        contract C {
            function pay(address to, uint amount) public {
                %s
            }
        }
    """ % call)) == findings


@pytest.mark.parametrize("amount_type, findings", [
    ("uint", ["E-a-SA"]), ("uint256", ["E-a-SA"]), ("uintLike", []), ("uint_t", []),
])
def test_short_address_reads_only_uint_types_as_amounts(amount_type, findings):
    assert ids(run(HEADER + """
        contract C {
            mapping(address => uint256) balances;
            function transfer(address to, %s amount) public {
                balances[to] = amount;
            }
        }
    """ % amount_type)) == findings


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


@pytest.mark.parametrize("body, findings", [
    ("address signer = ecrecover(h, v, r, s); require(signer == auth.owner);",
     ["E-a-SW"]),
    # the result is stored in a field; the one equality compares other addresses
    ("auth.signer = ecrecover(h, v, r, s); require(msg.sender == auth.owner);", []),
], ids=["buggy", "fixed"])
def test_wrong_signature_compares_the_result_not_its_container(body, findings):
    assert ids(run(HEADER + """
        contract C {
            struct Auth { address owner; address signer; }
            Auth auth;
            function f(bytes32 h, uint8 v, bytes32 r, bytes32 s) public {
                %s
            }
        }
    """ % body)) == findings


# --- F-c-T: allowance overwritten without a zero step -------------------

def test_approve_race_fires():
    findings = detect_all(parse(fixture_source("approve_race_buggy.sol"),
                                "approve_race_buggy.sol"))
    assert ids(findings) == ["F-c-T"]


def test_approve_race_quiet_with_zero_rule():
    findings = detect_all(parse(fixture_source("approve_race_fixed.sol"),
                                "approve_race_fixed.sol"))
    assert findings == []


@pytest.mark.parametrize("state, write, findings", [
    ("mapping(address => mapping(address => uint)) allowed;",
     "allowed[msg.sender][spender] = value;", ["F-c-T"]),
    # a per-spender flag is no allowance an owner grants a spender
    ("mapping(address => uint) approved;", "approved[spender] = value;", []),
], ids=["buggy", "fixed"])
def test_approve_race_needs_an_owner_spender_allowance(state, write, findings):
    assert ids(run(HEADER + """
        contract C {
            %s
            function approve(address spender, uint value) public {
                %s
            }
        }
    """ % (state, write), enabled=["F-c-T"])) == findings


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

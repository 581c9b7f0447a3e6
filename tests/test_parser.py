"""Structural parser: contracts, functions, statement classification, and
the guarantees the detectors lean on."""

import random

import pytest

from solbuglab.detectors import detect_all
from solbuglab.model import TypeClass
from solbuglab.parser import parse

from conftest import fixture_source


def body_partition_holds(fn):
    lo, hi = fn.body_span
    if hi <= lo:
        return hi == lo and not fn.body
    if not fn.body:
        return False
    spans = [s.span for s in fn.body]
    if spans[0][0] != lo or spans[-1][1] != hi:
        return False
    return all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def test_pragma_constraint():
    model = parse("pragma solidity ^0.4.24;\ncontract C {}")
    assert model.pragma.lower == (0, 4, 24)
    assert model.pragma.upper == (0, 5, 0)
    assert model.diagnostics == ()


def test_missing_pragma_noted_not_fatal():
    model = parse("contract C { uint a; }")
    assert model.pragma.is_unbounded()
    assert any("pragma" in d.message for d in model.diagnostics)


def test_multiple_pragmas_intersect():
    model = parse("pragma solidity >=0.4.0;\npragma solidity <0.5.0;\ncontract C {}")
    assert model.pragma.lower == (0, 4, 0)
    assert model.pragma.upper == (0, 5, 0)


def writes_to_state(contract):
    """lhs -> lhs_is_state_var for every write in the contract."""
    return {s.assign.lhs: s.assign.lhs_is_state_var
            for fn in contract.functions for s in fn.body if s.assign}


def test_contract_kinds_and_bases():
    model = parse("""
        pragma solidity ^0.5.0;
        interface IToken { function total() external view returns (uint); }
        library Math {}
        contract Owned { address owner; }
        contract Coin is IToken, Owned(1) { uint supply; function f() public { owner = msg.sender; } }
    """)
    by_name = {c.name: c for c in model.contracts}
    assert list(by_name) == ["IToken", "Math", "Owned", "Coin"]
    # the second base, past its constructor arguments, still lends its state
    assert writes_to_state(by_name["Coin"]) == {"owner": True}


def test_state_vars_inherited_within_file():
    model = parse("""
        pragma solidity ^0.4.24;
        contract Base {
            uint public total;
            function f() public { total = 1; balance = 2; }
        }
        contract Child is Base {
            mapping(address => uint) balance;
            function g() public { balance[msg.sender] = 1; total += 1; other = 3; }
        }
    """)
    base, child = model.contracts
    assert writes_to_state(child) == {"balance [ msg . sender ]": True, "total": True,
                                     "other": False}
    assert writes_to_state(base) == {"total": True, "balance": False}


@pytest.mark.parametrize("source, writes", [
    ("contract A { uint t; } contract B is A { function g() { t = 1; } }",
     [{}, {"t": True}]),
    ("contract A { uint t; } contract B is A { } contract C is B { function g() { t = 1; } }",
     [{}, {}, {"t": True}]),
    # solc rejects a base declared after the contract that names it
    ("contract B is A { function g() { t = 1; } } contract A { uint t; }",
     [{"t": False}, {}]),
    ("contract S is S { uint s; function f() { s = 1; } }"
     " contract A is B { uint a; function f() { b = 1; } }"
     " contract B is A { uint b; function g() { a = 1; } }",
     [{"s": True}, {"b": False}, {"a": True}]),
], ids=["earlier-base", "chain", "later-base", "self-and-cycle"])
def test_only_bases_declared_earlier_lend_state_vars(source, writes):
    model = parse("pragma solidity ^0.4.24;\n" + source)
    assert [writes_to_state(c) for c in model.contracts] == writes
    assert model.diagnostics == ()


def test_function_shapes():
    model = parse("""
        pragma solidity ^0.4.24;
        contract C {
            function pub(uint a) public payable {}
            function ext() external {}
            function inner() internal {}
            function hidden() private {}
            function bare() { }
            function () public payable {}
        }
    """)
    fns = model.contracts[0].functions
    by_name = {f.name: f for f in fns}
    assert {name: f.externally_callable for name, f in by_name.items()} == {
        "pub": True, "ext": True, "inner": False, "hidden": False, "bare": True, "": True}
    assert by_name[""].is_fallback


def test_param_classification():
    model = parse("""
        pragma solidity ^0.4.24;
        contract C {
            function f(address to, uint256 amount, int64 delta, bytes data) public {}
        }
    """)
    params = model.contracts[0].functions[0].params
    classes = [p.type_class for p in params]
    assert classes == [TypeClass.ADDRESS, TypeClass.UNSIGNED_INT,
                       TypeClass.SIGNED_INT, TypeClass.ARRAY]
    assert [p.name for p in params] == ["to", "amount", "delta", "data"]
    # a closer with nothing open is ignored: the comma still splits
    model = parse("contract C { function f(uint] a, address b) public {} }")
    assert [p.name for p in model.contracts[0].functions[0].params] == ["a", "b"]


@pytest.mark.parametrize("type_name, type_class", [
    ("uint", TypeClass.UNSIGNED_INT), ("uint8", TypeClass.UNSIGNED_INT),
    ("int", TypeClass.SIGNED_INT), ("int256", TypeClass.SIGNED_INT),
    ("uintLike", None), ("intFlag", None), ("uint_t", None), ("integer", None),
])
def test_only_int_and_uint_and_their_sizes_are_integers(type_name, type_class):
    model = parse("contract C { %s s; function f(address to, %s p) public {} }"
                  % (type_name, type_name))
    (state,) = model.contracts[0].state_vars
    params = model.contracts[0].functions[0].params
    assert [state.type_class, params[1].type_class] == [type_class, type_class]


def test_require_becomes_guard():
    model = parse("""
        pragma solidity ^0.4.24;
        contract C {
            function f(int a) public {
                require(a >= 0);
                assert(a < 100);
                if (a == 3) { a = 4; }
            }
        }
    """)
    fn = model.contracts[0].functions[0]
    assert [g.condition for g in fn.guards] == ["a >= 0", "a < 100", "a == 3"]
    assert [s.text.split()[0] for s in fn.body] == ["require", "assert", "if", "a", "}"]


def test_local_decl_and_storage_location():
    model = parse("""
        pragma solidity ^0.4.24;
        contract C {
            struct S { uint a; }
            function f() internal {
                S s;
                S memory t = S(1);
                uint[] u;
                uint n = 3;
                S calldata c;
                S storage memory w;
                mapping(uint => S) m;
            }
        }
    """)
    decls = [s.decl for s in model.contracts[0].functions[0].body if s.decl]
    by_name = {d.name: d for d in decls}
    assert by_name["s"].type_class is TypeClass.USER_COMPOSITE
    assert not by_name["s"].memory_or_calldata
    assert not by_name["s"].has_initializer
    assert by_name["t"].memory_or_calldata
    assert by_name["t"].has_initializer
    assert by_name["u"].type_class is TypeClass.ARRAY
    assert by_name["n"].type_class is TypeClass.UNSIGNED_INT
    assert by_name["c"].memory_or_calldata
    assert not by_name["w"].memory_or_calldata  # the first location word counts
    assert by_name["m"].type_class is None  # a mapping, though its values are structs


def test_assignment_state_flag():
    model = parse("""
        pragma solidity ^0.4.24;
        contract C {
            mapping(address => uint) balance;
            function f(address who) public {
                uint local = 1;
                balance[who] = 0;
                local = 2;
            }
        }
    """)
    assigns = [s.assign for s in model.contracts[0].functions[0].body if s.assign]
    state_writes = [a for a in assigns if a.lhs_is_state_var]
    assert [a.lhs for a in state_writes] == ["balance [ who ]"]


def test_delete_is_a_state_write_with_no_right_side():
    model = parse("""
        pragma solidity ^0.4.24;
        contract C {
            mapping(address => uint) m;
            function f(address a) public { delete m[a]; }
        }
    """)
    (stmt,) = model.contracts[0].functions[0].body
    assert not stmt.assign.compound
    assert (stmt.assign.lhs, stmt.assign.rhs) == ("m [ a ]", "")
    assert stmt.assign.lhs_is_state_var


def test_callee_spans_bracketed_parts():
    model = parse("""
        pragma solidity ^0.4.24;
        contract C {
            function f(uint i) public {
                payees[i].transfer(1);
                getPayee(i).call.value(1)();
                x.y(z).send(2);
            }
        }
    """)
    transfer, call, send = [s.call for s in model.contracts[0].functions[0].body]
    assert (transfer.callee, transfer.member) == ("payees [ i ]", "transfer")
    assert (call.callee, call.member) == ("getPayee ( i )", "call")
    assert call.carries_value and not call.gas_specified and call.payload_empty
    assert (send.callee, send.member) == ("x . y ( z )", "send")


def test_legacy_call_detail():
    source = fixture_source("reentrancy_buggy.sol")
    model = parse(source, "reentrancy_buggy.sol")
    vault = [c for c in model.contracts if c.name == "Vault"][0]
    withdraw = [f for f in vault.functions if f.name == "withdraw"][0]
    calls = [s.call for s in withdraw.body if s.call]
    assert len(calls) == 1
    call = calls[0]
    assert call.member == "call"
    assert call.carries_value
    assert not call.gas_specified
    assert call.payload_empty


def test_modern_call_detail():
    source = fixture_source("reentrancy_modern_buggy.sol")
    model = parse(source, "reentrancy_modern_buggy.sol")
    fn = [f for c in model.contracts for f in c.functions if f.name == "withdraw"][0]
    calls = [s.call for s in fn.body if s.call]
    assert len(calls) == 1
    call = calls[0]
    assert call.carries_value
    assert not call.gas_specified
    assert call.payload_empty


def test_send_and_gas_variants():
    model = parse("""
        pragma solidity ^0.4.24;
        contract C {
            function f(address a) public {
                a.send(1);
                a.call.gas(2300).value(1)();
                a.call.value(1)(bytes4(0x12345678));
                a.call{value: c ? gas : 0}("");
                a.call{value: (c ? gas : 0)}("");
            }
        }
    """)
    calls = [s.call for s in model.contracts[0].functions[0].body if s.call]
    send, gas_call, payload_call, ternary, nested = calls
    assert send.member == "send"
    assert send.gas_specified  # send forwards a fixed stipend
    assert gas_call.member == "call"
    assert gas_call.gas_specified
    assert not payload_call.payload_empty
    # an option key follows the opening brace or a top-level comma
    for call in (ternary, nested):
        assert call.carries_value
        assert not call.gas_specified


def test_assembly_is_opaque_not_fatal():
    model = parse("""
        pragma solidity ^0.4.24;
        contract C {
            function f() public returns (uint r) {
                assembly { r := add(1, 2) }
                r = 5;
            }
        }
    """)
    fn = model.contracts[0].functions[0]
    assert [s.assign.lhs for s in fn.body if s.assign] == ["r"]
    assert body_partition_holds(fn)


def test_garbage_tolerated():
    model = parse("pragma solidity ^0.4.24;\ncontract C { function f( {{{ ")
    assert isinstance(model.contracts, tuple)
    model2 = parse("@@@ ;;; what {]")
    assert model2.contracts == ()
    # the ``(`` has no ``)``, so it encloses the rest of the body
    model3 = parse("contract C { function f() public { x = (a]; y = 1; } }")
    (fn,) = model3.contracts[0].functions
    assert [s.text for s in fn.body] == ["x = ( a ] ; y = 1 ;"]
    assert body_partition_holds(fn)


@pytest.mark.parametrize("source, texts, params, diagnostics", [
    # the function finds its own ``}``; the contract runs to the end of input
    ("contract C { function f() { }", [""], [], ["unclosed contract body"]),
    ("contract C { function f() { x = 1; }", ["x = 1 ;"], [], ["unclosed contract body"]),
    # the parameter list runs to the contract's ``}``
    ("contract C { function f(uint a }", [], ["a"], ["unclosed parameter list"]),
], ids=["empty-body", "body-with-statement", "parameter-list"])
def test_unclosed_group_runs_to_its_bound(source, texts, params, diagnostics):
    model = parse("pragma solidity ^0.4.24;\n" + source)
    (contract,) = model.contracts
    (fn,) = contract.functions
    assert contract.span == (25, len(source) + 25)
    assert body_partition_holds(fn)
    assert [s.text for s in fn.body] == texts
    assert [p.name for p in fn.params] == params
    assert [d.message for d in model.diagnostics] == diagnostics


@pytest.mark.parametrize("source, spans, diagnostics, findings", [
    # A's body runs to ``contract B``, and f's body with it; B is whole
    ("contract A { uint x; function f() public { contract B { uint y; "
     "function g() public { msg.sender.call.value(1)(); y = 1; } }",
     ["contract A { uint x; function f() public {",
      "contract B { uint y; function g() public { msg.sender.call.value(1)(); y = 1; } }"],
     ["unclosed contract body", "unclosed function body"], [("D-a-R", "B", "g")]),
    # the last contract has no later one, so it runs to the end of input
    ("contract A { } contract B {", ["contract A { }", "contract B {"],
     ["unclosed contract body"], []),
], ids=["unclosed-before-contract", "unclosed-last"])
def test_unclosed_contract_ends_at_the_next_contract(source, spans, diagnostics, findings):
    text = "pragma solidity ^0.4.24; " + source
    model = parse(text)
    assert [c.name for c in model.contracts] == ["A", "B"]
    assert [text[slice(*c.span)] for c in model.contracts] == spans
    assert [d.message for d in model.diagnostics] == diagnostics
    assert [(f.bug_id, f.contract, f.function) for f in detect_all(model)] == findings


# A contract keyword starts a new declaration wherever it stands; each
# source yields the contracts named.
CONTRACT_KEYWORD_BOUNDS = {
    "stray-closer-in-body": ("contract A { ] contract B { } }", ["A", "B"]),
    "pragma-without-semicolon": ("pragma solidity contract B { }", ["B"]),
    "import-without-semicolon": ("import contract B { }", ["B"]),
    "struct-without-body": ("struct S contract B { }", ["B"]),
    "contract-without-body": ("contract A contract B { }", ["B"]),
}


@pytest.mark.parametrize("source, names", CONTRACT_KEYWORD_BOUNDS.values(),
                         ids=CONTRACT_KEYWORD_BOUNDS.keys())
def test_contract_keyword_bounds_every_file_level_scan(source, names):
    assert [c.name for c in parse(source).contracts] == names


def test_unparseable_pragma_span_stops_before_the_next_contract():
    source = "pragma solidity ^0.4.0 x contract B { }"
    model = parse(source)
    assert [c.name for c in model.contracts] == ["B"]
    (diag,) = model.diagnostics
    assert diag.message == "unparseable version pragma: '^ 0.4.0 x'"
    assert source[slice(*diag.span)] == "pragma solidity ^0.4.0 x"


def declared(model):
    """Per contract, its state variable names and, per function, the name,
    whether it is externally callable and the guard conditions; then the
    diagnostics."""
    contracts = {c.name: ([v.name for v in c.state_vars],
                          [(f.name, f.externally_callable, [g.condition for g in f.guards])
                           for f in c.functions])
                 for c in model.contracts}
    return contracts, [d.message for d in model.diagnostics]


# A declaration ends at its first top-level ``;`` or just after its first
# top-level ``{...}`` group, and never reads past its enclosing bound; each
# source yields the contracts and diagnostics given.
DECLARATION_ENDS = {
    "member-stops-at-its-contract": (
        "pragma solidity ^0.4.24; contract A { event E(uint a) } contract B { uint x; }",
        {"A": ([], []), "B": (["x"], [])}, []),
    "payable-group-in-header": (
        "pragma solidity ^0.4.24; contract C { function f() payable(public) internal { } }",
        {"C": ([], [("f", False, [])])}, []),
    "guard-without-group-after-keyword": (
        "pragma solidity ^0.4.24; contract C { function f() public { require x (y); } }",
        {"C": ([], [("f", True, [""])])}, []),
    "using-with-braces-in-contract": (
        "pragma solidity ^0.4.24; contract C { using {f} for T; uint x; function g() {} }",
        {"C": (["x"], [("g", True, [])])}, []),
    "import-with-braces-then-pragma": (
        'import {A} from "x"; pragma solidity ^0.4.24; contract C { uint x; }',
        {"C": (["x"], [])}, []),
    "free-function-before-contract": (
        "pragma solidity ^0.4.24; function f() pure returns (uint) { return 1; } "
        "contract C { uint x; }",
        {"C": (["x"], [])}, []),
    "file-level-group-encloses-pragma": (
        "( pragma solidity ^0.4.24; contract C {}",
        {"C": ([], [])}, ["no solidity version pragma"]),
}


@pytest.mark.parametrize("source, contracts, diagnostics", DECLARATION_ENDS.values(),
                         ids=DECLARATION_ENDS.keys())
def test_one_rule_for_where_a_declaration_ends(source, contracts, diagnostics):
    model = parse(source)
    assert declared(model) == (contracts, diagnostics)
    if diagnostics:  # an unknown version could be any: every rule runs
        assert model.pragma.is_unbounded()


@pytest.mark.parametrize("source", ["pragma solidity ; contract B { }",
                                    "pragma solidity contract B { }"],
                         ids=["semicolon", "contract-keyword"])
def test_empty_version_clause_is_unparseable(source):
    model = parse(source)
    assert declared(model) == ({"B": ([], [])}, ["unparseable version pragma: ''"])
    assert model.pragma.is_unbounded()
    # every rule runs, the 0.4-only A-a-W included
    found = detect_all(parse(source + " contract D { uint a =+ 1; }"))
    assert [f.bug_id for f in found] == ["A-a-W"]


def test_partition_on_all_fixtures(manifest):
    for entry in manifest.entries:
        source = fixture_source(entry.path.split("/")[-1])
        model = parse(source, entry.path)
        for contract in model.contracts:
            for fn in contract.functions:
                if fn.has_body:
                    assert body_partition_holds(fn), (entry.path, fn.name)


def test_parse_is_deterministic():
    source = fixture_source("approve_race_buggy.sol")
    assert parse(source, "x.sol") == parse(source, "x.sol")


def test_statement_text_normalized():
    model = parse("""
        pragma solidity ^0.4.24;
        contract C {
            function f() public {
                uint   a
                    = /* gap */ 1;
            }
        }
    """)
    stmt = model.contracts[0].functions[0].body[0]
    assert stmt.text == "uint a = 1 ;"


def test_fuzzed_sources_never_raise():
    pieces = ["contract", "function", "{", "}", "(", ")", ";", "pragma",
              "solidity", "^0.4.24", "if", "require", "uint", "x", "=",
              "+", "assembly", "mapping", "[", "]", "struct", "return"]
    rng = random.Random(99)
    for _ in range(200):
        source = " ".join(rng.choice(pieces) for _ in range(rng.randrange(0, 60)))
        model = parse(source)
        assert model is not None


def test_superscript_digit_in_body_parses():
    model = parse("pragma solidity ^0.4.24;\n"
                  "contract C { function f() public { uint x = ²; x = 1; } }")
    (fn,) = model.contracts[0].functions
    assert [(s.decl is not None, s.assign) for s in fn.body] == [
        (True, None), (False, ("x", "1", False, False))]
    assert body_partition_holds(fn)

"""Structural model produced by the shallow Solidity parser.

This is deliberately not a full AST.  Contracts, state variables, functions,
and flat statement lists with spans are enough for the lexical detectors;
expressions stay as normalized text.  Every record is an immutable
``NamedTuple`` that compares, hashes and unpacks as a plain tuple (copy one
with ``._replace``); ``repr`` leaves out ``tokens``.  Parsing the same
source twice yields equal models.

``Stmt.text`` is the statement's significant tokens joined with single spaces
(comments and original spacing dropped); exact source is always recoverable
through the byte ``span``.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Tuple

from .lexer import Token
from .versions import PragmaConstraint

Span = Tuple[int, int]


def _repr_without_tokens(record: NamedTuple) -> str:
    """``repr`` of a record minus its ``tokens``, which can hold a whole file."""
    return "%s(%s)" % (type(record).__name__, ", ".join(
        "%s=%r" % (name, value) for name, value in zip(record._fields, record)
        if name != "tokens"))


class TypeClass(Enum):
    SIGNED_INT = "signed-int"
    UNSIGNED_INT = "unsigned-int"
    ADDRESS = "address"
    MAPPING = "mapping"
    ARRAY = "array"
    USER_COMPOSITE = "user-composite"
    OTHER = "other"


class StorageLocation(Enum):
    STORAGE = "storage"
    MEMORY = "memory"
    CALLDATA = "calldata"
    DEFAULT = "default"


class Visibility(Enum):
    PUBLIC = "public"
    EXTERNAL = "external"
    INTERNAL = "internal"
    PRIVATE = "private"
    DEFAULT = "default"


class StmtKind(Enum):
    LOCAL_VAR_DECL = "local-var-decl"
    ASSIGNMENT = "assignment"
    COMPOUND_ASSIGNMENT = "compound-assignment"
    REQUIRE_OR_ASSERT = "require-or-assert"
    IF_GUARD = "if-guard"
    EXTERNAL_CALL = "external-call"
    RETURN = "return"
    OPAQUE = "opaque"


class CallDetail(NamedTuple):
    """A member call that can move ether:  ``<callee>.<member>...(...)``."""

    callee: str
    member: str
    carries_value: bool
    gas_specified: bool
    payload_empty: bool


class AssignDetail(NamedTuple):
    lhs: str
    rhs: str
    lhs_base: str
    lhs_is_state_var: bool


class VarDecl(NamedTuple):
    name: str
    type_text: str
    type_class: TypeClass
    storage_location: StorageLocation
    has_initializer: bool
    span: Span


class Guard(NamedTuple):
    """A require/assert/if condition, recorded in lexical order."""

    kind: str  # "require" | "assert" | "if"
    condition: str
    span: Span


class Stmt(NamedTuple):
    kind: StmtKind
    span: Span
    text: str
    call: Optional[CallDetail] = None
    assign: Optional[AssignDetail] = None
    decl: Optional[VarDecl] = None
    tokens: Tuple[Token, ...] = ()

    __repr__ = _repr_without_tokens


class FunctionDecl(NamedTuple):
    name: str
    params: Tuple[VarDecl, ...]
    visibility: Visibility
    body: Tuple[Stmt, ...]
    span: Span
    body_span: Span
    is_fallback: bool = False
    has_body: bool = True
    guards: Tuple[Guard, ...] = ()


class ContractDecl(NamedTuple):
    name: str
    kind: str  # "contract" | "library" | "interface"
    state_vars: Tuple[VarDecl, ...]
    functions: Tuple[FunctionDecl, ...]
    span: Span


class Diagnostic(NamedTuple):
    message: str
    span: Span


class SourceModel(NamedTuple):
    file_path: str
    pragma: PragmaConstraint
    contracts: Tuple[ContractDecl, ...]
    diagnostics: Tuple[Diagnostic, ...]
    tokens: Tuple[Token, ...] = ()

    __repr__ = _repr_without_tokens

    def contract_at(self, offset: int) -> Optional[ContractDecl]:
        for c in self.contracts:
            if c.span[0] <= offset < c.span[1]:
                return c
        return None

    def function_at(self, offset: int) -> Optional[FunctionDecl]:
        c = self.contract_at(offset)
        if c is None:
            return None
        for f in c.functions:
            if f.span[0] <= offset < f.span[1]:
                return f
        return None

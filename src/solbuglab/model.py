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

from bisect import bisect_right
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple

from .lexer import Token
from .versions import PragmaConstraint

Span = Tuple[int, int]


def _repr_without_tokens(record: NamedTuple) -> str:
    """``repr`` of a record minus its ``tokens``, which can hold a whole file."""
    return "%s(%s)" % (type(record).__name__, ", ".join(
        "%s=%r" % (name, value) for name, value in zip(record._fields, record)
        if name != "tokens"))


class TypeClass(Enum):
    """The type classes a rule reads; a declaration of any other type, a
    mapping included, has ``type_class`` None."""

    SIGNED_INT = "signed-int"
    UNSIGNED_INT = "unsigned-int"
    ADDRESS = "address"
    ARRAY = "array"
    USER_COMPOSITE = "user-composite"


class CallDetail(NamedTuple):
    """A member call that can move ether:  ``<callee>.<member>...(...)``."""

    callee: str
    member: str
    carries_value: bool
    gas_specified: bool
    payload_empty: bool


class AssignDetail(NamedTuple):
    """A write to ``lhs``: ``=`` or ``delete``, or, when ``compound``, an
    operator-assignment (``+=``) or ``++``/``--``."""

    lhs: str
    rhs: str
    lhs_is_state_var: bool
    compound: bool


class VarDecl(NamedTuple):
    name: str
    type_text: str
    type_class: Optional[TypeClass]
    memory_or_calldata: bool  # its first data location word
    has_initializer: bool
    span: Span


class Guard(NamedTuple):
    """A require/assert/if condition, recorded in lexical order."""

    condition: str
    span: Span


class Stmt(NamedTuple):
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
    externally_callable: bool  # its last visibility word is not internal or private
    body: Tuple[Stmt, ...]
    span: Span
    body_span: Span
    is_fallback: bool = False
    has_body: bool = True
    guards: Tuple[Guard, ...] = ()


class ContractDecl(NamedTuple):
    name: str
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
        return _holding(self.contracts, offset)

    def function_at(self, offset: int) -> Optional[FunctionDecl]:
        c = self.contract_at(offset)
        return None if c is None else _holding(c.functions, offset)


def _holding(records: Sequence, offset: int):
    """The record whose span holds ``offset``, or None.  The spans ascend and
    do not overlap, as ``parse`` builds them, so a bisection finds it."""
    k = bisect_right(records, offset, key=lambda r: r.span[0]) - 1
    return records[k] if k >= 0 and offset < records[k].span[1] else None

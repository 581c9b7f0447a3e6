"""Compiler version constraints parsed from ``pragma solidity`` directives.

Versions are three-part tuples (major, minor, patch).  A constraint is a
half-open range [lower, upper) where either bound may be absent (unbounded).
All comparison forms found in pragmas are normalized into that shape:

    ^X.Y.Z        -> [X.Y.Z, X.(Y+1).0)     same minor series
    ~X.Y.Z        -> [X.Y.Z, X.(Y+1).0)
    =X.Y.Z, X.Y.Z -> [X.Y.Z, X.Y.(Z+1))    pinned
    >=X.Y.Z       -> [X.Y.Z, +inf)
    >X.Y.Z        -> [X.Y.(Z+1), +inf)
    <=X.Y.Z       -> [-inf, X.Y.(Z+1))
    <X.Y.Z        -> [-inf, X.Y.Z)

A partial version is npm's ``X.Y.x``: "next" bumps its last written part,
so ``0.4`` -> [0.4.0, 0.5.0), ``>0.4`` -> [0.5.0, +inf), ``^0`` -> [0.0.0, 1.0.0).

Multiple clauses in one directive and multiple directives in one file are
intersected.  An empty intersection is representable and matches nothing.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Tuple

Version = Tuple[int, int, int]

_VERSION_RE = re.compile(r"^(\d+)(?:\.(\d+))?(?:\.(\d+))?$")
_CLAUSE = r"(?:(\^|~|>=|<=|>|<|=)\s*)?(\d+(?:\.\d+){0,2})(?![\d.])"
_CLAUSE_RE = re.compile(_CLAUSE)
_CLAUSES_RE = re.compile(rf"(?:{_CLAUSE}\s*)+")


class VersionSyntaxError(ValueError):
    """A version or constraint string could not be parsed."""


def parse_version(text: str) -> Version:
    m = _VERSION_RE.match(text.strip())
    if not m:
        raise VersionSyntaxError(f"not a version: {text!r}")
    major, minor, patch = (int(g) if g else 0 for g in m.groups())
    return (major, minor, patch)


def format_version(v: Version) -> str:
    return ".".join(str(n) for n in v)


def _bump(v: Version, part: int) -> Version:
    """``v`` with ``part`` (0 major, 1 minor, 2 patch) bumped, later parts 0."""
    return v[:part] + (v[part] + 1,) + (0,) * (2 - part)


class PragmaConstraint(NamedTuple):
    """Half-open compiler version range.

    ``lower`` is inclusive, ``upper`` exclusive; ``None`` means unbounded on
    that side.  ``raw_text`` preserves the source text the range came from.
    """

    raw_text: str = ""
    lower: Optional[Version] = None
    upper: Optional[Version] = None

    def is_empty(self) -> bool:
        return (
            self.lower is not None
            and self.upper is not None
            and self.lower >= self.upper
        )

    def is_unbounded(self) -> bool:
        return self.lower is None and self.upper is None

    def contains(self, version: Version) -> bool:
        if self.is_empty():
            return False
        if self.lower is not None and version < self.lower:
            return False
        if self.upper is not None and version >= self.upper:
            return False
        return True

    def intersect(self, other: "PragmaConstraint") -> "PragmaConstraint":
        lowers = [c.lower for c in (self, other) if c.lower is not None]
        uppers = [c.upper for c in (self, other) if c.upper is not None]
        raw = " ".join(t for t in (self.raw_text, other.raw_text) if t)
        return PragmaConstraint(
            raw_text=raw,
            lower=max(lowers) if lowers else None,
            upper=min(uppers) if uppers else None,
        )

    def overlaps(self, other: "PragmaConstraint") -> bool:
        if self.is_empty() or other.is_empty():
            return False
        merged = self.intersect(other)
        return not merged.is_empty()

    def describe(self) -> str:
        if self.is_empty():
            return "<empty>"
        if self.is_unbounded():
            return "*"
        parts = []
        if self.lower is not None:
            parts.append(">=" + format_version(self.lower))
        if self.upper is not None:
            parts.append("<" + format_version(self.upper))
        return " ".join(parts)


ANY_VERSION = PragmaConstraint()


def constraint_from_clause(op: str, version: Version, raw: str = "",
                           parts: int = 3) -> PragmaConstraint:
    """One clause's range; ``parts`` is how many parts were written (``0.4``: 2)."""
    if op in ("^", "~"):
        return PragmaConstraint(raw, version, _bump(version, min(parts, 2) - 1))
    if op in ("", "="):
        return PragmaConstraint(raw, version, _bump(version, parts - 1))
    if op == ">=":
        return PragmaConstraint(raw, version, None)
    if op == ">":
        return PragmaConstraint(raw, _bump(version, parts - 1), None)
    if op == "<=":
        return PragmaConstraint(raw, None, _bump(version, parts - 1))
    if op == "<":
        return PragmaConstraint(raw, None, version)
    raise VersionSyntaxError(f"unknown constraint operator: {op!r}")


def parse_constraint(text: str) -> PragmaConstraint:
    """Parse a constraint expression such as ``^0.4.24`` or ``>=0.4.22 <0.6.0``.

    Clauses are intersected.  ``*`` (or an empty string) means any version.
    Raises VersionSyntaxError unless the text is clauses and whitespace only.
    """

    stripped = text.strip()
    if stripped in ("", "*"):
        return PragmaConstraint(raw_text=stripped)
    if not _CLAUSES_RE.fullmatch(stripped):
        raise VersionSyntaxError(f"not a list of version clauses: {text!r}")
    result = ANY_VERSION
    for m in _CLAUSE_RE.finditer(stripped):
        op, written = m.group(1) or "", m.group(2)
        result = result.intersect(constraint_from_clause(
            op, parse_version(written), parts=written.count(".") + 1))
    return PragmaConstraint(stripped, result.lower, result.upper)


def version_applies(pragma: PragmaConstraint, affected: PragmaConstraint) -> bool:
    """True when the file's declared range intersects the affected range.

    Conservative on purpose: an unbounded pragma (missing or unparseable)
    intersects every non-empty affected range.
    """

    return pragma.overlaps(affected)

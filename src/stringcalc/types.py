"""Wire types: a base symbol together with a signed adjoint order.

A plain type has order ``z=0``.  The left anti-type raises the order by
one, the right anti-type lowers it by one, so the two operations are
mutually inverse:

>>> n = WireType("n")
>>> n.l
WireType('n', 1)
>>> n.l.r == n == n.r.l
True

In string form the order is spelled as a suffix of ``.L`` / ``.R``
markers:

>>> str(WireType("n", 2)), str(WireType("n", -1))
('n.L.L', 'n.R')
>>> parse_wiretype("n.L.L")
WireType('n', 2)

A wire type is the named pair ``(base, z)``, so it hashes, compares and
orders as that tuple, in C.  So it also equals the plain tuple; the
``Diagram`` constructors tell the two apart by type:

>>> WireType("n") == ("n", 0), len(WireType("n"))
(True, 2)
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import UnknownBase

__all__ = [
    "WireType",
    "TypeList",
    "parse_wiretype",
    "parse_typelist",
    "typelist_str",
    "check_declared",
]


class WireType(NamedTuple):
    base: str
    z: int = 0

    @property
    def l(self) -> "WireType":
        """Left anti-type (order raised by one)."""
        return WireType(self.base, self.z + 1)

    @property
    def r(self) -> "WireType":
        """Right anti-type (order lowered by one)."""
        return WireType(self.base, self.z - 1)

    def __str__(self) -> str:
        if self.z >= 0:
            return self.base + ".L" * self.z
        return self.base + ".R" * (-self.z)

    def __repr__(self) -> str:
        if self.z == 0 and type(self.z) is int:
            return f"WireType({self.base!r})"
        return f"WireType({self.base!r}, {self.z!r})"


#: An ordered list of wire types; the empty tuple is the monoidal unit.
TypeList = tuple[WireType, ...]

_TOKEN = re.compile(r"[()]|[^\s()]+")


def parse_wiretype(token: str) -> WireType:
    """Parse ``base(.L|.R)*`` into a :class:`WireType`."""
    base = token.split(".")[0]
    if not base:
        raise ValueError(f"empty base in type token {token!r}")
    return WireType(base, _adjoint_order(token))


def _adjoint_order(token: str) -> int:
    """The adjoint order that the ``.L``/``.R`` markers of *token* add."""
    z = 0
    for s in token.split(".")[1:]:
        if s == "L":
            z += 1
        elif s == "R":
            z -= 1
        else:
            raise ValueError(f"bad adjoint marker {s!r} in {token!r}")
    return z


def parse_typelist(text: str) -> TypeList:
    """Parse a space-separated list of type tokens.

    Parenthesized groups distribute a trailing suffix over their members
    with order reversal, e.g. ``(n.L s).R`` means ``s.R n``.  Groups nest
    to any depth: the open groups are kept on a stack.
    """
    tokens = _TOKEN.findall(text)
    stack: list[list[WireType]] = [[]]  # one member list per open group
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        i += 1
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError(f"unexpected token {tok!r}")
            inner = stack.pop()
            # a suffix may be glued to the closing parenthesis: ").R.R"
            if i < len(tokens) and tokens[i].startswith("."):
                shift = _adjoint_order(tokens[i])
                i += 1
                if shift:
                    inner = [WireType(t.base, t.z + shift)
                             for t in reversed(inner)]
            stack[-1].extend(inner)
        elif tok.startswith("."):
            raise ValueError(f"dangling suffix {tok!r}")
        else:
            stack[-1].append(parse_wiretype(tok))
    if len(stack) > 1:
        raise ValueError("unbalanced parenthesis in type string")
    return tuple(stack[0])


def typelist_str(types: TypeList) -> str:
    return " ".join(str(t) for t in types)


def check_declared(types: TypeList, table) -> None:
    """Raise :class:`UnknownBase` unless every base appears in *table*."""
    if isinstance(types, WireType):
        raise TypeError(f"check_declared: types must be a list of WireType, "
                        f"got the lone WireType {types}")
    for t in types:
        if t.base not in table:
            raise UnknownBase(f"base {t.base!r} is not declared")


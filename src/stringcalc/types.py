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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownBase

__all__ = [
    "WireType",
    "TypeList",
    "parse_wiretype",
    "parse_typelist",
    "typelist_str",
    "check_declared",
]


@dataclass(frozen=True, order=True)
class WireType:
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
        return f"WireType({self.base!r}, {self.z})" if self.z else f"WireType({self.base!r})"


#: An ordered list of wire types; the empty tuple is the monoidal unit.
TypeList = tuple[WireType, ...]


def parse_wiretype(token: str) -> WireType:
    """Parse ``base(.L|.R)*`` into a :class:`WireType`."""
    parts = token.split(".")
    base, suffix = parts[0], parts[1:]
    if not base:
        raise ValueError(f"empty base in type token {token!r}")
    z = 0
    for s in suffix:
        if s == "L":
            z += 1
        elif s == "R":
            z -= 1
        else:
            raise ValueError(f"bad adjoint marker {s!r} in {token!r}")
    return WireType(base, z)


def parse_typelist(text: str) -> TypeList:
    """Parse a space-separated list of type tokens.

    Parenthesized groups distribute a trailing suffix over their members
    with order reversal, e.g. ``(n.L s).R`` means ``s.R n``.
    """
    return tuple(_parse_group(_tokenize(text)))


def typelist_str(types: TypeList) -> str:
    return " ".join(str(t) for t in types)


def check_declared(types: TypeList, table) -> None:
    """Raise :class:`UnknownBase` unless every base appears in *table*."""
    for t in types:
        if t.base not in table:
            raise UnknownBase(f"base {t.base!r} is not declared")


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            out.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _parse_group(tokens: list[str]) -> list[WireType]:
    """Recursive-descent parse of a token list (consumes all tokens)."""
    result, pos = _parse_seq(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"unexpected token {tokens[pos]!r}")
    return result


def _parse_seq(tokens: list[str], pos: int) -> tuple[list[WireType], int]:
    items: list[WireType] = []
    while pos < len(tokens) and tokens[pos] != ")":
        if tokens[pos] == "(":
            inner, pos = _parse_seq(tokens, pos + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("unbalanced parenthesis in type string")
            pos += 1
            # a suffix may be glued to the closing parenthesis: ").R.R"
            shift = 0
            if pos < len(tokens) and tokens[pos].startswith("."):
                shift = parse_wiretype("x" + tokens[pos]).z
                pos += 1
            if shift:
                inner = [WireType(t.base, t.z + shift) for t in reversed(inner)]
            items.extend(inner)
        else:
            tok = tokens[pos]
            pos += 1
            if tok.startswith("."):
                raise ValueError(f"dangling suffix {tok!r}")
            items.append(parse_wiretype(tok))
    return items, pos

import pytest

from stringcalc.errors import UnknownBase
from stringcalc.types import (WireType, check_declared, parse_typelist,
                              parse_wiretype, typelist_str)


def test_adjoints_are_mutually_inverse():
    n = WireType("n")
    assert n.l == WireType("n", 1)
    assert n.r == WireType("n", -1)
    assert n.l.r == n == n.r.l
    assert n.l.l.z == 2


def test_string_round_trip():
    for t in (WireType("n"), WireType("n", 1), WireType("n", -2),
              WireType("s", 3)):
        assert parse_wiretype(str(t)) == t


def test_parse_wiretype_rejects_garbage():
    with pytest.raises(ValueError):
        parse_wiretype("n.X")
    with pytest.raises(ValueError):
        parse_wiretype(".L")


def test_parse_typelist_plain():
    assert parse_typelist("n.L s n.R") == (
        WireType("n", 1), WireType("s"), WireType("n", -1))


def test_parse_typelist_group_distributes_with_reversal():
    assert parse_typelist("(n.L s).R") == parse_typelist("s.R n")
    assert parse_typelist("(n s).L.L") == (WireType("s", 2), WireType("n", 2))
    # a group without a suffix is just grouping
    assert parse_typelist("(n s)") == parse_typelist("n s")


def test_parse_typelist_nested_groups():
    assert parse_typelist("((n).L).R") == (WireType("n"),)


def test_parse_typelist_errors():
    with pytest.raises(ValueError):
        parse_typelist("(n s")
    with pytest.raises(ValueError):
        parse_typelist("n ) s")
    with pytest.raises(ValueError):
        parse_typelist(".L n")


def test_typelist_str_round_trip():
    ts = parse_typelist("n.L s s.R n")
    assert parse_typelist(typelist_str(ts)) == ts


def test_check_declared():
    check_declared((WireType("n"),), {"n": 2})
    with pytest.raises(UnknownBase):
        check_declared((WireType("x"),), {"n": 2})

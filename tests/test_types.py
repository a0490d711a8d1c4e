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
    with pytest.raises(ValueError, match="unbalanced parenthesis"):
        parse_typelist("(n s")
    with pytest.raises(ValueError, match="unexpected token"):
        parse_typelist("n ) s")
    with pytest.raises(ValueError, match="dangling suffix"):
        parse_typelist(".L n")


@pytest.mark.parametrize("text, message", [
    ("(n).X", "bad adjoint marker 'X' in '.X'"),
    ("(n)..L", "bad adjoint marker '' in '..L'"),
], ids=["unknown-marker", "empty-marker"])
def test_bad_group_suffix_quotes_what_was_written(text, message):
    with pytest.raises(ValueError) as err:
        parse_typelist(text)
    assert str(err.value) == message


def test_parse_typelist_nests_past_the_recursion_limit():
    deep = "(" * 5000 + "n" + ")" * 5000
    assert parse_typelist(deep + ".L") == (WireType("n", 1),)
    assert parse_typelist(f"s {deep} ({deep} s).R") == parse_typelist(
        "s n s.R n.R")
    with pytest.raises(ValueError, match="unbalanced parenthesis"):
        parse_typelist("(" + deep)


def test_typelist_str_round_trip():
    ts = parse_typelist("n.L s s.R n")
    assert parse_typelist(typelist_str(ts)) == ts


def test_check_declared():
    check_declared((WireType("n"),), {"n": 2})
    with pytest.raises(UnknownBase):
        check_declared((WireType("x"),), {"n": 2})


def test_check_declared_names_a_lone_wire_type():
    # a lone WireType iterates as its base and order, which have no .base
    with pytest.raises(TypeError, match="check_declared: types must be a "
                       "list of WireType, got the lone WireType n"):
        check_declared(WireType("n"), {"n": 2})


def test_a_wire_type_is_its_tuple():
    n = WireType("n", 1)
    assert n == ("n", 1) and hash(n) == hash(("n", 1)) and len(n) == 2
    assert n.r == ("n", 0) and sorted([n, WireType("m"), n.r]) == [
        ("m", 0), ("n", 0), ("n", 1)]
    assert (str(n), repr(n), repr(n.r)) == ("n.L", "WireType('n', 1)",
                                             "WireType('n')")


@pytest.mark.parametrize("z, text", [
    (0, "WireType('a')"), (1, "WireType('a', 1)"), (-2, "WireType('a', -2)"),
    (False, "WireType('a', False)"), (None, "WireType('a', None)"),
    (0.0, "WireType('a', 0.0)"), ("0", "WireType('a', '0')"),
], ids=["zero", "one", "minus-two", "false", "none", "float-zero", "str"])
def test_repr_prints_every_order_but_the_integer_zero(z, text):
    assert repr(WireType("a", z)) == text

from fractions import Fraction

import pytest

from stringcalc.errors import StateExplosion
from stringcalc.resources import (ResourcePresentation, conversion_rate,
                                  convertible, presentation_from_json)

PLUMBER = presentation_from_json(
    {"atoms": ["A"], "rules": [{"from": ["A", "A"], "to": ["A"]}]})
CATALYST = presentation_from_json(
    {"atoms": ["A", "B", "C"], "rules": [{"from": ["A", "C"], "to": ["B", "C"]}]})
DOUBLER = presentation_from_json(
    {"atoms": ["A", "B"], "rules": [{"from": ["A"], "to": ["B", "B"]}]})


def test_plumber_merges_two_into_one():
    w = convertible(("A", "A"), ("A",), PLUMBER)
    assert w is not None
    assert len(w.steps) == 1
    assert w.replay(PLUMBER)


def test_plumber_cannot_split():
    assert convertible(("A",), ("A", "A"), PLUMBER) is None


def test_reflexivity_without_rules():
    empty = ResourcePresentation(atoms=frozenset({"A"}), rules=())
    w = convertible(("A",), ("A",), empty)
    assert w is not None and w.steps == ()
    assert w.replay(empty)


def test_catalyst_needs_its_catalyst():
    assert convertible(("A", "C"), ("B", "C"), CATALYST) is not None
    assert convertible(("A",), ("B",), CATALYST) is None


def test_bfs_finds_shortest_witness():
    w = convertible(("A",) * 4, ("A",), PLUMBER)
    assert w is not None and len(w.steps) == 3
    assert w.replay(PLUMBER)


def test_transitivity_by_replaying_composed_witnesses():
    w1 = convertible(("A", "A", "A"), ("A", "A"), PLUMBER)
    w2 = convertible(("A", "A"), ("A",), PLUMBER)
    composed = convertible(("A", "A", "A"), ("A",), PLUMBER)
    assert composed is not None
    assert len(composed.steps) <= len(w1.steps) + len(w2.steps)


def test_monotonicity_conversion_survives_added_context():
    # A + C -> B + C also holds with a spectator B in the room
    assert convertible(("A", "B", "C"), ("B", "B", "C"), CATALYST) is not None


def test_witness_replay_rejects_tampering():
    w = convertible(("A", "A"), ("A",), PLUMBER)
    import dataclasses
    bad = dataclasses.replace(w, steps=((0, ("A",)),))
    assert not bad.replay(PLUMBER)
    bad2 = dataclasses.replace(w, target=("A", "A"))
    assert not bad2.replay(PLUMBER)


def test_undeclared_atom_rejected():
    with pytest.raises(ValueError):
        convertible(("Z",), ("A",), PLUMBER)
    with pytest.raises(ValueError):
        ResourcePresentation(atoms=frozenset({"A"}),
                             rules=((("A",), ("Z",)),))


def test_max_steps_bounds_search_depth():
    assert convertible(("A",) * 5, ("A",), PLUMBER, max_steps=2) is None
    assert convertible(("A",) * 5, ("A",), PLUMBER, max_steps=4) is not None


def test_state_explosion_raises():
    with pytest.raises(StateExplosion):
        convertible(("A",), ("B",), DOUBLER, max_visited=1)


def test_doubler_rate():
    r = conversion_rate("A", "B", DOUBLER, n_max=3)
    assert r.rate == Fraction(2, 1)
    assert (r.n, r.m) == (1, 2)
    assert str(r) == "2/1 at n=1,m=2"


def test_rate_is_reflexively_at_least_one():
    r = conversion_rate("A", "A", PLUMBER, n_max=3)
    assert r.rate == Fraction(1, 1)


def test_rate_zero_when_unreachable():
    r = conversion_rate("A", "B", CATALYST, n_max=3)
    assert r.rate == 0 and r.m == 0


def test_rate_improves_with_larger_n():
    # 3A -> 2B needs n = 3; smaller n only reaches floor(2n/3) B
    tricky = presentation_from_json(
        {"atoms": ["A", "B"],
         "rules": [{"from": ["A", "A", "A"], "to": ["B", "B"]}]})
    assert conversion_rate("A", "B", tricky, n_max=2).rate == 0
    r = conversion_rate("A", "B", tricky, n_max=3)
    assert r.rate == Fraction(2, 3) and (r.n, r.m) == (3, 2)


def test_rate_honours_max_steps():
    # A -> C -> B B: the pure-B state lies two steps out
    chain = presentation_from_json(
        {"atoms": ["A", "B", "C"],
         "rules": [{"from": ["A"], "to": ["C"]},
                   {"from": ["C"], "to": ["B", "B"]}]})
    assert conversion_rate("A", "B", chain, n_max=1, max_steps=1).rate == 0
    r = conversion_rate("A", "B", chain, n_max=1, max_steps=2)
    assert r.rate == 2 and r.max_steps == 2


def test_rate_honours_max_visited():
    # three copies of A reach AAA, AABB, ABBBB and BBBBBB: four states
    assert conversion_rate("A", "B", DOUBLER, n_max=3, max_visited=4).rate == 2
    with pytest.raises(StateExplosion, match="visited more than 3 states"):
        conversion_rate("A", "B", DOUBLER, n_max=3, max_visited=3)


def test_rate_requires_positive_nmax():
    with pytest.raises(ValueError):
        conversion_rate("A", "B", DOUBLER, n_max=0)

import random
from collections import Counter, deque
from fractions import Fraction
from itertools import islice

import pytest

from stringcalc import resources
from stringcalc.errors import StateExplosion
from stringcalc.resources import (ConversionWitness, RateResult,
                                  ResourcePresentation, as_multiset,
                                  conversion_rate, convertible,
                                  presentation_from_json)

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


def test_negative_max_steps_rejected():
    with pytest.raises(ValueError, match="max_steps must be at least 0"):
        convertible(("A",), ("B", "B"), DOUBLER, max_steps=-1)
    with pytest.raises(ValueError, match="max_steps must be at least 0"):
        conversion_rate("A", "B", DOUBLER, max_steps=-1)
    # zero steps is a valid bound: only the source itself is reachable
    assert convertible(("A",), ("A",), DOUBLER, max_steps=0).steps == ()
    assert conversion_rate("A", "B", DOUBLER, max_steps=0).m == 0


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


def test_rate_honours_the_count_budget(monkeypatch):
    # the same four states hold two counts each: 8 fit, 7 do not
    monkeypatch.setattr(resources, "MAX_COUNTS", 8)
    assert conversion_rate("A", "B", DOUBLER, n_max=3).rate == 2
    monkeypatch.setattr(resources, "MAX_COUNTS", 7)
    with pytest.raises(StateExplosion, match="^visited more than 3 states of "
                       "2 atoms, past the budget of 7 counts$"):
        conversion_rate("A", "B", DOUBLER, n_max=3)


def test_rate_requires_positive_nmax():
    with pytest.raises(ValueError):
        conversion_rate("A", "B", DOUBLER, n_max=0)


# The sorted-tuple, Counter-based search that the count-vector search
# replaced, kept here as the reference that it must agree with exactly.

def _reference_explore(src, presentation, max_steps, max_visited):
    rules = [(Counter(lhs), Counter(rhs)) for lhs, rhs in presentation.rules]
    depth = {src: 0}
    queue = deque([src])
    yield src, None
    while queue:
        state = queue.popleft()
        if depth[state] >= max_steps:
            continue
        counts = Counter(state)
        for rule_index, (need, gain) in enumerate(rules):
            if any(counts[a] < k for a, k in need.items()):
                continue
            nxt = as_multiset(((counts - need) + gain).elements())
            if nxt in depth:
                continue
            depth[nxt] = depth[state] + 1
            yield nxt, (state, rule_index)
            if len(depth) > max_visited:
                raise StateExplosion(
                    f"visited more than {max_visited} states")
            queue.append(nxt)


def _reference_convertible(src, dst, presentation, max_steps, max_visited):
    src, dst = as_multiset(src), as_multiset(dst)
    presentation.require_declared(src + dst)
    parent = {}
    for state, how in _reference_explore(src, presentation, max_steps,
                                         max_visited):
        parent[state] = how
        if state == dst:
            steps = []
            while how is not None:
                prev, rule_index = how
                lhs = presentation.rules[rule_index][0]
                context = Counter(prev) - Counter(lhs)
                steps.append((rule_index, as_multiset(context.elements())))
                how = parent[prev]
            return ConversionWitness(src, dst, tuple(reversed(steps)))
    return None


def _reference_rate(a, b, presentation, n_max, max_steps, max_visited):
    presentation.require_declared((a, b))
    best = RateResult(Fraction(0), 1, 0, n_max, max_steps)
    for n in range(1, n_max + 1):
        for state, _ in _reference_explore(as_multiset([a] * n), presentation,
                                           max_steps, max_visited):
            m = len(state)
            if m and all(x == b for x in state) and Fraction(m, n) > best.rate:
                best = RateResult(Fraction(m, n), n, m, n_max, max_steps)
    return best


def _outcome(call, *args):
    """The result of ``call(*args)``, or the type and message it raised."""
    try:
        return call(*args)
    except StateExplosion as exc:
        return type(exc), str(exc)


def test_count_vector_search_matches_the_sorted_tuple_search():
    rng = random.Random(20240601)
    for _ in range(400):
        atoms = "ABCDE"[:rng.randint(1, 5)]
        pres = ResourcePresentation(
            atoms=frozenset(atoms),
            rules=tuple((as_multiset(rng.choices(atoms, k=rng.randint(0, 2))),
                         as_multiset(rng.choices(atoms, k=rng.randint(0, 3))))
                        for _ in range(rng.randint(0, 5))))
        bounds = (rng.randint(0, 10), rng.choice((5, 50, 500, 10 ** 6)))
        src = as_multiset(rng.choices(atoms, k=rng.randint(0, 4)))
        # half the targets are states the search reaches within ten steps
        near = [state for state, _ in islice(
            _reference_explore(src, pres, 10, 10 ** 6), 50)]
        dst = rng.choice((rng.choices(atoms, k=rng.randint(0, 6)),
                          rng.choice(near)))
        assert _outcome(convertible, src, dst, pres, *bounds) == \
            _outcome(_reference_convertible, src, dst, pres, *bounds)
        a, b = rng.sample(atoms, 2) if len(atoms) > 1 else (atoms, atoms)
        n_max = rng.randint(1, 4)
        assert _outcome(conversion_rate, a, b, pres, n_max, *bounds) == \
            _outcome(_reference_rate, a, b, pres, n_max, *bounds)

import dataclasses

import numpy as np
import pytest

from conftest import brute_force_evaluate, random_diagram

from stringcalc import diagram as dg
from stringcalc.diagram import (CAP, CUP, IDENTITY, IN, OUT, SWAP, Diagram,
                                Generator, identity, identity_node)
from stringcalc.errors import InvalidDiagram, ShapeMismatch
from stringcalc.rewrite import equal, normalize
from stringcalc.tensors import Model, Payload, Tensor, evaluate, random_payloads
from stringcalc.types import WireType

A = WireType("a")
B = WireType("b")


def snake_left(base="a"):
    t = WireType(base)
    return (identity((t,)) @ dg.cup(base, 0)) >> (dg.cap(base, 0) @ identity((t,)))


def snake_right(base="a"):
    t = WireType(base)
    return (dg.cup(base, -1) @ identity((t,))) >> (identity((t,)) @ dg.cap(base, -1))


def test_snake_left_normalizes_to_identity():
    nf = normalize(snake_left())
    assert nf.diagram == identity((A,))
    assert [step[0] for step in nf.rewrite_trace] == ["snake"]


def test_snake_right_normalizes_to_identity():
    nf = normalize(snake_right())
    assert nf.diagram == identity((A,))
    assert [step[0] for step in nf.rewrite_trace] == ["snake"]


def test_double_snake_normalizes_to_identity():
    d = snake_left() >> snake_right()
    nf = normalize(d)
    assert nf.diagram == identity((A,))
    assert len(nf.rewrite_trace) == 2


def test_identity_node_is_eliminated():
    f, g = dg.make_generator("f", (), (A,)), dg.make_generator("g", (A,), ())
    nf = normalize(f >> identity_node(A) >> g)
    assert nf.diagram == f >> g
    assert ("identity", (1,)) in nf.rewrite_trace


def test_swap_involution_cancels():
    b = WireType("b")
    d = dg.swap(A, b) >> dg.swap(b, A)
    nf = normalize(d)
    assert nf.diagram == identity((A, b))
    assert [s[0] for s in nf.rewrite_trace] == ["swap-involution"]


def test_non_matching_swaps_survive():
    # swap . swap on three wires shifted by one is not an involution redex
    b = WireType("b")
    c = WireType("c")
    d = (dg.swap(A, b) @ identity((c,))) >> (identity((b,)) @ dg.swap(A, c))
    assert len(normalize(d).diagram.nodes) == 2


def test_circle_is_not_a_snake():
    # cup >> cap on the same two wires is a closed scalar loop, not a snake
    circle = dg.cup("a", 0) >> dg.swap(A.l, A) >> dg.cap("a", 0)
    nf = normalize(circle)
    assert len(nf.diagram.nodes) == 3  # untouched: no rule applies
    model = Model(dims={"a": 3})
    assert abs(evaluate(nf.diagram, model).to_array() - 3.0) < 1e-12


def test_normalize_is_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = random_diagram(rng, max_nodes=10)
        nf = normalize(d)
        again = normalize(nf.diagram)
        assert again.diagram == nf.diagram
        assert again.rewrite_trace == ()
        # a normal form already has the wire layout that the checking
        # constructor and the canonical form give, outputs last
        n = nf.diagram
        for rebuilt in (Diagram(n.dom, n.cod, n.nodes, n.wires),
                        n.canonical()):
            assert (rebuilt.dom, rebuilt.cod, rebuilt.nodes, rebuilt.wires) \
                == (n.dom, n.cod, n.nodes, n.wires)


def test_normalize_rejects_invalid_diagram():
    # the diagram cannot be built, so normalize never sees it
    with pytest.raises(InvalidDiagram, match="OpenPortUnused"):
        normalize(Diagram((A,), (A,), (), ()))


def test_normalize_preserves_semantics_random():
    rng = np.random.default_rng(5)
    model0 = Model(dims={"a": 2, "b": 2})
    checked = 0
    while checked < 30:
        d = random_diagram(rng, max_nodes=8, max_width=4)
        if len(d.wires) > 14:
            continue
        nf = normalize(d)
        model = random_payloads(model0, (d,), seed=checked)
        t1 = evaluate(d, model)
        t2 = evaluate(nf.diagram, model)
        assert t1.allclose(t2, tolerance=1e-9)
        # and against the independent index-loop oracle
        oracle = brute_force_evaluate(d, model)
        assert np.allclose(t1.to_array(), oracle, atol=1e-9)
        checked += 1


def test_equal_syntactic_snake_vs_identity():
    assert equal(snake_left(), identity((A,)))
    assert equal(snake_right(), identity((A,)))
    assert not equal(snake_left(), identity_node(A) >> identity_node(A) >>
                     dg.make_generator("f", (A,), (A,)))


def test_equal_requires_same_boundary():
    with pytest.raises(ShapeMismatch):
        equal(identity((A,)), identity((A, A)))


def test_equal_semantic_agrees_with_syntactic_on_snakes():
    assert equal(snake_left(), identity((A,)), mode="semantic", seed=3)


def test_equal_semantic_distinguishes_cup_from_product():
    cup = dg.cup("a", 0)
    product = dg.make_generator("w1", (), (A.l,)) \
        @ dg.make_generator("w2", (), (A,))
    assert not equal(cup, product, mode="semantic", seed=0)
    model = Model(dims={"a": 2}, payloads={
        "box:" + repr(product.nodes[0].signature()):
            Payload(Tensor(np.array([1.0, 0.0]))),
        "box:" + repr(product.nodes[1].signature()):
            Payload(Tensor(np.array([1.0, 0.0]))),
    })
    assert not equal(cup, product, mode="semantic", model=model)


def test_equal_unknown_mode():
    with pytest.raises(ValueError):
        equal(identity((A,)), identity((A,)), mode="telepathy")


def _mixed_redexes():
    """An identity node inside a snake and one between stacked swaps, so
    that lower ids become redexes only after higher ones are rewritten."""
    nodes = (
        Generator(SWAP, (A, B), (B, A)),       # 0: cancels 3 once 5 is gone
        Generator(CUP, (), (A.l, A)),          # 1: snake with 2 once 4 is gone
        Generator(CAP, (A, A.l), ()),          # 2
        Generator(SWAP, (B, A), (A, B)),       # 3
        Generator(IDENTITY, (A.l,), (A.l,)),   # 4
        Generator(IDENTITY, (B,), (B,)),       # 5
        Generator(CUP, (), (A, A.r)),          # 6: snake of the other chirality
        Generator(CAP, (A.r, A), ()),          # 7
    )
    wires = ((IN, 0, 0, 0), (IN, 1, 0, 1), (0, 0, 5, 0), (5, 0, 3, 0),
             (0, 1, 3, 1), (3, 0, 2, 0), (1, 0, 4, 0), (4, 0, 2, 1),
             (1, 1, OUT, 0), (3, 1, OUT, 1),
             (IN, 2, 7, 1), (6, 1, 7, 0), (6, 0, OUT, 2))
    return Diagram((A, B, A), (A, B, A), nodes, tuple(sorted(wires)))


def test_normalize_takes_the_lowest_redex_first():
    d = _mixed_redexes()
    assert dataclasses.replace(d) == d  # rebuilt through the check
    nf = normalize(d)
    assert nf.rewrite_trace == (
        ("identity", (4,)), ("snake", (1, 2)), ("identity", (5,)),
        ("swap-involution", (0, 3)), ("snake", (6, 7)))
    assert nf.diagram == identity((A, B, A))


@pytest.mark.parametrize("width", range(2, 13))
def test_reversal_cancels_one_swap_pair_per_inversion(width):
    types = tuple(WireType("ab"[k % 2], k % 3 - 1) for k in range(width))
    perm = list(reversed(range(width)))
    p = dg.permutation(types, perm)
    nf = normalize(p >> dg.permutation(p.cod, perm))
    assert nf.diagram == identity(types)
    assert [rule for rule, _ in nf.rewrite_trace] == \
        ["swap-involution"] * (width * (width - 1) // 2)

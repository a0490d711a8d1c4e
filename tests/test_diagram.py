import dataclasses
import json

import numpy as np
import pytest

from conftest import random_diagram, random_morphism, random_types

from stringcalc import diagram as dg
from stringcalc.diagram import (IN, OUT, Diagram, Generator, diagram_from_json,
                                diagram_to_json, identity, validate)
from stringcalc.errors import InvalidDiagram, TypeMismatch, UnknownBase, ZeroArity
from stringcalc.rewrite import normalize
from stringcalc.tensors import Model, evaluate, random_payloads
from stringcalc.types import WireType, parse_typelist

A = WireType("a")
B = WireType("b")


def test_identity_composition_is_neutral():
    f = dg.box("f", (A,), (B, A))
    assert identity((A,)) >> f == f
    assert f >> identity((B, A)) == f


def test_sequential_associativity_structural():
    f = dg.box("f", (A,), (B,))
    g = dg.box("g", (B,), (A, A))
    h = dg.box("h", (A, A), ())
    assert (f >> g) >> h == f >> (g >> h)


def test_parallel_associativity_and_unit():
    f = dg.box("f", (A,), (B,))
    g = dg.box("g", (), (A,))
    h = dg.box("h", (B,), ())
    assert (f @ g) @ h == f @ (g @ h)
    assert f @ identity(()) == f == identity(()) @ f


def test_interchange_law():
    f = dg.box("f", (A,), (B,))
    f2 = dg.box("f2", (B,), (A,))
    g = dg.box("g", (B,), (A,))
    g2 = dg.box("g2", (A,), (B,))
    assert (f @ g) >> (f2 @ g2) == (f >> f2) @ (g >> g2)


def test_composition_type_errors():
    f = dg.box("f", (A,), (B,))
    g = dg.box("g", (A,), (A,))
    with pytest.raises(TypeMismatch):
        f >> g
    with pytest.raises(TypeMismatch):
        f >> dg.box("h", (B, B), (A,))


def test_cup_cap_boundaries():
    c = dg.cup("a", 0)
    assert c.dom == () and c.cod == (A.l, A)
    k = dg.cap("a", 0)
    assert k.dom == (A, A.l) and k.cod == ()
    snake = (identity((A,)) @ c) >> (k @ identity((A,)))
    assert snake.dom == snake.cod == (A,)
    assert validate(snake) == []


def test_spider_needs_a_leg():
    with pytest.raises(ZeroArity):
        dg.spider("a", 0, 0)


def test_permutation_matches_numpy_transpose():
    rng = np.random.default_rng(7)
    model = Model(dims={"a": 2, "b": 3})
    for _ in range(10):
        types = random_types(rng, int(rng.integers(2, 5)), zlo=0, zhi=0)
        perm = list(rng.permutation(len(types)))
        d = dg.permutation(types, perm)
        assert validate(d) == []
        arr = evaluate(d, model).to_array()
        dims = [model.dims[t.base] for t in types]
        expected = np.zeros(dims + [dims[perm.index(k)]
                                    for k in range(len(types))])
        for idx in np.ndindex(*dims):
            out = [0] * len(types)
            for i, v in enumerate(idx):
                out[perm[i]] = v
            expected[idx + tuple(out)] = 1.0
        assert np.allclose(arr, expected)


def test_permutation_has_one_swap_per_inversion():
    rng = np.random.default_rng(3)
    for width in range(9):
        perm = [int(p) for p in rng.permutation(width)]
        inversions = sum(perm[i] > perm[j]
                         for i in range(width) for j in range(i + 1, width))
        d = dg.permutation(((A, B) * width)[:width], perm)
        assert [g.kind for g in d.nodes] == [dg.SWAP] * inversions
        assert validate(d) == []


def test_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        dg.permutation((A, A), [0, 0])


def test_structural_equality_ignores_node_numbering():
    f = dg.box("f", (), (A,))
    g = dg.box("g", (), (B,))
    assert (f @ g).canonical() == (f @ g)
    # same port-graph built in a different order
    left = (f @ g) >> (identity((A,)) @ dg.box("h", (B,), ()))
    right = f @ (g >> dg.box("h", (B,), ()))
    assert left == right
    assert hash(left) == hash(right)


def test_disconnected_scalar_components_canonicalize():
    s1 = dg.box("u", (), (A,)) >> dg.box("v", (A,), ())
    s2 = dg.box("v", (A,), ())
    s2 = dg.box("u", (), (A,)) >> s2
    assert s1 @ s1 == s1 @ s1
    assert (s1 @ s2).canonical_key == (s2 @ s1).canonical_key


def test_validate_detects_port_reuse_and_dangling():
    gen = Generator("box", (A,), (A,), name="f")
    # output port 0 feeds two wires
    d = Diagram((A,), (A, A), (gen,),
                ((IN, 0, 0, 0), (0, 0, OUT, 0), (0, 0, OUT, 1)))
    kinds = {v.kind for v in validate(d)}
    assert "PortReuse" in kinds
    # missing wire to the box input
    d2 = Diagram((), (A,), (gen,), ((0, 0, OUT, 0),))
    kinds2 = {v.kind for v in validate(d2)}
    assert "PortUnused" in kinds2


def test_validate_detects_type_mismatch_and_cycle():
    gen = Generator("box", (A,), (B,), name="f")
    d = Diagram((B,), (B,), (gen,), ((IN, 0, 0, 0), (0, 0, OUT, 0)))
    assert any(v.kind == "TypeMismatch" for v in validate(d))
    loop = Generator("box", (A,), (A,), name="l")
    d2 = Diagram((), (), (loop,), ((0, 0, 0, 0),))
    assert any(v.kind == "Cycle" for v in validate(d2))


def test_validate_detects_bad_endpoints():
    d = Diagram((A,), (A,), (), ((IN, 0, OUT, 5),))
    assert any(v.kind == "BadEndpoint" for v in validate(d))


def test_json_round_trip_preserves_equality():
    rng = np.random.default_rng(3)
    for k in range(20):
        dom = random_types(rng, int(rng.integers(0, 3)))
        cod = random_types(rng, int(rng.integers(0, 3)))
        d = random_morphism(rng, dom, cod, f"m{k}")
        text = json.dumps(diagram_to_json(d))
        back = diagram_from_json(json.loads(text))
        assert back == d
        assert back.dom == d.dom and back.cod == d.cod


def test_json_round_trip_spider_and_cup():
    d = (dg.spider("a", 1, 2) @ dg.cup("b", -1)) >> \
        (identity((A,)) @ dg.swap(A, WireType("b")) @ identity((WireType("b", -1),)))
    assert diagram_from_json(diagram_to_json(d)) == d


def test_wire_order_is_not_observable():
    """The wires of a diagram are a set: shuffling them changes no
    evaluation, no rewrite and no JSON."""
    rng = np.random.default_rng(17)
    shuffled = 0
    for k in range(300):
        d = random_diagram(rng, max_width=4)
        e = dataclasses.replace(d, wires=tuple(
            d.wires[i] for i in rng.permutation(len(d.wires))))
        shuffled += e.wires != d.wires
        model = random_payloads(Model(dims={"a": 2, "b": 2}), (d,), seed=k)
        for doubling in ("thin", "thick"):
            m = dataclasses.replace(model, doubling=doubling)
            assert np.array_equal(evaluate(d, m).to_array(),
                                  evaluate(e, m).to_array())
        nd, ne = normalize(d), normalize(e)
        assert nd.rewrite_trace == ne.rewrite_trace
        assert (nd.diagram.nodes, nd.diagram.wires) == \
            (ne.diagram.nodes, ne.diagram.wires)
        assert diagram_to_json(d) == diagram_to_json(e)
    assert shuffled > 200


def test_from_json_rejects_invalid():
    data = diagram_to_json(dg.box("f", (A,), (A,)))
    data["edges"] = data["edges"][:1]  # drop a wire
    with pytest.raises(InvalidDiagram):
        diagram_from_json(data)


def test_from_json_rejects_undeclared_base():
    data = diagram_to_json(dg.box("f", (A,), (A,)))
    data["types"] = {"zzz": True}
    with pytest.raises(UnknownBase):
        diagram_from_json(data)


@pytest.mark.parametrize("change, field", [
    (lambda data: data["edges"].append([0, 0, -2]), "'edges'"),
    (lambda data: data["edges"].append([0, 0, -2, True]), "'edges'"),
    (lambda data: data["nodes"][1].update(id=0), "'id'"),
    (lambda data: data["nodes"][1].update(id=2), "'id'"),
    (lambda data: data.update(doubled=1), "'doubled'"),
], ids=["edge-of-three", "edge-with-bool", "id-repeated", "id-skipped",
        "doubled-int"])
def test_from_json_names_the_malformed_field(change, field):
    data = diagram_to_json(dg.box("f", (A,), (B,)) >> dg.box("g", (B,), (A,)))
    change(data)
    with pytest.raises(ValueError, match=field):
        diagram_from_json(data)


def test_parse_typelist_feeds_generators():
    d = dg.box("not", (), parse_typelist("n.L s s.R n"))
    assert [str(t) for t in d.cod] == ["n.L", "s", "s.R", "n"]

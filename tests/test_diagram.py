import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import random_diagram, random_morphism, random_types

from stringcalc import diagram as dg
from stringcalc.cli import main
from stringcalc.diagram import (IN, OUT, Diagram, Generator, diagram_from_json,
                                diagram_to_json, identity)
from stringcalc.errors import InvalidDiagram, TypeMismatch, UnknownBase, ZeroArity
from stringcalc.rewrite import equal, normalize
from stringcalc.tensors import Model, double, evaluate, random_payloads
from stringcalc.types import WireType, parse_typelist

A = WireType("a")
B = WireType("b")


def _kind(kind):
    """A pattern for one violation of *kind* in an ``InvalidDiagram`` message."""
    return rf"(^|; ){kind}: "


def test_identity_composition_is_neutral():
    f = dg.make_generator("f", (A,), (B, A))
    assert identity((A,)) >> f == f
    assert f >> identity((B, A)) == f


def test_sequential_associativity_structural():
    f = dg.make_generator("f", (A,), (B,))
    g = dg.make_generator("g", (B,), (A, A))
    h = dg.make_generator("h", (A, A), ())
    assert (f >> g) >> h == f >> (g >> h)


def test_parallel_associativity_and_unit():
    f = dg.make_generator("f", (A,), (B,))
    g = dg.make_generator("g", (), (A,))
    h = dg.make_generator("h", (B,), ())
    assert (f @ g) @ h == f @ (g @ h)
    assert f @ identity(()) == f == identity(()) @ f


def test_interchange_law():
    f = dg.make_generator("f", (A,), (B,))
    f2 = dg.make_generator("f2", (B,), (A,))
    g = dg.make_generator("g", (B,), (A,))
    g2 = dg.make_generator("g2", (A,), (B,))
    assert (f @ g) >> (f2 @ g2) == (f >> f2) @ (g >> g2)


def test_composition_type_errors():
    f = dg.make_generator("f", (A,), (B,))
    g = dg.make_generator("g", (A,), (A,))
    with pytest.raises(TypeMismatch):
        f >> g
    with pytest.raises(TypeMismatch):
        f >> dg.make_generator("h", (B, B), (A,))


def test_cup_cap_boundaries():
    c = dg.cup("a", 0)
    assert c.dom == () and c.cod == (A.l, A)
    k = dg.cap("a", 0)
    assert k.dom == (A, A.l) and k.cod == ()
    snake = (identity((A,)) @ c) >> (k @ identity((A,)))
    assert snake.dom == snake.cod == (A,)
    assert dataclasses.replace(snake) == snake  # rebuilt through the check


def test_spider_needs_a_leg():
    with pytest.raises(ZeroArity):
        dg.spider("a", 0, 0)
    for legs in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError, match="spider"):
            dg.spider("a", *legs)


def test_permutation_matches_numpy_transpose():
    rng = np.random.default_rng(7)
    model = Model(dims={"a": 2, "b": 3})
    for _ in range(10):
        types = random_types(rng, int(rng.integers(2, 5)), zlo=0, zhi=0)
        perm = list(rng.permutation(len(types)))
        d = dg.permutation(types, perm)
        assert dataclasses.replace(d) == d  # rebuilt through the check
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
        assert dataclasses.replace(d) == d  # rebuilt through the check


def test_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        dg.permutation((A, A), [0, 0])


def test_structural_equality_ignores_node_numbering():
    f = dg.make_generator("f", (), (A,))
    g = dg.make_generator("g", (), (B,))
    assert (f @ g).canonical() == (f @ g)
    # same port-graph built in a different order
    left = (f @ g) >> (identity((A,)) @ dg.make_generator("h", (B,), ()))
    right = f @ (g >> dg.make_generator("h", (B,), ()))
    assert left == right
    assert hash(left) == hash(right)
    # types compare as values, not as their strings: a base named "n.L"
    # is not the left adjoint of "n"
    named = identity((WireType("n.L"),))
    adjoint = identity((WireType("n", 1),))
    assert named != adjoint and len({named, adjoint}) == 2


def test_disconnected_scalar_components_canonicalize():
    s1 = dg.make_generator("u", (), (A,)) >> dg.make_generator("v", (A,), ())
    s2 = dg.make_generator("v", (A,), ())
    s2 = dg.make_generator("u", (), (A,)) >> s2
    assert s1 @ s1 == s1 @ s1
    assert (s1 @ s2).canonical_key == (s2 @ s1).canonical_key


def test_validate_detects_port_reuse_and_dangling():
    gen = Generator("box", (A,), (A,), name="f")
    # output port 0 feeds two wires
    with pytest.raises(InvalidDiagram, match=_kind("PortReuse")):
        Diagram((A,), (A, A), (gen,),
                ((IN, 0, 0, 0), (0, 0, OUT, 0), (0, 0, OUT, 1)))
    # missing wire to the box input
    with pytest.raises(InvalidDiagram, match=_kind("PortUnused")):
        Diagram((), (A,), (gen,), ((0, 0, OUT, 0),))


def test_validate_detects_type_mismatch_and_cycle():
    gen = Generator("box", (A,), (B,), name="f")
    with pytest.raises(InvalidDiagram, match=_kind("TypeMismatch")):
        Diagram((B,), (B,), (gen,), ((IN, 0, 0, 0), (0, 0, OUT, 0)))
    loop = Generator("box", (A,), (A,), name="l")
    with pytest.raises(InvalidDiagram, match=_kind("Cycle")):
        Diagram((), (), (loop,), ((0, 0, 0, 0),))


def test_validate_detects_bad_endpoints():
    with pytest.raises(InvalidDiagram, match=_kind("BadEndpoint")):
        Diagram((A,), (A,), (), ((IN, 0, OUT, 5),))


def test_invalid_diagram_message_names_every_violation_in_order():
    f = Generator("box", (A,), (B,), name="f")
    loop = Generator("box", (A,), (A,), name="l")
    state = Generator("cup", (), (A,))
    args = ((A,), (A, A, B), (f, loop, state),
            ((IN, 0, 0, 0), (0, 0, OUT, 0), (0, 0, OUT, 5), (1, 0, 1, 0)))
    message = ("BadNode: node 2: a cup cannot go from [] to [a]; "
               "TypeMismatch: wire (0, 0, -2, 0) joins b to a; "
               "BadEndpoint: wire (0, 0, -2, 5) exceeds output boundary; "
               "PortReuse: port (0, 0) used 2 times; "
               "OpenPortUnused: boundary output 1 unused; "
               "OpenPortUnused: boundary output 2 unused; "
               "PortUnused: output port (2, 0) unused; "
               "Cycle: port-graph has a directed cycle")
    with pytest.raises(InvalidDiagram) as built:
        Diagram(*args)
    assert str(built.value) == message
    valid = Diagram((A,), (A,), (), ((IN, 0, OUT, 0),))
    with pytest.raises(InvalidDiagram) as replaced:
        dataclasses.replace(valid, **dict(zip(
            ("dom", "cod", "nodes", "wires"), args)))
    assert str(replaced.value) == message


def test_list_fields_are_stored_as_tuples():
    """A diagram built from lists composes and compares like the same
    diagram built from tuples."""
    for wire in ((IN, 0, OUT, 0), [IN, 0, OUT, 0]):
        d = Diagram([A], [A], [], [wire])
        assert [type(x) for x in (d.dom, d.cod, d.nodes, d.wires, d.wires[0])] \
            == [tuple] * 5
        assert d >> identity((A,)) == identity((A,))
        assert equal(d, identity((A,)))
    # a node's types given as a list are checked against its kind alike,
    # and stored as tuples, so the diagram round-trips through JSON
    spider = Generator("spider", [A], (A,))
    d = Diagram((A,), (A,), (spider,), ((IN, 0, 0, 0), (0, 0, OUT, 0)))
    assert d == dg.spider("a", 1, 1)
    assert d.nodes == (Generator("spider", (A,), (A,)),)
    assert diagram_from_json(json.loads(json.dumps(diagram_to_json(d)))) == d


@pytest.mark.parametrize("wire", [
    (IN, 0, OUT), (IN, 0.0, OUT, 0), (IN, 0, OUT, 0, 0), (IN, True, OUT, 0),
    (IN, "0", OUT, 0), "abcd", 5, None,
], ids=["three", "float", "five", "bool", "str-port", "str", "int", "none"])
def test_a_wire_that_is_not_four_integers_cannot_be_built(wire):
    with pytest.raises(InvalidDiagram) as built:
        Diagram((A,), (A,), (), ((IN, 0, OUT, 0), wire))
    assert str(built.value) == f"BadWire: wire {wire!r} is not four integers"


def _one_box(**fields):
    """A diagram of one a-to-a box with the given node fields."""
    return Diagram((A,), (A,), (Generator("box", (A,), (A,), **fields),),
                   ((IN, 0, 0, 0), (0, 0, OUT, 0)))


@pytest.mark.parametrize("make, message", [
    (lambda: Diagram(("a",), ("a",), (), ((IN, 0, OUT, 0),)),
     "BadField: field 'dom' holds 'a', not a WireType; "
     "BadField: field 'cod' holds 'a', not a WireType"),
    (lambda: Diagram((A, B), (A,), (Generator("box", "ab", (A,), name="f"),),
                     ((IN, 0, 0, 0), (IN, 1, 0, 1), (0, 0, OUT, 0))),
     "BadField: node 0 field 'dom' holds 'a', not a WireType; "
     "BadField: node 0 field 'dom' holds 'b', not a WireType"),
    (lambda: _one_box(name=5),
     "BadField: node 0 field 'name' holds 5, not a string"),
    (lambda: _one_box(payload=3),
     "BadField: node 0 field 'payload' holds 3, not a string or None"),
    # the constructors that build without the check test their types in
    # bulk; a WireType equals its plain tuple, so this must not build
    (lambda: dg.identity((("n", 0),)),
     "BadField: field 'dom' holds ('n', 0), not a WireType; "
     "BadField: field 'cod' holds ('n', 0), not a WireType"),
    (lambda: dg.identity_node("a"),
     "BadField: field 'dom' holds 'a', not a WireType; "
     "BadField: field 'cod' holds 'a', not a WireType; "
     "BadField: node 0 field 'dom' holds 'a', not a WireType; "
     "BadField: node 0 field 'cod' holds 'a', not a WireType"),
    (lambda: dg.swap(A, "b"),
     "BadField: field 'dom' holds 'b', not a WireType; "
     "BadField: field 'cod' holds 'b', not a WireType; "
     "BadField: node 0 field 'dom' holds 'b', not a WireType; "
     "BadField: node 0 field 'cod' holds 'b', not a WireType"),
    (lambda: dg.permutation((A, ("b", 0)), [1, 0]),
     "BadField: field 'dom' holds ('b', 0), not a WireType; "
     "BadField: field 'cod' holds ('b', 0), not a WireType; "
     "BadField: node 0 field 'dom' holds ('b', 0), not a WireType; "
     "BadField: node 0 field 'cod' holds ('b', 0), not a WireType"),
    (lambda: dg.make_generator("f", (A,), ("a",)),
     "BadField: field 'cod' holds 'a', not a WireType; "
     "BadField: node 0 field 'cod' holds 'a', not a WireType"),
    (lambda: dg.make_generator(5, (A,), (A,)),
     "BadField: node 0 field 'name' holds 5, not a string"),
    (lambda: dg.make_generator("f", (A,), (A,), payload=3),
     "BadField: node 0 field 'payload' holds 3, not a string or None"),
    # a WireType of a base that is not a string, or an order that is not
    # an integer, prints and serializes with a TypeError
    (lambda: dg.cup(5),
     "BadField: field 'cod' holds WireType(5, 1), whose base 5 is not a "
     "string; BadField: field 'cod' holds WireType(5), whose base 5 is not "
     "a string; BadField: node 0 field 'cod' holds WireType(5, 1), whose "
     "base 5 is not a string; BadField: node 0 field 'cod' holds "
     "WireType(5), whose base 5 is not a string"),
    (lambda: dg.spider(None, 1, 1),
     "BadField: field 'dom' holds WireType(None), whose base None is not a "
     "string; BadField: field 'cod' holds WireType(None), whose base None "
     "is not a string; BadField: node 0 field 'dom' holds WireType(None), "
     "whose base None is not a string; BadField: node 0 field 'cod' holds "
     "WireType(None), whose base None is not a string"),
    (lambda: dg.cap("a", 1.5),
     "BadField: field 'dom' holds WireType('a', 1.5), whose order 1.5 is "
     "not an integer; BadField: field 'dom' holds WireType('a', 2.5), whose "
     "order 2.5 is not an integer; BadField: node 0 field 'dom' holds "
     "WireType('a', 1.5), whose order 1.5 is not an integer; BadField: "
     "node 0 field 'dom' holds WireType('a', 2.5), whose order 2.5 is not "
     "an integer"),
    (lambda: Diagram((WireType(5),), (WireType(5),), (), ((IN, 0, OUT, 0),)),
     "BadField: field 'dom' holds WireType(5), whose base 5 is not a "
     "string; BadField: field 'cod' holds WireType(5), whose base 5 is not "
     "a string"),
    # cup and cap are built once per (base, z); a key that does not hash,
    # or that equals a cached one (True == 1), is tested before the memo
    (lambda: dg.cup(["a"]),
     "BadField: field 'cod' holds WireType(['a'], 1), whose base ['a'] is "
     "not a string; BadField: field 'cod' holds WireType(['a']), whose base "
     "['a'] is not a string; BadField: node 0 field 'cod' holds "
     "WireType(['a'], 1), whose base ['a'] is not a string; BadField: node "
     "0 field 'cod' holds WireType(['a']), whose base ['a'] is not a string"),
    (lambda: (dg.cup("a", 1), dg.cup("a", True)),
     "BadField: field 'cod' holds WireType('a', True), whose order True is "
     "not an integer; BadField: node 0 field 'cod' holds WireType('a', "
     "True), whose order True is not an integer"),
    (lambda: dg.cap("a", None),
     "BadField: the order None of a cap is not an integer"),
], ids=["str-types", "str-node-types", "int-name", "int-payload",
        "identity-tuple", "identity-node-str", "swap-str", "permutation-tuple",
        "make-generator-str", "make-generator-int-name",
        "make-generator-int-payload", "cup-int-base", "spider-none-base",
        "cap-float-order", "int-base", "cup-list-base", "cup-bool-order",
        "cap-none-order"])
def test_a_field_of_the_wrong_type_cannot_be_built(make, message):
    with pytest.raises(InvalidDiagram) as built:
        make()
    assert str(built.value) == message


@pytest.mark.parametrize("gen", [
    Generator("cup", (A,), (A.l, A)),
    Generator("cup", (), (B, B)),
    Generator("cap", (A, B), ()),
    Generator("swap", (A, B), (A, B)),
    Generator("id", (A,), (B,)),
    Generator("spider", (A,), (B,)),
    Generator("spider", (), ()),
    Generator("bogus", (A,), (A,)),
], ids=["cup-with-input", "cup-of-equal-types", "cap-of-two-bases",
        "swap-not-exchanging", "id-changing-type", "spider-of-two-bases",
        "spider-without-legs", "unknown-kind"])
def test_a_node_that_does_not_fit_its_kind_cannot_be_built(gen):
    """Node 1 of a diagram that wires it to the boundary; a box fits any
    types, so only the other kinds can misfit."""
    scalar = Generator("box", (), (), name="k")
    wires = (tuple((IN, p, 1, p) for p in range(len(gen.dom)))
             + tuple((1, p, OUT, p) for p in range(len(gen.cod))))
    match = r"(^|; )BadNode: node 1( has unknown kind 'bogus'|: a \w+ cannot)"
    with pytest.raises(InvalidDiagram, match=match):
        Diagram(gen.dom, gen.cod, (scalar, gen), wires)
    box = Generator("box", gen.dom, gen.cod, name="b")
    d = Diagram(gen.dom, gen.cod, (scalar, box), wires)
    with pytest.raises(InvalidDiagram, match=match):
        dataclasses.replace(d, nodes=(scalar, gen))


def test_a_snake_of_misfit_cup_and_cap_cannot_be_built():
    """A cup on ``b b`` and a cap on ``a b``, wired as a snake, would yank
    into one wire from ``a`` to ``b``."""
    cup, cap = Generator("cup", (), (B, B)), Generator("cap", (A, B), ())
    with pytest.raises(InvalidDiagram) as built:
        Diagram((A,), (B,), (cup, cap),
                ((IN, 0, 1, 0), (0, 0, 1, 1), (0, 1, OUT, 0)))
    assert str(built.value) == ("BadNode: node 0: a cup cannot go from [] to "
                                "[b b]; BadNode: node 1: a cap cannot go from "
                                "[a b] to []")


def test_validate_reports_every_missing_endpoint_without_raising():
    """One wire field of a well-formed diagram set to a value in -3..8:
    building the mutant reports BadEndpoint exactly when the wire names a
    node or a port that does not exist, and raises nothing but
    ``InvalidDiagram``."""
    rng = np.random.default_rng(23)
    bad = 0
    for _ in range(400):
        d = random_diagram(rng)
        if not d.wires:
            continue
        sources = {(IN, k) for k in range(len(d.dom))} | {
            (i, p) for i, g in enumerate(d.nodes) for p in range(len(g.cod))}
        targets = {(OUT, k) for k in range(len(d.cod))} | {
            (i, p) for i, g in enumerate(d.nodes) for p in range(len(g.dom))}
        wires = list(d.wires)
        k = int(rng.integers(len(wires)))
        w = list(wires[k])
        w[int(rng.integers(4))] = int(rng.integers(-3, 9))
        wires[k] = tuple(w)
        missing = (w[0], w[1]) not in sources or (w[2], w[3]) not in targets
        try:
            dataclasses.replace(d, wires=tuple(wires))
            found = ""
        except InvalidDiagram as exc:
            found = str(exc)
        assert bool(re.search(_kind("BadEndpoint"), found)) == missing
        bad += missing
    assert bad > 100


@pytest.mark.parametrize("make", [
    lambda: Diagram((A,), (), (), ()),
    lambda: Diagram((), (), (Generator("box", (), (A,), name="f"),), ()),
], ids=["boundary-port-unused", "node-port-unused"])
def test_invalid_diagram_does_not_canonicalize(make):
    """Such a diagram cannot be built, so nothing canonicalizes, hashes or
    compares it."""
    with pytest.raises(InvalidDiagram, match="Unused"):
        make()


def test_boxes_that_differ_only_by_a_missing_payload_canonicalize(
        capsys, tmp_path):
    f = dg.make_generator("f", (), ())
    g = dg.make_generator("f", (), (), payload="p")
    assert (f @ g).canonical_key == (g @ f).canonical_key
    assert hash(f @ g) == hash(g @ f)
    assert normalize(f @ g).diagram == normalize(g @ f).diagram == f @ g
    # two such boxes as the effects of one state
    joined = dg.make_generator("h", (), (A, A)) >> (
        dg.make_generator("e", (A,), ()) @ dg.make_generator("e", (A,), (), "p"))
    assert normalize(joined).diagram == joined
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(diagram_to_json(f @ g)))
    assert main(["normalize", str(path)]) == 0
    assert diagram_from_json(json.loads(capsys.readouterr().out)) == f @ g


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


def test_json_round_trip_of_every_node_kind():
    """Seeded: boxes with and without payloads, cups, caps, swaps,
    identities and spiders, plain and doubled, load back equal."""
    rng = np.random.default_rng(22)
    kinds, doubled = set(), set()
    for k in range(200):
        d = random_diagram(rng, max_width=4)
        if rng.random() < 0.5:
            d = d @ dg.make_generator(f"p{k}", random_types(rng, 1),
                                      random_types(rng, 2), payload=f"w{k}")
        d = dataclasses.replace(d, doubled=bool(rng.random() < 0.3))
        kinds.update(g.kind for g in d.nodes)
        doubled.add(d.doubled)
        assert diagram_from_json(json.loads(json.dumps(diagram_to_json(d)))) == d
    assert kinds == {"box", "cup", "cap", "swap", "id", "spider"}
    assert doubled == {False, True}


def test_json_round_trip_of_a_type_shared_by_hundreds_of_nodes():
    """A 300-yank snake: 600 nodes on two type strings, each parsed once
    per load, so every node shares its two wire types."""
    wire = identity((A,))
    d = wire
    for _ in range(300):
        d = d >> ((wire @ dg.cup("a", 0)) >> (dg.cap("a", 0) @ wire))
    back = diagram_from_json(json.loads(json.dumps(diagram_to_json(d))))
    assert back == d and len(back.nodes) == 600
    assert len({id(t) for g in back.nodes for t in g.dom + g.cod}) == 2


def test_cup_and_cap_are_built_once_per_base_and_order():
    assert dg.cup("a", 1) is dg.cup("a", 1) and dg.cap("b") is dg.cap("b", 0)
    assert dg.cup("a", 1) is not dg.cup("a", 2) is not dg.cap("a", 2)
    assert dg.cup("a", -1) == Diagram((), (A, A.r), (Generator(
        "cup", (), (A, A.r)),), ((0, 0, OUT, 0), (0, 1, OUT, 1)))


def test_a_node_is_its_tuple():
    gen = Generator("box", (A,), (B,), "f")
    assert gen == ("box", (A,), (B,), "f", None)
    assert hash(gen) == hash(("box", (A,), (B,), "f", None))
    assert gen._replace(payload="p").payload == "p"


def test_wire_order_is_not_observable():
    """The wires of a diagram are a set: shuffling them changes no
    evaluation, no rewrite and no JSON."""
    rng = np.random.default_rng(17)
    shuffled = 0
    for k in range(300):
        d = random_diagram(rng, max_width=4)
        wires = tuple(d.wires[i] for i in rng.permutation(len(d.wires)))
        shuffled += wires != d.wires
        e = dataclasses.replace(d, wires=wires)
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
    data = diagram_to_json(dg.make_generator("f", (A,), (A,)))
    data["edges"] = data["edges"][:1]  # drop a wire
    with pytest.raises(InvalidDiagram):
        diagram_from_json(data)


def test_from_json_rejects_undeclared_base():
    data = diagram_to_json(dg.make_generator("f", (A,), (A,)))
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
    data = diagram_to_json(dg.make_generator("f", (A,), (B,))
                           >> dg.make_generator("g", (B,), (A,)))
    change(data)
    with pytest.raises(ValueError, match=field):
        diagram_from_json(data)


def test_parse_typelist_feeds_generators():
    d = dg.make_generator("not", (), parse_typelist("n.L s s.R n"))
    assert [str(t) for t in d.cod] == ["n.L", "s", "s.R", "n"]


# -- composition against the previous implementation -------------------------


def _reference_compose_seq(f, g):
    """``>>`` as it was before outputs were kept last: one dict of glue
    sources built from every wire of ``f``."""
    shift = len(f.nodes)
    wires = []
    glue_src = {}
    for sn, sp, dn, dp in f.wires:
        if dn == OUT:
            glue_src[dp] = (sn, sp)
        else:
            wires.append((sn, sp, dn, dp))
    for sn, sp, dn, dp in g.wires:
        dn = dn if dn < 0 else dn + shift
        if sn == IN:
            wires.append((*glue_src[sp], dn, dp))
        else:
            wires.append((sn + shift, sp, dn, dp))
    return Diagram(f.dom, g.cod, f.nodes + g.nodes, tuple(wires), f.doubled)


def _reference_compose_par(f, g):
    """``@`` as it was before outputs were kept last."""
    shift, din, dout = len(f.nodes), len(f.dom), len(f.cod)

    def remap(n, p):
        if n == IN:
            return n, p + din
        if n == OUT:
            return n, p + dout
        return n + shift, p

    wires = f.wires + tuple(remap(sn, sp) + remap(dn, dp)
                            for sn, sp, dn, dp in g.wires)
    return Diagram(f.dom + g.dom, f.cod + g.cod, f.nodes + g.nodes, wires,
                   f.doubled)


def _reordered(rng, d):
    """*d* as built, rebuilt from its wires shuffled, or in canonical
    order; and its wires in the order it was given them (for the
    canonical form, sorted)."""
    how = rng.integers(3)
    if how == 1:
        wires = tuple(d.wires[i] for i in rng.permutation(len(d.wires)))
        return dataclasses.replace(d, wires=wires), wires
    if how == 2:
        c = d.canonical()
        return c, tuple(sorted(c.wires))
    return d, d.wires


def _into(rng, types, tag):
    """A diagram whose domain is *types*, from one of the constructors."""
    how = rng.integers(3)
    if how == 0:
        perm = [int(i) for i in rng.permutation(len(types))]
        return dg.permutation(types, perm)
    if how == 1:
        return identity(types)
    cod = random_types(rng, int(rng.integers(0, 3)))
    return random_morphism(rng, types, cod, tag)


def _outputs_last(cod, wires):
    """Whether *wires* list those into the *cod* outputs last, in port
    order."""
    tail = wires[len(wires) - len(cod):]
    return [w[2:] for w in tail] == [(OUT, p) for p in range(len(cod))]


def test_composition_matches_the_reference():
    """Seeded pairs of random and constructed diagrams, as built,
    shuffled or canonical, compose to what the previous composition
    gave, with the outputs' wires last, and the result passes the check
    that its construction skipped.  Every operand is stored with the
    outputs' wires last, whatever order it was given them in."""
    rng = np.random.default_rng(2024)
    reordered = 0
    for k in range(400):
        if k % 3:
            f = random_diagram(rng, max_width=4)
        else:
            f = _into(rng, random_types(rng, int(rng.integers(0, 3))), f"f{k}")
        if k % 2:
            g = _into(rng, f.cod, f"g{k}")
            compose, reference = dg.compose_seq, _reference_compose_seq
        else:
            g = random_diagram(rng, max_width=4)
            compose, reference = dg.compose_par, _reference_compose_par
        if rng.random() < 0.2:
            f = dataclasses.replace(f, doubled=True)
            g = dataclasses.replace(g, doubled=True)
        (f, f_given), (g, g_given) = _reordered(rng, f), _reordered(rng, g)
        reordered += not (_outputs_last(f.cod, f_given)
                          and _outputs_last(g.cod, g_given))
        assert _outputs_last(f.cod, f.wires) and _outputs_last(g.cod, g.wires)
        got, want = compose(f, g), reference(f, g)
        assert (got.dom, got.cod, got.doubled, got.nodes) == \
            (want.dom, want.cod, want.doubled, want.nodes)
        assert sorted(got.wires) == sorted(want.wires)
        assert _outputs_last(got.cod, got.wires)
        assert dataclasses.replace(got) == got  # rebuilt through the check
    assert reordered > 150


def _missing_output():
    """a -> a a with output 1 unwired."""
    return Diagram((A,), (A, A), (), ((IN, 0, OUT, 0),))


def _duplicated_output():
    """a -> a with output 0 fed twice, by the input and by a state."""
    state = Generator("box", (), (A,), name="s")
    return Diagram((A,), (A,), (state,), ((IN, 0, OUT, 0), (0, 0, OUT, 0)))


@pytest.mark.parametrize("make, kind", [
    (_missing_output, "OpenPortUnused"), (_duplicated_output, "PortReuse"),
], ids=["missing-output", "duplicated-output"])
def test_composing_a_malformed_operand_raises(make, kind):
    """A malformed operand cannot be built, so ``>>`` and ``@`` never
    see one."""
    with pytest.raises(InvalidDiagram, match=_kind(kind)):
        identity((A,)) >> make()


def test_an_invalid_operand_is_never_marked_valid():
    """A random diagram with one wire dropped cannot be built, so it is
    never an operand."""
    rng = np.random.default_rng(7)
    tried = 0
    for _ in range(200):
        d = random_diagram(rng, max_width=4)
        if not d.wires:
            continue
        drop = int(rng.integers(len(d.wires)))
        with pytest.raises(InvalidDiagram, match="Unused"):
            dataclasses.replace(d, wires=d.wires[:drop] + d.wires[drop + 1:])
        tried += 1
    assert tried > 150


def test_a_diagram_is_validated_once(monkeypatch):
    calls = []
    real = dg._check

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(dg, "_check", counting)
    snake = (identity((A,)) @ dg.cup("a")) >> (dg.cap("a") @ identity((A,)))
    loaded = diagram_from_json(diagram_to_json(snake >> snake))
    assert calls == [loaded]  # checked at load; the constructed parts never
    normalize(loaded)
    normalize(loaded)
    model = random_payloads(Model(dims={"a": 2}), (loaded,), seed=0)
    evaluate(loaded, model)
    evaluate(loaded, dataclasses.replace(model, doubling="thick"))
    normalize(loaded).diagram >> identity((A,))
    evaluate(double(loaded), model)
    assert calls == [loaded]
    assert normalize(snake >> loaded).diagram == identity((A,))
    assert calls == [loaded]
    # a hand-built diagram is checked when it is built, and only then
    hand = Diagram((A,), (A,), (), ((IN, 0, OUT, 0),))
    assert calls == [loaded, hand]
    evaluate(hand, model)
    hand >> hand
    assert calls == [loaded, hand]

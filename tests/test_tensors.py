import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (brute_force_evaluate, random_diagram, random_morphism,
                      random_types)

import stringcalc
from stringcalc import diagram as dg
from stringcalc import tensors
from stringcalc.diagram import identity
from stringcalc.errors import (DimensionMismatch, MissingPayload, NotHermitian,
                               NotSquare, ShapeMismatch, StateExplosion,
                               ZeroNorm)
from stringcalc.pregroup import grammar_diagram, lexicon_from_json, parse
from stringcalc.tensors import (Model, Payload, Tensor, as_density_matrix,
                                double, double_array, entropy, evaluate,
                                random_payloads, similarity, tensor_from_json,
                                tensor_to_json)
from stringcalc.types import WireType

A = WireType("a")
B = WireType("b")
DATA = Path(stringcalc.__file__).parent / "data"


def model_with(dims, **arrays):
    payloads = {name: Payload(Tensor.from_array(np.asarray(arr, dtype=complex)))
                for name, arr in arrays.items()}
    return Model(dims=dims, payloads=payloads)


def test_single_box_evaluates_to_its_payload():
    arr = np.arange(6.0).reshape(2, 3)
    model = model_with({"a": 2, "b": 3}, f=arr)
    d = dg.box("f", (A,), (B,), payload="f")
    assert np.allclose(evaluate(d, model).to_array(), arr)


def test_sequential_composition_is_contraction():
    f = np.random.default_rng(0).standard_normal((2, 3))
    g = np.random.default_rng(1).standard_normal((3, 2))
    model = model_with({"a": 2, "b": 3}, f=f, g=g)
    d = dg.box("f", (A,), (B,), payload="f") >> dg.box("g", (B,), (A,), payload="g")
    # payload axes are [input, output], so composition is matrix product f @ g
    assert np.allclose(evaluate(d, model).to_array(), f @ g)


def test_parallel_composition_is_outer_product():
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 4.0, 5.0])
    model = model_with({"a": 2, "b": 3}, u=u, v=v)
    d = dg.box("u", (), (A,), payload="u") @ dg.box("v", (), (B,), payload="v")
    assert np.allclose(evaluate(d, model).to_array(), np.multiply.outer(u, v))


def test_cup_cap_swap_spider_semantics():
    model = Model(dims={"a": 3, "b": 2})
    assert np.allclose(evaluate(dg.cup("a", 0), model).to_array(), np.eye(3))
    assert np.allclose(evaluate(dg.cap("a", 0), model).to_array(), np.eye(3))
    sw = evaluate(dg.swap(A, B), model).to_array()
    for i in range(3):
        for j in range(2):
            out = np.zeros((2, 3))
            out[j, i] = 1.0
            assert np.allclose(sw[i, j], out)
    sp = evaluate(dg.spider("b", 2, 1), model).to_array()
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert sp[i, j, k] == (1.0 if i == j == k else 0.0)


def test_bare_wire_is_identity():
    model = Model(dims={"a": 4})
    assert np.allclose(evaluate(identity((A,)), model).to_array(), np.eye(4))


def test_closed_loop_counts_dimension():
    model = Model(dims={"a": 5})
    circle = dg.cup("a", 0) >> dg.swap(A.l, A) >> dg.cap("a", 0)
    assert abs(evaluate(circle, model).to_array() - 5.0) < 1e-12


def test_evaluate_matches_brute_force_oracle():
    rng = np.random.default_rng(21)
    model0 = Model(dims={"a": 2, "b": 2})
    checked = 0
    while checked < 25:
        d = random_diagram(rng, max_nodes=6, max_width=4)
        if len(d.wires) > 13:
            continue
        model = random_payloads(model0, (d,), seed=100 + checked)
        got = evaluate(d, model)
        oracle = brute_force_evaluate(d, model)
        assert got.shape == oracle.shape
        assert np.allclose(got.to_array(), oracle, atol=1e-9)
        checked += 1


def test_missing_payload_and_dimension_errors():
    model = Model(dims={"a": 2})
    with pytest.raises(MissingPayload):
        evaluate(dg.box("f", (A,), (A,), payload="nope"), model)
    bad = model_with({"a": 2}, f=np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        evaluate(dg.box("f", (A,), (A,), payload="f"), bad)
    with pytest.raises(DimensionMismatch):
        evaluate(dg.cup("z", 0), model)


def test_structural_node_joining_unequal_dimensions_raises():
    # a hand-built swap that does not exchange its types aliases a to b
    gen = dg.Generator(dg.SWAP, (A, B), (A, B))
    IN, OUT = dg.IN, dg.OUT
    d = dg.Diagram((A, B), (A, B), (gen,),
                   ((IN, 0, 0, 0), (IN, 1, 0, 1), (0, 0, OUT, 0), (0, 1, OUT, 1)))
    with pytest.raises(DimensionMismatch):
        evaluate(d, Model(dims={"a": 2, "b": 3}))


# -- wires as labels: structural generators alias, never materialize ---------


def assert_matches_oracle(d, dims, seed=0):
    """Thin and thick evaluation both agree with the brute-force oracle."""
    for doubling in ("thin", "thick"):
        model = random_payloads(Model(dims=dims, doubling=doubling), (d,),
                                seed=seed)
        got = evaluate(d, model)
        oracle = brute_force_evaluate(d, model)
        assert got.shape == oracle.shape
        assert np.allclose(got.to_array(), oracle, atol=1e-9), doubling


def state(name, *cod):
    return dg.box(name, (), cod)


def test_alias_bare_through_wires():
    assert_matches_oracle(identity((A,)), {"a": 3})
    assert_matches_oracle(identity((A, B)), {"a": 2, "b": 3})


def test_alias_cup_cap_loop_is_dimension():
    loop = dg.cup("a", 0) >> dg.swap(A.l, A) >> dg.cap("a", 0)
    assert_matches_oracle(loop, {"a": 3})
    model = Model(dims={"a": 3})
    assert evaluate(loop, model).to_array() == pytest.approx(3.0)
    thick = evaluate(double(loop), model)
    assert thick.shape == () and thick.to_array() == pytest.approx(9.0)


def test_alias_spiders_with_several_open_legs():
    assert_matches_oracle(dg.spider("a", 1, 2), {"a": 3})
    assert_matches_oracle(dg.spider("a", 0, 3), {"a": 3})
    assert_matches_oracle(dg.spider("a", 0, 1), {"a": 3})
    assert_matches_oracle(dg.spider("a", 2, 0), {"a": 3})


def test_alias_spider_joining_three_boxes():
    closed = state("u", A) >> dg.spider("a", 1, 2) \
        >> (dg.box("p", (A,), (B,)) @ dg.box("q", (A,), (B,)))
    assert_matches_oracle(closed, {"a": 2, "b": 2})
    # the shared label also stays open, so it survives every pair contraction
    open_leg = state("u", A) >> dg.spider("a", 1, 3) \
        >> (dg.box("p", (A,), (B,)) @ identity((A,)) @ dg.box("q", (A,), (B,)))
    assert_matches_oracle(open_leg, {"a": 2, "b": 2})


def test_alias_box_output_capped_to_its_own_input():
    # cup, then f on the lower leg, then f's output capped back to the cup:
    # a partial trace of f over its a legs
    f = dg.box("f", (A,), (A, B))
    d = dg.cup("a", 0) >> (identity((A.l,)) @ f) \
        >> (dg.swap(A.l, A) @ identity((B,))) >> (dg.cap("a", 0) @ identity((B,)))
    assert d.dom == () and d.cod == (B,)
    assert_matches_oracle(d, {"a": 2, "b": 2})
    arr = np.arange(8.0).reshape(2, 2, 2)
    model = model_with({"a": 2, "b": 2}, **{"box:" + repr(d.nodes[1].signature()): arr})
    assert np.allclose(evaluate(d, model).to_array(), np.einsum("iij->j", arr))


def test_alias_disconnected_parts_and_scalar_box():
    d = state("u", A) @ state("s") @ identity((B,)) @ state("v", B, A)
    assert_matches_oracle(d, {"a": 2, "b": 3})


def test_alias_empty_diagram_is_one():
    assert_matches_oracle(identity(()), {"a": 2})
    out = evaluate(identity(()), Model(dims={}))
    assert out.shape == () and out.to_array() == 1.0


def test_alias_permutation_wires():
    types = (A, B, A)
    perm = dg.permutation(types, [2, 0, 1])
    assert_matches_oracle(perm, {"a": 2, "b": 2})
    assert_matches_oracle(state("u", A, B) @ state("v", A) >> perm,
                          {"a": 2, "b": 2})


def test_long_sentence_matches_matrix_chain():
    """259 words: 128 adjectives each side of a transitive verb."""
    rng = np.random.default_rng(5)
    adjectives = {f"adj{k}": np.linalg.qr(rng.standard_normal((4, 4)))[0]
                  for k in range(8)}
    subject, obj = rng.standard_normal(4), rng.standard_normal(4)
    verb = rng.standard_normal((4, 2, 4))
    words = [{"word": w, "type": "n n.R", "data": m.ravel().tolist()}
             for w, m in adjectives.items()]
    words += [{"word": "cat", "type": "n", "data": subject.tolist()},
              {"word": "dog", "type": "n", "data": obj.tolist()},
              {"word": "sees", "type": "n.L s n.R", "data": verb.ravel().tolist()}]
    lexicon = lexicon_from_json({"bases": {"n": 4, "s": 2}, "words": words})
    left = [f"adj{k % 8}" for k in range(128)]
    right = [f"adj{3 * k % 8}" for k in range(128)]
    sentence = left + ["cat", "sees"] + right + ["dog"]
    assert len(sentence) == 259
    (witness,) = parse(lexicon, sentence)
    d = grammar_diagram(sentence, witness, lexicon)
    got = evaluate(d, lexicon.model()).to_array()

    def chain(names, vector):
        for name in reversed(names):
            vector = adjectives[name] @ vector
        return vector

    expected = np.einsum("i,isj,j->s", chain(left, subject), verb,
                         chain(right, obj))
    assert np.allclose(got, expected, atol=1e-9)


def test_scalar_factor_accumulates():
    model = Model(dims={"a": 2}, payloads={
        "s": Payload(Tensor((), np.array(1.0 + 0j), scalar=0.5)),
    })
    d = dg.box("s", (), (), payload="s") @ dg.box("s", (), (), payload="s") \
        @ identity((A,))
    out = evaluate(d, model)
    assert np.allclose(out.to_array(), 0.25 * np.eye(2))


# -- doubling ----------------------------------------------------------------


def test_double_array_is_interleaved_conjugate_pair():
    v = np.array([1.0 + 1.0j, 2.0])
    dv = double_array(v)
    assert np.allclose(dv, np.multiply.outer(v, v.conj()).reshape(4))
    m = np.array([[1.0, 2.0j], [0.5, 1.0 - 1.0j]])
    dm = double_array(m)
    assert dm.shape == (4, 4)
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        assert dm[2 * i + j, 2 * k + l] == m[i, k] * np.conj(m[j, l])


def test_thick_evaluation_doubles_pure_states():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    model = model_with({"a": 3}, v=v)
    d = dg.box("v", (), (A,), payload="v")
    thin = evaluate(d, model).to_array()
    thick = evaluate(double(d), model).to_array()
    assert np.allclose(thick, double_array(thin))


def test_thick_evaluation_commutes_with_contraction():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    model = model_with({"a": 2, "b": 3}, f=f, g=g)
    d = dg.box("f", (A,), (B,), payload="f") >> dg.box("g", (B,), (A,), payload="g")
    thick = evaluate(double(d), model).to_array()
    assert np.allclose(thick, double_array(f @ g))


def test_mixed_payload_requires_thick_wires():
    rho = np.eye(2) / 2.0
    model = Model(dims={"a": 2}, payloads={
        "rho": Payload(Tensor.from_array(rho.reshape(4)), kind="mixed"),
    })
    d = dg.box("rho", (), (A,), payload="rho")
    with pytest.raises(DimensionMismatch):
        evaluate(d, model)
    out = evaluate(double(d), model).to_array()
    assert np.allclose(out, rho.reshape(4))


def test_thick_evaluation_with_mixed_payloads_matches_oracle():
    rng = np.random.default_rng(8)
    dims = {"a": 2, "b": 3}
    both = 0
    for trial in range(40):
        d = random_diagram(rng, max_nodes=4, max_width=3)
        d = (d >> random_morphism(rng, d.cod, random_types(
            rng, int(rng.integers(0, 3))), "m")) @ random_diagram(rng, 2, 2)
        if math.prod(dims[d.src_type(sn, sp).base] ** 2
                     for sn, sp, _, _ in d.wires) > 20000:
            continue  # the oracle sums over every thick wire assignment
        refs = {g.payload or "box:" + repr(g.signature())
                for g in d.nodes if g.kind == dg.BOX}
        model = random_payloads(Model(dims=dims, doubling="thick"), (d,),
                                seed=trial)
        payloads = dict(model.payloads)
        for ref in sorted(refs):
            if rng.random() < 0.5:
                shape = tuple(x * x for x in payloads[ref].tensor.shape)
                arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                payloads[ref] = Payload(Tensor.from_array(arr), kind="mixed")
        kinds = {payloads[ref].kind for ref in refs}
        both += kinds == {"pure", "mixed"}
        model = Model(dims=dims, payloads=payloads, doubling="thick")
        got = evaluate(d, model)
        oracle = brute_force_evaluate(d, model)
        assert got.shape == oracle.shape
        assert np.allclose(got.to_array(), oracle, atol=1e-9), trial
    assert both >= 5


def test_thick_pure_evaluation_contracts_at_thin_dimensions(monkeypatch):
    lexicon = lexicon_from_json(json.loads((DATA / "language.json").read_text()))
    words = "Alice does not like Bob".split()
    (witness,) = parse(lexicon, words)
    loop = dg.cup("n", 0) >> dg.swap(WireType("n").l, WireType("n")) \
        >> dg.cap("n", 0)
    d = grammar_diagram(words, witness, lexicon) @ dg.cup("n", 0) @ loop
    axes = []

    def spy(operands, output, dims):
        axes.extend(s for _, arr in operands for s in arr.shape)
        return contract(operands, output, dims)

    contract = tensors._contract
    monkeypatch.setattr(tensors, "_contract", spy)
    thin = evaluate(d, lexicon.model()).to_array()
    thick = evaluate(d, lexicon.model(doubling="thick")).to_array()
    assert axes and max(axes) <= max(lexicon.bases.values())
    assert np.abs(thick - double_array(thin)).max() <= 1e-12


def test_allocations_over_the_budget_raise_state_explosion(monkeypatch):
    monkeypatch.setattr(tensors, "MAX_ELEMENTS", 8)
    v = np.arange(1.0, 4.0)
    model = model_with({"a": 3}, v=v, f=np.eye(9).reshape(3, 3, 3, 3))
    vec = dg.box("v", (), (A,), payload="v")
    assert evaluate(vec, model).shape == (3,)
    too_big = {
        "doubled result": double(vec),
        "boundary identity": dg.cup("a", 0),
        "outer product": vec @ vec,
        "pair contraction": (vec @ vec) >> dg.box("f", (A, A), (A, A),
                                                  payload="f"),
    }
    for what, d in too_big.items():
        with pytest.raises(StateExplosion, match="budget"):
            evaluate(d, model)
    monkeypatch.setattr(tensors, "MAX_ELEMENTS", 81)
    for d in too_big.values():
        evaluate(d, model)


def test_doubled_and_plain_do_not_compose():
    from stringcalc.errors import TypeMismatch
    with pytest.raises(TypeMismatch):
        double(identity((A,))) >> identity((A,))
    with pytest.raises(TypeMismatch):
        double(identity((A,))) @ identity((A,))


# -- density matrices, entropy, similarity -----------------------------------


def test_as_density_matrix_square_and_thick():
    m = np.arange(4.0).reshape(2, 2)
    assert np.allclose(as_density_matrix(Tensor.from_array(m)), m)
    # a thick wire of squared dimension 4 folds to a 2x2 matrix
    v = np.array([1.0, 2.0 + 1j])
    t = Tensor.from_array(double_array(v))
    assert np.allclose(as_density_matrix(t), np.outer(v, v.conj()))
    with pytest.raises(NotSquare):
        as_density_matrix(Tensor.from_array(np.zeros(3)))
    with pytest.raises(NotSquare):
        as_density_matrix(Tensor.from_array(np.array(1.0)))


def test_entropy_pure_and_mixed():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    pure = Tensor.from_array(np.outer(v, v.conj()))
    assert abs(entropy(pure)) < 1e-9
    mixed = Tensor.from_array(np.eye(4) / 4.0)
    assert abs(entropy(mixed) - 2.0) < 1e-12
    # normalization is automatic
    assert abs(entropy(Tensor.from_array(np.eye(3) * 7.0)) - np.log2(3)) < 1e-12


def test_entropy_rejects_bad_matrices():
    with pytest.raises(NotHermitian):
        entropy(Tensor.from_array(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValueError):
        entropy(Tensor.from_array(np.zeros((2, 2))))


def test_similarity_cosine():
    t1 = Tensor.from_array(np.array([1.0, 0.0]))
    t2 = Tensor.from_array(np.array([1.0, 1.0]))
    assert abs(similarity(t1, t2) - 1 / np.sqrt(2)) < 1e-12
    assert abs(similarity(t1, t1) - 1.0) < 1e-12
    # phase-invariant
    t3 = Tensor.from_array(np.array([1.0j, 0.0]))
    assert abs(similarity(t1, t3) - 1.0) < 1e-12
    with pytest.raises(ZeroNorm):
        similarity(t1, Tensor.from_array(np.zeros(2)))
    with pytest.raises(ShapeMismatch):
        similarity(t1, Tensor.from_array(np.zeros(3)))


def test_similarity_normalized_overlap():
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    rho1 = Tensor.from_array(np.outer(v, v))
    rho2 = Tensor.from_array(np.outer(w, w))
    assert abs(similarity(rho1, rho2, kind="normalized-overlap")) < 1e-12
    assert abs(similarity(rho1, rho1, kind="normalized-overlap") - 1.0) < 1e-12
    with pytest.raises(ValueError):
        similarity(rho1, rho2, kind="nope")


# -- serialization and misc ---------------------------------------------------


def test_tensor_json_round_trip():
    t = Tensor.from_array(np.array([[1.0 + 2.0j, 0.0], [3.0, -1.0j]]),
                          scalar=0.5 - 0.25j)
    back = tensor_from_json(tensor_to_json(t))
    assert back.shape == t.shape
    assert np.allclose(back.to_array(), t.to_array())


def test_random_payloads_are_deterministic_and_shared():
    d = dg.box("f", (A,), (A,)) >> dg.box("f", (A,), (A,))
    m1 = random_payloads(Model(dims={"a": 3}), (d,), seed=9)
    m2 = random_payloads(Model(dims={"a": 3}), (d,), seed=9)
    (ref,) = m1.payloads
    assert np.allclose(m1.payloads[ref].tensor.data, m2.payloads[ref].tensor.data)
    m3 = random_payloads(Model(dims={"a": 3}), (d,), seed=10)
    assert not np.allclose(m1.payloads[ref].tensor.data,
                           m3.payloads[ref].tensor.data)

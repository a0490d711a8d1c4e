import dataclasses
from itertools import islice, product

import numpy as np
import pytest

from conftest import oracle_linksets

from stringcalc import pregroup
from stringcalc.diagram import BOX, SWAP, validate
from stringcalc.errors import TypeMismatch, UnknownWord
from stringcalc.pregroup import (grammar_diagram, lexicon_from_json, parse,
                                 residual_report, word_state)
from stringcalc.tensors import double_array, entropy, evaluate
from stringcalc.types import WireType, parse_typelist, typelist_str

DATA = {
    "bases": {"n": 2, "s": 2},
    "words": [
        {"word": "Alice", "type": "n", "payload": "dense", "data": [1.0, 0.4]},
        {"word": "Bob", "type": "n", "payload": "dense", "data": [0.7, 0.1]},
        {"word": "hates", "type": "n.L s n.R", "payload": "dense",
         "data": [0.9, 0.1, 0.4, 0.3, 0.3, 0.6, 0.2, 0.1]},
        {"word": "likes", "type": "n.L s n.R", "payload": "dense",
         "data": [0.8, 0.2, 0.1, 0.5, 0.2, 0.7, 0.6, 0.1]},
        {"word": "does", "type": "n.L s s.R n", "payload": "structural:copula"},
        {"word": "not", "type": "n.L s s.R n", "payload": "structural:negation",
         "data": [0.0, 1.0, 1.0, 0.0]},
        {"word": "sleeps", "type": "n.L s", "payload": "dense",
         "data": [0.3, 0.9, 0.2, 0.1]},
    ],
}


@pytest.fixture()
def lex():
    return lexicon_from_json(DATA)


def meaning(lexicon, sentence, target="s"):
    words = sentence.split()
    (witness,) = parse(lexicon, words, target=target)
    d = grammar_diagram(words, witness, lexicon)
    return evaluate(d, lexicon.model()).to_array()


def test_alice_hates_bob_witness(lex):
    witnesses = parse(lex, ["Alice", "hates", "Bob"])
    assert len(witnesses) == 1
    w = witnesses[0]
    assert w.links == frozenset({(0, 1), (3, 4)})
    assert w.residual_types() == (WireType("s"),)
    assert w.replay()


def test_sentence_vector_matches_manual_contraction(lex):
    alice = np.array([1.0, 0.4])
    bob = np.array([0.7, 0.1])
    hates = np.array([0.9, 0.1, 0.4, 0.3, 0.3, 0.6, 0.2, 0.1]).reshape(2, 2, 2)
    expected = np.einsum("i,isj,j->s", alice, hates, bob)
    assert np.allclose(meaning(lex, "Alice hates Bob"), expected)


def test_no_parse_returns_empty(lex):
    assert parse(lex, ["Alice", "Bob"]) == []
    assert parse(lex, ["hates", "hates"]) == []


def test_unknown_word_raises(lex):
    with pytest.raises(UnknownWord):
        parse(lex, ["Alice", "zzz"])


def test_intransitive_sentence(lex):
    w, = parse(lex, ["Alice", "sleeps"])
    assert w.links == frozenset({(0, 1)})
    expected = np.einsum("i,is->s", np.array([1.0, 0.4]),
                         np.array([0.3, 0.9, 0.2, 0.1]).reshape(2, 2))
    assert np.allclose(meaning(lex, "Alice sleeps"), expected)


def test_target_other_than_s(lex):
    # reduce to the noun type: a bare noun parses, a sentence does not
    assert len(parse(lex, ["Alice"], target="n")) == 1
    assert parse(lex, ["Alice", "sleeps"], target="n") == []


def test_ambiguous_lexicon_yields_multiple_witnesses():
    data = {
        "bases": {"n": 2, "s": 2},
        "words": [
            {"word": "fish", "type": "n", "payload": "dense",
             "data": [1.0, 0.0]},
            {"word": "fish", "type": "n.L s", "payload": "dense",
             "data": [0.1, 0.2, 0.3, 0.4]},
            {"word": "stone", "type": "n", "payload": "dense",
             "data": [0.0, 1.0]},
        ],
    }
    lexicon = lexicon_from_json(data)
    assert len(lexicon.lookup("fish")) == 2
    # the noun entry reaches target "n n", the verb entry reaches target "s"
    assert [w.entry_indices for w in parse(lexicon, ["stone", "fish"])] == \
        [(0, 1)]
    assert [w.entry_indices
            for w in parse(lexicon, ["stone", "fish"], target="n n")] == \
        [(0, 0)]


def test_max_combinations_caps_entry_products():
    data = {
        "bases": {"n": 2},
        "words": [
            {"word": "w", "type": "n", "payload": "dense", "data": [1.0, 0.0]},
            {"word": "w", "type": "n", "payload": "dense", "data": [0.0, 1.0]},
        ],
    }
    lexicon = lexicon_from_json(data)
    full = parse(lexicon, ["w"] * 3, target="n n n")
    assert len(full) == 8
    capped = parse(lexicon, ["w"] * 3, target="n n n", max_combinations=3)
    assert len(capped) == 3


def test_witness_replay_rejects_tampering(lex):
    (w,) = parse(lex, ["Alice", "hates", "Bob"])
    crossed = dataclasses.replace(w, links=frozenset({(0, 3), (1, 4)}))
    assert not crossed.replay()
    wrong_residual = dataclasses.replace(w, residual=(0,))
    assert not wrong_residual.replay()


def test_parser_agrees_with_adjacent_cancellation_oracle(lex):
    target = parse_typelist("s")
    for words in (["Alice", "hates", "Bob"],
                  ["Alice", "does", "not", "likes", "Bob"],
                  ["Alice", "sleeps"],
                  ["Alice", "Bob"]):
        witnesses = parse(lex, words)
        flat = witnesses[0].flat if witnesses else tuple(
            t for word in words for t in lex.lookup(word)[0].type)
        assert {w.links for w in witnesses} == oracle_linksets(flat, target)


def test_grammar_diagram_outputs_are_residual(lex):
    words = ["Alice", "does", "not", "likes", "Bob"]
    (w,) = parse(lex, words)
    d = grammar_diagram(words, w, lex)
    assert d.dom == ()
    assert d.cod == w.residual_types()
    # one cap per link
    assert sum(1 for g in d.nodes if g.kind == "cap") == len(w.links)


def test_negation_composes_as_matrix(lex):
    base = meaning(lex, "Alice likes Bob")
    negated = meaning(lex, "Alice does not likes Bob")
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(negated, flip @ base)


def test_copula_is_transparent(lex):
    # "does" without "not" wires straight through: the copula state is
    # exactly the nested-cups diagram, so "Alice does likes Bob" -- if the
    # types allowed it -- reduces to plain "Alice likes Bob"
    words = ["Alice", "does", "likes", "Bob"]
    witnesses = parse(lex, words)
    assert len(witnesses) == 1
    d = grammar_diagram(words, witnesses[0], lex)
    out = evaluate(d, lex.model()).to_array()
    assert np.allclose(out, meaning(lex, "Alice likes Bob"))


def test_residual_report_shows_stuck_types(lex):
    report = residual_report(lex, ["Alice", "Bob"])
    assert report == [((0, 0), "n n")]
    report2 = residual_report(lex, ["Alice", "hates", "Bob"])
    assert report2 == [((0, 0, 0), "s")]


def _relpron_by_loop(wtype, bases):
    """Reference: visit every cell, zero it unless the noun indices agree."""
    noun = wtype[1].base
    shape = tuple(bases[t.base] for t in wtype)
    noun_axes = [k for k, t in enumerate(wtype) if t.base == noun]
    arr = np.ones(shape, dtype=complex)
    for idx in np.ndindex(*shape):
        if len({idx[k] for k in noun_axes}) > 1:
            arr[idx] = 0.0
    return arr


def _relpron_lexicon(wtype, bases):
    return lexicon_from_json({"bases": bases, "words": [
        {"word": "who", "type": wtype, "payload": "structural:relpron"}]})


@pytest.mark.parametrize("wtype, bases", [
    ("n.L n s.R n", {"n": 16, "s": 4}),
    ("n.R n s.L", {"n": 3, "s": 2}),
    ("n n n.L n", {"n": 3, "s": 2}),
])
def test_relpron_tensor_equals_loop_reference(wtype, bases):
    lexicon = _relpron_lexicon(wtype, bases)
    got = evaluate(word_state(lexicon.lookup("who")[0], lexicon),
                   lexicon.model()).to_array()
    expected = _relpron_by_loop(parse_typelist(wtype), bases)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("wtype, bases", [
    ("n.L n s.R n", {"n": 2, "s": 2}),
    ("n.R n s.L", {"n": 3, "s": 2}),
])
def test_relpron_thick_state_is_doubled_reference(wtype, bases):
    lexicon = _relpron_lexicon(wtype, bases)
    got = evaluate(word_state(lexicon.lookup("who")[0], lexicon),
                   lexicon.model(doubling="thick")).to_array()
    expected = double_array(_relpron_by_loop(parse_typelist(wtype), bases))
    assert np.array_equal(got, expected)


def test_structural_states_are_wiring():
    lexicon = lexicon_from_json({**DATA, "words": DATA["words"] + [
        {"word": "who", "type": "n.L n s.R n", "payload": "structural:relpron"}]})
    for word in ("does", "not", "who"):
        state = word_state(lexicon.lookup(word)[0], lexicon)
        assert validate(state) == []
        assert all(g.kind != SWAP for g in state.nodes)
    (who,) = lexicon.lookup("who")
    assert who.payload is None
    assert not any(ref.startswith("word:who") for ref in lexicon.payloads)
    assert all(g.kind != BOX for g in word_state(who, lexicon).nodes)


def test_grammar_diagram_rejects_a_link_that_does_not_cancel(lex):
    words = ["Alice", "hates", "Bob"]
    (w,) = parse(lex, words)
    # n.L (hates, index 1) with s (index 2) is no cancelling pair
    bad = dataclasses.replace(w, links=frozenset({(1, 2), (3, 4)}))
    with pytest.raises(TypeMismatch):
        grammar_diagram(words, bad, lex)


def _witness(words, flat, links):
    flat = parse_typelist(flat)
    linked = {i for link in links for i in link}
    return pregroup.ParseWitness(
        words=tuple(words), entry_indices=(0,) * len(words), flat=flat,
        word_of_index=(), links=frozenset(links),
        residual=tuple(i for i in range(len(flat)) if i not in linked))


def test_grammar_diagram_rejects_links_that_do_not_nest():
    lexicon = lexicon_from_json({"bases": {"n": 2, "s": 2}, "words": [
        {"word": "x", "type": "n s", "data": [1.0, 0.0, 0.0, 1.0]},
        {"word": "y", "type": "n.L s.L", "data": [1.0, 0.0, 0.0, 1.0]},
        {"word": "z", "type": "n.L", "data": [1.0, 0.0]}]})
    crossed = _witness(["x", "y"], "n s n.L s.L", {(0, 2), (1, 3)})
    covering = _witness(["x", "z"], "n s n.L", {(0, 2)})  # over residual s
    for witness in (crossed, covering):
        with pytest.raises(ValueError):
            grammar_diagram(list(witness.words), witness, lexicon)
        assert not witness.replay()


def test_structural_entries_require_valid_types():
    for word in [
        {"word": "does", "type": "n.L s", "payload": "structural:copula"},
        {"word": "not", "type": "n.L s n.R n",
         "payload": "structural:negation", "data": [0.0, 1.0, 1.0, 0.0]},
        {"word": "who", "type": "n.L s", "payload": "structural:relpron"},
        {"word": "who", "type": "n", "payload": "structural:relpron"},
    ]:
        with pytest.raises(ValueError, match=word["type"]):
            lexicon_from_json({"bases": {"n": 2, "s": 2}, "words": [word]})


def test_lexicon_json_errors():
    with pytest.raises(ValueError):
        lexicon_from_json({"bases": {"n": 2}, "words": [
            {"word": "x", "type": "q", "payload": "dense", "data": [1.0]}]})
    with pytest.raises(ValueError):
        lexicon_from_json({"bases": {"n": 2}, "words": [
            {"word": "x", "type": "n", "payload": "dense", "data": [1.0]}]})
    with pytest.raises(ValueError):
        lexicon_from_json({"bases": {"n": 2}, "words": [
            {"word": "x", "type": "n", "payload": "hologram", "data": [1.0]}]})


def test_mixed_word_entropy():
    data = {
        "bases": {"n": 2},
        "words": [
            {"word": "coin", "type": "n", "payload": "mixed",
             "data": [0.5, 0.0, 0.0, 0.5]},
        ],
    }
    lexicon = lexicon_from_json(data)
    state = word_state(lexicon.lookup("coin")[0], lexicon)
    t = evaluate(state, lexicon.model(doubling="thick"))
    assert abs(entropy(t) - 1.0) < 1e-12


def _random_type(rng, bases=("n", "s", "p")):
    return WireType(str(rng.choice(bases)), int(rng.integers(-2, 3)))


def _reducible_flat(rng, target, size):
    """*target* with cancelling pairs inserted until it has *size* types,
    then, one time in four, one type replaced at random."""
    flat = list(target)
    while len(flat) < size:
        k = int(rng.integers(0, len(flat) + 1))
        t = _random_type(rng, ("n", "s"))
        flat[k:k] = [t, t.l]
    if flat and rng.random() < 0.25:
        flat[int(rng.integers(0, len(flat)))] = _random_type(rng)
    return tuple(flat)


TARGETS = [parse_typelist(t) for t in ("s", "n", "s p.L", "n.R s n")] + [()]


def test_random_flat_strings_parser_vs_oracle():
    rng = np.random.default_rng(17)
    target = (WireType("s"),)
    for trial in range(60):
        flat = tuple(_random_type(rng) for _ in range(int(rng.integers(1, 9))))
        got = set(pregroup._reductions(flat, target))
        want = oracle_linksets(flat, target)
        assert got == want, (flat, got, want)
    found = 0
    for trial in range(400):
        target = TARGETS[trial % len(TARGETS)]
        flat = _reducible_flat(rng, target, int(rng.integers(1, 13)))
        if trial % 2:  # not built from this target
            target = TARGETS[int(rng.integers(0, len(TARGETS)))]
        got = pregroup._reductions(flat, target)
        want = oracle_linksets(flat, target)
        assert got == sorted(want, key=sorted), (flat, target)
        found += len(got)
    assert found > 150


ENTRY_TYPES = [parse_typelist(t) for t in (
    "n", "n.L s", "n.L s n.R", "n n.R", "n.R n", "s n.L", "p", "n.L p",
    "s.L s", "s s.R")]


def _random_lexicon(rng, n_words=4):
    """Words of two or three entries: mostly common types, else one to
    three random ones."""
    def entry_type():
        if rng.random() < 0.7:
            return ENTRY_TYPES[int(rng.integers(0, len(ENTRY_TYPES)))]
        return tuple(_random_type(rng) for _ in range(int(rng.integers(1, 4))))

    return pregroup.PregroupLexicon(bases={"n": 2, "s": 2, "p": 2}, entries={
        f"w{w}": tuple(pregroup.LexEntry(f"w{w}", entry_type(), None, "pure")
                       for _ in range(int(rng.integers(2, 4))))
        for w in range(n_words)})


def test_parse_of_random_ambiguous_lexicons_vs_oracle():
    """Witnesses in order: per capped entry combination, the sorted
    oracle link sets of its flat string."""
    rng = np.random.default_rng(5)
    found = 0
    for trial in range(300):
        lexicon = _random_lexicon(rng)
        words = [f"w{int(rng.integers(0, 4))}"
                 for _ in range(int(rng.integers(1, 5)))]
        if trial % 2:
            target = TARGETS[trial % len(TARGETS)]
        else:  # what one combination is left with after greedy cancelling
            report = residual_report(lexicon, words)
            target = parse_typelist(report[int(rng.integers(0, len(report)))][1])
        cap = int(rng.choice([1, 2, 3, 5, 64]))
        choices = [range(len(lexicon.lookup(w))) for w in words]
        want = []
        for combo in islice(product(*choices), cap):
            flat = tuple(t for w, k in zip(words, combo)
                         for t in lexicon.lookup(w)[k].type)
            want += [(combo, flat, links) for links in
                     sorted(oracle_linksets(flat, target), key=sorted)]
        got = [(w.entry_indices, w.flat, w.links)
               for w in parse(lexicon, words, target, max_combinations=cap)]
        assert got == want, (words, target, cap)
        found += len(got)
    assert found > 50


def _rescanning_greedy(flat):
    """Cancel the leftmost adjacent pair, then rescan from the start, until
    stuck: the loop ``residual_report`` used before its stack pass."""
    reduced = list(flat)
    changed = True
    while changed:
        changed = False
        for i in range(len(reduced) - 1):
            a, b = reduced[i], reduced[i + 1]
            if a.base == b.base and b.z == a.z + 1:
                del reduced[i:i + 2]
                changed = True
                break
    return typelist_str(tuple(reduced))


def test_residual_report_matches_rescanning_greedy():
    rng = np.random.default_rng(8)
    cancelled = 0
    for _ in range(300):
        lexicon = _random_lexicon(rng)
        words = [f"w{int(rng.integers(0, 4))}"
                 for _ in range(int(rng.integers(1, 7)))]
        choices = [range(len(lexicon.lookup(w))) for w in words]
        want = []
        for combo in islice(product(*choices), 64):
            flat = tuple(t for w, k in zip(words, combo)
                         for t in lexicon.lookup(w)[k].type)
            want.append((combo, _rescanning_greedy(flat)))
            cancelled += len(flat) - len(want[-1][1].split())
        assert residual_report(lexicon, words) == want, words
    assert cancelled > 1000


def test_charge_mismatch_never_reaches_reductions(monkeypatch):
    lexicon = lexicon_from_json({"bases": {"n": 2, "s": 2}, "words": [
        {"word": "stone", "type": "n", "data": [0.0, 1.0]},
        {"word": "fish", "type": "n", "data": [1.0, 0.0]},
        {"word": "fish", "type": "n.L s", "data": [0.1, 0.2, 0.3, 0.4]}]})
    flats = []

    def counted(flat, target):
        flats.append(flat)
        return reductions(flat, target)

    reductions = pregroup._reductions
    monkeypatch.setattr(pregroup, "_reductions", counted)
    # "n n" has charge n: 2, s: 0 and the target s has n: 0, s: 1
    assert [w.entry_indices for w in parse(lexicon, ["stone", "fish"])] == \
        [(0, 1)]
    assert flats == [parse_typelist("n n.L s")]
    # the cap counts the skipped combination too
    assert parse(lexicon, ["stone", "fish"], max_combinations=1) == []
    assert flats == [parse_typelist("n n.L s")]


def test_long_sentence_parses_without_recursion_limit():
    # the enumeration goes one span further per "big"; at 1200 a recursive
    # one overflows the interpreter's default recursion limit
    lexicon = lexicon_from_json({"bases": {"n": 2, "s": 2}, "words": [
        {"word": "big", "type": "n n.L", "data": [1.0, 0.0, 0.0, 1.0]},
        {"word": "Alice", "type": "n", "data": [1.0, 0.4]},
        {"word": "sleeps", "type": "n.L s", "data": [0.3, 0.9, 0.2, 0.1]}]})
    (witness,) = parse(lexicon, ["big"] * 1200 + ["Alice", "sleeps"])
    assert witness.links == {(2 * k, 2 * k + 1) for k in range(1201)}
    assert witness.residual == (2402,)


@pytest.mark.parametrize("data", [
    [[1, 0, 5], [0, 1, 0]], [[1, 0], "2"], [[1, "2"], [0, 1]], [True, False],
    [[[1, 0]], [[0, 1]]], [True, 0.5], [[0.5, 0], [1, True]], [[1, 0], False],
    [float("nan"), 1.0], [float("inf"), 1.0], [[1, 0], [0, -float("inf")]],
    [[1, float("nan")], 0.5],
])
def test_data_elements_must_be_numbers_or_pairs(data):
    with pytest.raises(ValueError, match="'data'"):
        lexicon_from_json({"bases": {"n": 2}, "words": [
            {"word": "x", "type": "n", "data": data}]})


@pytest.mark.parametrize("data", [
    [1, -0.0], [[1, 0], [-0.0, 2.5]], [[1, -0.0], 0.5], [-3, [0.25, -1]],
])
def test_data_converts_like_complex_per_element(data):
    lexicon = lexicon_from_json({"bases": {"n": 2}, "words": [
        {"word": "x", "type": "n", "data": data}]})
    got = lexicon.payloads["word:x:0"].tensor.data
    want = np.array([complex(*x) if isinstance(x, list) else complex(x)
                     for x in data])
    assert got.tobytes() == want.tobytes()

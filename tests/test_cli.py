import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stringcalc
from stringcalc import tensors
from stringcalc.cli import main

DATA = Path(stringcalc.__file__).parent / "data"
SRC = Path(stringcalc.__file__).parent.parent
ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((ROOT / "bench" / "cli_expected.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_success(capsys):
    code, out, _ = run(capsys, "parse", str(DATA / "language.json"),
                       "Alice hates Bob")
    assert code == 0
    assert "links=(0,1),(3,4)" in out
    assert "residual=s" in out


def test_parse_negation_sentence(capsys):
    code, out, _ = run(capsys, "parse", str(DATA / "language.json"),
                       "Alice does not like Bob")
    assert code == 0
    assert "residual=s" in out


def test_parse_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "parse",
                       str(DATA / "language.json"), "Alice hates Bob")
    assert code == 0
    payload = json.loads(out)
    assert payload["witnesses"][0]["links"] == [[0, 1], [3, 4]]
    assert payload["witnesses"][0]["residual"] == "s"


def test_parse_failure_exit_1_with_residual(capsys):
    code, out, _ = run(capsys, "parse", str(DATA / "language.json"),
                       "Alice Bob")
    assert code == 1
    assert "stuck at [n n]" in out


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "parse", "/no/such/lexicon.json", "Alice")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["parse", str(DATA), "Alice"],
    ["normalize", str(DATA)],
    ["rate", str(DATA), "A", "B"],
], ids=["parse", "normalize", "rate"])
def test_directory_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_word_exit_2(capsys):
    code, _, err = run(capsys, "parse", str(DATA / "language.json"),
                       "Alice frobnicates")
    assert code == 2
    assert "frobnicates" in err


def test_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "parse", str(bad), "Alice")
    assert code == 2


def test_meaning_outputs_tensor_json(capsys):
    code, out, _ = run(capsys, "meaning", str(DATA / "language.json"),
                       "Alice hates Bob")
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == [2]
    assert len(payload["data"]) == 2


def test_meaning_thick_reports_entropy(capsys):
    code, out, _ = run(capsys, "meaning", str(DATA / "language.json"),
                       "queen", "--target", "n", "--thick")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["entropy"] - 1.584962500721156) < 1e-6


def test_thick_meaning_of_two_open_wires_splits_ket_from_bra(capsys):
    # a thick "n n" result is a (9, 9) array: two thick wires, not a matrix
    code, out, err = run(capsys, "meaning", str(DATA / "language.json"),
                         "Alice Bob", "--target", "n n", "--thick")
    assert (code, err) == (0, "")
    assert abs(json.loads(out)["entropy"]) < 1e-9  # a product of pure states


def test_thick_overlap_of_pure_meanings_is_thin_cosine_squared(capsys):
    args = ["similarity", str(DATA / "language.json"), "Alice Bob",
            "Bob Alice", "--target", "n n"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    cosine = float(out)
    code, out, _ = run(capsys, *args, "--thick", "--kind", "normalized-overlap")
    assert code == 0
    assert abs(float(out) - cosine ** 2) < 1e-9


def test_ambiguous_parse_exit_3(capsys, tmp_path):
    lex = {
        "bases": {"n": 2, "s": 2},
        "words": [
            {"word": "fish", "type": "n", "payload": "dense",
             "data": [1.0, 0.0]},
            {"word": "fish", "type": "n", "payload": "dense",
             "data": [0.0, 1.0]},
            {"word": "swims", "type": "n.L s", "payload": "dense",
             "data": [0.1, 0.2, 0.3, 0.4]},
        ],
    }
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(lex))
    code, _, err = run(capsys, "meaning", str(path), "fish swims")
    assert code == 3
    assert "--parse-index" in err
    # picking a parse resolves the ambiguity
    code2, out, _ = run(capsys, "meaning", str(path), "fish swims",
                        "--parse-index", "1")
    assert code2 == 0
    assert json.loads(out)["shape"] == [2]


def _two_parse_lexicon(tmp_path):
    lex = {
        "bases": {"n": 2, "s": 2},
        "words": [
            {"word": "fish", "type": "n", "data": [1.0, 0.0]},
            {"word": "fish", "type": "n", "data": [0.0, 1.0]},
            {"word": "swims", "type": "n.L s", "data": [0.1, 0.2, 0.3, 0.4]},
        ],
    }
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(lex))
    return str(path)


def test_parse_index_out_of_range_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "meaning", _two_parse_lexicon(tmp_path),
                         "fish swims", "--parse-index", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --parse-index 7")
    assert err.count("\n") == 1


def test_parse_index_negative_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "meaning", _two_parse_lexicon(tmp_path),
                         "fish swims", "--parse-index", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --parse-index -1")
    assert err.count("\n") == 1


def _lexicon_with(word):
    return {"bases": {"n": 2, "s": 2}, "words": [
        {"word": "Alice", "type": "n", "data": [1.0, 0.0]}, word]}


def _one_box(fields):
    """A diagram of one a-to-a box with the given extra node fields."""
    return {"inputs": ["a"], "outputs": ["a"], "nodes": [
        {"id": 0, "kind": "box", "dom": ["a"], "cod": ["a"], **fields}],
        "edges": [[-1, 0, 0, 0], [0, 0, -2, 0]]}


def _chain_of(nodes, **fields):
    """A diagram of one-in, one-out boxes, each given as ``(id, fields)``,
    wired from the input through ids 0 to n-1 to the output."""
    n = len(nodes)
    edges = [[k - 1 if k else -1, 0, k, 0] for k in range(n)]
    return {"inputs": ["a"], "outputs": ["a"], **fields,
            "nodes": [{"id": i, "kind": "box", "name": f"f{i}", **node}
                      for i, node in nodes],
            "edges": edges + [[n - 1, 0, -2, 0]]}


# several faults in one file; the loader names the first, in the order
# its docstring gives, whatever the order of a set
TWO_BAD_TOKENS = _chain_of([(1, {"dom": ["a.X"], "cod": ["a"]}),
                            (0, {"dom": ["a"], "cod": [".L"]})])
UNDECLARED_IN_NODES_AND_BOUNDARY = _chain_of(
    [(k, {"dom": [f"c{k}"], "cod": [f"c{k + 1}"]}) for k in range(8)],
    types={"a": True}, inputs=["b"], outputs=["b"])
BAD_ID_AND_KIND = _chain_of([(0, {"kind": 5, "dom": ["a"], "cod": ["a"]}),
                             ("1", {"dom": ["a"], "cod": ["a"]})])


def _snake_with(k, edge):
    """The shipped snake with edge *k* replaced."""
    data = json.loads((DATA / "snake.json").read_text())
    data["edges"][k] = edge
    return data


@pytest.mark.parametrize("argv, data, named", [
    # structural entries whose type does not fit their wiring
    (["meaning", "Alice does"], _lexicon_with(
        {"word": "does", "type": "n.L s", "payload": "structural:copula"}),
     "n.L s"),
    (["meaning", "Alice not"], _lexicon_with(
        {"word": "not", "type": "n.L s n.R n",
         "payload": "structural:negation", "data": [0.0, 1.0, 1.0, 0.0]}),
     "n.L s n.R n"),
    (["meaning", "Alice who"], _lexicon_with(
        {"word": "who", "type": "n.L s", "payload": "structural:relpron"}),
     "n.L s"),
    (["meaning", "Alice who"], _lexicon_with(
        {"word": "who", "type": "n", "payload": "structural:relpron"}),
     "got n"),
    # missing or wrongly typed fields
    (["parse", "Alice"], {"words": []}, "'bases'"),
    (["rate", "A", "A"], {"atoms": ["A"]}, "'rules'"),
    (["normalize"], {"nodes": [{"id": 0, "dom": [], "cod": []}]}, "'kind'"),
    (["parse", "Alice"], {"bases": {"n": "two"}, "words": []}, "'n'"),
    (["rate", "A", "A"], {"atoms": ["A"], "rules": [{"from": "A", "to": []}]},
     "'from'"),
    # wrongly typed list elements and values
    (["normalize"], {"types": {"a": True}, "inputs": ["b"], "outputs": ["b"],
                     "edges": [[-1, 0, -2, 0]]}, "'b'"),
    (["normalize"], {"inputs": [1], "outputs": [1], "edges": [[-1, 0, -2, 0]]},
     "'inputs'"),
    (["meaning", "Alice", "--target", "n"], {"bases": {"n": 2}, "words": [
        {"word": "Alice", "type": "n", "data": [{"re": 1}, 0.0]}]}, "'data'"),
    (["meaning", "Alice", "--target", "n"], {"bases": {"n": 0}, "words": [
        {"word": "Alice", "type": "n", "data": []}]}, "'n'"),
    (["meaning", "Alice", "--target", "n"], {"bases": {"n": True}, "words": [
        {"word": "Alice", "type": "n", "data": [1.0]}]}, "'n'"),
    (["meaning", "Alice", "--target", "n"], {"bases": {"n": 2}, "words": [
        {"word": "Alice", "type": "n", "data": [[1, 0, 5], 0.5]}]},
     "'data'"),
    (["meaning", "Alice", "--target", "n"], {"bases": {"n": 2}, "words": [
        {"word": "Alice", "type": "n", "data": ["2", 1.0]}]}, "'data'"),
    (["meaning", "Alice", "--target", "n"], {"bases": {"n": 2}, "words": [
        {"word": "Alice", "type": "n", "data": [True, 0.5]}]}, "'data'"),
    # an atom the presentation does not declare
    (["rate", "A", "Z"], {"atoms": ["A", "B"],
                          "rules": [{"from": ["A"], "to": ["B", "B"]}]}, "'Z'"),
    # a node kind that does not exist, and a cup and cap of the wrong shapes
    # whose snake would yank into a wire from a to b
    (["normalize"], {"inputs": ["a"], "outputs": ["a"], "nodes": [
        {"id": 0, "kind": "bogus", "dom": ["a"], "cod": ["a"]}],
        "edges": [[-1, 0, 0, 0], [0, 0, -2, 0]]}, "'bogus'"),
    # an identity is a bare wire, so no node kind is "id"
    (["normalize"], {"inputs": ["a"], "outputs": ["a"], "nodes": [
        {"id": 0, "kind": "id", "dom": ["a"], "cod": ["a"]}],
        "edges": [[-1, 0, 0, 0], [0, 0, -2, 0]]},
     "error: BadNode: node 0 has unknown kind 'id'\n"),
    (["normalize"], {"inputs": ["a"], "outputs": ["b"], "nodes": [
        {"id": 0, "kind": "cup", "dom": [], "cod": ["b", "b"]},
        {"id": 1, "kind": "cap", "dom": ["a", "b"], "cod": []}],
        "edges": [[-1, 0, 1, 0], [0, 0, 1, 1], [0, 1, -2, 0]]}, "node 0"),
    # diagram fields of the wrong type, or node ids that skip or repeat
    (["normalize"], {"inputs": ["a"], "outputs": ["a"],
                     "edges": [["x", 0, -2, 0]]}, "'edges'"),
    (["normalize"], {"inputs": ["a"], "outputs": ["a"], "nodes": [
        {"id": 3, "kind": "box", "dom": ["a"], "cod": ["a"]}],
        "edges": [[-1, 0, 0, 0], [0, 0, -2, 0]]}, "'id'"),
    (["normalize"], {"inputs": ["a"], "outputs": ["a"],
                     "edges": [[-1, 0, -2, 0]], "doubled": "false"},
     "'doubled'"),
    # JSON as Python reads it: NaN and Infinity are numbers there
    (["meaning", "Alice", "--target", "n"], {"bases": {"n": 2}, "words": [
        {"word": "Alice", "type": "n", "data": [float("nan"), 1.0]}]},
     "'data'"),
    # atoms and rule sides that are not lists of strings
    (["rate", "A", "A"], {"atoms": [1, "A"], "rules": []}, "'atoms'"),
    (["rate", "A", "B"], {"atoms": ["A", "B"],
                          "rules": [{"from": [["A"], "B"], "to": []}]},
     "'from'"),
    # box fields of the wrong type, and a types table that is not an object
    (["normalize"], _one_box({"name": 5}), "'name'"),
    (["normalize"], _one_box({"payload": [1]}), "'payload'"),
    (["normalize"], {"types": "a", "inputs": ["a"], "outputs": ["a"],
                     "edges": [[-1, 0, -2, 0]]}, "'types'"),
    # a target base the lexicon does not declare, and a negative step bound
    (["parse", "Alice", "--target", "q"], {"bases": {"n": 2}, "words": [
        {"word": "Alice", "type": "n", "data": [1.0, 0.0]}]}, "'q'"),
    (["meaning", "Alice", "--target", "q"], {"bases": {"n": 2}, "words": [
        {"word": "Alice", "type": "n", "data": [1.0, 0.0]}]}, "'q'"),
    (["rate", "A", "B", "--max-steps", "-1"], {"atoms": ["A", "B"],
     "rules": [{"from": ["A"], "to": ["B", "B"]}]}, "max_steps"),
    # an edge from a node that does not exist, and one to a negative port
    (["normalize"], _snake_with(1, [7, 0, 1, 1]), "BadEndpoint"),
    (["normalize"], _snake_with(2, [0, 1, -2, -2]), "BadEndpoint"),
    # several faults in one file, each pinned to its whole first message
    (["normalize"], TWO_BAD_TOKENS,
     "error: empty base in type token '.L'\n"),
    (["normalize"], UNDECLARED_IN_NODES_AND_BOUNDARY,
     "error: base 'c0' is not declared\n"),
    (["normalize"], BAD_ID_AND_KIND,
     "error: diagram node field 'id' must be int, got str\n"),
    # a tolerance that is NaN or negative (teleport reads no file)
    (["teleport", "--tol", "nan", "--dim", "2"], None, "tolerance"),
    (["teleport", "--tol", "-1", "--dim", "2"], None, "tolerance"),
    # a mixed word evaluated without --thick
    (["meaning", "queen who rocks", "--target", "n"],
     json.loads((DATA / "language.json").read_text()), "thick-wire"),
], ids=["copula-type", "negation-type", "relpron-no-repeat", "relpron-one-leg",
        "lexicon-no-bases", "presentation-no-rules", "node-no-kind",
        "dimension-not-int", "rule-from-not-list", "undeclared-base",
        "wiretype-not-string", "data-not-number", "dimension-zero",
        "dimension-bool", "data-pair-of-three", "data-numeric-string",
        "data-bool", "rate-undeclared-atom", "node-kind-unknown",
        "node-kind-id", "node-shape-misfit", "edge-not-four-ints",
        "node-id-not-dense", "doubled-not-bool", "data-not-finite",
        "atom-not-string", "rule-side-not-strings", "node-name-not-string",
        "node-payload-not-string", "types-not-object",
        "parse-undeclared-target", "meaning-undeclared-target",
        "rate-negative-max-steps", "edge-node-out-of-range",
        "edge-negative-port", "two-bad-tokens",
        "undeclared-in-nodes-and-boundary", "bad-id-and-kind", "tol-nan",
        "tol-negative", "mixed-word-thin"])
def test_malformed_input_exit_2_with_one_error_line(capsys, tmp_path, argv,
                                                    data, named):
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = [argv[0], str(path), *argv[1:]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_the_first_fault_is_named_under_any_string_hash_seed(tmp_path):
    """Ten undeclared bases, nine in the nodes and one on the boundary,
    in a process under two string hash seeds: a loader that picked the
    fault it names in set order would name another base, or a different
    one under each seed."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(UNDECLARED_IN_NODES_AND_BOUNDARY))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    errs = {subprocess.run(
        [sys.executable, "-m", "stringcalc.cli", "normalize", str(path)],
        env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
        text=True).stderr for seed in ("0", "1")}
    assert errs == {"error: base 'c0' is not declared\n"}


@pytest.mark.parametrize("argv", [["parse", "Alice"], ["normalize"],
                                  ["rate", "A", "B"]],
                         ids=["parse", "normalize", "rate"])
def test_json_nested_too_deeply_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


def test_deeply_nested_types_parse_like_flat_ones(capsys, tmp_path):
    lexicon = str(DATA / "language.json")
    flat = run(capsys, "parse", lexicon, "Alice hates Bob", "--target", "s")
    deep = "(" * 2000 + "s" + ")" * 2000
    assert run(capsys, "parse", lexicon, "Alice hates Bob",
               "--target", deep) == flat
    # a lexicon entry whose type is nested as deeply
    data = json.loads((DATA / "language.json").read_text())
    for entry in data["words"]:
        if entry["word"] == "Alice":
            entry["type"] = "(" * 3000 + "n" + ")" * 3000
    path = tmp_path / "deep-type.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "parse", str(path), "Alice hates Bob") == flat


def test_allocation_over_budget_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(tensors, "MAX_ELEMENTS", 4)
    code, out, err = run(capsys, "meaning", str(DATA / "language.json"),
                         "Alice hates Bob")
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget" in err


@pytest.mark.parametrize("argv", [["--dim", "2", "--trials", "100"],
                                  ["--dim", "3", "--trials", "1"]],
                         ids=["trial-states", "model"])
def test_teleport_over_budget_exit_4(capsys, monkeypatch, argv):
    # 2 x 100 trial-state elements, then 2 x 3**4 model elements, over 100
    monkeypatch.setattr(tensors, "MAX_ELEMENTS", 100)
    code, out, err = run(capsys, "teleport", *argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget" in err


def test_no_parse_meaning_exit_1(capsys):
    code, _, err = run(capsys, "meaning", str(DATA / "language.json"),
                       "Alice Bob")
    assert code == 1


def test_similarity(capsys):
    code, out, _ = run(capsys, "similarity", str(DATA / "hunting.json"),
                       "lion hunts pray", "cheetah hunts pray")
    assert code == 0
    value = float(out.strip())
    assert 0.0 <= value <= 1.0 + 1e-12


def test_similarity_identical_sentences_is_one(capsys):
    code, out, _ = run(capsys, "similarity", str(DATA / "language.json"),
                       "Alice hates Bob", "Alice hates Bob")
    assert code == 0
    assert abs(float(out.strip()) - 1.0) < 1e-9


def test_disambiguate_decreases_entropy(capsys):
    code, out, _ = run(capsys, "disambiguate", str(DATA / "language.json"),
                       "queen", "who rocks")
    assert code == 0
    lines = out.strip().splitlines()
    before = float(lines[0].split("\t")[1])
    after = float(lines[1].split("\t")[1])
    assert after < before


def test_disambiguate_pure_word_prints_plus_zero(capsys):
    code, out, _ = run(capsys, "disambiguate", str(DATA / "language.json"),
                       "Alice", "")
    assert code == 1  # no decrease from zero
    assert out == "entropy before\t0.000000000\nentropy after\t0.000000000\n"


def test_similarity_json_format(capsys):
    argv = ["similarity", str(DATA / "hunting.json"), "lion hunts pray",
            "cheetah hunts pray"]
    code, text, _ = run(capsys, *argv)
    json_code, out, err = run(capsys, "--format", "json", *argv)
    assert (json_code, err) == (code, "") and code == 0
    payload = json.loads(out)
    assert list(payload) == ["similarity"]
    assert text == f"{payload['similarity']:.12f}\n"


def test_disambiguate_json_format(capsys):
    argv = ["disambiguate", str(DATA / "language.json"), "queen", "who rocks"]
    code, text, _ = run(capsys, *argv)
    json_code, out, err = run(capsys, "--format", "json", *argv)
    assert (json_code, err) == (code, "") and code == 0
    payload = json.loads(out)
    assert list(payload) == ["after", "before"]
    assert text == (f"entropy before\t{payload['before']:.9f}\n"
                    f"entropy after\t{payload['after']:.9f}\n")


def test_normalize_snake_to_identity(capsys):
    code, out, _ = run(capsys, "normalize", str(DATA / "snake.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == []
    assert payload["edges"] == [[-1, 0, -2, 0]]


def test_normalize_invalid_diagram_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"inputs": ["a"], "outputs": [],
                                "nodes": [], "edges": []}))
    code, _, err = run(capsys, "normalize", str(path))
    assert code == 2


def test_teleport_tsv(capsys):
    code, out, _ = run(capsys, "teleport", "--dim", "2", "--trials", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "branch\tfidelity\tprobability"
    assert len(lines) == 5
    for line in lines[1:]:
        _, fid, prob = line.split("\t")
        assert abs(float(fid) - 1.0) < 1e-9
        assert abs(float(prob) - 0.25) < 1e-9


@pytest.mark.parametrize("flag", ["--seed=7", "--tol=0.5"])
def test_teleport_flags_belong_to_teleport(capsys, flag):
    """Only teleport reads --seed and --tol: elsewhere they are an error."""
    argv = ["parse", str(DATA / "language.json"), "Alice hates Bob"]
    with pytest.raises(SystemExit) as exit_:
        main([flag, *argv])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert run(capsys, "teleport", flag, "--dim", "2", "--trials", "2")[0] == 0


def test_rate_text_output(capsys):
    code, out, _ = run(capsys, "rate", str(DATA / "doubler.json"),
                       "A", "B", "--nmax", "3")
    assert code == 0
    assert out.strip() == "2/1 at n=1,m=2"


def test_rate_unreachable_exit_1(capsys):
    code, out, _ = run(capsys, "rate", str(DATA / "catalyst.json"),
                       "A", "B")
    assert code == 1


def test_rate_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "rate",
                       str(DATA / "plumber.json"), "A", "A")
    assert code == 0
    payload = json.loads(out)
    assert payload["rate"] == [1, 1]


def test_outputs_are_deterministic(capsys):
    argvs = [
        ["meaning", str(DATA / "language.json"), "Alice does not like Bob"],
        ["--format", "json", "teleport", "--dim", "3", "--trials", "4"],
        ["--format", "json", "parse", str(DATA / "language.json"),
         "Alice does not like Bob"],
    ]
    for argv in argvs:
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


@pytest.mark.parametrize("case", EXPECTED,
                         ids=[f"{k}-{case['argv'][0]}"
                              for k, case in enumerate(EXPECTED)])
def test_readme_commands_are_byte_identical(case):
    """Each README command, run as a process from the repository root,
    prints exactly the recorded stdout, exits with the recorded code and
    writes nothing to stderr, under two string hash seeds."""
    path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        got = subprocess.run([sys.executable, "-m", "stringcalc.cli",
                              *case["argv"]], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        assert (got.stdout, got.returncode, got.stderr) == \
            (case["stdout"], case["exit"], ""), seed

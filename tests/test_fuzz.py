"""Seeded mutation sweep over every input boundary of the command line.

Each shipped data file is mutated structurally, a value replaced by an
odd one, a key deleted or a list element duplicated, and run through
``cli.main`` with the commands that read it.  The command-line arguments
(targets, sentences and numeric flags) are mutated the same way.  The
judge knows nothing of the library: the exit code is 0-4, no exception
escapes, and stderr is empty or one line starting ``error:``.
"""

import json
import random
from pathlib import Path

import pytest

import stringcalc
from stringcalc.cli import main

DATA = Path(stringcalc.__file__).parent / "data"
MUTANTS_PER_FILE = 300
ARGUMENT_MUTANTS = 400
DEEP = 3000  # far past Python's default recursion limit of 1000

# the commands that read each shipped file, with that file as "{}"
COMMANDS = {
    "language.json": [
        ["parse", "{}", "Alice does not like Bob"],
        ["meaning", "{}", "Alice hates Bob"],
        ["meaning", "{}", "queen who rocks", "--target", "n", "--thick"],
        ["disambiguate", "{}", "queen", "who rocks"],
    ],
    "hunting.json": [
        ["similarity", "{}", "lion hunts pray", "cheetah hunts pray"],
        ["parse", "{}", "lion hunts pray"],
    ],
    "snake.json": [["normalize", "{}"]],
    "doubler.json": [["rate", "{}", "A", "B"]],
    "catalyst.json": [["rate", "{}", "A", "B"]],
    "plumber.json": [["rate", "{}", "A", "A", "--nmax", "2"]],
}

ODD_VALUES = [
    None, True, False, 0, 1, -1, 2, 3, 10 ** 20, -(10 ** 20), 0.5, -0.0,
    float("nan"), float("inf"), "", "x", "n", "s.R", "n.L s", "(", ")",
    ".L", "(n s).L", "A", "structural:copula", "structural:relpron",
    "box", "cup", [], [1], [[]], ["A"], ["n", 1], {}, {"x": 1},
    "(" * DEEP + "n" + ")" * DEEP,
]


def _paths(value, path=()):
    """Every position in a JSON value, the root included."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(data, rng: random.Random):
    """A copy of *data* with one position changed."""
    data = json.loads(json.dumps(data))
    path = rng.choice([p for p in _paths(data) if p])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = rng.randrange(3)
    if action == 0 and isinstance(parent, dict):
        del parent[key]
    elif action == 1 and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    else:
        parent[key] = rng.choice(ODD_VALUES)
    return data


def _judge(capsys, argv, failures):
    try:
        code = main(argv)
    except Exception as exc:
        failures.append(f"{argv[:2]}: {type(exc).__name__}: {exc}"[:300])
        capsys.readouterr()
        return
    err = capsys.readouterr().err
    if code not in range(5) or err and (
            not err.startswith("error:") or err.count("\n") != 1):
        failures.append(f"{argv[:2]}: exit {code}, stderr {err[:200]!r}")


@pytest.mark.parametrize("name", list(COMMANDS))
def test_mutated_shipped_file_exits_cleanly(capsys, tmp_path, name):
    rng = random.Random(name)
    original = json.loads((DATA / name).read_text())
    texts = [json.dumps(_mutate(original, rng))
             for _ in range(MUTANTS_PER_FILE)]
    texts.append("[" * 200000 + "]" * 200000)  # deeper than json reads
    path = tmp_path / name
    failures = []
    for text in texts:
        path.write_text(text)
        for argv in COMMANDS[name]:
            _judge(capsys, [str(path) if a == "{}" else a for a in argv],
                   failures)
    assert not failures, f"{len(failures)} failures, first: {failures[:3]}"


WORDS = ["Alice", "Bob", "hates", "likes", "does", "not", "like", "queen",
         "who", "rocks", "Alice", "hates", "zebra", "(", ".L"]
TYPE_PIECES = ["(", ")", " ", "n", "s", ".L", ".R", ".X", "q", ".", "n.L.R"]
FLAGS = {
    "--parse-index": ["-1", "0", "1", "7", str(10 ** 20)],
    "--nmax": ["-1", "0", "1", "4"],
    "--max-steps": ["-1", "0", "1", "5"],
    "--dim": ["-1", "0", "1", "2", "3", str(10 ** 6)],
    "--trials": ["-1", "0", "1", "3", str(10 ** 9)],
    "--tol": ["nan", "inf", "-inf", "-1", "0", "1e-300", "0.5", "1e300"],
    "--seed": ["-1", "0", "7", str(2 ** 70)],
}


def _sentence(rng):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 6)))


def _target(rng):
    if rng.random() < 0.05:
        return "(" * DEEP + rng.choice(["s", "n", "n.L s"]) + ")" * DEEP
    return "".join(rng.choice(TYPE_PIECES) for _ in range(rng.randint(0, 8)))


def _flag(rng, *names):
    name = rng.choice(names)
    return [f"{name}={rng.choice(FLAGS[name])}"]


def _arguments(rng: random.Random) -> list[str]:
    """One command line with mutated sentences, targets or numbers."""
    lexicon = str(DATA / "language.json")
    command = rng.randrange(6)
    if command == 0:
        return ["parse", lexicon, _sentence(rng), f"--target={_target(rng)}"]
    if command == 1:
        return ["meaning", lexicon, _sentence(rng),
                f"--target={_target(rng)}", *_flag(rng, "--parse-index"),
                *(["--thick"] if rng.random() < 0.5 else [])]
    if command == 2:
        return ["similarity", lexicon, _sentence(rng), _sentence(rng),
                f"--target={_target(rng)}"]
    if command == 3:
        return ["disambiguate", lexicon, rng.choice(WORDS),
                _sentence(rng), f"--target={_target(rng)}"]
    if command == 4:
        seed = _flag(rng, "--seed") if rng.random() < 0.3 else []
        return ["teleport", *seed, *_flag(rng, "--tol"),
                *_flag(rng, "--dim", "--trials")]
    return ["rate", str(DATA / rng.choice(["doubler.json", "catalyst.json"])),
            rng.choice(["A", "B", "C", "Z", ""]), rng.choice(["A", "B", "Z"]),
            *_flag(rng, "--nmax", "--max-steps")]


def test_mutated_arguments_exit_cleanly(capsys):
    rng = random.Random("arguments")
    failures = []
    for _ in range(ARGUMENT_MUTANTS):
        _judge(capsys, _arguments(rng), failures)
    assert not failures, f"{len(failures)} failures, first: {failures[:3]}"

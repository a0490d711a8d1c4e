"""The benchmark's four seeded workloads.

A workload is a fixed cycle of operations generated from a seed.  An
operation is one user-level request: ``run`` does the work that is
timed and returns what a caller would get; ``check`` compares that
result with a reference from :mod:`refs`, outside the timed region.
``tag`` names the size class that the per-layer sweep metrics group by.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from stringcalc import cli, pregroup, protocols, resources, rewrite, tensors
from stringcalc import diagram as dg
from stringcalc.types import WireType

import refs
from refs import require, require_close

NAMES = ("sentences_long", "sentences_wide", "rewrite_search", "cli")


@dataclass
class Op:
    kind: str
    tag: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    name: str
    cycle: list[Op]
    traced_cycle: list[Op]  # what the traced pass runs; in-process for cli
    warmup: int = 0         # leading ops of the cycle run once in set-up
    child_rss_kb: list[int] = field(default_factory=list)  # cli processes


def build(name: str, seed: int, root: Path) -> Workload:
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "sentences_long":
        return _sentences_long(rng)
    if name == "sentences_wide":
        return _sentences_wide(rng)
    if name == "rewrite_search":
        return _rewrite_search(rng, root)
    if name == "cli":
        return _cli(rng, root)
    raise ValueError(f"unknown workload {name!r}")


# -- loaders and dumpers the tracer attributes to the load/diagram layers ----


def load_lexicon_text(text: str):
    """JSON text to lexicon, as ``stringcalc.cli`` reads a lexicon file."""
    return pregroup.lexicon_from_json(json.loads(text))


def load_diagram_text(text: str):
    return dg.diagram_from_json(json.loads(text))


def dump_diagram_text(d) -> str:
    return json.dumps(dg.diagram_to_json(d))


# -- sentences ----------------------------------------------------------------

CATEGORY_TYPES = {"adj": "n n.R", "noun": "n", "verb": "n.L s n.R"}
WORDS_PER_CATEGORY = 8
# One seeded word per category (3 of 24, a share of 1/8) gets a second
# entry, of the next category in this cycle.  Sentences use first entries
# only and make 1/8 of their content words ambiguous ones, so the second
# entries multiply parse's entry combinations without changing the
# derivation.
SECOND_CATEGORY = {"adj": "noun", "noun": "verb", "verb": "adj"}
AMBIGUOUS_SHARE = 1 / 8


class MissingDerivation(Exception):
    """``parse`` did not return the derivation the sentence was built from."""


@dataclass
class Lexicon:
    text: str                       # the JSON a lexicon file would hold
    plain: dict[str, list[str]]     # category -> words with one entry
    ambiguous: dict[str, str]       # category -> its word with two entries
    arrays: dict[str, np.ndarray]   # word -> payload of its first entry
    negation: np.ndarray            # left-acting matrix of "not"


@dataclass
class Sentence:
    words: list[str]
    links: frozenset               # the generator's derivation
    meaning: np.ndarray            # thin reference meaning


def _pairs(arr: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in arr.ravel()]


def make_lexicon(rng, n: int, s: int) -> Lexicon:
    shapes = {"adj": (n, n), "noun": (n,), "verb": (n, s, n)}
    scales = {"adj": n ** -0.5, "noun": 1.0, "verb": 1.0 / n}

    def values(cat):
        shape = shapes[cat]
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a = a * scales[cat]
        return np.round(a.real, 6) + 1j * np.round(a.imag, 6)

    entries, arrays, plain, ambiguous = [], {}, {}, {}
    for cat, typ in CATEGORY_TYPES.items():
        words = [f"{cat}{i}" for i in range(WORDS_PER_CATEGORY)]
        ambiguous[cat] = str(rng.choice(words))
        plain[cat] = [w for w in words if w != ambiguous[cat]]
        for word in words:
            arrays[word] = values(cat)
            entries.append({"word": word, "type": typ, "payload": "dense",
                            "data": _pairs(arrays[word])})
    for cat, word in ambiguous.items():
        other = SECOND_CATEGORY[cat]
        entries.append({"word": word, "type": CATEGORY_TYPES[other],
                        "payload": "dense", "data": _pairs(values(other))})
    negation = np.round(rng.standard_normal((s, s)), 6).astype(complex)
    entries += [
        {"word": "does", "type": "n.L s s.R n", "payload": "structural:copula"},
        {"word": "not", "type": "n.L s s.R n", "payload": "structural:negation",
         "data": _pairs(negation)},
        {"word": "who", "type": "n.L n s.R n", "payload": "structural:relpron"},
    ]
    text = json.dumps({"bases": {"n": n, "s": s}, "words": entries})
    return Lexicon(text, plain, ambiguous, arrays, negation)


FRAME_WORDS = {"plain": (), "does": ("does",), "not": ("does", "not")}


def make_sentence(rng, lex: Lexicon, length: int, frame: str,
                  relatives: int) -> Sentence:
    """A sentence of exactly *length* words with its derivation and meaning.

    The frame is ``NP V NP``, ``NP does V NP`` or ``NP does not V NP``; a
    noun phrase is ``N who V NP`` (*relatives* of them in all) or
    adjectives then a noun.  Subject and object get half of the relative
    clauses and adjectives each, and every eighth content word is an
    ambiguous one, so the types, and with them the cost of parse and
    evaluate, depend only on the arguments; the seed picks the words.
    Links are flat-type index pairs, as in
    :class:`stringcalc.pregroup.ParseWitness`.
    """
    structural = len(FRAME_WORDS[frame]) + relatives
    adjectives = length - structural - 3 - 2 * relatives
    content = length - structural
    k = round(AMBIGUOUS_SHARE * content)
    ambiguous = {int((j + 0.5) * content / k) for j in range(k)}
    words: list[str] = []
    links: set[tuple[int, int]] = set()
    size = [0]

    def add(word: str, arity: int) -> int:
        start = size[0]
        words.append(word)
        size[0] += arity
        return start

    def content_word(cat: str) -> tuple[int, str]:
        slot = sum(w not in ("does", "not", "who") for w in words)
        word = (lex.ambiguous[cat] if slot in ambiguous
                else str(rng.choice(lex.plain[cat])))
        return add(word, len(CATEGORY_TYPES[cat].split())), word

    def noun_phrase(rel: int, adjs: int) -> tuple[int, np.ndarray]:
        if rel:
            q, noun = content_word("noun")
            w = add("who", 4)
            v, verb = content_word("verb")
            links.update({(q, w), (w + 3, v), (w + 2, v + 1)})
            head, obj = noun_phrase(rel - 1, adjs)
            links.add((v + 2, head))
            # who copies the noun and discards the clause's sentence wire
            clause = np.einsum("jtk,k->j", lex.arrays[verb], obj)
            return w + 1, lex.arrays[noun] * clause
        starts, names = zip(*[content_word("adj") for _ in range(adjs)]) \
            if adjs else ((), ())
        q, noun = content_word("noun")
        for a, b in zip(starts, starts[1:] + (q,)):
            links.add((a + 1, b))
        meaning = lex.arrays[noun]
        for a in reversed(names):
            meaning = lex.arrays[a] @ meaning
        return (starts[0] if starts else q), meaning

    rel1, adj1 = relatives // 2, adjectives // 2
    left, subj = noun_phrase(rel1, adj1)
    sent = None
    for word in FRAME_WORDS[frame]:
        d = add(word, 4)
        links.add((left, d))
        if sent is not None:
            links.add((sent, d + 1))
        left, sent = d + 3, d + 2
    v, verb = content_word("verb")
    links.add((left, v))
    if sent is not None:
        links.add((sent, v + 1))
    head, obj = noun_phrase(relatives - rel1, adjectives - adj1)
    links.add((v + 2, head))
    meaning = np.einsum("i,isk,k->s", subj, lex.arrays[verb], obj)
    if frame == "not":
        meaning = lex.negation @ meaning
    return Sentence(words, frozenset(links), meaning)


def _derive(lexicon, sentence: Sentence):
    """Parse and build the diagram of the generator's own derivation."""
    witnesses = pregroup.parse(lexicon, sentence.words)
    for w in witnesses:
        if w.links == sentence.links and not any(w.entry_indices):
            return pregroup.grammar_diagram(sentence.words, w, lexicon)
    raise MissingDerivation(
        f"derivation of a {len(sentence.words)}-word sentence is not among "
        f"{len(witnesses)} witnesses")


# Ops of each length per cycle, thin and thick alternating, each
# consecutive pair sharing a frame, "not" first.  Of 38 ops, p50 falls
# among the 35-word ops and p90 among the 67-word ones, away from the
# jumps in cost between lengths.  The two 131-word ops (about 4.5 s each
# on a 2-core Xeon VM, a third of a timed run between them) run in the
# traced pass only, for the per-layer size sweep.
LONG_MIX = {19: 14, 35: 16, 67: 8}
LONG_TRACED_MIX = {131: 2}
LONG_FRAMES = ("not", "does", "plain")
WORDS_PER_RELATIVE = 16  # relative clauses per sentence: length // 16


def _long_plan(mix):
    return [(length, LONG_FRAMES[k // 2 % 3], k % 2 == 1)
            for length, count in mix.items() for k in range(count)]


def _sentences_long(rng) -> Workload:
    lex = make_lexicon(rng, n=4, s=2)
    lexicon = pregroup.lexicon_from_json(json.loads(lex.text))
    timed = _long_plan(LONG_MIX)
    plan = [timed[p] for p in rng.permutation(len(timed))]
    plan += _long_plan(LONG_TRACED_MIX)
    results: dict[int, Any] = {}
    ops, last_thin = [], None
    for i, (length, frame, thick) in enumerate(plan):
        sentence = make_sentence(rng, lex, length, frame,
                                 length // WORDS_PER_RELATIVE)
        compare = None if thick else last_thin
        if not thick:
            last_thin = (i, sentence.meaning)
        ops.append(_long_op(i, lexicon, sentence, thick, compare, results))
    return Workload("sentences_long", ops[:len(timed)], ops)


def _long_op(i, lexicon, sentence, thick, compare, results) -> Op:
    """Parse, build, evaluate; thick adds entropy, thin compares by cosine."""

    def run():
        d = _derive(lexicon, sentence)
        t = tensors.evaluate(d, lexicon.model("thick" if thick else "thin"))
        results[i] = t
        if thick:
            return t, tensors.entropy(t)
        if compare is None:
            return t, None
        return t, tensors.similarity(t, results[compare[0]], "cosine")

    def check(out):
        t, extra = out
        if thick:
            refs.check_thick(t, sentence.meaning, extra)
            return
        refs.check_thin(t, sentence.meaning)
        if compare is not None:
            require_close(extra, refs.cosine(sentence.meaning, compare[1]),
                          "cosine similarity")

    kind = "thick" if thick else "thin"
    return Op(f"sentence.{kind}", f"L{len(sentence.words)}", run, check)


WIDE_LENGTHS = tuple(range(11, 20))
WIDE_REPEATS = 2
# Only NP V NP frames with adjectives.  At n=16 evaluate's thick arrays
# for the structural words are dense: each swap in the copula and
# negation wiring is 256x16x16x256 complex (268 MB; an op then takes
# 0.7-1.5 s and 1.4 GB on a 2-core Xeon VM), and the relative pronoun's
# payload is 256x256x16x256 (4.3 GB), with no allocation budget to stop
# it.


def _sentences_wide(rng) -> Workload:
    lex = make_lexicon(rng, n=16, s=4)
    lengths = [L for L in WIDE_LENGTHS for _ in range(WIDE_REPEATS)]
    sentences = [make_sentence(rng, lex, int(L), "plain", 0)
                 for L in rng.permutation(lengths)]
    results: dict[int, Any] = {}
    ops = [_wide_op(i, lex, sentences, results) for i in range(len(sentences))]
    return Workload("sentences_wide", ops, ops, warmup=2)


def _wide_op(i, lex: Lexicon, sentences, results) -> Op:
    """Load the lexicon, derive, evaluate thin and thick, entropy, overlap."""
    sentence = sentences[i]
    prev = max(i - 1, 0)

    def run():
        lexicon = load_lexicon_text(lex.text)
        d = _derive(lexicon, sentence)
        thin = tensors.evaluate(d, lexicon.model("thin"))
        thick = tensors.evaluate(d, lexicon.model("thick"))
        results[i] = thick
        overlap = tensors.similarity(thick, results[prev], "normalized-overlap")
        return thin, thick, tensors.entropy(thick), overlap

    def check(out):
        thin, thick, entropy, overlap = out
        refs.check_thin(thin, sentence.meaning)
        refs.check_thick(thick, sentence.meaning, entropy)
        want = refs.cosine(sentence.meaning, sentences[prev].meaning) ** 2
        require_close(overlap, want, "normalized overlap")

    return Op("sentence.wide", f"L{len(sentence.words)}", run, check)


# -- rewriting, resource search, teleportation -------------------------------

# Sizes step finely so that op costs form a continuum, without jumps for
# p50 and p90 to sit on.
SNAKE_YANKS = tuple(range(50, 401, 25))
PERMUTATION_WIRES = tuple(range(8, 33))
RATE_NMAX = (8, 16, 24)
CONVERT_COPIES = (6, 8, 10)
TELEPORT_DIMS = tuple(range(2, 9))
SHIPPED_RATES = (("plumber", "A", "A", Fraction(1)),
                 ("catalyst", "A", "B", Fraction(0)),
                 ("doubler", "A", "B", Fraction(2)))


def _rewrite_search(rng, root: Path) -> Workload:
    ops = [_snake_op(rng, k) for k in SNAKE_YANKS]
    ops += [_permutation_op(rng, w) for w in PERMUTATION_WIRES]
    data = root / "src" / "stringcalc" / "data"
    for name, a, b, rate in SHIPPED_RATES:
        pres = resources.load_presentation(data / f"{name}.json")
        ops += [_rate_op(pres, a, b, n_max, rate, None) for n_max in RATE_NMAX]
    pres, weights = _weighted_presentation(rng, (1, 2, 3))
    heavy, light = (next(a for a, w in weights.items() if w == x) for x in (3, 2))
    ops += [_rate_op(pres, heavy, light, n_max, Fraction(3, 2), (2, 3))
            for n_max in RATE_NMAX]
    pres, weights = _weighted_presentation(rng, (1, 2, 3, 5))
    for k in CONVERT_COPIES:
        ops += [_convert_op(pres, weights, k, reachable)
                for reachable in (True, False)]
    ops += [_teleport_op(int(rng.integers(1 << 30)), d) for d in TELEPORT_DIMS]
    ops = [ops[p] for p in rng.permutation(len(ops))]
    return Workload("rewrite_search", ops, ops)


def _snake_op(rng, yanks: int) -> Op:
    """A chain of yanks, round-tripped through JSON, normalized to a wire."""
    base, z = str(rng.choice(["a", "b"])), int(rng.integers(-1, 2))
    t = WireType(base, z)

    def run():
        wire = dg.identity((t,))
        d = wire
        for i in range(yanks):
            if i % 2:
                y = (dg.cup(base, z - 1) @ wire) >> (wire @ dg.cap(base, z - 1))
            else:
                y = (wire @ dg.cup(base, z)) >> (dg.cap(base, z) @ wire)
            d = d >> y
        nf = rewrite.normalize(load_diagram_text(dump_diagram_text(d)))
        return nf, nf.diagram == wire

    def check(out):
        nf, same = out
        _check_identity(nf.diagram, (t,))
        require(same, "normal form differs structurally from the identity")
        require([r for r, _ in nf.rewrite_trace] == ["snake"] * yanks,
                f"expected {yanks} snake rewrites")

    return Op("snake", f"Y{yanks}", run, check)


def _permutation_op(rng, width: int) -> Op:
    """Reversal then its inverse, normalized back to the identity."""
    types = tuple(WireType(str(rng.choice(["a", "b"])), int(rng.integers(-1, 2)))
                  for _ in range(width))
    perm = list(reversed(range(width)))

    def run():
        p = dg.permutation(types, perm)
        q = dg.permutation(p.cod, perm)  # a reversal is its own inverse
        return rewrite.normalize(p >> q)

    def check(nf):
        _check_identity(nf.diagram, types)
        require(len(nf.rewrite_trace) == width * (width - 1) // 2,
                f"{len(nf.rewrite_trace)} rewrites for {width} wires")

    return Op("permutation", f"W{width}", run, check)


def _check_identity(d, types) -> None:
    require(not d.nodes, f"normal form keeps {len(d.nodes)} nodes")
    require(d.dom == d.cod == tuple(types), "normal form has the wrong boundary")
    require(sorted(d.wires) == [(dg.IN, k, dg.OUT, k) for k in range(len(types))],
            "normal form is not straight wires")


def _weighted_presentation(rng, weights):
    """Atoms of increasing positive weights; every rule conserves weight.

    Each atom splits into the next lighter one plus the difference, and
    each split has its reverse merge, so every multiset of the same total
    weight is reachable: the BFS is finite but visits every partition of
    the weight.  The seed picks the atom names and the rule order.
    """
    names = [str(x) for x in rng.permutation(list("PQRSTUVW"))[:len(weights)]]
    atom = dict(zip(weights, names))
    splits = [([atom[w]], [atom[lighter], atom[w - lighter]])
              for lighter, w in zip(weights, weights[1:])]
    rules = splits + [(rhs, lhs) for lhs, rhs in splits]
    rules = [rules[p] for p in rng.permutation(len(rules))]
    pres = resources.presentation_from_json({
        "atoms": names, "rules": [{"from": l, "to": r} for l, r in rules]})
    return pres, {atom[w]: w for w in weights}


def _rate_op(pres, a: str, b: str, n_max: int, rate: Fraction, at) -> Op:
    def run():
        return resources.conversion_rate(a, b, pres, n_max=n_max)

    def check(result):
        require(result.rate == rate, f"rate {result.rate} != {rate}")
        if rate:
            require(Fraction(result.m, result.n) == rate, "m/n is not the rate")
        if at is not None:  # seeded presentation: the first n that reaches it
            require((result.n, result.m) == at, f"rate at {(result.n, result.m)}")
            reached = refs.shortest([a] * at[0], [b] * at[1], pres.rules,
                                    pres.atoms, result.max_steps)
            require(reached is not None, "rate witness is unreachable")

    return Op("rate", f"N{n_max}", run, check)


def _convert_op(pres, weights: dict[str, int], copies: int,
                reachable: bool) -> Op:
    """Heavy atoms to all units, or to one unit more (another weight)."""
    heavy = max(weights, key=weights.get)
    unit = min(weights, key=weights.get)
    source = [heavy] * copies
    target = [unit] * (copies * weights[heavy] + (0 if reachable else 1))
    expected: list = []

    def run():
        return resources.convertible(source, target, pres)

    def check(witness):
        if refs.weight(source, weights) != refs.weight(target, weights):
            require(witness is None, "conversion breaks weight conservation")
            return
        if not expected:  # the reference BFS is computed once per run
            expected.append(refs.shortest(source, target, pres.rules,
                                          pres.atoms, max_steps=64))
        if expected[0] is None:
            require(witness is None, "conversion found beyond the step bound")
            return
        require(witness is not None, "reachable target reported unreachable")
        require(refs.replay(source, target, witness.steps, pres.rules),
                "witness does not replay")
        require(len(witness.steps) == expected[0],
                f"witness has {len(witness.steps)} steps, shortest is {expected[0]}")

    return Op("convert", f"K{copies}", run, check)


def _teleport_op(seed: int, dim: int, trials: int = 4, tol: float = 1e-9) -> Op:
    def run():
        return protocols.verify_teleportation(dim, trials, tolerance=tol, seed=seed)

    def check(reports):
        require([r.branch for r in reports] == list(range(dim * dim)),
                "branches missing")
        for r in reports:
            require(r.fidelity >= 1 - tol, f"branch {r.branch} fidelity {r.fidelity}")
            require(abs(r.probability - 1 / dim ** 2) <= tol,
                    f"branch {r.branch} probability {r.probability}")

    return Op("teleport", f"D{dim}", run, check)


# -- the command line ---------------------------------------------------------

CLI_EXPECTED = Path(__file__).resolve().parent / "cli_expected.json"


def _cli(rng, root: Path) -> Workload:
    commands = json.loads(CLI_EXPECTED.read_text())
    order = [int(p) for p in rng.permutation(len(commands))]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    rss: list[int] = []
    cycle = [_cli_process_op(commands[p], root, env, rss) for p in order]
    traced = [_cli_inprocess_op(commands[p], root) for p in order]
    return Workload("cli", cycle, traced, child_rss_kb=rss)


def _cli_check(expected):
    def check(out):
        code, stdout = out
        require(code == expected["exit"], f"exit {code} != {expected['exit']}")
        require(stdout == expected["stdout"].encode(),
                "stdout differs from the captured output")
    return check


def _cli_process_op(expected, root: Path, env, rss: list[int]) -> Op:
    """One ``python -m stringcalc.cli`` process; its max RSS goes to *rss*."""
    argv = [sys.executable, "-m", "stringcalc.cli", *expected["argv"]]

    def run():
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        rss.append(usage.ru_maxrss)
        return proc.returncode, stdout

    return Op("cli", expected["argv"][0], run, _cli_check(expected))


def _cli_inprocess_op(expected, root: Path) -> Op:
    """The same command through ``cli.main`` in this process."""
    argv = [str(root / a) if a.startswith("src/") else a for a in expected["argv"]]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue().encode()

    return Op("cli", expected["argv"][0], run, _cli_check(expected))

"""Batch command-line front end.

Subcommands: ``parse``, ``meaning``, ``similarity``, ``disambiguate``,
``normalize``, ``teleport``, ``rate``.  All randomness is seeded, so
repeated runs with the same inputs are byte-identical.

Exit codes: 0 success, 1 domain negative (no parse, verification
failure, no entropy decrease), 2 input error, 3 ambiguous parse,
4 resource exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import diagram as dg
from . import pregroup, protocols, resources, rewrite, tensors
from .errors import (AmbiguousParse, InvalidDiagram, NoParse, StateExplosion,
                     StringCalcError, UnknownBase, UnknownWord)
from .types import typelist_str

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_AMBIGUOUS = 3
EXIT_EXHAUSTED = 4

# An error exits with the code of its nearest class here; any other
# exception is a bug and keeps its traceback.
EXIT_CODES = {ValueError: EXIT_INPUT, FileNotFoundError: EXIT_INPUT,
              UnknownWord: EXIT_INPUT, UnknownBase: EXIT_INPUT,
              InvalidDiagram: EXIT_INPUT,
              AmbiguousParse: EXIT_AMBIGUOUS, StateExplosion: EXIT_EXHAUSTED,
              StringCalcError: EXIT_NEGATIVE}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stringcalc",
        description="string diagrams, pregroup parsing, tensor meanings")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--tol", type=float, default=1e-9)
    top.add_argument("--format", choices=("text", "json", "tsv"),
                     default="text")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="type-reduce a sentence")
    p.add_argument("lexicon")
    p.add_argument("sentence")
    p.add_argument("--target", default="s")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("meaning", help="evaluate a sentence to a tensor")
    p.add_argument("lexicon")
    p.add_argument("sentence")
    p.add_argument("--target", default="s")
    p.add_argument("--thick", action="store_true",
                   help="density-matrix semantics; also prints entropy")
    p.add_argument("--parse-index", type=int, default=None)
    p.set_defaults(func=cmd_meaning)

    p = sub.add_parser("similarity", help="compare two sentence meanings")
    p.add_argument("lexicon")
    p.add_argument("sentence1")
    p.add_argument("sentence2")
    p.add_argument("--target", default="s")
    p.add_argument("--kind", choices=("cosine", "normalized-overlap"),
                   default="cosine")
    p.add_argument("--thick", action="store_true")
    p.add_argument("--parse-index", type=int, default=None)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("disambiguate",
                       help="entropy of a word before/after context")
    p.add_argument("lexicon")
    p.add_argument("word")
    p.add_argument("context", help="context words, e.g. 'who rocks'")
    p.add_argument("--target", default="n")
    p.set_defaults(func=cmd_disambiguate)

    p = sub.add_parser("normalize", help="rewrite a diagram to normal form")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("teleport", help="verify teleportation branches")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trials", type=int, default=25)
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("rate", help="conversion rate between two atoms")
    p.add_argument("presentation")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--max-steps", type=int, default=64)
    p.set_defaults(func=cmd_rate)
    return top


def _links_str(witness) -> str:
    return ",".join(f"({i},{j})" for i, j in sorted(witness.links))


def cmd_parse(args) -> int:
    lexicon = pregroup.load_lexicon(args.lexicon)
    words = args.sentence.split()
    witnesses = pregroup.parse(lexicon, words, target=args.target)
    if args.format == "json":
        print(json.dumps({
            "witnesses": [{
                "entries": list(w.entry_indices),
                "flat": [str(t) for t in w.flat],
                "links": sorted(list(l) for l in w.links),
                "residual": typelist_str(w.residual_types()),
            } for w in witnesses],
        }, sort_keys=True))
    else:
        for k, w in enumerate(witnesses):
            print(f"witness {k}: entries={list(w.entry_indices)} "
                  f"links={_links_str(w)} "
                  f"residual={typelist_str(w.residual_types())}")
    if witnesses:
        return EXIT_OK
    if args.format != "json":
        for combo, residual in pregroup.residual_report(lexicon, words):
            print(f"no parse: entries={list(combo)} stuck at [{residual}]")
    return EXIT_NEGATIVE


def _sentence_tensor(lexicon, sentence: str, target: str, thick: bool,
                     parse_index: int | None):
    words = sentence.split()
    witnesses = pregroup.parse(lexicon, words, target=target)
    if not witnesses:
        raise NoParse(f"no reduction of {sentence!r} to {target!r}")
    if parse_index is None:
        if len(witnesses) > 1:
            raise AmbiguousParse(
                f"{len(witnesses)} parses; pick one with --parse-index")
        parse_index = 0
    if not 0 <= parse_index < len(witnesses):
        raise ValueError(f"--parse-index {parse_index} is out of range: "
                         f"{len(witnesses)} parse(s), numbered from 0")
    witness = witnesses[parse_index]
    d = pregroup.grammar_diagram(words, witness, lexicon)
    model = lexicon.model(doubling="thick" if thick else "thin")
    return tensors.evaluate(d, model)


def cmd_meaning(args) -> int:
    lexicon = pregroup.load_lexicon(args.lexicon)
    t = _sentence_tensor(lexicon, args.sentence, args.target,
                         args.thick, args.parse_index)
    payload = tensors.tensor_to_json(t)
    if args.thick:
        payload["entropy"] = tensors.entropy(t)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_similarity(args) -> int:
    lexicon = pregroup.load_lexicon(args.lexicon)
    t1 = _sentence_tensor(lexicon, args.sentence1, args.target,
                          args.thick, args.parse_index)
    t2 = _sentence_tensor(lexicon, args.sentence2, args.target,
                          args.thick, args.parse_index)
    value = tensors.similarity(t1, t2, kind=args.kind)
    if args.format == "json":
        print(json.dumps({"similarity": value}))
    else:
        print(f"{value:.12f}")
    return EXIT_OK


def cmd_disambiguate(args) -> int:
    lexicon = pregroup.load_lexicon(args.lexicon)
    entry = lexicon.lookup(args.word)[0]
    state = pregroup.word_state(entry, lexicon)
    model = lexicon.model(doubling="thick")
    before = tensors.entropy(tensors.evaluate(state, model))
    sentence = " ".join([args.word] + args.context.split())
    after = tensors.entropy(_sentence_tensor(
        lexicon, sentence, args.target, thick=True, parse_index=None))
    if args.format == "json":
        print(json.dumps({"before": before, "after": after}, sort_keys=True))
    else:
        print(f"entropy before\t{before:.9f}")
        print(f"entropy after\t{after:.9f}")
    return EXIT_OK if after < before else EXIT_NEGATIVE


def cmd_normalize(args) -> int:
    d = dg.diagram_from_json(json.loads(Path(args.diagram).read_text()))
    nf = rewrite.normalize(d)
    print(json.dumps(dg.diagram_to_json(nf.diagram), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_teleport(args) -> int:
    reports = protocols.verify_teleportation(
        args.dim, args.trials, tolerance=args.tol, seed=args.seed)
    if args.format == "json":
        print(json.dumps([{
            "branch": r.branch, "fidelity": r.fidelity,
            "probability": r.probability,
        } for r in reports], sort_keys=True))
    else:
        print("branch\tfidelity\tprobability")
        for r in reports:
            print(f"{r.branch}\t{r.fidelity:.12f}\t{r.probability:.12f}")
    return EXIT_OK


def cmd_rate(args) -> int:
    presentation = resources.load_presentation(args.presentation)
    result = resources.conversion_rate(
        args.source, args.target, presentation,
        n_max=args.nmax, max_steps=args.max_steps)
    if args.format == "json":
        print(json.dumps({
            "rate": [result.rate.numerator, result.rate.denominator],
            "n": result.n, "m": result.m,
            "n_max": result.n_max, "max_steps": result.max_steps,
        }, sort_keys=True))
    else:
        print(str(result))
    return EXIT_OK if result.m >= 1 else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())

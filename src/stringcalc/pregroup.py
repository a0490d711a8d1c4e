"""Pregroup grammar: lexicon, type-reduction parsing, grammar wiring.

A sentence parses when the concatenated word types reduce to the target
(usually the sentence type ``s``) by cancelling adjacent pairs
``(b^z, b^(z+1))``.  The cancellation links form non-crossing nested
arcs, and everything strictly under an arc is itself fully cancelled,
so the parser enumerates witnesses with a memoized span recursion.

:func:`grammar_diagram` turns a witness into a string diagram: a row of
word states composed with one cap per link.  Entries whose payload is
``structural:*`` ("does", "not", relative pronouns) are built from cup
and spider wiring instead of a stored array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, product
from pathlib import Path

import numpy as np

from . import diagram as dg
from .diagram import Diagram, compose_par, identity
from .errors import PayloadMissing, UnknownWord
from .tensors import Model, Payload, Tensor
from .types import TypeList, WireType, parse_typelist, typelist_str

__all__ = [
    "LexEntry", "PregroupLexicon", "ParseWitness",
    "parse", "grammar_diagram", "residual_report",
    "load_lexicon", "lexicon_from_json",
]

STRUCTURAL_KINDS = ("structural:copula", "structural:negation",
                    "structural:relpron")


@dataclass(frozen=True)
class LexEntry:
    word: str
    type: TypeList
    payload: str | None  # payload ref for pure/mixed, builder name for structural
    kind: str  # "pure" | "mixed" | "structural:<builder>"


@dataclass(frozen=True)
class PregroupLexicon:
    bases: dict[str, int]  # base -> dimension
    entries: dict[str, tuple[LexEntry, ...]]
    payloads: dict[str, Payload] = field(default_factory=dict)

    def lookup(self, word: str) -> tuple[LexEntry, ...]:
        if word not in self.entries:
            raise UnknownWord(f"word {word!r} is not in the lexicon")
        return self.entries[word]

    def model(self, doubling: str = "thin") -> Model:
        return Model(dims=dict(self.bases), payloads=dict(self.payloads),
                     doubling=doubling)


@dataclass(frozen=True)
class ParseWitness:
    """One successful reduction of a sentence to the target type."""

    words: tuple[str, ...]
    entry_indices: tuple[int, ...]
    flat: TypeList                       # concatenated word types
    word_of_index: tuple[int, ...]       # flat index -> word position
    links: frozenset[tuple[int, int]]    # (i, j) cancels (b^z, b^(z+1))
    residual: tuple[int, ...]            # uncancelled indices, left to right

    def residual_types(self) -> TypeList:
        return tuple(self.flat[i] for i in self.residual)

    def replay(self) -> bool:
        """Check the links really reduce the flat string to the residual."""
        linked = {i for link in self.links for i in link}
        if sorted(set(self.residual)) != sorted(
                i for i in range(len(self.flat)) if i not in linked):
            return False
        for i, j in self.links:
            a, b = self.flat[i], self.flat[j]
            if not (i < j and a.base == b.base and b.z == a.z + 1):
                return False
            for k in range(i + 1, j):
                if k in self.residual:
                    return False
        return _noncrossing(self.links)


def _noncrossing(links) -> bool:
    ls = sorted(links)
    for a in ls:
        for b in ls:
            if a[0] < b[0] < a[1] < b[1]:
                return False
    return True


def parse(lexicon: PregroupLexicon, words: list[str],
          target: TypeList | str = (WireType("s"),),
          max_combinations: int = 64) -> list[ParseWitness]:
    """All reductions of the sentence to *target*, in deterministic order.

    Entry combinations are enumerated in lexicon order, capped at
    ``max_combinations``; within one combination, witnesses come out in
    leftmost-link order.
    """
    if isinstance(target, str):
        target = parse_typelist(target)
    target = tuple(target)
    choices = [range(len(lexicon.lookup(w))) for w in words]
    witnesses: list[ParseWitness] = []
    for combo in islice(product(*choices), max_combinations):
        flat: list[WireType] = []
        word_of_index: list[int] = []
        for pos, (word, k) in enumerate(zip(words, combo)):
            entry = lexicon.entries[word][k]
            flat.extend(entry.type)
            word_of_index.extend([pos] * len(entry.type))
        for links in _reductions(tuple(flat), target):
            linked = {i for link in links for i in link}
            residual = tuple(i for i in range(len(flat)) if i not in linked)
            witnesses.append(ParseWitness(
                words=tuple(words),
                entry_indices=tuple(combo),
                flat=tuple(flat),
                word_of_index=tuple(word_of_index),
                links=frozenset(links),
                residual=residual,
            ))
    return witnesses


def _reductions(flat: TypeList, target: TypeList) -> list[frozenset]:
    """All link sets reducing `flat` to exactly `target`."""

    n = len(flat)

    def linkable(i: int, j: int) -> bool:
        return flat[i].base == flat[j].base and flat[j].z == flat[i].z + 1

    @lru_cache(maxsize=None)
    def empty_matchings(i: int, j: int) -> tuple[frozenset, ...]:
        """All full cancellations of the span [i, j)."""
        if i == j:
            return (frozenset(),)
        if (j - i) % 2:
            return ()
        out = []
        for k in range(i + 1, j, 2):
            if not linkable(i, k):
                continue
            for inner in empty_matchings(i + 1, k):
                for rest in empty_matchings(k + 1, j):
                    out.append(inner | rest | {(i, k)})
        return tuple(dict.fromkeys(out))

    @lru_cache(maxsize=None)
    def tail(pos: int, ti: int) -> tuple[frozenset, ...]:
        """Link sets covering [pos, n) with target suffix target[ti:]."""
        if pos == n:
            return (frozenset(),) if ti == len(target) else ()
        out = []
        if ti < len(target) and flat[pos] == target[ti]:
            out.extend(tail(pos + 1, ti + 1))
        for j in range(pos + 1, n, 2):
            if not linkable(pos, j):
                continue
            inners = empty_matchings(pos + 1, j)
            if not inners:
                continue
            for rest in tail(j + 1, ti):
                for inner in inners:
                    out.append(inner | rest | {(pos, j)})
        return tuple(dict.fromkeys(out))

    result = tail(0, 0)
    tail.cache_clear()
    empty_matchings.cache_clear()
    return sorted(result, key=lambda ls: sorted(ls))


def residual_report(lexicon: PregroupLexicon, words: list[str],
                    max_combinations: int = 64) -> list[tuple[tuple[int, ...], str]]:
    """Best-effort residuals per entry combination (for NoParse messages).

    Greedily cancels the leftmost adjacent pair until stuck.
    """
    choices = [range(len(lexicon.lookup(w))) for w in words]
    report = []
    for combo in islice(product(*choices), max_combinations):
        flat: list[WireType] = []
        for word, k in zip(words, combo):
            flat.extend(lexicon.entries[word][k].type)
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
        report.append((tuple(combo), typelist_str(tuple(reduced))))
    return report


# -- diagram emission ------------------------------------------------------


def grammar_diagram(words: list[str], witness: ParseWitness,
                    lexicon: PregroupLexicon) -> Diagram:
    """Word states in parallel, then one cap per cancellation link.

    Open outputs are exactly the residual wires of the witness.
    """
    table = set(lexicon.bases)
    row = identity(())
    for pos, word in enumerate(words):
        entry = lexicon.lookup(word)[witness.entry_indices[pos]]
        row = compose_par(row, word_state(entry, lexicon, table))

    # innermost links become adjacent first; cap them off layer by layer
    open_indices = list(range(len(witness.flat)))
    links = set(witness.links)
    while links:
        hit = None
        for k in range(len(open_indices) - 1):
            pair = (open_indices[k], open_indices[k + 1])
            if pair in links:
                hit = (k, pair)
                break
        assert hit is not None, "witness links are not well nested"
        k, pair = hit
        left = tuple(witness.flat[i] for i in open_indices[:k])
        right = tuple(witness.flat[i] for i in open_indices[k + 2:])
        the_cap = dg.cap(witness.flat[pair[0]].base, witness.flat[pair[0]].z, table)
        layer = identity(left) @ the_cap @ identity(right)
        row = row >> layer
        links.discard(pair)
        del open_indices[k:k + 2]
    return row


def word_state(entry: LexEntry, lexicon: PregroupLexicon, table=None) -> Diagram:
    """The state diagram for one lexicon entry."""
    if entry.kind in ("pure", "mixed"):
        if entry.payload not in lexicon.payloads:
            raise PayloadMissing(f"word {entry.word!r} payload {entry.payload!r}")
        return dg.make_generator(entry.word, (), entry.type,
                                 payload=entry.payload, table=table)
    if entry.kind == "structural:copula":
        return _copula_state(entry, table)
    if entry.kind == "structural:negation":
        return _negation_state(entry, lexicon, table)
    if entry.kind == "structural:relpron":
        return _relpron_state(entry, lexicon, table)
    raise PayloadMissing(f"unknown payload kind {entry.kind!r} for {entry.word!r}")


def _split_copula_type(entry: LexEntry) -> tuple[str, str]:
    t = entry.type
    ok = (len(t) == 4 and t[0].base == t[3].base and t[0].z == t[3].z + 1
          and t[1].base == t[2].base and t[1].z == t[2].z + 1
          and t[1].base != t[0].base)
    if not ok:
        raise PayloadMissing(
            f"copula-style entry {entry.word!r} needs a type of shape "
            f"[a.L, b, b.R, a], got {typelist_str(t)}")
    return t[0].base, t[1].base


def _copula_state(entry: LexEntry, table=None) -> Diagram:
    """Nested cups: outer on the noun pair, inner on the sentence pair.

    For type ``[a.L, b, b.R, a]`` the state is a cup on ``a`` nested
    around a cup on ``b``; swaps reorder the legs into lexical order.
    """
    a, b = _split_copula_type(entry)
    za, zb = entry.type[3].z, entry.type[2].z
    cups = dg.cup(a, za, table) @ dg.cup(b, zb, table)
    # cups emit [a.L, a, b, b.R]; reorder to [a.L, b, b.R, a]
    return cups >> dg.permutation(cups.cod, [0, 3, 1, 2])


def _negation_state(entry: LexEntry, lexicon: PregroupLexicon, table=None) -> Diagram:
    """Copula wiring with the negation box spliced into the inner pair."""
    a, b = _split_copula_type(entry)
    za, zb = entry.type[3].z, entry.type[2].z
    if entry.payload not in lexicon.payloads:
        raise PayloadMissing(
            f"negation entry {entry.word!r} needs a matrix payload")
    neg = dg.make_generator("negation", (WireType(b, zb + 1),),
                            (WireType(b, zb + 1),),
                            payload=entry.payload, table=table)
    dressed = dg.cup(b, zb, table) >> (neg @ identity((WireType(b, zb),)))
    cups = dg.cup(a, za, table) @ dressed
    return cups >> dg.permutation(cups.cod, [0, 3, 1, 2])


def _relpron_state(entry: LexEntry, lexicon: PregroupLexicon, table=None) -> Diagram:
    """Relative pronoun: a copying dot on the noun, a discard on ``s``.

    Realized as a box whose payload is generated at load time (see
    :func:`lexicon_from_json`): a three-leg Kronecker delta on the noun
    wires times an all-ones vector on the sentence wire, which is the
    spider semantics transported to the entry's adjoint orders.
    """
    if entry.payload not in lexicon.payloads:
        raise PayloadMissing(f"relative pronoun {entry.word!r} has no payload")
    return dg.make_generator(entry.word, (), entry.type,
                             payload=entry.payload, table=table)


# -- lexicon loading -------------------------------------------------------


def lexicon_from_json(data: dict) -> PregroupLexicon:
    """Build a lexicon from its JSON form.

    Schema::

        {"bases": {"n": 4, "s": 3},
         "words": [
           {"word": "hates", "type": "n.L s n.R", "payload": "dense",
            "data": [[re, im], ...]},
           {"word": "queen", "type": "n", "payload": "mixed", "data": [...]},
           {"word": "not", "type": "n.L s s.R n",
            "payload": "structural:negation", "data": [...]}]}

    ``data`` is dense row-major; entries may be ``[re, im]`` pairs or
    bare reals.  Mixed payloads use the squared shape of every wire.
    """
    bases = {str(b): int(dim) for b, dim in data["bases"].items()}
    entries: dict[str, list[LexEntry]] = {}
    payloads: dict[str, Payload] = {}
    for raw in data["words"]:
        word = raw["word"]
        wtype = parse_typelist(raw["type"])
        for t in wtype:
            if t.base not in bases:
                raise ValueError(f"word {word!r} uses undeclared base {t.base!r}")
        payload_kind = raw.get("payload", "dense")
        index = len(entries.get(word, []))
        ref = f"word:{word}:{index}"
        if payload_kind in ("dense", "pure"):
            shape = tuple(bases[t.base] for t in wtype)
            payloads[ref] = Payload(_tensor_from_data(raw["data"], shape), "pure")
            entry = LexEntry(word, wtype, ref, "pure")
        elif payload_kind == "mixed":
            shape = tuple(bases[t.base] ** 2 for t in wtype)
            payloads[ref] = Payload(_tensor_from_data(raw["data"], shape), "mixed")
            entry = LexEntry(word, wtype, ref, "mixed")
        elif payload_kind == "structural:negation":
            b = wtype[1].base
            shape = (bases[b], bases[b])
            # "data" is the conventional left-acting matrix; box payloads
            # are indexed [input, output], hence the transpose
            matrix = _tensor_from_data(raw["data"], shape)
            payloads[ref] = Payload(Tensor(shape, matrix.data.T), "pure")
            entry = LexEntry(word, wtype, ref, payload_kind)
        elif payload_kind == "structural:copula":
            entry = LexEntry(word, wtype, None, payload_kind)
        elif payload_kind == "structural:relpron":
            payloads[ref] = Payload(_relpron_tensor(wtype, bases), "pure")
            entry = LexEntry(word, wtype, ref, payload_kind)
        else:
            raise ValueError(f"unknown payload kind {payload_kind!r}")
        entries.setdefault(word, []).append(entry)
    return PregroupLexicon(
        bases=bases,
        entries={w: tuple(es) for w, es in entries.items()},
        payloads=payloads,
    )


def load_lexicon(path) -> PregroupLexicon:
    return lexicon_from_json(json.loads(Path(path).read_text()))


def _tensor_from_data(data, shape: tuple[int, ...]) -> Tensor:
    flat = np.array([complex(x[0], x[1]) if isinstance(x, (list, tuple))
                     else complex(x) for x in data])
    expected = int(np.prod(shape)) if shape else 1
    if flat.size != expected:
        raise ValueError(f"payload has {flat.size} entries, shape {shape} "
                         f"needs {expected}")
    return Tensor(shape, flat.reshape(shape))


def _relpron_tensor(wtype: TypeList, bases: dict[str, int]) -> Tensor:
    """Delta on the noun legs, all-ones on every other leg."""
    noun = wtype[1].base  # the head-noun output leg fixes the copied base
    shape = tuple(bases[t.base] for t in wtype)
    noun_axes = [k for k, t in enumerate(wtype) if t.base == noun]
    if len(noun_axes) < 2:
        raise ValueError("relative pronoun type must repeat the noun base")
    # broadcast an index grid per noun axis; a cell survives where all agree
    first, *rest = [np.arange(shape[k]).reshape(
        [-1 if a == k else 1 for a in range(len(shape))]) for k in noun_axes]
    same = rest[0] == first
    for grid in rest[1:]:
        same = same & (grid == first)
    arr = np.broadcast_to(same, shape).astype(complex, order="C")
    return Tensor(shape, arr)

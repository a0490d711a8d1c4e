"""Pregroup grammar: lexicon, type-reduction parsing, grammar wiring.

A sentence parses when the concatenated word types reduce to the target
(usually the sentence type ``s``) by cancelling adjacent pairs
``(b^z, b^(z+1))``.  The cancellation links form non-crossing nested
arcs, and everything strictly under an arc is itself fully cancelled.

:func:`parse` tries the entry combinations in lexicon order.  A link
cancels ``(-1)^z + (-1)^(z+1) = 0`` of its base's charge, the sum of
``(-1)^z`` over the wires of that base, so only a combination whose
charge per base equals the target's can reduce to it (count invariance,
van Benthem, *Language in Action*); the others are skipped unparsed.
For the rest, one right-to-left pass fills two bitset tables, which
spans cancel fully and which suffixes reduce to which target suffixes,
and witnesses are enumerated only through the cells they mark viable.

:func:`grammar_diagram` turns a witness into one port graph: word
states side by side, one cap per link.  Structural entries ("does",
"not", relative pronouns) are wiring, in the Frobenius reading of
Sadrzadeh, Clark and Coecke: cups and spiders, plus negation's box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice, product
from pathlib import Path

import numpy as np

from . import diagram as dg
from .diagram import BOX, CAP, CUP, OUT, SPIDER, Diagram, Generator
from .errors import MissingPayload, TypeMismatch, UnknownWord, require
from .tensors import Model, Payload, Tensor
from .types import TypeList, WireType, parse_typelist, typelist_str

__all__ = [
    "LexEntry", "PregroupLexicon", "ParseWitness",
    "parse", "grammar_diagram", "residual_report",
    "load_lexicon", "lexicon_from_json",
]

STRUCTURAL_KINDS = ("structural:copula", "structural:negation",
                    "structural:relpron")

#: The entry combinations :func:`parse` tries by default and
#: :func:`residual_report` always, so both see the same ones.
MAX_COMBINATIONS = 64


@dataclass(frozen=True)
class LexEntry:
    word: str
    type: TypeList
    payload: str | None  # payload ref; None for a copula or relative pronoun
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
        try:
            partner = _link_partners(self.flat, self.links)
        except (TypeMismatch, ValueError):
            return False
        return sorted(set(self.residual)) == [
            i for i in range(len(self.flat)) if i not in partner]


def parse(lexicon: PregroupLexicon, words: list[str],
          target: TypeList | str = (WireType("s"),),
          max_combinations: int = MAX_COMBINATIONS) -> list[ParseWitness]:
    """All reductions of the sentence to *target*, in deterministic order.

    Entry combinations are enumerated in lexicon order, capped at
    ``max_combinations``; within one combination, witnesses come out in
    leftmost-link order.  The cap counts every combination, also those
    whose per-base charge differs from the target's: they cannot reduce
    to it and are skipped without calling :func:`_reductions`.
    """
    if isinstance(target, str):
        target = parse_typelist(target)
    target = tuple(target)
    entries = [lexicon.lookup(w) for w in words]
    bases = sorted({t.base for t in target}.union(
        *({t.base for t in e.type} for es in entries for e in es)))
    owed = tuple(-c for c in _charge(target, bases))
    charges = [[_charge(e.type, bases) for e in es] for es in entries]
    witnesses: list[ParseWitness] = []
    for combo in islice(product(*(range(len(es)) for es in entries)),
                        max_combinations):
        if any(map(sum, zip(owed, *(charges[pos][k]
                                    for pos, k in enumerate(combo))))):
            continue  # its charge differs from the target's in some base
        flat: list[WireType] = []
        word_of_index: list[int] = []
        for pos, k in enumerate(combo):
            types = entries[pos][k].type
            flat.extend(types)
            word_of_index.extend([pos] * len(types))
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


def _charge(types: TypeList, bases: list[str]) -> tuple[int, ...]:
    """The sum of ``(-1)^z`` over the wires of each base, in *bases* order."""
    return tuple(sum(1 - 2 * (t.z % 2) for t in types if t.base == b)
                 for b in bases)


def _reductions(flat: TypeList, target: TypeList) -> list[frozenset]:
    """All link sets reducing *flat* to exactly *target*, sorted.

    Bitsets are Python ints.  ``empty[i]`` has bit ``j`` when the span
    ``[i, j)`` cancels fully, and ``reach[p]`` has bit ``t`` when
    ``[p, n)`` reduces to ``target[t:]``.  A link from ``i`` closes at a
    ``k`` of ``empty[i + 1]`` whose type is ``flat[i].l``, so both tables
    fill in one right-to-left pass.  Link sets are then built only
    through the cells the tables mark viable.
    """
    n, m = len(flat), len(target)
    at = _indices(flat)
    closers = [at.get(t.l, 0) for t in flat]  # where a link from i can close
    in_target = _indices(target)
    empty = [0] * n + [1 << n]
    reach = [0] * n + [1 << m]
    for i in range(n - 1, -1, -1):
        e, r = 1 << i, reach[i + 1] >> 1 & in_target.get(flat[i], 0)
        for k in _bits(empty[i + 1] & closers[i]):
            e |= empty[k + 1]
            r |= reach[k + 1]
        empty[i], reach[i] = e, r
    if not reach[0] & 1:
        return []

    def ways(cell) -> list[tuple[tuple, tuple]]:
        """Each ``(links, cells)`` that builds a link set of *cell*: the
        links plus one link set of each of the cells.  A cell ``("tail",
        p, t)`` holds the link sets reducing ``[p, n)`` to ``target[t:]``,
        given ``t`` in ``reach[p]``; a cell ``("cancel", i, j)`` those
        cancelling ``[i, j)`` fully, given ``j`` in ``empty[i]``."""
        kind, i, j = cell
        if kind == "cancel":
            if i == j:
                return [((), ())]
            return [(((i, k),), (("cancel", i + 1, k), ("cancel", k + 1, j)))
                    for k in _bits(empty[i + 1] & closers[i] & ((1 << j) - 1))
                    if empty[k + 1] >> j & 1]
        if i == n:
            return [((), ())]
        out = []
        if j < m and flat[i] == target[j] and reach[i + 1] >> (j + 1) & 1:
            out.append(((), (("tail", i + 1, j + 1),)))
        out += [(((i, k),), (("cancel", i + 1, k), ("tail", k + 1, j)))
                for k in _bits(empty[i + 1] & closers[i])
                if reach[k + 1] >> j & 1]
        return out

    # depth-first with an explicit stack, so the span length never meets
    # the recursion limit; a cell is built once all its parts are
    built: dict[tuple, list[frozenset]] = {}
    stack = [("tail", 0, 0)]
    while stack:
        cell = stack[-1]
        if cell in built:
            stack.pop()
            continue
        options = ways(cell)
        missing = [c for _, cells in options for c in cells if c not in built]
        if missing:
            stack += missing
            continue
        stack.pop()
        built[cell] = [frozenset(links).union(*parts) for links, cells in options
                       for parts in product(*(built[c] for c in cells))]
    return sorted(built[("tail", 0, 0)], key=sorted)


def _indices(types: TypeList) -> dict[WireType, int]:
    """Each wire type of *types* mapped to the bitset of its indices."""
    out: dict[WireType, int] = {}
    for k, t in enumerate(types):
        out[t] = out.get(t, 0) | 1 << k
    return out


def _bits(mask: int):
    """The indices of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def residual_report(lexicon: PregroupLexicon,
                    words: list[str]) -> list[tuple[tuple[int, ...], str]]:
    """Best-effort residuals per entry combination (for NoParse messages).

    Greedily cancels the leftmost adjacent pair until stuck, in one left
    to right pass: the stack of types read so far holds no cancelling
    pair, so the leftmost one is always its top with the next type.
    """
    choices = [range(len(lexicon.lookup(w))) for w in words]
    report = []
    for combo in islice(product(*choices), MAX_COMBINATIONS):
        stack: list[WireType] = []
        for word, k in zip(words, combo):
            for t in lexicon.entries[word][k].type:
                if stack and t == stack[-1].l:
                    stack.pop()
                else:
                    stack.append(t)
        report.append((tuple(combo), typelist_str(tuple(stack))))
    return report


# -- diagram emission ------------------------------------------------------


def grammar_diagram(words: list[str], witness: ParseWitness,
                    lexicon: PregroupLexicon) -> Diagram:
    """One port graph: word states side by side, a cap on each link's pair.

    Open outputs are exactly the residual wires of the witness.
    """
    nodes: list[Generator] = []
    wires: list[tuple[int, int, int, int]] = []
    row: list[WireType] = []
    feeds: list[tuple[int, int]] = []  # row output -> (node, port) feeding it
    for pos, word in enumerate(words):
        state = word_state(lexicon.lookup(word)[witness.entry_indices[pos]],
                           lexicon)
        shift = len(nodes)
        out = {dp: (sn + shift, sp) for sn, sp, dn, dp in state.wires if dn == OUT}
        wires += [(sn + shift, sp, dn + shift, dp)
                  for sn, sp, dn, dp in state.wires if dn != OUT]
        feeds += [out[p] for p in range(len(state.cod))]
        nodes += state.nodes
        row += state.cod
    partner = _link_partners(row, witness.links)
    cod = []
    for k, (sn, sp) in enumerate(feeds):
        j = partner.get(k)
        if j is None:
            wires.append((sn, sp, OUT, len(cod)))
            cod.append(row[k])
        elif j > k:
            wires += [(sn, sp, len(nodes), 0), (*feeds[j], len(nodes), 1)]
            nodes.append(Generator(CAP, (row[k], row[j]), ()))
    return Diagram((), tuple(cod), tuple(nodes), tuple(wires))


def _link_partners(flat, links) -> dict[int, int]:
    """Each linked index mapped to its partner, the links checked in one pass."""
    partner: dict[int, int] = {}
    for i, j in links:
        if not 0 <= i < j < len(flat) or i in partner or j in partner:
            raise ValueError(f"link {(i, j)} reuses an index or is out of order")
        if flat[i].base != flat[j].base or flat[j].z != flat[i].z + 1:
            raise TypeMismatch(f"link {(i, j)} joins {flat[i]} to {flat[j]}")
        partner[i], partner[j] = j, i
    around: list[int] = []  # right ends of the links enclosing k
    for k in range(len(flat)):
        j = partner.get(k, -1)
        if j > k:
            around.append(j)
        elif around and around[-1] == k:
            around.pop()
        elif around:
            raise ValueError(f"links cross, or one covers index {k}")
    return partner


def word_state(entry: LexEntry, lexicon: PregroupLexicon) -> Diagram:
    """The state diagram for one lexicon entry: one box, or wiring."""
    if entry.kind in ("pure", "mixed", "structural:negation") and \
            entry.payload not in lexicon.payloads:
        raise MissingPayload(f"word {entry.word!r} payload {entry.payload!r}")
    if entry.kind in ("pure", "mixed"):
        return dg.make_generator(entry.word, (), entry.type,
                                 payload=entry.payload)
    if entry.kind in ("structural:copula", "structural:negation"):
        return _copula_state(entry)
    if entry.kind == "structural:relpron":
        return _relpron_state(entry)
    raise MissingPayload(f"unknown payload kind {entry.kind!r} for {entry.word!r}")


def _copula_state(entry: LexEntry) -> Diagram:
    """A cup on ``a`` feeding outputs 0 and 3 of ``[a.L, b, b.R, a]``, one
    on ``b`` feeding 1 and 2; they cross as wires.  Negation puts its
    matrix box on output 1."""
    t = entry.type
    nodes = [Generator(CUP, (), (t[0], t[3])), Generator(CUP, (), (t[1], t[2]))]
    wires = [(0, 0, OUT, 0), (0, 1, OUT, 3), (1, 1, OUT, 2)]
    if entry.kind == "structural:negation":
        nodes.append(Generator(BOX, (t[1],), (t[1],), name="negation",
                               payload=entry.payload))
        wires += [(1, 0, 2, 0), (2, 0, OUT, 1)]
    else:
        wires.append((1, 0, OUT, 1))
    return Diagram((), t, tuple(nodes), tuple(wires))


def _relpron_state(entry: LexEntry) -> Diagram:
    """Relative pronoun: one spider copies the noun, joining every leg of
    the base of leg 1 whatever its adjoint order; a one-leg spider
    discards each other leg (the ``s.R`` of ``n.L n s.R n``)."""
    t = entry.type
    noun = [k for k, w in enumerate(t) if w.base == t[1].base]
    nodes = [Generator(SPIDER, (), tuple(t[k] for k in noun))]
    wires = [(0, p, OUT, k) for p, k in enumerate(noun)]
    for k in range(len(t)):
        if k not in noun:
            wires.append((len(nodes), 0, OUT, k))
            nodes.append(Generator(SPIDER, (), (t[k],)))
    return Diagram((), t, tuple(nodes), tuple(wires))


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
    Malformed input, such as a structural type that does not fit its
    wiring, raises ``ValueError``.
    """
    dims = require(data, "bases", dict, "lexicon")
    bases = {str(b): require(dims, b, int, "lexicon bases") for b in dims}
    for b, dim in bases.items():
        if dim < 1:
            raise ValueError(f"lexicon bases field {b!r} must be at least 1")
    entries: dict[str, list[LexEntry]] = {}
    payloads: dict[str, Payload] = {}
    for raw in require(data, "words", list, "lexicon"):
        word = require(raw, "word", str, "lexicon word")
        where = f"word {word!r}"
        wtype = parse_typelist(require(raw, "type", str, where))
        for t in wtype:
            if t.base not in bases:
                raise ValueError(f"word {word!r} uses undeclared base {t.base!r}")
        payload_kind = raw.get("payload", "dense")
        index = len(entries.get(word, []))
        ref = f"word:{word}:{index}"
        if payload_kind in ("dense", "pure", "mixed"):
            kind = "mixed" if payload_kind == "mixed" else "pure"
            shape = tuple(bases[t.base] ** (2 if kind == "mixed" else 1)
                          for t in wtype)
            tensor = _tensor_from_data(raw, where, shape)
            payloads[ref] = Payload(tensor, kind)
            entry = LexEntry(word, wtype, ref, kind)
        elif payload_kind in STRUCTURAL_KINDS:
            _check_structural_type(word, payload_kind, wtype)
            if payload_kind == "structural:negation":
                b = wtype[1].base
                shape = (bases[b], bases[b])
                # "data" is the conventional left-acting matrix; box payloads
                # are indexed [input, output], hence the transpose
                matrix = _tensor_from_data(raw, where, shape)
                payloads[ref] = Payload(Tensor(shape, matrix.data.T), "pure")
            entry = LexEntry(word, wtype, ref if ref in payloads else None,
                             payload_kind)
        else:
            raise ValueError(f"unknown payload kind {payload_kind!r}")
        entries.setdefault(word, []).append(entry)
    return PregroupLexicon(
        bases=bases,
        entries={w: tuple(es) for w, es in entries.items()},
        payloads=payloads,
    )


def _check_structural_type(word: str, kind: str, t: TypeList) -> None:
    """``ValueError`` unless *t* fits the wiring :func:`word_state` builds."""
    if kind == "structural:relpron":
        if len(t) < 2 or sum(w.base == t[1].base for w in t) < 2:
            raise ValueError(
                f"relative pronoun {word!r} needs a type that repeats the "
                f"noun base of its second leg, got {typelist_str(t)}")
    elif not (len(t) == 4 and t[0].base == t[3].base and t[0].z == t[3].z + 1
              and t[1].base == t[2].base and t[1].z == t[2].z + 1
              and t[1].base != t[0].base):
        raise ValueError(
            f"{kind.split(':')[1]} entry {word!r} needs a type of shape "
            f"[a.L, b, b.R, a], got {typelist_str(t)}")


def load_lexicon(path) -> PregroupLexicon:
    return lexicon_from_json(json.loads(Path(path).read_text()))


def _tensor_from_data(raw: dict, where: str, shape: tuple[int, ...]) -> Tensor:
    data = require(raw, "data", list, where)
    try:
        arr = np.array(data)
    except ValueError:  # ragged: [re, im] pairs mixed with bare reals
        arr = np.array([_pair(x) for x in data])
    # numpy reads a JSON boolean among numbers as exactly 0 or 1, so only
    # then is the list scanned for one
    if arr.dtype.kind not in "iuf" or arr.shape[1:] not in ((), (2,)) \
            or ((arr == 0) | (arr == 1)).any() and _holds_bool(data):
        raise ValueError(f"{where} field 'data' must list numbers or "
                         "[re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValueError(f"{where} field 'data' must hold finite numbers")
    flat = arr.astype(float).view(complex) if arr.ndim == 2 \
        else arr.astype(complex)
    expected = int(np.prod(shape)) if shape else 1
    if flat.size != expected:
        raise ValueError(f"payload has {flat.size} entries, shape {shape} "
                         f"needs {expected}")
    return Tensor(shape, flat.reshape(shape))


def _holds_bool(data: list) -> bool:
    """Whether a JSON ``true`` or ``false`` is an element of *data* or of
    one of its pairs."""
    return any(isinstance(v, bool) for x in data
               for v in (x if isinstance(x, list) else (x,)))


def _pair(x) -> list:
    """One element of a ragged ``data`` list as ``[re, im]``, or as
    ``[None, None]``, which fails the caller's dtype check, when it is
    neither a number nor a pair of numbers."""
    pair = x if isinstance(x, list) and len(x) == 2 else [x, 0]
    return pair if all(isinstance(v, (int, float)) for v in pair) \
        else [None, None]

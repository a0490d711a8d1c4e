"""Diagram normalization and equality.

Exactly two rewrite rules are applied, each strictly decreasing the
node count, so normalization always terminates:

* snake elimination -- a cup feeding a cap over a single wire is
  yanked straight, in either chirality;
* swap involution -- two stacked swaps on the same wire pair cancel.

Each step takes the redex with the lowest node id and rewires one live
port map in place: the nodes are unplugged and their freed wire ends
joined.

An identity is a bare wire, not a node, so no rule removes one.  Spiders
are evaluated, never rewritten.  Equality defaults to the syntactic check
(canonical normal forms); the semantic one, by tensors, is opt-in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import diagram as dg
from .diagram import CAP, CUP, SWAP, Diagram
from .errors import ShapeMismatch

__all__ = ["NormalForm", "normalize", "equal"]


@dataclass(frozen=True)
class NormalForm:
    diagram: Diagram
    rewrite_trace: tuple[tuple[str, tuple[int, ...]], ...]


def normalize(d: Diagram) -> NormalForm:
    """Apply the rewrite rules to exhaustion, then renumber canonically.

    The rule scheduling is deterministic: each step rewrites the redex
    whose cup or first swap has the lowest node id.  The two rules have
    no overlapping redexes, so the result is confluent: normalizing a
    normal form is a no-op.
    """
    nodes: dict[int, dg.Generator] = dict(enumerate(d.nodes))
    # the live port map: an output port to the input port it feeds, and back
    nxt = {(sn, sp): (dn, dp) for sn, sp, dn, dp in d.wires}
    prv = {dst: src for src, dst in nxt.items()}
    trace: list[tuple[str, tuple[int, ...]]] = []
    # every node outside the heap is known not to anchor a redex; a
    # rewrite can only change that for the nodes at the ends of its joins
    heap = list(nodes)
    while heap:
        redex = _redex(heapq.heappop(heap), nodes, nxt, prv)
        if redex is None:
            continue
        rule, removed, joins = redex
        for k in removed:
            gen = nodes.pop(k)
            for p in range(len(gen.dom)):
                del prv[(k, p)]
            for p in range(len(gen.cod)):
                del nxt[(k, p)]
        for src, dst in joins:
            nxt[src], prv[dst] = dst, src
            for n in (src[0], dst[0]):
                if n >= 0:
                    heapq.heappush(heap, n)
        trace.append((rule, removed))

    # rebuild with dense ids; only the canonical form is kept, and it
    # sorts the wires, those into the outputs last
    remap = {old: new for new, old in enumerate(nodes)}
    packed = dg._unchecked(
        d.dom, d.cod, tuple(nodes.values()),
        tuple((remap.get(sn, sn), sp, remap.get(dn, dn), dp)
              for (sn, sp), (dn, dp) in nxt.items()),
        d.doubled)
    return NormalForm(packed.canonical(), tuple(trace))


def _redex(i, nodes, nxt, prv):
    """The rule anchored at node *i*: its name, the nodes it removes and
    the wires it joins from the freed ends, or ``None``."""
    kind = _kind(nodes, i)
    if kind == CUP:
        # chirality 1: cup output 1 plugged into cap input 0, then
        # chirality 2: cup output 0 plugged into cap input 1
        for q, p in ((1, 0), (0, 1)):
            j, jp = nxt[(i, q)]
            if jp == p and _kind(nodes, j) == CAP \
                    and nxt[(i, 1 - q)] != (j, 1 - p):
                return "snake", (i, j), [(prv[(j, 1 - p)], nxt[(i, 1 - q)])]
    if kind == SWAP:
        j, p = nxt[(i, 0)]
        if p == 0 and nxt[(i, 1)] == (j, 1) and _kind(nodes, j) == SWAP:
            return "swap-involution", (i, j), [(prv[(i, 0)], nxt[(j, 0)]),
                                               (prv[(i, 1)], nxt[(j, 1)])]
    return None


def _kind(nodes, n: int) -> str | None:
    gen = nodes.get(n)
    return gen.kind if gen else None


def equal(d1: Diagram, d2: Diagram, mode: str = "syntactic", *,
          model=None) -> bool:
    """Decide diagram equality.

    ``syntactic`` compares canonical normal forms and is exact for the
    equations generated by yanking and swap cancellation.  ``semantic``
    evaluates both diagrams under a tensor model (payloads for boxes
    absent from the model are drawn by ``random_payloads`` at its default
    seed, shared between the two sides) and compares them to within 1e-9
    times the larger norm or 1, which is sound but probabilistic.
    """
    if (d1.dom, d1.cod) != (d2.dom, d2.cod):
        raise ShapeMismatch(
            f"open ports differ: {d1.dom}->{d1.cod} vs {d2.dom}->{d2.cod}")
    if mode == "syntactic":
        return normalize(d1).diagram == normalize(d2).diagram
    if mode == "semantic":
        from .tensors import Model, evaluate, random_payloads

        if model is None:
            bases = {t.base for d in (d1, d2)
                     for g in (d, *d.nodes) for t in g.dom + g.cod}
            model = Model(dims={b: 2 for b in sorted(bases)})
        model = random_payloads(model, (d1, d2))
        return evaluate(d1, model).allclose(evaluate(d2, model))
    raise ValueError(f"unknown mode {mode!r}")

"""Finitely-presented resource theories.

A presentation is a set of atoms plus multiset-to-multiset rewrite
rules.  Convertibility is breadth-first reachability over multiset
states (a rule applies wherever its left side is a sub-multiset), and
the conversion rate from atom ``a`` to atom ``b`` is the best verified
``m / n`` with ``n`` copies of ``a`` reaching ``m`` copies of ``b`` --
a lower bound on the supremum over all ``n``, reported together with
the search bounds that produced it.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import StateExplosion, require

__all__ = [
    "ResourcePresentation", "ConversionWitness", "RateResult",
    "convertible", "conversion_rate",
    "presentation_from_json", "load_presentation",
]

Multiset = tuple[str, ...]  # canonical form: sorted tuple


def as_multiset(items) -> Multiset:
    return tuple(sorted(items))


@dataclass(frozen=True)
class ResourcePresentation:
    atoms: frozenset[str]
    rules: tuple[tuple[Multiset, Multiset], ...]

    def __post_init__(self):
        for lhs, rhs in self.rules:
            self.require_declared(lhs + rhs)

    def require_declared(self, atoms) -> None:
        """``ValueError`` naming the first of *atoms* that is not declared."""
        for atom in atoms:
            if atom not in self.atoms:
                raise ValueError(f"undeclared atom {atom!r}")


@dataclass(frozen=True)
class ConversionWitness:
    source: Multiset
    target: Multiset
    steps: tuple[tuple[int, Multiset], ...]  # (rule index, leftover context)

    def replay(self, presentation: ResourcePresentation) -> bool:
        state = Counter(self.source)
        for rule_index, context in self.steps:
            lhs, rhs = presentation.rules[rule_index]
            if Counter(context) + Counter(lhs) != state:
                return False
            state = Counter(context) + Counter(rhs)
        return as_multiset(state.elements()) == self.target


def convertible(src, dst, presentation: ResourcePresentation,
                max_steps: int = 64,
                max_visited: int = 10 ** 6) -> ConversionWitness | None:
    """Shortest conversion from *src* to *dst*, or ``None`` within bounds."""
    src, dst = as_multiset(src), as_multiset(dst)
    presentation.require_declared(src + dst)
    parent: dict[Multiset, tuple[Multiset, int] | None] = {}
    for state, how in _explore(src, presentation, max_steps, max_visited):
        parent[state] = how
        if state == dst:
            steps = []
            while how is not None:
                prev, rule_index = how
                lhs = presentation.rules[rule_index][0]
                context = Counter(prev) - Counter(lhs)
                steps.append((rule_index, as_multiset(context.elements())))
                how = parent[prev]
            return ConversionWitness(src, dst, tuple(reversed(steps)))
    return None


def _explore(src: Multiset, presentation: ResourcePresentation,
             max_steps: int, max_visited: int):
    """Breadth-first search from *src*, yielding each state as it is first
    reached with ``(previous state, rule index)``, or ``None`` for *src*,
    which comes first.  A state is yielded before the visited count is
    checked against *max_visited*."""
    rules = [(Counter(lhs), Counter(rhs)) for lhs, rhs in presentation.rules]
    depth = {src: 0}
    queue = deque([src])
    yield src, None
    while queue:
        state = queue.popleft()
        if depth[state] >= max_steps:
            continue
        counts = Counter(state)
        for rule_index, (need, gain) in enumerate(rules):
            if any(counts[a] < k for a, k in need.items()):
                continue
            nxt = as_multiset(((counts - need) + gain).elements())
            if nxt in depth:
                continue
            depth[nxt] = depth[state] + 1
            yield nxt, (state, rule_index)
            if len(depth) > max_visited:
                raise StateExplosion(
                    f"visited more than {max_visited} states")
            queue.append(nxt)


@dataclass(frozen=True)
class RateResult:
    """A verified lower bound on the conversion rate, with its witness."""

    rate: Fraction
    n: int
    m: int
    n_max: int
    max_steps: int

    def __str__(self) -> str:
        return f"{self.rate.numerator}/{self.rate.denominator} at n={self.n},m={self.m}"


def conversion_rate(a: str, b: str, presentation: ResourcePresentation,
                    n_max: int = 3, max_steps: int = 64,
                    max_visited: int = 10 ** 6) -> RateResult:
    """Best ``m / n`` over ``n <= n_max`` with ``n*a`` reaching ``m*b``.

    One search per ``n`` visits every reachable pure-``b`` state; the
    starting state itself counts (so the rate of ``a`` to ``a`` is at
    least one even without rules).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    presentation.require_declared((a, b))
    best = RateResult(Fraction(0), 1, 0, n_max, max_steps)
    for n in range(1, n_max + 1):
        reached = _explore(as_multiset([a] * n), presentation, max_steps,
                           max_visited)
        for state, _ in reached:
            m = len(state)
            if m and all(x == b for x in state) and Fraction(m, n) > best.rate:
                best = RateResult(Fraction(m, n), n, m, n_max, max_steps)
    return best


def presentation_from_json(data: dict) -> ResourcePresentation:
    """Schema: ``{"atoms": ["A"], "rules": [{"from": [...], "to": [...]}]}``."""
    return ResourcePresentation(
        atoms=frozenset(str(a) for a in require(data, "atoms", list,
                                                "presentation")),
        rules=tuple((as_multiset(require(r, "from", list, "rule")),
                     as_multiset(require(r, "to", list, "rule")))
                    for r in require(data, "rules", list, "presentation")),
    )


def load_presentation(path) -> ResourcePresentation:
    return presentation_from_json(json.loads(Path(path).read_text()))

"""Finitely-presented resource theories.

A presentation is a set of atoms plus multiset-to-multiset rewrite
rules.  Convertibility is breadth-first reachability over multiset
states (a rule applies wherever its left side is a sub-multiset), and
the conversion rate from atom ``a`` to atom ``b`` is the best verified
``m / n`` with ``n`` copies of ``a`` reaching ``m`` copies of ``b`` --
a lower bound on the supremum over all ``n``, reported together with
the search bounds that produced it.

The search runs on count vectors, as in a vector addition system: a
state is a tuple of counts indexed by the sorted atoms, and a rule is
the counts its left side needs plus the delta it adds.  Multisets, as
sorted tuples of atom names, appear only at the API and along the path
of a witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import StateExplosion, read_json, require, require_strings

__all__ = [
    "ResourcePresentation", "ConversionWitness", "RateResult",
    "convertible", "conversion_rate",
    "presentation_from_json", "load_presentation",
]

Multiset = tuple[str, ...]  # canonical form: sorted tuple
Counts = tuple[int, ...]  # a search state: how many of each sorted atom
Rule = tuple[tuple[tuple[int, int], ...], Counts]  # (index, need) pairs, delta

#: The counts a search may keep, one per atom per state seen: past them
#: it raises ``StateExplosion``, as past its ``max_visited`` states.  A
#: count is an 8-byte slot of its state's tuple, and a 1000-atom search
#: under CPython 3.11 peaked at about 16 bytes of resident memory each.
MAX_COUNTS = 1 << 23


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
    if max_steps < 0:
        raise ValueError("max_steps must be at least 0")
    src, dst = as_multiset(src), as_multiset(dst)
    presentation.require_declared(src + dst)
    atoms, rules = _compile(presentation)
    target = _counts(dst, atoms)
    parent: dict[Counts, tuple[Counts, int] | None] = {}
    for state, how in _explore(_counts(src, atoms), rules, max_steps,
                               max_visited):
        parent[state] = how
        if state == target:
            steps = []
            while how is not None:
                prev, rule_index = how
                context = list(prev)
                for i, k in rules[rule_index][0]:
                    context[i] -= k
                steps.append((rule_index, _multiset(context, atoms)))
                how = parent[prev]
            return ConversionWitness(src, dst, tuple(reversed(steps)))
    return None


def _compile(presentation: ResourcePresentation) -> tuple[list[str], list[Rule]]:
    """The sorted atoms, and each rule as the counts its left side needs
    plus the delta it adds to a state; compiled once per search."""
    atoms = sorted(presentation.atoms)
    index = {atom: i for i, atom in enumerate(atoms)}
    rules = []
    for lhs, rhs in presentation.rules:
        need, delta = Counter(lhs), [0] * len(atoms)
        for atom, k in need.items():
            delta[index[atom]] -= k
        for atom in rhs:
            delta[index[atom]] += 1
        rules.append((tuple((index[a], k) for a, k in need.items()),
                      tuple(delta)))
    return atoms, rules


def _counts(items, atoms: list[str]) -> Counts:
    counts = Counter(items)
    return tuple(counts[atom] for atom in atoms)


def _multiset(counts, atoms: list[str]) -> Multiset:
    return tuple(atom for atom, k in zip(atoms, counts) for _ in range(k))


def _explore(src: Counts, rules: list[Rule], max_steps: int,
             max_visited: int):
    """Breadth-first search from the count vector *src*, level by level,
    yielding each state as it is first reached with ``(previous state, rule
    index)``, or ``None`` for *src*, which comes first.  A state is yielded
    before the visited count is checked against *max_visited*, or
    against the states whose counts fit in ``MAX_COUNTS`` if fewer."""
    limit = min(max_visited, MAX_COUNTS // max(len(src), 1))
    seen = {src}
    yield src, None
    frontier = [src]
    for _ in range(max_steps):
        if not frontier:
            break
        reached = []
        for state in frontier:
            for rule_index, (need, delta) in enumerate(rules):
                for i, k in need:
                    if state[i] < k:
                        break
                else:
                    nxt = tuple(map(add, state, delta))
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    yield nxt, (state, rule_index)
                    if len(seen) > limit:
                        raise StateExplosion(
                            f"visited more than {max_visited} states"
                            if limit == max_visited else
                            f"visited more than {limit} states of "
                            f"{len(src)} atoms, past the budget of "
                            f"{MAX_COUNTS} counts")
                    reached.append(nxt)
        frontier = reached


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
    if max_steps < 0:
        raise ValueError("max_steps must be at least 0")
    presentation.require_declared((a, b))
    atoms, rules = _compile(presentation)
    ib = atoms.index(b)
    best = RateResult(Fraction(0), 1, 0, n_max, max_steps)
    for n in range(1, n_max + 1):
        reached = _explore(_counts([a] * n, atoms), rules, max_steps,
                           max_visited)
        for state, _ in reached:
            m = state[ib]  # pure b exactly when no other atom is left
            if m * best.n > best.m * n and sum(state) == m:
                best = RateResult(Fraction(m, n), n, m, n_max, max_steps)
    return best


def presentation_from_json(data: dict) -> ResourcePresentation:
    """Schema: ``{"atoms": ["A"], "rules": [{"from": [...], "to": [...]}]}``."""
    return ResourcePresentation(
        atoms=frozenset(require_strings(data, "atoms", "presentation")),
        rules=tuple((as_multiset(require_strings(r, "from", "rule")),
                     as_multiset(require_strings(r, "to", "rule")))
                    for r in require(data, "rules", list, "presentation")),
    )


def load_presentation(path) -> ResourcePresentation:
    return presentation_from_json(read_json(path))

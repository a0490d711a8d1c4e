"""Independent references for the benchmark's correctness checks.

Nothing here calls stringcalc's contraction, parser or search: sentence
meanings come from plain numpy matrix chains built alongside the
sentence, multiset conversions are checked with a separate
count-vector BFS and replay, and rates with the weight each rule
conserves.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def require_close(got, want, what: str, rtol: float = 1e-8) -> None:
    got, want = np.asarray(got), np.asarray(want)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.linalg.norm(got - want))
    scale = max(float(np.linalg.norm(want)), 1e-300)
    require(err <= rtol * scale, f"{what}: relative error {err / scale:.3g}")


# -- sentences --------------------------------------------------------------


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def check_thin(tensor, meaning: np.ndarray) -> None:
    require_close(tensor.to_array(), meaning, "thin meaning")


def check_thick(tensor, meaning: np.ndarray, entropy: float) -> None:
    """A pure sentence's density matrix is |v><v|: trace ||v||^2, entropy 0."""
    s = meaning.shape[0]
    rho = tensor.to_array().reshape(s, s)
    require_close(rho, np.outer(meaning, meaning.conj()), "thick meaning")
    require_close(np.trace(rho).real, np.vdot(meaning, meaning).real, "trace")
    require(abs(entropy) < 1e-6, f"entropy {entropy} of a pure sentence")


# -- multiset rewriting -----------------------------------------------------


def weight(multiset, weights: dict[str, int]) -> int:
    return sum(weights[a] for a in multiset)


def replay(source, target, steps, rules) -> bool:
    """Apply (rule index, context) steps to *source*; end at *target*?"""
    state = Counter(source)
    for index, context in steps:
        lhs, rhs = rules[index]
        if Counter(context) + Counter(lhs) != state:
            return False
        state = Counter(context) + Counter(rhs)
    return state == Counter(target)


def shortest(source, target, rules, atoms, max_steps: int) -> int | None:
    """BFS distance over count vectors, or None beyond *max_steps*."""
    index = {a: i for i, a in enumerate(sorted(atoms))}

    def vec(ms):
        v = [0] * len(index)
        for a in ms:
            v[index[a]] += 1
        return tuple(v)

    moves = [(vec(lhs), vec(rhs)) for lhs, rhs in rules]
    start, goal = vec(source), vec(target)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            return dist[state]
        if dist[state] >= max_steps:
            continue
        for lhs, rhs in moves:
            if all(s >= l for s, l in zip(state, lhs)):
                nxt = tuple(s - l + r for s, l, r in zip(state, lhs, rhs))
                if nxt not in dist:
                    dist[nxt] = dist[state] + 1
                    queue.append(nxt)
    return None

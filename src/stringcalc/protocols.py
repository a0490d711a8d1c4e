"""Post-selected teleportation diagrams and their verification.

The teleportation diagram for dimension ``d`` and branch ``b = p*d + q``
wires an input state through a shared cup (the maximally entangled
state, normalized by ``1/sqrt(d)``) and post-selects the measurement on
branch ``b``: a cap preceded by the inverse generalized Pauli
``(X^p Z^q)^-1``, also normalized by ``1/sqrt(d)``.  With the matching
correction ``X^p Z^q`` on the output wire, the composite equals the
identity divided by ``d``; without it, the branch shows up as an extra
Pauli and carries probability ``1 / d^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagram as dg
from .diagram import Diagram, identity
from .errors import VerificationFailure
from .tensors import Model, Payload, Tensor, check_budget, evaluate
from .types import WireType

__all__ = [
    "TeleportationSpec", "BranchReport",
    "clock_shift_unitary", "teleportation_diagram", "teleportation_model",
    "verify_teleportation",
    "sophisticated_composition_demo", "sophisticated_model",
]

BASE = "q"


@dataclass(frozen=True)
class TeleportationSpec:
    dim: int
    branch: int
    corrected: bool = True

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("teleportation needs dim >= 2")
        if not 0 <= self.branch < self.dim ** 2:
            raise ValueError(f"branch {self.branch} out of range for dim {self.dim}")


@dataclass(frozen=True)
class BranchReport:
    branch: int
    fidelity: float
    probability: float


def clock_shift_unitary(dim: int, branch: int) -> np.ndarray:
    """The generalized Pauli ``X^p Z^q`` with ``branch = p*dim + q``."""
    p, q = divmod(branch, dim)
    omega = np.exp(2j * np.pi / dim)
    shift = np.roll(np.eye(dim, dtype=complex), p, axis=0)   # X^p
    clock = np.diag(omega ** (q * np.arange(dim)))           # Z^q
    return shift @ clock


def teleportation_model(dim: int) -> Model:
    """Dimension table and payloads for every branch of one dimension."""
    payloads = {
        "bell_norm": Payload(Tensor((), np.array(1.0 + 0.0j),
                                    scalar=1.0 / np.sqrt(dim))),
    }
    for b in range(dim * dim):
        u = clock_shift_unitary(dim, b)
        payloads[f"pauli:{b}"] = Payload(Tensor.from_array(u))
        payloads[f"pauli_inv:{b}"] = Payload(
            Tensor.from_array(np.linalg.inv(u)))
    return Model(dims={BASE: dim}, payloads=payloads)


def teleportation_diagram(spec: TeleportationSpec) -> Diagram:
    """One post-selected branch as a diagram on a single open wire.

    Evaluate against :func:`teleportation_model` of the same dimension.
    """
    t = WireType(BASE)
    wire = identity((t,))
    norm = dg.make_generator("bell_norm", (), (), payload="bell_norm")
    bottom = wire @ dg.cup(BASE, 0) @ norm
    undo = dg.make_generator(f"pauli_inv:{spec.branch}", (t,), (t,),
                             payload=f"pauli_inv:{spec.branch}")
    effect = (undo @ identity((t.l,))) >> dg.cap(BASE, 0)
    top = (effect @ wire @ norm)
    d = bottom >> top
    if spec.corrected:
        fix = dg.make_generator(f"pauli:{spec.branch}", (t,), (t,),
                                payload=f"pauli:{spec.branch}")
        d = d >> fix
    return d


def branch_matrix(dim: int, branch: int, corrected: bool = True,
                  model: Model | None = None) -> np.ndarray:
    """The branch's input-to-output matrix, ``M[i, k]`` for input ``i``."""
    model = model or teleportation_model(dim)
    d = teleportation_diagram(TeleportationSpec(dim, branch, corrected))
    return evaluate(d, model).to_array()


def verify_teleportation(dim: int, trials: int, tolerance: float = 1e-9,
                         seed: int = 0,
                         correction_map: dict[int, int] | None = None
                         ) -> list[BranchReport]:
    """Check every branch against random input states.

    For each branch and trial the corrected output must be proportional
    to the input and the uncorrected branch must carry probability
    ``1/d^2``, both within *tolerance*.  ``correction_map`` reroutes
    correction boxes between branches (useful as a negative control);
    any deviation raises :class:`VerificationFailure`.  The trial states
    and the model (``dim**2`` unitaries and their inverses) are checked
    against ``tensors.MAX_ELEMENTS`` before they are built.
    """
    if dim < 2 or trials < 1:
        raise ValueError("need dim >= 2 and trials >= 1")
    check_budget(trials * dim, "the trial-state array")
    check_budget(2 * dim ** 4, "the teleportation model")
    model = teleportation_model(dim)
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((trials, dim)) + \
        1j * rng.standard_normal((trials, dim))
    reports = []
    for b in range(dim * dim):
        uncorrected = branch_matrix(dim, b, corrected=False, model=model)
        fix = clock_shift_unitary(dim, (correction_map or {}).get(b, b))
        worst_fidelity = 1.0
        worst_probability = None
        for v in states:
            out_raw = v @ uncorrected   # M[i, k] contracts the input axis
            out = out_raw @ fix         # correction box, same [in, out] convention
            fidelity = abs(np.vdot(out, v)) / (np.linalg.norm(out)
                                               * np.linalg.norm(v))
            probability = float(np.linalg.norm(out_raw) ** 2
                                / np.linalg.norm(v) ** 2)
            worst_fidelity = min(worst_fidelity, float(fidelity))
            if worst_probability is None or \
                    abs(probability - 1 / dim ** 2) > \
                    abs(worst_probability - 1 / dim ** 2):
                worst_probability = probability
            if fidelity < 1 - tolerance:
                raise VerificationFailure(
                    f"branch {b}: fidelity {fidelity} below 1 - {tolerance}")
            if abs(probability - 1 / dim ** 2) > tolerance:
                raise VerificationFailure(
                    f"branch {b}: probability {probability} deviates from "
                    f"{1 / dim ** 2} by more than {tolerance}")
        reports.append(BranchReport(b, worst_fidelity, worst_probability))
    total = sum(r.probability for r in reports)
    if abs(total - 1.0) > tolerance:
        raise VerificationFailure(
            f"branch probabilities sum to {total}, not 1")
    return reports


# -- the multi-state cup/cap composition demo -------------------------------


def sophisticated_model(dim: int) -> Model:
    """Random states, a random unitary and a merging box, from seed 0."""
    rng = np.random.default_rng(0)

    def state() -> np.ndarray:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    unitary, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                              + 1j * rng.standard_normal((dim, dim)))
    merge = rng.standard_normal((dim,) * 4) + 1j * rng.standard_normal((dim,) * 4)
    payloads = {
        "rho": Payload(Tensor.from_array(state())),
        "rho2": Payload(Tensor.from_array(state())),
        "rho3": Payload(Tensor.from_array(state())),
        "grey_unitary": Payload(Tensor.from_array(unitary)),
        "merge3": Payload(Tensor.from_array(merge)),
        "w1": Payload(Tensor.from_array(state())),
        "w2": Payload(Tensor.from_array(state())),
    }
    return Model(dims={BASE: dim}, payloads=payloads)


def sophisticated_composition_demo(dim: int,
                                   replace_cup_with_product: bool = False
                                   ) -> tuple[Diagram, Diagram]:
    """Three states threaded through cups and a cap-rich top, plus its
    yanked normal form.

    Returns the pre- and post-yanking diagrams; they are semantically
    equal under :func:`sophisticated_model` unless a cup is replaced by
    a product of two single-wire states (the negative control).
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    t = WireType(BASE)
    wire = identity((t,))
    rho = dg.make_generator("rho", (), (t,), payload="rho")
    rho2 = dg.make_generator("rho2", (), (t,), payload="rho2")
    rho3 = dg.make_generator("rho3", (), (t,), payload="rho3")
    grey = dg.make_generator("grey_unitary", (t,), (t,), payload="grey_unitary")
    merge = dg.make_generator("merge3", (t, t, t), (t,), payload="merge3")

    the_cup = dg.cup(BASE, 0)
    if replace_cup_with_product:
        w1 = dg.make_generator("w1", (), (t.l,), payload="w1")
        w2 = dg.make_generator("w2", (), (t,), payload="w2")
        first_cup = w1 @ w2
    else:
        first_cup = the_cup

    # bottom: rho (x) cup (x) rho2 (x) cup (x) rho3
    # wires: [q(rho), q.L, q, q(rho2), q.L, q, q(rho3)]
    bottom = rho @ first_cup @ rho2 @ the_cup @ rho3
    # top: each cap eats a state wire and the matching cup leg, yanking
    # the state across; the grey unitary hits the first survivor and
    # everything merges into one wire
    caps = dg.cap(BASE, 0) @ wire @ dg.cap(BASE, 0) @ wire @ wire
    pre = bottom >> caps >> (grey @ wire @ wire) >> merge

    post = (rho @ rho2 @ rho3) >> (grey @ wire @ wire) >> merge
    return pre, post


def sophisticated_pair_equal(dim: int,
                             replace_cup_with_product: bool = False) -> bool:
    from .rewrite import equal

    pre, post = sophisticated_composition_demo(
        dim, replace_cup_with_product=replace_cup_with_product)
    return equal(pre, post, mode="semantic", model=sophisticated_model(dim))

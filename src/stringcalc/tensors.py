"""Tensor semantics: diagrams evaluated as complex tensor contractions.

A model assigns a dimension to every base symbol and a payload array to
every box reference.  A wire is a contraction label: cups, caps, swaps
and spiders build no array, they only say which wires carry the same
index.  :func:`evaluate` merges the wires through every structural node
with a union-find, so each class of wires becomes one integer label and
only boxes remain as operands.  A label shared by more than two operands
(a spider joining boxes) is a hyperedge.  A label open at several
boundary ports gets identity-matrix copies, an open label that no box
carries gets an all-ones vector, and a class that touches no box and no
boundary is a closed loop worth its dimension.

Pairs of operands that share a label are contracted greedily, smallest
result first, from a heap (the greedy path of opt_einsum, Smith & Gray,
JOSS 2018); disconnected parts join by outer product.  The result does
not depend on the order.  Each pair is one ``np.matmul`` of the two
operands transposed and reshaped to three axes: the shared labels that
survive the pair (hyperedges) are its batch axes, the other shared ones
are summed.  Unlike a plain ``np.einsum``, it reaches BLAS on large pairs.

Thick-wire (density-matrix) semantics is the CPM double (Selinger): every
wire is paired with a conjugate copy.  When every payload is pure, the
doubled network is the thin one (the ket layer) beside its conjugate
(the bra layer), with no wire between the two.  So thick evaluation
contracts at thin dimensions and doubles the result once, ``T (x)
conj(T)`` with the paired axes interleaved; the scalar becomes
``s conj(s)`` and a closed loop counts ``d * d``.  A payload flagged
``mixed`` already lives on thick wires and joins the two layers.  A
diagram holding one is contracted at squared dimensions, every pure
payload doubled, since regrouping its sums into two thin layers moves
the last bit of the results.

Every array that evaluation builds (a pair contraction, an outer
product, a boundary identity, a doubled payload or result) is checked
against ``MAX_ELEMENTS`` first; a larger one raises ``StateExplosion``
before numpy allocates it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diagram import BOX, IN, OUT, SWAP, Diagram, _unchecked
from .errors import (DimensionMismatch, MissingPayload, NotHermitian,
                     NotSquare, ShapeMismatch, StateExplosion, ZeroNorm)

__all__ = [
    "Tensor", "Payload", "Model",
    "evaluate", "double", "entropy", "similarity",
    "tensor_to_json", "random_payloads", "check_budget",
]

#: The most complex elements (1 GiB of complex128) that one array built
#: during evaluation, or by ``verify_teleportation``, may hold; a larger
#: one raises ``StateExplosion`` before numpy allocates it.
MAX_ELEMENTS = 1 << 26


@dataclass(frozen=True, eq=False)
class Tensor:
    """A dense complex multi-array with an explicit scalar factor.

    ``thick`` marks every axis as a thick wire, a ket index paired with
    its bra index; only :func:`evaluate` sets it.  Its shape is its
    array's, and tensors are equal when their arrays, scalars and marks are:

    >>> t = Tensor(np.array([1, 1j]))
    >>> t.shape, t == Tensor([1, 1j]), t == Tensor([1, 1j], scalar=2)
    ((2,), True, False)
    """

    data: np.ndarray
    scalar: complex = 1.0 + 0.0j
    thick: bool = False

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=complex))
        if self.scalar != self.scalar:  # NaN guard
            raise ValueError("scalar must not be NaN")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor) and self.scalar == other.scalar
                and self.thick == other.thick
                and np.array_equal(self.data, other.data))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def to_array(self) -> np.ndarray:
        return self.scalar * self.data

    def norm(self) -> float:
        return float(np.linalg.norm(self.to_array()))

    def allclose(self, other: "Tensor", tolerance: float = 1e-9) -> bool:
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        a, b = self.to_array(), other.to_array()
        scale = max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
        return bool(np.linalg.norm(a - b) <= tolerance * scale)


@dataclass(frozen=True)
class Payload:
    """A named tensor for a box, tagged pure or mixed."""

    tensor: Tensor
    kind: str = "pure"  # "pure" | "mixed"

    def __post_init__(self):
        if self.kind not in ("pure", "mixed"):
            raise ValueError(f"payload kind must be 'pure' or 'mixed', "
                             f"got {self.kind!r}")


@dataclass(frozen=True)
class Model:
    """Dimension table plus payload store; `doubling` selects semantics."""

    dims: dict[str, int]
    payloads: dict[str, Payload] = field(default_factory=dict)
    doubling: str = "thin"  # "thin" | "thick"

    def __post_init__(self):
        if self.doubling not in ("thin", "thick"):
            raise ValueError(f"doubling must be 'thin' or 'thick', "
                             f"got {self.doubling!r}")


def double(d: Diagram) -> Diagram:
    """Mark a diagram for thick-wire (density-matrix) evaluation."""
    return _unchecked(d.dom, d.cod, d.nodes, d.wires, True)


def double_array(a: np.ndarray) -> np.ndarray:
    """``T -> T (x) conj(T)`` with paired axes interleaved and merged."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        return a * np.conj(a)
    b = np.multiply.outer(a, a.conj())
    k = a.ndim
    perm = [x for i in range(k) for x in (i, k + i)]
    return b.transpose(perm).reshape([s * s for s in a.shape])


def evaluate(d: Diagram, model: Model) -> Tensor:
    """Contract a diagram to a tensor over its open ports (inputs first)."""
    thick = d.doubled or model.doubling == "thick"

    def wdim(base: str) -> int:
        try:
            return model.dims[base]
        except KeyError:
            raise DimensionMismatch(f"base {base!r} has no dimension") from None

    # every wire starts as its own class; structural nodes merge classes,
    # only of one base, since each node fits its kind
    wire_dim = [wdim(d.src_type(sn, sp).base) for sn, sp, _, _ in d.wires]
    parent = list(range(len(d.wires)))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    node_in = [[0] * len(g.dom) for g in d.nodes]
    node_out = [[0] * len(g.cod) for g in d.nodes]
    bound_in = [0] * len(d.dom)
    bound_out = [0] * len(d.cod)
    for k, (sn, sp, dn, dp) in enumerate(d.wires):
        (bound_in if sn == IN else node_out[sn])[sp] = k
        (bound_out if dn == OUT else node_in[dn])[dp] = k

    boxes = []
    for i, gen in enumerate(d.nodes):
        legs = node_in[i] + node_out[i]
        if gen.kind == BOX:
            boxes.append((i, legs))
        elif gen.kind == SWAP:
            parent[find(legs[3])] = find(legs[0])
            parent[find(legs[2])] = find(legs[1])
        else:  # cup, cap or spider
            for k in legs[1:]:
                parent[find(k)] = find(legs[0])

    # one integer label per class, numbered in order of first appearance
    label_of: dict[int, int] = {}
    dims: list[int] = []

    def label(k: int) -> int:
        root = find(k)
        if root not in label_of:
            label_of[root] = len(dims)
            dims.append(wire_dim[root])
        return label_of[root]

    scalar = 1.0 + 0.0j
    operands: list[tuple[list[int], np.ndarray]] = []
    mixed: set[int] = set()  # operands whose payload is a thick-wire array
    for i, legs in boxes:
        payload = _payload(d.nodes[i], model)
        arr, s = payload.tensor.data, payload.tensor.scalar
        expected = tuple(wire_dim[k] for k in legs)
        if payload.kind == "mixed":
            if not thick:
                raise DimensionMismatch(f"mixed payload {d.nodes[i].payload!r} "
                                        "needs thick-wire semantics")
            mixed.add(len(operands))
            expected = tuple(x * x for x in expected)
        elif thick:
            s = s * np.conj(s)
        scalar *= s
        if arr.shape != expected:
            raise DimensionMismatch(
                f"payload for node {i} ({d.nodes[i].name or BOX}) has shape "
                f"{arr.shape}, expected {expected}")
        operands.append(([label(k) for k in legs], arr))

    ports = [label(k) for k in bound_in + bound_out]
    if mixed:
        # a mixed payload lives on thick wires, so the network is built
        # at squared dimensions with every pure payload doubled
        dims = [x * x for x in dims]
        for k, (labels, arr) in enumerate(operands):
            if k not in mixed:
                check_budget(arr.size ** 2, "a doubled payload")
                operands[k] = (labels, double_array(arr))

    # an open label repeated on the boundary is joined to its copies by deltas
    output: list[int] = []
    for lbl in ports:
        if lbl in output:
            copy = len(dims)
            dims.append(dims[lbl])
            check_budget(dims[lbl] ** 2, "a boundary identity")
            operands.append(([lbl, copy], np.eye(dims[lbl], dtype=complex)))
            lbl = copy
        output.append(lbl)
    held = {l for labels, _ in operands for l in labels}
    for lbl in output:
        if lbl not in held:
            operands.append(([lbl], np.ones(dims[lbl], dtype=complex)))
    # a class touching no box and no boundary is a closed loop
    loops = 1
    for root in {find(k) for k in range(len(d.wires))}:
        if root not in label_of:
            loops *= wire_dim[root]

    result = _contract(operands, output, dims)
    if thick and not mixed:
        # the double of a pure network is its ket layer beside its
        # conjugate bra layer, with no wire between the two
        check_budget(result.size ** 2, "the doubled result")
        result = double_array(result)
    if thick:
        loops *= loops  # a thick loop is a ket loop beside a bra loop
    if loops != 1:
        result = result * loops
    return Tensor(result, scalar, thick)


def _payload_ref(gen) -> str:
    """The key of *gen*'s payload: its own reference, or its signature."""
    return gen.payload or "box:" + repr(gen.signature())


def _payload(gen, model: Model) -> Payload:
    ref = _payload_ref(gen)
    if ref not in model.payloads:
        raise MissingPayload(
            f"box {gen.name!r} has no payload ({gen.payload!r})")
    return model.payloads[ref]


def check_budget(elements: int, what: str) -> None:
    """``StateExplosion`` before numpy is asked for more than the budget."""
    if elements > MAX_ELEMENTS:
        raise StateExplosion(f"{what} needs {elements} complex elements, over "
                             f"the budget of {MAX_ELEMENTS}")


def _contract(operands, output: list[int], dims: list[int]):
    """Contract labelled operands to one array, its axes in *output* order.

    Greedy, as in opt_einsum: among pairs of operands that share a label,
    contract the one with the smallest result first.  Candidate pairs sit
    in a heap keyed by ``(result size, older operand, newer operand)``;
    entries naming an operand already consumed are skipped when popped.
    A label held by more than two operands (a spider joining boxes) is a
    hyperedge and survives a pair contraction until its last holder.
    Every pair goes through one kernel, :func:`_pair`.
    """
    # every label of a live operand is open or held by another operand;
    # the open ones are held by OPEN too, so a label of one of a pair
    # survives it, and a shared one exactly when it has a third holder
    OPEN = -1
    ops: dict[int, tuple[list[int], np.ndarray]] = {}
    holders: dict[int, set[int]] = {l: {OPEN} for l in output}
    for labels, arr in operands:
        for l in labels:
            holders.setdefault(l, set()).add(len(ops))
        ops[len(ops)] = (labels, arr)
    # repeated labels on one operand become a diagonal; a label held by
    # one operand only and not open is summed away
    for i, (labels, arr) in ops.items():
        out = [l for l in dict.fromkeys(labels) if len(holders[l]) > 1]
        if out != labels:
            for l in set(labels) - set(out):
                holders[l].discard(i)
            index = {l: k for k, l in enumerate(dict.fromkeys(labels))}
            ops[i] = (out, np.einsum(arr, [index[l] for l in labels],
                                     [index[l] for l in out]))

    def size(i: int, j: int) -> int:
        (la, _), (lb, _) = ops[i], ops[j]
        n = 1
        for l in la:
            if l not in lb or len(holders[l]) > 2:
                n *= dims[l]
        for l in lb:
            if l not in la:
                n *= dims[l]
        return n

    heap = [(size(i, j), i, j) for i in ops
            for j in {j for l in ops[i][0] for j in holders[l] if j > i}]
    heapq.heapify(heap)
    next_id = len(ops)
    while heap:
        n, i, j = heapq.heappop(heap)
        if i not in ops or j not in ops:
            continue
        (la, a), (lb, b) = ops.pop(i), ops.pop(j)
        for l in la:
            holders[l].discard(i)
        for l in lb:
            holders[l].discard(j)
        # an operand's labels never change, nor do the holders that make
        # one survive while both live, so *n* is this pair's result size
        check_budget(n, "a pair contraction")
        out, merged = _pair(a, la, b, lb,
                            [l for l in la if l in lb and holders[l]])
        partners: set[int] = set()
        for l in out:
            partners |= holders[l]
            holders[l].add(next_id)
        partners.discard(OPEN)
        ops[next_id] = (out, merged)
        for k in partners:
            heapq.heappush(heap, (size(k, next_id), k, next_id))
        next_id += 1

    # disconnected parts join by outer product, smallest first
    rest = sorted(ops.values(), key=lambda op: op[1].size)
    if not rest:
        return np.array(1.0 + 0.0j)
    labels, result = rest[0]
    for la, a in rest[1:]:
        check_budget(result.size * a.size, "an outer product")
        labels, result = labels + la, np.multiply.outer(result, a)
    return result.transpose([labels.index(l) for l in output])


def _pair(a: np.ndarray, la: list[int], b: np.ndarray, lb: list[int],
          batch: list[int]) -> tuple[list[int], np.ndarray]:
    """Contract *a* and *b* over their shared labels by one ``np.matmul``.

    The shared labels in *batch* survive as its batch axes, the others are
    summed.  Each operand is transposed to ``(batch, own, summed)`` or
    ``(batch, summed, own)`` and reshaped to three axes, so the result's
    labels are *batch*, then *a*'s own, then *b*'s own.
    """
    summed = [l for l in la if l in lb and l not in batch]
    own_a = [l for l in la if l not in lb]
    own_b = [l for l in lb if l not in la]
    order = batch + own_a + summed
    if order != la:
        a = a.transpose([la.index(l) for l in order])
    order = batch + summed + own_b
    if order != lb:
        b = b.transpose([lb.index(l) for l in order])
    nb, na = len(batch), len(own_a)
    lead, shape_a = a.shape[:nb], a.shape[nb:nb + na]
    shape_b = b.shape[b.ndim - len(own_b):]
    k = math.prod(a.shape[nb + na:])
    merged = np.matmul(a.reshape(lead + (math.prod(shape_a), k)),
                       b.reshape(lead + (k, math.prod(shape_b))))
    return batch + own_a + own_b, merged.reshape(lead + shape_a + shape_b)


# -- derived quantities ----------------------------------------------------


def as_density_matrix(t: Tensor) -> np.ndarray:
    """Reshape a tensor to the square matrix it represents.

    A thick result of :func:`evaluate` splits each axis into its ket and
    bra half, and the halves are grouped.  Any other rank-2 square tensor
    is used directly; otherwise every axis must be a perfect square and
    is split the same way.
    """
    arr = t.to_array()
    if not t.thick and arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr
    halves = []
    for s in arr.shape:
        root = math.isqrt(s)
        if root * root != s:
            raise NotSquare(f"axis of size {s} is not a squared wire")
        halves.append(root)
    if not halves:
        raise NotSquare("scalar tensor has no matrix form")
    split = arr.reshape([x for h in halves for x in (h, h)])
    k = len(halves)
    perm = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
    side = int(np.prod(halves))
    return split.transpose(perm).reshape(side, side)


def entropy(t: Tensor) -> float:
    """Von Neumann entropy (base 2) of a tensor read as a density matrix.

    The matrix must be Hermitian to within 1e-9 times its norm or 1,
    whichever is larger.  It is normalized to unit trace, and eigenvalues
    up to 1e-12 count as exact zeros.  A pure state gives ``+0.0``: the
    sum is clamped at 0, so neither ``-0.0`` nor a rounding error below 0
    comes out.
    """
    rho = as_density_matrix(t)
    scale = max(np.linalg.norm(rho), 1.0)
    if np.linalg.norm(rho - rho.conj().T) > 1e-9 * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    trace = np.trace(rho).real
    if trace <= 0:
        raise ValueError("density matrix must have positive trace")
    eigs = np.linalg.eigvalsh(rho) / trace
    eigs = eigs[eigs > 1e-12]
    return max(0.0, float(-np.sum(eigs * np.log2(eigs))))


def similarity(t1: Tensor, t2: Tensor, kind: str = "cosine") -> float:
    """Compare two tensors of equal shape.

    ``cosine`` is ``|<t1, t2>| / (||t1|| ||t2||)``; ``normalized-overlap``
    reads both as density matrices and returns
    ``Tr(rho1 rho2) / (Tr rho1 * Tr rho2)``.
    """
    if t1.shape != t2.shape:
        raise ShapeMismatch(f"{t1.shape} vs {t2.shape}")
    if kind == "cosine":
        a, b = t1.to_array().ravel(), t2.to_array().ravel()
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            raise ZeroNorm("cosine similarity of a zero tensor")
        return float(abs(np.vdot(a, b)) / (na * nb))
    if kind == "normalized-overlap":
        r1, r2 = as_density_matrix(t1), as_density_matrix(t2)
        tr1, tr2 = np.trace(r1).real, np.trace(r2).real
        if tr1 == 0 or tr2 == 0:
            raise ZeroNorm("overlap of a traceless tensor")
        return float(np.trace(r1 @ r2).real / (tr1 * tr2))
    raise ValueError(f"unknown similarity kind {kind!r}")


# -- serialization ---------------------------------------------------------


def tensor_to_json(t: Tensor) -> dict:
    flat = t.data.ravel()
    return {
        "shape": list(t.shape),
        "data": [[float(x.real), float(x.imag)] for x in flat],
        "scalar": [float(t.scalar.real), float(t.scalar.imag)],
    }


# -- payload helpers -------------------------------------------------------


def random_payloads(model: Model, diagrams, seed: int = 0) -> Model:
    """Fill in missing box payloads with seeded random complex arrays.

    The same reference (or, failing that, the same box signature) gets
    the same array, so shared boxes across diagrams stay equal.
    """
    import hashlib  # here, its only use, so other callers do not load it

    payloads = dict(model.payloads)
    for d in diagrams:
        for gen in d.nodes:
            if gen.kind != BOX:
                continue
            ref = _payload_ref(gen)
            if ref in payloads:
                continue
            shape = tuple(model.dims[t.base] for t in gen.dom + gen.cod)
            digest = hashlib.sha256(
                repr((seed, gen.name, shape)).encode()).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            payloads[ref] = Payload(Tensor(arr))
    return replace(model, payloads=payloads)

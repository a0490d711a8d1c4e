"""Typed string diagrams as immutable port-graphs.

A diagram is a set of generator nodes plus wires between ports.  A wire
endpoint is either a node port or a boundary port of the diagram itself,
so a bare identity wire is simply a boundary-to-boundary wire with no
node at all.  Sequential and parallel composition are pure functions
that glue or juxtapose port-graphs; associativity, unit laws and the
interchange law therefore hold on the nose (up to the canonical node
numbering used by structural equality) rather than as rewrite rules.

Wire encoding: a wire is a 4-tuple ``(sn, sp, dn, dp)``.  ``sn >= 0``
means output port ``sp`` of node ``sn``; ``sn == -1`` means boundary
input ``sp``.  ``dn >= 0`` means input port ``dp`` of node ``dn``;
``dn == -2`` means boundary output ``dp``.  The wires of a diagram are a
set: their order means nothing, and only the canonical form and the JSON
writer sort them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidDiagram, TypeMismatch, ZeroArity, require
from .types import (TypeList, WireType, check_declared, parse_wiretype,
                    typelist_str)

__all__ = [
    "BOX", "CUP", "CAP", "SWAP", "SPIDER", "IDENTITY",
    "Generator", "Diagram", "Violation",
    "identity", "identity_node", "make_generator", "box",
    "cup", "cap", "swap", "spider", "permutation",
    "compose_seq", "compose_par",
    "validate", "diagram_to_json", "diagram_from_json",
]

BOX = "box"
CUP = "cup"
CAP = "cap"
SWAP = "swap"
SPIDER = "spider"
IDENTITY = "id"

IN = -1   # boundary-input pseudo node
OUT = -2  # boundary-output pseudo node

Wire = tuple[int, int, int, int]


@dataclass(frozen=True)
class Generator:
    """A single node: box, cup, cap, swap, spider or explicit identity.

    A spider's legs share one base, in any adjoint orders (``n.L n n``).
    """

    kind: str
    dom: TypeList
    cod: TypeList
    name: str = ""
    payload: str | None = None

    def signature(self) -> tuple:
        return (
            self.kind,
            self.name,
            tuple(str(t) for t in self.dom),
            tuple(str(t) for t in self.cod),
            self.payload,
        )


@dataclass(frozen=True, eq=False)
class Diagram:
    """An acyclic port-graph with ordered open inputs and outputs."""

    dom: TypeList
    cod: TypeList
    nodes: tuple[Generator, ...]
    wires: tuple[Wire, ...]
    doubled: bool = False

    # -- composition ---------------------------------------------------

    # the module functions are looked up at each call, so a wrapper
    # installed on the module sees every ``>>`` and ``@``
    def __rshift__(self, other: "Diagram") -> "Diagram":
        return compose_seq(self, other)

    def __matmul__(self, other: "Diagram") -> "Diagram":
        return compose_par(self, other)

    # -- wire lookup ---------------------------------------------------

    @cached_property
    def _src_map(self) -> dict[tuple[int, int], Wire]:
        return {(w[0], w[1]): w for w in self.wires}

    @cached_property
    def _dst_map(self) -> dict[tuple[int, int], Wire]:
        return {(w[2], w[3]): w for w in self.wires}

    def src_type(self, sn: int, sp: int) -> WireType:
        return self.dom[sp] if sn == IN else self.nodes[sn].cod[sp]

    def dst_type(self, dn: int, dp: int) -> WireType:
        return self.cod[dp] if dn == OUT else self.nodes[dn].dom[dp]

    # -- structural equality -------------------------------------------

    @cached_property
    def canonical_key(self) -> tuple:
        c = self.canonical()
        return (
            tuple(str(t) for t in self.dom),
            tuple(str(t) for t in self.cod),
            tuple(g.signature() for g in c.nodes),
            c.wires,
            self.doubled,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def canonical(self) -> "Diagram":
        """The same diagram with nodes renumbered in canonical order."""
        nodes, wires = _renumber(self, canonical_order(self), self.wires)
        return Diagram(self.dom, self.cod, nodes, wires, self.doubled)

    def __repr__(self) -> str:
        return (f"Diagram(dom={[str(t) for t in self.dom]}, "
                f"cod={[str(t) for t in self.cod]}, nodes={len(self.nodes)})")


# -- constructors -------------------------------------------------------


def identity(types: TypeList) -> Diagram:
    """Node-less identity: each wire runs straight through."""
    types = tuple(types)
    return Diagram(types, types, (),
                   tuple((IN, k, OUT, k) for k in range(len(types))))


def _one_node(gen: Generator) -> Diagram:
    """The diagram of a single node, its ports wired to the boundary in order."""
    return Diagram(gen.dom, gen.cod, (gen,),
                   tuple((IN, k, 0, k) for k in range(len(gen.dom)))
                   + tuple((0, k, OUT, k) for k in range(len(gen.cod))))


def identity_node(t: WireType) -> Diagram:
    """An explicit identity generator on one wire (removed by normalize)."""
    return _one_node(Generator(IDENTITY, (t,), (t,)))


def make_generator(name: str, dom: TypeList, cod: TypeList,
                   payload: str | None = None) -> Diagram:
    """A single-box diagram ``dom -> cod``.

    States have an empty ``dom``, effects an empty ``cod``.
    """
    if not name:
        raise ValueError("generator name must be nonempty")
    return _one_node(Generator(BOX, tuple(dom), tuple(cod), name=name,
                               payload=payload))


box = make_generator


def cup(base: str, z: int = 0) -> Diagram:
    """A cup state ``[] -> [b^(z+1), b^z]``.

    With :func:`cap` on the same ``z``, the snake composed from the two
    type-checks on the wire ``b^z``.
    """
    return _one_node(Generator(CUP, (), (WireType(base, z + 1),
                                         WireType(base, z))))


def cap(base: str, z: int = 0) -> Diagram:
    """A cap effect ``[b^z, b^(z+1)] -> []``, oriented as for :func:`cup`."""
    return _one_node(Generator(CAP, (WireType(base, z),
                                     WireType(base, z + 1)), ()))


def swap(u: WireType, v: WireType) -> Diagram:
    return _one_node(Generator(SWAP, (u, v), (v, u)))


def spider(base: str, n_in: int, m_out: int) -> Diagram:
    """A Frobenius spider with ``n_in + m_out`` legs of type ``base^0``."""
    if n_in + m_out < 1:
        raise ZeroArity("a spider needs at least one leg")
    t = WireType(base)
    return _one_node(Generator(SPIDER, (t,) * n_in, (t,) * m_out))


def permutation(types: TypeList, perm: list[int]) -> Diagram:
    """A diagram of swaps sending input ``i`` to output ``perm[i]``.

    One port graph with a SWAP node per adjacent transposition of a bubble
    sort, numbered in the order the sort makes them: one per inversion.
    """
    types = tuple(types)
    if sorted(perm) != list(range(len(types))):
        raise ValueError(f"not a permutation: {perm!r}")
    current = list(range(len(types)))  # current[j] = original index at slot j
    feed = [(IN, j) for j in range(len(types))]  # the port feeding slot j
    nodes: list[Generator] = []
    wires: list[Wire] = []
    changed = True
    while changed:
        changed = False
        for j in range(len(current) - 1):
            a, b = current[j], current[j + 1]
            if perm[a] > perm[b]:
                k = len(nodes)
                nodes.append(Generator(SWAP, (types[a], types[b]),
                                       (types[b], types[a])))
                wires += [feed[j] + (k, 0), feed[j + 1] + (k, 1)]
                feed[j], feed[j + 1] = (k, 0), (k, 1)
                current[j], current[j + 1] = b, a
                changed = True
    wires += [feed[j] + (OUT, j) for j in range(len(types))]
    return Diagram(types, tuple(types[i] for i in current), tuple(nodes),
                   tuple(wires))


# -- composition ---------------------------------------------------------


def compose_seq(f: Diagram, g: Diagram) -> Diagram:
    """Glue ``f``'s outputs to ``g``'s inputs."""
    if f.doubled != g.doubled:
        raise TypeMismatch("cannot compose a doubled with a plain diagram")
    if f.cod != g.dom:
        for k, (a, b) in enumerate(zip(f.cod, g.dom)):
            if a != b:
                raise TypeMismatch(
                    f"port {k}: {a} (output of first) != {b} (input of second)")
        raise TypeMismatch(
            f"arity mismatch: {len(f.cod)} outputs vs {len(g.dom)} inputs")
    shift = len(f.nodes)

    def shift_g(n: int) -> int:
        return n if n < 0 else n + shift

    wires: list[Wire] = []
    # f wires not ending on the boundary output survive unchanged
    glue_src: dict[int, tuple[int, int]] = {}
    for sn, sp, dn, dp in f.wires:
        if dn == OUT:
            glue_src[dp] = (sn, sp)
        else:
            wires.append((sn, sp, dn, dp))
    for sn, sp, dn, dp in g.wires:
        if sn == IN:
            xsn, xsp = glue_src[sp]
            wires.append((xsn, xsp, shift_g(dn), dp))
        else:
            wires.append((sn + shift, sp, shift_g(dn), dp))
    return Diagram(f.dom, g.cod, f.nodes + g.nodes, tuple(wires),
                   doubled=f.doubled)


def compose_par(f: Diagram, g: Diagram) -> Diagram:
    """Juxtapose two diagrams; open port lists concatenate."""
    if f.doubled != g.doubled:
        raise TypeMismatch("cannot juxtapose a doubled with a plain diagram")
    shift = len(f.nodes)
    din, dout = len(f.dom), len(f.cod)

    def remap(n: int, p: int) -> tuple[int, int]:
        if n == IN:
            return n, p + din
        if n == OUT:
            return n, p + dout
        return n + shift, p

    wires = f.wires + tuple(remap(sn, sp) + remap(dn, dp)
                            for sn, sp, dn, dp in g.wires)
    return Diagram(f.dom + g.dom, f.cod + g.cod, f.nodes + g.nodes, wires,
                   doubled=f.doubled)


# -- validation ----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate(d: Diagram) -> list[Violation]:
    """Check the port-graph invariants; an empty list means well-formed."""
    found: list[Violation] = []
    src_seen: dict[tuple[int, int], int] = {}
    dst_seen: dict[tuple[int, int], int] = {}
    for w in d.wires:
        sn, sp, dn, dp = w
        src_seen[(sn, sp)] = src_seen.get((sn, sp), 0) + 1
        dst_seen[(dn, dp)] = dst_seen.get((dn, dp), 0) + 1
        if sn != IN and not (0 <= sn < len(d.nodes) and 0 <= sp < len(d.nodes[sn].cod)):
            found.append(Violation("BadEndpoint", f"wire {w} has no source port"))
            continue
        if dn != OUT and not (0 <= dn < len(d.nodes) and 0 <= dp < len(d.nodes[dn].dom)):
            found.append(Violation("BadEndpoint", f"wire {w} has no target port"))
            continue
        if sn == IN and not sp < len(d.dom):
            found.append(Violation("BadEndpoint", f"wire {w} exceeds input boundary"))
            continue
        if dn == OUT and not dp < len(d.cod):
            found.append(Violation("BadEndpoint", f"wire {w} exceeds output boundary"))
            continue
        a, b = d.src_type(sn, sp), d.dst_type(dn, dp)
        if a != b:
            found.append(Violation("TypeMismatch", f"wire {w} joins {a} to {b}"))
    for (ep, count) in list(src_seen.items()) + list(dst_seen.items()):
        if count > 1:
            found.append(Violation("PortReuse", f"port {ep} used {count} times"))
    for k in range(len(d.dom)):
        if (IN, k) not in src_seen:
            found.append(Violation("OpenPortUnused", f"boundary input {k} unused"))
    for k in range(len(d.cod)):
        if (OUT, k) not in dst_seen:
            found.append(Violation("OpenPortUnused", f"boundary output {k} unused"))
    for i, gen in enumerate(d.nodes):
        for p in range(len(gen.dom)):
            if (i, p) not in dst_seen:
                found.append(Violation("PortUnused", f"input port ({i}, {p}) unused"))
        for p in range(len(gen.cod)):
            if (i, p) not in src_seen:
                found.append(Violation("PortUnused", f"output port ({i}, {p}) unused"))
    if _has_cycle(d):
        found.append(Violation("Cycle", "port-graph has a directed cycle"))
    return found


def _has_cycle(d: Diagram) -> bool:
    succ: dict[int, set[int]] = {i: set() for i in range(len(d.nodes))}
    indeg = {i: 0 for i in range(len(d.nodes))}
    for sn, _, dn, _ in d.wires:
        if sn >= 0 and dn >= 0 and dn not in succ[sn]:
            succ[sn].add(dn)
            indeg[dn] += 1
    queue = deque(i for i, k in indeg.items() if k == 0)
    seen = 0
    while queue:
        i = queue.popleft()
        seen += 1
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    return seen != len(d.nodes)


# -- canonical ordering --------------------------------------------------


def canonical_order(d: Diagram) -> list[int]:
    """A node order that depends only on diagram structure.

    Nodes reachable from the boundary are numbered by a breadth-first
    traversal anchored at the ordered open ports; disconnected (scalar)
    components are ordered by their minimal encoding over all choices of
    traversal root.
    """
    seen: set[int] = set()
    order: list[int] = []
    queue: deque[int] = deque()

    def discover(n: int) -> None:
        if n >= 0 and n not in seen:
            seen.add(n)
            order.append(n)
            queue.append(n)

    for k in range(len(d.dom)):
        discover(d._src_map[(IN, k)][2])
    for k in range(len(d.cod)):
        discover(d._dst_map[(OUT, k)][0])
    _expand(d, queue, discover)

    rest = [i for i in range(len(d.nodes)) if i not in seen]
    if rest:
        bests = [min(_component_order(d, root, comp) for root in comp)
                 for comp in _components(d, rest)]
        for _, comp_order in sorted(bests):
            order.extend(comp_order)
    return order


def _expand(d: Diagram, queue: deque, discover) -> None:
    while queue:
        i = queue.popleft()
        gen = d.nodes[i]
        for p in range(len(gen.dom)):
            discover(d._dst_map[(i, p)][0])
        for p in range(len(gen.cod)):
            discover(d._src_map[(i, p)][2])


def _components(d: Diagram, rest: list[int]) -> list[list[int]]:
    rest_set = set(rest)
    neighbours: dict[int, set[int]] = {i: set() for i in rest}
    for sn, _, dn, _ in d.wires:
        if sn in rest_set and dn in rest_set:
            neighbours[sn].add(dn)
            neighbours[dn].add(sn)
    comps = []
    todo = set(rest)
    while todo:
        root = min(todo)
        comp = []
        stack = [root]
        todo.discard(root)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in neighbours[i]:
                if j in todo:
                    todo.discard(j)
                    stack.append(j)
        comps.append(comp)
    return comps


def _component_order(d: Diagram, root: int, comp: list[int]) -> tuple[tuple, list[int]]:
    comp_set = set(comp)
    seen: set[int] = set()
    order: list[int] = []
    queue: deque[int] = deque()

    def discover(n: int) -> None:
        if n in comp_set and n not in seen:
            seen.add(n)
            order.append(n)
            queue.append(n)

    discover(root)
    _expand(d, queue, discover)
    # no wire joins the component to the boundary or to another component
    nodes, wires = _renumber(d, order, [w for w in d.wires if w[0] in comp_set])
    return ((tuple(g.signature() for g in nodes), wires), order)


def _renumber(d: Diagram, order: list[int], wires) -> tuple[tuple, tuple]:
    """The nodes listed in *order*, and *wires* renumbered to match, sorted."""
    pos = {n: i for i, n in enumerate(order)}
    pos[IN], pos[OUT] = IN, OUT
    wires = sorted((pos[sn], sp, pos[dn], dp) for sn, sp, dn, dp in wires)
    return tuple(d.nodes[i] for i in order), tuple(wires)


# -- JSON serialization ---------------------------------------------------


def diagram_to_json(d: Diagram) -> dict:
    """Serialize as a plain dict; `json.dumps` of this round-trips."""
    bases = sorted({t.base for g in d.nodes for t in g.dom + g.cod}
                   | {t.base for t in d.dom + d.cod})
    nodes = []
    for i, g in enumerate(d.nodes):
        entry = {
            "id": i,
            "kind": g.kind,
            "name": g.name,
            "dom": [str(t) for t in g.dom],
            "cod": [str(t) for t in g.cod],
        }
        if g.payload is not None:
            entry["payload"] = g.payload
        if g.kind == SPIDER:
            entry["spider"] = [len(g.dom), len(g.cod)]
        nodes.append(entry)
    return {
        "types": {b: True for b in bases},
        "nodes": nodes,
        "edges": [list(w) for w in sorted(d.wires)],
        "inputs": [str(t) for t in d.dom],
        "outputs": [str(t) for t in d.cod],
        "doubled": d.doubled,
    }


# What each node kind's dom and cod must be.  Loading checks this, since a
# loaded node is the only one not built by the constructors above.
_FITS = {
    BOX: lambda dom, cod: True,
    CUP: lambda dom, cod: not dom and len(cod) == 2 and cod[0] == cod[1].l,
    CAP: lambda dom, cod: not cod and len(dom) == 2 and dom[1] == dom[0].l,
    SWAP: lambda dom, cod: len(dom) == 2 and cod == dom[::-1],
    IDENTITY: lambda dom, cod: len(dom) == 1 and cod == dom,
    SPIDER: lambda dom, cod: len({t.base for t in dom + cod}) == 1,
}


def diagram_from_json(data: dict) -> Diagram:
    """Inverse of :func:`diagram_to_json`; validates the result."""
    def types(obj, key: str, where: str, *default) -> TypeList:
        tokens = require(obj, key, list, where, *default)
        if not all(isinstance(t, str) for t in tokens):
            raise ValueError(f"{where} field {key!r} must list type strings")
        return tuple(parse_wiretype(t) for t in tokens)

    entries = require(data, "nodes", list, "diagram", [])
    ids = [require(e, "id", int, "diagram node") for e in entries]
    if sorted(ids) != list(range(len(ids))):
        raise ValueError("diagram node field 'id' must number the nodes "
                         "0 to n-1, each once")
    edges = require(data, "edges", list, "diagram", [])
    if {len(w) if type(w) is list else 0 for w in edges} - {4} \
            or {type(x) for w in edges for x in w} - {int}:
        raise ValueError("diagram field 'edges' must list edges of four "
                         "integers")
    nodes = []
    for entry in sorted(entries, key=lambda e: e["id"]):
        gen = Generator(
            kind=require(entry, "kind", str, "diagram node"),
            dom=types(entry, "dom", "diagram node"),
            cod=types(entry, "cod", "diagram node"),
            name=entry.get("name", ""),
            payload=entry.get("payload"),
        )
        if gen.kind not in _FITS:
            raise ValueError(f"diagram node {entry['id']} has unknown kind "
                             f"{gen.kind!r}")
        if not _FITS[gen.kind](gen.dom, gen.cod):
            raise ValueError(
                f"diagram node {entry['id']}: a {gen.kind} cannot go from "
                f"[{typelist_str(gen.dom)}] to [{typelist_str(gen.cod)}]")
        nodes.append(gen)
    d = Diagram(
        dom=types(data, "inputs", "diagram", []),
        cod=types(data, "outputs", "diagram", []),
        nodes=tuple(nodes),
        wires=tuple(tuple(w) for w in edges),
        doubled=require(data, "doubled", bool, "diagram", False),
    )
    table = set(data.get("types", {}))
    if table:
        for g in d.nodes:
            check_declared(g.dom + g.cod, table)
        check_declared(d.dom + d.cod, table)
    problems = validate(d)
    if problems:
        raise InvalidDiagram("; ".join(str(v) for v in problems))
    return d

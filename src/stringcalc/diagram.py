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
``dn == -2`` means boundary output ``dp``.

Every ``Diagram`` is valid: building one (``Diagram(...)`` or
``dataclasses.replace``) establishes these invariants in one pass, or
raises ``InvalidDiagram`` naming every violation:

* ``dom``, ``cod``, ``nodes`` and ``wires`` are tuples, and so are each
  node's ``dom`` and ``cod``;
* every type is a ``WireType`` of a string base and an integer order,
  each node's ``name`` is a string and its ``payload`` a string or
  ``None``, and ``doubled`` is a ``bool``;
* each wire is four integers;
* each node fits its kind: a cup is ``[] -> [t.l, t]``, a cap
  ``[t, t.l] -> []``, a swap ``[u, v] -> [v, u]``, a spider's legs share
  one base, and a box is any arrow;
* the wires form an acyclic port graph: each joins two existing ports of
  one type, and each port is the end of exactly one wire;
* the wires into the boundary outputs come last, in port order.  The
  wires are a set and no result depends on their order, but ``f >> g``
  reads the glued ports off that tail, so it costs Python work in ``g``
  only, and ``f @ g`` in ``g`` and ``f``'s outputs.

So no operation checks its input.  What a rule that keeps the invariants
builds from valid diagrams (the constructors here, ``>>``, ``@``, the
canonical and normal forms and the double) skips the check.  The
constructors that take types or bases (``identity``, ``identity_node``,
``swap``, ``permutation``, ``make_generator``, ``cup``, ``cap`` and
``spider``) only test those, and a box's name and payload, in bulk, and
raise the check's ``BadField``.  So does a
sentence's ``pregroup.grammar_diagram``: its word states are valid and
have no inputs, and links that pass the reduction check join distinct
outputs of that row, each to its left adjoint, so its caps are a valid
wiring.  Its word states are built once per lexicon, so the structural
ones (cups and spiders, built through the check) are checked once each.

A diagram is immutable, so values are shared: a ``Generator`` is the
named tuple ``(kind, dom, cod, name, payload)`` and equals that plain
tuple, ``cup`` and ``cap`` build one diagram per ``(base, z)``, a single
node's wires are built once per arity, and the JSON loader parses each
distinct type string once per load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

from .errors import (InvalidDiagram, TypeMismatch, ZeroArity, require,
                     require_strings)
from .types import (TypeList, WireType, check_declared, parse_wiretype,
                    typelist_str)

__all__ = [
    "BOX", "CUP", "CAP", "SWAP", "SPIDER",
    "Generator", "Diagram",
    "identity", "identity_node", "make_generator",
    "cup", "cap", "swap", "spider", "permutation",
    "compose_seq", "compose_par",
    "diagram_to_json", "diagram_from_json",
]

BOX = "box"
CUP = "cup"
CAP = "cap"
SWAP = "swap"
SPIDER = "spider"
IDENTITY = "id"  # no node has this kind; the tests' oracle still reads it

IN = -1   # boundary-input pseudo node
OUT = -2  # boundary-output pseudo node

Wire = tuple[int, int, int, int]


class Generator(NamedTuple):
    """A single node: box, cup, cap, swap or spider.

    A spider's legs share one base, in any adjoint orders (``n.L n n``).
    A node is the named tuple ``(kind, dom, cod, name, payload)``: it
    hashes and compares in C, and equals that plain tuple.
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

    def __post_init__(self) -> None:
        self.__dict__.update(dom=tuple(self.dom), cod=tuple(self.cod),
                             wires=tuple(self.wires))
        self.__dict__["nodes"], self.__dict__["wires"] = _check(self)

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

    # -- structural equality -------------------------------------------

    @cached_property
    def canonical_key(self) -> tuple:
        c = self.canonical()
        return (self.dom, self.cod, c.nodes, c.wires, self.doubled)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def canonical(self) -> "Diagram":
        """The same diagram with nodes renumbered in canonical order."""
        nodes, wires = _renumber(self, canonical_order(self), self.wires)
        return _unchecked(self.dom, self.cod, nodes, wires, self.doubled)

    def __repr__(self) -> str:
        return (f"Diagram(dom={[str(t) for t in self.dom]}, "
                f"cod={[str(t) for t in self.cod]}, nodes={len(self.nodes)})")


# -- constructors -------------------------------------------------------


def _unchecked(dom: TypeList, cod: TypeList, nodes: tuple[Generator, ...],
               wires: tuple[Wire, ...], doubled: bool = False) -> Diagram:
    """A ``Diagram`` made without the check, for a caller that builds it
    from valid diagrams by a rule that keeps the invariants."""
    d = object.__new__(Diagram)
    d.__dict__.update(dom=dom, cod=cod, nodes=nodes, wires=wires,
                      doubled=doubled)
    return d


def _typed(d: Diagram, types: TypeList, name: object = "",
           payload: object = None) -> Diagram:
    """*d*, built without the check from *types*, *name* and *payload*, if
    the types are wire types, the name a string and the payload a string
    or ``None``; else the check's ``BadField``."""
    if not _wire_types(types) or type(name) is not str \
            or type(payload) not in (str, type(None)):
        _check(d)  # raises BadField
    return d


def _wire_types(types) -> bool:
    """Whether each of *types* is a ``WireType`` of a string base and an
    integer order: in bulk if each base is a ``str`` itself, else one by
    one.  A plain tuple equals a ``WireType`` and ``True`` equals 1, so
    the bulk test compares classes."""
    return {type(t) is WireType and (type(t.base), type(t.z))
            for t in types} <= {(str, int)} \
        or not any(map(_not_a_wire_type, types))


def identity(types: TypeList) -> Diagram:
    """Node-less identity: each wire runs straight through."""
    types = tuple(types)
    return _typed(_unchecked(types, types, (), tuple(
        (IN, k, OUT, k) for k in range(len(types)))), types)


def _one_node(gen: Generator) -> Diagram:
    """The diagram of a single node, its ports wired to the boundary in order."""
    return _unchecked(gen.dom, gen.cod, (gen,),
                      _node_wires(len(gen.dom), len(gen.cod)))


@lru_cache
def _node_wires(n_in: int, n_out: int) -> tuple[Wire, ...]:
    """The wires of a single node of *n_in* inputs and *n_out* outputs."""
    return (tuple((IN, k, 0, k) for k in range(n_in))
            + tuple((0, k, OUT, k) for k in range(n_out)))


def identity_node(t: WireType) -> Diagram:
    """The identity on the one wire *t*: a wire, not a node.

    >>> identity_node(WireType("n")) == identity((WireType("n"),))
    True
    """
    return identity((t,))


def make_generator(name: str, dom: TypeList, cod: TypeList,
                   payload: str | None = None) -> Diagram:
    """A single-box diagram ``dom -> cod``.

    States have an empty ``dom``, effects an empty ``cod``.
    """
    if not name:
        raise ValueError("generator name must be nonempty")
    gen = Generator(BOX, tuple(dom), tuple(cod), name=name, payload=payload)
    return _typed(_one_node(gen), gen.dom + gen.cod, name, payload)


def cup(base: str, z: int = 0) -> Diagram:
    """A cup state ``[] -> [b^(z+1), b^z]``, built once per ``(base, z)``.

    With :func:`cap` on the same ``z``, the snake composed from the two
    type-checks on the wire ``b^z``.
    """
    return _bent(CUP, base, z)


def cap(base: str, z: int = 0) -> Diagram:
    """A cap effect ``[b^z, b^(z+1)] -> []``, oriented as for :func:`cup`
    and built once per ``(base, z)``."""
    return _bent(CAP, base, z)


def _bent(kind: str, base: str, z: int) -> Diagram:
    """The cup or cap of *kind* on ``b^z`` and ``b^(z+1)``.  It comes from
    the memo only if *base* is a ``str`` and *z* an ``int``, tested by
    class: a list does not hash, and ``True == 1`` would find the cup of
    order 1.  Else it is built afresh, through the check's ``BadField``
    (a subclass of ``str`` passes it)."""
    if type(base) is str and type(z) is int:
        return _bent_once(kind, base, z)
    try:
        z + 1
    except TypeError:
        raise InvalidDiagram(f"BadField: the order {z!r} of a {kind} is not "
                             "an integer") from None
    return _bent_once.__wrapped__(kind, base, z)


@lru_cache
def _bent_once(kind: str, base: str, z: int) -> Diagram:
    legs = (WireType(base, z), WireType(base, z + 1))
    gen = (Generator(CUP, (), legs[::-1]) if kind == CUP
           else Generator(CAP, legs, ()))
    return _typed(_one_node(gen), gen.dom + gen.cod)


def swap(u: WireType, v: WireType) -> Diagram:
    return _typed(_one_node(Generator(SWAP, (u, v), (v, u))), (u, v))


def spider(base: str, n_in: int, m_out: int) -> Diagram:
    """A Frobenius spider with ``n_in + m_out`` legs of type ``base^0``."""
    if {type(n_in), type(m_out)} != {int} or min(n_in, m_out) < 0:
        raise ValueError(f"a spider cannot have {n_in} inputs and {m_out} "
                         "outputs")
    if n_in + m_out < 1:
        raise ZeroArity("a spider needs at least one leg")
    t = WireType(base)
    return _typed(_one_node(Generator(SPIDER, (t,) * n_in, (t,) * m_out)),
                  (t,))


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
    return _typed(_unchecked(types, tuple(types[i] for i in current),
                             tuple(nodes), tuple(wires)), types)


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
    f_wires, g_wires = f.wires, g.wires
    n = len(f_wires) - len(f.cod)
    # f's wires up to its outputs survive unchanged; the ports feeding
    # those outputs feed g's inputs
    wires = f_wires[:n] + tuple(
        (f_wires[n + sp][:2] if sn == IN else (sn + shift, sp))
        + (dn if dn < 0 else dn + shift, dp)
        for sn, sp, dn, dp in g_wires)
    return _unchecked(f.dom, g.cod, f.nodes + g.nodes, wires, f.doubled)


def compose_par(f: Diagram, g: Diagram) -> Diagram:
    """Juxtapose two diagrams; open port lists concatenate."""
    if f.doubled != g.doubled:
        raise TypeMismatch("cannot juxtapose a doubled with a plain diagram")
    shift = len(f.nodes)
    din, dout = len(f.dom), len(f.cod)
    f_wires = f.wires
    # g's nodes are numbered after f's, and its open ports after f's
    g_wires = tuple(
        (sn if sn < 0 else sn + shift, sp + din if sn == IN else sp,
         dn if dn < 0 else dn + shift, dp + dout if dn == OUT else dp)
        for sn, sp, dn, dp in g.wires)
    n, m = len(f_wires) - dout, len(g_wires) - len(g.cod)
    wires = f_wires[:n] + g_wires[:m] + f_wires[n:] + g_wires[m:]
    return _unchecked(f.dom + g.dom, f.cod + g.cod, f.nodes + g.nodes,
                      wires, f.doubled)


# -- validation ----------------------------------------------------------


# What each node kind's dom and cod must be.
_FITS = {
    BOX: lambda dom, cod: True,
    CUP: lambda dom, cod: not dom and len(cod) == 2 and cod[0] == cod[1].l,
    CAP: lambda dom, cod: not cod and len(dom) == 2 and dom[1] == dom[0].l,
    SWAP: lambda dom, cod: len(dom) == 2 and cod == dom[::-1],
    SPIDER: lambda dom, cod: len({t.base for t in dom + cod}) == 1,
}


def _check(d: Diagram) -> tuple[tuple[Generator, ...], tuple[Wire, ...]]:
    """*d*'s nodes and wires to store: each node's ``dom`` and ``cod`` as
    tuples, and the wires as tuples, those into the boundary outputs last
    in port order.  Else raise ``InvalidDiagram`` naming every violation,
    each as ``kind: detail``, joined by ``; `` in this order:

    * ``BadField``: a type is not a ``WireType`` of a string base and an
      integer order, a node's ``name`` is not a string or its ``payload``
      neither ``None`` nor a string, or ``doubled`` is not a ``bool``
      (then nothing else is checked);
    * ``BadNode``: a node's kind is unknown, or its types do not fit it;
    * ``BadWire``: a wire is not four integers (then the wiring is not
      checked further);
    * ``BadEndpoint``: a wire end names a node that does not exist, or a
      port that is negative or past the end of that node's (or the
      boundary's) port list;
    * ``TypeMismatch``: a wire joins ports of different wire types;
    * ``PortReuse``: a port is the end of more than one wire;
    * ``OpenPortUnused``: a boundary port is the end of no wire;
    * ``PortUnused``: a node port is the end of no wire;
    * ``Cycle``: the wires between nodes form a directed cycle.
    """
    nodes = [gen if type(gen.dom) is tuple and type(gen.cod) is tuple
             else gen._replace(dom=tuple(gen.dom), cod=tuple(gen.cod))
             for gen in d.nodes]
    # in bulk, as the JSON loader checks its edges, so valid fields and
    # wires cost a few set comprehensions; every later check reads types
    if not _wire_types([t for g in (d, *nodes) for t in g.dom + g.cod]) \
            or {type(g.name) for g in nodes} - {str} \
            or {type(g.payload) for g in nodes} - {str, type(None)} \
            or type(d.doubled) is not bool:
        raise InvalidDiagram("; ".join(_bad_fields(d, nodes)))
    found: list[str] = []
    for i, gen in enumerate(nodes):
        if gen.kind not in _FITS:
            found.append(f"BadNode: node {i} has unknown kind {gen.kind!r}")
        elif not _FITS[gen.kind](gen.dom, gen.cod):
            found.append(
                f"BadNode: node {i}: a {gen.kind} cannot go from "
                f"[{typelist_str(gen.dom)}] to [{typelist_str(gen.cod)}]")
    if {len(w) if type(w) in (tuple, list) else 0 for w in d.wires} - {4} \
            or {type(x) for w in d.wires for x in w} - {int}:
        found += [f"BadWire: wire {w!r} is not four integers"
                  for w in d.wires if type(w) not in (tuple, list)
                  or len(w) != 4 or {type(x) for x in w} - {int}]
        raise InvalidDiagram("; ".join(found))
    n = len(nodes)
    src_seen: dict[tuple[int, int], int] = {}
    dst_seen: dict[tuple[int, int], int] = {}
    succ: list[set[int]] = [set() for _ in range(n)]
    inner: list[Wire] = []
    out: dict[int, Wire] = {}
    for w in map(tuple, d.wires):
        sn, sp, dn, dp = w
        src_seen[(sn, sp)] = src_seen.get((sn, sp), 0) + 1
        dst_seen[(dn, dp)] = dst_seen.get((dn, dp), 0) + 1
        if dn == OUT:
            out[dp] = w
        else:
            inner.append(w)
        src = d.dom if sn == IN else nodes[sn].cod if 0 <= sn < n else ()
        dst = d.cod if dn == OUT else nodes[dn].dom if 0 <= dn < n else ()
        if not 0 <= sp < len(src):
            where = "exceeds input boundary" if sn == IN else "has no source port"
            found.append(f"BadEndpoint: wire {w} {where}")
        elif not 0 <= dp < len(dst):
            where = "exceeds output boundary" if dn == OUT else "has no target port"
            found.append(f"BadEndpoint: wire {w} {where}")
        elif src[sp] != dst[dp]:
            found.append(f"TypeMismatch: wire {w} joins {src[sp]} to "
                         f"{dst[dp]}")
        if 0 <= sn < n and 0 <= dn < n:
            succ[sn].add(dn)
    for (ep, count) in list(src_seen.items()) + list(dst_seen.items()):
        if count > 1:
            found.append(f"PortReuse: port {ep} used {count} times")
    for k in range(len(d.dom)):
        if (IN, k) not in src_seen:
            found.append(f"OpenPortUnused: boundary input {k} unused")
    for k in range(len(d.cod)):
        if (OUT, k) not in dst_seen:
            found.append(f"OpenPortUnused: boundary output {k} unused")
    for i, gen in enumerate(nodes):
        for p in range(len(gen.dom)):
            if (i, p) not in dst_seen:
                found.append(f"PortUnused: input port ({i}, {p}) unused")
        for p in range(len(gen.cod)):
            if (i, p) not in src_seen:
                found.append(f"PortUnused: output port ({i}, {p}) unused")
    # Kahn's algorithm: the nodes never freed lie on or behind a cycle
    indeg = [0] * n
    for js in succ:
        for j in js:
            indeg[j] += 1
    free = [i for i in range(n) if not indeg[i]]
    for i in free:  # grows as nodes are freed
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                free.append(j)
    if len(free) != n:
        found.append("Cycle: port-graph has a directed cycle")
    if found:
        raise InvalidDiagram("; ".join(found))
    # valid: exactly one wire into each output
    return tuple(nodes), tuple(inner) + tuple(out[p] for p in range(len(d.cod)))


def _bad_fields(d: Diagram, nodes: list[Generator]) -> list[str]:
    """A ``BadField`` violation for each type that is not a ``WireType``
    of a string base and an integer order, each node ``name`` or
    ``payload`` that is not a string, and a ``doubled`` not a bool."""
    found = [] if type(d.doubled) is bool else [
        f"BadField: field 'doubled' holds {d.doubled!r}, not a bool"]
    for i, g in enumerate((d, *nodes), -1):  # the diagram's own types first
        where = f"node {i} " if i >= 0 else ""
        found += [f"BadField: {where}field {key!r} holds {t!r}, {why}"
                  for key in ("dom", "cod") for t in getattr(g, key)
                  for why in [_not_a_wire_type(t)] if why]
        if i >= 0 and type(g.name) is not str:
            found.append(f"BadField: {where}field 'name' holds {g.name!r}, "
                         "not a string")
        if i >= 0 and type(g.payload) not in (str, type(None)):
            found.append(f"BadField: {where}field 'payload' holds "
                         f"{g.payload!r}, not a string or None")
    return found


def _not_a_wire_type(t: object) -> str:
    """Why *t* is not a wire type, or ``""`` if it is one."""
    if type(t) is not WireType:
        return "not a WireType"
    if not isinstance(t.base, str):
        return f"whose base {t.base!r} is not a string"
    if type(t.z) is not int:
        return f"whose order {t.z!r} is not an integer"
    return ""


# -- canonical ordering --------------------------------------------------


def canonical_order(d: Diagram) -> list[int]:
    """A node order that depends only on diagram structure.

    Nodes reachable from the boundary are numbered by a breadth-first
    traversal anchored at the ordered open ports; disconnected (scalar)
    components are ordered by their minimal encoding over all choices of
    traversal root.
    """
    order = _bfs(d, [d._src_map[(IN, k)][2] for k in range(len(d.dom))]
                 + [d._dst_map[(OUT, k)][0] for k in range(len(d.cod))])
    rest = set(range(len(d.nodes))).difference(order)
    bests = []
    while rest:
        comp = _bfs(d, [min(rest)])
        rest.difference_update(comp)
        bests.append(min(_component_order(d, _bfs(d, [root]))
                         for root in comp))
    for _, comp_order in sorted(bests):
        order.extend(comp_order)
    return order


def _bfs(d: Diagram, roots: list[int]) -> list[int]:
    """The nodes reached from *roots* along wires either way, breadth first.

    A node's neighbours follow it in port order, inputs first.  The
    boundary is never entered, so from a node of a scalar component this
    numbers that component.
    """
    order: list[int] = []
    seen = {IN, OUT}
    ends = list(roots)
    for i in ends:  # grows as nodes are reached
        if i not in seen:
            seen.add(i)
            order.append(i)
            gen = d.nodes[i]
            ends += [d._dst_map[(i, p)][0] for p in range(len(gen.dom))]
            ends += [d._src_map[(i, p)][2] for p in range(len(gen.cod))]
    return order


def _component_order(d: Diagram, order: list[int]) -> tuple[tuple, list[int]]:
    """The encoding of a scalar component numbered in *order*, and *order*."""
    comp = set(order)
    # no wire joins the component to the boundary or to another component
    nodes, wires = _renumber(d, order, [w for w in d.wires if w[0] in comp])
    return ((tuple(_rank(g) for g in nodes), wires), order)


def _rank(g: Generator) -> tuple:
    """*g*'s signature made totally ordered: no payload sorts first."""
    *head, payload = g.signature()
    return (*head, payload is not None, payload or "")


def _renumber(d: Diagram, order: list[int], wires) -> tuple[tuple, tuple]:
    """The nodes listed in *order*, and *wires* renumbered to match and
    sorted, those into the boundary outputs last and in port order."""
    pos = {n: i for i, n in enumerate(order)}
    pos[IN], pos[OUT] = IN, OUT
    wires = sorted(((pos[sn], sp, pos[dn], dp) for sn, sp, dn, dp in wires),
                   key=lambda w: (True, w[3]) if w[2] == OUT else (False, w))
    return tuple(d.nodes[i] for i in order), tuple(wires)


# -- JSON serialization ---------------------------------------------------


def diagram_to_json(d: Diagram) -> dict:
    """Serialize as a plain dict; `json.dumps` of this round-trips.  Each
    distinct type is printed once."""
    text = {t: str(t) for t in {t for g in d.nodes for t in g.dom + g.cod}
            .union(d.dom, d.cod)}
    nodes = []
    for i, g in enumerate(d.nodes):
        entry = {
            "id": i,
            "kind": g.kind,
            "name": g.name,
            "dom": [text[t] for t in g.dom],
            "cod": [text[t] for t in g.cod],
        }
        if g.payload is not None:
            entry["payload"] = g.payload
        if g.kind == SPIDER:
            entry["spider"] = [len(g.dom), len(g.cod)]
        nodes.append(entry)
    return {
        "types": {b: True for b in sorted({t.base for t in text})},
        "nodes": nodes,
        "edges": [list(w) for w in sorted(d.wires)],
        "inputs": [text[t] for t in d.dom],
        "outputs": [text[t] for t in d.cod],
        "doubled": d.doubled,
    }


def diagram_from_json(data: dict) -> Diagram:
    """Inverse of :func:`diagram_to_json`; validates the result.

    Each distinct type string is parsed once, and the node fields are
    tested in bulk.  Only a file that fails a bulk test is read one
    ``require`` per field, in the order below, so that the error names
    the first fault in the file, not the first of a set.
    """
    parsed: dict[str, WireType] = {}

    def parse(token: str) -> WireType:
        if token not in parsed:
            parsed[token] = parse_wiretype(token)
        return parsed[token]

    def types(obj, key: str, where: str, *default) -> TypeList:
        return tuple(map(parse, require_strings(obj, key, where, *default)))

    entries = require(data, "nodes", list, "diagram", [])
    if {type(e) for e in entries} <= {dict} \
            and {type(e.get("id")) for e in entries} <= {int}:
        ids = [e["id"] for e in entries]
    else:
        ids = [require(e, "id", int, "diagram node") for e in entries]
    if sorted(ids) != list(range(len(ids))):
        raise ValueError("diagram node field 'id' must number the nodes "
                         "0 to n-1, each once")
    edges = require(data, "edges", list, "diagram", [])
    if {len(w) if type(w) is list else 0 for w in edges} - {4} \
            or {type(x) for w in edges for x in w} - {int}:
        raise ValueError("diagram field 'edges' must list edges of four "
                         "integers")
    entries = sorted(entries, key=lambda e: e["id"])
    lists = [e.get(key) for e in entries for key in ("dom", "cod")]
    if {type(e.get("kind")) for e in entries} <= {str} \
            and {type(x) for x in lists} <= {list} \
            and set(map(type, chain.from_iterable(lists))) <= {str}:
        # in order of first use, so that the first bad token raises first
        for token in dict.fromkeys(chain.from_iterable(lists)):
            parsed[token] = parse_wiretype(token)
        get = parsed.__getitem__
        fields = [(e["kind"], tuple(map(get, e["dom"])),
                   tuple(map(get, e["cod"]))) for e in entries]
    else:
        fields = [(require(e, "kind", str, "diagram node"),
                   types(e, "dom", "diagram node"),
                   types(e, "cod", "diagram node")) for e in entries]
    # the Diagram constructor checks the name and payload
    nodes = [Generator(*f, e.get("name", ""), e.get("payload"))
             for f, e in zip(fields, entries)]
    dom = types(data, "inputs", "diagram", [])
    cod = types(data, "outputs", "diagram", [])
    doubled = require(data, "doubled", bool, "diagram", False)
    table = set(require(data, "types", dict, "diagram", {}))
    if table and not {t.base for t in parsed.values()} <= table:
        for g in nodes:
            check_declared(g.dom + g.cod, table)
        check_declared(dom + cod, table)
    return Diagram(dom, cod, nodes, edges, doubled)

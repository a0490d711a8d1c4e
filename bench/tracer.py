"""Spans and counters for stringcalc's layers, recorded from outside.

:class:`Tracer` replaces each layer's public functions with wrappers in
every ``stringcalc`` module that binds them (``protocols`` imports
``evaluate`` itself, ``pregroup`` imports ``compose_par``), and in the
benchmark's own workload module.  A wrapper records a span (name,
start, end, parent, op) and bumps machine-independent counters.  Spans
stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

from stringcalc import cli, diagram, pregroup, protocols, resources, rewrite, tensors

import workloads


def _count_load(c, args, kwargs, result):
    c["load.calls"] += 1


def _count_load_path(c, args, kwargs, result):
    c["load.calls"] += 1
    c["load.json_bytes"] += Path(args[0]).stat().st_size


def _count_load_text(c, args, kwargs, result):
    c["load.calls"] += 1
    c["load.json_bytes"] += len(args[0].encode())


def _count_parse(c, args, kwargs, result):
    lexicon, words = args[0], args[1]
    cap = kwargs.get("max_combinations", 64)
    combos = math.prod(len(lexicon.lookup(w)) for w in words)
    c["parse.calls"] += 1
    c["parse.combinations"] += min(combos, cap)
    c["parse.truncated"] += combos > cap
    c["parse.witnesses"] += len(result)


def _count_diagram(c, args, kwargs, result):
    c["diagram.calls"] += 1
    if isinstance(result, diagram.Diagram):
        c["diagram.nodes_built"] += len(result.nodes)
        c["diagram.wires_built"] += len(result.wires)


def _count_normalize(c, args, kwargs, result):
    c["normalize.calls"] += 1
    if hasattr(result, "rewrite_trace"):
        c["normalize.nodes_in"] += len(args[0].nodes)
        c["normalize.rewrites"] += len(result.rewrite_trace)


def _thick(args) -> bool:
    return args[0].doubled or args[1].doubling == "thick"


def _count_evaluate(c, args, kwargs, result):
    d, model = args[0], args[1]
    square = 2 if _thick(args) else 1
    c["evaluate.calls"] += 1
    c["evaluate.nodes_in"] += len(d.nodes)
    c["evaluate.out_elements"] += result.data.size
    for g in d.nodes:
        if g.kind == diagram.BOX:  # complex128 payload at the evaluated dims
            c["evaluate.payload_bytes"] += 16 * math.prod(
                model.dims[t.base] ** square for t in g.dom + g.cod)


def _count_calls(layer):
    def count(c, args, kwargs, result):
        c[f"{layer}.calls"] += 1
    return count


def _count_resources(c, args, kwargs, result):
    c["resources.queries"] += 1
    if isinstance(result, resources.ConversionWitness):
        c["resources.witness_steps"] += len(result.steps)


def _count_teleport(c, args, kwargs, result):
    c["teleport.calls"] += 1
    c["teleport.branches"] += len(result)


def _fixed(name):
    return lambda args: name


# (module, function, span name from args, counter run at the layer's outermost span)
TARGETS = [
    (pregroup, "lexicon_from_json", _fixed("load"), _count_load),
    (pregroup, "load_lexicon", _fixed("load"), _count_load_path),
    (diagram, "diagram_from_json", _fixed("load"), _count_load),
    (resources, "presentation_from_json", _fixed("load"), _count_load),
    (resources, "load_presentation", _fixed("load"), _count_load_path),
    (workloads, "load_lexicon_text", _fixed("load"), _count_load_text),
    (workloads, "load_diagram_text", _fixed("load"), _count_load_text),
    (pregroup, "parse", _fixed("parse"), _count_parse),
    (pregroup, "residual_report", _fixed("parse"), _count_calls("parse")),
    (pregroup, "grammar_diagram", _fixed("diagram"), _count_diagram),
    (diagram, "permutation", _fixed("diagram"), _count_diagram),
    (diagram, "compose_seq", _fixed("diagram"), _count_diagram),
    (diagram, "compose_par", _fixed("diagram"), _count_diagram),
    (diagram, "diagram_to_json", _fixed("diagram"), _count_diagram),
    (workloads, "dump_diagram_text", _fixed("diagram"), _count_diagram),
    (rewrite, "normalize", _fixed("normalize"), _count_normalize),
    (rewrite, "equal", _fixed("normalize"), _count_normalize),
    (tensors, "evaluate",
     lambda args: "evaluate.thick" if _thick(args) else "evaluate.thin",
     _count_evaluate),
    (tensors, "entropy", _fixed("derived"), _count_calls("derived")),
    (tensors, "similarity", _fixed("derived"), _count_calls("derived")),
    (resources, "conversion_rate", _fixed("resources"), _count_resources),
    (resources, "convertible", _fixed("resources"), _count_resources),
    (protocols, "verify_teleportation", _fixed("teleport"), _count_teleport),
    (cli, "main", _fixed("cli"), _count_calls("cli")),
]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans while installed; counters count outermost layer calls.

    Only the outermost span of a layer counts, so ``>>`` inside
    ``grammar_diagram`` adds to diagram time but not to ``nodes_built``;
    ``normalize`` is the exception, counted at every call, because
    ``equal`` reaches it nested.
    """

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent, op]
        self.counters: dict[str, int] = defaultdict(int)
        self.op_tags: list[str] = []  # size class of each op, by op id
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def begin_op(self, tag: str) -> None:
        """Spans recorded from now on belong to a new op of size class *tag*."""
        self.op = len(self.op_tags)
        self.op_tags.append(tag)

    def _wrap(self, fn, namer, counter):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(args)
            parent = stack[-1] if stack else -1
            outer = parent < 0 or layer_of(spans[parent][0]) != layer_of(name)
            index = len(spans)
            spans.append([name, 0.0, 0.0, parent, self.op])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if outer or counter is _count_normalize:  # equal nests normalize
                counter(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "stringcalc" or k.startswith("stringcalc.")]
        modules.append(workloads)
        for module, attr, namer, counter in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(original, namer, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        while self._undo:
            mod, key, original = self._undo.pop()
            setattr(mod, key, original)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self seconds of spans[first:], keyed by span name and layer.

        A span's self time is its duration minus its children's.  Keys:
        ``<name>``, ``<layer>`` (when different) and ``<name>.<tag>``,
        with ``<tag>`` the size class of the op the span belongs to.
        """
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, parent, op), nested in zip(spans, child):
            own = end - start - nested
            out[name] += own
            if layer_of(name) != name:
                out[layer_of(name)] += own
            out[f"{name}.{self.op_tags[op]}"] += own
        return out

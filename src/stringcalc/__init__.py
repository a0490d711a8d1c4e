"""String-diagram calculus for compact-closed process theories.

Diagrams are immutable port-graphs; composition laws hold by
construction, the snake equation is a rewrite, pregroup grammar wires
word meanings together through caps, and tensor semantics (thin vectors
or thick density matrices) turns diagrams into numbers.  Resource
presentations and post-selected teleportation round out the toolkit.

The exported names load lazily (PEP 562): ``import stringcalc`` imports
no submodule, and ``stringcalc.evaluate`` imports :mod:`.tensors` (and
numpy) on first use, so the diagram calculus and the resource theories
run without numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("Diagram", "Generator", "cap", "cup", "identity",
         "make_generator", "permutation", "spider", "swap",
         "compose_seq", "compose_par"), "diagram"),
    **dict.fromkeys(("NormalForm", "normalize", "equal"), "rewrite"),
    **dict.fromkeys(
        ("Model", "Payload", "Tensor", "double", "entropy", "evaluate",
         "similarity"), "tensors"),
    **dict.fromkeys(
        ("PregroupLexicon", "ParseWitness", "parse", "grammar_diagram",
         "lexicon_from_json", "load_lexicon"), "pregroup"),
    **dict.fromkeys(
        ("ResourcePresentation", "ConversionWitness", "RateResult",
         "convertible", "conversion_rate", "load_presentation"),
        "resources"),
    **dict.fromkeys(
        ("TeleportationSpec", "BranchReport", "teleportation_diagram",
         "teleportation_model", "verify_teleportation",
         "sophisticated_composition_demo"), "protocols"),
    **dict.fromkeys(("WireType", "parse_typelist", "parse_wiretype"),
                    "types"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

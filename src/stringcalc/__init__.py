"""String-diagram calculus for compact-closed process theories.

Diagrams are immutable port-graphs; composition laws hold by
construction, the snake equation is a rewrite, pregroup grammar wires
word meanings together through caps, and tensor semantics (thin vectors
or thick density matrices) turns diagrams into numbers.  Resource
presentations and post-selected teleportation round out the toolkit.
"""

from .diagram import (Diagram, Generator, box, cap, compose_par,
                      compose_seq, cup, identity, make_generator,
                      permutation, spider, swap, validate)
from .pregroup import (ParseWitness, PregroupLexicon, grammar_diagram,
                       lexicon_from_json, load_lexicon, parse)
from .protocols import (BranchReport, TeleportationSpec,
                        sophisticated_composition_demo,
                        teleportation_diagram, teleportation_model,
                        verify_teleportation)
from .resources import (ConversionWitness, RateResult, ResourcePresentation,
                        conversion_rate, convertible, load_presentation)
from .rewrite import NormalForm, equal, normalize
from .tensors import (Model, Payload, Tensor, double, entropy, evaluate,
                      similarity)
from .types import WireType, parse_typelist, parse_wiretype

__version__ = "0.1.0"

__all__ = [
    "Diagram", "Generator", "WireType",
    "box", "cap", "cup", "identity", "make_generator",
    "permutation", "spider", "swap", "validate",
    "compose_seq", "compose_par",
    "NormalForm", "normalize", "equal",
    "Model", "Payload", "Tensor", "double", "entropy", "evaluate",
    "similarity",
    "PregroupLexicon", "ParseWitness", "parse", "grammar_diagram",
    "lexicon_from_json", "load_lexicon",
    "ResourcePresentation", "ConversionWitness", "RateResult",
    "convertible", "conversion_rate", "load_presentation",
    "TeleportationSpec", "BranchReport", "teleportation_diagram",
    "teleportation_model", "verify_teleportation",
    "sophisticated_composition_demo",
    "parse_typelist", "parse_wiretype",
]

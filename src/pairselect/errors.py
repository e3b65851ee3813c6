"""Exception types shared across the package, and the one type rule that
settings and model hyperparameters share."""

import contextlib
import types
import typing


class PairselectError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PairselectError):
    """Invalid or inconsistent configuration."""


class ParseError(PairselectError):
    """Malformed input that could not be parsed."""


class ValidationError(PairselectError):
    """Parsed data violating a documented invariant."""


class TrainingError(PairselectError):
    """A model could not be trained on the given data."""


class EvaluationError(PairselectError):
    """A metric is undefined for the given inputs."""


class StoreError(PairselectError):
    """The record store could not be read or written."""


_EXPECTED = {bool: "true or false", int: "an integer", str: "a string", float: "a number"}


def conform(declared, value, name: str):
    """``value`` as a field typed ``declared`` takes it, by the one type rule:
    ``bool``, ``int`` and ``str`` take only that exact type; ``float`` an
    int, a float or a numeric string, never a bool; a union any member, a
    ``Literal`` its values, and any other type the value as it is."""
    union = typing.get_origin(declared) in (typing.Union, types.UnionType)
    members = typing.get_args(declared) if union else (declared,)
    for member in members:
        if typing.get_origin(member) is typing.Literal:
            if value in typing.get_args(member):
                return value
        elif member is float and type(value) is not bool and isinstance(value, (int, float, str)):
            with contextlib.suppress(ValueError, OverflowError):
                return float(value)
        elif member not in _EXPECTED or type(value) is member:
            return value
    expected = " or ".join(
        _EXPECTED.get(m) or " or ".join(map(repr, typing.get_args(m))) for m in members
    )
    raise ConfigError(f"{name} must be {expected}, got {value!r}")


def conform_all(declared, values, where) -> dict:
    """``values`` conformed key by key to ``declared``; an undeclared key is refused."""
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; known: {sorted(declared)}")
    return {key: conform(declared[key], value, f"{where}: {key!r}") for key, value in values.items()}

"""Strict reading of JSON values in configuration files and crossbar snapshots.

``convert`` is the one JSON value converter: booleans and integers must be
exactly that JSON type, and numbers finite.  Dimensioned config values are
strings like ``"1.3V"``, ``"50uS"``, ``"800ohm"`` or ``"500us"``.  Parsing is
strict: the suffix must name the expected unit, and bare numbers are rejected
for dimensioned fields.  Unit bugs are the dominant failure mode in this
domain, so there is no silent fallback.

Parsing is correctly rounded: the prefix shifts the decimal exponent of the
written number, so ``"55uS"`` is exactly the float ``55e-6``.
"""

from __future__ import annotations

import math
import re
import typing
from dataclasses import field
from decimal import Decimal

from .errors import ConfigurationError

# Decimal exponent of each SI prefix.
_PREFIX = {
    "G": 9,
    "M": 6,
    "k": 3,
    "": 0,
    "m": -3,
    "u": -6,
    "n": -9,
    "p": -12,
}

# Canonical unit symbols.  "ohm" is spelled out to stay ASCII-safe.
_UNITS = ("V", "A", "S", "ohm", "s")

_KIND = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}

_QUANTITY_RE = re.compile(r"^\s*([+-]?[0-9.]+)(?:[eE]([+-]?[0-9]+))?\s*([A-Za-z]+)\s*$")


def quantity(default, unit: str):
    """A dataclass field holding a value in SI base ``unit``.

    Configs spell such a field with a unit suffix; a tuple or dict default
    gives a field whose every entry carries the unit.
    """
    if unit not in _UNITS:
        raise ConfigurationError(f"unknown base unit {unit!r}")
    if isinstance(default, dict):
        return field(default_factory=default.copy, metadata={"unit": unit})
    return field(default=default, metadata={"unit": unit})


def parse_quantity(text, unit: str) -> float:
    """Parse ``text`` (e.g. ``"50uS"``) expecting a value in base ``unit``.

    Returns the value in SI base units (volts, amperes, siemens, ohms, seconds).
    """
    if unit not in _UNITS:
        raise ConfigurationError(f"unknown base unit {unit!r}")
    if isinstance(text, (int, float)):
        raise ConfigurationError(
            f"dimensioned value {text!r} must carry a unit suffix (expected {unit})"
        )
    match = _QUANTITY_RE.match(str(text))
    if not match:
        raise ConfigurationError(f"cannot parse quantity {text!r} (expected e.g. '1.3{unit}')")
    mantissa, exponent, suffix = match.groups()
    if not suffix.endswith(unit):
        raise ConfigurationError(f"quantity {text!r} does not carry expected unit {unit!r}")
    prefix = suffix[: -len(unit)]
    if prefix not in _PREFIX:
        raise ConfigurationError(f"unknown SI prefix {prefix!r} in {text!r}")
    try:
        return float(f"{mantissa}e{int(exponent or 0) + _PREFIX[prefix]}")
    except ValueError as exc:
        raise ConfigurationError(f"bad number in quantity {text!r}") from exc


def format_quantity(value: float, unit: str, prefix: str = "") -> str:
    """Format an SI value with the given prefix, inverse of parse_quantity.

    The mantissa is the shortest decimal that parses back to ``value``.
    """
    mantissa = Decimal(repr(float(value))).scaleb(-_PREFIX[prefix]).normalize()
    return f"{mantissa:f}{prefix}{unit}"


def convert(value, hint, unit, where: str):
    """A JSON value as a field of type ``hint``, in SI ``unit`` when one is set."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigurationError(f"{where} must be a JSON object, got {value!r}")
        return {k: convert(v, args[-1], unit, f"{where}.{k}") for k, v in value.items()}
    if origin in (tuple, list):
        if not isinstance(value, list) or (origin is tuple and len(value) != len(args)):
            shape = f"a {len(args)}-element list" if origin is tuple else "a list"
            raise ConfigurationError(f"{where} must be {shape}, got {value!r}")
        return origin(convert(v, args[-1], unit, where) for v in value)
    if unit is not None:
        try:
            number = parse_quantity(value, unit)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
    elif hint is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:               # an integer past the float range
            number = math.inf
    elif type(value) is hint:
        return value
    else:
        raise ConfigurationError(f"{where} must be {_KIND[hint]}, got {value!r}")
    if not math.isfinite(number):
        raise ConfigurationError(f"{where} must be finite, got {value!r}")
    return number

"""JSON helpers shared by the matrix and decomposition formats.

An Eisenstein integer a + b*w is the pair [a, b].  Integers can exceed
what double-precision JSON readers keep exact, so any value of magnitude
2^53 or larger is emitted as a decimal string; readers accept both forms.
"""

from __future__ import annotations

import json
import re

from .eisenstein import EisensteinInt

_EXACT_LIMIT = 1 << 53
# The only string form encode_int emits.  int() alone would also take
# underscores, surrounding whitespace and non-ASCII digits.
_DECIMAL = re.compile(r"-?[0-9]+")


def encode_int(v: int):
    """v itself when exactly representable as a double, else its decimal string."""
    if -_EXACT_LIMIT < v < _EXACT_LIMIT:
        return v
    return str(v)


def decode_int(v) -> int:
    """Accept a JSON number or decimal string; reject floats and junk.
    The test is on the exact type, int or str as json.loads builds them, so
    a bool (type bool, not int) and any other subclass is rejected."""
    if type(v) is int:
        return v
    if type(v) is not str:
        raise ValueError(f"expected an integer, got {v!r}")
    if _DECIMAL.fullmatch(v) is None:
        raise ValueError(f"expected a decimal integer string, got {v!r}")
    return int(v)


def encode_pair(x: EisensteinInt) -> list:
    """An Eisenstein integer a + b*w as the pair [a, b]."""
    return [encode_int(x.a), encode_int(x.b)]


def decode_coeffs(v) -> tuple[int, int]:
    """The pair [a, b] as the ints (a, b); anything but a two-item list is rejected."""
    if not isinstance(v, list) or len(v) != 2:
        raise ValueError("expected an Eisenstein integer pair [a, b]")
    return decode_int(v[0]), decode_int(v[1])


def decode_pair(v) -> EisensteinInt:
    """Inverse of encode_pair."""
    return EisensteinInt(*decode_coeffs(v))


# json's defaults at indent=None: one line, separators ", " and ": ".  One
# encoder for every call; json.dumps with any keyword builds a new one.
_ENCODER = json.JSONEncoder()


def canonical_dumps(obj) -> str:
    """One-line JSON with stable separators."""
    return _ENCODER.encode(obj)

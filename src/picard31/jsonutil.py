"""JSON helpers shared by the matrix and decomposition formats.

Integers can exceed what double-precision JSON readers keep exact, so any
value of magnitude 2^53 or larger is emitted as a decimal string; readers
accept both forms.
"""

from __future__ import annotations

import json
import re

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
    """Accept a JSON number or decimal string; reject floats and junk."""
    if isinstance(v, bool):
        raise ValueError(f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        if _DECIMAL.fullmatch(v) is None:
            raise ValueError(f"expected a decimal integer string, got {v!r}")
        return int(v)
    raise ValueError(f"expected an integer, got {v!r}")


def canonical_dumps(obj) -> str:
    """One-line JSON with stable separators."""
    return json.dumps(obj, separators=(", ", ": "))

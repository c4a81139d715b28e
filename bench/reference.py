"""Independent exact checks for the benchmark.

An element a + b*w of Z[w] (w^2 = -1 - w) is a plain integer pair (a, b)
and a 4x4 matrix is a tuple of four row tuples of such pairs.  Nothing here
imports picard31: the generator matrices are written out from their
definitions, words are evaluated by generic sparse matrix products, and
the text formats are read with the standard library, so an error in the
package's own arithmetic or parsing cannot vouch for itself.
"""

from __future__ import annotations

import json
import re

ZERO = (0, 0)
ONE = (1, 0)
MINUS_ONE = (-1, 0)
OMEGA = (0, 1)
UNITS = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)})


class Malformed(ValueError):
    """Text that does not follow the matrix or decomposition format."""


# --- Z[w] -------------------------------------------------------------------

def mul(x, y):
    a1, b1 = x
    a2, b2 = y
    bb = b1 * b2
    return (a1 * a2 - bb, a1 * b2 + b1 * a2 - bb)


def neg(x):
    return (-x[0], -x[1])


def conj(x):
    return (x[0] - x[1], -x[1])


def norm(x):
    a, b = x
    return a * a - a * b + b * b


def entry_bits(x) -> int:
    return max(abs(x[0]), abs(x[1])).bit_length()


# --- 4x4 matrices -----------------------------------------------------------

def matmul(p, q):
    out = []
    for i in range(4):
        row = []
        for k in range(4):
            a = b = 0
            for j in range(4):
                x = p[i][j]
                y = q[j][k]
                if x != ZERO and y != ZERO:
                    m = mul(x, y)
                    a += m[0]
                    b += m[1]
            row.append((a, b))
        out.append(tuple(row))
    return tuple(out)


def _diag(d0, d1, d2, d3):
    d = (d0, d1, d2, d3)
    return tuple(tuple(d[i] if i == k else ZERO for k in range(4))
                 for i in range(4))


IDENTITY = _diag(ONE, ONE, ONE, ONE)
J = ((ZERO, ZERO, ZERO, ONE), (ZERO, ONE, ZERO, ZERO),
     (ZERO, ZERO, ONE, ZERO), (ONE, ZERO, ZERO, ZERO))


def conj_transpose(m):
    return tuple(tuple(conj(m[k][j]) for k in range(4)) for j in range(4))


def is_member(m) -> bool:
    """M* J M == J exactly."""
    return matmul(conj_transpose(m), matmul(J, m)) == J


def translation(tau1, tau2, k: int):
    """Heisenberg translation by (tau, k*sqrt(3)): first row
    (1, -conj(tau1), -conj(tau2), e), last column (e, tau1, tau2, 1) with
    e = (-|tau|^2 + i k sqrt(3)) / 2 = ((k - |tau|^2) / 2) + k*w."""
    m = norm(tau1) + norm(tau2)
    if (k - m) % 2:
        raise ValueError(f"parity: k={k}, |tau|^2={m}")
    e = ((k - m) // 2, k)
    return ((ONE, neg(conj(tau1)), neg(conj(tau2)), e),
            (ZERO, ONE, ZERO, tau1),
            (ZERO, ZERO, ONE, tau2),
            (ZERO, ZERO, ZERO, ONE))


def _rotation(u):
    (a, b), (c, d) = u
    return ((ONE, ZERO, ZERO, ZERO), (ZERO, a, b, ZERO),
            (ZERO, c, d, ZERO), (ZERO, ZERO, ZERO, ONE))


INVERSION = ((ZERO, ZERO, ZERO, ONE), (ZERO, MINUS_ONE, ZERO, ZERO),
             (ZERO, ZERO, MINUS_ONE, ZERO), (ONE, ZERO, ZERO, ZERO))

#: N: translation by ((1, 0), sqrt(3)); A: swap of the horizontal
#: coordinates; B: first horizontal coordinate times -w; R: inversion.
GENERATORS = {
    "N": translation(ONE, ZERO, 1),
    "A": _rotation(((ZERO, ONE), (ONE, ZERO))),
    "B": _rotation((((0, -1), ZERO), (ZERO, ONE))),
    "R": INVERSION,
}


def inverse(m):
    """G^-1 = J G* J for a member G."""
    return matmul(J, matmul(conj_transpose(m), J))


def unit_correction(lam):
    return _diag(lam, ONE, ONE, lam)


# --- words ------------------------------------------------------------------

_POWER_COLUMNS: dict = {}


def _power_columns(gen: str, e: int):
    """Sparse columns of gen^e: for each column k, the (row j, entry) pairs
    with a nonzero entry."""
    key = (gen, e)
    cols = _POWER_COLUMNS.get(key)
    if cols is None:
        base = GENERATORS[gen] if e >= 0 else inverse(GENERATORS[gen])
        m = IDENTITY
        for _ in range(abs(e)):
            m = matmul(m, base)
        cols = tuple(tuple((j, m[j][k]) for j in range(4) if m[j][k] != ZERO)
                     for k in range(4))
        _POWER_COLUMNS[key] = cols
    return cols


def _scaled(col, v):
    if v == ONE:
        return col
    if v == MINUS_ONE:
        return [(-a, -b) for a, b in col]
    return [mul(x, v) for x in col]


def evaluate(items):
    """Product of (generator letter, exponent) items, left to right."""
    cols = [[IDENTITY[i][k] for i in range(4)] for k in range(4)]
    for gen, e in items:
        new = []
        for k, terms in enumerate(_power_columns(gen, e)):
            if terms == ((k, ONE),):
                new.append(cols[k])
                continue
            acc = None
            for j, v in terms:
                part = _scaled(cols[j], v)
                acc = part if acc is None else [
                    (x[0] + y[0], x[1] + y[1]) for x, y in zip(acc, part)]
            new.append(acc)
        cols = new
    return tuple(tuple(cols[k][i] for k in range(4)) for i in range(4))


_WORD = re.compile(r"\s*(?:[NABR](?:\^[+-]?[0-9]+)?\s*)*")
_ITEM = re.compile(r"([NABR])(?:\^([+-]?[0-9]+))?")


def parse_word(text: str):
    """Items of the word syntax (letters with optional ^exponent); raises
    Malformed on anything else."""
    if not isinstance(text, str) or _WORD.fullmatch(text) is None:
        raise Malformed(f"bad word text {text!r:.40}")
    return [(g, int(e) if e else 1) for g, e in _ITEM.findall(text)]


def word_text(items) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in items)


def letters(items) -> int:
    return sum(abs(e) for _, e in items)


# --- text formats -----------------------------------------------------------

_EXACT_LIMIT = 1 << 53


def _int_to_json(v: int):
    return v if -_EXACT_LIMIT < v < _EXACT_LIMIT else str(v)


def _int_from_json(v) -> int:
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str) and re.fullmatch(r"[+-]?[0-9]+", v):
        return int(v)
    raise Malformed(f"not an integer: {v!r:.40}")


def _pair_from_json(v):
    if not isinstance(v, list) or len(v) != 2:
        raise Malformed(f"not an [a, b] pair: {v!r:.40}")
    return (_int_from_json(v[0]), _int_from_json(v[1]))


def _loads(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # No valid matrix or decomposition nests deeper than three levels,
        # so running out of recursion depth also means malformed text.
        raise Malformed(f"invalid JSON: {type(exc).__name__}") from None


def matrix_json(m) -> str:
    """The matrix format, with entries of 2^53 or more as decimal strings."""
    return json.dumps({"matrix": [[[_int_to_json(a), _int_to_json(b)]
                                   for a, b in row] for row in m]})


def read_matrix(text: str):
    obj = _loads(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("matrix"), list):
        raise Malformed('expected an object with a "matrix" list')
    rows = obj["matrix"]
    if len(rows) != 4 or any(not isinstance(r, list) or len(r) != 4
                             for r in rows):
        raise Malformed("matrix is not 4x4")
    return tuple(tuple(_pair_from_json(e) for e in row) for row in rows)


def decomposition_json(unit, items) -> str:
    return json.dumps({"unit": [_int_to_json(unit[0]), _int_to_json(unit[1])],
                       "word": word_text(items)})


def read_decomposition(text: str):
    """(unit, items) of a decomposition; raises Malformed on bad text or a
    unit that is not a sixth root of unity."""
    obj = _loads(text)
    if not isinstance(obj, dict) or "unit" not in obj or "word" not in obj:
        raise Malformed('expected an object with "unit" and "word"')
    unit = _pair_from_json(obj["unit"])
    if unit not in UNITS:
        raise Malformed(f"unit {unit} is not a sixth root of unity")
    return unit, parse_word(obj["word"])


def decomposition_holds(m, unit, items) -> bool:
    """unit_correction(unit) * evaluate(items) == m exactly."""
    return matmul(unit_correction(unit), evaluate(items)) == m


# --- expected outcomes ------------------------------------------------------

VALID = "valid"
INVALID = "invalid"
NOT_MEMBER = "not_member"
MALFORMED = "malformed"


def judge_certificate(matrix_text: str, cert_text: str) -> str:
    """What checking cert_text against matrix_text must conclude.

    The matrix is read and form-checked first, then the certificate, in
    the order the certify chain runs them.
    """
    try:
        m = read_matrix(matrix_text)
    except Malformed:
        return MALFORMED
    if not is_member(m):
        return NOT_MEMBER
    try:
        unit, items = read_decomposition(cert_text)
    except Malformed:
        return MALFORMED
    return VALID if decomposition_holds(m, unit, items) else INVALID

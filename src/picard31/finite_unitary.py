"""The finite unitary group U(2) over the Eisenstein integers.

Every member is diagonal diag(a, b) or antidiagonal antidiag(b; a) with both
entries sixth roots of unity, giving 2 * 6 * 6 = 72 elements.  The group is
generated by the coordinate swap U1 and the single-entry rotation
U2 = diag(mu, 1), mu = -w, whose rotation matrices are the generators A and
B.  Every unit is a power of mu, so each element has a word in closed form:

    diag(mu^i, mu^j)        = A B^j A B^i
    ((0, mu^i), (mu^j, 0))  = B^i A B^j

Normalized, these are shortest words over {A, B, B^-1}; the table of all 72
is built once, at import.
"""

from __future__ import annotations

from .eisenstein import MU_POWERS, ONE, ZERO, OMEGA, UNITS
from .errors import NotMemberError
from .jsonutil import encode_pair
from .words import Generator, Word, normalize


class FiniteUnitary:
    """2x2 Eisenstein matrix with U* U = I, in one of the two unit shapes."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise NotMemberError("expected a 2x2 matrix")
        if not _is_member(rows):
            raise NotMemberError(f"not in U(2; Z[w]): {rows}")
        self.rows = rows

    def is_diagonal(self) -> bool:
        return self.rows[0][1].is_zero() and self.rows[1][0].is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, FiniteUnitary):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"FiniteUnitary({self.rows!r})"

    def __str__(self) -> str:
        (a, b), (c, d) = self.rows
        return f"[[{a}, {b}], [{c}, {d}]]"

    def to_json(self) -> list:
        """Rows of [a, b] pairs, as u2-table --json writes them (write-only)."""
        return [[encode_pair(e) for e in row] for row in self.rows]


def _is_member(rows) -> bool:
    (a, b), (c, d) = rows
    if b.is_zero() and c.is_zero():
        return a.is_unit() and d.is_unit()
    if a.is_zero() and d.is_zero():
        return b.is_unit() and c.is_unit()
    return False


def identity() -> FiniteUnitary:
    return FiniteUnitary(((ONE, ZERO), (ZERO, ONE)))


U1 = FiniteUnitary(((ZERO, ONE), (ONE, ZERO)))
U2 = FiniteUnitary(((-OMEGA, ZERO), (ZERO, ONE)))


def enumerate_group() -> tuple:
    """All 72 elements, two shapes for each unit pair (a, b), in a fixed
    order: ascending by the coefficient pairs of the entries, row by row."""
    elements = []
    for a in UNITS:
        for b in UNITS:
            elements.append(FiniteUnitary(((a, ZERO), (ZERO, b))))
            elements.append(FiniteUnitary(((ZERO, b), (a, ZERO))))
    return tuple(sorted(
        elements, key=lambda u: tuple((e.a, e.b) for row in u.rows for e in row)))


# d for each unit mu^d, mu = -w.
_MU_EXPONENT = {mu: d for d, mu in enumerate(MU_POWERS)}


def _rotation_word(u: FiniteUnitary) -> Word:
    """The closed-form word of the module docstring, normalized."""
    (a, b), (c, d) = u.rows
    A, B = Generator.A, Generator.B
    if u.is_diagonal():
        items = ((A, 1), (B, _MU_EXPONENT[d]), (A, 1), (B, _MU_EXPONENT[a]))
    else:
        items = ((B, _MU_EXPONENT[b]), (A, 1), (B, _MU_EXPONENT[c]))
    return normalize(Word(items))


_WORDS = {u: _rotation_word(u) for u in enumerate_group()}


def word_table() -> dict:
    """A shortest word over {A, B, B^-1} for each of the 72 elements."""
    return _WORDS


def u_decompose(u: FiniteUnitary) -> Word:
    """A word over {A, B} whose evaluation is rotation_matrix(u) exactly."""
    if not isinstance(u, FiniteUnitary):
        raise NotMemberError(f"not in U(2; Z[w]): {u!r}")
    return _WORDS[u]

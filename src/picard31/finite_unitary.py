"""Generator words for the rotation group U(2; Z[w]) (hermitian.FiniteUnitary).

The group is generated by the coordinate swap U1 and the single-entry
rotation U2 = diag(mu, 1), mu = -w, whose rotation matrices are the
generators A and B.  Every unit is a power of mu, so each element has a
word in closed form in the exponents (i, j):

    diag(mu^i, mu^j)        = A B^j A B^i
    ((0, mu^i), (mu^j, 0))  = B^i A B^j

Normalized, these are shortest words over {A, B, B^-1}; the table of all 72
is built once, at import, from hermitian.ROTATIONS, which lists each element
with its exponent pair.
"""

from __future__ import annotations

from .eisenstein import ONE, ZERO, OMEGA
from .errors import NotMemberError
from .hermitian import ROTATIONS, FiniteUnitary
from .words import Word, normalize


U1 = FiniteUnitary(((ZERO, ONE), (ONE, ZERO)))
U2 = FiniteUnitary(((-OMEGA, ZERO), (ZERO, ONE)))


def _closed_forms():
    """(element, word) for both shapes of every exponent pair (i, j)."""
    for i, j, u in ROTATIONS:
        yield u, normalize(Word((("A", 1), ("B", j), ("A", 1), ("B", i))
                                if u.is_diagonal() else (("B", i), ("A", 1), ("B", j))))


_WORDS = dict(sorted(_closed_forms(), key=lambda item: tuple(
    (e.a, e.b) for row in item[0].rows for e in row)))


def enumerate_group() -> tuple:
    """All 72 elements, in the fixed order of the word table: ascending by
    the coefficient pairs of the entries, row by row."""
    return tuple(_WORDS)


def word_table() -> dict:
    """A shortest word over {A, B, B^-1} for each of the 72 elements."""
    return _WORDS


def u_decompose(u: FiniteUnitary) -> Word:
    """A word over {A, B} whose evaluation is rotation_matrix(u) exactly."""
    if not isinstance(u, FiniteUnitary):
        raise NotMemberError(f"not in U(2; Z[w]): {u!r}")
    return _WORDS[u]

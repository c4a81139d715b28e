"""Generator words for the rotation group U(2; Z[w]) (hermitian.FiniteUnitary).

The group is generated by the coordinate swap U1 and the single-entry
rotation U2 = diag(mu, 1), mu = -w, whose rotation matrices are the
generators A and B.  Every unit is a power of mu, so each element has a
word in closed form in its state (d1, d2, anti) of hermitian.STATE_OF:

    diag(mu^d1, mu^d2)        = A B^d2 A B^d1      (anti false)
    ((0, mu^d2), (mu^d1, 0))  = B^d2 A B^d1        (anti true)

Normalized, these are shortest words over {A, B, B^-1}.  ROTATION_WORDS
keys the 72 by state, built once at import; the decomposer reads it
directly, and the public names below hand out FiniteUnitary elements.
"""

from __future__ import annotations

from .eisenstein import ONE, ZERO, OMEGA
from .errors import NotMemberError
from .hermitian import BLOCK_OF, STATE_OF, FiniteUnitary
from .words import Word, normalize


U1 = FiniteUnitary(((ZERO, ONE), (ONE, ZERO)))
U2 = FiniteUnitary(((-OMEGA, ZERO), (ZERO, ONE)))

ROTATION_WORDS = {(d1, d2, anti): normalize(Word(
    (("B", d2), ("A", 1), ("B", d1)) if anti
    else (("A", 1), ("B", d2), ("A", 1), ("B", d1)))) for d1, d2, anti in BLOCK_OF}
_GROUP = tuple(sorted(map(FiniteUnitary.from_state, BLOCK_OF), key=lambda u: tuple(
    (e.a, e.b) for row in u.rows for e in row)))


def enumerate_group() -> tuple:
    """All 72 elements, in the fixed order of the word table: ascending by
    the coefficient pairs of the entries, row by row."""
    return _GROUP


def word_table() -> dict:
    """A shortest word over {A, B, B^-1} for each of the 72 elements."""
    return {u: u_decompose(u) for u in _GROUP}


def u_decompose(u: FiniteUnitary) -> Word:
    """A word over {A, B} whose evaluation is rotation_matrix(u) exactly."""
    if not isinstance(u, FiniteUnitary):
        raise NotMemberError(f"not in U(2; Z[w]): {u!r}")
    return ROTATION_WORDS[STATE_OF[u.flat]]

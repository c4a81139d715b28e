"""The finite unitary group U(2) over the Eisenstein integers.

Every member is diagonal diag(a, b) or antidiagonal antidiag(b; a) with both
entries sixth roots of unity, giving 2 * 6 * 6 = 72 elements.  The group is
generated by the coordinate swap U1 and the single-entry rotation U2, whose
rotation matrices are the generators A and B; a breadth-first search over
the Cayley graph supplies a shortest word in {A, B, B^-1} for each element.
"""

from __future__ import annotations

from collections import deque

from .eisenstein import ONE, ZERO, OMEGA, EisensteinInt, UNITS
from .errors import NotMemberError
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

    def __mul__(self, other: FiniteUnitary) -> FiniteUnitary:
        a, b = self.rows
        c, d = other.rows
        return FiniteUnitary((
            (a[0] * c[0] + a[1] * d[0], a[0] * c[1] + a[1] * d[1]),
            (b[0] * c[0] + b[1] * d[0], b[0] * c[1] + b[1] * d[1]),
        ))

    def __pow__(self, e: int) -> FiniteUnitary:
        if e < 0:
            return self.conj_transpose() ** (-e)
        result = identity()
        for _ in range(e):
            result = result * self
        return result

    def conj_transpose(self) -> FiniteUnitary:
        (a, b), (c, d) = self.rows
        return FiniteUnitary(((a.conj(), c.conj()), (b.conj(), d.conj())))

    inverse = conj_transpose

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
        return [[e.to_pair() for e in row] for row in self.rows]

    @classmethod
    def from_json(cls, rows) -> FiniteUnitary:
        return cls(tuple(tuple(EisensteinInt.from_pair(e) for e in row) for row in rows))


def _is_member(rows) -> bool:
    (a, b), (c, d) = rows
    if b.is_zero() and c.is_zero():
        return a.is_unit() and d.is_unit()
    if a.is_zero() and d.is_zero():
        return b.is_unit() and c.is_unit()
    return False


def u_membership(rows) -> bool:
    """True iff the 2x2 Eisenstein array is diagonal or antidiagonal with unit entries."""
    rows = tuple(tuple(row) for row in rows)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        return False
    return _is_member(rows)


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


def _bfs_table() -> dict:
    """Shortest word (over A, B, B^-1) for every group element, by BFS from I."""
    steps = ((Generator.A, 1), (Generator.B, 1), (Generator.B, -1))
    step_matrices = (U1, U2, U2.inverse())
    table = {identity(): ()}
    queue = deque([identity()])
    while queue:
        current = queue.popleft()
        word = table[current]
        for step, mat in zip(steps, step_matrices):
            nxt = current * mat
            if nxt not in table:
                table[nxt] = word + (step,)
                queue.append(nxt)
    return {u: normalize(Word(w)) for u, w in table.items()}


_TABLE = None


def word_table() -> dict:
    global _TABLE
    if _TABLE is None:
        _TABLE = _bfs_table()
    return _TABLE


def u_decompose(u: FiniteUnitary) -> Word:
    """A word over {A, B} whose evaluation is rotation_matrix(u) exactly."""
    if not isinstance(u, FiniteUnitary):
        raise NotMemberError(f"not in U(2; Z[w]): {u!r}")
    return word_table()[u]

"""4x4 Eisenstein matrices preserving the signature-(3,1) Hermitian form.

The form is <w, z> = z* J w with J carrying 1 at the (1,4) and (4,1) corners
and the identity in the middle 2x2 block.  Matrices G over Z[w] with
G* J G = J make up the modular group this package decomposes.  This module
holds the group element type, the explicit generator matrices, the one
Heisenberg translation record (tau, k) with its parity rule, corner entry
and composition law, the boundary action (g(infinity) in Z[w] over the
integer |g41|^2), and the matrix JSON format.  stabilizer_matrix is the one
formula for an element fixing infinity; the constructors build on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .eisenstein import ONE, ZERO, EisensteinInt
from .errors import DomainError, NotMemberError, ParityError
from .jsonutil import canonical_dumps, decode_pair, encode_pair


def _rows4(entries) -> tuple:
    rows = tuple(tuple(row) for row in entries)
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise NotMemberError("expected a 4x4 matrix")
    return rows


def _form_defect(rows) -> tuple | None:
    """First (row, col) position, 1-indexed, where M* J M differs from J; None if member.

    (M* J M)[j][k] = conj(M[0][j]) M[3][k] + conj(M[1][j]) M[1][k]
                   + conj(M[2][j]) M[2][k] + conj(M[3][j]) M[0][k].
    """
    for j in range(4):
        c0, c1, c2, c3 = (rows[0][j].conj(), rows[1][j].conj(),
                          rows[2][j].conj(), rows[3][j].conj())
        for k in range(4):
            val = (c0 * rows[3][k] + c1 * rows[1][k]
                   + c2 * rows[2][k] + c3 * rows[0][k])
            expected = _J_ENTRIES[j][k]
            if val.a != expected or val.b != 0:
                return (j + 1, k + 1)
    return None


_J_ENTRIES = ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0))


def check_membership(entries) -> bool:
    """True iff M* J M = J holds entrywise exactly."""
    try:
        rows = _rows4(entries)
    except NotMemberError:
        return False
    return _form_defect(rows) is None


class GroupMatrix:
    """An element of the modular group: 4x4 over Z[w] with G* J G = J.

    The constructor enforces form preservation; arithmetic stays inside the
    group, so internally produced values skip the (redundant) recheck.
    """

    __slots__ = ("rows",)

    def __init__(self, entries, *, check: bool = True):
        rows = _rows4(entries)
        if check:
            defect = _form_defect(rows)
            if defect is not None:
                raise NotMemberError(
                    f"matrix does not preserve the Hermitian form: "
                    f"defect at entry {defect}")
        self.rows = rows

    def __mul__(self, other: GroupMatrix) -> GroupMatrix:
        a = self.rows
        b = other.rows
        out = []
        for i in range(4):
            ai0, ai1, ai2, ai3 = a[i]
            out.append(tuple(
                ai0 * b[0][k] + ai1 * b[1][k] + ai2 * b[2][k] + ai3 * b[3][k]
                for k in range(4)))
        return GroupMatrix(out, check=False)

    def __pow__(self, e: int) -> GroupMatrix:
        if e < 0:
            return self.inverse() ** (-e)
        result = identity()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj_transpose(self) -> GroupMatrix:
        r = self.rows
        return GroupMatrix(
            tuple(tuple(r[k][j].conj() for k in range(4)) for j in range(4)),
            check=False)

    def inverse(self) -> GroupMatrix:
        """G^-1 = J G* J: conjugate-transpose with first and last rows/columns swapped."""
        r = self.rows
        perm = (3, 1, 2, 0)
        return GroupMatrix(
            tuple(tuple(r[perm[k]][perm[j]].conj() for k in range(4)) for j in range(4)),
            check=False)

    def fixes_infinity(self) -> bool:
        return self.rows[3][0].is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, GroupMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)
        return f"GroupMatrix([{body}])"

    def to_json(self) -> dict:
        return {"matrix": [[encode_pair(e) for e in row] for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> GroupMatrix:
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise ValueError('expected an object with a "matrix" key')
        entries = obj["matrix"]
        if not isinstance(entries, list) or len(entries) != 4:
            raise ValueError("matrix must have 4 rows")
        rows = []
        for row in entries:
            if not isinstance(row, list) or len(row) != 4:
                raise ValueError("each matrix row must have 4 entries")
            rows.append(tuple(decode_pair(e) for e in row))
        return cls(rows)


def identity() -> GroupMatrix:
    return stabilizer_matrix(ONE, _NO_TRANSLATION, _I2)


def image_of_infinity(g: GroupMatrix) -> tuple:
    """Where g sends the point at infinity, as Z[w] numerators over one
    integer denominator: (c1, c2, c3, n) with c_i = g_i1 conj(g41) and
    n = |g41|^2 >= 1, so that g(infinity) = (c1/n, c2/n, c3/n).

    For a group member the point lies on the boundary cone
    2 Re(c1/n) = -|c2/n|^2 - |c3/n|^2, that is (2 a1 - b1) n = -N(c2) - N(c3)
    with c1 = a1 + b1 w.
    """
    g41 = g.rows[3][0]
    if g41.is_zero():
        raise DomainError("matrix fixes infinity; its image has no affine coordinates")
    g41c = g41.conj()
    return (g.rows[0][0] * g41c, g.rows[1][0] * g41c, g.rows[2][0] * g41c,
            g41.norm())


def heisenberg_corner(m: int, k: int) -> EisensteinInt:
    """The corner entry e = (-m + i k sqrt(3))/2 of the translation (tau, k)
    with m = |tau1|^2 + |tau2|^2.  Using i*sqrt(3) = 1 + 2w, e is
    ((k - m)/2) + k w, an Eisenstein integer exactly when k = m (mod 2)."""
    return EisensteinInt((k - m) // 2, k)


@dataclass(frozen=True)
class HeisenbergTranslation:
    """Heisenberg translation data (tau, k): horizontal part tau in Z[w]^2 and
    vertical coordinate t = k*sqrt(3), subject to k = |tau1|^2 + |tau2|^2 (mod 2)."""

    tau1: EisensteinInt
    tau2: EisensteinInt
    k: int

    def __post_init__(self):
        m = self.tau1.norm() + self.tau2.norm()
        if (self.k - m) % 2 != 0:
            raise ParityError(
                f"k={self.k} and |tau|^2={m} must have the same parity")

    @property
    def tau(self) -> tuple[EisensteinInt, EisensteinInt]:
        return (self.tau1, self.tau2)

    def compose(self, other: HeisenbergTranslation) -> HeisenbergTranslation:
        # Twisted product: k picks up the sqrt(3)-coefficient of
        # 2*Im<<tau_self, tau_other>>, which is the w-coefficient of
        # conj(other.tau) . self.tau.
        cross = other.tau1.conj() * self.tau1 + other.tau2.conj() * self.tau2
        return HeisenbergTranslation(
            self.tau1 + other.tau1,
            self.tau2 + other.tau2,
            self.k + other.k + cross.b,
        )

    def inverse(self) -> HeisenbergTranslation:
        return HeisenbergTranslation(-self.tau1, -self.tau2, -self.k)

    def matrix(self) -> GroupMatrix:
        """Upper triangular, with e = heisenberg_corner(|tau|^2, k) at (1, 4)."""
        return stabilizer_matrix(ONE, self, _I2)


_NO_TRANSLATION = HeisenbergTranslation(ZERO, ZERO, 0)
_I2 = ((ONE, ZERO), (ZERO, ONE))


def stabilizer_matrix(lam: EisensteinInt, translation: HeisenbergTranslation,
                      u_rows) -> GroupMatrix:
    """unit_correction(lam) * translation.matrix() * rotation_matrix(u) for
    the u with rows u_rows, written out: rows (lam, -lam tau* u, lam e),
    (0, u, tau) and (0, 0, 0, lam), with e = heisenberg_corner(|tau|^2, k).
    The one place the entries of an element fixing infinity are written."""
    tau1, tau2 = translation.tau1, translation.tau2
    (a, b), (c, d) = u_rows
    ct1, ct2 = tau1.conj(), tau2.conj()
    corner = heisenberg_corner(tau1.norm() + tau2.norm(), translation.k)
    return GroupMatrix((
        (lam, -(lam * (ct1 * a + ct2 * c)), -(lam * (ct1 * b + ct2 * d)),
         lam * corner),
        (ZERO, a, b, tau1),
        (ZERO, c, d, tau2),
        (ZERO, ZERO, ZERO, lam),
    ), check=False)


def translation_matrix(tau, k: int) -> GroupMatrix:
    """The Heisenberg translation by (tau, k*sqrt(3)) as a 4x4 group matrix;
    raises ParityError unless k = |tau|^2 (mod 2)."""
    return HeisenbergTranslation(*tau, k).matrix()


def rotation_matrix(u) -> GroupMatrix:
    """Heisenberg rotation: u (a FiniteUnitary) as the middle 2x2 block,
    ones at the corners."""
    return stabilizer_matrix(ONE, _NO_TRANSLATION, u.rows)


def inversion() -> GroupMatrix:
    """The involution swapping 0 and infinity."""
    return GroupMatrix((
        (ZERO, ZERO, ZERO, ONE),
        (ZERO, -ONE, ZERO, ZERO),
        (ZERO, ZERO, -ONE, ZERO),
        (ONE, ZERO, ZERO, ZERO),
    ), check=False)


def unit_correction(lam: EisensteinInt) -> GroupMatrix:
    """diag(lam, 1, 1, lam) for a sixth root of unity lam.

    This is the scalar-like residue a stabilizer element can carry at the
    corners; products of translations and rotations always have 1 there.
    """
    if not lam.is_unit():
        raise ValueError(f"{lam!r} is not a unit of Z[w]")
    return stabilizer_matrix(lam, _NO_TRANSLATION, _I2)


# --- matrix JSON format -----------------------------------------------------

def matrix_to_json_text(g: GroupMatrix) -> str:
    """Canonical one-line JSON rendering; entries above 53-bit magnitude become strings."""
    return canonical_dumps(g.to_json())


def matrix_from_json_text(text: str) -> GroupMatrix:
    """Parse and validate the matrix JSON format.

    Raises ValueError on malformed input and NotMemberError (with the first
    failing form entry) on a well-formed non-member.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("invalid JSON: nesting too deep") from None
    try:
        return GroupMatrix.from_json(obj)
    except (TypeError, IndexError, KeyError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc

"""4x4 Eisenstein matrices preserving the signature-(3,1) Hermitian form.

The form is <w, z> = z* J w with J carrying 1 at the (1,4) and (4,1) corners
and the identity in the middle 2x2 block.  Matrices G over Z[w] with
G* J G = J make up the modular group this package decomposes.  This module
holds the group element type, the explicit generator matrices, the boundary
action (g(infinity) in Z[w] over the integer |g41|^2), the matrix JSON
format, and the stabilizer of infinity: the one Heisenberg translation record
(tau, k) with its parity rule, corner entry and composition law, the rotation
block FiniteUnitary, and HeisenbergParam, whose matrix() is the one formula
for an element fixing infinity and whose inverse is langlands_extract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .eisenstein import ONE, ZERO, EisensteinInt
from .errors import DomainError, NotMemberError, ParityError, ShapeError
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
    return HeisenbergParam(ONE, _NO_TRANSLATION, _NO_ROTATION).matrix()


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
        return HeisenbergParam(ONE, self, _NO_ROTATION).matrix()


class FiniteUnitary:
    """2x2 Eisenstein matrix with U* U = I: the group U(2; Z[w]).

    Every member is diagonal diag(a, b) or antidiagonal ((0, b), (a, 0))
    with both entries sixth roots of unity, giving 2 * 6 * 6 = 72 elements.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise NotMemberError("expected a 2x2 matrix")
        if not _is_unitary(rows):
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


def _is_unitary(rows) -> bool:
    (a, b), (c, d) = rows
    if b.is_zero() and c.is_zero():
        return a.is_unit() and d.is_unit()
    if a.is_zero() and d.is_zero():
        return b.is_unit() and c.is_unit()
    return False


@dataclass(frozen=True)
class HeisenbergParam:
    """Langlands data of an element fixing infinity: a unit lam, a
    translation and a rotation u, with matrix() equal to
    unit_correction(lam) * translation.matrix() * rotation_matrix(u)."""

    lam: EisensteinInt
    translation: HeisenbergTranslation
    u: FiniteUnitary

    def __post_init__(self):
        if not self.lam.is_unit():
            raise ValueError(f"{self.lam!r} is not a unit of Z[w]")

    def matrix(self) -> GroupMatrix:
        """Rows (lam, -lam tau* u, lam e), (0, u, tau) and (0, 0, 0, lam),
        with e = heisenberg_corner(|tau|^2, k): the one place the entries
        of an element fixing infinity are written."""
        lam, tr = self.lam, self.translation
        (a, b), (c, d) = self.u.rows
        ct1, ct2 = tr.tau1.conj(), tr.tau2.conj()
        corner = heisenberg_corner(tr.tau1.norm() + tr.tau2.norm(), tr.k)
        return GroupMatrix((
            (lam, -(lam * (ct1 * a + ct2 * c)), -(lam * (ct1 * b + ct2 * d)),
             lam * corner),
            (ZERO, a, b, tr.tau1),
            (ZERO, c, d, tr.tau2),
            (ZERO, ZERO, ZERO, lam),
        ), check=False)


_NO_TRANSLATION = HeisenbergTranslation(ZERO, ZERO, 0)
_NO_ROTATION = FiniteUnitary(((ONE, ZERO), (ZERO, ONE)))


def langlands_extract(p: GroupMatrix) -> HeisenbergParam:
    """Factor a stabilizer element as unit correction, translation, rotation.

    The lattice admits no dilation component, so the fields are forced:
    lam = g11, u the middle block, tau the middle of the last column, k the
    w-coefficient of the corner over lam.  Reading them checks that lam is a
    unit, u unitary and the corner consistent with |tau|^2; then the rebuilt
    matrix must equal p.  Any failure raises ShapeError.
    """
    r = p.rows
    lam = r[0][0]
    if not lam.is_unit():
        raise ShapeError(f"corner entry {lam} is not a unit")
    u_rows = ((r[1][1], r[1][2]), (r[2][1], r[2][2]))
    try:
        u = FiniteUnitary(u_rows)
    except NotMemberError:
        raise ShapeError(
            f"middle block {u_rows} is not in U(2; Z[w])") from None
    tau1, tau2 = r[1][3], r[2][3]
    corner = lam.unit_inverse() * r[0][3]
    m = tau1.norm() + tau2.norm()
    # corner = ((k - m)/2, k) with k = corner.b; this implies the parity rule.
    if corner.b - 2 * corner.a != m:
        raise ShapeError(
            f"corner entry {corner} inconsistent with |tau|^2 = {m}")
    param = HeisenbergParam(lam, HeisenbergTranslation(tau1, tau2, corner.b), u)
    if param.matrix() != p:
        raise ShapeError("matrix is not unit * translation * rotation")
    return param


def translation_matrix(tau, k: int) -> GroupMatrix:
    """The Heisenberg translation by (tau, k*sqrt(3)) as a 4x4 group matrix;
    raises ParityError unless k = |tau|^2 (mod 2)."""
    return HeisenbergTranslation(*tau, k).matrix()


def rotation_matrix(u) -> GroupMatrix:
    """Heisenberg rotation: u (a FiniteUnitary) as the middle 2x2 block,
    ones at the corners."""
    return HeisenbergParam(ONE, _NO_TRANSLATION, u).matrix()


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
    Raises ValueError on a non-unit lam.
    """
    return HeisenbergParam(lam, _NO_TRANSLATION, _NO_ROTATION).matrix()


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
    return GroupMatrix.from_json(obj)

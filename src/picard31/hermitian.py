"""4x4 Eisenstein matrices preserving the signature-(3,1) Hermitian form.

The form is <w, z> = z* J w with J carrying 1 at the (1,4) and (4,1) corners
and the identity in the middle 2x2 block.  Matrices G over Z[w] with
G* J G = J make up the modular group this package decomposes.  This module
holds the group element type, the generator constructors translation_matrix,
rotation_matrix and inversion, the boundary action (g(infinity) in Z[w] over
the integer |g41|^2), the matrix JSON format, and the stabilizer of infinity:
the one Heisenberg translation record (tau, k) with its parity rule, corner
entry and composition law, the rotation block FiniteUnitary, and
HeisenbergParam.  _stabilizer_flat is the one formula for the entries of an
element fixing infinity: HeisenbergParam's matrix() and the rebuild check of
stabilizer_ints (the int-level reader langlands_extract wraps) both use it.

A GroupMatrix keeps its entries as one tuple of 32 ints, the (a, b)
pairs of the entries a + b*w column by column: entry (i, j) (0-indexed)
is flat[8j + 2i] + flat[8j + 2i + 1] w, and column j is flat[8j:8j + 8].
The kernels read whole columns: the form check, the boundary action,
the reduction round, and evaluate, which applies each run of stabilizer
letters to all four columns in one pass.  Rows appear only at the edges,
which transpose: the rows constructor and the JSON reader, both through
_COLUMN_ORDER, rows (four rows of EisensteinInt, built on request), the
JSON writer and the left factor of a product.
The form check scans only the upper triangle j <= k of M* J M: that
matrix is Hermitian and J is real symmetric, so a defect at (k, j) below
the diagonal mirrors one at (j, k), which a row-by-row scan meets first.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

from .eisenstein import MU_POWERS, ONE, ZERO, EisensteinInt, norm, power
from .errors import DomainError, NotMemberError, ParityError, ShapeError
from .jsonutil import canonical_dumps, decode_coeffs, decode_int, encode_pair


def _grid(entries, size: int) -> tuple:
    """entries as size rows of size EisensteinInt, each row a tuple;
    NotMemberError on any other shape or entry type."""
    try:
        rows = tuple(tuple(row) for row in entries)
    except TypeError:
        raise NotMemberError(f"expected a {size}x{size} matrix") from None
    if len(rows) != size or any(len(r) != size for r in rows):
        raise NotMemberError(f"expected a {size}x{size} matrix")
    if not all(isinstance(e, EisensteinInt) for r in rows for e in r):
        raise NotMemberError("matrix entries must be Eisenstein integers")
    return rows


# Reading order (row i, column j, part c at 8i + 2j + c) to the column layout.
_COLUMN_ORDER = operator.itemgetter(*[8 * i + 2 * j + c for j in range(4)
                                      for i in range(4) for c in (0, 1)])


def _flatten(entries) -> tuple:
    """Four rows of four EisensteinInt, or a GroupMatrix, as the 32-int
    layout; NotMemberError on any other shape or entry type."""
    if isinstance(entries, GroupMatrix):
        return entries.flat
    return _COLUMN_ORDER([x for r in _grid(entries, 4) for e in r for x in (e.a, e.b)])


def _form_defect(flat: tuple) -> tuple | None:
    """First (row, col) position, 1-indexed, where M* J M differs from J; None if member.

    (M* J M)[j][k] = conj(M[0][j]) M[3][k] + conj(M[1][j]) M[1][k]
                   + conj(M[2][j]) M[2][k] + conj(M[3][j]) M[0][k],
    each term conj(a + bw)(c + dw) = ((a - b)c + bd) + (ad - bc)w.  Only
    j <= k is scanned (see the module docstring), the imaginary part only
    for k > j, as M* J M is Hermitian for any ints.  The four columns are
    sliced once, and each entry's a - b of column j is taken once per j.
    """
    cols = [flat[i:i + 8] for i in (0, 8, 16, 24)]
    for j in range(4):
        a0, b0, a1, b1, a2, b2, a3, b3 = cols[j]
        e0, e1, e2, e3 = a0 - b0, a1 - b1, a2 - b2, a3 - b3
        for k in range(j, 4):
            c0, d0, c1, d1, c2, d2, c3, d3 = cols[k]
            re = (e0 * c3 + b0 * d3 + e1 * c1 + b1 * d1
                  + e2 * c2 + b2 * d2 + e3 * c0 + b3 * d0)
            im = k > j and (a0 * d3 - b0 * c3 + a1 * d1 - b1 * c1
                            + a2 * d2 - b2 * c2 + a3 * d0 - b3 * c0)
            if im or re != _J_ENTRIES[j][k]:
                return (j + 1, k + 1)
    return None


_J_ENTRIES = ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0))


def _require_member(flat: tuple) -> None:
    defect = _form_defect(flat)
    if defect is not None:
        raise NotMemberError(
            f"matrix does not preserve the Hermitian form: "
            f"defect at entry {defect}")


def check_membership(entries) -> bool:
    """True iff entries are four rows of four EisensteinInt (or a
    GroupMatrix) and M* J M = J holds entrywise exactly."""
    try:
        flat = _flatten(entries)
    except NotMemberError:
        return False
    return _form_defect(flat) is None


class GroupMatrix:
    """An element of the modular group: 4x4 over Z[w] with G* J G = J.

    The constructor takes four rows of EisensteinInt and enforces form
    preservation; from_flat wraps the 32-int layout unchecked, for
    arithmetic that stays inside the group.
    """

    __slots__ = ("flat",)

    def __init__(self, entries):
        flat = _flatten(entries)
        _require_member(flat)
        self.flat = flat

    @classmethod
    def from_flat(cls, flat: tuple) -> GroupMatrix:
        """The matrix whose 32-int layout (see the module docstring) is
        flat, without any check."""
        g = object.__new__(cls)
        g.flat = flat
        return g

    @property
    def rows(self) -> tuple:
        """The entries as four rows of EisensteinInt, built on each read."""
        v = self.flat
        return tuple(tuple(EisensteinInt(v[c], v[c + 1])
                           for c in range(i, i + 32, 8))
                     for i in (0, 2, 4, 6))

    def __mul__(self, other: GroupMatrix) -> GroupMatrix:
        # (p + qw)(c + dw) = (pc - qd) + (pd + qc - qd)w, summed along j;
        # each row of self as its (p) and (q) coefficients.
        a = self.flat
        rows = [(a[i::8], a[i + 1::8]) for i in (0, 2, 4, 6)]
        b = other.flat
        out = []
        for c in (0, 8, 16, 24):
            c0, d0, c1, d1, c2, d2, c3, d3 = b[c:c + 8]
            for (p0, p1, p2, p3), (q0, q1, q2, q3) in rows:
                qd = q0 * d0 + q1 * d1 + q2 * d2 + q3 * d3
                out.append(p0 * c0 + p1 * c1 + p2 * c2 + p3 * c3 - qd)
                out.append(p0 * d0 + q0 * c0 + p1 * d1 + q1 * c1 + p2 * d2
                           + q2 * c2 + p3 * d3 + q3 * c3 - qd)
        return GroupMatrix.from_flat(tuple(out))

    def __pow__(self, e: int) -> GroupMatrix:
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, identity())

    def conj_transpose(self) -> GroupMatrix:
        return self._conj_permuted((0, 1, 2, 3))

    def inverse(self) -> GroupMatrix:
        """G^-1 = J G* J: conjugate-transpose with first and last rows/columns swapped."""
        return self._conj_permuted((3, 1, 2, 0))

    def _conj_permuted(self, perm) -> GroupMatrix:
        # Column k of the result is conj(row perm[k] of M), its entries
        # permuted by perm, and conj(a + bw) = (a - b) - bw.
        v = self.flat
        out = []
        for k in perm:
            for j in perm:
                a, b = v[8 * j + 2 * k], v[8 * j + 2 * k + 1]
                out += (a - b, -b)
        return GroupMatrix.from_flat(tuple(out))

    def fixes_infinity(self) -> bool:
        return not (self.flat[6] or self.flat[7])

    def __eq__(self, other) -> bool:
        if isinstance(other, GroupMatrix):
            return self.flat == other.flat
        return NotImplemented

    def __hash__(self):
        return hash(self.flat)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)
        return f"GroupMatrix([{body}])"

    def to_json(self) -> dict:
        return {"matrix": [[encode_pair(e) for e in row] for row in self.rows]}


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
    a1, b1, a2, b2, a3, b3, x, y = g.flat[0:8]
    if not (x or y):
        raise DomainError("matrix fixes infinity; its image has no affine coordinates")
    # (a + bw) conj(x + yw) = (a(x - y) + by) + (bx - ay)w
    return tuple(EisensteinInt(a * (x - y) + b * y, b * x - a * y)
                 for a, b in ((a1, b1), (a2, b2), (a3, b3))) + (norm(x, y),)


def heisenberg_corner(t1a, t1b, t2a, t2b, k) -> tuple[int, int]:
    """The corner e = (-m + i k sqrt(3))/2 of the translation (tau, k), for
    tau = (t1a + t1b w, t2a + t2b w) and m = |tau1|^2 + |tau2|^2, which it
    computes, as the int pair (a, b) of e = a + bw: with i sqrt(3) = 1 + 2w,
    e = ((k - m)/2) + k w, in Z[w] exactly when k = m (mod 2)."""
    return (k - norm(t1a, t1b) - norm(t2a, t2b)) // 2, k


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
        """Upper triangular, with e = a + bw at (1, 4) for the pair
        (a, b) = heisenberg_corner(t1a, t1b, t2a, t2b, k) of tau's ints."""
        return HeisenbergParam(ONE, self, _NO_ROTATION).matrix()


@dataclass(frozen=True)
class FiniteUnitary:
    """2x2 Eisenstein matrix with U* U = I: the group U(2; Z[w]).

    Every member is diagonal diag(a, b) or antidiagonal ((0, b), (a, 0))
    with both entries sixth roots of unity, giving 2 * 6 * 6 = 72 elements.
    flat holds the 8 ints of rows ((a, b), (c, d)) in the order a, c, b, d
    of the middle block in GroupMatrix's layout.
    """

    rows: tuple

    def __post_init__(self):
        rows = _grid(self.rows, 2)
        if not _is_unitary(rows):
            raise NotMemberError(f"not in U(2; Z[w]): {rows}")
        object.__setattr__(self, "rows", rows)
        (a, b), (c, d) = rows
        object.__setattr__(self, "flat", (a.a, a.b, c.a, c.b, b.a, b.b, d.a, d.b))

    def is_diagonal(self) -> bool:
        return self.rows[0][1].is_zero() and self.rows[1][0].is_zero()

    def __str__(self) -> str:
        (a, b), (c, d) = self.rows
        return f"[[{a}, {b}], [{c}, {d}]]"

    def to_json(self) -> list:
        """Rows of [a, b] pairs, as u2-table --json writes them (write-only)."""
        return [[encode_pair(e) for e in row] for row in self.rows]


def _is_unitary(rows) -> bool:
    (a, b), (c, d) = rows
    return (not (b or c) and a.is_unit() and d.is_unit()
            or not (a or d) and b.is_unit() and c.is_unit())


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

    @classmethod
    def from_ints(cls, la, lb, t1a, t1b, t2a, t2b, k, u) -> HeisenbergParam:
        """The record of the fields stabilizer_ints returns."""
        return cls(EisensteinInt(la, lb),
                   HeisenbergTranslation(EisensteinInt(t1a, t1b),
                                         EisensteinInt(t2a, t2b), k), u)

    def matrix(self) -> GroupMatrix:
        """The matrix of the fields, by _stabilizer_flat."""
        tr = self.translation
        return GroupMatrix.from_flat(_stabilizer_flat(
            self.lam.a, self.lam.b, tr.tau1.a, tr.tau1.b, tr.tau2.a, tr.tau2.b,
            tr.k, self.u.flat))


def _stabilizer_flat(la, lb, t1a, t1b, t2a, t2b, k, u) -> tuple:
    """The 32 ints of unit_correction(lam) * T(tau, k) * Rot(u) for
    lam = la + lb w, tau = (t1a + t1b w, t2a + t2b w) and u the 8 ints of
    FiniteUnitary.flat: column 1 is (lam, 0, 0, 0), columns 2-3 stack
    -lam tau* u over u over zeros, and column 4 is (lam e, tau, lam), with
    e = a + bw for (a, b) = heisenberg_corner(t1a, t1b, t2a, t2b, k).  The
    one place the entries of an element fixing infinity are written."""
    # For each column (x, y) of u: tau* (x, y) = conj(tau1) x + conj(tau2) y,
    # with conj(a + bw) = (a - b) - bw, then -lam times it, by
    # (p + qw)(c + dw) = (pc - qd) + (pd + qc - qd)w.
    c1, c2, ld = t1a - t1b, t2a - t2b, la - lb
    out = [la, lb, 0, 0, 0, 0, 0, 0]
    for xa, xb, ya, yb in (u[0:4], u[4:8]):
        pa = c1 * xa + t1b * xb + c2 * ya + t2b * yb
        pb = t1a * xb - t1b * xa + t2a * yb - t2b * ya
        out += (lb * pb - la * pa, -ld * pb - lb * pa, xa, xb, ya, yb, 0, 0)
    ea, eb = heisenberg_corner(t1a, t1b, t2a, t2b, k)
    return (*out, la * ea - lb * eb, ld * eb + lb * ea, t1a, t1b, t2a, t2b, la, lb)


_NO_TRANSLATION = HeisenbergTranslation(ZERO, ZERO, 0)
_NO_ROTATION = FiniteUnitary(((ONE, ZERO), (ZERO, ONE)))
# The 72 rotations, through the checked constructor, as (i, j, u) with u =
# diag(mu^i, mu^j) or ((0, mu^i), (mu^j, 0)), mu = -w; _BLOCKS keys them by flat.
ROTATIONS = tuple((i, j, FiniteUnitary(rows)) for i, x in enumerate(MU_POWERS)
                  for j, y in enumerate(MU_POWERS)
                  for rows in (((x, ZERO), (ZERO, y)), ((ZERO, x), (y, ZERO))))
_BLOCKS = {u.flat: u for _, _, u in ROTATIONS}


def stabilizer_ints(v: tuple) -> tuple:
    """The fields of langlands_extract as ints, from the matrix's 32 ints v:
    (la, lb, t1a, t1b, t2a, t2b, k, u) for lam = la + lb w,
    tau = (t1a + t1b w, t2a + t2b w), k and the rotation u, a FiniteUnitary.

    Reading them checks that lam is a unit, u one of the 72 rotation blocks
    and the corner consistent with |tau|^2; then the matrix rebuilt by
    _stabilizer_flat must equal v.  Any failure raises ShapeError.
    """
    la, lb = v[0], v[1]
    if norm(la, lb) != 1:
        raise ShapeError(f"corner entry {EisensteinInt(la, lb)} is not a unit")
    u = _BLOCKS.get(v[10:14] + v[18:22])
    if u is None:
        u_rows = tuple(row[1:3] for row in GroupMatrix.from_flat(v).rows[1:3])
        raise ShapeError(f"middle block {u_rows} is not in U(2; Z[w])")
    t1a, t1b, t2a, t2b = v[26:30]
    m = norm(t1a, t1b) + norm(t2a, t2b)
    # corner = conj(lam) g14 = ((k - m)/2, k), with conj(a + bw) =
    # (a - b) - bw and (p + qw)(c + dw) = (pc - qd) + (pd + qc - qd)w; this
    # implies the parity rule.
    ca, k = (la - lb) * v[24] + lb * v[25], la * v[25] - lb * v[24]
    if k - 2 * ca != m:
        raise ShapeError(f"corner entry {EisensteinInt(ca, k)} "
                         f"inconsistent with |tau|^2 = {m}")
    if _stabilizer_flat(la, lb, t1a, t1b, t2a, t2b, k, u.flat) != v:
        raise ShapeError("matrix is not unit * translation * rotation")
    return la, lb, t1a, t1b, t2a, t2b, k, u


def langlands_extract(p: GroupMatrix) -> HeisenbergParam:
    """Factor a stabilizer element as unit correction, translation, rotation.

    The lattice admits no dilation component, so the fields are forced:
    lam = g11, u the middle block, tau the middle of the last column, k the
    w-coefficient of the corner over lam.  They are read, with every check,
    by stabilizer_ints, which raises ShapeError on any failure.
    """
    return HeisenbergParam.from_ints(*stabilizer_ints(p.flat))


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
    ))


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
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValueError('expected an object with a "matrix" key')
    entries = obj["matrix"]
    if not isinstance(entries, list) or len(entries) != 4:
        raise ValueError("matrix must have 4 rows")
    if not all(isinstance(row, list) and len(row) == 4 for row in entries):
        raise ValueError("each matrix row must have 4 entries")
    # The 32 ints in reading order, each pair's shape checked before its
    # values, so the first bad entry is the one reported; decode_coeffs
    # raises on a bad shape, and decode_int reads the values json.loads
    # did not make ints.
    flat = _COLUMN_ORDER([x if type(x) is int else decode_int(x)
                          for row in entries for e in row
                          for x in (e if type(e) is list and len(e) == 2
                                    else decode_coeffs(e))])
    _require_member(flat)
    return GroupMatrix.from_flat(flat)

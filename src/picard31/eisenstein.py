"""Exact arithmetic in the Eisenstein integers Z[w], with hexagonal rounding.

Here w = (-1 + i*sqrt(3))/2 is a primitive cube root of unity, so w^2 = -1 - w.
Elements are stored as integer pairs (a, b) meaning a + b*w; all arithmetic is
exact on arbitrary-precision integers.  There is no rational number type: a
point of Q(w) is written as a numerator in Z[w] over a positive integer
denominator, or over a nonzero one in Z[w], the forms rounding takes, so
the reduction and the boundary action never leave Z[w].
"""

from __future__ import annotations


class EisensteinInt:
    """a + b*w with integer a, b, where w^2 + w + 1 = 0."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        self.a = a
        self.b = b

    def __add__(self, other: EisensteinInt) -> EisensteinInt:
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: EisensteinInt) -> EisensteinInt:
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> EisensteinInt:
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, EisensteinInt):
            # (a1 + b1 w)(a2 + b2 w) with w^2 = -1 - w
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            bb = b1 * b2
            return EisensteinInt(a1 * a2 - bb, a1 * b2 + b1 * a2 - bb)
        if isinstance(other, int):
            return EisensteinInt(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> EisensteinInt:
        if e < 0:
            return self.unit_inverse() ** (-e)
        return power(self, e, ONE)

    def conj(self) -> EisensteinInt:
        # conj(w) = w^2 = -1 - w
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        return norm(self.a, self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def unit_inverse(self) -> EisensteinInt:
        """Multiplicative inverse, defined only for the six units."""
        if not self.is_unit():
            raise ZeroDivisionError(f"{self!r} is not a unit")
        return self.conj()

    def __eq__(self, other) -> bool:
        if isinstance(other, EisensteinInt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, int):
            return self.a == other and self.b == 0
        return NotImplemented

    def __hash__(self):
        # Equal to the int a when b == 0, so it must hash like a.
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"EisensteinInt({self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}w"
        return f"{self.a}{self.b:+}w"


def norm(a: int, b: int) -> int:
    """N(a + b*w) = |a + b*w|^2 = a^2 - ab + b^2, as one product and one
    square: the one spelling of the norm of a pair of ints."""
    return a * (a - b) + b * b


def power(base, e: int, one):
    """base ** e for e >= 0, by square and multiply from the left: one for
    e = 0, else from base, a squaring for each bit of e after the leading
    one, followed by a multiply by base where that bit is set."""
    if not e:
        return one
    result = base
    for bit in bin(e)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
OMEGA = EisensteinInt(0, 1)

#: The unit group of Z[w]: the sixth roots of unity {±1, ±w, ±w^2}.
UNITS = (
    EisensteinInt(1, 0),
    EisensteinInt(-1, 0),
    EisensteinInt(0, 1),
    EisensteinInt(0, -1),
    EisensteinInt(-1, -1),
    EisensteinInt(1, 1),
)

#: (-w)^d for d in 0..5: the units as powers of mu = -w, a generator of them.
MU_POWERS = tuple((-OMEGA) ** d for d in range(6))
#: The same powers as int pairs (a, b), for the kernels on plain ints.
MU_PAIRS = tuple((mu.a, mu.b) for mu in MU_POWERS)


def lattice_corners(a: int, b: int, c: int, e: int, n: int) -> list[tuple]:
    """The three corners u = p + q*w of the unit triangle of the lattice
    that holds z = (a + b*w)/(c + e*w) (c + e*w != 0), as quadruples
    (N(a + b*w - u (c + e*w)), p, q, r) = (n |z - u|^2, p, q, r), with r
    the w-coefficient of conj(u) (a + b*w) conj(c + e*w).  Here
    n = N(c + e*w), passed in as every caller already holds it.  With
    p0 + x/n and q0 + y/n (0 <= x, y < n) the coefficients of
    z = (a + b*w) conj(c + e*w) / n, they are (p0, q0), (p0 + 1, q0) if
    x >= y else (p0, q0 + 1), and (p0 + 1, q0 + 1): the diagonal from
    (p0, q0) to (p0 + 1, q0 + 1) has length 1 and splits their
    parallelogram into two unit equilateral triangles, both holding z
    when x == y.

    Corner lemma: they hold the nearest lattice point and every u with
    3 N(a + b*w - u (c + e*w)) <= 2 n, that is |z - u|^2 <= 2/3.  The
    triangle T is the meet of three strips, each between an edge line and
    the parallel lattice line through the opposite vertex, sqrt(3)/2
    apart.  A lattice point other than T's vertices, the parallelogram's
    fourth corner among them, lies outside some strip, so
    |z - u|^2 >= 3/4 > 2/3.
    """
    # (a + bw) conj(c + ew) = (a(c - e) + be) + (bc - ae)w
    ce = c - e
    pn, qn = a * ce + b * e, b * c - a * e
    p0, x = divmod(pn, n)
    q0, y = divmod(qn, n)
    # w00 = a + bw - (p0 + q0 w)(c + ew) times conj(c + ew) is x + yw, so n
    # times the distance at (p0 + i, q0 + j) is N(x - i n, y - j n).
    wa, wb = a - p0 * c + q0 * e, b - p0 * e - q0 * ce
    base = norm(wa, wb)
    # r = p qn - q pn, the w-coefficient of conj(p + qw)(pn + qn w).
    r = p0 * y - q0 * x
    if x >= y:
        side = (base - 2 * x + y + n, p0 + 1, q0, r + qn)
    else:
        side = (base + x - 2 * y + n, p0, q0 + 1, r - pn)
    return [(base, p0, q0, r), side, (base - x - y + n, p0 + 1, q0 + 1, r + qn - pn)]


def round_nearest(num: EisensteinInt, den: int) -> EisensteinInt:
    """Nearest lattice point of Z[w] to z = num/den (den >= 1), minimizing
    the Euclidean distance.

    The difference z - u then lies in the hexagonal Dirichlet cell of the
    origin, so |z - u|^2 <= 1/3.  Ties on the cell boundary are broken by the
    lexicographically smallest coefficient pair (a, b).  Scaling num and den
    by a common factor changes neither the result nor the tie-break, so den
    need not be reduced.  The minimizer is one of lattice_corners.
    """
    _, p, q, _ = min(lattice_corners(num.a, num.b, den, 0, den * den))
    return EisensteinInt(p, q)

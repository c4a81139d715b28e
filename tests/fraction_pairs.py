"""Test-local reference arithmetic in the fraction field Q(w).

An element x + y*w is a pair (x, y) of fractions.Fraction, each coordinate
reduced on its own, so this shares no code with the package's Z[w]
numerator-over-integer forms and can serve as their oracle.
"""

from fractions import Fraction
from math import lcm

from picard31.eisenstein import EisensteinInt


def qw(z: EisensteinInt):
    return (Fraction(z.a), Fraction(z.b))


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def mul(u, v):
    # (x1 + y1 w)(x2 + y2 w) with w^2 = -1 - w
    (x1, y1), (x2, y2) = u, v
    yy = y1 * y2
    return (x1 * x2 - yy, x1 * y2 + y1 * x2 - yy)


def conj(u):
    # conj(w) = w^2 = -1 - w
    return (u[0] - u[1], -u[1])


def norm(u):
    x, y = u
    return x * x - x * y + y * y


def div(u, v):
    n = norm(v)
    x, y = mul(u, conj(v))
    return (x / n, y / n)


def as_num_den(u):
    """(num, den) with u = num/den, num in Z[w], den the least common
    denominator of the two coordinates."""
    den = lcm(u[0].denominator, u[1].denominator)
    return EisensteinInt(int(u[0] * den), int(u[1] * den)), den

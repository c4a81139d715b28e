"""Tour of the scalar layer: exact arithmetic in Z[w] and hexagonal rounding.

w is the primitive cube root of unity (-1 + i sqrt(3))/2, so w^2 = -1 - w
and w^3 = 1.  Everything here is exact: integers, pairs, and stdlib
fractions, never floats.
"""

from fractions import Fraction

from picard31 import OMEGA, UNITS, EisensteinInt, round_nearest

w = OMEGA
print("w         =", w)
print("w^2       =", w * w)
print("w^3       =", w ** 3)
print("conj(w)   =", w.conj())
print()

x = EisensteinInt(3, -2)
y = EisensteinInt(1, 4)
print(f"x = {x},  y = {y}")
print("x + y     =", x + y)
print("x * y     =", x * y)
print("norm(x)   =", x.norm(), " (= x * conj(x) =", x * x.conj(), ")")
print()

print("The six units, each with its inverse:")
for u in UNITS:
    print(f"  {str(u):>5}  inverse {u.unit_inverse()}")
print()

# A point of the fraction field Q(w) is a numerator in Z[w] over a positive
# integer denominator; its embedding into C splits as (rational) +
# (rational) * sqrt(3) * i, since (a + b w)/d = (2a - b)/(2d) + (b/(2d)) sqrt(3) i.
num, den = EisensteinInt(7, 3), 6
print(f"z = ({num})/{den}")
print(f"  real part  {Fraction(2 * num.a - num.b, 2 * den)}")
print(f"  imag part  ({Fraction(num.b, 2 * den)})*sqrt(3)")
print(f"  |z|^2      {Fraction(num.norm(), den * den)}")
print()

# Rounding to the nearest lattice point.  Distances stay in integers:
# N(num - p den) = den^2 |z - p|^2.  The lattice is hexagonal, so the worst
# case (the deep hole) sits at squared distance exactly 1/3, that is
# 3 N(num - p den) <= den^2.
for (a, b), den in [((1, 0), 2), ((1, 1), 2), ((2, 1), 3), ((-7, 5), 4)]:
    num = EisensteinInt(a, b)
    p = round_nearest(num, den)
    d = (num - p * den).norm()
    print(f"round({f'({num})/{den}':>12}) = {str(p):>5}   "
          f"N(num - p*den) = {d:>2}   dist^2 = {Fraction(d, den * den)}")
den = 3
for a in range(-6, 7):
    for b in range(-6, 7):
        num = EisensteinInt(a, b)
        assert 3 * (num - round_nearest(num, den) * den).norm() <= den * den
print("\ncovering radius check on a 13x13 sample grid: all within 1/3")

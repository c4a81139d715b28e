"""Tour of the scalar layer: exact arithmetic in Z[w] and its fraction field.

w is the primitive cube root of unity (-1 + i sqrt(3))/2, so w^2 = -1 - w
and w^3 = 1.  Everything here is exact: integers, pairs, and stdlib
fractions, never floats.
"""

from fractions import Fraction

from picard31 import (OMEGA, ONE, UNITS, EisensteinFrac, EisensteinInt,
                      round_nearest)

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

# The fraction field, with the embedding into C split as (rational) +
# (rational) * sqrt(3) * i.
z = EisensteinFrac(EisensteinInt(7, 3), 6)
re, im = z.re_im()
print(f"z = {z}")
print(f"  real part  {re}")
print(f"  imag part  ({im})*sqrt(3)")
print(f"  |z|^2      {z.norm()}")
print()

# Rounding to the nearest lattice point.  The lattice is hexagonal, so the
# worst case (the deep hole) sits at squared distance exactly 1/3.
for num, den in [((1, 0), 2), ((1, 1), 2), ((2, 1), 3), ((-7, 5), 4)]:
    z = EisensteinFrac(EisensteinInt(*num), den)
    p = round_nearest(z.num, z.den)
    d = (z - EisensteinFrac(p)).norm()
    print(f"round({str(z):>12}) = {str(p):>5}   dist^2 = {d}")
assert Fraction(1, 3) >= max(
    (EisensteinFrac(EisensteinInt(a, b), 3)
     - EisensteinFrac(round_nearest(EisensteinInt(a, b), 3))).norm()
    for a in range(-6, 7) for b in range(-6, 7))
print("\ncovering radius check on a 13x13 sample grid: all within 1/3")

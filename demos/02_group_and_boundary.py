"""The four generators, form preservation, and the action on the boundary.

The group lives inside 4x4 matrices over Z[w] preserving a Hermitian form
of signature (3,1).  Its boundary sphere carries Heisenberg coordinates;
elements not fixing the point at infinity push it to a finite point of the
null cone, and that point steers the whole decomposition algorithm.
"""

from picard31 import (ONE, ZERO, U1, U2, check_membership, image_of_infinity,
                      inversion, rotation_matrix, translation_matrix)

N = translation_matrix((ONE, ZERO), 1)
A = rotation_matrix(U1)
B = rotation_matrix(U2)
R = inversion()


def show(name, g):
    print(f"{name} =")
    for row in g.rows:
        print("   [" + "  ".join(f"{str(e):>5}" for e in row) + "]")
    print(f"   member: {check_membership(g.rows)}")


show("N (translation by ((1,0), sqrt(3)))", N)
show("A (swap rotation)", A)
show("B (w-scaling rotation)", B)
show("R (inversion)", R)
print()

print("orders:  A^2 = I?", A * A == A ** 0, "  B^6 = I?", B ** 6 == B ** 0,
      "  R^2 = I?", R * R == R ** 0)
print()

# Translations do not move infinity; R swaps it with the origin.
g = R * N ** 3 * R * B * N
print("sample element g = R N^3 R B N")
print("g fixes infinity?", g.fixes_infinity())
# g(infinity) comes back as Z[w] numerators over one integer n = |g41|^2,
# not reduced.
c1, c2, c3, n = image_of_infinity(g)
print("g(infinity) =", tuple(f"({c})/{n}" for c in (c1, c2, c3)))
# The cone 2 Re(c1/n) = -|c2/n|^2 - |c3/n|^2, multiplied out by n^2.
print("cone check: (2a - b) n =", (2 * c1.a - c1.b) * n,
      " and -N(c2) - N(c3) =", -(c2.norm() + c3.norm()),
      f"  (c1 = a + b w, n = {n})")

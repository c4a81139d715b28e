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
pt = image_of_infinity(g)
print("g(infinity) =", (str(pt.c1), str(pt.c2), str(pt.c3)))
re1, _ = pt.c1.re_im()
print("cone check: 2 Re(c1) =", 2 * re1, " and -|c2|^2 - |c3|^2 =",
      -(pt.c2.norm() + pt.c3.norm()))

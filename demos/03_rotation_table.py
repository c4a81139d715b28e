"""The finite rotation subgroup: 72 unitary 2x2 matrices over Z[w].

Every entry of such a matrix is a unit or zero, which forces each element
to be diagonal or antidiagonal, with unit entries that are powers of
mu = -w.  So each element has a shortest word in closed form,
diag(mu^i, mu^j) = A B^j A B^i and ((0, mu^i), (mu^j, 0)) = B^i A B^j, and
those words are what the big decomposition emits for the rotation part.
"""

from collections import Counter

from picard31 import (enumerate_group, evaluate, rotation_matrix, serialize,
                      u_decompose)

group = enumerate_group()
print("group order:", len(group))

diag = sum(1 for u in group if u.is_diagonal())
print("diagonal elements:", diag, " antidiagonal:", len(group) - diag)
print()

lengths = Counter()
for u in group:
    word = u_decompose(u)
    assert evaluate(word) == rotation_matrix(u)
    lengths[sum(abs(e) for _, e in word)] += 1
print("word length distribution (letters -> count):")
for n in sorted(lengths):
    print(f"  {n:2d}: {lengths[n]}")
print()

print("a few elements with their words:")
for u in group[:6]:
    print(f"  {serialize(u_decompose(u)) or '1':<18} {u}")

"""Step-by-step walkthrough of the decomposition of one group element.

Each round looks at where the element sends infinity, translates that
point near the origin, and applies the inversion R.  The norm of the
bottom-left entry is a nonnegative integer that shrinks by a factor of at
least 31/36 per round, so the loop always terminates; what remains fixes
infinity and splits into unit * translation * rotation.
"""

from fractions import Fraction

from picard31 import (decompose_traced, evaluate, parse, serialize,
                      step_bound, translation_data, unit_correction, verify)

g = evaluate(parse("N^3 R B^-1 N^-2 A R N B^2 R N^-1"))
n0 = g.rows[3][0].norm()
print("input: evaluate('N^3 R B^-1 N^-2 A R N B^2 R N^-1')")
print("bottom-left norm n0 =", n0)
print("guaranteed step bound:", step_bound(n0) + 1)
print()

# Peek at the first round's choice before running the whole thing.  Of all
# translations (tau, k) within the paper's bounds i1 <= 1/3 and
# |e + k| <= 1, the round takes the one that leaves the smallest norm
# n' = n (i1^2 + (3/4)(e + k)^2), which need not be the nearest lattice
# point.  The quality figures are integers over n = |g41|^2:
# i1 = s / (2 n) and |e + k| = |zb + k n| / n.
tau, k, s, zb, n = translation_data(g)
print("first round picks tau =", (str(tau[0]), str(tau[1])), " k =", k)
print(f"  quality: i1 = {Fraction(s, 2 * n)} (<= 1/3),  "
      f"|e + k| = {Fraction(abs(zb + k * n), n)} (<= 1)")
print()

result, trace = decompose_traced(g)
print(f"rounds used: {len(trace.steps)}")
for i, step in enumerate(trace.steps, start=1):
    ratio = step.n_after / step.n_before
    print(f"  round {i}: tau=({step.tau[0]}, {step.tau[1]}) k={step.k:>3} "
          f" norm {step.n_before} -> {step.n_after}  (x{ratio:.3f})")
stab = trace.stabilizer
print(f"terminal stabilizer: unit={stab.lam} "
      f"tau=({stab.translation.tau1}, {stab.translation.tau2}) "
      f"k={stab.translation.k}")
print()

print("unit:", result.unit)
print("word:", serialize(result.word))
print("word length:", result.word.letters(), "letters")
rebuilt = unit_correction(result.unit) * evaluate(result.word)
print("exact rebuild matches:", rebuilt == g)
print("verify():", verify(g, result))

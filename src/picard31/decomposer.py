"""Constructive decomposition of group elements into generator words.

The algorithm repeatedly moves the image of infinity close to the origin by
a Heisenberg translation and then applies the inversion.  Of the
translations within the paper's bounds, translation_data takes the one that
leaves the smallest bottom-left norm, by an exhaustive search over the
lattice corners around the image.  Each round shrinks that norm by a factor
of at least 31/36, and the norm is a nonnegative integer, so after finitely
many rounds the element fixes infinity, where hermitian.langlands_extract
splits it into a unit correction, a translation, and a rotation.  Unwinding
the rounds yields a word over the four generators; the unit correction is
reported separately.

Every unit correction is a generator word too (tests pin words for w and
-1, which generate the units), but folding it into the word would add 15
or more letters to about a quarter of short-word decompositions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .eisenstein import UNITS, EisensteinInt, lattice_corners
# The traced benchmark run wraps round_nearest by this module's name.
from .eisenstein import round_nearest  # noqa: F401
from .errors import InternalError
from .finite_unitary import enumerate_group, u_decompose
from .hermitian import (GroupMatrix, HeisenbergParam, HeisenbergTranslation,
                        heisenberg_corner, image_of_infinity,
                        langlands_extract)
from .jsonutil import encode_int, encode_pair
from .words import DecompositionResult, Word, evaluate, normalize, serialize


@dataclass(frozen=True)
class ReductionStep:
    """One round: left-multiply by the translation (tau, k), then invert.
    n_before and n_after are the bottom-left entry norms around the round."""

    tau: tuple[EisensteinInt, EisensteinInt]
    k: int
    n_before: int
    n_after: int

    def to_json(self) -> dict:
        return {"tau": [encode_pair(t) for t in self.tau],
                "k": self.k,
                "n_before": encode_int(self.n_before),
                "n_after": encode_int(self.n_after)}


@dataclass(frozen=True)
class ReductionTrace:
    """Full record of a decomposition: the rounds plus the terminal
    stabilizer data."""

    steps: tuple[ReductionStep, ...]
    stabilizer: HeisenbergParam

    def to_json(self) -> dict:
        stab = self.stabilizer
        return {
            "steps": [s.to_json() for s in self.steps],
            "stabilizer": {
                "unit": encode_pair(stab.lam),
                "tau": [encode_pair(t) for t in stab.translation.tau],
                "k": stab.translation.k,
                "u_word": serialize(u_decompose(stab.u)),
            },
        }


def translation_data(g: GroupMatrix):
    """Choose the reduction translation for g: the (tau, k) of least n'.

    Everything is in Z[w] over the one integer n = |g41|^2 that
    image_of_infinity returns: g(infinity) = (c1/n, p1/n, p2/n).  Returns
    (translation, s, zb, n) with s = N(p1 + n tau1) + N(p2 + n tau2) and
    zb the w-coefficient of c1 - p1 conj(tau1) - p2 conj(tau2).  In the
    paper's terms i1 = s / (2 n^2) is half the squared distance of
    (q1, q2) to -tau, and e = zb / n is twice the sqrt(3)-coefficient of
    Im(z - q1 conj(tau1) - q2 conj(tau2)); the bottom-left norm after the
    round is n' = n (i1^2 + (3/4)(e + k)^2), that is
    4 n^3 n' = s^2 + 3 n^2 (zb + k n)^2.

    The rule: among all tau in Z[w]^2 and k = |tau|^2 (mod 2) within the
    paper's bounds 3 s <= 2 n^2 (i1 <= 1/3) and |zb + k n| <= n
    (|e + k| <= 1), take the one of least n'; ties go to the smaller |k|,
    then the smaller k, then the lexicographically smallest
    (tau1.a, tau1.b, tau2.a, tau2.b).  The nearest lattice points
    -tau_j to q_j meet both bounds, so 36 n' <= 31 n holds as in the paper.
    The search is exhaustive: both parts of s are >= 0, so each -tau_j has
    3 N(p_j + n tau_j) <= 2 n^2, and by the corner lemma of
    eisenstein.lattice_corners it is one of the at most three corners
    around q_j that pass; for each tau, only the two same-parity k around
    -zb/n can meet |zb + k n| <= n.  s and zb split by coordinate, so each
    corner's parts are computed once and each pair is scored by sums.
    Raises DomainError when g fixes infinity, as image_of_infinity does.
    """
    c1, p1, p2, n = image_of_infinity(g)
    top = 2 * n * n
    # Per coordinate, each admissible corner u = -tau in plain ints with its
    # parts of s, zb and |tau|^2: N(p - u n), the w-coefficient
    # ua pb - ub pa of -p conj(tau), and N(u).
    parts = [[(d, ua, ub, ua * pb - ub * pa, ua * ua - ua * ub + ub * ub)
              for d, ua, ub in lattice_corners(pa, pb, n) if 3 * d <= top]
             for pa, pb in ((p1.a, p1.b), (p2.a, p2.b))]
    choices = []
    for s1, u1a, u1b, z1, m1 in parts[0]:
        for s2, u2a, u2b, z2, m2 in parts[1]:
            s = s1 + s2
            if 3 * s > top:
                continue
            zb = c1.b + z1 + z2
            # k must match the parity of m = |tau|^2 and minimize
            # |e| = |zb + k n|.  That is convex in k with its minimum at
            # -zb/n, so over the same-parity integers it is least at the
            # largest one <= -zb/n (where -2n < e <= 0) or at the next one,
            # 2 higher; the minimum is at most n.  A tie at e = -n goes to
            # the smaller |k|, then the smaller k: to the higher one exactly
            # when the lower is below -1.
            k = -zb // n
            k -= (k - m1 - m2) % 2
            e = zb + k * n
            if e < -n or e == -n and k < -1:
                k += 2
                e += 2 * n
            choices.append((s, zb, k, e, -u1a, -u1b, -u2a, -u2b))
    n3 = 3 * n * n
    s, zb, k, _, t1a, t1b, t2a, t2b = min(
        choices, key=lambda c: (c[0] * c[0] + n3 * c[3] * c[3],
                                abs(c[2]), c[2], c[4:]))
    return (HeisenbergTranslation(EisensteinInt(t1a, t1b),
                                  EisensteinInt(t2a, t2b), k), s, zb, n)


def reduction_step(g: GroupMatrix) -> tuple[GroupMatrix, ReductionStep]:
    """One round: g' = R * N_(tau,k) * g with the chosen translation.

    Computed by direct row operations on each column of GroupMatrix's
    layout; a generic product would redo the structure of R and N.  Both
    the contraction 36 n' <= 31 n and the exact ratio
    4 n^3 n' = s^2 + 3 n^2 (zb + k n)^2 of translation_data are asserted
    in integers.
    """
    tr, s, zb, n = translation_data(g)
    k = tr.k
    t1a, t1b, t2a, t2b = tr.tau1.a, tr.tau1.b, tr.tau2.a, tr.tau2.b
    # conj(a + bw) = (a - b) - bw, and the corner ea + kw of N_(tau,k).
    u1a, u1b, u2a, u2b = t1a - t1b, -t1b, t2a - t2b, -t2b
    ea = heisenberg_corner(tr.tau1.norm() + tr.tau2.norm(), k)[0]

    # Rows r1..r4 become r4, -(r2 + tau1 r4), -(r3 + tau2 r4) and
    # r1 - conj(tau1) r2 - conj(tau2) r3 + corner r4, in each column, with
    # (p + qw)(c + dw) = (pc - qd) + (pd + qc - qd)w.
    v = g.flat
    out = []
    for c in (0, 8, 16, 24):
        a1, b1, a2, b2, a3, b3, x, y = v[c:c + 8]
        out += (x, y,
                -(a2 + t1a * x - t1b * y), -(b2 + t1a * y + t1b * x - t1b * y),
                -(a3 + t2a * x - t2b * y), -(b3 + t2a * y + t2b * x - t2b * y),
                a1 - (u1a * a2 - u1b * b2) - (u2a * a3 - u2b * b3)
                + ea * x - k * y,
                b1 - (u1a * b2 + u1b * a2 - u1b * b2)
                - (u2a * b3 + u2b * a3 - u2b * b3) + ea * y + k * x - k * y)

    x, y = out[6], out[7]
    n_after = x * x - x * y + y * y
    if 36 * n_after > 31 * n:
        raise InternalError(f"reduction failed to contract: {n} -> {n_after}")
    if 4 * n ** 3 * n_after != s * s + 3 * n * n * (zb + k * n) ** 2:
        raise InternalError(f"norm {n} -> {n_after} does not match the "
                            f"predicted ratio (s={s}, zb={zb}, k={k})")
    return GroupMatrix.from_flat(tuple(out)), ReductionStep(
        tau=tr.tau, k=k, n_before=n, n_after=n_after)


def step_bound(n0: int) -> int:
    """Smallest s with (36/31)^s >= n0, by exact integer comparison.

    The reduction needs at most step_bound(n0) + 1 rounds starting from
    bottom-left norm n0.
    """
    s = 0
    power36 = 1
    bound = n0
    while power36 < bound:
        s += 1
        power36 *= 36
        bound *= 31
    return s


def decompose_translation(tau, k: int) -> Word:
    """Word for the translation by (tau, k*sqrt(3)) over N, A, B.

    The four lattice directions come from conjugating N by rotations:
      (1, 0)  : N            (w, 0)  : B^-2 N B^2
      (0, 1)  : A N A        (0, w)  : A B^-2 N B^2 A
    and the vertical direction from the commutator of N with B N B^-1,
    which climbs by 2 sqrt(3) per unit.  The four horizontal factors
    compose to the right tau; their accumulated vertical offset k_word is
    corrected through the commutator power.  Raises ParityError unless
    k = |tau|^2 (mod 2).  The residual k - k_word is then even, because
    a^2 - ab + b^2 = a + b - ab (mod 2).
    """
    tr = HeisenbergTranslation(*tau, k)
    return Word(_translation_items([], 1, 0, tr.tau1.a, tr.tau1.b, tr.tau2.a,
                                   tr.tau2.b, k))


def _translation_items(items, la, lb, t1a, t1b, t2a, t2b, k) -> list:
    """items extended by those of decompose_translation((lam tau1, lam tau2),
    k) for the unit lam = la + lb w, from the ints of tau and k alone."""
    # lam tau_j by (p + qw)(c + dw) = (pc - qd) + (pd + qc - qd)w.
    a1, b1 = la * t1a - lb * t1b, la * t1b + lb * t1a - lb * t1b
    a2, b2 = la * t2a - lb * t2b, la * t2b + lb * t2a - lb * t2b
    if a1:
        items.append(("N", a1))
    if b1:
        items += ("B", -2), ("N", b1), ("B", 2)
    if a2:
        items += ("A", 1), ("N", a2), ("A", 1)
    if b2:
        items += ("A", 1), ("B", -2), ("N", b2), ("B", 2), ("A", 1)
    t = (k - (a1 + b1 - a1 * b1 + a2 + b2 - a2 * b2)) // 2
    if t:
        items += (("N", t), ("B", 1), ("N", 1), ("B", -1), ("N", -t), ("B", 1),
                  ("N", -1), ("B", -1))
    return items


def decompose_traced(g: GroupMatrix) -> tuple[DecompositionResult, ReductionTrace]:
    """Full decomposition with the step-by-step reduction record.

    If the rounds give g_n = R N_n ... R N_1 g, then
    g = prod_i [N_(-tau_i, -k_i) R] * g_n, and g_n splits as
    unit * translation * rotation.  Pulling the unit to the front twists
    each round's tau by it, and everything right of the unit is a word in
    the generators.  The result is verified against g before returning.
    An InternalError leaves with steps set to the rounds done before it.
    """
    steps = []
    current = g
    try:
        while not current.fixes_infinity():
            current, step = reduction_step(current)
            steps.append(step)
        param = langlands_extract(current)
        # Round i contributes the items of N_(-lam tau_i, -k_i), then R.
        items = []
        la, lb = -param.lam.a, -param.lam.b
        for step in steps:
            t1, t2 = step.tau
            _translation_items(items, la, lb, t1.a, t1.b, t2.a, t2.b, -step.k)
            items.append(("R", 1))
        tr = param.translation
        _translation_items(items, 1, 0, tr.tau1.a, tr.tau1.b, tr.tau2.a,
                           tr.tau2.b, tr.k)
        items += u_decompose(param.u).items
        word = normalize(Word(items))

        result = DecompositionResult(unit=param.lam, word=word)
        if not verify(g, result):
            raise InternalError("decomposition failed self-verification")
    except InternalError as exc:
        exc.steps = tuple(steps)
        raise
    return result, ReductionTrace(steps=tuple(steps), stabilizer=param)


def decompose(g: GroupMatrix) -> DecompositionResult:
    return decompose_traced(g)[0]


def verify(g: GroupMatrix, result: DecompositionResult) -> bool:
    """Exact check, by one evaluation, of unit_correction(unit) * word == g."""
    return evaluate(result.word, result.unit) == g


# --- randomized inputs ------------------------------------------------------

_EXPONENTS = (-3, -2, -1, 1, 2, 3)


def random_element(seed: int, max_len: int = 40) -> Word:
    """Seeded random word: uniform generators, exponents in [-3, 3] without 0.
    Returned as generated, without normalization."""
    rng = random.Random(seed)
    length = rng.randint(1, max_len)
    return Word(tuple((rng.choice("NABR"), rng.choice(_EXPONENTS))
                      for _ in range(length)))


def random_stabilizer(seed: int) -> GroupMatrix:
    """Seeded random stabilizer element unit * translation * rotation with
    small parameters."""
    rng = random.Random(seed)
    lam = rng.choice(UNITS)
    tau1 = EisensteinInt(rng.randint(-5, 5), rng.randint(-5, 5))
    tau2 = EisensteinInt(rng.randint(-5, 5), rng.randint(-5, 5))
    m = tau1.norm() + tau2.norm()
    k = rng.choice([k for k in range(-10, 11) if (k - m) % 2 == 0])
    u = rng.choice(enumerate_group())
    return HeisenbergParam(lam, HeisenbergTranslation(tau1, tau2, k), u).matrix()

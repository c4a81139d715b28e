"""Constructive decomposition of group elements into generator words.

The algorithm repeatedly moves the image of infinity close to the origin by
a Heisenberg translation and then applies the inversion.  Of the
translations within the paper's bounds, _choose takes the one that
leaves the smallest bottom-left norm, by an exhaustive search over the
lattice corners around the image.  Each round shrinks that norm by a factor
of at least 31/36, and the norm is a nonnegative integer, so after finitely
many rounds the element fixes infinity, where hermitian.stabilizer_ints
splits it into a unit correction, a translation, and a rotation.  Unwinding
the rounds yields a word over the four generators; the unit correction is
reported separately.  A rotation commutes with R and, carried past a
translation, twists it, so each round's trailing rotation letters move to
the end of the word, where they and the stabilizer's rotation make one
word of the rotation table.  A round builds only a 7-int tuple, no
record.  The rounds read only g's first column; from a large starting
norm they carry that column alone, and the element fixing infinity is
read from the evaluation of the rounds' word that the self-verify
multiplies out anyway.

Every unit correction is a generator word too (tests pin words for w and
-1, which generate the units), but folding it into the word would add 15
or more letters to about a quarter of short-word decompositions.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .eisenstein import MU_PAIRS, UNITS, EisensteinInt, lattice_corners, norm
# The traced benchmark run wraps round_nearest and langlands_extract by
# this module's name.
from .eisenstein import round_nearest  # noqa: F401
from .errors import InternalError, ShapeError
from .finite_unitary import ROTATION_WORDS, enumerate_group, u_decompose
from .hermitian import (GroupMatrix, HeisenbergParam, HeisenbergTranslation,
                        heisenberg_corner, image_of_infinity, stabilizer_ints)
from .hermitian import langlands_extract  # noqa: F401
from .jsonutil import encode_int, encode_pair
from .words import (DecompositionResult, Word, evaluate, join, normalize,
                    serialize)


class ReductionStep(NamedTuple):
    """One round: left-multiply by the translation (tau, k), then invert.
    n_before and n_after are the bottom-left entry norms around the round."""

    tau: tuple[EisensteinInt, EisensteinInt]
    k: int
    n_before: int
    n_after: int

    def to_json(self) -> dict:
        return {"tau": [encode_pair(t) for t in self.tau],
                "k": encode_int(self.k),
                "n_before": encode_int(self.n_before),
                "n_after": encode_int(self.n_after)}


class ReductionTrace(NamedTuple):
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
                "k": encode_int(stab.translation.k),
                "u_word": serialize(u_decompose(stab.u)),
            },
        }


def _choose(flat: tuple, n: int) -> tuple:
    """The reduction translation for g, the (tau, k) of least n', from the
    32 ints flat of g and n = |g41|^2 > 0.

    Everything is in Z[w], read from g's first column: g(infinity) =
    (c1/n, p1/n, p2/n), p_j = g_(j+1)1 conj(g41) as in image_of_infinity.
    Returns (t1a, t1b, t2a, t2b, k, s, zb, nn), tau = (t1a + t1b w,
    t2a + t2b w), s = N(g21 + tau1 g41) + N(g31 + tau2 g41), zb the
    w-coefficient of c1 - p1 conj(tau1) - p2 conj(tau2) and
    nn = s^2 + 3 (zb + k n)^2, the value the choice was ranked by.  In the
    paper's terms i1 = s / (2 n) is half the squared distance of (q1, q2)
    to -tau, and e = zb / n is twice the sqrt(3)-coefficient of
    Im(z - q1 conj(tau1) - q2 conj(tau2)); the bottom-left norm after the
    round is n' = n (i1^2 + (3/4)(e + k)^2), that is 4 n n' = nn.

    The rule: among all tau in Z[w]^2 and k = |tau|^2 (mod 2) within the
    paper's bounds 3 s <= 2 n (i1 <= 1/3) and |zb + k n| <= n
    (|e + k| <= 1), take the one of least n'; ties go to the smaller |k|,
    then the smaller k, then the lexicographically smallest
    (tau1.a, tau1.b, tau2.a, tau2.b).  The nearest lattice points
    -tau_j to q_j meet both bounds, so 36 n' <= 31 n holds as in the paper.
    The search is exhaustive: both parts of s are >= 0, so each -tau_j has
    3 N(g_(j+1)1 + tau_j g41) <= 2 n, and by the corner lemma of
    eisenstein.lattice_corners it is one of the three corners around q_j;
    for each tau, only the two same-parity k around -zb/n can meet
    |zb + k n| <= n.  s and zb split by coordinate, so each corner's parts
    are computed once and each pair is scored by sums.  A pair whose s and
    |zb + k n| are both no less than the best's so far, one of them
    greater, has the greater n': it is skipped before anything is squared.
    A pair equal in both reaches the tie-break.
    """
    a1, b1, a2, b2, a3, b3, x, y = flat[0:8]
    top = 2 * n
    # Per coordinate, each admissible corner u = -tau in plain ints with its
    # parts of s, zb and |tau|^2: N(g_j1 - u g41), the w-coefficient of
    # -p conj(tau) = conj(u) g_j1 conj(g41), and N(u).
    parts = [[(d, ua, ub, z, norm(ua, ub))
              for d, ua, ub, z in lattice_corners(a, b, x, y, n) if 3 * d <= top]
             for a, b in ((a2, b2), (a3, b3))]
    c1b = b1 * x - a1 * y
    best = None
    for s1, u1a, u1b, z1, m1 in parts[0]:
        for s2, u2a, u2b, z2, m2 in parts[1]:
            s = s1 + s2
            if 3 * s > top:
                continue
            zb = c1b + z1 + z2
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
            ae = abs(e)
            if best is not None and s >= bs and ae >= be and (s > bs or ae > be):
                continue  # dominated: its n' exceeds the best's
            nn = s * s + 3 * e * e
            if best is None or nn <= best[0]:
                key = (nn, abs(k), k, -u1a, -u1b, -u2a, -u2b)
                if best is None or key < best:
                    best, bs, be, bzb = key, s, ae, zb  # and its s, |e|, zb
    nn, _, k, t1a, t1b, t2a, t2b = best
    return t1a, t1b, t2a, t2b, k, bs, bzb, nn


def _round(flat: tuple, n: int) -> tuple:
    """g' = R N_(tau,k) g with _choose's (tau, k), from g's ints flat and
    n = |g41|^2 > 0, as (flat', (t1a, t1b, t2a, t2b, k, n, n')).

    flat holds g's leading columns in GroupMatrix's layout: all four (32
    ints), or column 1 alone (8 ints), which is all that _choose and both
    checks read; flat' holds the same columns of g'.  Computed by direct
    row operations, one column formula applied to each column flat holds;
    a generic product would redo the structure of R and N.  After the
    loop, on column 1's new last row, the contraction 36 n' <= 31 n and
    the exact ratio 4 n n' = nn are asserted in integers, nn being
    _choose's prediction s^2 + 3 (zb + k n)^2, the value it ranked its
    choice by, from the s, zb and k it returns.
    """
    t1a, t1b, t2a, t2b, k, s, zb, nn = _choose(flat, n)
    # The a-parts of conj(tau_j), with conj(a + bw) = (a - b) - bw, and the
    # corner ea + kw of N_(tau,k).
    c1, c2 = t1a - t1b, t2a - t2b
    ea = heisenberg_corner(t1a, t1b, t2a, t2b, k)[0]

    # Rows r1..r4 become r4, -(r2 + tau1 r4), -(r3 + tau2 r4) and
    # r1 - conj(tau1) r2 - conj(tau2) r3 + corner r4, in each column, with
    # (p + qw)(c + dw) = (pc - qd) + (pd + qc - qd)w; d = (p - q) of r4.
    out = []
    for j in (0, 8, 16, 24)[:len(flat) // 8]:
        a1, b1, a2, b2, a3, b3, a4, b4 = flat[j:j + 8]
        d = a4 - b4
        out += (a4, b4, -(a2 + t1a * a4 - t1b * b4), -(b2 + t1a * b4 + t1b * d),
                -(a3 + t2a * a4 - t2b * b4), -(b3 + t2a * b4 + t2b * d),
                a1 - c1 * a2 - t1b * b2 - c2 * a3 - t2b * b3 + ea * a4 - k * b4,
                b1 - t1a * b2 + t1b * a2 - t2a * b3 + t2b * a3 + ea * b4 + k * d)
    n_after = norm(out[6], out[7])
    if 36 * n_after > 31 * n:
        raise InternalError(f"reduction failed to contract: {n} -> {n_after}")
    if 4 * n * n_after != nn:
        raise InternalError(f"norm {n} -> {n_after} does not match the "
                            f"predicted ratio (s={s}, zb={zb}, k={k})")
    return tuple(out), (t1a, t1b, t2a, t2b, k, n, n_after)


def translation_data(g: GroupMatrix):
    """_choose's (tau, k, s, zb, n) for g; DomainError if g fixes infinity."""
    n = image_of_infinity(g)[3]
    t1a, t1b, t2a, t2b, k, s, zb, _ = _choose(g.flat, n)
    return (EisensteinInt(t1a, t1b), EisensteinInt(t2a, t2b)), k, s, zb, n


def reduction_step(g: GroupMatrix) -> tuple[GroupMatrix, ReductionStep]:
    """_round on g: (g', its ReductionStep); DomainError if g fixes infinity."""
    flat, record = _round(g.flat, image_of_infinity(g)[3])
    return GroupMatrix.from_flat(flat), _steps([record])[0]


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

    A coordinate steps along the hexagonal directions 1, w and 1 + w, each
    a conjugate of N by a power of B.  x steps along a direction d make
    the translation T(x d, s x) of the first coordinate:
      1     : N^x                                   s = 1
      w     : B^-2 N^x B^2 (s = 1)  or  B N^-x B^-1  (s = -1)
      1 + w : B^-1 N^x B                            s = 1
    and the second coordinate's word is the first's between A and A.
    T(v, k) T(v', k') = T(v + v', k + k' + c), c the w-coefficient of
    conj(v') v, so each of the 10 forms of a coordinate a + bw, two of
    the directions in either order, has a closed-form vertical offset.
    The vertical remainder t = (k - offset1 - offset2)/2 is paid in
    commutators of powers of N with B N B^-1: [N^a, B N^b B^-1] climbs by
    2ab sqrt(3) with 2|a| + 2|b| + 4 letters.  t is written as ab + c with
    a = isqrt(|t|) and b the integer nearest t/a, and c in the same way,
    unless the single commutator [N^t, B N B^-1] (2|t| + 6 letters) is no
    longer.  Raises ParityError unless k = |tau|^2 (mod 2); then k minus
    the offsets is even, since a form of a + bw has an offset of the
    parity of a^2 - ab + b^2.

    The word is in normal form: its pieces are, and words.join merges at
    their junctions.  Of all pairs of forms, the one of least letters in
    all is taken.  The count takes in a form's own merges and, with no
    second coordinate, the merge of a last N^x of the first with the first
    commutator's N; when that merge cancels, the merges it exposes go
    uncounted, and the word is shorter than counted.  Ties go to the first
    pair with each coordinate's forms in order of letters, equal ones in a
    fixed order that lists N^a before and after B^-2 N^b B^2 first.  Those
    two forms are candidates, so no word is longer than with them alone,
    and the vertical part costs O(sqrt|t|) letters.  Each coordinate's
    forms and each t's commutators are memoized on first use, in bounded
    caches.
    """
    tr = HeisenbergTranslation(*tau, k)
    return Word(_translation_items([], tr.tau1.a, tr.tau1.b, tr.tau2.a,
                                   tr.tau2.b, k))


def _translation_items(items, a1, b1, a2, b2, k) -> list:
    """items, a list in normal form, joined with those of
    decompose_translation((a1 + b1 w, a2 + b2 w), k), from the ints alone;
    returns items.  The forms, the A wrapper and the commutators are each
    in normal form, so words.join merges only where they meet items and
    where the commutators meet a last N^x of a lone first coordinate, and
    items stays in normal form."""
    # Each coordinate's forms come in order of letters, so a pair costing
    # no less than the best total ends its loop: commutators cost more than
    # the N^x N^c merge saves.  A zero second coordinate has the one empty
    # form, and only then does a last N^x of the first meet the commutators.
    second = _coordinate_forms(a2, b2)
    best = None
    for n1, o1, x, w1 in _coordinate_forms(a1, b1):
        if best is not None and n1 + second[0][0] >= best:
            break
        for n2, o2, _, w2 in second:
            if best is not None and n1 + n2 >= best:
                break
            v = (k - o1 - o2) // 2
            n, vertical = _commutators(v)
            n += n1 + n2
            if x and vertical and not w2:  # the merge of N^x with N^c
                c = vertical[0][1]
                n -= abs(x) + abs(c) - abs(x + c)
            if best is None or n < best:
                best, t, f1, f2 = n, v, w1, w2
    join(items, f1 + _A + f2 + _A if f2 else f1)
    return join(items, _commutators(t)[1])


# One coordinate's hexagonal directions d = p + qw as (p, q, c, s): x steps
# along d are B^c N^(s x) B^-c, the translation T(x d, s x).
_DIRECTIONS = ((1, 0, 0, 1), (0, 1, -2, 1), (0, 1, 1, -1), (1, 1, -1, 1))
# A form writes a coordinate along two directions, in the order given;
# N and B^-2 N B^2 come first.
_FORMS = ((0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0), (2, 3), (3, 2),
          (1, 3), (3, 1))
# The A wrapper and R, as normalize writes them.
_A, _R = (normalize(Word(((c, 1),))).items for c in "AR")


@lru_cache(maxsize=1024)
def _coordinate_forms(a: int, b: int) -> tuple:
    """The forms of the coordinate a + bw that can win, in order of letters
    (then of _FORMS): of those with the same offset and tail, the first of
    least letters."""
    forms = {}
    for i, j in _FORMS:
        form = _form(a, b, i, j)
        key = form[1:3]
        if key not in forms or form[0] < forms[key][0]:
            forms[key] = form
    return tuple(sorted(forms.values(), key=lambda form: form[0]))


def _form(a: int, b: int, i: int, j: int) -> tuple:
    """The coordinate a + bw along the directions i, then j, as
    (letters, offset, tail, items): the items, in normal form, make
    T(a + bw, offset), and tail is the exponent of a last N, else 0."""
    pi, qi, ci, si = _DIRECTIONS[i]
    pj, qj, cj, sj = _DIRECTIONS[j]
    # x d_i + y d_j = a + bw, and det = +-1 is its own inverse.
    det = pi * qj - pj * qi
    x, y = (a * qj - b * pj) * det, (b * pi - a * qi) * det
    word = normalize(Word((("B", ci), ("N", si * x), ("B", -ci),
                           ("B", cj), ("N", sj * y), ("B", -cj))))
    tail = word.items[-1][1] if word.items and word.items[-1][0] == "N" else 0
    return word.letters(), si * x + sj * y - det * x * y, tail, word.items


@lru_cache(maxsize=1024)
def _commutators(t: int) -> tuple:
    """(letters, items) of decompose_translation's vertical part for t: the
    commutators [N^a, B N^b B^-1] of pairs (a, b) with sum(a*b) = t."""
    if not t:
        return 0, ()
    pair, rest = (t, 1), (0, ())  # the single commutator [N^t, B N B^-1]
    if not -4 < t < 4:  # no split beats it below 4
        a = isqrt(abs(t))
        b = (2 * t + a) // (2 * a)  # |t - ab| <= a/2
        split = _commutators(t - a * b)
        if split[0] + 2 * (a + abs(b)) + 4 < 2 * abs(t) + 6:
            pair, rest = (a, b), split
    a, b = pair
    items = normalize(Word((("N", a), ("B", 1), ("N", b), ("B", -1),
                            ("N", -a), ("B", 1), ("N", -b), ("B", -1)))).items
    return rest[0] + 2 * (abs(a) + abs(b)) + 4, items + rest[1]


_UNIT_EXPONENT = {pair: d for d, pair in enumerate(MU_PAIRS)}  # mu^d -> d


def _twist(t1a, t1b, t2a, t2b, d1, d2, anti) -> tuple:
    """The ints of u tau, for tau = (t1a + t1b w, t2a + t2b w) and u the
    rotation of state (d1, d2, anti) of hermitian.STATE_OF, exponents mod 6:
    (mu^d1 tau1, mu^d2 tau2), or (mu^d2 tau2, mu^d1 tau1) if anti."""
    if anti:
        t1a, t1b, t2a, t2b = t2a, t2b, t1a, t1b
        d1, d2 = d2, d1
    (p, q), (r, s) = MU_PAIRS[d1 % 6], MU_PAIRS[d2 % 6]
    # (p + qw)(c + dw) = (pc - qd) + (pd + qc - qd)w
    return (p * t1a - q * t1b, p * t1b + q * (t1a - t1b),
            r * t2a - s * t2b, r * t2b + s * (t2a - t2b))


def _times(u: tuple, v: tuple) -> tuple:
    """The state of u v, for rotations u and v given by their states:
    column j of u v is u applied to column j of v."""
    d1, d2, anti = u
    e1, e2, flip = v
    if flip:
        d1, d2 = d2, d1
    return (d1 + e1) % 6, (d2 + e2) % 6, anti != flip


def _strip(items: list, d1, d2, anti) -> tuple:
    """Pop the trailing A and B items of items, up to an N or an R, into
    the rotation u of state (d1, d2, anti): returns the state of their
    product times u.  Each popped item multiplies on the left: B^e scales
    row 1, which holds column 1's entry, or column 2's if anti, and A
    swaps the rows."""
    while items and items[-1][0] in "AB":
        gen, e = items.pop()
        if gen == "A":
            anti = not anti
        elif anti:
            d2 += e
        else:
            d1 += e
    return d1 % 6, d2 % 6, anti


# Starting norms |g41|^2 of more bits than this take _decompose's lean
# path.  Below it, carrying columns 2-4 through the few rounds costs less
# than the two products that replace them.
_LEAN_BITS = 100


def _decompose(g: GroupMatrix) -> tuple:
    """decompose's work: (result, rounds, stabilizer), with each round as
    _round's 7-int record and the stabilizer's fields as stabilizer_ints
    returns them for g_n, its rotation a state.

    If the rounds give g_n = R N_n ... R N_1 g, then
    g = prod_i [N_(-tau_i, -k_i) R] * g_n, and g_n splits as
    unit * translation * rotation.  Pulling the unit to the front twists
    each round's translation to T(sigma_i, -k_i), sigma_i = -lam tau_i,
    and everything right of the unit is a word in the generators: the
    prefix, each round's translation word W(sigma_i) then R, and the tail,
    the stabilizer's translation and rotation.  A rotation u commutes
    with R and carries a translation across as u T(sigma, k) =
    T(u sigma, k) u.  So each round's trailing A and B items are popped
    into a carried rotation u, held as _strip's state, which moves right:
    the next round writes W(u sigma) for W(sigma), the twist by -lam being
    the scalar case of the same one.  The tail's translation is twisted by
    u too, its own trailing items are popped (never past the prefix, which
    ends in R), and u times the stabilizer's rotation, by _times on their
    states, keys one word of ROTATION_WORDS.  Each piece is in normal
    form, and words.join merges at every junction, so the word is
    assembled in normal form, each R in it first or after an N.

    The rounds read only g's column 1.  When n = |g41|^2 has at most
    _LEAN_BITS bits, they carry all of g, the stabilizer is read from g_n
    and twisted by u, and the result is verified against g by verify.
    Above it, the lean path: the rounds carry column 1 alone, which is
    (lam, 0, 0, 0) at n = 0, and head = evaluate(prefix, lam) is the one
    product of the rounds formed.  The stabilizer is read from head^-1 g,
    which is u g_n without its unit, so it comes twisted, as
    T(u tau, k) Rot(u u_s); g_n's own fields are untwisted from it by
    u^-1.  head * evaluate(tail) == g is the self-verify.  That is
    evaluate(word, lam) == g taken at one split: a round after the first
    never has a trivial translation (its R would undo the one before and
    bring n back), so the prefix ends in R, and the tail never starts
    with R, so join appends it whole.

    A failure of the rounds, of column 1 at n = 0, of the stabilizer read
    or of the self-verify raises InternalError, with steps set to the
    ReductionSteps of the rounds done before it.
    """
    rounds = []
    flat = g.flat
    n = norm(flat[6], flat[7])  # |g41|^2
    lean = n.bit_length() > _LEAN_BITS
    if lean:
        flat = flat[:8]
    try:
        while n:
            flat, record = _round(flat, n)
            rounds.append(record)
            n = record[6]
        la, lb, a2, b2, a3, b3 = flat[0:6]  # (lam, 0, 0, 0) at n = 0
        d = _UNIT_EXPONENT.get((la, lb))
        if a2 or b2 or a3 or b3 or d is None:
            raise InternalError(f"column 1 at n = 0 is {flat[0:8]}, not "
                                f"(lam, 0, 0, 0) with lam a unit")
        # Round i contributes W(u sigma_i), -lam = mu^(d + 3), then R.
        items, u, d = [], (0, 0, False), d + 3
        for r1a, r1b, r2a, r2b, rk, _, _ in rounds:
            d1, d2, anti = u
            _translation_items(items, *_twist(r1a, r1b, r2a, r2b, d1 + d,
                                              d2 + d, anti), -rk)
            u = _strip(items, *u)
            items += _R  # after an N, or first
        unit, split = EisensteinInt(la, lb), len(items)
        if lean:
            head = evaluate(Word(items), unit)
            flat = (head.inverse() * g).flat
        try:
            _, _, t1a, t1b, t2a, t2b, k, state = stabilizer_ints(flat)
        except ShapeError as exc:
            raise InternalError(f"the reduced element is not a stabilizer: "
                                f"{exc}") from None
        if lean:  # g_n's own fields, untwisted by u^-1
            d1, d2, anti = u
            v = (-d2, -d1, True) if anti else (-d1, -d2, False)
            stabilizer = (*_twist(t1a, t1b, t2a, t2b, *v), k, _times(v, state))
        else:
            stabilizer = (t1a, t1b, t2a, t2b, k, state)
            t1a, t1b, t2a, t2b = _twist(t1a, t1b, t2a, t2b, *u)
            state = _times(u, state)
        _translation_items(items, t1a, t1b, t2a, t2b, k)
        join(items, ROTATION_WORDS[_strip(items, *state)].items)
        result = DecompositionResult(unit=unit, word=Word(items))
        if not (head * evaluate(Word(items[split:])) == g if lean
                else verify(g, result)):
            raise InternalError("decomposition failed self-verification")
    except InternalError as exc:
        exc.steps = _steps(rounds)
        raise
    return result, rounds, (la, lb, *stabilizer)


def _steps(rounds: list) -> tuple[ReductionStep, ...]:
    """_round's records as ReductionSteps."""
    return tuple(ReductionStep((EisensteinInt(a, b), EisensteinInt(c, d)), k, n, n_after)
                 for a, b, c, d, k, n, n_after in rounds)


def decompose_traced(g: GroupMatrix) -> tuple[DecompositionResult, ReductionTrace]:
    """decompose, with the step-by-step reduction record: the rounds'
    ReductionSteps and the stabilizer's HeisenbergParam.  An InternalError
    leaves with steps set to the rounds done before it."""
    result, rounds, stabilizer = _decompose(g)
    return result, ReductionTrace(steps=_steps(rounds),
                                  stabilizer=HeisenbergParam.from_ints(*stabilizer))


def decompose(g: GroupMatrix) -> DecompositionResult:
    """unit_correction(unit) * word == g, the word in normal form and
    verified against g; decompose_traced's result without the records."""
    return _decompose(g)[0]


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

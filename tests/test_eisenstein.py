"""Ring arithmetic, embeddings, and hexagonal rounding.

Rounding is checked against a brute force, and the corner lemma that
makes the round's search exhaustive on entries up to 2^70, with exact
ties, over integer and Z[w] denominators and on the diagonal where both
unit triangles hold the point: the nearest lattice point and every one
within sqrt(2/3) are among lattice_corners' three."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fraction_pairs import div, qw
from picard31.decomposer import random_element
from picard31.eisenstein import (OMEGA, ONE, UNITS, ZERO, EisensteinInt,
                                 lattice_corners, round_nearest)
from picard31.hermitian import image_of_infinity
from picard31.words import evaluate


def to_complex(x):
    """x = a + b w as a complex float, with w = (-1 + i sqrt(3))/2."""
    return complex(x.a - x.b / 2, x.b * 3 ** 0.5 / 2)


def rand_int(rng, span=50):
    return EisensteinInt(rng.randint(-span, span), rng.randint(-span, span))


def test_omega_relations():
    # w^2 = -1 - w, w^3 = 1, 1 + w + w^2 = 0.
    assert OMEGA * OMEGA == EisensteinInt(-1, -1)
    assert OMEGA ** 3 == ONE
    assert ONE + OMEGA + OMEGA * OMEGA == ZERO
    assert (ONE + OMEGA) ** 2 == OMEGA


def test_ring_axioms():
    rng = random.Random(1)
    for _ in range(300):
        x, y, z = rand_int(rng), rand_int(rng), rand_int(rng)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x and x * ONE == x
        assert x - x == ZERO and x + (-x) == ZERO


def test_mul_matches_complex_embedding():
    rng = random.Random(2)
    for _ in range(200):
        x, y = rand_int(rng, 20), rand_int(rng, 20)
        got = to_complex(x * y)
        want = to_complex(x) * to_complex(y)
        assert abs(got - want) < 1e-6


def test_conj_and_norm():
    assert EisensteinInt(2, 5).conj() == EisensteinInt(-3, -5)
    assert EisensteinInt(2, 1).norm() == 3
    rng = random.Random(3)
    for _ in range(300):
        x, y = rand_int(rng), rand_int(rng)
        # Conjugation is a ring automorphism and norm = x * conj(x).
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert x * x.conj() == EisensteinInt(x.norm())
        assert (x * y).norm() == x.norm() * y.norm()
        assert x.conj().conj() == x


def test_units():
    assert len(UNITS) == 6
    assert len(set(UNITS)) == 6
    for u in UNITS:
        assert u.is_unit()
        assert u * u.unit_inverse() == ONE
        assert u ** -1 == u.unit_inverse()
        assert u ** 6 == ONE
    # The units are closed under multiplication.
    for u in UNITS:
        for v in UNITS:
            assert u * v in UNITS
    assert not EisensteinInt(2, 1).is_unit()
    with pytest.raises(ZeroDivisionError):
        EisensteinInt(2, 1).unit_inverse()
    with pytest.raises(ZeroDivisionError):
        EisensteinInt(2, 1) ** -2


def test_pow_matches_repeated_product():
    rng = random.Random(4)
    for _ in range(50):
        x = rand_int(rng, 5)
        acc = ONE
        for e in range(8):
            assert x ** e == acc
            acc = acc * x


def test_scalar_mul():
    x = EisensteinInt(3, -2)
    assert 2 * x == x * 2 == EisensteinInt(6, -4)
    assert -1 * x == -x
    # An int scales from either side, a bool as the int it is; a float from
    # neither.
    assert True * x == x * True == x
    with pytest.raises(TypeError):
        2.5 * x
    with pytest.raises(TypeError):
        x * 2.5


def test_int_equality():
    assert EisensteinInt(7, 0) == 7
    assert EisensteinInt(7, 1) != 7
    assert ZERO == 0 and not bool(ZERO) and bool(ONE)
    # Equal objects hash equal, so an int and its EisensteinInt are one
    # set or dict key.
    assert hash(EisensteinInt(7, 0)) == hash(7)
    assert 7 in {EisensteinInt(7, 0)}
    assert EisensteinInt(3) in {3} and len({EisensteinInt(3), 3}) == 1


# The three tests below keep the names of the tests of the former
# fraction-field type; they now check the integer forms that replaced it.
def test_frac_canonicalization():
    # round_nearest(num, den) depends on num/den only, so it needs no gcd
    # reduction: scaling both by c changes neither the point nor the
    # tie-break, also at the tie points 1/2, (1+w)/2 and (1+2w)/3.
    rng = random.Random(7)
    cases = [(ONE, 2), (EisensteinInt(1, 1), 2), (EisensteinInt(1, 2), 3)]
    cases += [(rand_int(rng, 40), rng.randint(1, 12)) for _ in range(200)]
    for num, den in cases:
        want = round_nearest(num, den)
        for c in range(1, 7):
            assert round_nearest(num * c, den * c) == want
    with pytest.raises(ZeroDivisionError):
        round_nearest(ONE, 0)


def test_frac_field_ops():
    # image_of_infinity's integer form (c1, c2, c3, n) is g_i1 / g41, checked
    # against division in the fraction field.
    seed = 5000
    count = 0
    while count < 200:
        g = evaluate(random_element(seed, 25))
        seed += 1
        if g.fixes_infinity():
            continue
        *cs, n = image_of_infinity(g)
        assert n >= 1
        g41 = qw(g.rows[3][0])
        for i, c in enumerate(cs):
            want = div(qw(g.rows[i][0]), g41)
            assert (Fraction(c.a, n), Fraction(c.b, n)) == want
        count += 1


def test_frac_re_im():
    # Re(c/n) = (2a - b)/(2n) for c = a + b w, the form the cone check uses.
    rng = random.Random(6)
    for _ in range(200):
        c, n = rand_int(rng, 12), rng.randint(1, 9)
        re = Fraction(2 * c.a - c.b, 2 * n)
        assert abs(float(re) - (to_complex(c) / n).real) < 1e-9
    c = EisensteinInt(1, 2)  # 1 + 2w = i sqrt(3)
    assert Fraction(2 * c.a - c.b, 2 * 2) == 0
    assert abs(to_complex(c) / 2 - 0.5j * 3 ** 0.5) < 1e-9


def brute_nearest(num, den):
    """Nearest lattice point to num/den by scanning a window around the
    coordinates, lex-smallest on ties, with the integer distance
    N(num - cand * den) = den^2 |num/den - cand|^2."""
    p0 = num.a // den
    q0 = num.b // den
    best = None
    best_dist = None
    for p in range(p0 - 2, p0 + 3):
        for q in range(q0 - 2, q0 + 3):
            cand = EisensteinInt(p, q)
            d = (num - cand * den).norm()
            if best_dist is None or d < best_dist:
                best, best_dist = cand, d
    return best, best_dist


def test_round_nearest_fixed_cases():
    # Center of the edge between 0 and 1: tie, lex-smallest wins.
    assert round_nearest(ONE, 2) == ZERO
    # Center of the long diagonal 0 .. 1+w: again a tie resolved to 0.
    assert round_nearest(EisensteinInt(1, 1), 2) == ZERO
    assert round_nearest(EisensteinInt(-7, 3), 1) == EisensteinInt(-7, 3)


def test_round_nearest_against_brute_force():
    rng = random.Random(8)
    for _ in range(500):
        num, den = rand_int(rng, 60), rng.randint(1, 40)
        got = round_nearest(num, den)
        dist = (num - got * den).norm()
        want, want_dist = brute_nearest(num, den)
        assert dist == want_dist
        assert got == want
        # Covering radius of the hexagonal lattice: |z - u|^2 <= 1/3.
        assert 3 * dist <= den * den


def test_round_nearest_integral_points():
    rng = random.Random(9)
    for _ in range(100):
        x = rand_int(rng, 30)
        assert round_nearest(x, 1) == x


def _coeffs(span):
    return st.integers(-span, span)


# Generic points num/den, and exact tie points: the midpoint (2u + v)/2 of
# two neighbours u, u + v (a cell-edge midpoint, two nearest points), and
# the deep holes (3u + 2 + w)/3 and (3u + 1 + 2w)/3 (three nearest points),
# each scaled by c to an unreduced fraction.
_GENERIC = st.tuples(st.builds(EisensteinInt, _coeffs(10 ** 6), _coeffs(10 ** 6)),
                     st.integers(1, 10 ** 4), st.just(1))
_EDGE = st.builds(
    lambda u, v, c: ((u * 2 + v) * c, 2 * c, 2),
    st.builds(EisensteinInt, _coeffs(10 ** 6), _coeffs(10 ** 6)),
    st.sampled_from(UNITS), st.integers(1, 50))
_HOLE = st.builds(
    lambda u, h, c: ((u * 3 + h) * c, 3 * c, 3),
    st.builds(EisensteinInt, _coeffs(10 ** 6), _coeffs(10 ** 6)),
    st.sampled_from((EisensteinInt(2, 1), EisensteinInt(1, 2))),
    st.integers(1, 50))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(_GENERIC, _EDGE, _HOLE))
def test_round_nearest_minimizes_property(case):
    num, den, ties = case
    got = round_nearest(num, den)
    p0, q0 = num.a // den, num.b // den
    window = [EisensteinInt(p, q) for p in range(p0 - 2, p0 + 3)
              for q in range(q0 - 2, q0 + 3)]
    dists = {u: (num - u * den).norm() for u in window}
    best = min(dists.values())
    minimizers = [u for u in window if dists[u] == best]
    assert dists[got] == best
    # Lex-smallest coefficient pair among the minimizers; the window is
    # built in lex order.
    assert got == minimizers[0]
    assert len(minimizers) >= ties


# The corner lemma behind translation_data's exhaustive search, on entries
# up to 2^70: generic points, the exact ties above (cell-edge midpoints,
# deep holes) with numerator and denominator scaled by up to 2^70, lattice
# points, and points on the diagonal of their parallelogram.
_BIG = 2 ** 70
_BIG_ZW = st.builds(EisensteinInt, _coeffs(_BIG), _coeffs(_BIG))
_BIG_GENERIC = st.tuples(_BIG_ZW, st.integers(1, _BIG))
_BIG_EDGE = st.builds(lambda u, v, c: ((u * 2 + v) * c, 2 * c),
                      _BIG_ZW, st.sampled_from(UNITS), st.integers(1, _BIG))
_BIG_HOLE = st.builds(
    lambda u, h, c: ((u * 3 + h) * c, 3 * c), _BIG_ZW,
    st.sampled_from((EisensteinInt(2, 1), EisensteinInt(1, 2))),
    st.integers(1, _BIG))
_BIG_INTEGRAL = st.tuples(_BIG_ZW, st.just(1))
# u + t (1 + w) / d with 0 <= t < d lies on the diagonal from (p0, q0) to
# (p0 + 1, q0 + 1): z's fractional coefficients are equal, and both unit
# triangles of the parallelogram hold z.
_BIG_DIAGONAL = st.builds(lambda u, t, d: (u * d + EisensteinInt(t % d, t % d), d),
                          _BIG_ZW, st.integers(0, _BIG), st.integers(1, _BIG))


def _check_corners(num, den, p0, q0):
    """The corner lemma for z = num/den, den in Z[w] nonzero, whose floor
    (coefficient by coefficient) is p0 + q0 w: the three corners of the
    unit triangle holding z, in the order (p0, q0), the side corner,
    (p0 + 1, q0 + 1); their distances N(num - u den) and the w-coefficients
    of conj(u) num conj(den); the parallelogram's fourth corner at
    |z - u|^2 >= 3/4; and the nearest point of the 7x7 window and every
    point of it with 3 N(num - u den) <= 2 N(den) among the corners, 1 to
    3 of the latter."""
    n = den.norm()
    z = num * den.conj()
    # n times z's fractional coefficients; the side corner is (p0 + 1, q0)
    # when x >= y, either triangle holding z on the diagonal x == y.
    x, y = z.a - p0 * n, z.b - q0 * n
    assert 0 <= x < n and 0 <= y < n
    side, fourth = (p0 + 1, q0), (p0, q0 + 1)
    if x < y:
        side, fourth = fourth, side
    corners = lattice_corners(num.a, num.b, den.a, den.b, n)
    assert [(p, q) for _, p, q, _ in corners] == [
        (p0, q0), side, (p0 + 1, q0 + 1)]
    for dist, p, q, cross in corners:
        u = EisensteinInt(p, q)
        assert dist == (num - u * den).norm()
        assert cross == (u.conj() * num * den.conj()).b
    assert 4 * (num - EisensteinInt(*fourth) * den).norm() >= 3 * n
    window = [EisensteinInt(p, q) for p in range(p0 - 3, p0 + 4)
              for q in range(q0 - 3, q0 + 4)]
    dists = {(u.a, u.b): (num - u * den).norm() for u in window}
    nearest = min(dists.values())
    points = {(p, q) for _, p, q, _ in corners}
    assert {u for u, dist in dists.items() if dist == nearest} <= points
    admissible = {u for u, dist in dists.items() if 3 * dist <= 2 * n}
    assert admissible <= points
    assert 1 <= len(admissible) <= 3


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(_BIG_GENERIC, _BIG_EDGE, _BIG_HOLE, _BIG_INTEGRAL,
                 _BIG_DIAGONAL))
def test_lattice_corners_hold_every_admissible_point(case):
    # An integer denominator d, passed as d + 0w: the corners sit at the
    # floors of num.a / d and num.b / d.
    num, den = case
    _check_corners(num, EisensteinInt(den), num.a // den, num.b // den)


# The same over Z[w] denominators: the ties, lattice points and diagonal
# points above with the scale c any nonzero element of Z[w], large or
# small (units among them).
_DEN = st.one_of(_BIG_ZW, st.builds(EisensteinInt, _coeffs(3), _coeffs(3))
                 ).filter(bool)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(
    st.tuples(_BIG_ZW, _DEN),
    st.builds(lambda u, v, c: ((u * 2 + v) * c, c * 2),
              _BIG_ZW, st.sampled_from(UNITS), _DEN),
    st.builds(lambda u, h, c: ((u * 3 + h) * c, c * 3), _BIG_ZW,
              st.sampled_from((EisensteinInt(2, 1), EisensteinInt(1, 2))),
              _DEN),
    st.builds(lambda u, c: (u * c, c), _BIG_ZW, _DEN),
    st.builds(lambda z, c: (z[0] * c, c * z[1]), _BIG_DIAGONAL, _DEN)))
def test_lattice_corners_over_eisenstein_denominators(case):
    # The corners sit at the floors of num conj(den) / N(den).
    num, den = case
    z, n = num * den.conj(), den.norm()
    _check_corners(num, den, z.a // n, z.b // n)


"""Ring arithmetic, embeddings, and hexagonal rounding."""

import random
from fractions import Fraction

import pytest

from picard31.eisenstein import (OMEGA, ONE, UNITS, ZERO, EisensteinFrac,
                                 EisensteinInt, round_nearest)


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
        got = (x * y).to_complex()
        want = x.to_complex() * y.to_complex()
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


def test_int_equality():
    assert EisensteinInt(7, 0) == 7
    assert EisensteinInt(7, 1) != 7
    assert ZERO == 0 and not bool(ZERO) and bool(ONE)


def test_frac_canonicalization():
    z = EisensteinFrac(EisensteinInt(2, 4), -6)
    assert z.den > 0
    assert z == EisensteinFrac(EisensteinInt(-1, -2), 3)
    assert EisensteinFrac(EisensteinInt(6, 3), 3) == EisensteinFrac(EisensteinInt(2, 1))
    with pytest.raises(ZeroDivisionError):
        EisensteinFrac(ONE, 0)


def test_frac_field_ops():
    rng = random.Random(5)
    for _ in range(200):
        x = EisensteinFrac(rand_int(rng, 12), rng.randint(1, 9))
        y = EisensteinFrac(rand_int(rng, 12), rng.randint(1, 9))
        assert x + y - y == x
        assert x * y == y * x
        if not y.is_zero():
            assert (x / y) * y == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert x.norm() == (x * x.conj()).re_im()[0]
        assert x.norm() >= 0


def test_frac_re_im():
    rng = random.Random(6)
    for _ in range(200):
        x = EisensteinFrac(rand_int(rng, 12), rng.randint(1, 9))
        re, im = x.re_im()
        approx = complex(float(re), float(im) * 3 ** 0.5)
        assert abs(approx - x.num.to_complex() / x.den) < 1e-9
    re, im = EisensteinFrac(EisensteinInt(1, 2), 2).re_im()
    assert re == Fraction(0) and im == Fraction(1, 2)


def brute_nearest(z):
    """Nearest lattice point by scanning a window around the coordinates,
    lex-smallest on ties."""
    p0 = z.num.a // z.den
    q0 = z.num.b // z.den
    best = None
    best_dist = None
    for p in range(p0 - 2, p0 + 3):
        for q in range(q0 - 2, q0 + 3):
            cand = EisensteinInt(p, q)
            d = (z - EisensteinFrac(cand)).norm()
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
    third = Fraction(1, 3)
    for _ in range(500):
        z = EisensteinFrac(rand_int(rng, 60), rng.randint(1, 40))
        got = round_nearest(z.num, z.den)
        dist = (z - EisensteinFrac(got)).norm()
        want, want_dist = brute_nearest(z)
        assert dist == want_dist
        assert got == want
        # Covering radius of the hexagonal lattice.
        assert dist <= third


def test_round_nearest_integral_points():
    rng = random.Random(9)
    for _ in range(100):
        x = rand_int(rng, 30)
        assert round_nearest(x, 1) == x

"""Acceptance gate: every deliverable property, one printed line each.

Each check prints "criterion N (<label>): PASS (<time>)" or a FAIL line
through the disabled-capture channel so the verdicts are visible in the
normal pytest run.  All comparisons are exact; the only tolerances are the
stated wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager

from picard31.eisenstein import (OMEGA, ONE, ZERO, EisensteinInt,
                                 round_nearest)
from picard31.finite_unitary import U1, U2, enumerate_group, word_table
from picard31.hermitian import (HeisenbergTranslation, check_membership,
                                identity, image_of_infinity, inversion,
                                rotation_matrix, translation_matrix)
from picard31.decomposer import (decompose_translation, random_element,
                                 reduction_step, step_bound,
                                 translation_data, verify)
from picard31.words import evaluate, parse


@contextmanager
def criterion(capsys, number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_01_generators(capsys):
    with criterion(capsys, 1, "generator validity and orders"):
        n1 = translation_matrix((ONE, ZERO), 1)
        a = rotation_matrix(U1)
        b = rotation_matrix(U2)
        r = inversion()
        for g in (n1, a, b, r):
            assert check_membership(g.rows)
        assert a * a == identity()
        assert r * r == identity()
        assert b ** 6 == identity()
        for j in range(1, 6):
            assert b ** j != identity()
        for j in range(1, 13):
            assert n1 ** j != identity()
            assert n1 ** -j != identity()


def test_criterion_02_rotation_subgroup(capsys):
    with criterion(capsys, 2, "72-element rotation subgroup closure"):
        start = time.perf_counter()
        group = enumerate_group()
        table = word_table()
        assert len(group) == 72
        assert len(table) == 72
        assert set(table) == set(group)
        for u, word in table.items():
            assert evaluate(word) == rotation_matrix(u)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_reduction_invariants(capsys):
    with criterion(capsys, 3, "10000 reduction steps hold the invariants"):
        start = time.perf_counter()
        steps = 0
        seed = 1000
        while steps < 10000:
            g = evaluate(random_element(seed, 40))
            seed += 1
            count = 0
            n0 = None
            while not g.fixes_infinity():
                if n0 is None:
                    n0 = g.rows[3][0].norm()
                # i1 = s / (2 n) <= 1/3 and |e + k| = |zb + k n| / n <= 1.
                tau, k, s, zb, n = translation_data(g)
                assert 3 * s <= 2 * n
                assert abs(zb + k * n) <= n
                g, step = reduction_step(g)
                assert 36 * step.n_after <= 31 * step.n_before
                count += 1
            if n0 is not None:
                assert count <= step_bound(n0) + 1
            steps += count
        assert time.perf_counter() - start < 60.0


def test_criterion_04_round_trip(capsys, corpus7):
    with criterion(capsys, 4, "1000 random words round-trip exactly"):
        start = time.perf_counter()
        for g, (result, _) in zip(corpus7.matrices, corpus7.results):
            assert verify(g, result)
        check_time = time.perf_counter() - start
        assert corpus7.elapsed + check_time < 300.0


def test_criterion_05_step_bound(capsys, corpus7):
    with criterion(capsys, 5, "step count within the contraction bound"):
        for _, trace in corpus7.results:
            if trace.steps:
                n0 = trace.steps[0].n_before
                assert len(trace.steps) <= step_bound(n0) + 1


def test_criterion_06_rounding(capsys):
    with criterion(capsys, 6, "10000 nearest-lattice-point roundings"):
        start = time.perf_counter()
        rng = random.Random(600)
        for _ in range(10000):
            den = rng.randint(1, 1000)
            num = EisensteinInt(rng.randint(-3000, 3000),
                                rng.randint(-3000, 3000))
            got = round_nearest(num, den)
            # den^2 |z - u|^2 for z = num/den, exactly, in integers.
            dist = (num - got * den).norm()
            # Brute-force window oracle around the coordinatewise floor.
            p0 = num.a // den
            q0 = num.b // den
            best = min(
                (num - EisensteinInt(p, q) * den).norm()
                for p in range(p0 - 2, p0 + 3)
                for q in range(q0 - 2, q0 + 3))
            assert dist == best
            # Covering radius: |z - u|^2 <= 1/3.
            assert 3 * dist <= den * den
        assert time.perf_counter() - start < 60.0


def test_criterion_07_identity_suite(capsys):
    with criterion(capsys, 7, "generator identities"):
        assert evaluate(parse("A N A")) == translation_matrix((ZERO, ONE), 1)
        assert evaluate(parse("B^-2 N B^2")) == translation_matrix(
            (OMEGA, ZERO), 1)
        comm = evaluate(parse("N B N B^-1 N^-1 B N^-1 B^-1"))
        assert comm == translation_matrix((ZERO, ZERO), 2)


def test_criterion_08_heisenberg_composition(capsys):
    with criterion(capsys, 8, "1000 Heisenberg compositions match matrices"):
        rng = random.Random(800)

        def sample():
            t1 = EisensteinInt(rng.randint(-6, 6), rng.randint(-6, 6))
            t2 = EisensteinInt(rng.randint(-6, 6), rng.randint(-6, 6))
            m = t1.norm() + t2.norm()
            k = rng.choice([k for k in range(-12, 13) if (k - m) % 2 == 0])
            return HeisenbergTranslation(t1, t2, k)

        for _ in range(1000):
            x, y = sample(), sample()
            assert x.compose(y).matrix() == x.matrix() * y.matrix()


def test_criterion_09_translation_words(capsys):
    with criterion(capsys, 9, "1000 translation words rebuild their matrices"):
        rng = random.Random(900)
        for _ in range(1000):
            t1 = EisensteinInt(rng.randint(-8, 8), rng.randint(-8, 8))
            t2 = EisensteinInt(rng.randint(-8, 8), rng.randint(-8, 8))
            m = t1.norm() + t2.norm()
            k = rng.choice([k for k in range(-20, 21) if (k - m) % 2 == 0])
            word = decompose_translation((t1, t2), k)
            assert evaluate(word) == translation_matrix((t1, t2), k)
            # Independent parity oracle for the vertical residual.
            c = t1.a + t1.b - t1.a * t1.b + t2.a + t2.b - t2.a * t2.b
            assert (k - c) % 2 == 0


def test_criterion_10_boundary_cone(capsys):
    with criterion(capsys, 10, "1000 boundary images satisfy the cone"):
        seed = 2000
        count = 0
        while count < 1000:
            g = evaluate(random_element(seed, 25))
            seed += 1
            if g.fixes_infinity():
                continue
            c1, c2, c3, n = image_of_infinity(g)
            # 2 Re(c1/n) = -|c2/n|^2 - |c3/n|^2, multiplied out by n^2.
            assert (2 * c1.a - c1.b) * n == -(c2.norm() + c3.norm())
            count += 1

"""The reduction algorithm: translation choice, contraction, assembly.

The round's choice is checked against a brute force in Fractions over a
5x5 window per coordinate and every admissible k, and never leaves a
larger norm than the nearest-point rule; skewed choices show its ratio
and contraction checks live, and seeded states pin the ties of its
dominance skip.  decompose's two paths, either side of _LEAN_BITS, agree
and fail alike.  Translation words are exact, never longer than the
yardstick along 1 and w alone, and of O(sqrt|k|) letters; every word
decompose returns is in normal form, each R in it first or after an N,
and the states of the rotation it carries act as their matrices."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from fraction_pairs import add, as_num_den, conj, div, mul, norm, qw, sub
from helpers import fail_third_call
from picard31.eisenstein import (MU_POWERS, OMEGA, ONE, UNITS, ZERO,
                                 EisensteinInt, round_nearest)
from picard31.errors import DomainError, InternalError, ParityError
from picard31.finite_unitary import u_decompose
from picard31.hermitian import (GroupMatrix, identity, inversion,
                                rotation_matrix, translation_matrix,
                                unit_correction)
from picard31 import words
from picard31.decomposer import (_A, _FORMS, _LEAN_BITS, _R, _ROTATION,
                                 _STATE, ReductionStep, _choose, _commutators,
                                 _coordinate_forms, _form, _round, _strip,
                                 _times, _translation_items, _twist, decompose,
                                 decompose_traced, decompose_translation,
                                 langlands_extract, random_element,
                                 random_stabilizer, reduction_step,
                                 step_bound, translation_data, verify)
from picard31.words import (DecompositionResult, Word, evaluate, normalize,
                            parse, serialize)


def non_stabilizers(seed, count, max_len=20):
    rng_seed = seed
    found = 0
    while found < count:
        g = evaluate(random_element(rng_seed, max_len))
        rng_seed += 1
        if not g.fixes_infinity():
            found += 1
            yield g


def test_translation_data_invariants():
    for g in non_stabilizers(100, 200):
        # i1 = s / (2 n) <= 1/3 and |e + k| = |zb + k n| / n <= 1.
        tau, k, s, zb, n = translation_data(g)
        assert all(type(x) is int for x in (s, zb, n))
        assert 3 * s <= 2 * n
        assert abs(zb + k * n) <= n
        # Parity of k agrees with |tau|^2 by construction.
        assert (k - tau[0].norm() - tau[1].norm()) % 2 == 0
        # s is at the scale of g's entries: the round turns rows 2 and 3 of
        # column 1 into -(g21 + tau1 g41) and -(g31 + tau2 g41), and
        # 4 n n' = s^2 + 3 (zb + k n)^2 holds with no factor of n^2.
        out, step = reduction_step(g)
        assert s == out.rows[1][0].norm() + out.rows[2][0].norm()
        assert 4 * n * step.n_after == s * s + 3 * (zb + k * n) ** 2
    # A stabilizer has no finite g(infinity), hence no translation to choose.
    with pytest.raises(DomainError):
        translation_data(identity())


def g_infinity(g):
    """n = |g41|^2 and the coordinates c1, q1, q2 of g(infinity) as pairs
    of fractions, each divided out in the fraction field Q(w)."""
    rows = g.rows
    g41 = qw(rows[3][0])
    return (rows[3][0].norm(), div(qw(rows[0][0]), g41),
            div(qw(rows[1][0]), g41), div(qw(rows[2][0]), g41))


def quality(c1, q1, q2, tau1, tau2):
    """i1 = |q + tau|^2 / 2 and e, the w-coefficient of
    c1 - q1 conj(tau1) - q2 conj(tau2), for the choice tau."""
    i1 = (norm(add(q1, qw(tau1))) + norm(add(q2, qw(tau2)))) / 2
    z = sub(sub(c1, mul(q1, conj(qw(tau1)))), mul(q2, conj(qw(tau2))))
    return i1, z[1]


def nearest_translation_data(g):
    """The nearest-point rule, a yardstick for translation_data's n': each
    coordinate reduced on its own to its nearest lattice point, and k
    chosen by comparing rationals."""
    _, c1, q1, q2 = g_infinity(g)
    tau1 = -round_nearest(*as_num_den(q1))
    tau2 = -round_nearest(*as_num_den(q2))
    i1, e = quality(c1, q1, q2, tau1, tau2)

    m = tau1.norm() + tau2.norm()
    base = math.floor(-e)
    candidates = [k for k in range(base - 3, base + 4) if (k - m) % 2 == 0]
    k = min(candidates, key=lambda c: (abs(e + c), abs(c), c))
    return ((tau1, tau2), k), i1, e


def reference_translation_data(g):
    """Independent reference for translation_data in the fraction field
    Q(w), by brute force: tau_j over the 5x5 lattice window around each
    coordinate and k over every integer of the parity of |tau|^2 within 4
    of -e.  Of the choices with i1 <= 1/3 and |e + k| <= 1 it returns the
    one of least n' = n (i1^2 + (3/4)(e + k)^2); ties go to the smaller
    |k|, then the smaller k, then the lexicographically smallest
    (tau1.a, tau1.b, tau2.a, tau2.b)."""
    n, c1, q1, q2 = g_infinity(g)
    # Both halves of i1 are >= 0, so i1 <= 1/3 needs each half <= 1/3;
    # dropping the other window points first only saves time.
    windows = []
    for q in (q1, q2):
        a0, b0 = math.floor(q[0]), math.floor(q[1])
        lattice = (EisensteinInt(-a, -b) for a in range(a0 - 2, a0 + 3)
                   for b in range(b0 - 2, b0 + 3))
        windows.append([tau for tau in lattice
                        if norm(add(q, qw(tau))) <= Fraction(2, 3)])
    best = None
    for tau1 in windows[0]:
        for tau2 in windows[1]:
            i1, e = quality(c1, q1, q2, tau1, tau2)
            if i1 > Fraction(1, 3):
                continue
            m = tau1.norm() + tau2.norm()
            base = math.floor(-e)
            window = [k for k in range(base - 4, base + 5)
                      if (k - m) % 2 == 0 and abs(e + k) <= 4]
            for k in window:
                if abs(e + k) > 1:
                    continue
                n_after = n * (i1 * i1 + Fraction(3, 4) * (e + k) ** 2)
                key = (n_after, abs(k), k, tau1.a, tau1.b, tau2.a, tau2.b)
                if best is None or key < best[0]:
                    best = key, ((tau1, tau2), k), i1, e
    return best[1:]


def exact_word(seed, length):
    """Seeded word of exactly `length` items, drawn like random_element."""
    rng = random.Random(seed)
    return Word(tuple((rng.choice(tuple("NABR")),
                       rng.choice((-3, -2, -1, 1, 2, 3)))
                      for _ in range(length)))


def test_translation_data_matches_reference():
    words = [random_element(900 + s, 200) for s in range(300)]
    words += [exact_word(1900 + s, 1500) for s in range(4)]
    states = shorter = 0
    for w in words:
        g = evaluate(w)
        while not g.fixes_infinity():
            tau, k, s, zb, n = translation_data(g)
            ref = reference_translation_data(g)
            assert ((tau, k), Fraction(s, 2 * n), Fraction(zb, n)) == ref
            assert n == g.rows[3][0].norm()
            # The paper's rational form of the contraction, on the
            # reference's i1 and e: n' = n (i1^2 + (3/4)(e + k)^2).
            _, i1, e = ref
            (_, near_k), near_i1, near_e = nearest_translation_data(g)
            g, step = reduction_step(g)
            assert step.n_after == n * (i1 * i1
                                        + Fraction(3, 4) * (e + k) ** 2)
            # Never worse than the nearest-point rule, and often better.
            near_n = n * (near_i1 * near_i1
                          + Fraction(3, 4) * (near_e + near_k) ** 2)
            assert step.n_after <= near_n
            shorter += step.n_after < near_n
            states += 1
    assert states > 2000
    assert shorter > states // 10


def test_translation_data_k_tie():
    # g(infinity) has lattice coordinates, so s = 0, and zb = 0 with |tau|^2
    # odd: k = -1 and k = 1 both give |zb + k n| = n, and the smaller k wins.
    g = evaluate(parse("R N^-2 B^2 N^-2 R"))
    tau, k, s, zb, n = translation_data(g)
    assert (s, zb, n, k) == (0, 0, 4, -1)
    assert (tau, k) == reference_translation_data(g)[0]


def test_translation_data_takes_i1_at_its_bound():
    # The paper's bound i1 <= 1/3 includes its end: after one round of this
    # seeded word the best choice has 3 s = 2 n exactly, and a strict
    # bound would take a worse one.
    g = reduction_step(evaluate(random_element(2148, 60)))[0]
    tau, k, s, zb, n = translation_data(g)
    assert (3 * s, n) == (2 * n, 9)
    ref = reference_translation_data(g)
    assert ((tau, k), Fraction(1, 3), Fraction(zb, n)) == ref


@pytest.mark.parametrize("skew", ["s", "zb", "nn+1", "nn-1"])
def test_reduction_ratio_check_is_live(monkeypatch, skew):
    # A _choose whose prediction nn is off must trip the round's integer
    # ratio check, through reduction_step and through decompose; the
    # contraction check alone would not notice.  s or zb is misreported
    # with nn recomputed from it, or nn itself is off by one.
    def skewed(flat, n):
        t1a, t1b, t2a, t2b, k, s, zb, nn = _choose(flat, n)
        if skew in ("s", "zb"):
            s += skew == "s"
            zb += skew == "zb"
            nn = s * s + 3 * (zb + k * n) ** 2
        else:
            nn += 1 if skew == "nn+1" else -1
        return t1a, t1b, t2a, t2b, k, s, zb, nn

    monkeypatch.setattr("picard31.decomposer._choose", skewed)
    for g in non_stabilizers(700, 20):
        with pytest.raises(InternalError, match="predicted ratio"):
            reduction_step(g)
        with pytest.raises(InternalError, match="predicted ratio") as exc:
            decompose(g)
        assert exc.value.steps == ()


def test_reduction_contraction_check_is_live(monkeypatch):
    # k moved by 10 keeps its parity, and s, zb and nn stay true to it, so
    # the ratio identity still holds; only the contraction check can object.
    def far(flat, n):
        t1a, t1b, t2a, t2b, k, s, zb, _ = _choose(flat, n)
        k += 10
        return t1a, t1b, t2a, t2b, k, s, zb, s * s + 3 * (zb + k * n) ** 2

    monkeypatch.setattr("picard31.decomposer._choose", far)
    cases = [evaluate(parse("N^3 R B N^-2 R A N R N^2"))]
    for g in cases + list(non_stabilizers(700, 20)):
        with pytest.raises(InternalError, match="failed to contract"):
            reduction_step(g)
        with pytest.raises(InternalError, match="failed to contract"):
            decompose(g)


@pytest.mark.parametrize("seed, other", [(694, (2, 0, 0, -1, -1)),
                                         (1629, (5, 1, 0, 0, 9))],
                         ids=["tau", "abs_k"])
def test_choose_ties_in_s_and_e_reach_the_tie_break(seed, other):
    # In the first round of these seeded words, the pair `other` is scanned
    # before the choice and has the same s and |zb + k n|, so the same n';
    # the choice wins only on the tie-break (tau for 694, |k| for 1629).
    # _choose skips only pairs the best so far strictly dominates, so a
    # skip of pairs merely equal to it would keep `other`.
    g = evaluate(random_element(seed, 20))
    n = g.rows[3][0].norm()
    t1a, t1b, t2a, t2b, k, s, zb, nn = _choose(g.flat, n)
    tau = (EisensteinInt(t1a, t1b), EisensteinInt(t2a, t2b))
    ref = reference_translation_data(g)
    assert ((tau, k), Fraction(s, 2 * n), Fraction(zb, n)) == ref
    assert nn == s * s + 3 * (zb + k * n) ** 2
    _, c1, q1, q2 = g_infinity(g)
    o1a, o1b, o2a, o2b, ok = other
    i1, e = quality(c1, q1, q2, EisensteinInt(o1a, o1b), EisensteinInt(o2a, o2b))
    assert (i1, abs(e + ok)) == (ref[1], abs(ref[2] + k))
    assert (t1a, t1b, t2a, t2b, k) != other


def test_round_failure_keeps_earlier_steps(monkeypatch):
    # A failure in round 3 under plain decompose leaves the two rounds
    # before it as ReductionSteps, the same as decompose_traced records.
    g = evaluate(random_element(45, 40))
    steps = decompose_traced(g)[1].steps
    assert len(steps) >= 3
    fail_third_call(monkeypatch, "picard31.decomposer._round",
                    "injected round failure")
    with pytest.raises(InternalError, match="injected round failure") as exc:
        decompose(g)
    assert exc.value.steps == steps[:2]
    assert all(type(step) is ReductionStep for step in exc.value.steps)


def test_self_verification_is_live(monkeypatch):
    # A rotation word one item short spoils the assembled word; the
    # self-verification must catch it, with the rounds done attached.
    g = evaluate(parse("N^3 R B N^-2 R A N R N^2"))
    trace = decompose_traced(g)[1]
    steps = trace.steps
    assert steps and u_decompose(trace.stabilizer.u).items
    monkeypatch.setattr("picard31.decomposer.u_decompose",
                        lambda u: Word(u_decompose(u).items[:-1]))
    with pytest.raises(InternalError,
                       match="failed self-verification") as exc:
        decompose_traced(g)
    assert exc.value.steps == steps


def above_the_gate():
    """A member whose starting norm takes _decompose's lean path: 137 bits,
    21 rounds, unit -1 - w and a rotation word of 4 items."""
    g = evaluate(random_element(6, 400))
    assert g.rows[3][0].norm().bit_length() > _LEAN_BITS
    return g


def test_round_failure_keeps_earlier_steps_above_the_gate(monkeypatch):
    # The lean path's rounds carry column 1 alone; a failure in round 3
    # leaves the two rounds before it, as on the full path.
    g = above_the_gate()
    steps = decompose_traced(g)[1].steps
    calls = fail_third_call(monkeypatch, "picard31.decomposer._round",
                            "injected round failure")
    with pytest.raises(InternalError, match="injected round failure") as exc:
        decompose(g)
    assert exc.value.steps == steps[:2]
    assert [len(flat) for flat in calls] == [8, 8, 8]


def test_self_verification_is_live_above_the_gate(monkeypatch):
    # On the lean path the self-verify is head * evaluate(tail) == g; a
    # rotation word one item short spoils the tail, and it must notice.
    g = above_the_gate()
    steps = decompose_traced(g)[1].steps
    monkeypatch.setattr("picard31.decomposer.u_decompose",
                        lambda u: Word(u_decompose(u).items[:-1]))
    with pytest.raises(InternalError,
                       match="failed self-verification") as exc:
        decompose_traced(g)
    assert exc.value.steps == steps


@pytest.mark.parametrize("spoil, message", [
    (inversion(), "not a stabilizer"),  # head^-1 g does not fix infinity
    # head^-1 g fixes infinity, but with a unit the tail leaves out.
    (unit_correction(OMEGA), "failed self-verification"),
], ids=["R", "unit"])
def test_wrong_head_is_an_internal_error(monkeypatch, spoil, message):
    # The lean path's first evaluate is head, the prefix's product; a head
    # off by spoil on the right must end in InternalError with every
    # round attached, never in ShapeError or ValueError.
    g = above_the_gate()
    steps = decompose_traced(g)[1].steps
    calls = []

    def wrong_head(word, unit=ONE):
        calls.append(word)
        value = evaluate(word, unit)
        return value * spoil if len(calls) == 1 else value

    monkeypatch.setattr("picard31.decomposer.evaluate", wrong_head)
    with pytest.raises(InternalError, match=message) as exc:
        decompose(g)
    assert exc.value.steps == steps
    assert calls[0].items[-1][0] == "R"


@pytest.mark.parametrize("spoil", [(2, 0), (1, 0, 1)],
                         ids=["non-unit", "middle-entry"])
def test_lean_column_1_is_checked_at_n_0(monkeypatch, spoil):
    # At n = 0 the lean path reads lam from column 1, which must be
    # (lam, 0, 0, 0) with lam a unit; evaluate would raise ValueError on a
    # non-unit, so the check comes first and raises InternalError.
    g = above_the_gate()
    steps = decompose_traced(g)[1].steps

    def spoiled(flat, n):
        flat, record = _round(flat, n)
        if not record[6]:
            flat = spoil + flat[len(spoil):]
        return flat, record

    monkeypatch.setattr("picard31.decomposer._round", spoiled)
    with pytest.raises(InternalError, match="column 1 at n = 0") as exc:
        decompose(g)
    assert exc.value.steps == steps


def test_lean_and_full_paths_agree(monkeypatch):
    # The gate changes only speed: with every element on the lean path
    # (gate 0) and with none on it, decompose_traced's results and traces
    # are identical, on short and long words, stabilizers, the unit
    # corrections and the inversion, whose one round has no translation.
    members = [evaluate(random_element(seed, 40)) for seed in range(200)]
    members += [evaluate(random_element(seed, 1500)) for seed in range(12)]
    members += [random_stabilizer(seed) for seed in range(50)]
    members += [unit_correction(lam) for lam in UNITS] + [inversion()]
    for g in members:
        outcomes = []
        for bits in (0, 10 ** 9):
            monkeypatch.setattr("picard31.decomposer._LEAN_BITS", bits)
            result, trace = decompose_traced(g)
            outcomes.append((result, trace.to_json()))
        assert outcomes[0] == outcomes[1]


def test_decompose_words_are_in_normal_form():
    # The word is assembled in normal form, with no normalize pass after.
    members = [evaluate(random_element(seed, 40)) for seed in range(2000)]
    members += [evaluate(random_element(seed, 1500)) for seed in range(50)]
    members += [random_stabilizer(seed) for seed in range(200)]
    for g in members:
        word = decompose(g).word
        assert normalize(word) == word


def test_rotation_states_act_as_their_matrices():
    # The carried rotation's state, against the matrices of all 72
    # rotations: _STATE inverts _ROTATION, _twist conjugates a translation
    # as Rot(u) T(tau, k) Rot(u)^-1 = T(u tau, k), _times multiplies, and
    # _strip pops a trailing run of A and B items onto u from the left.
    assert len(_ROTATION) == 72
    assert all(_STATE[u] == state for state, u in _ROTATION.items())
    rot = {state: rotation_matrix(u) for state, u in _ROTATION.items()}
    t = translation_matrix((EisensteinInt(2, -1), EisensteinInt(-3, 1)), 4)
    rng = random.Random(5)
    for state, m in rot.items():
        a1, b1, a2, b2 = _twist(2, -1, -3, 1, *state)
        assert m * t * m.inverse() == translation_matrix(
            (EisensteinInt(a1, b1), EisensteinInt(a2, b2)), 4)
        assert all(rot[_times(state, other)] == m * rot[other]
                   for other in rot)
        run = normalize(Word([(rng.choice("AB"), rng.choice((1, 2, -1)))
                              for _ in range(rng.randint(0, 6))])).items
        items = [("R", 1), ("N", 2), *run]
        popped = _strip(items, *state)
        assert items == [("R", 1), ("N", 2)]
        assert rot[popped] == evaluate(Word(run)) * m


def test_every_r_is_first_or_after_n():
    # Each round's trailing A and B items are carried past its R into the
    # next round's translation, so an R follows an N or starts the word.
    members = [evaluate(random_element(seed, 40)) for seed in range(2000)]
    long_words = [evaluate(exact_word(seed, 1500)) for seed in range(50)]
    assert all(g.rows[3][0].norm().bit_length() > _LEAN_BITS
               for g in long_words)
    members += long_words + [random_stabilizer(seed) for seed in range(200)]
    members += [unit_correction(lam) for lam in UNITS] + [inversion()]
    for g in members:
        items = decompose(g).word.items
        assert all(i == 0 or items[i - 1][0] == "N"
                   for i, item in enumerate(items) if item == ("R", 1)), items


def test_decompose_letters_read_value():
    # The benchmark's letter counter reads (g.value, e) for the items of
    # the words verify evaluates, so every letter of the pieces the word
    # is assembled from must be a words._Letter, as normalize writes it.
    members = [evaluate(random_element(seed, 40)) for seed in range(300)]
    members += [random_stabilizer(seed) for seed in range(50)]
    members += [unit_correction(lam) for lam in UNITS] + [inversion()]
    for g in members:
        items = decompose(g).word.items
        assert [(gen.value, e) for gen, e in items] == list(items)


def test_memoized_pieces_share_the_table_items():
    # The forms, the commutators, A and R come from normalize, so each of
    # their items of |exponent| <= 32 is the token table's own tuple.
    pieces = [form[3] for a in range(-6, 7) for b in range(-6, 7)
              for form in _coordinate_forms(a, b)]
    pieces += [_commutators(t)[1] for t in range(-50, 51)] + [_A, _R]
    for items in pieces:
        for item in items:
            if abs(item[1]) <= 32:
                assert item is words._TOKENS[serialize(Word((item,)))], items


def test_reduction_step_contracts():
    for g in non_stabilizers(300, 100):
        out, step = reduction_step(g)
        assert 36 * step.n_after <= 31 * step.n_before
        assert step.n_before == g.rows[3][0].norm()
        assert step.n_after == out.rows[3][0].norm()
        # The step stays inside the group.
        assert GroupMatrix(out.rows) == out


def test_reduction_step_matches_generic_product():
    # The row-operation kernel against R * N_(tau,k) * g computed by
    # GroupMatrix.__mul__, on every round of each reduction.
    rounds = 0
    for g in non_stabilizers(900, 200, max_len=60):
        while not g.fixes_infinity():
            out, step = reduction_step(g)
            assert out == inversion() * translation_matrix(step.tau, step.k) * g
            g = out
            rounds += 1
    assert rounds > 400


def test_step_bound():
    assert step_bound(1) == 0
    assert step_bound(2) == 5
    for n0 in (1, 2, 3, 10, 1000, 10 ** 12):
        s = step_bound(n0)
        assert 36 ** s >= n0 * 31 ** s
        if s:
            assert 36 ** (s - 1) < n0 * 31 ** (s - 1)


def test_decompose_round_trip():
    rng = random.Random(0)
    for i in range(200):
        w = random_element(500 + i, 25)
        g = evaluate(w)
        res = decompose(g)
        assert verify(g, res)
        assert res.unit in UNITS


def test_verify_rejects_tampered_certificates():
    members = [evaluate(random_element(900 + i, 30)) for i in range(51)]
    for g, other in zip(members, members[1:]):
        res = decompose(g)
        assert verify(g, res)
        for lam in UNITS:
            if lam != res.unit:
                assert not verify(g, DecompositionResult(lam, res.word))
        longer = Word(res.word.items + (("N", 1),))
        assert not verify(g, DecompositionResult(res.unit, longer))
        assert other != g and not verify(other, res)


def test_decompose_fixed_cases():
    from picard31.hermitian import inversion

    res, trace = decompose_traced(inversion())
    assert res.unit == ONE
    assert serialize(res.word) == "R"
    assert len(trace.steps) == 1

    res = decompose(identity())
    assert res.unit == ONE and res.word == Word()

    n1 = translation_matrix((ONE, ZERO), 1)
    res = decompose(n1)
    assert res.unit == ONE and serialize(res.word) == "N"


def test_decompose_unit_corrections():
    for lam in UNITS:
        g = unit_correction(lam)
        res = decompose(g)
        assert res.unit == lam
        assert verify(g, res)


def test_decompose_stabilizers():
    for s in range(100):
        h = random_stabilizer(s)
        res, trace = decompose_traced(h)
        assert unit_correction(res.unit) * evaluate(res.word) == h
        # Stabilizers need no reduction rounds.
        assert trace.steps == ()


def test_decompose_stabilizer_fixed_case():
    from picard31.finite_unitary import U1
    from picard31.hermitian import rotation_matrix

    h = translation_matrix((ZERO, ONE), 1) * rotation_matrix(U1)
    res = decompose(h)
    assert res.unit == ONE
    assert serialize(res.word) == "A N"


def test_decompose_translation_exact():
    rng = random.Random(1)
    for _ in range(300):
        t1 = EisensteinInt(rng.randint(-8, 8), rng.randint(-8, 8))
        t2 = EisensteinInt(rng.randint(-8, 8), rng.randint(-8, 8))
        m = t1.norm() + t2.norm()
        k = rng.choice([k for k in range(-20, 21) if (k - m) % 2 == 0])
        w = decompose_translation((t1, t2), k)
        assert evaluate(w) == translation_matrix((t1, t2), k)
        # The vertical residual is even iff k matches the parity of the
        # bilinear correction term; recompute it independently.
        c = (t1.a + t1.b - t1.a * t1.b + t2.a + t2.b - t2.a * t2.b)
        assert (k - c) % 2 == 0
    # A k of the wrong parity is a bad input, not an internal failure.
    with pytest.raises(ParityError):
        decompose_translation((ONE, ZERO), 0)


def test_round_items_match_decompose_translation():
    # decompose writes each round's prefix N_(-lam tau, -k) straight
    # from ints, twisting tau by -lam = mu^d as the scalar rotation
    # (d, d, False); it must give the items of decompose_translation on
    # the twisted data, and its translation.
    box = range(-2, 3)
    for lam in UNITS:
        d = MU_POWERS.index(-lam)
        for t1a, t1b, t2a, t2b in itertools.product(box, repeat=4):
            t1, t2 = EisensteinInt(t1a, t1b), EisensteinInt(t2a, t2b)
            m = t1.norm() + t2.norm()
            for k in range(-3 + (m + 1) % 2, 4, 2):
                tau = (-(lam * t1), -(lam * t2))
                items = _translation_items(
                    [], *_twist(t1a, t1b, t2a, t2b, d, d, False), -k)
                assert items == list(decompose_translation(tau, -k).items)
                assert evaluate(Word(items)) == translation_matrix(tau, -k)


def _single_commutator_letters(tau, k):
    """Letters of the synthesis with N^a before each w-factor and the whole
    vertical remainder t0 in one commutator [N^t0, B N B^-1]."""
    (a1, b1), (a2, b2) = ((t.a, t.b) for t in tau)
    t0 = (k - (a1 + b1 - a1 * b1 + a2 + b2 - a2 * b2)) // 2
    return (abs(a1) + (abs(b1) + 4 if b1 else 0)
            + (abs(a2) + 2 if a2 else 0) + (abs(b2) + 6 if b2 else 0)
            + (2 * abs(t0) + 6 if t0 else 0))


def test_translation_words_exact_and_never_longer():
    # A box of tau with k near 0, near +-10^6 and near +-2^140, so the order
    # choice and the factored commutators (nested, of both signs) all run.
    centers = (0, 10 ** 6, -10 ** 6, 2 ** 140, -2 ** 140)
    for t1a, t1b, t2a, t2b in itertools.product(range(-2, 3), repeat=4):
        tau = (EisensteinInt(t1a, t1b), EisensteinInt(t2a, t2b))
        m = tau[0].norm() + tau[1].norm()
        for k in {c + d + (c + d + m) % 2 for c in centers for d in (-4, 1)}:
            w = decompose_translation(tau, k)
            assert evaluate(w) == translation_matrix(tau, k)
            assert w.letters() <= _single_commutator_letters(tau, k)
            # The vertical part costs O(sqrt|k|), not |k|.
            assert max(abs(e) for _, e in w.items) <= 3 * math.isqrt(abs(k)) + 40


def _yardstick_commutators(t):
    """The commutator pairs of the synthesis before the hexagonal forms."""
    if -4 < t < 4:
        return [(t, 1)] if t else []
    a = math.isqrt(abs(t))
    b = (2 * t + a) // (2 * a)
    pairs = [(a, b), *_yardstick_commutators(t - a * b)]
    if sum(abs(x) + abs(y) + 2 for x, y in pairs) < abs(t) + 3:
        return pairs
    return [(t, 1)]


def _yardstick_items(a1, b1, a2, b2, k):
    """The items of the synthesis before the hexagonal forms, a yardstick
    for word length: each coordinate a + bw as N^a and B^-2 N^b B^2, in
    the order of least vertical remainder, then factored commutators."""
    two_t, p1, p2 = k - a1 - b1 - a2 - b2, a1 * b1, a2 * b2
    i = 0
    if p1 or p2:
        orders = (two_t + p1 + p2, two_t + p1 - p2, two_t - p1 + p2,
                  two_t - p1 - p2)
        two_t = min(orders, key=abs)
        i = orders.index(two_t)
    items = []
    if a1 and i < 2:
        items.append(("N", a1))
    if b1:
        items += ("B", -2), ("N", b1), ("B", 2)
    if a1 and i > 1:
        items.append(("N", a1))
    if a2 or b2:
        items.append(("A", 1))
        if a2 and i % 2 == 0:
            items.append(("N", a2))
        if b2:
            items += ("B", -2), ("N", b2), ("B", 2)
        if a2 and i % 2:
            items.append(("N", a2))
        items.append(("A", 1))
    for a, b in _yardstick_commutators(two_t // 2):
        items += (("N", a), ("B", 1), ("N", b), ("B", -1), ("N", -a), ("B", 1),
                  ("N", -b), ("B", -1))
    return items


def test_translation_words_never_longer_than_yardstick():
    # Every unit twist of a box of tau, with k near 0, +-10^6 and +-2^140:
    # the word is exact, and no longer than the yardstick's after normalize
    # (the choice counts the letters of the normal form).
    centers = (0, 10 ** 6, -10 ** 6, 2 ** 140, -2 ** 140)
    cases = shorter = 0
    for lam in UNITS:
        for t1a, t1b, t2a, t2b in itertools.product(range(-3, 4), repeat=4):
            t1, t2 = EisensteinInt(t1a, t1b), EisensteinInt(t2a, t2b)
            tau = (lam * t1, lam * t2)
            m = t1.norm() + t2.norm()
            for k in (c + (c + m) % 2 for c in centers):
                ints = (tau[0].a, tau[0].b, tau[1].a, tau[1].b)
                items = _translation_items([], *ints, k)
                assert evaluate(Word(items)) == translation_matrix(tau, k)
                old = _yardstick_items(*ints, k)
                new_letters = Word(items).letters()
                old_letters = normalize(Word(old)).letters()
                assert new_letters <= old_letters
                shorter += new_letters < old_letters
                cases += 1
    assert shorter > 0.95 * cases


def test_every_form_makes_its_translation():
    # Each of the 10 forms of a + bw, two hexagonal directions in either
    # order, is T(a + bw, offset) on the first coordinate and normalized.
    assert len(set(_FORMS)) == 10
    for a, b in itertools.product(range(-4, 5), repeat=2):
        v = EisensteinInt(a, b)
        for i, j in _FORMS:
            letters, offset, tail, items = _form(a, b, i, j)
            word = Word(items)
            assert evaluate(word) == translation_matrix((v, ZERO), offset)
            assert normalize(word) == word and word.letters() == letters
            assert tail == (items[-1][1] if items[-1:] and items[-1][0] == "N"
                            else 0)


# sha256 over serialize(decompose_translation(tau, k)) + "\n" for tau in
# [-3, 3]^4 and |k| <= 9 of the parity of |tau|^2, in itertools.product
# and then increasing k order: 22,329 words.  Output is meant to stay
# byte-identical; a change that alters these words on purpose re-pins the
# digest and says so in CHANGES.md.
TRANSLATION_WORDS_SHA256 = (
    "1fb3010c8a03e45d8f6e9f4dee7506a38f3cd83ee583c3255084481d09a110b9")


def test_translation_words_digest():
    digest, count = hashlib.sha256(), 0
    for t1a, t1b, t2a, t2b in itertools.product(range(-3, 4), repeat=4):
        t1, t2 = EisensteinInt(t1a, t1b), EisensteinInt(t2a, t2b)
        m = t1.norm() + t2.norm()
        for k in range(-9 + (m + 1) % 2, 10, 2):
            word = decompose_translation((t1, t2), k)
            digest.update(serialize(word).encode() + b"\n")
            count += 1
    assert count == 22329
    assert digest.hexdigest() == TRANSLATION_WORDS_SHA256


def test_decompose_translation_uses_only_nab():
    w = decompose_translation((EisensteinInt(2, -1), EisensteinInt(0, 3)), 6)
    assert all(g != "R" for g, _ in w.items)


def test_trace_json():
    g = evaluate(parse("N^3 R B N^-2 R A N"))
    res, trace = decompose_traced(g)
    obj = trace.to_json()
    assert len(obj["steps"]) == len(trace.steps)
    for rec in obj["steps"]:
        assert set(rec) == {"tau", "k", "n_before", "n_after"}
    assert set(obj["stabilizer"]) == {"unit", "tau", "k", "u_word"}


def test_records_are_read_only():
    res, trace = decompose_traced(evaluate(parse("N^3 R B N^-2 R A N")))
    for record, field in ((res, "unit"), (trace, "steps"),
                          (trace.steps[0], "k")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_random_element_deterministic():
    assert random_element(42, 30) == random_element(42, 30)
    assert random_element(42, 30) != random_element(43, 30)
    w = random_element(7, 40)
    assert 1 <= len(w.items) <= 40
    for _, e in w.items:
        assert 1 <= abs(e) <= 3


def test_random_stabilizer_deterministic():
    assert random_stabilizer(11) == random_stabilizer(11)
    h = random_stabilizer(11)
    assert h.fixes_infinity()
    langlands_extract(h)


# The two tests below keep the names of the tests of the former
# breadth-first unit-word search; they now check words found without it.
def test_search_unit_word_identity():
    # The trivial unit needs no letters: unit_correction(1) is the empty word.
    assert unit_correction(ONE) == identity() == evaluate(Word())
    res = decompose(unit_correction(ONE))
    assert res.unit == ONE and res.word == Word()


def test_search_unit_word_probe():
    # How the words in test_unit_corrections_are_words were found: when
    # decompose(evaluate(w)) reports a unit lam != 1, w * word^-1 is a word
    # for unit_correction(lam).
    found = 0
    for seed in range(60):
        w = random_element(seed, 20)
        res = decompose(evaluate(w))
        if res.unit != ONE:
            found += 1
            assert evaluate(w * res.word.inverse()) == unit_correction(res.unit)
    assert found > 0


def test_unit_corrections_are_words():
    # lam -> unit_correction(lam) is multiplicative, so words for w and -1
    # give words for all six units.
    w_omega = parse("N R B^-2 N R B^-2 A B^3 A N R")
    w_minus = parse("R N A N^-1 B^-2 R B^-1 A B^3 N A N^-1 R A N^-1 A N")
    assert evaluate(w_omega) == unit_correction(OMEGA)
    assert evaluate(w_minus) == unit_correction(EisensteinInt(-1))
    reached = {}
    for i in range(3):
        for j in range(2):
            lam = OMEGA ** i * EisensteinInt(-1) ** j
            word = Word(w_omega.items * i + w_minus.items * j)
            assert evaluate(word) == unit_correction(lam)
            reached[lam] = word
    assert set(reached) == set(UNITS)

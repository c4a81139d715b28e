"""The finite unitary rotation group and its word table."""

import random

import pytest

from picard31.eisenstein import OMEGA, ONE, ZERO, EisensteinInt
from picard31.errors import NotMemberError
from picard31.finite_unitary import (U1, U2, FiniteUnitary, enumerate_group,
                                     identity, u_decompose, u_membership,
                                     word_table)
from picard31.hermitian import rotation_matrix
from picard31.words import Generator, Word, evaluate, serialize


def test_generators_are_members():
    assert u_membership(U1.rows)
    assert u_membership(U2.rows)
    assert U1 * U1 == identity()
    assert U2 ** 6 == identity()
    for j in range(1, 6):
        assert U2 ** j != identity()


def test_membership_rejects():
    assert not u_membership(((ONE, ONE), (ZERO, ONE)))
    assert not u_membership(((EisensteinInt(2), ZERO), (ZERO, ONE)))
    assert not u_membership(((ZERO, ZERO), (ZERO, ZERO)))
    with pytest.raises(NotMemberError):
        FiniteUnitary(((ONE, ONE), (ZERO, ONE)))


def test_group_order():
    grp = enumerate_group()
    assert len(grp) == 72
    # Closed under product and inverse.
    rng = random.Random(1)
    elements = sorted(grp, key=lambda u: tuple((e.a, e.b)
                                               for row in u.rows for e in row))
    for _ in range(200):
        x, y = rng.choice(elements), rng.choice(elements)
        assert x * y in grp
        assert x.conj_transpose() in grp


def test_conj_transpose_is_inverse():
    for u in enumerate_group():
        assert u * u.conj_transpose() == identity()
        assert u.inverse() == u.conj_transpose()


def test_word_table_covers_group():
    tbl = word_table()
    assert len(tbl) == 72
    for u, word in tbl.items():
        assert evaluate(word) == rotation_matrix(u)
        # Canonical exponents: A appears only to the first power, B within
        # the symmetric range, never zero, never two equal letters adjacent.
        for i, (gen, exp) in enumerate(word.items):
            assert exp != 0
            if gen is Generator.A:
                assert exp == 1
            else:
                assert -2 <= exp <= 3
            if i:
                assert word.items[i - 1][0] is not gen


def test_u_decompose_round_trip():
    for u in enumerate_group():
        assert evaluate(u_decompose(u)) == rotation_matrix(u)


def test_u_decompose_fixed_case():
    u = FiniteUnitary(((ONE, ZERO), (ZERO, -OMEGA)))
    word = u_decompose(u)
    assert serialize(word) == "A B A"
    assert u_decompose(identity()) == Word()


def test_u_decompose_rejects_non_member():
    with pytest.raises(NotMemberError):
        u_decompose("not a matrix")


def test_json_round_trip():
    for u in enumerate_group():
        assert FiniteUnitary.from_json(u.to_json()) == u

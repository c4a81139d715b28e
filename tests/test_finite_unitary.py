"""The finite unitary rotation group and its word table."""

import dataclasses
from collections import deque

import pytest

from picard31.eisenstein import OMEGA, ONE, ZERO, EisensteinInt
from picard31.errors import NotMemberError
from picard31.finite_unitary import (U1, U2, FiniteUnitary, enumerate_group,
                                     u_decompose, word_table)
from picard31.hermitian import identity as identity4, rotation_matrix
from picard31.jsonutil import decode_pair
from picard31.words import Word, evaluate, serialize


def test_generators_are_members():
    FiniteUnitary(U1.rows)
    FiniteUnitary(U2.rows)


def test_frozen():
    # Elements key the word table, so they must not change after hashing.
    with pytest.raises(dataclasses.FrozenInstanceError):
        U1.rows = U2.rows
    assert U1.rows == ((ZERO, ONE), (ONE, ZERO))


def test_membership_rejects():
    for rows in (((ONE, ONE), (ZERO, ONE)),
                 ((EisensteinInt(2), ZERO), (ZERO, ONE)),
                 ((ZERO, ZERO), (ZERO, ZERO)),
                 ((ONE, ZERO),),
                 ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO))):
        with pytest.raises(NotMemberError):
            FiniteUnitary(rows)
    # Plain ints and a non-iterable, as GroupMatrix rejects them.
    with pytest.raises(NotMemberError, match="must be Eisenstein integers"):
        FiniteUnitary(((1, 0), (0, 1)))
    with pytest.raises(NotMemberError, match="expected a 2x2 matrix"):
        FiniteUnitary(5)


def test_group_order():
    grp = enumerate_group()
    assert len(grp) == 72
    # The rotation matrices are closed under product and inverse.
    mats = {rotation_matrix(u) for u in grp}
    assert len(mats) == 72
    for x in mats:
        assert x.inverse() in mats
        for y in mats:
            assert x * y in mats


def test_conj_transpose_is_inverse():
    for u in enumerate_group():
        m = rotation_matrix(u)
        assert m * m.conj_transpose() == identity4()


def bfs_distances():
    """Independent oracle for "shortest": breadth-first search from I over
    the rotation matrices of U1, U2 and U2^-1, one letter per step."""
    b = rotation_matrix(U2)
    steps = (rotation_matrix(U1), b, b.inverse())
    dist = {identity4(): 0}
    queue = deque(dist)
    while queue:
        current = queue.popleft()
        for step in steps:
            nxt = current * step
            if nxt not in dist:
                dist[nxt] = dist[current] + 1
                queue.append(nxt)
    return dist


def test_u_decompose_is_shortest():
    dist = bfs_distances()
    assert len(dist) == 72
    for u in enumerate_group():
        assert u_decompose(u).letters() == dist[rotation_matrix(u)]


def test_word_table_covers_group():
    tbl = word_table()
    assert len(tbl) == 72
    for u, word in tbl.items():
        assert evaluate(word) == rotation_matrix(u)
        # Canonical exponents: A appears only to the first power, B within
        # the symmetric range, never zero, never two equal letters adjacent.
        for i, (gen, exp) in enumerate(word.items):
            assert exp != 0
            if gen == "A":
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
    assert u_decompose(FiniteUnitary(((ONE, ZERO), (ZERO, ONE)))) == Word()


def test_u_decompose_rejects_non_member():
    with pytest.raises(NotMemberError):
        u_decompose("not a matrix")


def from_rows(rows):
    """Read u.to_json() back: rows of pairs through the shared pair decoder."""
    return FiniteUnitary(tuple(tuple(decode_pair(e) for e in row)
                               for row in rows))


def test_json_round_trip():
    for u in enumerate_group():
        assert from_rows(u.to_json()) == u
    assert from_rows([[[1, "0"], [0, 0]], [[0, 0], ["-1", 0]]]) \
        == FiniteUnitary(((ONE, ZERO), (ZERO, -ONE)))


def test_json_rejects_lax_integers():
    # Entries decode like the matrix format: no underscores, spaces, floats
    # or booleans, even where int() would give a unit.
    for bad in ("1_0", 2.7, "0_1", " 1", 1.0, True):
        rows = [[[1, 0], [0, 0]], [[0, 0], [bad, 0]]]
        with pytest.raises(ValueError):
            from_rows(rows)
    # Nor anything but an [a, b] pair of integers in an entry's place.
    for bad in (5, [[5, 5], [5, 5]], [[[1, 0], [0, 0]], 7],
                [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]):
        with pytest.raises(ValueError):
            decode_pair(bad)

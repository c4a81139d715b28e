"""An independent oracle: the generators built from their definitions as
sympy matrices over Q(sqrt(-3)), with none of the package's Z[w] or group
matrix arithmetic.  Checks G* J G = J and that evaluate agrees with the
oracle's products."""

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from picard31.decomposer import decompose, random_element
from picard31.words import Generator, evaluate

K = QQ.algebraic_field(sympy.sqrt(-3))
_0, _1 = K.zero, K.one
W = K.from_sympy((-1 + sympy.sqrt(-3)) / 2)


def matrix(rows):
    return DomainMatrix([[K.convert(v) for v in row] for row in rows],
                        (4, 4), K)


I4 = matrix(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
J = matrix(((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)))
GENERATORS = {
    # The Heisenberg translation by ((1, 0), sqrt(3)).
    Generator.N: matrix(((_1, -_1, _0, W), (0, 1, 0, 1), (0, 0, 1, 0),
                         (0, 0, 0, 1))),
    # The swap of the middle coordinates.
    Generator.A: matrix(((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0),
                         (0, 0, 0, 1))),
    # diag(1, mu, 1, 1) with mu = -w.
    Generator.B: matrix(((_1, _0, _0, _0), (_0, -W, _0, _0),
                         (_0, _0, _1, _0), (_0, _0, _0, _1))),
    # The involution swapping 0 and infinity.
    Generator.R: matrix(((0, 0, 0, 1), (0, -1, 0, 0), (0, 0, -1, 0),
                         (1, 0, 0, 0))),
}


def conj(x):
    return K.from_sympy(sympy.conjugate(K.to_sympy(x)))


def preserves_form(g):
    return g.transpose().applyfunc(conj) * J * g == J


def oracle_product(word):
    result = I4
    for gen, exp in word.items:
        g = GENERATORS[gen]
        result = result * (g ** exp if exp >= 0 else g.inv() ** -exp)
    return result


def test_generators_preserve_form():
    assert not preserves_form(matrix(((1, 1, 0, 0), (0, 1, 0, 0),
                                      (0, 0, 1, 0), (0, 0, 0, 1))))
    for g in GENERATORS.values():
        assert preserves_form(g)
    assert GENERATORS[Generator.B] ** 6 == I4


def as_oracle(g):
    """A GroupMatrix's entries in the oracle's field."""
    return matrix([[K.convert(e.a) + K.convert(e.b) * W for e in row]
                   for row in g.rows])


def test_evaluate_matches_oracle():
    for seed in range(20):
        word = random_element(300 + seed, 12)
        expected = oracle_product(word)
        assert preserves_form(expected)
        assert as_oracle(evaluate(word)) == expected
    # Decomposition words, whose long N/A/B runs between R's evaluate
    # composes in small ints; the unit correction diag(lam, 1, 1, lam) is
    # written out here.
    for seed in range(4):
        word = random_element(400 + seed, 60)
        result = decompose(evaluate(word))
        lam = K.convert(result.unit.a) + K.convert(result.unit.b) * W
        unit = matrix(((lam, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                       (0, 0, 0, lam)))
        expected = unit * oracle_product(result.word)
        assert expected == oracle_product(word)
        assert as_oracle(evaluate(result.word, result.unit)) == expected

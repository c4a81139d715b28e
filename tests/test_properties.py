"""Hypothesis properties: the Z[w] ring laws, norm against the ring's
product, the translation corner and the stabilizer-of-infinity formula on
large entries, word evaluation and the reduction round against the
generic matrix product, the round on column 1 alone against the whole
round, decompose_traced's steps against the chain of reduction_step
calls, the form check's first defect, the word normalizer, and the
matrix JSON boundary."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import generic_product
from picard31.decomposer import (_round, decompose_traced, random_element,
                                 reduction_step, verify)
from picard31.eisenstein import MU_POWERS, UNITS, ZERO, EisensteinInt, norm
from picard31.errors import NotMemberError
from picard31.finite_unitary import enumerate_group
from picard31.hermitian import (GroupMatrix, HeisenbergParam,
                                HeisenbergTranslation, check_membership,
                                heisenberg_corner, inversion,
                                langlands_extract, matrix_from_json_text,
                                matrix_to_json_text, rotation_matrix,
                                translation_matrix, unit_correction)
from picard31.words import Word, evaluate, join, normalize, parse, serialize

_SETTINGS = dict(derandomize=True, database=None, deadline=None)
_BIG = 2 ** 70
_EXACT_LIMIT = 2 ** 53


def _sizes(limit):
    """Small values, where cancellations happen, and values up to limit."""
    return st.one_of(st.integers(-5, 5), st.integers(-limit, limit))


_ZW = st.builds(EisensteinInt, _sizes(_BIG), _sizes(_BIG))


@settings(max_examples=300, **_SETTINGS)
@given(_ZW, _ZW, _ZW, st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6))
def test_eisenstein_ring_laws(x, y, z, d, e):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    # conj is an involution that respects + and *: a ring automorphism.
    assert x.conj().conj() == x
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).norm() == x.norm() * y.norm()
    # Exponents of mu = -w add mod 6, which evaluate's B branch relies on.
    assert MU_POWERS[d % 6] * MU_POWERS[e % 6] == MU_POWERS[(d + e) % 6]


def _ring_norm(z):
    """|z|^2 as z conj(z), by the ring's product, not by norm's formula."""
    return (z * z.conj()).a


@settings(max_examples=300, **_SETTINGS)
@given(_sizes(_BIG - 1), _sizes(_BIG - 1))
def test_norm_is_z_times_its_conjugate(a, b):
    z = EisensteinInt(a, b)
    assert norm(a, b) == _ring_norm(z)
    assert (z * z.conj()).b == 0


@settings(max_examples=300, **_SETTINGS)
@given(_ZW, _ZW, _sizes(_BIG))
def test_heisenberg_corner_from_tau(tau1, tau2, k):
    # Judged by the ring's product, which spells |tau_j|^2 its own way.
    assert heisenberg_corner(tau1.a, tau1.b, tau2.a, tau2.b, k) == (
        (k - _ring_norm(tau1) - _ring_norm(tau2)) // 2, k)


@st.composite
def stabilizer_params(draw):
    coeff = _sizes(_BIG)
    tau1 = EisensteinInt(draw(coeff), draw(coeff))
    tau2 = EisensteinInt(draw(coeff), draw(coeff))
    # k = |tau|^2 (mod 2), the parity HeisenbergTranslation enforces.
    k = 2 * draw(_sizes(_BIG // 2)) + (tau1.norm() + tau2.norm()) % 2
    return HeisenbergParam(draw(st.sampled_from(UNITS)),
                           HeisenbergTranslation(tau1, tau2, k),
                           draw(st.sampled_from(enumerate_group())))


@settings(max_examples=200, **_SETTINGS)
@given(stabilizer_params())
def test_large_stabilizer_round_trips(param):
    h = param.matrix()
    assert h == (unit_correction(param.lam) * param.translation.matrix()
                 * rotation_matrix(param.u))
    assert langlands_extract(h) == param
    # Through the form-checking reader; only entries of 2^53 or more
    # travel as strings.
    text = matrix_to_json_text(h)
    assert matrix_from_json_text(text) == h
    for row in json.loads(text)["matrix"]:
        for pair in row:
            for v in pair:
                assert isinstance(v, str) == (abs(int(v)) >= _EXACT_LIMIT)
    result, trace = decompose_traced(h)
    assert trace.steps == ()
    assert trace.stabilizer == param
    assert verify(h, result)
    # With tau's coefficients up to M, the vertical remainder t has
    # 2|t| <= |k| + 4M + 2M^2, so its commutator exponents, about sqrt|t|,
    # and the rotation word's (at most 3) stay within 3 (max(M, sqrt|k|) + 1).
    tr = param.translation
    size = max(abs(c) for t in tr.tau for c in (t.a, t.b))
    size = max(size, math.isqrt(abs(tr.k))) + 1
    assert max((abs(e) for _, e in result.word.items), default=0) <= 3 * size


_EXPONENT = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(-3, 3),
    st.integers(-10 ** 5, 10 ** 5).map(lambda e: 2 * e),
    st.integers(-10 ** 5, 10 ** 5).map(lambda e: 6 * e))
_RAW_WORDS = st.lists(
    st.tuples(st.sampled_from(tuple("NABR")), _EXPONENT),
    max_size=60).map(Word)


@settings(max_examples=200, **_SETTINGS)
@given(st.lists(st.tuples(st.sampled_from(tuple("NABR")), _EXPONENT),
                max_size=40).map(Word),
       st.sampled_from(UNITS))
def test_evaluate_matches_generic_product(word, lam):
    assert evaluate(word, lam) == generic_product(word, lam)


_STABILIZER_ITEM = st.tuples(
    st.sampled_from(("N", "A", "B")), _EXPONENT)


@st.composite
def r_sparse_words(draw):
    """Runs of up to 30 N, A and B items (length drawn uniformly) joined by
    single R's; evaluate composes each run in small ints and applies it to
    its columns once."""
    items = []
    for i in range(draw(st.integers(1, 5))):
        if i:
            items.append(("R", 1))
        n = draw(st.integers(0, 30))
        items += draw(st.lists(_STABILIZER_ITEM, min_size=n, max_size=n))
    return Word(items)


@settings(max_examples=200, **_SETTINGS)
@given(r_sparse_words(), st.sampled_from(UNITS))
def test_evaluate_matches_generic_product_on_long_runs(word, lam):
    assert evaluate(word, lam) == generic_product(word, lam)


@settings(max_examples=200, **_SETTINGS)
@given(st.lists(st.tuples(st.sampled_from(tuple("NABR")), _EXPONENT),
                max_size=40).map(Word))
def test_reduction_step_matches_generic_product(word):
    # Exponents up to 10^6 give entries of hundreds of bits.  A g fixing
    # infinity has g44 a unit, so g R does not fix it.
    g = evaluate(word)
    if g.fixes_infinity():
        g = g * inversion()
    out, step = reduction_step(g)
    assert out == inversion() * translation_matrix(step.tau, step.k) * g


@settings(max_examples=100, **_SETTINGS)
@given(st.lists(st.tuples(st.sampled_from(tuple("NABR")), _EXPONENT),
                max_size=40).map(Word))
def test_traced_steps_match_reduction_step_chain(word):
    # decompose's rounds run on ints, carry n from round to round and become
    # ReductionSteps only at the edge; each record must equal, field by
    # field, the one the public reduction_step gives on the same chain,
    # whose norms are read off the matrices themselves.
    g = evaluate(word)
    steps = decompose_traced(g)[1].steps
    chain = []
    while not g.fixes_infinity():
        n = g.rows[3][0].norm()
        g, step = reduction_step(g)
        assert (step.n_before, step.n_after) == (n, g.rows[3][0].norm())
        chain.append(step)
    assert len(steps) == len(chain)
    for traced, stepped in zip(steps, chain):
        assert traced._asdict() == stepped._asdict()


@settings(max_examples=100, **_SETTINGS)
@given(st.lists(st.tuples(st.sampled_from(tuple("NABR")), _EXPONENT),
                max_size=40).map(Word))
def test_round_on_column_1_matches_the_whole_round(word):
    # The lean path's rounds carry only g's column 1: on every round state
    # of a reduction, _round on those 8 ints gives the first 8 ints and
    # the record that _round on all 32 gives.
    flat = evaluate(word).flat
    n = EisensteinInt(flat[6], flat[7]).norm()
    while n:
        whole, record = _round(flat, n)
        assert _round(flat[:8], n) == (whole[:8], record)
        flat, n = whole, record[6]


_J_ROWS = ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0))


def _first_defect(rows):
    """Row-major scan of all 16 entries of M* J M against J, in Z[w]."""
    for j in range(4):
        for k in range(4):
            val = ZERO
            for r, s in ((0, 3), (1, 1), (2, 2), (3, 0)):
                val = val + rows[r][j].conj() * rows[s][k]
            if val != EisensteinInt(_J_ROWS[j][k]):
                return (j + 1, k + 1)
    return None


@st.composite
def spoiled_members(draw):
    """A member's rows with one or two entries shifted by a nonzero amount."""
    rows = [list(row) for row in
            evaluate(random_element(draw(st.integers(0, 10 ** 6)), 40)).rows]
    for _ in range(draw(st.integers(1, 2))):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        rows[i][j] = rows[i][j] + draw(_ZW.filter(bool))
    return rows


@settings(max_examples=300, **_SETTINGS)
@given(spoiled_members())
def test_form_check_names_first_defect(rows):
    want = _first_defect(rows)
    assert check_membership(rows) == (want is None)
    if want is None:
        return
    message = ("matrix does not preserve the Hermitian form: "
               f"defect at entry {want}")
    with pytest.raises(NotMemberError) as info:
        GroupMatrix(rows)
    assert str(info.value) == message
    text = json.dumps({"matrix": [[[e.a, e.b] for e in row] for row in rows]})
    with pytest.raises(NotMemberError) as info:
        matrix_from_json_text(text)
    assert str(info.value) == message


@settings(max_examples=300, **_SETTINGS)
@given(_RAW_WORDS)
def test_normalize_idempotent(word):
    normal = normalize(word)
    assert normalize(normal) == normal
    assert evaluate(normal) == evaluate(word)
    assert parse(serialize(normal)) == normal


@settings(max_examples=300, **_SETTINGS)
@given(_RAW_WORDS, _RAW_WORDS, st.integers(0, 60))
def test_join_is_normalize_of_the_concatenation(u, w, cut):
    # v starts by undoing the last `cut` items of u, so the junction
    # cascades to a random depth before the rest of v meets what is left.
    u = normalize(u)
    v = normalize(Word(u.inverse().items[:cut] + w.items))
    assert Word(join(list(u.items), v.items)) == normalize(Word(u.items + v.items))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=6)
# What a matrix entry can be replaced by: anything, or a pair of integers
# or strings, which reaches the form check.
_ENTRY = _JSON | st.lists(st.integers(-2, 2) | st.text(max_size=3),
                          min_size=2, max_size=2)
_MEMBERS = tuple(evaluate(random_element(seed, 12)).to_json()
                 for seed in range(4))


@st.composite
def perturbed_members(draw):
    """A member's matrix JSON with one entry, one row or the whole grid
    replaced by an arbitrary value."""
    obj = json.loads(json.dumps(draw(st.sampled_from(_MEMBERS))))
    grid = obj["matrix"]
    where = draw(st.sampled_from(("entry", "row", "grid")))
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if where == "entry":
        grid[i][j] = draw(_ENTRY)
    elif where == "row":
        grid[i] = draw(_JSON | st.lists(_ENTRY, min_size=4, max_size=4))
    else:
        obj["matrix"] = draw(_JSON)
    return obj


@settings(max_examples=500, **_SETTINGS)
@given(_JSON | perturbed_members())
def test_matrix_json_boundary(value):
    try:
        g = matrix_from_json_text(json.dumps(value))
    except (ValueError, NotMemberError):
        return
    assert isinstance(g, GroupMatrix)

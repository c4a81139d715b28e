"""Group matrices, generator constructors, Heisenberg data, the
stabilizer factorization, the boundary action and the matrix JSON,
whose reader decodes row by row: the first bad entry in reading order is
the one reported, a bad value or a bad shape alike."""

import collections
import itertools
import json
import random

import pytest

from helpers import GENERATORS
from picard31.eisenstein import OMEGA, ONE, UNITS, ZERO, EisensteinInt
from picard31.errors import (DomainError, NotMemberError, ParityError,
                             ShapeError)
from picard31.finite_unitary import U2, enumerate_group
from picard31.hermitian import (GroupMatrix, HeisenbergParam,
                                HeisenbergTranslation, _is_unitary,
                                check_membership, identity, image_of_infinity,
                                inversion, matrix_from_json_text,
                                matrix_to_json_text, rotation_matrix,
                                translation_matrix, unit_correction)
from picard31.decomposer import langlands_extract
from picard31.jsonutil import encode_pair

N1, A, B, R = (GENERATORS[gen] for gen in "NABR")
# The form matrix itself, built through the form-checking constructor.
J = GroupMatrix([[EisensteinInt(v) for v in row]
                 for row in ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0),
                             (1, 0, 0, 0))])


def non_member(rows):
    """A GroupMatrix of four rows of EisensteinInt with no form check, for
    inputs that are deliberately not group members."""
    return GroupMatrix.from_flat(tuple(c for j in range(4) for row in rows
                                       for c in (row[j].a, row[j].b)))


def random_translation(rng, span=5, kspan=10):
    t1 = EisensteinInt(rng.randint(-span, span), rng.randint(-span, span))
    t2 = EisensteinInt(rng.randint(-span, span), rng.randint(-span, span))
    m = t1.norm() + t2.norm()
    k = rng.choice([k for k in range(-kspan, kspan + 1) if (k - m) % 2 == 0])
    return HeisenbergTranslation(t1, t2, k)


def random_member(rng, length=12):
    gens = (N1, N1.inverse(), A, B, B.inverse(), R)
    g = identity()
    for _ in range(length):
        g = g * rng.choice(gens)
    return g


def test_form_matrix():
    j = J
    assert j * j == identity()
    assert check_membership(j.rows)


def test_generators_preserve_form():
    for g in (N1, A, B, R, identity()):
        assert check_membership(g.rows)
        assert check_membership(g)


def test_membership_rejects_perturbation():
    rows = [list(row) for row in N1.rows]
    rows[1][3] = rows[1][3] + ONE  # breaks the form but keeps the shape
    assert not check_membership(rows)
    with pytest.raises(NotMemberError):
        GroupMatrix(rows)
    assert not check_membership([[ONE] * 4] * 3)


def test_malformed_grid_is_not_a_member():
    # Plain ints are not Eisenstein integer entries, and 5 is no grid.
    ints = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for bad in (ints, 5):
        assert not check_membership(bad)
        with pytest.raises(NotMemberError):
            GroupMatrix(bad)


def test_repr_and_foreign_equality():
    assert repr(inversion()) == ("GroupMatrix([[0, 0, 0, 1], [0, -1, 0, 0], "
                                 "[0, 0, -1, 0], [1, 0, 0, 0]])")
    # A GroupMatrix equals only a GroupMatrix, not its 32-int layout.
    assert identity() != identity().flat


def test_products_stay_in_group():
    rng = random.Random(1)
    for _ in range(50):
        g = random_member(rng)
        # Revalidate through the checking constructor.
        assert GroupMatrix(g.rows) == g


def test_translation_matrix_entries():
    # Corner entry for the basic translation is w itself.
    assert N1.rows[0][3] == OMEGA
    assert N1.rows[0][1] == -ONE
    # Purely vertical translation by 2 sqrt(3).
    vert = translation_matrix((ZERO, ZERO), 2)
    assert vert.rows[0][3] == EisensteinInt(1, 2)
    assert vert.rows[1][3] == ZERO and vert.rows[2][3] == ZERO
    # The corner formula checked against the form itself, a judge that
    # shares no code with heisenberg_corner.
    rng = random.Random(11)
    for _ in range(200):
        tr = random_translation(rng, span=20, kspan=60)
        assert check_membership(translation_matrix(tr.tau, tr.k).rows)


def test_translation_parity_enforced():
    with pytest.raises(ParityError):
        translation_matrix((ONE, ZERO), 2)
    with pytest.raises(ParityError):
        translation_matrix((ZERO, ZERO), 1)
    with pytest.raises(ParityError):
        HeisenbergTranslation(ONE, ZERO, 0)


def test_inverse():
    assert N1.inverse() == translation_matrix((-ONE, ZERO), -1)
    rng = random.Random(2)
    for _ in range(50):
        g = random_member(rng)
        assert g * g.inverse() == identity()
        assert g.inverse() == J * g.conj_transpose() * J


def test_pow():
    assert N1 ** 0 == identity()
    assert N1 ** 3 == translation_matrix((EisensteinInt(3), ZERO), 3)
    assert N1 ** -3 == (N1 ** 3).inverse()
    assert R ** 2 == identity()


@pytest.mark.parametrize("base, one", [
    (N1 * R * B * N1 ** -1 * A * R, identity()),
    (EisensteinInt(2, 1), ONE),
], ids=["GroupMatrix", "EisensteinInt"])
@pytest.mark.parametrize("e, products", [(0, 0), (1, 0), (2, 1), (1000, 14)])
def test_pow_counts_products(monkeypatch, base, one, e, products):
    # Square and multiply from the left: a squaring per bit of e after the
    # leading one, and a multiply by base per set bit among them.
    expected = one
    for _ in range(e):
        expected = expected * base
    cls = type(base)
    mul = cls.__mul__
    count = 0

    def counting_mul(x, y):
        nonlocal count
        count += 1
        return mul(x, y)

    monkeypatch.setattr(cls, "__mul__", counting_mul)
    assert base ** e == expected
    assert count == products


def test_compose_heisenberg_matches_matrices():
    rng = random.Random(3)
    for _ in range(300):
        x = random_translation(rng)
        y = random_translation(rng)
        assert x.compose(y).matrix() == x.matrix() * y.matrix()
        assert x.inverse().matrix() == x.matrix().inverse()


def test_heisenberg_center():
    # Horizontal parts cancel but the commutator leaves a vertical residue.
    x = HeisenbergTranslation(ONE, ZERO, 1)
    y = HeisenbergTranslation(OMEGA, ZERO, 1)
    comm = x.compose(y).compose(x.inverse()).compose(y.inverse())
    assert comm.tau1.is_zero() and comm.tau2.is_zero()
    assert comm.k != 0


def test_rotation_and_unit_correction_membership():
    for u in enumerate_group():
        assert check_membership(rotation_matrix(u).rows)
    for lam in UNITS:
        assert check_membership(unit_correction(lam).rows)
    with pytest.raises(ValueError):
        unit_correction(EisensteinInt(2))
    # Any non-unit lam: the matrix would fall outside the group.
    with pytest.raises(ValueError, match="not a unit"):
        HeisenbergParam(EisensteinInt(2), HeisenbergTranslation(ONE, ZERO, 1),
                        U2)


def test_langlands_round_trip():
    rng = random.Random(4)
    units = list(UNITS)
    rotations = sorted(enumerate_group(),
                       key=lambda u: tuple((e.a, e.b)
                                           for row in u.rows for e in row))
    for _ in range(100):
        lam = rng.choice(units)
        tr = random_translation(rng)
        u = rng.choice(rotations)
        h = unit_correction(lam) * tr.matrix() * rotation_matrix(u)
        param = langlands_extract(h)
        assert param.lam == lam
        assert param.translation == tr
        assert param.u == u
        assert param.matrix() == h


def test_langlands_rejects_non_stabilizer():
    with pytest.raises(ShapeError):
        langlands_extract(R)
    with pytest.raises(ShapeError):
        langlands_extract(R * N1 * R)
    # Stabilizer shape, but the middle block is not unitary.
    for block in (((ONE, ONE), (ZERO, ONE)), ((EisensteinInt(2), ZERO), (ZERO, ONE))):
        (a, b), (c, d) = block
        p = non_member(((ONE, ZERO, ZERO, ZERO), (ZERO, a, b, ZERO),
                        (ZERO, c, d, ZERO), (ZERO, ZERO, ZERO, ONE)))
        with pytest.raises(ShapeError, match="middle block"):
            langlands_extract(p)
    # A genuine stabilizer with one entry spoiled: the rebuilt matrix must
    # catch what no field check reads (g21, g44, g12), and the corner check
    # a corner of the wrong parity (g14 + g11).
    h = (unit_correction(OMEGA) * translation_matrix((ONE, OMEGA), 0)
         * rotation_matrix(U2))
    assert langlands_extract(h).matrix() == h
    for (i, j), spoil in (((1, 0), lambda e: e + ONE),
                          ((3, 3), lambda e: -OMEGA),
                          ((0, 1), lambda e: e + ONE),
                          ((0, 3), lambda e: e + h.rows[0][0])):
        rows = [list(row) for row in h.rows]
        rows[i][j] = spoil(rows[i][j])
        with pytest.raises(ShapeError):
            langlands_extract(non_member(rows))


def test_corner_check_rejects_wrong_parity():
    # tau = (1, 0) and k = 0 break the parity rule, and g14 = -1 is the
    # floor of (k - |tau|^2)/2.  The rebuild by _stabilizer_flat floors
    # alike and matches, so the corner check alone can reject it.
    rows = [[EisensteinInt(x) for x in row]
            for row in ((1, -1, 0, -1), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))]
    with pytest.raises(ShapeError, match=r"^corner entry -1 inconsistent "
                                         r"with \|tau\|\^2 = 1$"):
        langlands_extract(non_member(rows))


def oracle_flat(param):
    """HeisenbergParam.matrix() written in EisensteinInt arithmetic, entry
    by entry from its docstring, as 32 ints in GroupMatrix's layout: an
    independent oracle for the int formula."""
    lam, tr = param.lam, param.translation
    (a, b), (c, d) = param.u.rows
    ct1, ct2 = tr.tau1.conj(), tr.tau2.conj()
    m = tr.tau1.norm() + tr.tau2.norm()
    corner = EisensteinInt((tr.k - m) // 2, tr.k)
    entries = (lam, ZERO, ZERO, ZERO,
               -(lam * (ct1 * a + ct2 * c)), a, c, ZERO,
               -(lam * (ct1 * b + ct2 * d)), b, d, ZERO,
               lam * corner, tr.tau1, tr.tau2, lam)
    return tuple(x for e in entries for x in (e.a, e.b))


def test_heisenberg_param_matrix_matches_oracle():
    # Every unit and rotation, with seeded tau of up to 70-bit entries and k
    # of both parities.
    rng = random.Random(70)

    def big():
        bound = 2 ** rng.randint(0, 70)
        return EisensteinInt(rng.randint(-bound, bound),
                             rng.randint(-bound, bound))

    parities = collections.Counter()
    for lam in UNITS:
        for u in enumerate_group():
            for _ in range(2):
                t1, t2 = big(), big()
                m = t1.norm() + t2.norm()
                k = 2 * rng.randint(-2 ** 70, 2 ** 70) + m % 2
                parities[k % 2] += 1
                param = HeisenbergParam(lam, HeisenbergTranslation(t1, t2, k), u)
                h = param.matrix()
                assert h.flat == oracle_flat(param)
                assert langlands_extract(h) == param
    assert min(parities[0], parities[1]) > 300, parities


def test_block_lookup_matches_is_unitary():
    # langlands_extract finds the middle block in a table of the 72
    # rotations.  Over every block with entries in {0, the six units, 2,
    # 1 + 2w}, it must accept exactly the blocks _is_unitary accepts and
    # reject the others with the middle-block message.
    values = (ZERO, *UNITS, EisensteinInt(2), EisensteinInt(1, 2))
    accepted = 0
    for a, b, c, d in itertools.product(values, repeat=4):
        rows = ((a, b), (c, d))
        p = non_member(((ONE, ZERO, ZERO, ZERO), (ZERO, a, b, ZERO),
                        (ZERO, c, d, ZERO), (ZERO, ZERO, ZERO, ONE)))
        if _is_unitary(rows):
            accepted += 1
            assert langlands_extract(p).u.rows == rows
        else:
            with pytest.raises(ShapeError) as info:
                langlands_extract(p)
            assert str(info.value) == (
                f"middle block {rows} is not in U(2; Z[w])")
    assert accepted == 72


def on_cone(point):
    """2 Re(c1/n) = -|c2/n|^2 - |c3/n|^2, multiplied out by n^2."""
    c1, c2, c3, n = point
    return (2 * c1.a - c1.b) * n == -(c2.norm() + c3.norm())


def test_image_of_infinity():
    with pytest.raises(DomainError):
        image_of_infinity(N1)
    assert image_of_infinity(R * N1) == (ZERO, ZERO, ZERO, 1)
    # N^-1 R sends infinity to (w^2, -1, 0).
    assert image_of_infinity(N1.inverse() * R) == (
        EisensteinInt(-1, -1), -ONE, ZERO, 1)
    # c_i = g_i1 conj(g41) over n = |g41|^2, not reduced: here g41 = -2w,
    # and g(infinity) = (-2/4, 4/4, 0) = (-1/2, 1, 0).
    g = R * N1 * R * B * N1 * R * N1
    assert g.rows[3][0] == EisensteinInt(0, -2)
    assert image_of_infinity(g) == (EisensteinInt(-2), EisensteinInt(4), ZERO, 4)


def test_image_on_cone():
    rng = random.Random(5)
    count = 0
    while count < 100:
        g = random_member(rng)
        if g.fixes_infinity():
            continue
        assert on_cone(image_of_infinity(g))
        count += 1


def test_boundary_point_rejects_off_cone():
    # The cone check is not vacuous: a non-member (the inversion with
    # g11 = 1) sends infinity to a point off the cone.
    rows = [list(row) for row in R.rows]
    rows[0][0] = ONE
    g = non_member(rows)
    assert not check_membership(g.rows)
    assert image_of_infinity(g) == (ONE, ZERO, ZERO, 1)
    assert not on_cone(image_of_infinity(g))


def test_flat_layout_is_by_columns():
    # Entry (i, j) sits at flat[8j + 2i], flat[8j + 2i + 1]; rows, the
    # rows constructor and the JSON codec stay row-major.  g has no
    # symmetry, so a transposed edge would show.
    g = translation_matrix((ONE, OMEGA), 2) * rotation_matrix(U2)
    rows = g.rows
    assert rows != tuple(zip(*rows))
    assert (rows[1][3], rows[2][3], rows[3][0]) == (ONE, OMEGA, ZERO)
    for i in range(4):
        for j in range(4):
            assert g.flat[8 * j + 2 * i:8 * j + 2 * i + 2] == (rows[i][j].a,
                                                              rows[i][j].b)
    assert GroupMatrix(rows).flat == g.flat
    grid = [[[e.a, e.b] for e in row] for row in rows]
    assert g.to_json() == {"matrix": grid}
    assert json.loads(matrix_to_json_text(g)) == {"matrix": grid}
    assert matrix_from_json_text(json.dumps({"matrix": grid})).flat == g.flat


def test_json_round_trip():
    rng = random.Random(6)
    for _ in range(30):
        g = random_member(rng)
        assert matrix_from_json_text(matrix_to_json_text(g)) == g


def test_json_big_entries():
    big = translation_matrix((EisensteinInt(10 ** 20, 2), ZERO), 10 ** 20)
    text = matrix_to_json_text(big)
    assert '"' in text  # oversized values ride as decimal strings
    assert matrix_from_json_text(text) == big


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json_text("{")
    with pytest.raises(ValueError):
        matrix_from_json_text('{"matrix": [[1, 2], [3, 4]]}')
    with pytest.raises(ValueError):
        matrix_from_json_text('[1, 2, 3]')
    # An entry is a pair [a, b], so "10" must not pass as 1 + 0w, nor
    # [1, 0, 99] as [1, 0].  Integer strings are plain ASCII decimals, the
    # only form encode_int emits; int() would take all three shown here.
    for entry in ("10", [1, 0, 99], ["1_0", 0], [" 7 ", 0], ["٣", 0]):
        rows = [[encode_pair(e) for e in row] for row in identity().rows]
        rows[0][0] = entry
        with pytest.raises(ValueError):
            matrix_from_json_text(json.dumps({"matrix": rows}))


def test_json_reports_first_bad_entry_in_reading_order():
    # Entries are decoded row by row: (0, 3) comes before (1, 0), although
    # (1, 0) comes first column by column or bottom-up.
    rows = [[encode_pair(e) for e in row] for row in identity().rows]
    rows[0][3] = ["bad03", 0]
    rows[1][0] = ["bad10", 0]
    with pytest.raises(ValueError) as info:
        matrix_from_json_text(json.dumps({"matrix": rows}))
    assert "bad03" in str(info.value)
    assert "bad10" not in str(info.value)
    # Mixed errors: a bad value before a bad shape reports the value, and
    # the reverse the shape, each with its own message; within an entry, a
    # comes before b.
    pair = "expected an Eisenstein integer pair [a, b]"
    for bad, message in (
            ({(0, 1): ["x", 0], (0, 2): [1]},
             "expected a decimal integer string, got 'x'"),
            ({(0, 1): [1], (0, 2): ["x", 0]}, pair),
            ({(1, 3): [0, 2.5], (2, 0): {}}, "expected an integer, got 2.5"),
            ({(1, 3): {}, (2, 0): [0, "y"]}, pair),
            ({(2, 2): [True, 1.5]}, "expected an integer, got True"),
            ({(2, 2): [0, True], (3, 0): [1.5, 0]},
             "expected an integer, got True"),
            ({(3, 1): [1.5, 0]}, "expected an integer, got 1.5"),
            ({(3, 3): {}}, pair),
            ({(0, 0): [1, 0, 99], (0, 1): [True, 0]}, pair)):
        rows = [[encode_pair(e) for e in row] for row in identity().rows]
        for (i, j), entry in bad.items():
            rows[i][j] = entry
        with pytest.raises(ValueError) as info:
            matrix_from_json_text(json.dumps({"matrix": rows}))
        assert type(info.value) is ValueError
        assert str(info.value) == message, bad


def test_json_rejects_non_member():
    rows = [[encode_pair(e) for e in row] for row in identity().rows]
    rows[0][0] = [2, 0]
    with pytest.raises(NotMemberError) as info:
        matrix_from_json_text('{"matrix": ' + str(rows) + '}')
    assert "entry" in str(info.value)

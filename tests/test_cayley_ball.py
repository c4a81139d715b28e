"""Word quality against exact distances on the Cayley ball.

A breadth-first search over N, N^-1, A, B, B^-1 and R (A and R are
involutions) gives every element within radius 5 with its exact word
distance: 2,615 elements in spheres of 1, 6, 27, 119, 495 and 1,967.
Each is decomposed, and the output letters (`Word.letters()`) are
compared with the distance.

Only the word is scored.  The unit is a separate output field, and the
unit correction is not counted; the results with a unit other than 1
number 0, 0, 2, 20 and 137 at distances 1 to 5.

Measured at the time of writing, per distance 1 to 5: mean output letters
1.00, 2.00, 3.32, 4.81 and 6.47 (totals 6, 54, 395, 2,383 and 12,732),
maxima 1, 2, 13, 15 and 31.  The test pins the totals and the maxima as
upper bounds.  A change that shortens words tightens them; none loosens
them.  (With translations written as N^a and B^-2 N^b B^2 only, the
totals were 6, 82, 706, 4,457 and 23,940 and the maxima 1, 12, 23, 28 and
59.)  Every element at distance 2 gets a shortest word.  At distance 6,
outside the test, the 7,565 elements average 8.29 letters, at most 32
(15.42 and 60 with N^a and B^-2 N^b B^2 only).

The search keeps one word per element, and every edge g s that lands on
an element h already seen gives a relator w(g) s w(h)^-1.  Cyclically
reduced and taken up to rotation and inversion, the radius-5 search
meets 40 distinct ones, each evaluating to the identity, with 2, 1, 3, 5
and 29 at 4, 7, 8, 9 and 10 letters (normalize already erases A^2, R^2
and B^6).  These are relations found, not a presentation: none is known
for this group (Falbel and Parker gave one for PU(2,1; Z[w]) in Duke
Math. J. 131, 2006).
"""

from collections import Counter
from functools import lru_cache

from picard31.decomposer import decompose
from picard31.eisenstein import ONE
from picard31.hermitian import identity
from picard31.words import Word, evaluate, normalize, parse

GENERATORS = ("N", "N^-1", "A", "B", "B^-1", "R")
SPHERE_SIZES = (6, 27, 119, 495, 1967)
MAX_TOTAL_LETTERS = (6, 54, 395, 2383, 12732)
MAX_LETTERS = (1, 2, 13, 15, 31)
RELATORS_BY_LETTERS = {4: 2, 7: 1, 8: 3, 9: 5, 10: 29}


def canonical(word):
    """The items of word cyclically reduced, then the least of the
    rotations of them and of their inverse; () if word cancels."""
    items = word.items
    while len(items) > 1 and items[0][0] == items[-1][0]:
        (gen, e), (_, f) = items[-1], items[0]
        items = normalize(Word(((gen, e + f),) + items[1:-1])).items
    if not items:
        return ()
    forms = (items, Word(items).inverse().items)
    return min(f[i:] + f[:i] for f in forms for i in range(len(f)))


@lru_cache(maxsize=None)
def search(radius):
    """The spheres of radius 1..radius around the identity, each a list of
    (element, word) for the elements first reached at that distance, and
    the set of canonical relators met on the way."""
    steps = [(s, evaluate(s)) for s in map(parse, GENERATORS)]
    start = identity()
    frontier = [(start, Word())]
    words = {start.flat: Word()}
    out, relators = [], set()
    for _ in range(radius):
        sphere = []
        for g, w in frontier:
            for s, m in steps:
                h, v = g * m, w * s
                seen = words.get(h.flat)
                if seen is None:
                    words[h.flat] = v
                    sphere.append((h, v))
                else:
                    relators.add(canonical(v * seen.inverse()))
        out.append(sphere)
        frontier = sphere
    relators.discard(())
    return out, relators


def test_word_letters_within_pinned_bounds_on_radius_5_ball():
    balls, _ = search(5)
    assert tuple(len(s) for s in balls) == SPHERE_SIZES
    for d, (sphere, total_bound, max_bound) in enumerate(
            zip(balls, MAX_TOTAL_LETTERS, MAX_LETTERS), start=1):
        results = [decompose(g) for g, _ in sphere]
        letters = [r.word.letters() for r in results]
        # A word with unit 1 spells g itself, so it is no shorter than the
        # distance; with another unit it spells a different element.
        assert all(n >= d for n, r in zip(letters, results) if r.unit == ONE)
        assert sum(letters) <= total_bound, (d, sum(letters) / len(letters))
        assert max(letters) <= max_bound, d


def test_decompose_words_are_in_normal_form_on_radius_5_ball():
    balls, _ = search(5)
    for sphere in balls:
        for g, _ in sphere:
            word = decompose(g).word
            assert normalize(word) == word


def test_relators_from_radius_5_ball():
    balls, relators = search(5)
    for d, sphere in enumerate(balls, start=1):
        assert all(w.letters() == d and evaluate(w) == g for g, w in sphere)
    assert all(evaluate(Word(r)) == identity() for r in relators)
    assert Counter(Word(r).letters() for r in relators) == RELATORS_BY_LETTERS
    # R commutes with A and with B, and N = (B N B^-1)(B^-1 N B): the
    # horizontal steps -w and 1 + w of the two conjugates add up to N's 1.
    for text in ("A R A R", "B^-1 R B R", "N^-1 B N B^-2 N B"):
        assert canonical(parse(text)) in relators, text

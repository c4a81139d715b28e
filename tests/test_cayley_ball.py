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
1.00, 3.04, 5.93, 9.00 and 12.17 (totals 6, 82, 706, 4,457 and 23,940),
maxima 1, 12, 23, 28 and 59.  The test pins the totals and the maxima as
upper bounds.  A change that shortens words tightens them; none loosens
them.
"""

from picard31.decomposer import decompose
from picard31.eisenstein import ONE
from picard31.hermitian import identity
from picard31.words import evaluate, parse

GENERATORS = ("N", "N^-1", "A", "B", "B^-1", "R")
SPHERE_SIZES = (6, 27, 119, 495, 1967)
MAX_TOTAL_LETTERS = (6, 82, 706, 4457, 23940)
MAX_LETTERS = (1, 12, 23, 28, 59)


def spheres(radius):
    """The spheres of radius 1..radius around the identity, each a list of
    the elements first reached at that distance, keyed by their flat ints."""
    gens = [evaluate(parse(text)) for text in GENERATORS]
    frontier = [identity()]
    seen = {frontier[0].flat}
    out = []
    for _ in range(radius):
        sphere = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h.flat not in seen:
                    seen.add(h.flat)
                    sphere.append(h)
        out.append(sphere)
        frontier = sphere
    return out


def test_word_letters_within_pinned_bounds_on_radius_5_ball():
    balls = spheres(5)
    assert tuple(len(s) for s in balls) == SPHERE_SIZES
    for d, (sphere, total_bound, max_bound) in enumerate(
            zip(balls, MAX_TOTAL_LETTERS, MAX_LETTERS), start=1):
        results = [decompose(g) for g in sphere]
        letters = [r.word.letters() for r in results]
        # A word with unit 1 spells g itself, so it is no shorter than the
        # distance; with another unit it spells a different element.
        assert all(n >= d for n, r in zip(letters, results) if r.unit == ONE)
        assert sum(letters) <= total_bound, (d, sum(letters) / len(letters))
        assert max(letters) <= max_bound, d

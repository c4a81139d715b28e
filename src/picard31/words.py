"""Words over the four group generators and their evaluation.

Generators: N (the basic Heisenberg translation by ((1,0), sqrt(3))),
A and B (rotations by the two generators of U(2; Z[w])), and R (the
inversion).  A word is a sequence of generator powers, each item a pair
(letter, exponent) whose letter is the string "N", "A", "B" or "R" that
the word text uses; evaluation multiplies the corresponding matrices.
Normal form merges adjacent equal generators and reduces exponents by the
generator orders (A^2 = R^2 = I, B^6 = I, N of infinite order).
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from .eisenstein import MU_POWERS, ONE, EisensteinInt
from .errors import WordParseError
from .hermitian import GroupMatrix, heisenberg_corner
from .jsonutil import decode_pair, encode_pair


class _Letter(str):
    """A letter as normalize writes it: equal to and hashed as its string,
    which value gives back (bench/run.py reads item.value of the words
    verify evaluates)."""
    value = property(str.__str__)


_LETTER = {c: _Letter(c) for c in "NABR"}


class Word:
    """Immutable sequence of (letter, exponent) items, letter one of "N",
    "A", "B", "R", stored as given; parse is what validates outside text."""

    __slots__ = ("items",)

    def __init__(self, items=()):
        self.items = tuple(items)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __mul__(self, other: Word) -> Word:
        return normalize(Word(self.items + other.items))

    def inverse(self) -> Word:
        return normalize(Word(tuple((g, -e) for g, e in reversed(self.items))))

    def letters(self) -> int:
        """Total letter count: the sum of absolute exponents."""
        return sum(abs(e) for _, e in self.items)

    def __eq__(self, other) -> bool:
        if isinstance(other, Word):
            return self.items == other.items
        return NotImplemented

    def __hash__(self):
        return hash(self.items)

    def __repr__(self) -> str:
        return f"Word({serialize(self)!r})"

    def __str__(self) -> str:
        return serialize(self)


def normalize(word: Word) -> Word:
    """Merge adjacent equal generators, reduce by orders, drop trivial factors.

    A factor that cancels to the identity exposes the entry below it, which
    later items can then merge with, so this runs against a stack rather than
    the raw neighbor pairs.  The stack never holds two adjacent equal
    generators, so one merge per incoming item is enough.  Exponents of B
    reduce to {-2, ..., 3}, of A and R to {0, 1}; N keeps its exponent.
    Each kept letter is written as its _Letter.  It normalizes text, Word
    arithmetic, the rotation table and the decomposer's memoized pieces;
    join keeps a word built from pieces in normal form in it.
    """
    stack: list[tuple[str, int]] = []
    for gen, exp in word.items:
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if gen == "B":
            exp = (exp + 2) % 6 - 2
        elif gen != "N":
            exp %= 2
        if exp:
            stack.append((_LETTER.get(gen, gen), exp))
    return Word(stack)


def join(stack: list, tail) -> list:
    """stack extended by the items of tail, both in normal form, as
    normalize would leave their concatenation; returns stack.

    Only the junction can merge: each item of tail that meets its own
    letter on top of the stack merges with it by normalize's exponent rule,
    and a merge that cancels exposes the item below to the next one.  At
    the first item that does not cancel, the rest of tail is normal against
    what is below and goes on in bulk.  Items keep the letters tail gives
    them.
    """
    i = 0
    for gen, exp in tail:
        if not stack or stack[-1][0] != gen:
            break
        exp += stack.pop()[1]
        exp = (exp + 2) % 6 - 2 if gen == "B" else exp if gen == "N" else exp % 2
        i += 1
        if exp:
            stack.append((gen, exp))
            break
    stack += tail[i:]
    return stack


_MU = tuple((mu.a, mu.b) for mu in MU_POWERS)  # no EisensteinInt read per letter


def evaluate(word: Word, unit: EisensteinInt = ONE) -> GroupMatrix:
    """unit_correction(unit) times the product of the word's generator powers
    (ValueError on a non-unit).

    N, A and B fix infinity and R does not, so a word is a chain of N/A/B
    runs joined by R's.  Each run is composed in small ints as one pending
    element P = T(tau, k) Rot(u): N^e = T((e, 0), e) moves left past Rot(u)
    as T(u (e, 0), e), and B^e and A^e multiply u on the right.  At each R
    and at the end, P is applied to the four columns of GroupMatrix's
    layout, 8-int tuples starting from the identity's, in one straight-line
    pass: each column is unpacked once and the new columns 2, 3 and 4 are
    one tuple expression each.  Units reach the big columns only at the
    end: columns 2 and 3 of the product are held as mu^f2 and mu^f3 times
    the stored ones, so Rot(u) and R's signs move only f2, f3 and the
    column order, and T(tau, k) acts on the stored columns as T(sigma, k)
    with sigma_j = mu^f_j tau_j.  The closing twist multiplies rows 2 and
    3 of each column by mu^f and, for unit = mu^d0 (which commutes with
    every column operation), rows 1 and 4 by mu^(d0 + f); f is 0, f2, f3, 0.
    """
    for d0, mu in enumerate(MU_POWERS):  # the comparisons `unit in MU_POWERS` makes
        if mu == unit:
            break
    else:
        raise ValueError(f"{unit!r} is not a unit of Z[w]")
    c1, c2, c3, c4 = ((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0),
                      (0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0))
    f2 = f3 = 0
    # P: tau = (t1a + t1b w, t2a + t2b w), and u holds mu^d1 in its first
    # column and mu^d2 in its second, on the diagonal or, if anti, off it.
    t1a = t1b = t2a = t2b = k = d1 = d2 = 0
    anti = False
    # (None, 1) marks the end of the word, where P is applied once more.
    for gen, e in word.items + ((None, 1),):
        if gen == "N":
            # u (e, 0) = e mu^d1 in coordinate 2 if anti, else 1; k gains e
            # and the w-coefficient of conj(u (e, 0)) times that tau_j.
            p, q = _MU[d1]
            va, vb = e * p, e * q
            if anti:
                k += e + va * t2b - vb * t2a
                t2a += va
                t2b += vb
            else:
                k += e + va * t1b - vb * t1a
                t1a += va
                t1b += vb
        elif gen == "B":
            d1 = (d1 + e) % 6
        elif gen == "A":
            if e % 2:
                d1, d2, anti = d2, d1, not anti
        elif e % 2:
            if t1a or t1b or t2a or t2b or k:
                # T(sigma, k) on the stored columns: c4 gains
                # c1 corner + c2 sigma1 + c3 sigma2, and c2 and c3 lose
                # conj(sigma1) c1 and conj(sigma2) c1, with
                # (p + qw)(c + dw) = (pc - qd) + (pd + qc - qd)w and
                # conj(sigma_j) = s_jc - s_jb w.
                (p2, q2), (p3, q3) = _MU[f2], _MU[f3]
                s1a = p2 * t1a - q2 * t1b
                s1b = p2 * t1b + q2 * (t1a - t1b)
                s2a = p3 * t2a - q3 * t2b
                s2b = p3 * t2b + q3 * (t2a - t2b)
                ea, eb = heisenberg_corner(
                    s1a * s1a - s1a * s1b + s1b * s1b
                    + s2a * s2a - s2a * s2b + s2b * s2b, k)
                ed, s1c, s2c = ea - eb, s1a - s1b, s2a - s2b
                a1, b1, a2, b2, a3, b3, a4, b4 = c1
                x1, y1, x2, y2, x3, y3, x4, y4 = c2
                u1, v1, u2, v2, u3, v3, u4, v4 = c3
                g1, h1, g2, h2, g3, h3, g4, h4 = c4
                c2 = (x1 - s1c * a1 - s1b * b1, y1 + s1b * a1 - s1a * b1,
                      x2 - s1c * a2 - s1b * b2, y2 + s1b * a2 - s1a * b2,
                      x3 - s1c * a3 - s1b * b3, y3 + s1b * a3 - s1a * b3,
                      x4 - s1c * a4 - s1b * b4, y4 + s1b * a4 - s1a * b4)
                c3 = (u1 - s2c * a1 - s2b * b1, v1 + s2b * a1 - s2a * b1,
                      u2 - s2c * a2 - s2b * b2, v2 + s2b * a2 - s2a * b2,
                      u3 - s2c * a3 - s2b * b3, v3 + s2b * a3 - s2a * b3,
                      u4 - s2c * a4 - s2b * b4, v4 + s2b * a4 - s2a * b4)
                c4 = (g1 + ea * a1 - eb * b1 + s1a * x1 - s1b * y1 + s2a * u1 - s2b * v1,
                      h1 + eb * a1 + ed * b1 + s1b * x1 + s1c * y1 + s2b * u1 + s2c * v1,
                      g2 + ea * a2 - eb * b2 + s1a * x2 - s1b * y2 + s2a * u2 - s2b * v2,
                      h2 + eb * a2 + ed * b2 + s1b * x2 + s1c * y2 + s2b * u2 + s2c * v2,
                      g3 + ea * a3 - eb * b3 + s1a * x3 - s1b * y3 + s2a * u3 - s2b * v3,
                      h3 + eb * a3 + ed * b3 + s1b * x3 + s1c * y3 + s2b * u3 + s2c * v3,
                      g4 + ea * a4 - eb * b4 + s1a * x4 - s1b * y4 + s2a * u4 - s2b * v4,
                      h4 + eb * a4 + ed * b4 + s1b * x4 + s1c * y4 + s2b * u4 + s2c * v4)
            if anti:
                c2, c3, f2, f3 = c3, c2, (f3 + d1) % 6, (f2 + d2) % 6
            else:
                f2, f3 = (f2 + d1) % 6, (f3 + d2) % 6
            if gen is None:
                break
            # R: (c1, c2, c3, c4) -> (c4, -c2, -c3, c1), with mu^3 = -1.
            c1, c4, f2, f3 = c4, c1, (f2 + 3) % 6, (f3 + 3) % 6
            t1a = t1b = t2a = t2b = k = d1 = d2 = 0
            anti = False
    flat = ()
    for (a1, b1, a2, b2, a3, b3, a4, b4), f in ((c1, 0), (c2, f2), (c3, f3), (c4, 0)):
        (p, q), (r, s) = _MU[(d0 + f) % 6], _MU[f]
        flat += (p * a1 - q * b1, (p - q) * b1 + q * a1,
                 r * a2 - s * b2, (r - s) * b2 + s * a2,
                 r * a3 - s * b3, (r - s) * b3 + s * a3,
                 p * a4 - q * b4, (p - q) * b4 + q * a4)
    return GroupMatrix.from_flat(flat)


# --- text format ------------------------------------------------------------

# The word grammar, built from one item pattern: a generator letter with an
# optional '^' and ASCII integer ([0-9], as \d also takes digits such as
# '²' and '٣').  A letter with '^' but no integer stops it.  \s is exactly
# str.isspace, the whitespace str.split splits at, so a word is its
# str.split tokens and each token is items with nothing between them.
_ITEM = r"([NABR])(?:\^([+-]?[0-9]+)|(?!\^))"
_ITEMS = re.compile(_ITEM)
_WORD = re.compile(rf"\s*(?:{_ITEM}\s*)*")
_EXPONENT_START = re.compile(r"[NABR]\^[+-]?")
_DIGITS = re.compile(r"[0-9]+")  # in a word, only exponents hold digits
_DOUBLED = re.compile("NN|AA|BB|RR")  # where normal pieces can still merge
_EXPONENTS = str.maketrans("", "", "^-0123456789")  # leaves a token's letters


def _spelled(gen: str, exp: int) -> str:
    """An item's text, as serialize writes it."""
    return gen if exp == 1 else f"{gen}^{exp}"


# Each item normalize writes with |exponent| <= 32 (N^+-1..32, B^-2..3
# but 0, A and R), keyed by its text as a plain str, and back.
_TOKENS = {str(_spelled(gen, exp)): (gen, exp)
           for c in "NABR" for e in range(-32, 33)
           for gen, exp in normalize(Word(((c, e),))).items}
_TEXT = {item: token for token, item in _TOKENS.items()}


def parse(text: str) -> Word:
    """Parse the word syntax: generator letters with optional ^exponent,
    separated by whitespace.  Returns the normalized word; WordParseError
    gives the byte offset where the grammar stops, where an exponent's
    digits should start, or where those of an exponent longer than
    Python's int/str conversion limit start.

    Each str.split token is looked up in _TOKENS; only when one is not
    there does the whole text go through _scan.  Table tokens are normal
    items that never cancel, so with no letter repeated across neighbours
    they already form the reduced word, and normalize runs only when
    _DOUBLED finds such a repeat among their letters."""
    tokens = text.split()
    try:
        items = tuple(map(_TOKENS.__getitem__, tokens))
    except KeyError:
        return _scan(text)
    if _DOUBLED.search("".join(tokens).translate(_EXPONENTS)) is None:
        return Word(items)
    return normalize(Word(items))


def _scan(text: str) -> Word:
    """parse in whole-text passes: the end of _WORD's match is the first
    bad character; a text it matches whole is read by _ITEMS.findall,
    where alone an exponent can pass the int/str digit limit."""
    end = _WORD.match(text).end()
    if end < len(text):
        bad_exponent = _EXPONENT_START.match(text, end)
        if bad_exponent is None:
            message = f"expected generator letter, got {text[end]!r}"
        else:
            message, end = "expected integer exponent after '^'", bad_exponent.end()
    else:
        try:
            return normalize(Word([(g, int(e) if e else 1)
                                   for g, e in _ITEMS.findall(text)]))
        except ValueError:  # an exponent past Python's int/str digit limit
            limit = sys.get_int_max_str_digits()
            end = next(m.start() for m in _DIGITS.finditer(text) if len(m[0]) > limit)
            message = f"exponent longer than the {limit}-digit int/str limit"
    raise WordParseError(message, len(text[:end].encode("utf-8")))


def serialize(word: Word) -> str:
    """Inverse of parse on normalized words: each item as its _TEXT token,
    or, when one item has none, each spelled out by _spelled."""
    try:
        return " ".join(map(_TEXT.__getitem__, word.items))
    except (KeyError, TypeError):  # TypeError: an item that is a list
        return " ".join([_spelled(*item) for item in word.items])


class DecompositionResult(NamedTuple):
    """Outcome of a full decomposition: G = unit_correction(unit) * evaluate(word)."""

    unit: EisensteinInt
    word: Word

    def to_json(self) -> dict:
        return {"unit": encode_pair(self.unit),
                "word": serialize(self.word)}

    @classmethod
    def from_json(cls, obj: dict) -> DecompositionResult:
        if not isinstance(obj, dict) or "unit" not in obj or "word" not in obj:
            raise ValueError('expected an object with "unit" and "word" keys')
        unit, word = obj["unit"], obj["word"]
        if not isinstance(word, str):
            raise ValueError("word must be a string")
        unit = decode_pair(unit)
        if not unit.is_unit():
            raise ValueError(f"unit {unit} is not a unit of Z[w]")
        return cls(unit=unit, word=parse(word))

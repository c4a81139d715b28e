"""Words over the four group generators and their evaluation.

Generators: N (the basic Heisenberg translation by ((1,0), sqrt(3))),
A and B (rotations by the two generators of U(2; Z[w])), and R (the
inversion).  A word is a sequence of generator powers; evaluation
multiplies the corresponding matrices.  Normal form merges adjacent equal
generators and reduces exponents by the generator orders (A^2 = R^2 = I,
B^6 = I, N of infinite order).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .eisenstein import MU_POWERS, ONE, EisensteinInt
from .errors import WordParseError
from .hermitian import GroupMatrix, unit_correction
from .jsonutil import decode_pair, encode_pair


class Generator(Enum):
    N = "N"
    A = "A"
    B = "B"
    R = "R"


class Word:
    """Immutable sequence of (Generator, int) items, stored as given; parse
    is what validates outside text."""

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

    def syllable_length(self) -> int:
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
    """
    N, B = Generator.N, Generator.B
    stack: list[tuple[Generator, int]] = []
    for gen, exp in word.items:
        if stack and stack[-1][0] is gen:
            exp += stack.pop()[1]
        if gen is B:
            exp = (exp + 2) % 6 - 2
        elif gen is not N:
            exp %= 2
        if exp:
            stack.append((gen, exp))
    return Word(stack)


def evaluate(word: Word, unit: EisensteinInt = ONE) -> GroupMatrix:
    """unit_correction(unit) times the product of the word's generator powers.

    Works on the four columns of GroupMatrix's layout as int lists, seeded
    with the diagonal unit_correction(unit) (ValueError on a non-unit).
    Each generator power is a short column operation (N mixes columns 1,
    2, 4; A swaps columns 2 and 3; B scales column 2; R permutes and
    negates).
    """
    u = unit_correction(unit).flat
    cols = [list(u[c:c + 8]) for c in (0, 8, 16, 24)]
    for gen, e in word.items:
        if gen is Generator.N:
            # c4 += (p + e*w) c1 + e c2, with p + e*w the corner of N^e,
            # written inline rather than by heisenberg_corner because this
            # runs once per letter.
            c1, c2, _, c4 = cols
            p = (e - e * e) // 2
            for i in _ROWS:
                x, y, a2, b2 = c1[i], c1[i + 1], c2[i], c2[i + 1]
                c4[i] += p * x + e * (a2 - y)
                c4[i + 1] += p * y + e * (x - y + b2)
                c2[i], c2[i + 1] = a2 - e * x, b2 - e * y
        elif gen is Generator.A:
            if e % 2:
                cols[1], cols[2] = cols[2], cols[1]
        elif gen is Generator.B:
            mu = MU_POWERS[e % 6]
            p, q, c2 = mu.a, mu.b, cols[1]
            for i in _ROWS:
                a, b = c2[i], c2[i + 1]
                c2[i], c2[i + 1] = a * p - b * q, a * q + b * p - b * q
        elif e % 2:
            c1, c2, c3, c4 = cols
            cols = [c4, [-v for v in c2], [-v for v in c3], c1]
    c1, c2, c3, c4 = cols
    return GroupMatrix.from_flat(tuple(c1 + c2 + c3 + c4))


# Offsets of the four rows' (a, b) pairs in a flat column.
_ROWS = (0, 2, 4, 6)


# --- text format ------------------------------------------------------------

_LETTERS = {g.value: g for g in Generator}
# ASCII only: str.isdigit also accepts digits such as '²' and '٣'.
_DIGITS = frozenset("0123456789")


def parse(text: str) -> Word:
    """Parse the word syntax: generator letters with optional ^exponent,
    separated by whitespace.  Returns the normalized word."""
    items = []
    i = 0
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    while i < n:
        ch = text[i]
        gen = _LETTERS.get(ch)
        if gen is None:
            raise WordParseError(f"expected generator letter, got {ch!r}",
                                 _byte_offset(text, i))
        i += 1
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            start = i
            if i < n and text[i] in "+-":
                i += 1
            if i >= n or text[i] not in _DIGITS:
                raise WordParseError("expected integer exponent after '^'",
                                     _byte_offset(text, i))
            while i < n and text[i] in _DIGITS:
                i += 1
            exp = int(text[start:i])
        items.append((gen, exp))
        while i < n and text[i].isspace():
            i += 1
    return normalize(Word(items))


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def serialize(word: Word) -> str:
    """Inverse of parse on normalized words."""
    parts = []
    for gen, exp in word.items:
        if exp == 1:
            parts.append(gen.value)
        else:
            parts.append(f"{gen.value}^{exp}")
    return " ".join(parts)


@dataclass(frozen=True)
class DecompositionResult:
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

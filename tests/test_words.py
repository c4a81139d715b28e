"""Word normalization, parsing, serialization, and fast evaluation.

parse is checked against a character-by-character scanner on 100,000
seeded texts and, as hypothesis properties with Unicode whitespace among
the characters, against the whole-text reading kept here as a
yardstick: the same word, or the same error message and byte offset,
also under the lowest int/str digit limit, 640.  Further tests pin the
token table to normalize and serialize, and count that parse of a
serialized certificate calls neither normalize nor the whole-text scan."""

import collections
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import generic_product
from picard31 import words
from picard31.decomposer import decompose, random_element
from picard31.eisenstein import UNITS, ZERO, EisensteinInt
from picard31.errors import WordParseError
from picard31.hermitian import identity, unit_correction
from picard31.words import (DecompositionResult, Word, evaluate, join,
                            normalize, parse, serialize)

GENS = tuple("NABR")
EXPS = (-3, -2, -1, 1, 2, 3)


def random_word(rng, max_len=20):
    return Word(tuple((rng.choice(GENS), rng.choice(EXPS))
                      for _ in range(rng.randint(0, max_len))))


def power(gen, e):
    """evaluate of the one-item word gen^e, left unnormalized."""
    return evaluate(Word(((gen, e),)))


def test_generator_power_matches_repeated_product():
    for gen in GENS:
        one = power(gen, 1)
        acc = identity()
        for e in range(9):
            assert power(gen, e) == acc
            assert power(gen, -e) == acc.inverse()
            acc = acc * one


def test_generator_orders():
    I = identity()
    assert power("A", 2) == I
    assert power("B", 6) == I
    assert power("R", 2) == I
    for j in range(1, 6):
        assert power("B", j) != I
    for j in range(1, 13):
        # N has infinite order; sample a prefix of the powers.
        assert power("N", j) != I


def test_evaluate_matches_generic_product():
    rng = random.Random(1)
    for _ in range(300):
        w = random_word(rng)
        assert evaluate(w) == generic_product(w)


def test_evaluate_empty():
    assert evaluate(Word()) == identity()


def raw_word(text):
    """The items of text as written, without parse's normalization."""
    items = []
    for token in text.split():
        gen, _, exp = token.partition("^")
        items.append((gen, int(exp) if exp else 1))
    return Word(items)


@pytest.mark.parametrize("text", [
    "",
    "R",
    # A leading R, a trailing R, and an empty run between two R's.
    "R N^2 B A N^-1",
    "N^3 B^-1 A N R",
    "N B R R A N^2",
    # A^odd between N's, so the run's rotation is antidiagonal when the
    # later N arrives.
    "N^2 B A^3 N^-5 B^2 N R N A N",
    # B exponents in one run that sum past 6.
    "B^4 N B^5 N^2 B^3 B^-13 N R B^7 N",
    # A^2 and A^-4 inside a run leave its rotation unchanged.
    "N B A^2 N^-3 B^2 A^-4 N",
])
def test_evaluate_run_edges(text):
    w = raw_word(text)
    for lam in UNITS:
        assert evaluate(w, lam) == generic_product(w, lam)


def test_evaluate_from_unit():
    # evaluate(w, lam) scales rows 1 and 4 by lam in its final pass, and
    # unit_correction(lam) is HeisenbergParam's matrix: two independent
    # paths, joined by the generic 4x4 product.
    rng = random.Random(12)
    words = [Word()] + [random_word(rng) for _ in range(40)]
    for lam in UNITS:
        for w in words:
            assert evaluate(w, lam) == unit_correction(lam) * evaluate(w)
    with pytest.raises(ValueError):
        evaluate(Word(), EisensteinInt(2))


def test_evaluate_unit_argument():
    # evaluate takes as a unit what equals one of MU_POWERS under
    # EisensteinInt.__eq__ (ints and bool included), and raises ValueError
    # on anything else: unhashable, tuple-shaped or non-unit alike.
    w = raw_word("N^2 B R A N^-1")
    for unit in UNITS:
        assert evaluate(w, unit) == generic_product(w, unit)
    for unit in (1, -1, True):
        assert evaluate(w, unit) == evaluate(w, EisensteinInt(int(unit)))
    for bad in (1.0, 2, 0, None, "x", [1, 0], (1, 0), EisensteinInt(2, 0), ZERO):
        with pytest.raises(ValueError) as info:
            evaluate(w, bad)
        assert str(info.value) == f"{bad!r} is not a unit of Z[w]"


def test_evaluate_inverse_word():
    rng = random.Random(2)
    for _ in range(100):
        w = random_word(rng)
        assert evaluate(w.inverse()) == evaluate(w).inverse()


def test_normalize_preserves_value():
    rng = random.Random(3)
    for _ in range(200):
        w = random_word(rng)
        assert evaluate(normalize(w)) == evaluate(w)


def test_normalize_merges_and_cancels():
    w = Word((("N", 2), ("N", 3)))
    assert normalize(w).items == (("N", 5),)
    w = Word((("A", 1), ("A", 1)))
    assert normalize(w).items == ()
    # Cancellation in the middle exposes a second cancellation.
    w = Word((("A", 1), ("B", 1), ("B", 5),
              ("A", 1)))
    assert normalize(w).items == ()
    w = Word((("N", 2), ("N", -2), ("R", 1)))
    assert normalize(w).items == (("R", 1),)


def test_normalize_canonical_exponents():
    assert normalize(Word((("B", 4),))).items == (("B", -2),)
    assert normalize(Word((("B", -3),))).items == (("B", 3),)
    assert normalize(Word((("A", -1),))).items == (("A", 1),)
    assert normalize(Word((("R", 3),))).items == (("R", 1),)
    rng = random.Random(4)
    for _ in range(200):
        for gen, exp in normalize(random_word(rng)).items:
            assert exp != 0
            if gen == "B":
                assert -2 <= exp <= 3
            elif gen != "N":
                assert exp == 1


@pytest.mark.parametrize("head, tail, joined", [
    # A stabilizer translation's tail against the rotation word: B^-1 B^3,
    # and A A cancelling so that B^-1 ... B merge.
    ("N B^-1", "B^3 A B", "N B^2 A B"),
    ("N^2 B^-1 A", "A B^2 A", "N^2 B A"),
    ("N B A", "A B^-1 A", "N A"),
    # A commutator's N cancelling a form's last N^x, then B^-1 B and N N^3.
    ("R B N B^-1 N^2", "N^-2 B N^3 B^-1 N^2 B N^-3 B^-1",
     "R B N^4 B^-1 N^2 B N^-3 B^-1"),
    # An empty round translation leaves R R, which exposes the rounds
    # before it.
    ("N A N A R", "R", "N A N A"),
    ("B^2 N R", "R N^-1 B", "B^3"),
    ("A B N", "N^-1 B^-1 A", ""),
    # No merge, and the empty ends.
    ("N A", "B R", "N A B R"),
    ("", "B^3 N", "B^3 N"),
    ("B^3 N", "", "B^3 N"),
])
def test_join_cascades(head, tail, joined):
    u, v = parse(head), parse(tail)
    stack = list(u.items)
    assert join(stack, v.items) is stack
    assert Word(stack) == parse(joined) == normalize(Word(u.items + v.items))


def test_letters_compared_by_value():
    # Letters equal to "N", "A", "B", "R" but not the same objects: any
    # identity test on a letter would treat them as a fifth generator.
    class Letter(str):
        pass

    rng = random.Random(19)
    words = ([raw_word("N N^-1 B^4 B^2 A A^3 R R^3 N^2 B A N^-5 R B^7 N")]
             + [random_word(rng) for _ in range(100)])
    for w in words:
        copy = Word((Letter(g), e) for g, e in w)
        assert all(g is not h for (g, _), (h, _) in zip(copy, w))
        assert normalize(copy) == normalize(w)
        # Merged: both sides could fail to merge alike, so check the form.
        merged = normalize(copy).items
        assert all(g != h for (g, _), (h, _) in zip(merged, merged[1:]))
        assert evaluate(copy) == generic_product(w)
        assert serialize(copy) == serialize(w)
        assert serialize(normalize(copy)) == serialize(normalize(w))


def test_parse_serialize_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        w = normalize(random_word(rng))
        assert parse(serialize(w)) == w


def test_serialize_spells_items_outside_the_token_table():
    # One item past the table, or not normal, or a list, and the word is
    # spelled out item by item, as parse reads it back.
    w = Word((("N", 40), ("B", 1), ("N", -33), ("R", 1)))
    assert serialize(w) == "N^40 B N^-33 R" and parse(serialize(w)) == w
    assert serialize(Word((("B", 4), ("A", 0), ("N", 1)))) == "B^4 A^0 N"
    assert serialize(Word([["N", 2], ["A", 1]])) == "N^2 A"


def test_parse_whitespace_and_exponents():
    assert parse("") == Word()
    assert parse("  \n") == Word()
    assert parse("N^+2") == Word((("N", 2),))
    assert parse("N A  B^-2\nR") == Word((("N", 1), ("A", 1),
                                          ("B", -2), ("R", 1)))
    # Parsing normalizes.
    assert parse("A A") == Word()
    assert parse("N N^-1") == Word()
    assert parse("B^7") == Word((("B", 1),))


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(WordParseError) as info:
        parse("N^2 X")
    assert info.value.offset == 4
    with pytest.raises(WordParseError) as info:
        parse("N^")
    assert info.value.offset == 2
    with pytest.raises(WordParseError) as info:
        parse("N^-")
    assert info.value.offset == 3
    with pytest.raises(WordParseError) as info:
        parse("x")
    assert info.value.offset == 0
    assert "byte" in str(info.value)
    # Only ASCII digits count: '²' and '٣' pass str.isdigit.
    for text in ("N^²", "N^٣"):
        with pytest.raises(WordParseError) as info:
            parse(text)
        assert info.value.offset == 2


def test_parse_exponent_past_int_str_limit():
    # int() refuses more digits than Python's int/str limit; parse names the
    # limit and the byte offset of the first digit of the first such exponent.
    limit = sys.get_int_max_str_digits()
    ok = "N^" + "9" * limit
    assert parse(ok) == Word((("N", int("9" * limit)),))
    over = "9" * max(5000, limit + 1)
    for text, offset in (("N^" + over, 2),
                         ("A B^-" + over, 5),
                         ("\u2003R N^+" + over, 8),
                         (ok + " B^" + over, limit + 5),
                         ("N^" + "0" * (limit + 1) + " A", 2)):
        with pytest.raises(WordParseError) as info:
            parse(text)
        assert info.value.offset == offset, text[:12]
        assert str(info.value) == (f"exponent longer than the {limit}-digit "
                                   f"int/str limit (at byte {offset})")


_DIGITS = frozenset("0123456789")


def scanner_parse(text):
    """A character-by-character scanner for the word syntax, kept as an
    independent oracle for parse's grammar, messages and byte offsets."""
    def fail(message, i):
        raise WordParseError(message, len(text[:i].encode("utf-8")))
    items = []
    i = 0
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    while i < n:
        ch = text[i]
        if ch not in "NABR":
            fail(f"expected generator letter, got {ch!r}", i)
        i += 1
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            start = i
            if i < n and text[i] in "+-":
                i += 1
            if i >= n or text[i] not in _DIGITS:
                fail("expected integer exponent after '^'", i)
            while i < n and text[i] in _DIGITS:
                i += 1
            exp = int(text[start:i])
        items.append((ch, exp))
        while i < n and text[i].isspace():
            i += 1
    return normalize(Word(items))


def parse_outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except WordParseError as exc:
        return ("error", str(exc), exc.offset)


# Characters and pieces for random word text: the syntax, whitespace
# (U+2003 included), non-ASCII digits that pass str.isdigit, and junk.
_CHARS = "NABR^+-0123456789 \t\n\u2003²٣xn"
_PIECES = ("N", "A", "B", "R", "N^2", "B^-1", "A^+3", "R^007", " ", "  ",
           "\n", "\u2003", "^", "N^", "B^-", "7", "²", "٣", "x", "n")


def test_parse_matches_scanner_on_random_text():
    rng = random.Random(16)
    outcomes = collections.Counter()
    for i in range(100_000):
        if i % 2:
            text = "".join(rng.choice(_CHARS)
                           for _ in range(rng.randint(0, 12)))
        else:
            text = "".join(rng.choice(_PIECES)
                           for _ in range(rng.randint(0, 10)))
        expected = parse_outcome(scanner_parse, text)
        assert parse_outcome(parse, text) == expected, text
        if isinstance(expected, Word):
            outcomes["word"] += 1
        else:
            outcomes["exponent" if "exponent" in expected[1] else "letter"] += 1
    # Words and both kinds of error are each well represented.
    assert min(outcomes[k] for k in ("word", "letter", "exponent")) > 5_000, outcomes


# parse as it read whole texts before it read token by token, kept as a
# yardstick: the end of the grammar's match is the first bad character, and
# a text it matches whole is read by one findall.
_YARD_WORD = re.compile(r"\s*(?:[NABR](?:\^[+-]?[0-9]+|(?!\^))\s*)*")
_YARD_ITEM = re.compile(r"([NABR])(?:\^([+-]?[0-9]+))?")
_YARD_EXPONENT_START = re.compile(r"[NABR]\^[+-]?")
_YARD_DIGITS = re.compile(r"[0-9]+")


def yardstick_parse(text):
    end = _YARD_WORD.match(text).end()
    if end < len(text):
        bad_exponent = _YARD_EXPONENT_START.match(text, end)
        if bad_exponent is None:
            message = f"expected generator letter, got {text[end]!r}"
        else:
            message, end = "expected integer exponent after '^'", bad_exponent.end()
    else:
        try:
            return normalize(Word([(g, int(e) if e else 1)
                                   for g, e in _YARD_ITEM.findall(text)]))
        except ValueError:
            limit = sys.get_int_max_str_digits()
            end = next(m.start() for m in _YARD_DIGITS.finditer(text)
                       if len(m[0]) > limit)
            message = f"exponent longer than the {limit}-digit int/str limit"
    raise WordParseError(message, len(text[:end].encode("utf-8")))


# The syntax, non-ASCII digits, junk, and ASCII and Unicode whitespace:
# U+2003 (em space), U+0085 (next line) and U+001C (file separator, which
# str.isspace counts).
_YARD_CHARS = "NABR^+-X0123456789²٣ \t\n\u2003\u0085\u001c"


# Tokens next to those of parse's table: an exponent past it, an explicit
# '+', a B exponent outside normal form, and two items in one token.
_PAST_TABLE = ("N^33", "N^-33", "N^+2", "B^-3", "NA")
_TABLE_TOKENS = tuple(sorted(words._TOKENS)) + _PAST_TABLE


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(st.one_of(
    st.text(_YARD_CHARS, max_size=24),
    st.lists(st.sampled_from(_PIECES + ("\u0085", "\u001c", "X", "NA^2B")
                             + _PAST_TABLE),
             max_size=12).map("".join),
    st.lists(st.tuples(st.sampled_from((" ", "\u2003", "\u0085")),
                       st.sampled_from(_TABLE_TOKENS)),
             max_size=10).map(lambda pieces: "".join(map("".join, pieces)))))
def test_parse_matches_whole_text_yardstick(text):
    # The same Word, or the same WordParseError message and byte offset.
    assert parse_outcome(parse, text) == parse_outcome(yardstick_parse, text)


def test_split_and_regex_whitespace_agree_on_every_code_point():
    # parse splits with str.split, and its error path scans with \s; both
    # must take the same characters for whitespace.
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\S+", text) == text.split()


def test_token_memo_keeps_no_token_a_digit_limit_can_refuse():
    # Nothing parse reads under one int/str digit limit is reused under
    # another: a 640-character token reads the same under the lowest limit,
    # and a longer exponent read under 4,300 still fails under 640 where its
    # digits start.
    kept = "N^" + "7" * 638
    text = "B N^" + "7" * 700
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert parse(text) == Word((("B", 1), ("N", int("7" * 700))))
        assert parse(kept) == Word((("N", int("7" * 638)),))
        sys.set_int_max_str_digits(640)
        assert parse(kept) == Word((("N", int("7" * 638)),))
        with pytest.raises(WordParseError) as info:
            parse(text)
        assert info.value.offset == 4
        assert str(info.value) == ("exponent longer than the 640-digit "
                                   "int/str limit (at byte 4)")
    finally:
        sys.set_int_max_str_digits(limit)


# An item whose exponent has 630-650 digits: on either side of the lowest
# nonzero int/str digit limit.
_EDGE_ITEMS = st.builds(
    lambda gen, sign, digit, n: f"{gen}^{sign}{digit * n}",
    st.sampled_from(GENS), st.sampled_from(("", "+", "-")),
    st.sampled_from("0123456789"), st.integers(630, 650))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(_EDGE_ITEMS, st.sampled_from(_PIECES)), max_size=6)
       .map("".join))
def test_parse_under_lowest_digit_limit_ignores_the_memo(text):
    # Under limit 640, after a read under 4,300, parse twice gives the same
    # outcome as the yardstick.
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        parse_outcome(parse, text)
        sys.set_int_max_str_digits(640)
        warm = parse_outcome(parse, text)
        assert warm == parse_outcome(parse, text) == parse_outcome(yardstick_parse, text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_token_memo_is_bounded():
    # A token of many items, long or short, is outside parse's table and
    # read by the whole-text scan.
    long_token = "NA" * 600
    assert parse(long_token) == normalize(Word([("N", 1), ("A", 1)] * 600))
    assert parse("NA") == Word((("N", 1), ("A", 1)))


def test_token_table_agrees_with_normalize_and_serialize():
    # Every normal item of |exponent| <= 32 is in the table once, keyed by
    # the plain-str text serialize writes for it, with normalize's letters.
    normal = {item for gen in GENS for e in range(-32, 33)
              for item in normalize(Word(((gen, e),))).items}
    assert len(words._TOKENS) == len(normal) == 71
    assert set(words._TOKENS.values()) == normal
    for token, item in words._TOKENS.items():
        gen, e = item
        assert type(token) is str
        assert token == (gen if e == 1 else f"{gen}^{e}")
        assert normalize(Word((item,))).items == (item,)
        assert type(gen) is type(normalize(Word((item,))).items[0][0])
        assert serialize(Word((item,))) == token
        assert parse(token).items == (item,)
    assert words._TEXT == {item: token for token, item in words._TOKENS.items()}


def test_normalize_writes_the_table_items():
    # Every item normalize keeps with |exponent| <= 32 is the one tuple
    # the token table holds for it, so pieces built by normalize share it.
    rng = random.Random(8087)
    for _ in range(2000):
        raw = Word([(rng.choice(GENS), rng.randint(-40, 40))
                    for _ in range(rng.randint(0, 12))])
        for item in normalize(raw).items:
            if abs(item[1]) <= 32:
                assert item is words._TOKENS[serialize(Word((item,)))], raw
            else:
                assert item[0] == "N"


@pytest.mark.parametrize("text", [
    "R R", "B^3 B^3", "N A^2 N", "B B^-1 N", "N^0 N", "B^6 A",
    "N B^6 N^-1", "A^2", "", " \t\n"])
def test_parse_merges_normal_tokens_across_neighbours(text):
    # Each token is normal alone; its items merge or cancel with a
    # neighbour's, or a token that cancels leaves two equal letters adjacent.
    raw = Word([(g, int(e) if e else 1) for g, e in _YARD_ITEM.findall(text)])
    assert parse(text) == normalize(raw) == yardstick_parse(text)


# Tokens that are normal alone or cancel whole, and ones that merge with
# a neighbour (B^3 B^3, AN^2A A).
_NEIGHBOUR_TOKENS = ("N", "A", "B", "R", "N^-2", "B^-1", "B^2", "RA",
                     "A^2", "B^6", "N^0", "R^3", "B^3", "NAB", "AN^2A")
_SPACES = ("", " ", "  ", "\t", "\n", "\u2003")


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SPACES[1:]),
                          st.sampled_from(_NEIGHBOUR_TOKENS)), max_size=10),
       st.sampled_from(_SPACES))
def test_parse_of_merging_tokens_matches_yardstick(pieces, end):
    text = "".join(space + token for space, token in pieces) + end
    assert parse_outcome(parse, text) == parse_outcome(yardstick_parse, text)


def _certificate_texts():
    for seed in range(60):
        yield serialize(decompose(evaluate(random_element(seed, 40))).word)


def test_parsed_certificate_letters_read_value():
    # As decompose's words do, for the benchmark's letter counter: read
    # twice, and text that normalize merges.
    for text in [*_certificate_texts(), "R R N", "B^3 A B^3"]:
        for _ in range(2):
            items = parse(text).items
            assert [(gen.value, e) for gen, e in items] == list(items)


def test_parse_of_serialized_certificate_calls_no_normalize(monkeypatch):
    # Text in normal form is returned as read: parse calls normalize zero
    # times, also on a second read.
    calls = []
    normalize_ = words.normalize
    monkeypatch.setattr(words, "normalize",
                        lambda word: calls.append(word) or normalize_(word))
    for text in _certificate_texts():
        word = parse(text)
        calls.clear()
        assert parse(text) == word
        assert calls == [], text
    # Text whose letters repeat across tokens is still normalized.
    parse("R R")
    calls.clear()
    assert parse("R R") == Word() and len(calls) == 1


def test_serialized_certificates_reach_neither_scan_nor_normalize(monkeypatch):
    # Every token serialize writes for a certificate is in parse's table.
    texts = list(_certificate_texts())
    calls = []
    for name in ("_scan", "normalize"):
        monkeypatch.setattr(words, name, lambda *args, name=name: calls.append(name))
    for text in texts:
        word = parse(text)
        assert calls == [] and serialize(word) == text, text
    parse("N^33")
    parse("R R")
    assert calls == ["_scan", "normalize"]


def test_word_multiplication():
    x = parse("N^2 A")
    y = parse("A B")
    assert x * y == parse("N^2 B")
    assert serialize(x * y) == "N^2 B"


def test_letters():
    assert parse("N^-3 A B^2").letters() == 6
    assert Word().letters() == 0


def test_word_protocols():
    w = parse("N^2 A")
    assert len(w) == 2
    assert repr(w) == "Word('N^2 A')"
    assert str(w) == serialize(w)
    assert hash(w) == hash(parse(str(w)))
    # A Word equals only a Word, not its text or its items.
    assert w != "N^2 A"
    assert Word(()) != ()


def test_decomposition_result_json():
    from picard31.eisenstein import EisensteinInt

    res = DecompositionResult(unit=EisensteinInt(0, -1), word=parse("N^2 R A"))
    obj = res.to_json()
    assert obj == {"unit": [0, -1], "word": "N^2 R A"}
    assert DecompositionResult.from_json(obj) == res


@pytest.mark.parametrize("obj", [
    {},
    {"unit": [1], "word": "N"},
    {"unit": 5, "word": "N"},
    {"unit": [1, 0], "word": 5},
    [[1, 0], "N"],
    # Well-formed pairs that are not units of Z[w].
    {"unit": [2, 0], "word": "N"},
    {"unit": [0, 0], "word": ""},
])
def test_decomposition_result_json_rejects_wrong_shape(obj):
    with pytest.raises(ValueError):
        DecompositionResult.from_json(obj)

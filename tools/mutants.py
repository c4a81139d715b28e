"""Mutant check for the kernels: every listed mutant must fail the tests.

Usage: python tools/mutants.py

Each mutant is an exact (file, old text, new text) triple, and the old
text must occur exactly once in its file.  For each mutant the tree is
copied to a temporary directory (without .git and caches), the mutant is
applied there, and `python -m pytest -x -q` runs in the copy with its
own src/ first on PYTHONPATH.  A mutant the suite lets pass survives.
tests/test_mutants.py is left out of these runs: it checks that each old
text is still in its file, which no mutated copy passes, so it would
kill every mutant itself.
The unmutated copy runs first, so a suite that already fails judges
nothing, and its time bounds the others: a mutant's run is stopped after
five times as long and reported as timed out, which counts as a kill (a
mutant that makes the suite loop cannot hang the check).

Exit status: 0 when every mutant dies, 1 when one survives, 2 when the
unmutated suite fails or a triple does not match exactly once.

A survivor means a gap in the tests: the fix is a new test, and the
mutant stays in the list.  Standard library only; not collected by
pytest, whose testpaths are tests/.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECOMPOSER = "src/picard31/decomposer.py"
EISENSTEIN = "src/picard31/eisenstein.py"
HERMITIAN = "src/picard31/hermitian.py"
WORDS = "src/picard31/words.py"

# (name, file, old text, new text)
MUTANTS = [
    ("_choose: |k| dropped from the choice key", DECOMPOSER,
     "key = (nn, abs(k), k,",
     "key = (nn, 0, k,"),
    ("_choose: an n' tie never reaches the tie-break", DECOMPOSER,
     "nn <= best[0]",
     "nn < best[0]"),
    ("_choose: tie at e = -n moves up from k = -1", DECOMPOSER,
     "if e < -n or e == -n and k < -1:",
     "if e < -n or e == -n and k <= -1:"),
    ("_choose: pair bound 3 s <= 2 n dropped", DECOMPOSER,
     "            if 3 * s > top:\n                continue\n",
     ""),
    ("_choose: pair bound made strict", DECOMPOSER,
     "if 3 * s > top:",
     "if 3 * s >= top:"),
    # Making this bound strict is an equivalent mutant: 3 d = 2 n has no
    # solution, since an Eisenstein norm, d and n here, has an even power
    # of 2, so 3 d has an even one and 2 n an odd one.
    ("_choose: corner bound halved", DECOMPOSER,
     "if 3 * d <= top]",
     "if 3 * d <= n]"),
    ("_choose: the dominance test without strictness", DECOMPOSER,
     " and (s > bs or ae > be)",
     ""),
    # Dropping the dominance test is an equivalent mutant: it only skips
    # pairs whose n' is greater than the best's.
    ("_round: ratio check dropped", DECOMPOSER,
     "    if 4 * n * n_after != nn:",
     "    if False:"),
    # Its prediction from the last pair _choose squared, not its choice.
    ("_round: ratio check compared with another pair's nn", DECOMPOSER,
     "    nn, _, k, t1a, t1b, t2a, t2b = best\n",
     "    _, _, k, t1a, t1b, t2a, t2b = best\n"),
    ("_round: contraction check dropped", DECOMPOSER,
     "    if 36 * n_after > 31 * n:",
     "    if False:"),
    ("_round: sign of tau1.b flipped in row 2 of every column", DECOMPOSER,
     "-(a2 + t1a * a4 - t1b * b4)",
     "-(a2 + t1a * a4 + t1b * b4)"),
    ("_round: d = (p - q) of r4 taken as p + q", DECOMPOSER,
     "d = a4 - b4",
     "d = a4 + b4"),
    ("_decompose: n carried from n_before", DECOMPOSER,
     "            n = record[6]\n",
     "            n = record[5]\n"),
    ("_round: only column 1 updated, whatever flat holds", DECOMPOSER,
     "for j in (0, 8, 16, 24)[:len(flat) // 8]:",
     "for j in (0, 8, 16, 24)[:1]:"),
    # The lean path.  Its gate inverted (`<=` for `>`) or zeroed
    # (_LEAN_BITS = 0) is an equivalent mutant: it changes only speed, and
    # a test holds both paths to the same results and traces.
    ("_decompose: the lean self-verify dropped", DECOMPOSER,
     "if not (head * evaluate(Word(items[split:])) == g if lean",
     "if not (True if lean"),
    ("_decompose: head^-1 g read as head g", DECOMPOSER,
     "flat = (head.inverse() * g).flat",
     "flat = (head * g).flat"),
    ("_decompose: the tail split one item early", DECOMPOSER,
     "evaluate(Word(items[split:]))",
     "evaluate(Word(items[split - 1:]))"),
    ("_decompose: lam dropped from head's evaluate", DECOMPOSER,
     "head = evaluate(Word(items), unit)",
     "head = evaluate(Word(items))"),
    ("_decompose: the lean path's check of column 1 at n = 0 dropped",
     DECOMPOSER,
     "if a2 or b2 or a3 or b3 or d is None:",
     "if False:"),
    # The carried rotation: its strip, its left multiplication and its
    # twist of the next translation.
    ("_strip: nothing popped", DECOMPOSER,
     'while items and items[-1][0] in "AB":',
     "while False:"),
    ("_strip: A leaves anti unflipped", DECOMPOSER,
     "            anti = not anti\n",
     "            pass\n"),
    ("_strip: B moves the wrong column's exponent", DECOMPOSER,
     "        elif anti:\n            d2 += e\n"
     "        else:\n            d1 += e\n",
     "        elif anti:\n            d1 += e\n"
     "        else:\n            d2 += e\n"),
    ("_twist: the coordinate order kept under anti", DECOMPOSER,
     "        t1a, t1b, t2a, t2b = t2a, t2b, t1a, t1b\n",
     ""),
    ("_steps: n_before/n_after swapped in the records decompose_traced rebuilds",
     DECOMPOSER,
     "EisensteinInt(c, d)), k, n, n_after)",
     "EisensteinInt(c, d)), k, n_after, n)"),
    ("norm: the cross term added", EISENSTEIN,
     "a * (a - b)",
     "a * (a + b)"),
    # The first is equivalent for an integer denominator (e = 0), so only
    # the rounds and the Z[w]-denominator corner test can kill it.
    ("lattice_corners: q0 e dropped from w00's first coefficient", EISENSTEIN,
     "wa, wb = a - p0 * c + q0 * e,",
     "wa, wb = a - p0 * c,"),
    ("lattice_corners: n dropped from the corner (p0, q0 + 1)", EISENSTEIN,
     "(base + x - 2 * y + n, p0, q0 + 1,",
     "(base + x - 2 * y, p0, q0 + 1,"),
    ("lattice_corners: the triangle test inverted", EISENSTEIN,
     "if x >= y:",
     "if x < y:"),
    ("lattice_corners: the cross term of (p0 + 1, q0 + 1) adds pn",
     EISENSTEIN,
     "r + qn - pn)",
     "r + qn + pn)"),
    ("round_nearest: den passed to lattice_corners for n = den^2", EISENSTEIN,
     "den, 0, den * den)",
     "den, 0, den)"),
    ("stabilizer_ints: the rebuild check dropped", HERMITIAN,
     "    if _stabilizer_flat(la, lb, t1a, t1b, t2a, t2b, k, u.flat) != v:",
     "    if False:"),
    # The rebuild floors (k - |tau|^2)/2 as heisenberg_corner does, so only
    # this check sees a k of the wrong parity.
    ("stabilizer_ints: corner check dropped", HERMITIAN,
     "    if k - 2 * ca != m:",
     "    if False:"),
    ("heisenberg_corner: |tau2|^2 left out", HERMITIAN,
     " - norm(t2a, t2b)) // 2",
     ") // 2"),
    ("stabilizer_ints: |tau2|^2 left out of the corner check", HERMITIAN,
     " + norm(t2a, t2b)",
     ""),
    ("_stabilizer_flat: tau2's b-part dropped from tau* u", HERMITIAN,
     "c2 * ya + t2b * yb",
     "c2 * ya"),
    ("_stabilizer_flat: u's second column read as its first", HERMITIAN,
     "(u[0:4], u[4:8])",
     "(u[0:4], u[0:4])"),
    ("power: a multiply on every bit", EISENSTEIN,
     '        if bit == "1":\n',
     "        if True:\n"),
    ("evaluate: the anti swap takes d1 and d2 crosswise", WORDS,
     "c2, c3, f2, f3 = c3, c2, (f3 + d1) % 6, (f2 + d2) % 6",
     "c2, c3, f2, f3 = c3, c2, (f3 + d2) % 6, (f2 + d1) % 6"),
    ("evaluate: sign of N's cross term vb * t1a flipped", WORDS,
     "k += e + va * t1b - vb * t1a",
     "k += e + va * t1b + vb * t1a"),
    ("evaluate: k dropped from the pass guard", WORDS,
     "if t1a or t1b or t2a or t2b or k:",
     "if t1a or t1b or t2a or t2b:"),
    ("evaluate: B turns d1 the wrong way", WORDS,
     "d1 = (d1 + e) % 6",
     "d1 = (d1 - e) % 6"),
    ("evaluate: the closing twist drops f from rows 1 and 4", WORDS,
     "MU_PAIRS[(d0 + f) % 6]",
     "MU_PAIRS[d0]"),
    # The lean path's self-verify, head * evaluate(tail) == g, cannot see
    # this one: the tail is read from head^-1 g, so it absorbs head's N.
    ("evaluate: an R-terminated word comes out right-multiplied by N", WORDS,
     "    for gen, e in word.items + ((None, 1),):\n",
     "    for gen, e in word.items + ((\"N\", 1),) * (word.items[-1:] == ((\"R\", 1),))"
     " + ((None, 1),):\n"),
    ("normalize: B reduced to {0, ..., 5}", WORDS,
     "exp = (exp + 2) % 6 - 2\n",
     "exp = exp % 6\n"),
    ("normalize: kept items not shared", WORDS,
     "stack.append(_SHARED.get((gen, exp)) or (_LETTER.get(gen, gen), exp))",
     "stack.append((_LETTER.get(gen, gen), exp))"),
    ("normalize: the merge dropped", WORDS,
     "        if stack and stack[-1][0] == gen:\n"
     "            exp += stack.pop()[1]\n",
     ""),
    ("join: a cancel is not followed through", WORDS,
     "            stack.append((gen, exp))\n            break\n",
     "            stack.append((gen, exp))\n        break\n"),
    ("join: B not reduced at the junction", WORDS,
     '(exp + 2) % 6 - 2 if gen == "B"',
     'exp if gen == "B"'),
    ("join: the merged item also goes on with the rest of tail", WORDS,
     "        i += 1\n",
     ""),
    ("parse: a letter followed by a bare '^' taken without exponent", WORDS,
     "|(?!\\^))",
     ")?"),
    ("parse: the token pattern takes a trailing '^'", WORDS,
     'rf"\\s*(?:{_ITEM}\\s*)*")',
     'rf"\\s*(?:{_ITEM}\\s*)*\\^?")'),
    ("parse: a doubled R read as normal", WORDS,
     '_DOUBLED = re.compile("NN|AA|BB|RR")',
     '_DOUBLED = re.compile("NN|AA|BB")'),
    ("parse: the letter test skipped", WORDS,
     '    if _DOUBLED.search("".join(tokens).translate(_EXPONENTS)) is None:\n'
     "        return Word(items)\n",
     "    return Word(items)\n"),
    # Only the call count of tests/test_words.py can tell this one apart.
    ("parse: normal text normalized again", WORDS,
     '    if _DOUBLED.search("".join(tokens).translate(_EXPONENTS)) is None:\n'
     "        return Word(items)\n",
     ""),
    ("parse: the letter test reads the exponents' digits as letters", WORDS,
     '_EXPONENTS = str.maketrans("", "", "^-0123456789")',
     '_EXPONENTS = str.maketrans("", "", "^-")'),
    ("_TOKENS: a key outside normal form, B^-3, read as its raw item", WORDS,
     "_TEXT = {item: token for token, item in _TOKENS.items()}",
     '_TOKENS["B^-3"] = (_TOKENS["B"][0], -3)\n'
     "_TEXT = {item: token for token, item in _TOKENS.items()}"),
    ("_TOKENS: items with plain-str letters", WORDS,
     "_TOKENS = {str(_spelled(gen, exp)): (gen, exp)",
     "_TOKENS = {str(_spelled(gen, exp)): (str(gen), exp)"),
    ("_form_defect: row 2's conjugate part taken as a + b", HERMITIAN,
     "e0, e1, e2, e3 = a0 - b0, a1 - b1,",
     "e0, e1, e2, e3 = a0 - b0, a1 + b1,"),
    ("_form_defect: the imaginary part ignored", HERMITIAN,
     "if im or re != _J_ENTRIES[j][k]:",
     "if re != _J_ENTRIES[j][k]:"),
    ("_form_defect: the diagonal skipped", HERMITIAN,
     "for k in range(j, 4):",
     "for k in range(j + 1, 4):"),
    ("_grid: a grid with too few rows let through", HERMITIAN,
     "if len(rows) != size or",
     "if len(rows) > size or"),
    ("FiniteUnitary.flat: b and c swapped", HERMITIAN,
     "(a.a, a.b, c.a, c.b, b.a, b.b, d.a, d.b)",
     "(a.a, a.b, b.a, b.b, c.a, c.b, d.a, d.b)"),
    ("matrix_from_json_text: the form check dropped", HERMITIAN,
     "    _require_member(flat)\n    return GroupMatrix.from_flat(flat)",
     "    return GroupMatrix.from_flat(flat)"),
    # The same matrix, but the last bad entry is the one reported.
    ("matrix_from_json_text: entries decoded back to front", HERMITIAN,
     "for row in entries for e in row\n"
     "                          for x in (e if type(e) is list and len(e) == 2\n"
     "                                    else decode_coeffs(e))])",
     "for row in entries[::-1] for e in row[::-1]\n"
     "                          for x in (e[::-1] if type(e) is list and len(e) == 2\n"
     "                                    else decode_coeffs(e))][::-1])"),
    ("matrix_from_json_text: a pair's length left unchecked", HERMITIAN,
     "type(e) is list and len(e) == 2",
     "type(e) is list"),
    ("matrix_from_json_text: the column order transposed", HERMITIAN,
     "[8 * i + 2 * j + c for j in range(4)",
     "[8 * j + 2 * i + c for j in range(4)"),
    ("_translation_items: the first pair of forms taken, not the least",
     DECOMPOSER,
     "if best is None or n < best:\n                best, t, f1, f2",
     "if best is None:\n                best, t, f1, f2"),
    ("_translation_items: ties go to the last form of the first coordinate",
     DECOMPOSER,
     "n < best:\n                best, t, f1, f2 = n, v, w1, w2",
     "n <= best:\n                best, t, f1, f2 = n, v, w1, w2"),
    ("_translation_items: the N^x N^c merge left unscored", DECOMPOSER,
     "                n -= abs(x) + abs(c) - abs(x + c)\n",
     ""),
    ("_translation_items: the merge scored with a second coordinate too",
     DECOMPOSER,
     "if x and vertical and not w2:",
     "if x and vertical:"),
    ("_form: the offset of B N^-x B^-1 taken as +x", DECOMPOSER,
     "si * x + sj * y - det * x * y",
     "abs(si) * x + abs(sj) * y - det * x * y"),
    ("_form: the sign of the cross term flipped", DECOMPOSER,
     "si * x + sj * y - det * x * y",
     "si * x + sj * y + det * x * y"),
    ("_form: B^-1 N^x B written as B N^x B^-1", DECOMPOSER,
     "(1, 1, -1, 1))",
     "(1, 1, 1, 1))"),
    ("_form: the tail read from the first item", DECOMPOSER,
     'tail = word.items[-1][1] if word.items and word.items[-1][0] == "N" else 0',
     'tail = word.items[0][1] if word.items and word.items[0][0] == "N" else 0'),
    ("_coordinate_forms: forms told apart by offset alone", DECOMPOSER,
     "key = form[1:3]",
     "key = form[1]"),
    # The choice loop's two early exits made strict (n1 + second[0][0] >
    # best, n1 + n2 > best) are equivalent mutants: a pair that only ties
    # the best never replaces it.  So is the outer exit dropped: the inner
    # one then stops each later form at once.
    # The A wrapper of the second coordinate, ("A", 1) made ("A", -1), is
    # an equivalent mutant: normalize reduces A's exponent mod 2.
    # Two equivalent mutants of _commutators: the base case -4 < t < 4
    # made -3 < t < 3 (t = +-3 splits into 12 letters, not fewer than
    # 2|t| + 6), and `< 2 * abs(t) + 6` made `<=` (a search found no tie
    # for 4 <= |t| <= 200,000).
    ("_commutators: b = t // a, not the nearest", DECOMPOSER,
     "b = (2 * t + a) // (2 * a)",
     "b = t // a"),
    ("_commutators: items built without normalize, letters plain strings",
     DECOMPOSER,
     '    items = normalize(Word((("N", a), ("B", 1), ("N", b), ("B", -1),\n'
     '                            ("N", -a), ("B", 1), ("N", -b), ("B", -1)))).items\n',
     '    items = (("N", a), ("B", 1), ("N", b), ("B", -1),\n'
     '             ("N", -a), ("B", 1), ("N", -b), ("B", -1))\n'),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "*.egg-info", "out")


def run_suite(tree: Path, timeout=None) -> tuple[bool, str, float]:
    """Run pytest -x -q in tree, stopped after timeout seconds; return
    (passed, the first FAILED or ERROR line, else the last line of stdout,
    or of stderr when stdout is empty, seconds).  A run that is stopped
    has not passed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--ignore=tests/test_mutants.py"],
            cwd=tree, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, "timed out", time.perf_counter() - start
    lines = (proc.stdout.strip().splitlines()
             or proc.stderr.strip().splitlines()[-1:] or ["no output"])
    failed = [x for x in lines if x.startswith(("FAILED", "ERROR"))]
    shown = failed[0] if failed else lines[-1]
    return proc.returncode == 0, shown, time.perf_counter() - start


def in_copy(apply, timeout=None) -> tuple[bool, str, float]:
    """Copy the tree, let apply(copy) edit it, and run the suite there."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        apply(tree)
        return run_suite(tree, timeout)


def main() -> int:
    for name, path, old, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"{name}: old text occurs {count} times in {path}")
            return 2

    passed, last, secs = in_copy(lambda tree: None)
    print(f"unmutated: {'passes' if passed else 'FAILS'} ({secs:.0f} s): "
          f"{last}", flush=True)
    if not passed:
        return 2
    timeout = 5 * secs
    survivors = []
    for name, path, old, new in MUTANTS:
        def apply(tree, path=path, old=old, new=new):
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
        passed, last, secs = in_copy(apply, timeout)
        print(f"{'SURVIVED' if passed else 'killed'} ({secs:.0f} s) {name}: "
              f"{last}", flush=True)
        if passed:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

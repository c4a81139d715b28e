"""Seeded inputs, operation chains and expected outcomes of each workload.

Inputs are built from random words over N, A, B, R (exponents +-1..3, the
shape of picard31's own random_element) evaluated by the benchmark's
reference arithmetic.  Word lengths sit on an even grid over the
workload's range, so a seed changes the words but not the mix of sizes;
the corpus is then shuffled by the same seed.  A certify corpus is shuffled
in blocks that each hold every kind of input once, and runs end on a block
boundary, so every run meets each kind in the same share; a decompose-long
run ends on a whole pass over its corpus.  The program only ever sees the
generated JSON text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import reference as R

_EXPONENTS = (-3, -2, -1, 1, 2, 3)

#: The deep-nesting input from the robustness backlog: a JSON reader that
#: recurses per bracket runs out of stack on it.
DEEP_NESTING = "[" * 100000

# Certify inputs repeat this pattern of kinds: mostly genuine
# certificates, then certificates wrong by construction, non-members, and
# a fixed share of malformed text that must be rejected.
CERTIFY_KINDS = (("genuine",) * 22 + ("extra_n", "extra_n")
                 + ("wrong_unit", "wrong_unit")
                 + ("non_member", "non_member")
                 + ("bad_json", "wrong_shape", "bad_letter", "deep_nesting"))


@dataclass
class Case:
    """One corpus input: the op arguments, the genuine member it came from,
    what the reference says the op must conclude, and the letter count of
    the member's decomposition by picard31."""

    args: tuple
    source: tuple
    expected: str
    letters: int | None = None
    checked: set = field(default_factory=set)


@dataclass(frozen=True)
class Workload:
    name: str
    min_len: int
    max_len: int
    size: int
    warmup: int
    certify: bool
    # End timed runs on whole passes over the corpus, so that every input
    # weighs the same in a run that manages only a pass or two.
    whole_passes: bool = False

    @property
    def block(self) -> int:
        """Ops per block: a timed run ends on a multiple of this."""
        return len(CERTIFY_KINDS) if self.certify else 1


WORKLOADS = {w.name: w for w in (
    Workload("decompose-short", 1, 40, size=4096, warmup=32, certify=False),
    Workload("decompose-long", 1000, 3000, size=128, warmup=2, certify=False,
             whole_passes=True),
    Workload("certify", 1, 200, size=1024, warmup=32, certify=True),
)}


def random_items(rng, length: int):
    return [(rng.choice("NABR"), rng.choice(_EXPONENTS)) for _ in range(length)]


def _lengths(workload: Workload, size: int):
    span = workload.max_len - workload.min_len
    return [workload.min_len + (span * i) // max(size - 1, 1)
            for i in range(size)]


def build_cases(workload: Workload, rng, pkg, size: int | None = None):
    """The workload's corpus for one seed, shuffled, and its warm-up
    inputs: the shortest few, so warm-up work has the same size whatever
    the seed.  pkg makes the genuine certificates of the certify workload."""
    size = size or workload.size
    cases = []
    for i, length in enumerate(_lengths(workload, size)):
        m = R.evaluate(random_items(rng, length))
        text = R.matrix_json(m)
        if workload.certify:
            kind = CERTIFY_KINDS[i % len(CERTIFY_KINDS)]
            cases.append(_certify_case(kind, m, text, rng, pkg))
        else:
            cases.append(Case(args=(text,), source=m, expected=R.VALID))
    warmup = cases[:workload.warmup]
    return _shuffled(cases, workload.block, rng), warmup


def _shuffled(cases, block, rng):
    """Shuffle so that each run of `block` cases from the start holds one
    case of each position modulo `block` (for certify: one of each kind)."""
    groups = [cases[p::block] for p in range(block)]
    for group in groups:
        rng.shuffle(group)
    out = []
    for b in range(len(cases) // block):
        chunk = [group[b] for group in groups]
        rng.shuffle(chunk)
        out += chunk
    return out


def _certify_case(kind, m, text, rng, pkg):
    cert = pkg.jsonutil.canonical_dumps(
        pkg.decomposer.decompose(pkg.hermitian.matrix_from_json_text(text))
        .to_json())
    unit, items = R.read_decomposition(cert)
    if kind == "extra_n":
        cert = R.decomposition_json(unit, items + [("N", 1)])
    elif kind == "wrong_unit":
        other = rng.choice(sorted(R.UNITS - {unit}))
        cert = R.decomposition_json(other, items)
    elif kind == "non_member":
        i, j = rng.randrange(4), rng.randrange(4)
        rows = [list(row) for row in m]
        rows[i][j] = (rows[i][j][0] + 1, rows[i][j][1])
        text = R.matrix_json(rows)
    elif kind == "bad_json":
        text = text[:-1]
    elif kind == "wrong_shape":
        text = R.matrix_json(m[:3])
    elif kind == "bad_letter":
        word = R.word_text(items)
        pos = rng.randrange(len(word)) if word else 0
        while word and not word[pos].isalpha():
            pos -= 1
        cert = json.dumps({"unit": json.loads(cert)["unit"],
                           "word": word[:pos] + "X" + word[pos + 1:]})
    elif kind == "deep_nesting":
        text = DEEP_NESTING
    return Case(args=(text, cert), source=m,
                expected=R.judge_certificate(text, cert),
                letters=R.letters(items))


# --- operation chains -------------------------------------------------------
# Each looks the package's functions up at call time, so the traced run's
# call-site wrappers see these calls too.

def decompose_op(pkg, matrix_text):
    g = pkg.hermitian.matrix_from_json_text(matrix_text)
    return pkg.jsonutil.canonical_dumps(pkg.decomposer.decompose(g).to_json())


def certify_op(pkg, matrix_text, cert_text):
    g = pkg.hermitian.matrix_from_json_text(matrix_text)
    result = pkg.words.DecompositionResult.from_json(json.loads(cert_text))
    return pkg.decomposer.verify(g, result)


def op_for(workload: Workload):
    return certify_op if workload.certify else decompose_op


# --- outcomes ---------------------------------------------------------------

def outcome(workload: Workload, pkg, case: Case, out) -> str:
    """Name what an op concluded; out is its return value or, when it
    raised, the exception class."""
    if isinstance(out, type):
        errors = pkg.errors
        if workload.certify and issubclass(out, errors.NotMemberError):
            return R.NOT_MEMBER
        if workload.certify and issubclass(
                out, (ValueError, errors.WordParseError)):
            return R.MALFORMED
        return "raised " + out.__name__
    if workload.certify:
        return R.VALID if out is True else R.INVALID
    if out in case.checked:
        return R.VALID
    try:
        unit, items = R.read_decomposition(out)
    except R.Malformed:
        return "unreadable decomposition"
    if not R.decomposition_holds(case.source, unit, items):
        return "wrong decomposition"
    case.checked.add(out)
    case.letters = R.letters(items)
    return R.VALID

"""Command line interface.

Subcommands: verify membership of a matrix, decompose a member into a
generator word, evaluate a word back to a matrix, emit random elements,
fuzz the decomposer, and dump the rotation-subgroup word table.

Exit codes: 0 on success, 1 when the mathematics rejects the input (not a
group member, failed verification), 2 for I/O, parse, or flag problems.
"""

from __future__ import annotations

import argparse
import random as _random
import sys

from .decomposer import decompose_traced, random_element
from .errors import (InternalError, NotMemberError, Picard31Error,
                     WordParseError)
from .finite_unitary import enumerate_group, u_decompose
from .hermitian import matrix_from_json_text, matrix_to_json_text
from .jsonutil import canonical_dumps, decode_int, encode_int
from .words import evaluate, parse, serialize

_HIST_BINS = 8
_DUMP_PATH = "picard31-counterexample.json"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return _random.SystemRandom().randrange(2 ** 32)


def _int_flag(least=None):
    """argparse type: an ASCII decimal, as in JSON integers, not below least."""
    def parse(text: str) -> int:
        try:
            n = decode_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a decimal integer, got {text!r}") from None
        if least is not None and n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n
    return parse


def _print_matrix_text(g) -> None:
    cells = [[str(e) for e in row] for row in g.rows]
    widths = [max(len(cells[i][j]) for i in range(4)) for j in range(4)]
    for row in cells:
        print("[" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]")


def _cmd_verify(args) -> int:
    try:
        matrix_from_json_text(_read_input(args.input))
    except NotMemberError as exc:
        if args.json:
            print(canonical_dumps({"member": False, "reason": str(exc)}))
        else:
            print(f"not a member: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(canonical_dumps({"member": True}))
    else:
        print("member")
    return 0


def _cmd_decompose(args) -> int:
    g = matrix_from_json_text(_read_input(args.input))
    result, trace = decompose_traced(g)
    # All output is built before any is written: the trace's norms have
    # twice the digits of g's entries and can alone pass the int/str limit.
    if args.json:
        lines = [canonical_dumps(result.to_json())]
        if args.trace:
            lines.append(canonical_dumps(trace.to_json()))
    else:
        lines = [f"unit: {result.unit}", f"word: {serialize(result.word)}"]
        if args.trace:
            lines += [f"step {i}: tau=({step.tau[0]}, {step.tau[1]}) k={step.k} "
                      f"norm {step.n_before} -> {step.n_after}"
                      for i, step in enumerate(trace.steps, start=1)]
            stab = trace.stabilizer
            tr = stab.translation
            lines.append(f"stabilizer: unit={stab.lam} tau=({tr.tau1}, {tr.tau2}) "
                         f"k={tr.k} u={serialize(u_decompose(stab.u)) or '1'}")
    print("\n".join(lines))
    return 0


def _cmd_evaluate(args) -> int:
    word = parse(_read_input(args.input))
    g = evaluate(word)
    if args.json:
        print(matrix_to_json_text(g))
    else:
        _print_matrix_text(g)
    return 0


def _cmd_random(args) -> int:
    seed = _resolve_seed(args)
    word = random_element(seed, args.max_len)
    g = evaluate(word)
    if args.json:
        obj = {"seed": encode_int(seed), "word": serialize(word)}
        obj.update(g.to_json())
        print(canonical_dumps(obj))
        return 0
    print(f"seed: {seed}")
    print(f"word: {serialize(word)}")
    _print_matrix_text(g)
    return 0


def _cmd_fuzz(args) -> int:
    seed = _resolve_seed(args)
    max_steps = total_steps = 0
    max_word_len = total_word_len = 0
    max_norm = 0
    hist = [0] * _HIST_BINS
    for i in range(args.iterations):
        word = random_element(seed + i, args.max_len)
        g = evaluate(word)
        try:
            result, trace = decompose_traced(g)
        except Picard31Error as exc:
            dump = {"seed": encode_int(seed), "iteration": i,
                    "word": serialize(word), "error": str(exc)}
            dump.update(g.to_json())
            if isinstance(exc, InternalError) and exc.steps is not None:
                dump["steps"] = [step.to_json() for step in exc.steps]
            print(f"iteration {i} (seed {seed + i}) failed: {exc}",
                  file=sys.stderr)
            with open(_DUMP_PATH, "w", encoding="utf-8") as fh:
                fh.write(canonical_dumps(dump) + "\n")
            print(f"counterexample written to {_DUMP_PATH}", file=sys.stderr)
            return 1
        max_steps = max(max_steps, len(trace.steps))
        total_steps += len(trace.steps)
        word_len = result.word.letters()
        max_word_len = max(max_word_len, word_len)
        total_word_len += word_len
        for step in trace.steps:
            max_norm = max(max_norm, step.n_before)
            # floor(n_after / n_before / (31/36) * _HIST_BINS), exactly in integers.
            b = 36 * _HIST_BINS * step.n_after // (31 * step.n_before)
            hist[min(_HIST_BINS - 1, b)] += 1
    edges = [31 / 36 * b / _HIST_BINS for b in range(_HIST_BINS + 1)]
    stats = {
        "seed": encode_int(seed),
        "iterations": args.iterations,
        "max_steps": max_steps,
        "total_steps": total_steps,
        "max_word_length": max_word_len,
        "total_word_length": total_word_len,
        "max_intermediate_norm": encode_int(max_norm),
        "contraction_histogram": [
            {"lo": edges[b], "hi": edges[b + 1], "count": hist[b]}
            for b in range(_HIST_BINS)],
    }
    if args.json:
        print(canonical_dumps(stats))
        return 0
    # The text form is the same dict, each key with '_' read as a space.
    histogram = stats.pop("contraction_histogram")
    for key, value in stats.items():
        print(f"{key.replace('_', ' ')}: {value}")
    print("contraction ratio histogram:")
    for row in histogram:
        print(f"  [{row['lo']:.4f}, {row['hi']:.4f}): {row['count']}")
    return 0


def _cmd_u2_table(args) -> int:
    elements = enumerate_group()
    for u in elements:
        word = serialize(u_decompose(u))
        if args.json:
            print(canonical_dumps({"word": word, "rows": u.to_json()}))
        else:
            print(f"{word or '1':<16} {u}")
    if not args.json:
        print(f"{len(elements)} elements")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picard31",
        description="Membership and constructive decomposition for the "
                    "Eisenstein modular group of the signature-(3,1) form.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, with_input: bool):
        if with_input:
            p.add_argument("input", nargs="?", default="-",
                           help="input file, or - for stdin (default)")
        p.add_argument("--json", action="store_true",
                       help="emit line-delimited JSON instead of text")

    p = sub.add_parser("verify", help="check that a matrix is a group member")
    add_common(p, with_input=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decompose",
                       help="decompose a member into a generator word")
    add_common(p, with_input=True)
    p.add_argument("--trace", action="store_true",
                   help="also report the reduction steps")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("evaluate", help="multiply a generator word out")
    add_common(p, with_input=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("random", help="emit a seeded random group element")
    add_common(p, with_input=False)
    p.add_argument("--seed", type=_int_flag(), default=None,
                   help="RNG seed (default: system entropy)")
    p.add_argument("--max-len", type=_int_flag(1), default=40,
                   help="maximum word length (default 40)")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("fuzz",
                       help="decompose many random elements and report stats")
    add_common(p, with_input=False)
    p.add_argument("--seed", type=_int_flag(), default=None,
                   help="base RNG seed (default: system entropy)")
    p.add_argument("--iterations", type=_int_flag(1), default=100,
                   help="number of random elements (default 100)")
    p.add_argument("--max-len", type=_int_flag(1), default=40,
                   help="maximum word length per element (default 40)")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("u2-table",
                       help="list all 72 rotations with their A/B words")
    add_common(p, with_input=False)
    p.set_defaults(func=_cmd_u2_table)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Picard31Error, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (WordParseError, OSError, ValueError)) else 1


if __name__ == "__main__":
    sys.exit(main())

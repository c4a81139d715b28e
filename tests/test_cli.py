"""End-to-end command line behavior and exit codes, including fuzz's
counterexample dump, a dump that cannot be written, and no JSON int of
magnitude 2^53 or more in any output."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import fail_third_call
from picard31.cli import main
from picard31.eisenstein import ONE, ZERO, EisensteinInt
from picard31.hermitian import (inversion, matrix_from_json_text,
                                matrix_to_json_text, translation_matrix,
                                unit_correction)
from picard31.words import evaluate, parse

N1_JSON = matrix_to_json_text(translation_matrix((ONE, ZERO), 1))
NON_MEMBER_JSON = json.dumps(
    {"matrix": [[[2, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [1, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [1, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [1, 0]]]})


def run(capsys, argv, stdin=""):
    import sys

    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdin = old
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_member_stdin(capsys):
    code, out, err = run(capsys, ["verify"], stdin=N1_JSON)
    assert code == 0
    assert out.strip() == "member"


def test_verify_member_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(N1_JSON)
    code, out, _ = run(capsys, ["verify", str(path), "--json"])
    assert code == 0
    assert json.loads(out) == {"member": True}


def test_verify_rejects_non_member(capsys):
    code, out, err = run(capsys, ["verify"], stdin=NON_MEMBER_JSON)
    assert code == 1
    assert "not a member" in err
    code, out, _ = run(capsys, ["verify", "--json"], stdin=NON_MEMBER_JSON)
    assert code == 1
    assert json.loads(out)["member"] is False


def test_verify_malformed_input(capsys):
    code, _, err = run(capsys, ["verify"], stdin="{nope")
    assert code == 2
    assert err


def test_verify_deep_nesting(capsys):
    code, _, err = run(capsys, ["verify"], stdin="[" * 100000)
    assert code == 2
    assert err


def test_missing_file(capsys):
    code, _, err = run(capsys, ["verify", "/nonexistent/path.json"])
    assert code == 2


def test_decompose_text(capsys):
    g = evaluate(parse("N^2 R B^-1 N"))
    code, out, _ = run(capsys, ["decompose"], stdin=matrix_to_json_text(g))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("unit: ")
    assert lines[1].startswith("word: ")


def test_decompose_json_round_trip(capsys):
    g = evaluate(parse("N^2 R B^-1 N A N^-3 R"))
    code, out, _ = run(capsys, ["decompose", "--json"],
                       stdin=matrix_to_json_text(g))
    assert code == 0
    obj = json.loads(out)
    from picard31.eisenstein import EisensteinInt

    unit = EisensteinInt(obj["unit"][0], obj["unit"][1])
    assert unit_correction(unit) * evaluate(parse(obj["word"])) == g


def test_decompose_trace(capsys):
    g = evaluate(parse("R N^3 R"))
    code, out, _ = run(capsys, ["decompose", "--trace"],
                       stdin=matrix_to_json_text(g))
    assert code == 0
    assert "stabilizer:" in out
    code, out, _ = run(capsys, ["decompose", "--trace", "--json"],
                       stdin=matrix_to_json_text(g))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    trace = json.loads(lines[1])
    assert "steps" in trace and "stabilizer" in trace


def test_decompose_rejects_non_member(capsys):
    code, _, err = run(capsys, ["decompose"], stdin=NON_MEMBER_JSON)
    assert code == 1


def test_evaluate(capsys):
    code, out, _ = run(capsys, ["evaluate", "--json"], stdin="N^2 A R")
    assert code == 0
    g = matrix_from_json_text(out)
    assert g == evaluate(parse("N^2 A R"))
    # Text mode prints a 4-row grid.
    code, out, _ = run(capsys, ["evaluate"], stdin="R")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_evaluate_bad_word(capsys):
    code, _, err = run(capsys, ["evaluate"], stdin="N^2 Q")
    assert code == 2
    assert "byte" in err


def test_evaluate_beyond_int_str_limit(capsys):
    # The corner entry of N^e has about twice the digits of e, past Python's
    # 4,300-digit int/str conversion limit: a one-line error, not a traceback.
    code, out, err = run(capsys, ["evaluate"], stdin="N^" + "9" * 3000)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    # An exponent with more digits than the limit fails in parse, at the
    # byte where its digits start.
    code, out, err = run(capsys, ["evaluate"], stdin="A N^" + "9" * 5000)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert f"{sys.get_int_max_str_digits()}-digit" in err
    assert "(at byte 4)" in err


def test_decompose_trace_beyond_int_str_limit(capsys):
    # Entries of about 0.6 L digits, L the int/str limit in force, so inside
    # it, but the trace's norms |g41|^2 have about twice as many, past it:
    # the trace fails before any output is written, in both modes.
    from picard31.decomposer import decompose
    from picard31.jsonutil import canonical_dumps

    tau = EisensteinInt(10 ** (3 * sys.get_int_max_str_digits() // 10) + 7, 3)
    g = inversion() * translation_matrix((tau, ZERO), tau.norm() % 2) * inversion()
    text = matrix_to_json_text(g)
    for argv in (["decompose", "--trace"], ["decompose", "--json", "--trace"]):
        code, out, err = run(capsys, argv, stdin=text)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert f"({sys.get_int_max_str_digits()} digits)" in err
    code, out, _ = run(capsys, ["decompose", "--json"], stdin=text)
    assert code == 0
    assert out == canonical_dumps(decompose(g).to_json()) + "\n"


def test_random_deterministic(capsys):
    code, out1, _ = run(capsys, ["random", "--seed", "12", "--json"])
    assert code == 0
    code, out2, _ = run(capsys, ["random", "--seed", "12", "--json"])
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["seed"] == 12
    g = matrix_from_json_text(out1)
    assert g == evaluate(parse(obj["word"]))


def test_random_text_through_module_entry_point(capsys):
    # python -m picard31.cli prints the seed, the word and four bracketed
    # rows, the same as main() and in agreement with the --json run.
    argv = ["random", "--seed", "41", "--max-len", "6"]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "picard31.cli"] + argv,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert run(capsys, argv) == (0, proc.stdout, "")
    seed, word, *rows = proc.stdout.splitlines()
    code, out, _ = run(capsys, argv + ["--json"])
    obj = json.loads(out)
    assert seed == "seed: 41"
    assert word == f"word: {obj['word']}"
    assert len(rows) == 4
    assert all(r.startswith("[") and r.endswith("]") for r in rows)
    assert [r[1:-1].split() for r in rows] == [
        [str(EisensteinInt(*e)) for e in row] for row in obj["matrix"]]


def test_bad_count_and_seed_flags(capsys):
    # Counts must be at least 1 and seeds ASCII decimals; argparse exits 2
    # with a message that names the flag.
    for argv, flag in ((["fuzz", "--iterations", "-3", "--json"], "--iterations"),
                       (["fuzz", "--iterations", "0"], "--iterations"),
                       (["fuzz", "--max-len", "0"], "--max-len"),
                       (["random", "--max-len", "0"], "--max-len"),
                       (["random", "--seed", "1_0"], "--seed"),
                       (["fuzz", "--seed", " 7"], "--seed")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}:" in err


def test_random_entropy_seed(capsys):
    code, out, _ = run(capsys, ["random", "--json"])
    assert code == 0
    assert "seed" in json.loads(out)


def test_random_pipes_into_decompose(capsys):
    code, out, _ = run(capsys, ["random", "--seed", "3", "--json"])
    code, out2, _ = run(capsys, ["decompose", "--json"], stdin=out)
    assert code == 0
    assert "word" in json.loads(out2)


def test_fuzz(tmp_path, capsys, monkeypatch):
    from picard31.decomposer import decompose_traced, random_element

    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["fuzz", "--seed", "20", "--iterations", "25",
                                "--max-len", "15", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["iterations"] == 25
    assert obj["max_steps"] >= 1
    # The totals add up what each iteration's decomposition reports.
    steps = letters = 0
    for i in range(25):
        result, trace = decompose_traced(evaluate(random_element(20 + i, 15)))
        steps += len(trace.steps)
        letters += result.word.letters()
    assert obj["total_steps"] == steps >= obj["max_steps"]
    assert obj["total_word_length"] == letters >= obj["max_word_length"]
    assert sum(rec["count"] for rec in obj["contraction_histogram"]) > 0
    # No counterexample file on success.
    assert not list(tmp_path.iterdir())


def test_fuzz_failure_writes_counterexample(tmp_path, capsys, monkeypatch):
    from picard31.decomposer import random_element
    from picard31.words import serialize

    calls = fail_third_call(monkeypatch, "picard31.cli.decompose_traced",
                            "injected failure")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["fuzz", "--seed", "30", "--iterations", "5",
                                  "--json"])
    assert code == 1
    assert out == ""
    assert "iteration 2 (seed 32) failed: injected failure" in err
    dump = json.loads((tmp_path / "picard31-counterexample.json").read_text())
    word = random_element(32, 40)
    assert dump == {"seed": 30, "iteration": 2, "word": serialize(word),
                    "error": "injected failure",
                    **evaluate(word).to_json()}
    assert matrix_from_json_text(json.dumps(dump)) == calls[2]


def test_fuzz_failure_survives_an_unwritable_dump(tmp_path, capsys, monkeypatch):
    # A dump path that cannot be opened is an I/O error (exit 2), but the
    # failing iteration, its seed and its message are on stderr before it.
    fail_third_call(monkeypatch, "picard31.cli.decompose_traced",
                    "injected failure")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "picard31-counterexample.json").mkdir()
    code, out, err = run(capsys, ["fuzz", "--seed", "30", "--iterations", "5",
                                  "--json"])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "iteration 2 (seed 32) failed: injected failure"
    assert lines[1].startswith("error: ") and len(lines) == 2
    assert "Traceback" not in err
    assert "counterexample written" not in err


def test_fuzz_failure_dumps_partial_trace(tmp_path, capsys, monkeypatch):
    # A round that fails leaves the rounds before it in the dump, as the
    # --trace JSON writes them.
    from picard31.decomposer import decompose_traced, random_element

    g = evaluate(random_element(45, 40))
    steps = decompose_traced(g)[1].steps
    assert len(steps) >= 3
    fail_third_call(monkeypatch, "picard31.decomposer._round",
                    "injected round failure")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["fuzz", "--seed", "45", "--iterations", "1",
                                  "--json"])
    assert code == 1
    assert "failed: injected round failure" in err
    dump = json.loads((tmp_path / "picard31-counterexample.json").read_text())
    assert dump["error"] == "injected round failure"
    assert dump["steps"] == [step.to_json() for step in steps[:2]]
    assert matrix_from_json_text(json.dumps(dump)) == g


def json_ints(obj):
    """Every int in a json.loads result, at any depth."""
    if type(obj) is int:
        yield obj
    elif isinstance(obj, (list, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from json_ints(item)


def test_json_writes_no_int_past_2_53(tmp_path, capsys, monkeypatch):
    # Every JSON writer, k and seed included, writes an int of magnitude
    # 2^53 or more as a decimal string: the trace of a translation with
    # k = 2^80 + 1, random and fuzz at a seed of 2^60, and fuzz's dump of
    # a failure that keeps that trace's steps.
    from picard31.decomposer import decompose_traced
    from picard31.errors import InternalError

    k, seed = 2 ** 80 + 1, str(2 ** 60)
    g = translation_matrix((EisensteinInt(3, 1), ZERO), k) * inversion()
    steps = decompose_traced(g)[1].steps
    outputs = [run(capsys, argv, stdin=matrix_to_json_text(g))[1] for argv in (
        ["decompose", "--trace", "--json"],
        ["random", "--seed", seed, "--json"],
        ["fuzz", "--seed", seed, "--iterations", "1", "--json"])]

    def failing(h):
        exc = InternalError("injected failure")
        exc.steps = steps
        raise exc

    monkeypatch.setattr("picard31.cli.decompose_traced", failing)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, ["fuzz", "--seed", seed, "--iterations", "1"])[0] == 1
    outputs.append((tmp_path / "picard31-counterexample.json").read_text())
    objs = [json.loads(line) for text in outputs for line in text.splitlines()]
    assert len(objs) == 5
    assert all(abs(v) < 2 ** 53 for obj in objs for v in json_ints(obj))
    assert [obj.get("seed") for obj in objs] == [None, None, seed, seed, seed]
    assert objs[1]["steps"][0]["k"] == str(-k)
    assert objs[4]["steps"] == objs[1]["steps"]


def test_fuzz_text(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["fuzz", "--seed", "20", "--iterations", "5"])
    assert code == 0
    assert "max steps:" in out
    _, json_out, _ = run(capsys, ["fuzz", "--seed", "20", "--iterations", "5",
                                  "--json"])
    obj = json.loads(json_out)
    assert f"total steps: {obj['total_steps']}\n" in out
    assert f"total word length: {obj['total_word_length']}\n" in out
    assert "histogram" in out


def test_u2_table(capsys):
    code, out, _ = run(capsys, ["u2-table"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "72 elements"
    assert len(lines) == 73


# The stdout of `u2-table --json`: the order of enumerate_group and the
# word chosen for each element.  Refactors must leave it unchanged; a
# change that alters it on purpose re-pins U2_TABLE_JSON_SHA256 and says
# so in CHANGES.md.
U2_TABLE_JSON_SHA256 = ("2eb155f71740ff176f031c1707cb6bd3"
                        "6bd2a2ff33646ae705b27e98d648cd6a")


def test_u2_table_json(capsys):
    from picard31.finite_unitary import FiniteUnitary
    from picard31.hermitian import rotation_matrix
    from picard31.jsonutil import decode_pair

    code, out, _ = run(capsys, ["u2-table", "--json"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 72
    seen = set()
    for line in lines:
        obj = json.loads(line)
        u = FiniteUnitary(tuple(tuple(decode_pair(e) for e in row)
                                for row in obj["rows"]))
        seen.add(u)
        assert evaluate(parse(obj["word"])) == rotation_matrix(u)
    assert len(seen) == 72
    assert hashlib.sha256(out.encode()).hexdigest() == U2_TABLE_JSON_SHA256

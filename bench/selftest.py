"""Self-test of the benchmark on a tiny corpus.

    python3 bench/selftest.py

Checks that a run emits every metric BENCHMARK.json names, with its unit,
that the reference arithmetic agrees with picard31 on genuine answers and
flags corrupted ones, that certify expectations come from the reference
rather than from how an input was made, and that the runner refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import reference as R
import workloads as W

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"decompose-short": 32, "decompose-long": 4, "certify": 32}


def decomposition(pkg, items):
    """(matrix, unit, items) of picard31's decomposition of a word."""
    m = R.evaluate(items)
    text = pkg.jsonutil.canonical_dumps(pkg.decomposer.decompose(
        pkg.hermitian.matrix_from_json_text(R.matrix_json(m))).to_json())
    unit, out = R.read_decomposition(text)
    return m, unit, out


class MetricsTest(unittest.TestCase):
    def check_run(self, workload, trace, listed):
        result, _ = run.run(workload, 1, 0.3, trace, size=TINY[workload])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertEqual(result["attempted"]
                         % W.WORKLOADS[workload].block, 0)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in listed})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_with_its_unit(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, SPEC["end_to_end"])
                self.check_run(workload, 1, SPEC["per_layer"])

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(W.WORKLOADS))


class ReferenceTest(unittest.TestCase):
    def setUp(self):
        self.pkg = run.import_fresh()
        self.rng = random.Random("selftest")

    def test_evaluate_matches_package(self):
        for _ in range(50):
            items = W.random_items(self.rng, self.rng.randint(0, 60))
            word = self.pkg.words.parse(R.word_text(items))
            rows = self.pkg.words.evaluate(word).rows
            self.assertEqual(R.evaluate(items),
                             tuple(tuple((e.a, e.b) for e in r) for r in rows))

    def test_generators_are_members(self):
        for gen, m in R.GENERATORS.items():
            self.assertTrue(R.is_member(m), gen)

    def test_flags_corrupted_decompositions(self):
        for _ in range(10):
            m, unit, items = decomposition(
                self.pkg, W.random_items(self.rng, 30))
            self.assertTrue(R.decomposition_holds(m, unit, items))
            self.assertFalse(R.decomposition_holds(m, unit, items + [("N", 1)]))
            other = sorted(R.UNITS - {unit})[0]
            self.assertFalse(R.decomposition_holds(m, other, items))

    def test_outcome_rejects_corrupted_output(self):
        workload = W.WORKLOADS["decompose-short"]
        m, unit, items = decomposition(self.pkg, W.random_items(self.rng, 20))
        case = W.Case(args=(R.matrix_json(m),), source=m, expected=R.VALID)
        good = R.decomposition_json(unit, items)
        bad = R.decomposition_json(unit, [("N", 1)] + items)
        self.assertEqual(W.outcome(workload, self.pkg, case, good), R.VALID)
        self.assertEqual(W.outcome(workload, self.pkg, case, bad),
                         "wrong decomposition")
        self.assertEqual(W.outcome(workload, self.pkg, case, "{"),
                         "unreadable decomposition")

    def test_perturbed_matrix_can_stay_a_member(self):
        # diag(1, w, 1, 1) with 1 added to w is diag(1, -w^2, 1, 1): a
        # unit on the diagonal, so still a member.
        m = ((R.ONE, R.ZERO, R.ZERO, R.ZERO), (R.ZERO, R.OMEGA, R.ZERO, R.ZERO),
             (R.ZERO, R.ZERO, R.ONE, R.ZERO), (R.ZERO, R.ZERO, R.ZERO, R.ONE))
        bumped = tuple(tuple((x[0] + (i == j == 1), x[1])
                             for j, x in enumerate(row))
                       for i, row in enumerate(m))
        self.assertTrue(R.is_member(m))
        self.assertTrue(R.is_member(bumped))
        self.assertNotEqual(
            R.judge_certificate(R.matrix_json(bumped), '{"unit": [1, 0], '
                                '"word": ""}'), R.NOT_MEMBER)

    def test_malformed_text(self):
        m, unit, items = decomposition(self.pkg, W.random_items(self.rng, 10))
        text = R.matrix_json(m)
        cert = R.decomposition_json(unit, items)
        self.assertEqual(R.judge_certificate(text, cert), R.VALID)
        for matrix_text, cert_text in ((W.DEEP_NESTING, cert),
                                       (text[:-1], cert),
                                       (R.matrix_json(m[:3]), cert),
                                       (text, '{"unit": [1, 0], "word": "N X"}')):
            self.assertEqual(R.judge_certificate(matrix_text, cert_text),
                             R.MALFORMED)


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "certify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""Pinned output: one digest over decompose results, trace JSON and fuzz.

The digest covers the canonical JSON of every decomposition result and its
trace on three seeded corpora (the shared corpus7 fixture, 100 words of up
to 300 items and 100 random stabilizers), plus the stdout of one fuzz run.
Refactors must leave it unchanged.  A change that alters the output words
on purpose (for example a shorter translation-word synthesis) re-pins
GOLDEN_SHA256 and says so in CHANGES.md.
"""

import hashlib

from picard31.cli import main
from picard31.decomposer import (decompose_traced, random_element,
                                 random_stabilizer)
from picard31.jsonutil import canonical_dumps
from picard31.words import evaluate

GOLDEN_SHA256 = ("dfd34bbbee71633defc8cdc1d5e12567"
                 "dbc0198e4b1c19f03ee2f60ea6a2a3b7")


def _feed(digest, results):
    for result, trace in results:
        digest.update(canonical_dumps(result.to_json()).encode())
        digest.update(b"\n")
        digest.update(canonical_dumps(trace.to_json()).encode())
        digest.update(b"\n")


def test_decompose_and_fuzz_output_pinned(corpus7, capsys, tmp_path,
                                          monkeypatch):
    digest = hashlib.sha256()
    _feed(digest, corpus7.results)
    _feed(digest, (decompose_traced(evaluate(random_element(10000 + s, 300)))
                   for s in range(100)))
    _feed(digest, (decompose_traced(random_stabilizer(s)) for s in range(100)))
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "--seed", "5", "--iterations", "300", "--json"]) == 0
    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GOLDEN_SHA256

"""Each demo script runs to completion against the package in src/, and
their standard output is pinned by one digest.

DEMOS_SHA256 covers the four scripts' stdout, concatenated in sorted file
order.  Refactors must leave it unchanged.  A change that alters the demos'
output on purpose re-pins DEMOS_SHA256 and says so in CHANGES.md, as for
GOLDEN_SHA256 in tests/test_golden.py.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

DEMOS_SHA256 = ("0dd3e5dfc6090030401ee7c2b86c24ab"
                "e40872c790abe6636b309cc98127e202")


@pytest.fixture(scope="module")
def demo_runs():
    """Each demo's finished process, keyed by path; every demo runs once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return {demo: subprocess.run([sys.executable, str(demo)], env=env,
                                 capture_output=True, timeout=120)
            for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, demo_runs):
    proc = demo_runs[demo]
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")


def test_demo_output_pinned(demo_runs):
    digest = hashlib.sha256()
    for demo in DEMOS:
        digest.update(demo_runs[demo].stdout)
    assert digest.hexdigest() == DEMOS_SHA256

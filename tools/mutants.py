"""Mutant check for the kernels: every listed mutant must fail the tests.

Usage: python tools/mutants.py

Each mutant is an exact (file, old text, new text) triple, and the old
text must occur exactly once in its file.  For each mutant the tree is
copied to a temporary directory (without .git and caches), the mutant is
applied there, and `python -m pytest -x -q` runs in the copy with its
own src/ first on PYTHONPATH.  A mutant the suite lets pass survives.
The unmutated copy runs first, so a suite that already fails judges
nothing.

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
HERMITIAN = "src/picard31/hermitian.py"

# (name, file, old text, new text)
MUTANTS = [
    ("translation_data: |k| dropped from the choice key", DECOMPOSER,
     "key = (s * s + n3 * e * e, abs(k), k,",
     "key = (s * s + n3 * e * e, 0, k,"),
    ("translation_data: tie at e = -n moves up from k = -1", DECOMPOSER,
     "if e < -n or e == -n and k < -1:",
     "if e < -n or e == -n and k <= -1:"),
    ("translation_data: pair bound 3 s <= 2 n^2 dropped", DECOMPOSER,
     "            if 3 * s > top:\n                continue\n",
     ""),
    ("translation_data: pair bound made strict", DECOMPOSER,
     "if 3 * s > top:",
     "if 3 * s >= top:"),
    # Making this bound strict is an equivalent mutant: 3 d = 2 n^2 has no
    # solution, since an Eisenstein norm has an even power of 2 and
    # 2 n^2 / 3 = 6 (n / 3)^2 an odd one.
    ("translation_data: corner bound halved", DECOMPOSER,
     "if 3 * d <= top]",
     "if 3 * d <= n * n]"),
    ("reduction_step: ratio check dropped", DECOMPOSER,
     "    if 4 * n ** 3 * n_after != s * s + 3 * n * n * (zb + k * n) ** 2:",
     "    if False:"),
    ("reduction_step: contraction check dropped", DECOMPOSER,
     "    if 36 * n_after > 31 * n:",
     "    if False:"),
    ("reduction_step: sign of tau1.b flipped in row 2", DECOMPOSER,
     "-(a2 + t1a * x - t1b * y)",
     "-(a2 + t1a * x + t1b * y)"),
    ("langlands_extract: rebuild check dropped", HERMITIAN,
     "    if param.matrix() != p:",
     "    if False:"),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "*.egg-info", "out")


def run_suite(tree: Path) -> tuple[bool, str, float]:
    """Run pytest -x -q in tree; return (passed, the first FAILED or ERROR
    line, else the last line, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    failed = [x for x in lines if x.startswith(("FAILED", "ERROR"))]
    shown = failed[0] if failed else lines[-1]
    return proc.returncode == 0, shown, time.perf_counter() - start


def in_copy(apply) -> tuple[bool, str, float]:
    """Copy the tree, let apply(copy) edit it, and run the suite there."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        apply(tree)
        return run_suite(tree)


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
    survivors = []
    for name, path, old, new in MUTANTS:
        def apply(tree, path=path, old=old, new=new):
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
        passed, last, secs = in_copy(apply)
        print(f"{'SURVIVED' if passed else 'killed'} ({secs:.0f} s) {name}: "
              f"{last}", flush=True)
        if passed:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

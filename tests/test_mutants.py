"""tools/mutants.py's list of mutants stays aimed at the code: each old
text occurs exactly once in its file, each new text differs from it, and
no two mutants share a name.  The mutant run itself is a CI step of its
own; this check is the part of it that takes well under a second."""

import collections
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("tools_mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutant_list_is_aimed():
    mutants = load_mutants().MUTANTS
    assert mutants
    for name, path, old, new in mutants:
        assert (ROOT / path).read_text().count(old) == 1, (name, path)
        assert new != old, name
    names = collections.Counter(name for name, _, _, _ in mutants)
    assert [name for name, count in names.items() if count > 1] == []

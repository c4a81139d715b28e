"""Call-site spans for the traced run.

Each wrapper replaces a function in the module namespace its caller looks
it up in, so nothing inside picard31 changes.  A span records its id,
name, operation id, parent span, start and end; spans stay in memory until the
run ends.  A span's self time is its duration minus its children's, and
the root span of each operation ("op") keeps the time no other span
covers.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

# (module of the call site, attribute there, span name).  The module is
# where the caller finds the function: decompose() looks up
# decompose_traced in decomposer, parse() looks up normalize in words,
# verify() looks up evaluate in decomposer, and so on.
CALL_SITES = (
    ("decomposer", "decompose_traced", "decomposer.decompose_traced"),
    ("decomposer", "reduction_step", "decomposer.reduction_step"),
    ("decomposer", "translation_data", "decomposer.translation_data"),
    ("decomposer", "round_nearest", "eisenstein.round_nearest"),
    ("decomposer", "langlands_extract", "hermitian.langlands_extract"),
    ("decomposer", "decompose_translation", "decomposer.decompose_translation"),
    ("decomposer", "u_decompose", "finite_unitary.u_decompose"),
    ("decomposer", "normalize", "words.normalize"),
    ("decomposer", "verify", "decomposer.verify"),
    ("decomposer", "evaluate", "words.evaluate"),
    ("words", "normalize", "words.normalize"),
    ("words", "parse", "words.parse"),
    ("words", "serialize", "words.serialize"),
    ("hermitian", "matrix_from_json_text", "hermitian.matrix_from_json_text"),
    ("jsonutil", "canonical_dumps", "jsonutil.canonical_dumps"),
)
FROM_JSON = "words.DecompositionResult.from_json"
ROOT = "op"
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in CALL_SITES] + [FROM_JSON]))

# Spans whose argument and result are kept for counters.
_KEEP = frozenset({"words.evaluate", "words.normalize"})


class Tracer:
    def __init__(self):
        # (id, name, op, parent id, start ns, end ns), in order of ending.
        # Flat tuples of atoms, which the garbage collector stops tracking.
        self.spans = []
        self.kept = []       # (name, argument, result)
        self.op = None
        self._next_id = 0
        self._stack = [None]
        self._restore = []

    def call(self, name, fn, *args):
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, name, self.op, parent, start, end))
        if name in _KEEP:
            self.kept.append((name, args[0], result))
        return result

    def install(self, pkg):
        for module_name, attr, name in CALL_SITES:
            module = getattr(pkg, module_name)
            fn = getattr(module, attr)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn))
        cls = pkg.words.DecompositionResult
        self._restore.append((cls, "from_json", cls.__dict__["from_json"]))
        cls.from_json = staticmethod(self._wrapper(FROM_JSON, cls.from_json))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrapper(self, name, fn):
        def traced(*args):
            return self.call(name, fn, *args)
        return traced

    def summary(self, scale) -> dict:
        """Per-op self milliseconds and call counts by span name, plus the
        per-op time of the root spans.  scale[op] converts that op's
        nanoseconds to reference speed."""
        n_ops = len(scale)
        children = Counter()
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        self_ns = Counter()
        calls = Counter()
        spanned_ns = root_ns = 0
        for sid, name, op, parent, start, end in self.spans:
            own = end - start - children[sid]
            spanned_ns += own
            self_ns[name] += own * scale[op]
            calls[name] += 1
            if parent is None:
                root_ns += end - start
        if spanned_ns != root_ns:
            raise RuntimeError("span self times do not add up to op time")
        return {
            "self_ms": {n: self_ns[n] / 1e6 / n_ops for n in self_ns},
            "calls": {n: calls[n] / n_ops for n in calls},
            "op_ms": sum(self_ns.values()) / 1e6 / n_ops,
        }

    def write(self, path):
        """All spans as JSON lines: id, name, op, parent, start/end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

"""The traced benchmark run wraps package functions by name; each must exist."""

import importlib.util
from pathlib import Path

import picard31
import picard31.words
from picard31.words import evaluate, parse

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_call_sites_resolve():
    tracing = load_tracing()
    assert tracing.CALL_SITES
    for module_name, attr, _ in tracing.CALL_SITES:
        module = getattr(picard31, module_name)
        assert callable(getattr(module, attr)), (module_name, attr)
    assert callable(picard31.words.DecompositionResult.from_json)


def test_bench_entry_points():
    # Set-up and counters of bench/run.py call these outside CALL_SITES.
    assert len(picard31.finite_unitary.word_table()) == 72
    assert callable(picard31.decomposer.step_bound)
    g = evaluate(parse("N^3 R B N^-2 R A N R N^2"))
    _, trace = picard31.decomposer.decompose_traced(g)
    assert trace.steps
    for step in trace.steps:
        for field in ("tau", "k", "n_before", "n_after"):
            assert hasattr(step, field), field

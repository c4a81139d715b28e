"""The traced benchmark run wraps package functions by name; each must
exist, and a traced operation must behave as an untraced one."""

import importlib.util
import json
import sys
from pathlib import Path

import picard31
import picard31.words
from picard31.hermitian import inversion, translation_matrix
from picard31.words import evaluate, parse

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


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
        # The replay reads (t.a, t.b) for t in step.tau and calls
        # R.translation(t1, t2, step.k) on plain ints.
        assert len(step.tau) == 2
        assert all(type(t.a) is int and type(t.b) is int for t in step.tau)
        assert type(step.k) is int
        assert g.rows[3][0].norm() == step.n_before
        g = inversion() * translation_matrix(step.tau, step.k) * g
        assert g.rows[3][0].norm() == step.n_after
    assert g.fixes_infinity()


def test_traced_ops_pass_through(monkeypatch):
    # workloads imports reference by its bare name, and its dataclasses
    # look their module up in sys.modules; both entries go at teardown.
    for name in ("reference", "workloads"):
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, BENCH / f"{name}.py"))
        monkeypatch.setitem(sys.modules, name, module)
        module.__spec__.loader.exec_module(module)
    workloads = sys.modules["workloads"]
    g = evaluate(parse("N^3 R B N^-2 R A N R N^2"))
    matrix_text = picard31.hermitian.matrix_to_json_text(g)
    cert_text = workloads.decompose_op(picard31, matrix_text)
    assert json.loads(cert_text)["unit"] != [1, 0]

    def chains():
        return (workloads.decompose_op(picard31, matrix_text),
                workloads.certify_op(picard31, matrix_text, cert_text))

    untraced = chains()
    assert untraced == (cert_text, True)
    # The wrappers forward positional arguments only, so a keyword call
    # inside the package raises TypeError in traced runs alone.
    tracer = load_tracing().Tracer()
    tracer.install(picard31)
    try:
        traced = chains()
    finally:
        tracer.uninstall()
    assert traced == untraced
    names = {span[1] for span in tracer.spans}
    assert {"words.evaluate", "decomposer.verify"} <= names

"""picard31 benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload decompose-short --seed 1 --seconds 20 --trace 0

Builds the workload's seeded inputs, sets picard31 up several times (fresh
import, the lazy rotation word table, a few warm-up operations), then calls
the operation chain back to back for --seconds, one call in flight at a
time, and checks every outcome against the benchmark's own exact
reference (reference.py).  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it times half the period untraced, replays the same
operations under call-site spans (tracing.py) and reports per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Times are reported at a reference machine speed.  On a shared host the
same work can take twice as long from one minute to the next, so between
operations the run also times a fixed calibration task (reference
arithmetic on a constant word) and scales each raw time by
CAL_REF_S / (median of the nearby calibration times).  On a machine that
runs the calibration task in CAL_REF_S the scaled times equal wall-clock
times; the raw wall-clock figures (wall_*) are printed above the JSON line.

picard31 is imported from src/ of the checkout this file sits in; without
it the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import reference as R
import tracing
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
# The package modules the operation chains call into; jsonutil is
# otherwise imported lazily on first use.
MODULES = ("decomposer", "errors", "finite_unitary", "hermitian", "jsonutil",
           "words")

CAL_ITEMS = W.random_items(random.Random("calibration"), 200)
CAL_REF_S = 0.0006   # about the calibration task on a quiet 2-vCPU Xeon VM
CAL_EVERY_S = 0.01   # operation time between calibration samples
CAL_WINDOW = 2       # samples on each side that set an operation's scale


def calibrate() -> float:
    t = time.perf_counter()
    R.evaluate(CAL_ITEMS)
    return time.perf_counter() - t


def import_fresh():
    """Import picard31 from scratch, dropping any earlier copy, so lazy
    state such as the rotation word table starts cold."""
    for name in [n for n in sys.modules
                 if n == "picard31" or n.startswith("picard31.")]:
        del sys.modules[name]
    pkg = importlib.import_module("picard31")
    for name in MODULES:
        importlib.import_module("picard31." + name)
    return pkg


def call(op, pkg, args):
    try:
        return op(pkg, *args)
    except Exception as exc:  # every failure is an outcome to be judged
        return type(exc)


def set_up(workload, warmup):
    """One set-up: import, word table, warm-up operations.  Returns the
    package, the set-up seconds and the word-table milliseconds, both raw
    and at reference speed."""
    op = W.op_for(workload)
    cal = [calibrate() for _ in range(3)]
    t0 = time.perf_counter()
    pkg = import_fresh()
    t1 = time.perf_counter()
    pkg.finite_unitary.word_table()
    t2 = time.perf_counter()
    for case in warmup:
        call(op, pkg, case.args)
    t3 = time.perf_counter()
    cal += [calibrate() for _ in range(3)]
    scale = CAL_REF_S / statistics.median(cal)
    return pkg, {"setup_s": (t3 - t0) * scale, "raw_setup_s": t3 - t0,
                 "table_ms": (t2 - t1) * 1e3 * scale}


@dataclass
class Loop:
    """Raw seconds, reference-speed factor and output of each op."""

    lat: array
    scale: array
    outs: list

    def ref_total(self) -> float:
        return math.fsum(t * s for t, s in zip(self.lat, self.scale))


def timed_loop(op, pkg, cases, seconds=None, count=None, tracer=None,
               block=1):
    """Run ops back to back over the corpus, for `seconds` of wall time
    (then on to the next multiple of `block` ops) or for `count` ops, with
    a calibration sample between ops after every CAL_EVERY_S of op time.
    Only the ops themselves are timed."""
    clock = time.perf_counter
    lat = array("d")
    cal = []
    cal_at = array("l")
    outs = []
    distinct = {}
    n = len(cases)
    i = 0
    since_cal = math.inf
    t1 = clock()
    deadline = t1 + seconds if seconds is not None else math.inf
    while (i < count) if count is not None else (t1 < deadline or i % block):
        if since_cal >= CAL_EVERY_S:
            cal.append(calibrate())
            since_cal = 0.0
        args = cases[i % n].args
        t = clock()
        if tracer is None:
            out = call(op, pkg, args)
        else:
            tracer.op = i
            out = tracer.call(tracing.ROOT, call, op, pkg, args)
        t1 = clock()
        lat.append(t1 - t)
        # Equal outputs share one object, so memory does not grow with the
        # number of ops a run manages.
        outs.append(distinct.setdefault(out, out))
        cal_at.append(len(cal) - 1)
        since_cal += t1 - t
        i += 1
    local = [statistics.median(cal[max(0, j - CAL_WINDOW):j + CAL_WINDOW + 1])
             for j in range(len(cal))]
    return Loop(lat, array("d", (CAL_REF_S / local[j] for j in cal_at)), outs)


def judge(workload, pkg, cases, outs):
    """Count (failed, wrong) ops.  A failed op raised where no exception
    was expected; a wrong op reached a conclusion the reference rejects."""
    failed = wrong = 0
    bad = []
    for i, out in enumerate(outs):
        case = cases[i % len(cases)]
        got = W.outcome(workload, pkg, case, out)
        if got != case.expected:
            if got.startswith("raised "):
                failed += 1
            else:
                wrong += 1
            bad.append(i)
    return failed, wrong, bad


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def latency_ms(times, bad, q):
    # A failed or wrong op counts as missing any latency limit.
    marked = list(times)
    for i in bad:
        marked[i] = math.inf
    marked.sort()
    return percentile(marked, q) * 1e3


def end_to_end(cases, loop, bad, setups, peak_rss_mb):
    good = len(loop.lat) - len(bad)
    ref = [t * s for t, s in zip(loop.lat, loop.scale)]
    with_letters = [c.letters for c in cases if c.letters is not None]
    metrics = {
        "elts_per_s": (good / loop.ref_total(), "1/s"),
        "latency_p50_ms": (latency_ms(ref, bad, 0.5), "ms"),
        "latency_p90_ms": (latency_ms(ref, bad, 0.9), "ms"),
        "success_rate": (good / len(loop.lat), "ratio"),
        "word_letters_mean": (statistics.fmean(with_letters), "count"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "ops_timed": (len(loop.lat), "count"),
        "latency_q1_ms": (latency_ms(ref, bad, 0.25), "ms"),
        "latency_q3_ms": (latency_ms(ref, bad, 0.75), "ms"),
        "wall_elts_per_s": (good / math.fsum(loop.lat), "1/s"),
        "wall_latency_p50_ms": (latency_ms(loop.lat, bad, 0.5), "ms"),
        "wall_latency_p90_ms": (latency_ms(loop.lat, bad, 0.9), "ms"),
        "wall_setup_s": (statistics.median(s["raw_setup_s"] for s in setups),
                         "s"),
    }
    return metrics, extra


def algorithm_counters(pkg, cases):
    """Counters from decompose_traced's trace on each distinct genuine
    input, untimed.  Each trace is replayed with the reference arithmetic,
    which checks its norms and measures entry growth.  Returns the counters
    and whether every trace replayed exactly."""
    rounds = []
    per_bound = []
    logs = []
    bits = []
    exact = True
    for m in dict.fromkeys(c.source for c in cases):
        g = pkg.hermitian.matrix_from_json_text(R.matrix_json(m))
        _, trace = pkg.decomposer.decompose_traced(g)
        steps = trace.steps
        n0 = steps[0].n_before if steps else 0
        rounds.append(len(steps))
        per_bound.append(len(steps) / (pkg.decomposer.step_bound(n0) + 1))
        cur = m
        top = max(R.entry_bits(x) for row in m for x in row)
        for step in steps:
            t1, t2 = ((t.a, t.b) for t in step.tau)
            exact &= R.norm(cur[3][0]) == step.n_before
            cur = R.matmul(R.INVERSION, R.matmul(R.translation(t1, t2, step.k),
                                                 cur))
            exact &= R.norm(cur[3][0]) == step.n_after
            top = max(top, max(R.entry_bits(x) for row in cur for x in row))
            if step.n_after:
                logs.append(math.log2(step.n_after) - math.log2(step.n_before))
        bits.append(top)
    counters = {
        "decomposer.rounds": (statistics.fmean(rounds), "count"),
        "decomposer.contraction_log2_mean": (
            statistics.fmean(logs) if logs else 0.0, "log2"),
        "decomposer.rounds_per_bound": (statistics.fmean(per_bound), "ratio"),
        "decomposer.max_entry_bits": (statistics.fmean(bits), "bits"),
    }
    return counters, exact


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "picard31").rglob("*.py")))


def per_layer(tracer, untraced, traced, setups, counters):
    n_ops = len(traced.lat)
    summary = tracer.summary(traced.scale)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[name + ".self_ms"] = (summary["self_ms"].get(name, 0.0), "ms")
        metrics[name + ".calls"] = (summary["calls"].get(name, 0.0), "count")
    evaluated = [arg for name, arg, _ in tracer.kept if name == "words.evaluate"]
    normalized = [(arg, res) for name, arg, res in tracer.kept
                  if name == "words.normalize"]
    items_in = sum(len(arg.items) for arg, _ in normalized)
    metrics["words.evaluate.letters"] = (
        sum(R.letters((g.value, e) for g, e in w.items) for w in evaluated)
        / n_ops, "count")
    metrics["words.normalize.shrink"] = (
        sum(len(res.items) for _, res in normalized) / items_in
        if items_in else 0.0, "ratio")
    metrics.update(counters)
    metrics["finite_unitary.word_table.cold_ms"] = (
        statistics.median(s["table_ms"] for s in setups), "ms")
    metrics["trace.op_ms"] = (summary["op_ms"], "ms")
    metrics["trace.unspanned_ms"] = (summary["self_ms"][tracing.ROOT], "ms")
    metrics["trace.overhead_frac"] = (
        traced.ref_total() / untraced.ref_total() - 1, "ratio")
    metrics["package.src_lines"] = (src_lines(), "lines")
    return metrics


def run(workload_name, seed, seconds, trace, size=None):
    """One benchmark run.  Returns the result object and, for an
    untraced run, further figures for people: latency quartiles, the op
    count and the raw wall-clock timings."""
    workload = W.WORKLOADS[workload_name]
    rng = random.Random(f"{workload_name}:{seed}")
    cases, warmup = W.build_cases(workload, rng, import_fresh(), size)
    calibrate()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        pkg, setup = set_up(workload, warmup)
        setups.append(setup)
    op = W.op_for(workload)
    block = len(cases) if workload.whole_passes else workload.block
    gc.collect()
    gc.freeze()
    extra = {}
    if not trace:
        loop = timed_loop(op, pkg, cases, seconds=seconds,
                          block=block)
        # Before the reference checks, which are not the workload's memory.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, wrong, bad = judge(workload, pkg, cases, loop.outs)
        metrics, extra = end_to_end(cases, loop, bad, setups, peak_rss_mb)
        attempted = len(loop.outs)
    else:
        untraced = timed_loop(op, pkg, cases, seconds=seconds / 2,
                              block=block)
        tracer = tracing.Tracer()
        tracer.install(pkg)
        try:
            traced = timed_loop(op, pkg, cases, count=len(untraced.outs),
                                tracer=tracer)
        finally:
            tracer.uninstall()
        failed = wrong = 0
        for loop in (untraced, traced):
            loop_failed, loop_wrong, _ = judge(workload, pkg, cases, loop.outs)
            failed += loop_failed
            wrong += loop_wrong
        counters, exact = algorithm_counters(pkg, cases)
        wrong += not exact
        metrics = per_layer(tracer, untraced, traced, setups, counters)
        tracer.write(OUT / f"spans-{workload_name}.jsonl")
        attempted = len(untraced.outs) + len(traced.outs)
    gc.unfreeze()
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "picard31" / "__init__.py").is_file():
        print(f"picard31 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, extra = run(args.workload, args.seed, args.seconds, args.trace)
    figures = [(n, m["value"], m["unit"]) for n, m in result["metrics"].items()]
    for name, value, unit in figures + [(n, v, u) for n, (v, u) in extra.items()]:
        print(f"{name:45s} {value:>14.6g} {unit}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Calibration measurements.

Each helper measures one family of constants on fixed, documented seeds;
measure_constants() prints each value and assembles the frozen dict
committed to calibration.json. pesort's comparison and span constants
are measured on the sort the maps run, through one runner.
The acceptance suite re-runs the same helpers and asserts against the
frozen values at 1.5x slack.
"""

from __future__ import annotations

import math
import random

from .bench import WorkloadSpec, run_experiment
from .batched import BatchedWorkingSetMap
from .core import CmpCounter, Key, SEARCH, Operation
from .pipelined import PipelinedWorkingSetMap
from .runtime import Runtime, par_map
from .sortlib import entropy, pesort_task
from .tree23 import Tree23, batch_insert_task


def m0_workloads():
    return [
        WorkloadSpec(generator="zipf", n_ops=10_000, universe=1024,
                     mix={"search": 0.6, "insert": 0.3, "delete": 0.1,
                          "update": 0.0}, width=1, seed=101, p=8),
        WorkloadSpec(generator="uniform", n_ops=10_000, universe=1024,
                     mix={"search": 0.6, "insert": 0.3, "delete": 0.1,
                          "update": 0.0}, width=1, seed=102, p=8),
        WorkloadSpec(generator="coldest", n_ops=10_000, universe=1024,
                     mix={"search": 0.7, "insert": 0.25, "delete": 0.05,
                          "update": 0.0}, width=1, seed=103, p=8),
    ]


def measure_m0():
    worst = 0.0
    for spec in m0_workloads():
        report = run_experiment(spec, "m0")
        worst = max(worst, report.ratios["steps_per_wl"])
    return worst


def _run_pesort(keys):
    """Sort keys with pesort_task on a Runtime(p=8); returns its metrics."""
    rt = Runtime(p=8)
    rt.spawn_root(pesort_task(keys), owner="ds")
    return rt.run()


def measure_pesort_comps():
    worst = 0.0
    for seed, n, u, s in ((201, 4096, 32, 1.0), (202, 4096, 512, 0.0),
                          (203, 2048, 8, 1.0)):
        rnd = random.Random(seed)
        if s > 0:
            weights = [1 / (i + 1) ** s for i in range(u)]
            values = rnd.choices(range(u), weights=weights, k=n)
        else:
            values = [rnd.randrange(u) for _ in range(n)]
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        h = entropy(counts.values(), n)
        ctr = CmpCounter()
        _run_pesort([Key(v, ctr) for v in values])
        worst = max(worst, ctr.count / (n * h + n))
    return worst


def measure_pesort_span():
    worst = 0.0
    spans = {}
    for logn in (6, 8, 10, 12, 14):
        n = 2 ** logn
        rnd = random.Random(300 + logn)
        values = [rnd.randrange(max(n // 8, 4)) for _ in range(n)]
        metrics = _run_pesort([Key(v) for v in values])
        spans[logn] = metrics.ds_span
        worst = max(worst, metrics.ds_span / logn ** 2)
    return worst, spans


def measure_tree_span_slope():
    spans = {}
    for logn in (6, 10, 14, 16):
        n = 2 ** logn
        t, _ = Tree23.build([(k, None) for k in range(0, 2 * n, 2)])
        keys = sorted(random.Random(400).sample(range(1, 2 * n, 2), 16))
        rt = Runtime(p=8)

        def root():
            yield from batch_insert_task(t, [(k, None) for k in keys])

        rt.spawn_root(root(), owner="ds")
        metrics = rt.run()
        spans[logn] = metrics.ds_span
    slope = (spans[16] - spans[6]) / 10.0
    return slope, spans


def map_workloads(p):
    base = {"search": 0.5, "insert": 0.35, "delete": 0.1, "update": 0.05}
    return [
        WorkloadSpec(generator="zipf", n_ops=800, universe=256, mix=base,
                     width=p, seed=501, p=p),
        WorkloadSpec(generator="uniform", n_ops=800, universe=512, mix=base,
                     width=4, seed=502, p=p),
        WorkloadSpec(generator="coldest", n_ops=600, universe=512, mix=base,
                     width=p, seed=503, p=p),
        WorkloadSpec(generator="hotset", n_ops=800, universe=256, mix=base,
                     width=2, seed=504, p=p),
        # insert-heavy: grows past the first slab so the final slab, its
        # front locks, and the filter all run
        WorkloadSpec(generator="uniform", n_ops=900, universe=4096,
                     mix={"search": 0.2, "insert": 0.75, "delete": 0.05,
                          "update": 0.0}, width=8, seed=505, p=p),
    ]


def measure_map_bounds(structure):
    worst = {"work": 0.0, "span": 0.0, "fl": 0.0, "buffer": 0.0}
    for p in (4, 8):
        for spec in map_workloads(p):
            report = run_experiment(spec, structure, audit=False)
            assert not [l for l in report.lines
                        if l["name"] == "equivalence" and not l["passed"]]
            worst["work"] = max(worst["work"], report.ratios["work_per_bound"])
            worst["span"] = max(worst["span"], report.ratios["span_per_bound"])
            worst["buffer"] = max(worst["buffer"],
                                  report.ratios["buffer_cost_per_bound"])
            if structure == "m2":
                worst["fl"] = max(worst["fl"],
                                  report.ratios["front_access_per_2k"])
    return worst


def measure_pbuffer_flush_span():
    from .pbuffer import ParallelBuffer
    from .runtime import ActivationGate, BUFFER, Call

    worst = 0.0
    for p, n_ops in ((4, 64), (8, 256)):
        rt = Runtime(p=p)
        state = {"flushed": 0, "span_bound": 0.0}

        class _Sink:
            def __init__(self):
                self.gate = ActivationGate(lambda: buf.pending > 0,
                                           self.drain)

            def drain(self):
                batch = yield Call(buf.flush_task(), owner=BUFFER)
                state["flushed"] += len(batch)
                for _op, h in batch:
                    rt.resume(h, None)
                yield 1

        sink = _Sink()
        buf = ParallelBuffer(rt, activate=sink.gate.activate)

        def chain(ops):
            for op in ops:
                yield from buf.submit(op)

        def root():
            yield from par_map(
                [list(range(i, n_ops, p)) for i in range(p)], chain)

        rt.spawn_root(root())
        metrics = rt.run()
        assert state["flushed"] == n_ops
        bound = math.log2(p) + math.log2(max(n_ops, 2)) + 1
        worst = max(worst, metrics.buffer_span / bound)
    return worst


def span_separation_demo(structure, p=4, n=2 ** 16, calls=64, cold_width=2):
    """Warm a map of n items, then race a serial chain of 64 hot searches
    (recency rank <= 4) against serial chains of cold misses; returns the
    hot chain's own effective-span contribution (ds nodes on its path).

    Cold companions make every batch carry a deep operation. The batched
    map's hot calls then wait out full-depth batch spans, so their path
    carries a log n term per call; the pipelined map hands the deep work to
    the final slab and the hot path stays at first-slab depth.
    """
    rt = Runtime(p=p, scheduler="weak_priority" if structure == "m2"
                 else "greedy")
    ctr = CmpCounter()
    if structure == "m2":
        m = PipelinedWorkingSetMap(rt)
    else:
        m = BatchedWorkingSetMap(rt)
    m.preload([(Key(i, ctr), i) for i in range(n)])
    hot_keys = [Key(i, ctr) for i in range(4)]
    hot = [Operation(i, SEARCH, hot_keys[i % 4]) for i in range(calls)]
    colds = [[Operation(10_000 + c * 1000 + i, SEARCH,
                        Key(n + c * 1000 + i, ctr)) for i in range(calls)]
             for c in range(cold_width)]
    hot_span = []

    def hot_task():
        base = rt.current_path[2]
        for op in hot:
            yield from m.call(op)
        hot_span.append(rt.current_path[2] - base)

    def cold_task(ops):
        for op in ops:
            yield from m.call(op)

    def warm_then_race():
        for i, k in enumerate(hot_keys):
            yield from m.call(Operation(50_000 + i, SEARCH, k))
        chains = [hot_task()] + [cold_task(ops) for ops in colds]
        yield from par_map(chains, lambda g: g)

    rt.spawn_root(warm_then_race())
    rt.run()
    return hot_span[0]


def measure_constants():
    values = {}

    def note(name, value):
        values[name] = round(value, 4)
        print(f"{name}: {value:.4f}")

    note("m0_steps_per_wl", measure_m0())
    note("pesort_comps_per_entropy", measure_pesort_comps())
    pes_worst, _spans = measure_pesort_span()
    note("pesort_span_per_log2n_sq", pes_worst)
    slope, _spans = measure_tree_span_slope()
    note("tree_span_slope", slope)
    m1 = measure_map_bounds("m1")
    note("m1_work", m1["work"])
    note("m1_span", m1["span"])
    m2 = measure_map_bounds("m2")
    note("m2_work", m2["work"])
    note("m2_span", m2["span"])
    note("m2_fl_delay", m2["fl"])
    note("pbuffer_cost", max(m1["buffer"], m2["buffer"]))
    note("pbuffer_flush_span", measure_pbuffer_flush_span())
    return values

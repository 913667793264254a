"""Calibration measurements.

Each helper measures one family of constants on fixed, documented seeds;
measure_constants() notes each value on stderr and assembles the frozen
dict committed to calibration.json. The constants of the report's bounded
lines are the worst line values over each structure's calibration
workloads, keyed by bench.LINE_CONSTANTS; the others are measured on the
sort and tree tasks the maps run, through one runner.
The acceptance suite re-runs the same helpers and asserts against the
frozen values at 1.5x slack.
"""

from __future__ import annotations

import math
import random
import sys

from .bench import (
    LINE_CONSTANTS, PARALLEL_MAPS, STRUCTURES, WorkloadSpec, run_experiment,
)
from .core import CmpCounter, Key, SEARCH, Operation
from .runtime import Runtime, par_map
from .sortlib import entropy, pesort_task
from .tree23 import Tree23, batch_update_task


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


def _run_ds(task):
    """Run a data-structure task on a Runtime(p=8); returns its metrics."""
    rt = Runtime(p=8)
    rt.spawn_root(task, owner="ds")
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
        _run_ds(pesort_task([Key(v, ctr) for v in values]))
        worst = max(worst, ctr.count / (n * h + n))
    return worst


def measure_pesort_span():
    worst = 0.0
    for logn in (6, 8, 10, 12, 14):
        n = 2 ** logn
        rnd = random.Random(300 + logn)
        values = [rnd.randrange(max(n // 8, 4)) for _ in range(n)]
        metrics = _run_ds(pesort_task([Key(v) for v in values]))
        worst = max(worst, metrics.ds_span / logn ** 2)
    return worst


def measure_tree_span_slope():
    spans = {}
    for logn in (6, 10, 14, 16):
        n = 2 ** logn
        t, _ = Tree23.build([(k, None) for k in range(0, 2 * n, 2)])
        keys = sorted(random.Random(400).sample(range(1, 2 * n, 2), 16))
        metrics = _run_ds(batch_update_task(t, [], [(k, None) for k in keys]))
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


def measure_line_constants(structure):
    """Run the structure's calibration workloads; returns, for each constant
    LINE_CONSTANTS names for the structure, the worst value of the lines it
    bounds."""
    specs = (m0_workloads() if structure == "m0"
             else [spec for p in (4, 8) for spec in map_workloads(p)])
    worst = {}
    for spec in specs:
        report = run_experiment(spec, structure, audit=False)
        for line in report.lines:
            assert line["passed"] or line["name"] != "equivalence"
            name = LINE_CONSTANTS.get((structure, line["name"]))
            if name is not None:
                worst[name] = max(worst.get(name, 0.0), line["value"])
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
    map_cls, scheduler = PARALLEL_MAPS[structure]
    rt = Runtime(p=p, scheduler=scheduler)
    ctr = CmpCounter()
    m = map_cls(rt)
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
    """Every frozen constant, rounded as calibration.json holds it; each is
    noted on stderr."""
    values = {}
    for structure in STRUCTURES:
        for name, value in measure_line_constants(structure).items():
            values[name] = max(values.get(name, 0.0), value)
    values["pesort_comps_per_entropy"] = measure_pesort_comps()
    values["pesort_span_per_log2n_sq"] = measure_pesort_span()
    values["tree_span_slope"], _spans = measure_tree_span_slope()
    values["pbuffer_flush_span"] = measure_pbuffer_flush_span()
    for name, value in values.items():
        print(f"{name}: {value:.4f}", file=sys.stderr)
    return {name: round(value, 4) for name, value in values.items()}

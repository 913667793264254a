"""Acceptance criteria, one test per criterion, one printed line each.

Property checks are exact; cost checks compare measured ratios against the
frozen calibration constants at 1.5x slack (desk scale: p in {4, 8},
n <= 2^16, modest op counts per seeded workload).
"""

import math
import random

from conftest import batch_op_task, line_constants, ppivot_task, rank_of
from wsmap.bench import (
    WorkloadSpec, _run_parallel, generate, run_experiment,
)
from wsmap.calibrate import (
    m0_workloads, measure_pbuffer_flush_span, measure_pesort_comps,
    measure_pesort_span, measure_tree_span_slope, span_separation_demo,
)
from wsmap.calibration import SLACK, frozen_constants
from wsmap.core import CmpCounter, INSERT, Key, Operation, SEARCH, UPDATE
from wsmap.pipelined import PipelinedWorkingSetMap
from wsmap.runtime import (
    Acquire, Call, DedicatedLock, Par, Runtime, par_map,
)
from wsmap.seqmap import SeqWorkingSetMap
from wsmap.sortlib import pesort_task
from wsmap.tree23 import Tree23, reverse_index_task


def execute_inline(gen):
    """Run a task generator to completion without the scheduler, executing
    Par branches sequentially; valid only when branches touch disjoint
    state. Returns the task's value; costs are discarded."""
    send = None
    while True:
        try:
            effect = gen.send(send)
        except StopIteration as stop:
            return stop.value
        if type(effect) is int:
            send = None
        elif isinstance(effect, Par):
            send = (execute_inline(effect.left), execute_inline(effect.right))
        elif isinstance(effect, Call):
            send = execute_inline(effect.gen)
        else:
            raise TypeError(f"inline execution cannot handle {effect!r}")


def _announce(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status} {detail}".rstrip())
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def _equivalence_specs(seed):
    rnd = random.Random(seed)
    return WorkloadSpec(
        generator=rnd.choice(["uniform", "zipf", "hotset", "coldest"]),
        n_ops=rnd.choice([60, 90, 120]),
        universe=rnd.choice([16, 48, 128]),
        mix={"search": 0.45, "insert": 0.3, "delete": 0.15, "update": 0.1},
        width=rnd.choice([1, 2, 4, 8]),
        seed=seed,
        p=rnd.choice([4, 8]))


def test_criterion_1_semantic_equivalence():
    failures = []
    for seed in range(100):
        spec = _equivalence_specs(seed)
        for structure in ("m0", "m1", "m2"):
            report = run_experiment(spec, structure, audit=False)
            for line in report.lines:
                if line["name"] in ("equivalence", "batch_preserving") \
                        and not line["passed"]:
                    failures.append((seed, structure, line["name"]))
    _announce(1, "semantic equivalence (100 seeds x m0/m1/m2)",
              not failures, f"failures={failures[:5]}")


def test_criterion_2_m0_working_set_bound():
    bound = SLACK * frozen_constants()["m0_steps_per_wl"]
    worst = line_constants("m0")["m0_steps_per_wl"]
    ok = worst <= bound
    # promotion bound, exact, on every successful access of a zipf run
    spec = m0_workloads()[0]
    chains = generate(spec)
    m = SeqWorkingSetMap()
    promo_ok = True
    for op in chains[0]:
        if op.kind == SEARCH:
            try:
                q = rank_of(m, op.key)
            except KeyError:
                q = None
            found, _ = m.search(op.key)
            if found and q is not None:
                q2 = rank_of(m, op.key)
                if q2 > 2 * math.sqrt(q):
                    promo_ok = False
                    break
        elif op.kind == INSERT:
            m.insert(op.key, op.payload)
        elif op.kind == UPDATE:
            m.update(op.key, op.payload)
        else:
            m.delete(op.key)
    _announce(2, "m0 working-set bound + promotion",
              ok and promo_ok,
              f"steps/W_L={worst:.2f} (bound {bound:.2f}) promo={promo_ok}")


def test_criterion_3_entropy_sort():
    frozen = frozen_constants()
    rnd = random.Random(33)
    sort_ok = True
    for trial in range(1000):
        n = rnd.randrange(0, 64)
        u = rnd.choice([2, 4, 16, 10 ** 6])
        values = [rnd.randrange(u) for _ in range(n)]
        ctr = CmpCounter()
        keys = [Key(v, ctr) for v in values]
        ref = [i for i, _ in sorted(enumerate(values), key=lambda t: t[1])]
        if execute_inline(pesort_task(keys)) != ref:
            sort_ok = False
            break
    # comparison bounds
    comps_ratio = measure_pesort_comps()
    comps_ok = comps_ratio <= SLACK * frozen["pesort_comps_per_entropy"]
    values = list(range(500))
    rnd.shuffle(values)
    ctr = CmpCounter()
    keys = [Key(v, ctr) for v in values]
    execute_inline(pesort_task(keys))
    floor_ok = ctr.count >= len(values) - 1
    # pesort span scaling
    span_ratio = measure_pesort_span()
    span_ok = span_ratio <= SLACK * frozen["pesort_span_per_log2n_sq"]
    # ppivot rank property, 10^4 random lists at k=64
    pivot_ok = True
    for trial in range(10_000):
        vals = [rnd.randrange(256) for _ in range(64)]
        keys = [Key(v) for v in vals]
        pivot = execute_inline(ppivot_task(keys, list(range(64))))
        le = sum(1 for v in vals if v <= pivot.value)
        ge = sum(1 for v in vals if v >= pivot.value)
        if 4 * le < 64 or 4 * ge < 64:
            pivot_ok = False
            break
    _announce(3, "entropy sorting",
              sort_ok and comps_ok and floor_ok and span_ok and pivot_ok,
              f"comps={comps_ratio:.2f} span={span_ratio:.2f} "
              f"pivot_ok={pivot_ok}")


def test_criterion_4_batched_tree():
    rnd = random.Random(44)
    audit_ok = True
    t = Tree23()
    model = {}
    for batch_no in range(1000):
        ks = sorted(rnd.sample(range(512), rnd.randrange(1, 20)))
        ops = [(rnd.choice(["search", "insert", "delete"]), k, batch_no)
               for k in ks]
        execute_inline(batch_op_task(t, ops))
        for kind, k, v in ops:
            if kind == "insert":
                model[k] = v
            elif kind == "delete":
                model.pop(k, None)
        try:
            t.audit(sorted_keys=True)
        except AssertionError:
            audit_ok = False
            break
        if sorted(model) != [lf.key for lf in t.leaves()]:
            audit_ok = False
            break
    slope, spans = measure_tree_span_slope()
    slope_ok = 0 < slope <= SLACK * frozen_constants()["tree_span_slope"]
    # reverse_index returns the pointed-to items sorted
    t2, leaves = Tree23.build([(k, None) for k in range(64)])
    sample = rnd.sample(leaves, 17)
    ordered = execute_inline(reverse_index_task(t2, sample))
    ri_ok = [lf.key for _pos, lf in ordered] == sorted(lf.key for lf in sample)
    _announce(4, "batched 2-3 tree",
              audit_ok and slope_ok and ri_ok,
              f"slope={slope:.1f} spans={spans}")


def test_criterion_5_m1_bounds():
    frozen = frozen_constants()
    worst = line_constants("m1")
    work_ok = worst["m1_work"] <= SLACK * frozen["m1_work"]
    span_ok = worst["m1_span"] <= SLACK * frozen["m1_span"]
    _announce(5, "m1 effective work/span bounds",
              work_ok and span_ok,
              f"work={worst['m1_work']:.2f} span={worst['m1_span']:.2f}")


def test_criterion_6_m2_invariants():
    # audits raise on any violation of balance invariants 1-4, filter size,
    # distinctness, or the rank invariant, at every run boundary
    violations = []
    for seed in range(100):
        rnd = random.Random(7000 + seed)
        spec = WorkloadSpec(
            generator=rnd.choice(["uniform", "zipf", "coldest"]),
            n_ops=420,
            universe=2048,
            mix={"search": 0.25, "insert": 0.65, "delete": 0.1,
                 "update": 0.0},
            width=rnd.choice([4, 8]),
            seed=7000 + seed,
            p=rnd.choice([4, 8]))
        try:
            report = run_experiment(spec, "m2", audit=True)
            if report.failed():
                violations.append((seed, [l["name"] for l in
                                          report.failed()]))
        except AssertionError as err:
            violations.append((seed, str(err)))
    fl_ok = (line_constants("m2")["m2_fl_delay"]
             <= SLACK * frozen_constants()["m2_fl_delay"])
    _announce(6, "m2 invariants (100 seeds) + front access",
              not violations and fl_ok,
              f"violations={violations[:3]} fl_ok={fl_ok}")


def test_criterion_7_m2_bounds():
    frozen = frozen_constants()
    worst = line_constants("m2")
    work_ok = worst["m2_work"] <= SLACK * frozen["m2_work"]
    span_ok = worst["m2_span"] <= SLACK * frozen["m2_span"]
    # under plain greedy, equivalence still holds; bound lines are reported
    # but not asserted
    spec = WorkloadSpec(generator="zipf", n_ops=400, universe=256,
                        mix={"search": 0.4, "insert": 0.45, "delete": 0.1,
                             "update": 0.05},
                        width=8, seed=71, p=8)
    report = run_experiment(spec, "m2", scheduler="greedy", audit=False)
    greedy_ok = not report.failed() and "work_per_bound" in report.ratios
    _announce(7, "m2 effective work/span bounds + greedy equivalence",
              work_ok and span_ok and greedy_ok,
              f"work={worst['m2_work']:.2f} span={worst['m2_span']:.2f} "
              f"greedy={greedy_ok}")


def test_criterion_8_span_separation():
    hot_m1 = span_separation_demo("m1")
    hot_m2 = span_separation_demo("m2")
    ratio = hot_m2 / hot_m1
    _announce(8, "span separation demo",
              ratio <= 0.7,
              f"hot-path span m1={hot_m1} m2={hot_m2} ratio={ratio:.3f}")


def test_criterion_9_locks_and_scheduler_quota():
    # dedicated-lock cyclic fairness: every holder/waiter-subset combination
    # for k in {2, 3} resumes in cyclic key order (the golden trace)
    fair_ok = True
    for k in (2, 3):
        for holder in range(1, k + 1):
            others = [key for key in range(1, k + 1) if key != holder]
            for mask in range(1, 2 ** len(others)):
                waiters = [key for i, key in enumerate(others)
                           if mask & (1 << i)]
                golden = sorted(
                    waiters, key=lambda key: (key - holder - 1) % k)
                rt = Runtime(p=4)
                lock = DedicatedLock(k)
                order = []

                def with_lock(key, hold):
                    yield Acquire(lock, key)
                    order.append(key)
                    yield hold
                    rt.release(lock)

                rt.spawn_root(with_lock(holder, 4 + 2 * len(waiters)))
                for w in waiters:
                    rt.spawn_root(with_lock(w, 1))
                rt.run()
                if order != [holder] + golden:
                    fair_ok = False
    # weak-priority quota, exact at every step of a traced m2 run
    rt = Runtime(p=4, scheduler="weak_priority", trace=True)
    m = PipelinedWorkingSetMap(rt)
    ctr = CmpCounter()
    ops = [Operation(i, INSERT, Key(i, ctr), i) for i in range(300)]
    ops += [Operation(300 + i, SEARCH, Key(i % 330, ctr)) for i in range(100)]
    _run_parallel(m, [ops[i::4] for i in range(4)])
    quota_ok = all(q1_exec == min(q1_ready, 2)
                   for q1_ready, _q2r, q1_exec, _q2e in rt.step_stats)
    _announce(9, "lock fairness + weak-priority quota",
              fair_ok and quota_ok,
              f"fair={fair_ok} quota={quota_ok} steps={len(rt.step_stats)}")


def test_criterion_10_parallel_buffer():
    from wsmap.pbuffer import ParallelBuffer
    from wsmap.runtime import ActivationGate, BUFFER, Call

    lost_ok = True
    rnd = random.Random(10)
    for trial in range(30):
        p = rnd.choice([4, 8])
        rt = Runtime(p=p)
        taken = []

        class _Sink:
            def __init__(self):
                self.gate = ActivationGate(lambda: buf.pending > 0,
                                           self.drain)

            def drain(self):
                batch = yield Call(buf.flush_task(), owner=BUFFER)
                taken.extend(op for op, _h in batch)
                for _op, h in batch:
                    rt.resume(h, None)
                yield rnd.randrange(1, 6)
                return True

        sink = _Sink()
        buf = ParallelBuffer(rt, activate=sink.gate.activate)
        n_sent = 0
        chains = []
        for c in range(rnd.randrange(1, 2 * p)):
            n = rnd.randrange(0, 8)
            chains.append((rnd.randrange(0, 6),
                           list(range(n_sent, n_sent + n))))
            n_sent += n

        def chain(spec_pair):
            delay, items = spec_pair
            if delay:
                yield delay
            for op in items:
                yield from buf.submit(op)

        def root():
            yield from par_map(chains, chain)

        rt.spawn_root(root())
        rt.run()
        if sorted(taken) != list(range(n_sent)):
            lost_ok = False
            break
    flush_ratio = measure_pbuffer_flush_span()
    span_ok = flush_ratio <= SLACK * frozen_constants()["pbuffer_flush_span"]
    _announce(10, "parallel buffer",
              lost_ok and span_ok,
              f"lost={not lost_ok} flush_span={flush_ratio:.2f}")

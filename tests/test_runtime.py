import hashlib
import random

import pytest

from conftest import chunk_chains, random_ops
from wsmap.batched import BatchedWorkingSetMap
from wsmap.pipelined import PipelinedWorkingSetMap
from wsmap.runtime import (
    Acquire, ActivationGate, BUFFER, Call, DedicatedLock, LockUsageError,
    Par, Park, Q1, Q2, Runtime, SimDeadlock, Sub, concat_tree,
    merge_sort_task, par_map, PROGRAM, DS,
)


def _leaf():
    return 1
    yield  # pragma: no cover


def _chain(n):
    # a serial thread of exactly n unit nodes
    for _ in range(n - 1):
        yield 1


def _tree(depth):
    if depth == 0:
        return 1
        yield  # pragma: no cover
    a, b = yield Par(_tree(depth - 1), _tree(depth - 1))
    return a + b


def test_serial_chain_work_span_steps():
    rt = Runtime(p=4)
    rt.spawn_root(_chain(10))
    m = rt.run()
    assert m.t1 == 10
    assert m.t_inf == 10
    assert m.steps == 10


def _enumerate_tree(depth):
    # independent oracle: recurrence over the generator-task shape
    # leaf = 1 node; internal = fork node + two subtrees + join node
    if depth == 0:
        return 1, 1
    w, s = _enumerate_tree(depth - 1)
    return 2 * w + 2, s + 2


def test_fork_join_tree_against_enumeration():
    for depth in (1, 2, 3):
        rt = Runtime(p=4)
        rt.spawn_root(_tree(depth))
        m = rt.run()
        w, s = _enumerate_tree(depth)
        assert m.t1 == w
        assert m.t_inf == s
    assert _enumerate_tree(3) == (22, 7)


def test_greedy_executes_min_ready_p_each_step():
    # 16 independent single-node tasks, p=4 -> exactly 4 steps
    rt = Runtime(p=4, trace=True)
    for _ in range(16):
        rt.spawn_root(_leaf())
    m = rt.run()
    assert m.steps == 4
    per_step = {}
    for step, _nid, _owner, _queue in rt.trace:
        per_step[step] = per_step.get(step, 0) + 1
    assert all(v == 4 for v in per_step.values())


def test_weak_priority_quota_per_step():
    # 8 ready Q1 + 8 ready Q2 at p=4: every step runs 2 from each queue
    rt = Runtime(p=4, scheduler="weak_priority", trace=True)
    for _ in range(8):
        rt.spawn_root(_leaf(), owner=DS, queue=Q1)
    for _ in range(8):
        rt.spawn_root(_leaf(), owner=PROGRAM, queue=Q2)
    m = rt.run()
    assert m.steps == 4
    counts = {}
    for step, _nid, _owner, queue in rt.trace:
        counts.setdefault(step, {Q1: 0, Q2: 0})
        counts[step][queue] += 1
    for step in counts:
        assert counts[step] == {Q1: 2, Q2: 2}


def test_work_effect_charges_stall_ticks():
    def task():
        yield 5

    rt = Runtime(p=4)
    rt.spawn_root(task())
    m = rt.run()
    # segment of cost 5 plus the return node
    assert m.t1 == 6


def test_p_and_scheduler_validation():
    with pytest.raises(ValueError):
        Runtime(p=2)
    with pytest.raises(ValueError):
        Runtime(p=5, scheduler="weak_priority")
    with pytest.raises(ValueError):
        Runtime(p=8, scheduler="fifo")


def _locked(lock, key, log, label):
    yield Acquire(lock, key)
    log.append(("acq", label))
    yield 3

    # release happens inside this node
    def noop():
        return None
        yield  # pragma: no cover

    log.append(("rel", label))
    return label


class _Releaser:
    pass


def test_dedicated_lock_cyclic_resumption():
    # holder key=1, waiters 2 and 3 park while held; releases resume 2 then 3
    rt = Runtime(p=4)
    lock = DedicatedLock(3, name="L")
    order = []

    def worker(key, hold):
        yield Acquire(lock, key)
        order.append(key)
        yield hold
        rt.release(lock)

    rt.spawn_root(worker(1, 6))
    rt.spawn_root(worker(2, 1))
    rt.spawn_root(worker(3, 1))
    rt.run()
    assert order == [1, 2, 3]


def test_dedicated_lock_wraparound():
    # holder key=3 (k=3), waiter key=1: release scans 3 -> 1
    rt = Runtime(p=4)
    lock = DedicatedLock(3, name="L")
    order = []

    def worker(key, hold):
        yield Acquire(lock, key)
        order.append(key)
        yield hold
        rt.release(lock)

    def delayed(key):
        yield 2
        yield Acquire(lock, key)
        order.append(key)
        rt.release(lock)

    rt.spawn_root(worker(3, 6))
    rt.spawn_root(delayed(1))
    rt.run()
    assert order == [3, 1]


def test_dedicated_lock_duplicate_key_rejected():
    rt = Runtime(p=4)
    lock = DedicatedLock(2, name="L")

    def holder():
        yield Acquire(lock, 2)
        yield 10
        rt.release(lock)

    def waiter():
        yield Acquire(lock, 1)
        rt.release(lock)

    rt.spawn_root(holder())
    rt.spawn_root(waiter())
    rt.spawn_root(waiter())
    with pytest.raises(LockUsageError):
        rt.run()
    assert lock.count == 2


def test_acquire_of_the_holders_key_rejected():
    # a task that acquires a key it already holds used to park on its own
    # lock, and the run ended in a SimDeadlock that named neither
    rt = Runtime(p=4)
    lock = DedicatedLock(2, name="L")

    def twice():
        yield Acquire(lock, 1)
        yield Acquire(lock, 1)

    rt.spawn_root(twice())
    with pytest.raises(LockUsageError, match="key 1 of lock L"):
        rt.run()
    assert lock.count == 1

    rt = Runtime(p=4)
    lock = DedicatedLock(2, name="M")

    def holder():
        yield Acquire(lock, 2)
        yield 5
        rt.release(lock)

    def other():
        yield 1
        yield Acquire(lock, 2)
        rt.release(lock)

    rt.spawn_root(holder())
    rt.spawn_root(other())
    with pytest.raises(LockUsageError, match="key 2 of lock M"):
        rt.run()
    assert lock.count == 1


def test_deadlock_detection_reports():
    rt = Runtime(p=4)
    lock = DedicatedLock(2, name="stuck")
    rt.register_lock(lock)

    def holder():
        yield Acquire(lock, 1)
        yield 2
        # never releases

    def waiter():
        yield Acquire(lock, 2)

    rt.spawn_root(holder())
    rt.spawn_root(waiter())
    with pytest.raises(SimDeadlock) as err:
        rt.run()
    assert err.value.blocked == [("stuck", [2])]


def test_activation_gate_runs_once_when_ready():
    rt = Runtime(p=4)
    runs = []
    state = {"ready": True}

    def process():
        runs.append(1)
        state["ready"] = False
        yield 1
        return False

    gate = ActivationGate(lambda: state["ready"], process)
    rt.spawn_root(gate.activate(), owner=DS)
    rt.spawn_root(gate.activate(), owner=DS)
    rt.run()
    assert runs == [1]


def test_activation_gate_self_reactivation():
    rt = Runtime(p=4)
    runs = []
    state = {"left": 3}

    def process():
        runs.append(state["left"])
        state["left"] -= 1
        yield 1
        return True  # reactivate; gate re-checks readiness

    gate = ActivationGate(lambda: state["left"] > 0, process)
    rt.spawn_root(gate.activate(), owner=DS)
    rt.run()
    assert runs == [3, 2, 1]


def test_activation_gate_no_lost_wakeup():
    # an activator that makes the predicate true while the process runs is
    # never lost: the self-reactivation re-checks the predicate
    rt = Runtime(p=4)
    runs = []
    state = {"pending": 1}

    def process():
        runs.append(state["pending"])
        state["pending"] -= 1
        yield 8
        return True

    gate = ActivationGate(lambda: state["pending"] > 0, process)

    def activator():
        yield 3
        state["pending"] += 1
        yield from gate.activate()  # fails try-lock: process is running

    rt.spawn_root(gate.activate(), owner=DS)
    rt.spawn_root(activator(), owner=DS)
    rt.run()
    assert runs == [1, 1]


def test_park_resume_roundtrip():
    rt = Runtime(p=4)
    slots = []
    got = []

    def caller():
        value = yield Park(lambda h: slots.append(h))
        got.append(value)

    def resumer():
        yield 3
        rt.resume(slots[0], "hello")

    rt.spawn_root(caller())
    rt.spawn_root(resumer())
    rt.run()
    assert got == ["hello"]


def test_unresumed_park_is_deadlock():
    rt = Runtime(p=4)

    def caller():
        yield Park(lambda h: None)

    rt.spawn_root(caller())
    with pytest.raises(SimDeadlock):
        rt.run()


def test_par_map_and_concat_tree():
    def double(x):
        yield 1
        return 2 * x

    def root(out):
        vals = yield from par_map(list(range(20)), double)
        out.append(vals)
        cat = yield from concat_tree([[1, 2], [3], [], [4, 5]])
        out.append(cat)

    rt = Runtime(p=8)
    out = []
    rt.spawn_root(root(out))
    rt.run()
    assert out[0] == [2 * x for x in range(20)]
    assert out[1] == [1, 2, 3, 4, 5]


def test_merge_sort_task_sorts():
    import random
    rnd = random.Random(7)
    items = [rnd.randrange(100) for _ in range(57)]

    def root(out):
        out.append((yield from merge_sort_task(items, key=lambda x: x)))

    rt = Runtime(p=8)
    out = []
    rt.spawn_root(root(out))
    rt.run()
    assert out[0] == sorted(items)


def test_determinism_identical_traces():
    def make():
        def prog():
            vals = yield from par_map(list(range(13)), lambda x: _noop(x))
            return vals

        def _noop(x):
            yield 2
            return x

        rt = Runtime(p=4, trace=True)
        rt.spawn_root(prog())
        m = rt.run()
        return m, rt.trace

    m1, t1 = make()
    m2, t2 = make()
    assert t1 == t2
    assert m1.to_dict() == m2.to_dict()


def test_detach_runs_independently():
    rt = Runtime(p=4)
    hits = []

    def side():
        yield 1
        hits.append("side")

    def main():
        rt.detach(side())
        yield 1
        yield 1
        hits.append("main")

    rt.spawn_root(main())
    rt.run()
    assert sorted(hits) == ["main", "side"]


# -- untraced shortcuts against the traced reference -----------------------
#
# With trace=False, Runtime.run executes a step's nodes inline, skips a run of
# steps in which every ready node runs and is a stall tick of a `yield c`, and
# runs a lone task's code nodes back to back; with trace=True it steps one node
# at a time. Both must run every code node at the same step and slot and give
# the same metrics.


def _logged(rt, log, label, gen):
    """Run gen as a task, logging (step, slot, label) at each code node."""
    send = None
    while True:
        log.append((rt.now, rt.current_slot, label))
        try:
            effect = gen.send(send)
        except StopIteration as stop:
            return stop.value
        send = yield effect


def _run_both(build, p=4, scheduler="greedy"):
    """Run the DAG that build(rt, handles, task) spawns with trace on and
    off, task(label, gen) wrapping a generator so its code nodes are logged;
    assert the runs agree and return the untraced one's metrics."""
    runs = []
    for trace in (True, False):
        rt = Runtime(p=p, scheduler=scheduler, trace=trace)
        log, handles = [], []
        build(rt, handles,
              lambda label, gen, rt=rt, log=log: _logged(rt, log, label, gen))
        metrics = rt.run()
        assert log
        runs.append((log, metrics))
    assert runs[0] == runs[1]
    return runs[1][1]


def _costs(*cs):
    for c in cs:
        yield c
    return sum(cs)


def test_fast_forward_greedy_mixed_tick_lengths():
    def build(rt, handles, task):
        def fork():
            yield Par(task("f1", _costs(12, 2)), task("f2", _costs(7)))

        def root():
            yield 4
            yield Par(task("a", _costs(3, 9, 1)), task("fork", fork()))
            yield 5

        rt.spawn_root(task("root", root()))
        rt.spawn_root(task("ds", _costs(6, 6)), owner=DS)

    _run_both(build)


def test_fast_forward_waits_while_more_than_p_ready():
    # six chains share four slots until the two short ones are done
    def build(rt, handles, task):
        for i in range(2):
            rt.spawn_root(task(f"short{i}", _costs(4)))
        for i in range(4):
            rt.spawn_root(task(f"long{i}", _costs(30)))

    _run_both(build, p=4)


def test_fast_forward_weak_priority_queue_at_quota():
    def build(rt, handles, task):
        # Q1 holds exactly its quota of p/2 = 2, Q2 holds one
        rt.spawn_root(task("q1a", _costs(10)), owner=DS, queue=Q1)
        rt.spawn_root(task("q1b", _costs(14)), owner=DS, queue=Q1)
        rt.spawn_root(task("q2", _costs(8, 3)), owner=PROGRAM, queue=Q2)

    def crowded(rt, handles, task):
        # three Q1 nodes exceed the quota until one chain finishes
        for i in range(3):
            rt.spawn_root(task(f"q1{i}", _costs(10)), owner=DS, queue=Q1)

    _run_both(build, scheduler="weak_priority")
    _run_both(crowded, scheduler="weak_priority")


def test_fast_forward_counts_filter_probe_steps():
    # a lone task fills the filter while it runs: the probe is read at each
    # of its code nodes and once for the ticks after each
    def build(rt, handles, task):
        filt = []
        rt.filter_probe = lambda: len(filt)

        def filler():
            for _ in range(6):
                yield 5
                filt.append(None)

        rt.spawn_root(task("filler", filler()))

    m = _run_both(build)
    assert m.filter_full_steps > 0 and m.filter_empty_steps > 0
    assert m.filter_full_steps + m.filter_empty_steps == m.steps


def test_fast_forward_lock_waiter_parked_across_long_tick():
    def build(rt, handles, task):
        lock = rt.register_lock(DedicatedLock(2, name="L"))

        def holder():
            yield Acquire(lock, 1)
            yield 30
            handles.append(lock.slots[2])
            rt.release(lock)

        def waiter():
            yield 2
            yield Acquire(lock, 2)
            yield 9
            rt.release(lock)

        def parker():
            value = yield Park(handles.append)
            yield value

        def resumer():
            yield 17
            rt.resume(handles[0], 11)

        rt.spawn_root(task("parker", parker()))
        rt.spawn_root(task("holder", holder()))
        rt.spawn_root(task("waiter", waiter()))
        rt.spawn_root(task("resumer", resumer()))

    _run_both(build)


def _chain_left_by_detach(rt, handles, task):
    def main():
        yield 3
        yield 1
        yield 4
        rt.detach(task("side", _costs(2, 3)), owner=BUFFER)
        yield 1
        yield 9
        rt.detach(task("inline", _costs(4, 1)), owner=DS, queue=Q1)
        yield 3
        yield 1

    rt.spawn_root(task("main", main()))


def _chain_left_by_resume(rt, handles, task):
    def waiter():
        value = yield Park(handles.append)
        yield value
        yield 2

    def resumer():
        yield 1
        yield 3
        yield 2
        rt.resume(handles[0], 4)
        yield 3
        yield 1

    rt.spawn_root(task("waiter", waiter()))
    rt.spawn_root(task("resumer", resumer()))


def _chain_left_by_release(rt, handles, task):
    lock = rt.register_lock(DedicatedLock(2, name="L"))

    def holder():
        yield Acquire(lock, 1)
        yield 2
        yield 3
        handles.append(lock.slots[2])
        rt.release(lock)
        yield 2

    def waiter():
        yield Acquire(lock, 2)
        yield 3
        rt.release(lock)

    rt.spawn_root(task("holder", holder()))
    rt.spawn_root(task("waiter", waiter()))


def _chain_left_by_par(rt, handles, task):
    def main():
        yield 3
        yield 2
        a, b = yield Par(task("l", _costs(2, 2)),
                         Sub(task("r", _costs(5)), owner=DS, queue=Q1))
        yield a + b
        yield 1

    rt.spawn_root(task("main", main()))


def _chain_left_by_call_finish(rt, handles, task):
    def child():
        yield 2
        yield 4
        yield 1
        return 7

    def main():
        value = yield Call(task("child", child()), owner=DS, queue=Q1)
        yield value
        yield 1

    rt.spawn_root(task("main", main()), owner=BUFFER)


@pytest.mark.parametrize("build", [
    _chain_left_by_detach, _chain_left_by_resume, _chain_left_by_release,
    _chain_left_by_par, _chain_left_by_call_finish,
], ids=lambda build: build.__name__[len("_chain_left_by_"):])
@pytest.mark.parametrize("scheduler", ["greedy", "weak_priority"])
def test_lone_task_chain_exits(build, scheduler):
    _run_both(build, scheduler=scheduler)


# -- differential scheduler check ----------------------------------------------
#
# Seeded random DAGs with wide fan-out run under both schedulers. With
# trace=True every step's executed ids must match a reference picker that
# sees the whole ready set: the first p by id (greedy), or the first p/2 of
# each queue by id (weak priority). trace=False must give the same metrics.


def _random_plan(rnd, depth, keys):
    """A task as a list of actions; keys hands out distinct lock keys."""
    plan = []
    for _ in range(rnd.randint(1, 4)):
        r = rnd.random()
        if depth and r < 0.3:
            plan.append(("par", _random_sub(rnd, depth - 1, keys),
                         _random_sub(rnd, depth - 1, keys)))
        elif depth and r < 0.4:
            plan.append(("call", _random_sub(rnd, depth - 1, keys)))
        elif depth and r < 0.5:
            plan.append(("detach", _random_sub(rnd, depth - 1, keys)))
        elif r < 0.6:
            keys.append(len(keys) + 1)
            plan.append(("lock", keys[-1], rnd.randint(1, 9)))
        else:
            plan.append(("cost", rnd.randint(1, 9)))
    return plan


def _random_sub(rnd, depth, keys):
    return (_random_plan(rnd, depth, keys), rnd.choice((PROGRAM, BUFFER, DS)),
            rnd.choice((Q1, Q2)))


def _plan_task(rt, lock, plan):
    for action in plan:
        kind = action[0]
        if kind == "cost":
            yield action[1]
        elif kind == "lock":
            yield Acquire(lock, action[1])
            yield action[2]
            rt.release(lock)
        elif kind == "par":
            yield Par(*(Sub(_plan_task(rt, lock, sub), owner, queue)
                        for sub, owner, queue in action[1:]))
        else:
            sub, owner, queue = action[1]
            child = _plan_task(rt, lock, sub)
            if kind == "call":
                yield Call(child, owner, queue)
            else:
                rt.detach(child, owner, queue)
                yield 1


def _run_plans(plans, n_keys, p, scheduler, trace):
    rt = Runtime(p=p, scheduler=scheduler, trace=trace)
    lock = rt.register_lock(DedicatedLock(max(n_keys, 1), name="L"))
    for sub, owner, queue in plans:
        rt.spawn_root(_plan_task(rt, lock, sub), owner=owner, queue=queue)
    return rt, rt.run()


@pytest.mark.parametrize("scheduler", ["greedy", "weak_priority"])
@pytest.mark.parametrize("p", [4, 8])
def test_scheduler_matches_reference_picker(monkeypatch, scheduler, p):
    staged_before = {}   # (runtime, step) -> ids handed out before the step
    run_batch = Runtime._run_batch

    def recording(rt, batch):
        staged_before[rt, rt.now] = rt._ids
        run_batch(rt, batch)

    monkeypatch.setattr(Runtime, "_run_batch", recording)
    half = p // 2
    contended = 0
    for seed in range(4):
        rnd = random.Random(1000 * p + seed)
        keys = []
        plans = [_random_sub(rnd, 4, keys) for _ in range(p)]
        rt, metrics = _run_plans(plans, len(keys), p, scheduler, True)
        queue_of = {nid: queue for _step, nid, _owner, queue in rt.trace}
        assert sorted(queue_of) == list(range(rt._ids))
        by_step = {}
        for step, nid, _owner, _queue in rt.trace:
            by_step.setdefault(step, []).append(nid)
        assert sorted(by_step) == list(range(metrics.steps))
        done = set()
        for step in range(metrics.steps):
            ready = [nid for nid in range(staged_before[rt, step])
                     if nid not in done]
            q1 = [nid for nid in ready if queue_of[nid] == Q1]
            q2 = [nid for nid in ready if queue_of[nid] != Q1]
            if scheduler == "greedy":
                expect = ready[:p]
                contended += len(ready) > p
            else:
                expect = sorted(q1[:half] + q2[:half])
                contended += len(q1) > half or len(q2) > half
            assert by_step[step] == expect, f"seed {seed} step {step}"
            q1_exec = sum(queue_of[nid] == Q1 for nid in expect)
            assert rt.step_stats[step] == (len(q1), len(q2), q1_exec,
                                           len(expect) - q1_exec)
            done.update(expect)
        _fast_rt, fast = _run_plans(plans, len(keys), p, scheduler, False)
        assert fast == metrics
    # the DAGs are wide enough to reach the contended branch
    assert contended >= 20


# -- pinned traced runs ----------------------------------------------------------
#
# The traced runtime is the reference the untraced loop is checked against, so
# its own behaviour is pinned: sha256 of the trace, step_stats, metrics,
# fl_delays and results of map workloads, M2 at m_override=1 among them (final
# slab actors deeper than S[m] take the front-lock chain and neighbour locks).


def _traced_map_digest(structure, scheduler, m_override):
    if structure == "m1":
        ops, width, p = random_ops(300, 64, 41, mix=(0.6, 0.25, 0.1, 0.05)), 8, 8
    elif m_override is None:
        # grows past the first slab, so the final slab and front-locks run
        ops, width, p = random_ops(600, 2048, 5, mix=(0.15, 0.75, 0.05, 0.05)), 8, 4
    else:
        ops, width, p = random_ops(400, 160, 3, mix=(0.35, 0.4, 0.2, 0.05)), 16, 4
    rt = Runtime(p=p, scheduler=scheduler, trace=True)
    if structure == "m1":
        m = BatchedWorkingSetMap(rt, p)
    else:
        m = PipelinedWorkingSetMap(rt, p, m_override=m_override)
    m.audit = False
    results = {}

    def chain_task(chain):
        for op in chain:
            results[op.op_id] = (yield from m.call(op)).tuple

    def root():
        yield from par_map(chunk_chains(ops, width), chain_task)

    rt.spawn_root(root())
    metrics = rt.run()
    fingerprint = (rt.trace, rt.step_stats, metrics.to_dict(),
                   sorted(metrics.work.items()), getattr(m, "fl_delays", None),
                   sorted(results.items()))
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


@pytest.mark.parametrize("structure, scheduler, m_override, digest", [
    ("m1", "greedy", None,
     "3c1bcf442e475de611fe513fa2b2ea21c64875634663f06b581471fd73ed0e37"),
    ("m2", "weak_priority", None,
     "c3d75582ffb5eb8f746b76dde2c7a0b5b135ab67197bab4ebbff774c95a2c8e8"),
    ("m2", "weak_priority", 1,
     "9781ce0d7c821acdf5e33a12f473106a85e64048b7b0ae824ba526e415568db8"),
    ("m2", "greedy", 1,
     "da2828efe0f88d177fd0f3fb75f51de523477348f9a0d83ca5ea43238295552d"),
])
def test_traced_runtime_pinned(structure, scheduler, m_override, digest):
    assert _traced_map_digest(structure, scheduler, m_override) == digest

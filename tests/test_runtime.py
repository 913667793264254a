import hashlib
import math
import random

import pytest

from conftest import chunk_chains, random_ops
from wsmap.batched import BatchedWorkingSetMap
from wsmap.bench import _run_parallel
from wsmap.pipelined import PipelinedWorkingSetMap
from wsmap.runtime import (
    Acquire, ActivationGate, BUFFER, Call, DedicatedLock, LockUsageError,
    Par, Park, Q1, Q2, Runtime, SimDeadlock, concat_tree,
    merge_sort_task, par_map, PROGRAM, DS, DS_FINAL,
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
        rt.spawn_root(_leaf(), owner=DS_FINAL)
    for _ in range(8):
        rt.spawn_root(_leaf(), owner=PROGRAM)
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
    # a float p would only fail later, as a list index in the step loop
    for p in (8.0, "8", True):
        with pytest.raises(ValueError, match="p must be an integer >= 4"):
            Runtime(p=p)


def _yielding(*effects):
    yield from effects


def _run_yielding(*effects):
    """Run one task that yields effects in turn."""
    rt = Runtime(p=4)
    rt.spawn_root(_yielding(*effects))
    return rt.run()


def test_usage_errors_raise():
    rt = Runtime(p=4)
    handles = []

    def resumer():
        yield 1
        rt.resume(handles[0], None)
        rt.resume(handles[0], None)

    rt.spawn_root(_yielding(Park(handles.append)))
    rt.spawn_root(resumer())
    with pytest.raises(LockUsageError, match="double resume"):
        rt.run()
    with pytest.raises(LockUsageError, match="release of unheld lock L"):
        Runtime(p=4).release(DedicatedLock(2, name="L"))
    with pytest.raises(LockUsageError, match="key 3 out of range for lock L"):
        _run_yielding(Acquire(DedicatedLock(2, name="L"), 3))
    with pytest.raises(TypeError, match="unsupported effect 'x'"):
        _run_yielding("x")


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


@pytest.mark.parametrize("returned", [False, None])
def test_activation_gate_reruns_while_ready(returned):
    # the gate re-checks readiness after every run, so whatever the process
    # returns (None: it returns nothing), a run that leaves the predicate
    # true is followed by another one
    rt = Runtime(p=4)
    runs = []
    state = {"left": 3}

    def process():
        runs.append(state["left"])
        state["left"] -= 1
        yield 1
        return returned

    gate = ActivationGate(lambda: state["left"] > 0, process)
    rt.spawn_root(gate.activate(), owner=DS)
    rt.run()
    assert runs == [3, 2, 1]
    assert not gate.held


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
    metrics = rt.run()
    assert out[0] == sorted(items)
    # the merges are sequential, so the span is linear in n, not polylog:
    # about 2n merge steps plus two fork/join nodes per level
    n = len(items)
    assert 2 * n <= metrics.t_inf <= 2 * n + 3 * math.ceil(math.log2(n))


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


# -- the untraced fast-forward against the traced reference -----------------
#
# With trace=False, Runtime._run_batch runs, in one pass, a run of k steps in
# which every ready node runs and is a stall tick of a `yield c`; with
# trace=True it steps one step at a time. Both must run every code node at
# the same step and slot and give the same metrics.


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
        rt.spawn_root(task("q1a", _costs(10)), owner=DS_FINAL)
        rt.spawn_root(task("q1b", _costs(14)), owner=DS_FINAL)
        rt.spawn_root(task("q2", _costs(8, 3)), owner=PROGRAM)

    def crowded(rt, handles, task):
        # three Q1 nodes exceed the quota until one chain finishes
        for i in range(3):
            rt.spawn_root(task(f"q1{i}", _costs(10)), owner=DS_FINAL)

    _run_both(build, scheduler="weak_priority")
    _run_both(crowded, scheduler="weak_priority")


def test_fast_forward_lock_waiter_parked_across_long_tick():
    def build(rt, handles, task):
        lock = DedicatedLock(2, name="L")

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
        rt.detach(task("inline", _costs(4, 1)), owner=DS_FINAL)
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
    lock = DedicatedLock(2, name="L")

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


def _call(gen, owner):
    """A Par branch that runs gen on its own owner."""
    return (yield Call(gen, owner))


def _chain_left_by_par(rt, handles, task):
    def main():
        yield 3
        yield 2
        a, b = yield Par(task("l", _costs(2, 2)),
                         _call(task("r", _costs(5)), owner=DS_FINAL))
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
        value = yield Call(task("child", child()), owner=DS_FINAL)
        yield value
        yield 1

    rt.spawn_root(task("main", main()), owner=BUFFER)


def _chain_left_by_acquire(rt, handles, task):
    # the lock is free: the Acquire restages the task at once
    lock = DedicatedLock(2, name="L")

    def main():
        yield 2
        yield 1
        yield 3
        yield Acquire(lock, 1)
        yield 4
        rt.release(lock)
        yield 1

    rt.spawn_root(task("main", main()))


def _chain_left_by_park(rt, handles, task):
    # the register detaches the task's own resumer, as ParallelBuffer.submit
    # does: the resumer's chain ends when its resume stages the parked task
    def resumer(handle):
        yield 2
        yield 3
        rt.resume(handle, 4)
        yield 1

    def main():
        yield 3
        yield 1
        value = yield Park(lambda handle: rt.detach(
            task("resumer", resumer(handle)), owner=BUFFER))
        yield value
        yield 2

    rt.spawn_root(task("main", main()))


@pytest.mark.parametrize("build", [
    _chain_left_by_detach, _chain_left_by_resume, _chain_left_by_release,
    _chain_left_by_par, _chain_left_by_call_finish, _chain_left_by_acquire,
    _chain_left_by_park,
], ids=lambda build: build.__name__[len("_chain_left_by_"):])
@pytest.mark.parametrize("scheduler", ["greedy", "weak_priority"])
def test_lone_task_chain_exits(build, scheduler):
    # each builder runs one task's code nodes, often alone in the ready set,
    # until an effect of one kind stages another node: traced and untraced
    # runs must agree across the fast-forward on either side of it
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
    return (_random_plan(rnd, depth, keys),
            rnd.choice((PROGRAM, BUFFER, DS, DS_FINAL)))


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
            yield Par(*(_call(_plan_task(rt, lock, sub), owner)
                        for sub, owner in action[1:]))
        else:
            sub, owner = action[1]
            child = _plan_task(rt, lock, sub)
            if kind == "call":
                yield Call(child, owner)
            else:
                rt.detach(child, owner)
                yield 1


def _run_plans(plans, n_keys, p, scheduler, trace):
    rt = Runtime(p=p, scheduler=scheduler, trace=trace)
    lock = DedicatedLock(max(n_keys, 1), name="L")
    for sub, owner in plans:
        rt.spawn_root(_plan_task(rt, lock, sub), owner=owner)
    return rt, rt.run()


@pytest.mark.parametrize("scheduler", ["greedy", "weak_priority"])
@pytest.mark.parametrize("p", [4, 8])
def test_scheduler_matches_reference_picker(monkeypatch, scheduler, p):
    staged_before = {}   # (runtime, step) -> ids handed out before the step
    run_batch = Runtime._run_batch

    def recording(rt, batch, k):
        staged_before[rt, rt.now] = rt._ids
        run_batch(rt, batch, k)

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
        # a node's queue follows from its owner alone
        assert all(queue == (Q1 if owner == DS_FINAL else Q2)
                   for _step, _nid, owner, queue in rt.trace)
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
# Each pinned case is named by its map workload rather than by its digest, so
# a re-pinned digest keeps the test's name.


def _run_map(structure, scheduler, m_override, trace):
    """Run a seeded map workload; returns the runtime, its metrics, the map
    and the results by op id."""
    if structure == "m1":
        ops, width, p = random_ops(300, 64, 41, mix=(0.6, 0.25, 0.1, 0.05)), 8, 8
    elif m_override is None:
        # grows past the first slab, so the final slab and front-locks run
        ops, width, p = random_ops(600, 2048, 5, mix=(0.15, 0.75, 0.05, 0.05)), 8, 4
    else:
        ops, width, p = random_ops(400, 160, 3, mix=(0.35, 0.4, 0.2, 0.05)), 16, 4
    rt = Runtime(p=p, scheduler=scheduler, trace=trace)
    if structure == "m1":
        m = BatchedWorkingSetMap(rt)
    else:
        m = PipelinedWorkingSetMap(rt, m_override=m_override)
    m.audit = False
    results, metrics = _run_parallel(m, chunk_chains(ops, width))
    return rt, metrics, m, {op_id: r.tuple for op_id, r in results.items()}


def _traced_map_digest(structure, scheduler, m_override):
    rt, metrics, m, results = _run_map(structure, scheduler, m_override, True)
    fingerprint = (rt.trace, rt.step_stats, metrics.to_dict(),
                   sorted(metrics.work.items()), getattr(m, "fl_delays", None),
                   sorted(results.items()))
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


_MAP_CASES = [("m1", "greedy", None), ("m2", "weak_priority", None),
              ("m2", "weak_priority", 1), ("m2", "greedy", 1)]


@pytest.mark.parametrize("structure, scheduler, m_override", _MAP_CASES)
def test_untraced_matches_traced_map_runs(structure, scheduler, m_override):
    # the pinned report digests come from untraced runs: check that the
    # shortcuts reproduce the traced reference on the pinned map workloads
    _rt, ref, ref_map, ref_results = _run_map(structure, scheduler,
                                              m_override, True)
    _rt, fast, fast_map, fast_results = _run_map(structure, scheduler,
                                                 m_override, False)
    assert fast.to_dict() == ref.to_dict()
    assert fast.work == ref.work
    assert (getattr(fast_map, "fl_delays", None)
            == getattr(ref_map, "fl_delays", None))
    # the map's filter-full tally reads rt.now at each filter change, so it
    # checks that the clock is exact under the tick fast-forward
    if structure == "m2":
        assert (fast_map.filter_size, fast_map.filter_full_steps()) == \
            (ref_map.filter_size, ref_map.filter_full_steps())
    assert fast_results == ref_results


@pytest.mark.parametrize("structure, scheduler, m_override, digest", [
    ("m1", "greedy", None,
     "faa606496b1da4fd6bece1cc2cd2b7cd8773382c84d4c89ddf31616b9fdaf749"),
    ("m2", "weak_priority", None,
     "c80d3d72c4f2cff68e878ba6b2d2f97f0a0c8fbec692dce08b7c4c421a73066c"),
    ("m2", "weak_priority", 1,
     "3b035338481e8a9b463454c92aeb53226a70de30a9c677238de8fb57de8a7c33"),
    ("m2", "greedy", 1,
     "6059d809c729da0a961ca0ad6ce41780942a51263feea26fdd08aa69cce79210"),
], ids=[f"{s}-{sched}-{m}" for s, sched, m in _MAP_CASES])
def test_traced_runtime_pinned(structure, scheduler, m_override, digest):
    assert _traced_map_digest(structure, scheduler, m_override) == digest

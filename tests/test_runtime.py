import random

import pytest

from wsmap.runtime import (
    Acquire, ActivationGate, BUFFER, Call, DedicatedLock, Detach,
    LockUsageError, Par, Park, Q1, Q2, Runtime, SimDeadlock, Sub, concat_tree,
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
        yield Detach(side())
        yield 1
        hits.append("main")

    rt.spawn_root(main())
    rt.run()
    assert sorted(hits) == ["main", "side"]


# -- tick fast-forward ---------------------------------------------------------
#
# With trace=False, Runtime.run skips a run of steps in which every ready node
# runs and is a stall tick of a `yield c`, and runs the other steps' nodes
# inline; with trace=True it steps one by one through _exec. Both must give
# the same metrics, node ids and park handles. Every step that is not
# skipped goes through Runtime._run_batch on both paths.


def _run_both(monkeypatch, build, p=4, scheduler="greedy"):
    """Run the DAG that build(rt, handles) spawns step by step and with the
    fast-forward; assert they agree and return the fast-forwarded runs as
    (first step, steps skipped) pairs."""
    skips = []
    executed = {True: [], False: []}   # trace on? -> (step, node id) run
    skip_ticks, run_batch = Runtime._skip_ticks, Runtime._run_batch

    def recording_skip(rt, batch, k):
        skips.append((rt.now, k))
        skip_ticks(rt, batch, k)

    def recording_run_batch(rt, batch):
        executed[rt.trace is not None].extend(
            (rt.now, entry[0]) for entry in batch)
        run_batch(rt, batch)

    monkeypatch.setattr(Runtime, "_skip_ticks", recording_skip)
    monkeypatch.setattr(Runtime, "_run_batch", recording_run_batch)
    runs = []
    for trace in (True, False):
        rt = Runtime(p=p, scheduler=scheduler, trace=trace)
        handles = []
        build(rt, handles)
        metrics = rt.run()
        runs.append((metrics, rt._next_id, [h.node_id for h in handles],
                     rt.step_stats))
        if trace:
            # the trace=True run executes every node through the seam
            assert executed[True] == [(step, nid)
                                      for step, nid, _o, _q in rt.trace]
    (slow, slow_id, slow_handles, stats), (fast, fast_id, fast_handles, _) = runs
    assert fast == slow
    assert fast_id == slow_id
    assert fast_handles == slow_handles
    # a skipped step is one where the scheduler ran every ready node, and
    # every other step runs the same node ids as step by step
    skipped = set()
    for now, k in skips:
        skipped.update(range(now, now + k))
        for q1_ready, q2_ready, q1_exec, q2_exec in stats[now:now + k]:
            assert (q1_exec, q2_exec) == (q1_ready, q2_ready)
    assert executed[False] == [(step, nid) for step, nid in executed[True]
                               if step not in skipped]
    return skips


def _costs(*cs):
    for c in cs:
        yield c


def test_fast_forward_greedy_mixed_tick_lengths(monkeypatch):
    def fork():
        yield Par(_costs(12, 2), _costs(7))

    def root():
        yield 4
        yield Par(_costs(3, 9, 1), fork())
        yield 5

    def build(rt, handles):
        rt.spawn_root(root())
        rt.spawn_root(_costs(6, 6), owner=DS)

    skips = _run_both(monkeypatch, build)
    assert len(skips) > 1


def test_fast_forward_waits_while_more_than_p_ready(monkeypatch):
    def build(rt, handles):
        for _ in range(2):
            rt.spawn_root(_costs(4))
        for _ in range(4):
            rt.spawn_root(_costs(30))

    skips = _run_both(monkeypatch, build, p=4)
    # six chains share four slots: nothing is skipped until the two short
    # chains (5 nodes each) are done
    assert skips and all(now >= 5 for now, _k in skips)


def test_fast_forward_weak_priority_queue_at_quota(monkeypatch):
    def build(rt, handles):
        # Q1 holds exactly its quota of p/2 = 2, Q2 holds one
        rt.spawn_root(_costs(10), owner=DS, queue=Q1)
        rt.spawn_root(_costs(14), owner=DS, queue=Q1)
        rt.spawn_root(_costs(8, 3), owner=PROGRAM, queue=Q2)

    skips = _run_both(monkeypatch, build, scheduler="weak_priority")
    assert skips

    def crowded(rt, handles):
        for _ in range(3):
            rt.spawn_root(_costs(10), owner=DS, queue=Q1)

    # three Q1 nodes exceed the quota until one chain finishes
    assert all(now >= 10 for now, _k in
               _run_both(monkeypatch, crowded, scheduler="weak_priority"))


def test_fast_forward_counts_filter_probe_steps(monkeypatch):
    def build(rt, handles):
        filt = []
        rt.filter_probe = lambda: len(filt)

        def filler():
            for _ in range(6):
                yield 5
                filt.append(None)

        rt.spawn_root(filler())

    skips = _run_both(monkeypatch, build)
    assert skips
    rt = Runtime(p=4)
    build(rt, [])
    m = rt.run()
    assert m.filter_full_steps > 0 and m.filter_empty_steps > 0
    assert m.filter_full_steps + m.filter_empty_steps == m.steps


def test_fast_forward_lock_waiter_parked_across_long_tick(monkeypatch):
    def build(rt, handles):
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

        rt.spawn_root(parker())
        rt.spawn_root(holder())
        rt.spawn_root(waiter())
        rt.spawn_root(resumer())

    skips = _run_both(monkeypatch, build)
    assert skips


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
            yield (Call if kind == "call" else Detach)(child, owner, queue)


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
        staged_before[rt, rt.now] = rt._next_id
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
        assert sorted(queue_of) == list(range(rt._next_id))
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
        fast_rt, fast = _run_plans(plans, len(keys), p, scheduler, False)
        assert fast == metrics
        assert fast_rt._next_id == rt._next_id
    # the DAGs are wide enough to reach the contended branch
    assert contended >= 20

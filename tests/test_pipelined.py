import random
from functools import partial

import pytest

from conftest import chunk_chains, golden_spec, random_ops, run_map_workload
from wsmap import bench
from wsmap.batched import GroupOp
from wsmap.bench import generate, run_experiment
from wsmap.core import (
    CmpCounter, DELETE, INSERT, Key, Operation, SEARCH, oracle_replay,
)
from wsmap.pipelined import PipelinedWorkingSetMap, first_slab_depth
from wsmap.runtime import Runtime
from wsmap.tree23 import TreeUsageError, batch_update_task


def _maker(m_override=None, audit=True):
    def make(rt):
        m = PipelinedWorkingSetMap(rt, m_override=m_override)
        m.audit = audit
        return m
    return make


def _check_equivalence(results, m):
    lin = m.extract_linearization()
    assert len(lin) == len(results), \
        f"linearization has {len(lin)} ops, delivered {len(results)}"
    expected = oracle_replay(lin)
    for op, exp in zip(lin, expected):
        assert results[op.op_id] == exp, f"op {op.op_id} {op.kind} {op.key}"


def test_first_slab_depth():
    assert first_slab_depth(4) == 4
    assert first_slab_depth(8) == 4
    assert first_slab_depth(16) == 5


def test_small_map_stays_in_first_slab():
    ctr = CmpCounter()
    ops = [Operation(i, INSERT, Key(i, ctr), i) for i in range(6)]
    ops += [Operation(6 + i, SEARCH, Key(i, ctr)) for i in range(6)]
    for sched in ("weak_priority", "greedy"):
        results, m, _metrics, _rt = run_map_workload(
            _maker(), [ops], p=4, scheduler=sched)
        assert m.terminal is None
        assert len(m.filter) == 0
        for i in range(6):
            assert results[6 + i].tuple == (True, i)
        _check_equivalence(results, m)


@pytest.mark.parametrize("scheduler", ["weak_priority", "greedy"])
def test_final_slab_engages_with_overrides(scheduler):
    # m_override=2 puts the final slab at S[2] so a few hundred keys
    # exercise the pipeline, the filter, and multi-segment forwarding
    ctr = CmpCounter()
    ops = []
    oid = 0
    for i in range(80):
        ops.append(Operation(oid, INSERT, Key(i, ctr), i)); oid += 1
    rnd = random.Random(5)
    for _ in range(200):
        i = rnd.randrange(90)
        kind = rnd.choice([SEARCH, SEARCH, INSERT, DELETE])
        ops.append(Operation(oid, kind, Key(i, ctr),
                             oid if kind == INSERT else None)); oid += 1
    results, m, _metrics, _rt = run_map_workload(
        _maker(m_override=2),
        chunk_chains(ops, 4), p=4, scheduler=scheduler)
    assert m.terminal is not None and m.terminal >= 2
    _check_equivalence(results, m)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_random_workloads_real_m(seed):
    ops = random_ops(500, 64, seed, mix=(0.4, 0.4, 0.1, 0.1))
    width = random.Random(seed + 100).choice([1, 4, 8])
    results, m, _metrics, _rt = run_map_workload(
        _maker(), chunk_chains(ops, width), p=4, scheduler="weak_priority")
    _check_equivalence(results, m)


def test_random_workloads_real_m_greedy():
    ops = random_ops(400, 48, 21, mix=(0.5, 0.3, 0.1, 0.1))
    results, m, _metrics, _rt = run_map_workload(
        _maker(), chunk_chains(ops, 8), p=8, scheduler="greedy")
    _check_equivalence(results, m)


def test_filter_traps_second_op_on_in_flight_key():
    # serial chains resynchronize at every terminal finish, so traps only
    # happen when a chain is phase-shifted by fast first-slab hits: its next
    # miss then reaches the filter while the twin miss is still in flight
    ctr = CmpCounter()
    ops = [Operation(i, INSERT, Key(i, ctr), i) for i in range(120)]
    chains = [ops]
    chains.append([Operation(10000 + r, SEARCH, Key(99999, ctr))
                   for r in range(20)])
    chain_b = []
    oid = 20000
    for r in range(20):
        chain_b.append(Operation(oid, SEARCH, Key(r % 2, ctr)))
        oid += 1
        chain_b.append(Operation(oid, SEARCH, Key(99999, ctr)))
        oid += 1
    chains.append(chain_b)
    results, m, _metrics, _rt = run_map_workload(
        _maker(m_override=1), chains, p=4,
        scheduler="weak_priority")
    _check_equivalence(results, m)
    assert m.trapped_ops > 0, "no op was ever trapped in the filter"
    # every miss on the absent key observed absence
    for r in range(20):
        assert results[10000 + r].tuple == (False, None)


def test_deletions_drain_final_slab_and_remove_terminal():
    ctr = CmpCounter()
    keys = {i: Key(i, ctr) for i in range(48)}
    ops = [Operation(i, INSERT, keys[i], i) for i in range(48)]
    ops += [Operation(48 + i, DELETE, keys[i]) for i in range(48)]
    ops += [Operation(96 + i, INSERT, Key(1000 + i, ctr), i) for i in range(20)]
    ops += [Operation(116 + i, SEARCH, Key(1000 + i, ctr)) for i in range(20)]
    results, m, _metrics, _rt = run_map_workload(
        _maker(m_override=2), [ops], p=4,
        scheduler="weak_priority")
    assert m.n == 20
    _check_equivalence(results, m)
    for i in range(20):
        assert results[116 + i].tuple == (True, i)


@pytest.mark.parametrize("scheduler", ["weak_priority", "greedy"])
@pytest.mark.parametrize("m_override, seed", [(1, 3), (1, 34), (2, 16)])
def test_deep_final_slab_actors_match_the_oracle(m_override, seed, scheduler):
    # actors deeper than S[m]: seed 3 once regrew S[k+1] after it emptied
    # and left the chain while S[k] waited for nl[k+1], then acquired the
    # nl[k+1] it already held (SimDeadlock); seeds 34 and 16 trapped an
    # insert into a tagged deletion's filter entry, and the group's "keep"
    # result was never re-inserted (a later search missed the key)
    ops = random_ops(700, 160, seed, mix=(0.35, 0.4, 0.2, 0.05))
    results, m, _metrics, _rt = run_map_workload(
        _maker(m_override=m_override, audit=False), chunk_chains(ops, 16),
        p=4, scheduler=scheduler)
    _check_equivalence(results, m)


@pytest.mark.parametrize("scheduler", ["weak_priority", "greedy"])
def test_final_slab_drains_while_the_interface_waits(scheduler, monkeypatch):
    # the interface takes nl[m] and the front-locks for a final slab that
    # its holder then pops; the interface releases them, recording no
    # front-access delay (t0=None), and finishes the batch in the first slab
    release = PipelinedWorkingSetMap._front_release
    untimed = []

    def spy(self, k, t0):
        if t0 is None:
            untimed.append(k)
        return (yield from release(self, k, t0))

    monkeypatch.setattr(PipelinedWorkingSetMap, "_front_release", spy)
    ops = random_ops(700, 40, 21, mix=(0.35, 0.4, 0.2, 0.05))
    results, m, _metrics, _rt = run_map_workload(
        _maker(m_override=2), chunk_chains(ops, 16), p=4,
        scheduler=scheduler)
    assert untimed == [2]
    _check_equivalence(results, m)


def test_front_lock_delays_recorded_and_bounded():
    # real m: the final slab starts at S[4], whose tree heights are O(2^m),
    # so every front-locked window stays within a constant times 2^(m+k)
    ctr = CmpCounter()
    ops = [Operation(i, INSERT, Key(i, ctr), i) for i in range(420)]
    rnd = random.Random(31)
    for j in range(300):
        ops.append(Operation(420 + j, SEARCH, Key(rnd.randrange(440), ctr)))
    _results, m, _metrics, _rt = run_map_workload(
        _maker(), chunk_chains(ops, 8),
        p=4, scheduler="weak_priority")
    assert m.fl_delays, "front-lock sections never measured"
    for k, delay in m.fl_delays:
        assert delay <= 120 * (2 ** k), f"S[{k}] front access took {delay}"


def test_balance_invariants_audited_with_real_m():
    # real m = 4: growing past 278 items opens the final slab at S[4]
    ctr = CmpCounter()
    ops = [Operation(i, INSERT, Key(i, ctr), i) for i in range(400)]
    rnd = random.Random(9)
    oid = 400
    extra = []
    for _ in range(300):
        i = rnd.randrange(420)
        kind = rnd.choice([SEARCH, SEARCH, DELETE, INSERT])
        extra.append(Operation(oid, kind, Key(i, ctr),
                               oid if kind == INSERT else None))
        oid += 1
    results, m, _metrics, _rt = run_map_workload(
        _maker(), chunk_chains(ops, 8) + [extra], p=8,
        scheduler="weak_priority")
    assert m.terminal == 4
    m.audit_distinctness()
    m.audit_balance()
    _check_equivalence(results, m)


def test_emptied_last_segment_not_refilled_before_a_short_one():
    # hot_zipf_m1 shape on m2: a deletion empties the last first-slab
    # segment while the one before it is short; the next inserts must top
    # that one up first (the interface audits that every first-slab segment
    # but the last is exactly full while no final slab exists)
    spec = golden_spec("m1-hot_zipf_m1", n_ops=500, seed=2)
    report = run_experiment(spec, "m2", audit=True)
    assert not report.failed(), report.failed()


@pytest.mark.parametrize("scheduler", ["weak_priority", "greedy"])
def test_filter_full_steps_match_a_per_step_recount(scheduler, monkeypatch):
    # a traced run executes one step per _run_batch call: sample the map's
    # filter count there and check the tally against the recount at every
    # step and in the report
    maps, samples = [], []

    def make(rt):
        maps.append(PipelinedWorkingSetMap(rt))
        return maps[-1]

    run_batch = Runtime._run_batch
    full = 0

    def sampling(rt, batch, k):
        nonlocal full
        m = maps[0]
        assert k == 1 and m.filter_full_steps() == full
        samples.append(m.filter_size)
        full += m.filter_size >= rt.p
        return run_batch(rt, batch, k)

    monkeypatch.setattr(bench, "Runtime", partial(Runtime, trace=True))
    monkeypatch.setitem(bench.PARALLEL_MAPS, "m2",
                        (make, bench.PARALLEL_MAPS["m2"][1]))
    monkeypatch.setattr(Runtime, "_run_batch", sampling)
    spec = golden_spec("m2-deep_insert_m2-400", width=16, p=4)
    steps = run_experiment(spec, "m2", scheduler=scheduler).metrics["steps"]
    assert len(samples) == steps["total"]
    assert steps["filter_full"] == full > 0
    assert steps["filter_empty"] == steps["total"] - full > 0
    assert maps[0].filter_size == len(maps[0].filter) == 0


def test_a_stale_filter_size_at_the_end_of_a_run_fails_run_experiment(
        monkeypatch):
    # in-run audits never find M2 quiescent, so only the audit after the
    # run compares filter_size with the filter; each delete batch here
    # leaves one entry uncounted, which no earlier check notices
    class Miscounts(PipelinedWorkingSetMap):
        def _resize_filter(self, delta):
            super()._resize_filter(delta + 1 if delta < 0 else delta)

    monkeypatch.setitem(bench.PARALLEL_MAPS, "m2",
                        (Miscounts, bench.PARALLEL_MAPS["m2"][1]))
    spec = golden_spec("m2-deep_insert_m2-400", width=16, p=4)
    with pytest.raises(AssertionError, match="stale filter_size"):
        run_experiment(spec, "m2")


def test_interface_waits_while_a_filter_batch_holds_a_full_filter():
    # a filter update batch works on a detached piece, so len(m.filter)
    # reads 0 until it finishes; the interface must still see more than p^2
    # entries
    rt = Runtime(p=4)
    m = PipelinedWorkingSetMap(rt)
    rt.spawn_root(m._filter_pass([GroupOp(Key(i), [])
                                  for i in range(m.p2 + 1)]))
    rt.run()
    m.feed.append([[(Operation(0, SEARCH, Key(0)), None)]])
    assert not m._ready()
    insert = batch_update_task(m.filter, [], [(Key(m.p2 + 1), None)])
    next(insert)
    assert len(m.filter) == 0
    assert not m._ready()
    with pytest.raises(StopIteration):
        insert.send(None)
    m._resize_filter(1)
    assert m.filter_size == len(m.filter) == m.p2 + 2


def _deep_insert_m2(n_ops=400, seed=1):
    """Run the deep_insert_m2 benchmark shape with every audit on, long
    enough to open the final slab; returns (map, metrics)."""
    spec = golden_spec("m2-deep_insert_m2-400", n_ops=n_ops, seed=seed)
    _results, m, metrics, _rt = run_map_workload(
        _maker(), generate(spec), p=spec.p, scheduler="weak_priority")
    m._maybe_audit()
    assert m.terminal is not None and metrics.work.get("ds_final", 0) > 0
    return m, metrics


def test_filter_leaf_lives_while_its_group_is_in_flight(monkeypatch):
    # an admitted group holds its filter entry's leaf, which the filter
    # delete removes by handle: at every front-locked release (the filter
    # is attached) each visible in-flight group's leaf is alive in the
    # filter, and a delivered group's leaf is dead
    front_release = PipelinedWorkingSetMap._front_release
    deliver = PipelinedWorkingSetMap._deliver
    checked, delivered = [], []

    def releasing(m, k, t0):
        live = {id(lf) for lf in m.filter.leaves()}
        for seg in m.final:
            groups = [lf.val for lf in seg.buffer.leaves()]
            groups += [g for g in seg.in_flight if not g.finished]
            for g in groups:
                assert g.filter_leaf.alive and g.filter_leaf.val is g
                assert id(g.filter_leaf) in live
            checked.extend(groups)
        return (yield from front_release(m, k, t0))

    def delivering(m, deliveries):
        for g, _results in deliveries:
            if g.filter_leaf is not None:
                assert not g.filter_leaf.alive
                delivered.append(g)
        return deliver(m, deliveries)

    monkeypatch.setattr(PipelinedWorkingSetMap, "_front_release", releasing)
    monkeypatch.setattr(PipelinedWorkingSetMap, "_deliver", delivering)
    m, _metrics = _deep_insert_m2()
    assert checked and delivered
    assert m.filter_size == len(m.filter) == 0
    assert not any(g.filter_leaf.alive for g in delivered)
    with pytest.raises(TreeUsageError, match="delete of a dead handle"):
        m.filter.delete_leaf(delivered[0].filter_leaf)


def _reference_budgets(m):
    """The suffix-count formulation of the rank audit, rebuilt from every
    event: returns (event keys by last event, [(final-slab position, key,
    budget or None for a key with no event)])."""
    last_index = {}
    for i, ops in enumerate(m.events):
        last_index[ops[0].key.value] = i
    suffix = [0] * (len(m.events) + 1)
    seen = set()
    for i in range(len(m.events) - 1, -1, -1):
        seen.add(m.events[i][0].key.value)
        suffix[i] = len(seen)
    items = []
    position = 0
    for seg in m.final:
        for lf in seg.rec.leaves():
            position += 1
            last = last_index.get(lf.key.value)
            items.append((position, lf.key.value,
                          None if last is None else suffix[last]))
    return sorted(last_index, key=last_index.get), items


def test_rank_budgets_match_the_suffix_count_reference(monkeypatch):
    # at every run boundary, the recency-ranked budgets give each final-slab
    # item the same pass/fail as the suffix counts, at its budget and at its
    # budget lowered by one; an unranked key's suffix count exceeds F
    audit = PipelinedWorkingSetMap.audit_rank_invariant
    seen = {"calls": 0, "items": 0, "ranked": 0, "tight": 0}

    def checked(m):
        by_recency, items = _reference_budgets(m)
        assert list(m._recency) == by_recency
        ranks = m._recency_ranks(len(items))
        for position, key, old in items:
            assert old is not None and key in m._recency
            new = ranks.get(key)
            for lower in (0, 1):
                assert (position <= old - lower) == \
                    (new is None or position <= new - lower)
            if new is None:
                assert old > len(items)
            else:
                assert new == old
                seen["ranked"] += 1
            seen["tight"] += position == old
        seen["calls"] += 1
        seen["items"] += len(items)
        audit(m)

    monkeypatch.setattr(PipelinedWorkingSetMap, "audit_rank_invariant",
                        checked)
    for seed in (1, 2):
        _deep_insert_m2(600, seed)
    assert seen["calls"] >= 300 and seen["items"] >= 10_000
    assert seen["ranked"] > 0 and seen["tight"] > 0


def _final_slab_leaves(m):
    return [lf for seg in m.final for lf in seg.rec.leaves()]


def _filter_holds_a_first_slab_key(m):
    m.filter.insert(m.segments[0].keys.leaves()[0].key, None)
    m.gate.held = True   # mid-cycle: in-flight keys may lag the filter


def _duplicate_in_flight_key(m):
    ghost = GroupOp(Key(-1), [])
    m.segments[m.terminal].in_flight = [ghost, ghost]


def _in_flight_key_not_in_filter(m):
    m.segments[m.terminal].in_flight = [GroupOp(Key(-1), [])]


def _filter_key_not_in_flight(m):
    m.filter.insert(Key(-1), None)


def _final_segment_over_3x_capacity(m):
    seg = m.segments[m.m]
    seg.cap = seg.size // 3 - 1


def _hole_in_first_slab(m):
    m.segments[0].cap += 1


def _hole_in_last_first_slab_segment(m):
    m.segments[m.m - 1].cap += 1


def _prefix_under_capacity(m):
    # invariant 4 needs a non-terminal final segment; with the interface
    # mid-cycle, first-slab holes are allowed by invariant 2 but not by it
    m._grow_segment()
    m.gate.held = True
    m.segments[0].cap += 2 * m.p2 + 1


def _item_without_event(m):
    _final_slab_leaves(m)[0].key = Key(-1)


def _last_first_slab_segment_over_capacity(m):
    seg = m.segments[m.m - 1]
    seg.cap = seg.size - 1


def _break_a_final_slab_twin(m):
    _final_slab_leaves(m)[0].twin = None


def _miscount_n(m):
    m.n += 1


@pytest.mark.parametrize("corrupt, audit, message", [
    (_filter_holds_a_first_slab_key, "audit_distinctness",
     "first-slab key"),
    (_duplicate_in_flight_key, "audit_distinctness", "duplicate keys"),
    (_in_flight_key_not_in_filter, "audit_distinctness",
     "missing from the filter"),
    (_filter_key_not_in_flight, "audit_distinctness",
     "diverge from in-flight keys"),
    (_final_segment_over_3x_capacity, "audit_balance", "over 3x capacity"),
    (_hole_in_first_slab, "audit_balance", "hole in first-slab segment 0"),
    (_hole_in_last_first_slab_segment, "audit_balance",
     "has 1 holes > 0 deletions"),
    (_prefix_under_capacity, "audit_balance", "under capacity"),
    (_item_without_event, "audit_rank_invariant", "has no event"),
    (_last_first_slab_segment_over_capacity, "audit_balance",
     r"S\[m-1\] over capacity: \d+/\d+"),
    (_break_a_final_slab_twin, "_maybe_audit", "broken twin"),
    (_miscount_n, "_maybe_audit", "wrong n"),
])
def test_audits_catch_corrupted_state(corrupt, audit, message):
    m, _metrics = _deep_insert_m2()
    getattr(m, audit)()
    corrupt(m)
    with pytest.raises(AssertionError, match=message):
        getattr(m, audit)()


def test_distinctness_audit_checks_an_attached_filter_mid_cycle():
    # with the interface mid-cycle the map is not quiescent, but the filter
    # is attached, so an in-flight key it lacks is still caught
    m, _metrics = _deep_insert_m2()
    _in_flight_key_not_in_filter(m)
    m.gate.held = True
    with pytest.raises(AssertionError, match="missing from the filter"):
        m.audit_distinctness()


def test_distinctness_audit_skips_a_filter_a_batch_holds_detached():
    # a filter update batch works on a detached piece, so the filter reads
    # empty until it rejoins; the in-flight check then waits for the rejoin
    m, _metrics = _deep_insert_m2()
    key = Key(-1)
    m.segments[m.terminal].in_flight = [GroupOp(key, [])]
    m.filter.insert(key, None)
    delivered = m.filter.insert(Key(-2), None)
    m.filter_size += 2
    m.gate.held = True
    m.audit_distinctness()
    drop = batch_update_task(m.filter, [delivered], [])
    next(drop)
    assert len(m.filter) == 0 and m.filter_size == 2
    m.audit_distinctness()
    with pytest.raises(StopIteration):
        drop.send(None)
    m._resize_filter(-1)
    m.audit_distinctness()
    m.gate.held = False
    m.audit_distinctness()


def test_rank_audit_catches_an_item_swapped_past_its_budget(monkeypatch):
    # when this run ends no final-slab budget is below F, so no swap can
    # break one; swap at the first run boundary where a budget is below F,
    # check the audit, then swap back
    audit = PipelinedWorkingSetMap.audit_rank_invariant
    caught = []

    def swapping(m):
        audit(m)
        _by_recency, items = _reference_budgets(m)
        tight = [pos for pos, _key, budget in items if budget < len(items)]
        if caught or not tight:
            return
        leaves = _final_slab_leaves(m)
        a, b = leaves[tight[0] - 1], leaves[-1]
        a.key, b.key = b.key, a.key
        with pytest.raises(AssertionError, match="exceeds its recency budget"):
            audit(m)
        a.key, b.key = b.key, a.key
        caught.append(m)

    monkeypatch.setattr(PipelinedWorkingSetMap, "audit_rank_invariant",
                        swapping)
    _deep_insert_m2()
    assert caught

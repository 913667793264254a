"""The segment shift: one hit pass's removal, keep insert and boundary move
as one seg_move_task, checked against the three phases it replaces, and
where the maps take it."""

import random

import pytest

from conftest import golden_spec, run_task
from wsmap import batched, pipelined
from wsmap.batched import BatchedWorkingSetMap, GroupOp
from wsmap.bench import run_experiment
from wsmap.core import DELETE, SEARCH, CmpCounter, Key, Operation
from wsmap.runtime import Runtime
from wsmap.segments import (
    PairedSegment, boundary_move, preload_segment, seg_move_task,
    seg_update_task,
)
from wsmap.tree23 import StepMeter, pop_extreme_task


def _pair(left_items, right_items):
    """A fresh S[1]|S[2] pair preloaded with (key, value) items, most recent
    first; every run gets its own keys, so no state is shared."""
    meter, ctr = StepMeter(), CmpCounter()
    segs = []
    for index, items in ((1, left_items), (2, right_items)):
        seg = PairedSegment(index, meter)
        preload_segment(seg, [(Key(k, ctr), v) for k, v in items])
        segs.append(seg)
    return segs, ctr


def _state(seg):
    """Both orders with values, and each recency leaf's twin."""
    seg.audit()
    for rl in seg.rec.leaves():
        assert rl.twin.twin is rl and rl.twin.key is rl.key
        assert rl.twin.val == rl.val
    return ([(lf.key.value, lf.val) for lf in seg.keys.leaves()],
            [(lf.key.value, lf.val) for lf in seg.rec.leaves()])


def _run_both(left_items, right_items, found_idx, block_items, surplus):
    """(shift, three-phase) end states of one random case: found_idx picks
    right's key-order positions, block_items are key-sorted (key, value).
    The shift moves at most |left| items, as the maps clamp it, and a
    boundary move takes the rest."""
    states = []
    for shift in (True, False):
        (left, right), ctr = _pair(left_items, right_items)
        found = [right.keys.leaves()[i] for i in found_idx]
        block = [(Key(k, ctr), v) for k, v in block_items]
        if shift:
            count = min(surplus, left.size)
            run_task(seg_move_task(left, right, count, found, block))
            rest = boundary_move(left, right, surplus - count)
        else:
            run_task(seg_update_task(right, found, [], [], "front"))
            if block:
                run_task(seg_update_task(left, [], block, block, "front"))
            rest = boundary_move(left, right, surplus)
        if rest is not None:
            run_task(rest)
        states.append((_state(left), _state(right)))
    return states


@pytest.mark.parametrize("seed", range(6))
def test_shift_equals_remove_insert_move(seed):
    rnd = random.Random(seed)
    for _ in range(40):
        # sizes up to three caps of S[1] (4) and S[2] (16)
        n_left, n_right = rnd.randint(1, 12), rnd.randint(0, 48)
        keys = rnd.sample(range(1000), n_left + n_right + 8)
        left_items = [(k, -k) for k in keys[:n_left]]
        right_items = [(k, -k) for k in keys[n_left:n_left + n_right]]
        by_key = sorted(k for k, _v in right_items)
        found_idx = sorted(rnd.sample(range(n_right),
                                      rnd.randint(0, n_right)))
        # kept found items carry new values; some blocks add new keys
        kept = [by_key[i] for i in found_idx if rnd.random() < 0.6]
        fresh = keys[n_left + n_right:][:rnd.choice((0, 0, 3, 8))]
        block_items = sorted([(k, k) for k in kept + fresh])
        surplus = rnd.randint(0, n_left + len(block_items))
        shifted, phased = _run_both(left_items, right_items, found_idx,
                                    block_items, surplus)
        assert shifted == phased, (seed, n_left, n_right, surplus)


def _recency(seg):
    return [lf.key.value for lf in seg.rec.leaves()]


def test_update_deletes_the_live_twins_of_its_dead_leaves():
    # the caller names key-tree leaves only: their live recency twins go
    # too, and a twin pop_extreme_task already popped is skipped
    (seg, _right), _ctr = _pair([(k, -k) for k in (5, 1, 7, 3, 9, 2)], [])
    found = [seg.keys.leaves()[i] for i in (1, 4)]        # keys 2 and 7
    twins = [lf.twin for lf in found]
    run_task(seg_update_task(seg, found, [], [], "front"))
    assert not any(lf.alive for lf in found + twins)
    assert _recency(seg) == [5, 1, 3, 9]
    popped, _m, _rt = run_task(pop_extreme_task(seg.rec, 2, "back"))
    assert [lf.key.value for lf in popped] == [3, 9]
    live = seg.keys.leaves()[0]                            # key 1
    dead = sorted([live] + [lf.twin for lf in popped], key=lambda lf: lf.hi)
    run_task(seg_update_task(seg, dead, [], [], "front"))
    _state(seg)
    assert _recency(seg) == [5]
    assert [lf.key.value for lf in seg.keys.leaves()] == [5]


def test_move_takes_its_ends_from_segment_order():
    # toward a later segment: src's back to dst's front; toward an earlier
    # one: src's front to dst's back, each block in its recency order
    (left, right), _ctr = _pair([(k, k) for k in (1, 2, 3, 4)],
                                [(k, k) for k in (10, 11, 12, 13, 14)])
    run_task(seg_move_task(right, left, 3))
    assert (_recency(left), _recency(right)) == ([1, 2, 3, 4, 10, 11, 12],
                                                 [13, 14])
    run_task(seg_move_task(left, right, 2))
    assert (_recency(left), _recency(right)) == ([1, 2, 3, 4, 10],
                                                 [11, 12, 13, 14])
    _state(left)
    _state(right)


def _map_with_pass_spies(monkeypatch, sizes):
    """An M1 map preloaded to exact capacity, its segment sizes checked,
    with deliveries dropped and the counts of its passes' boundary moves
    recorded."""
    rt = Runtime(p=4, scheduler="greedy")
    m = BatchedWorkingSetMap(rt)
    ctr = CmpCounter()
    m.preload([(Key(k, ctr), k) for k in range(sum(sizes))])
    assert [seg.size for seg in m.segments] == sizes
    m._deliver = lambda deliveries: None
    calls = []
    move_task = batched.seg_move_task

    def spy(src, dst, count, *args):
        calls.append(count)
        return move_task(src, dst, count, *args)

    monkeypatch.setattr(batched, "seg_move_task", spy)
    return m, ctr, calls


def _groups(ctr, kind, keys):
    return [GroupOp(Key(k, ctr), [(Operation(i, kind, Key(k, ctr), None),
                                   None)])
            for i, k in enumerate(keys)]


@pytest.mark.parametrize("k, kind, keys, shifted", [
    (0, SEARCH, [0], []),            # k = 0 keeps its hits in S[0]
    (1, DELETE, [3], [0]),           # surplus 0: nothing kept
    (1, SEARCH, [2, 3, 4], [2]),     # surplus 3, clamped to |S[0]| = 2
    (1, SEARCH, [3], [1]),           # surplus 1 fits
    (1, SEARCH, [2, 5], [2]),        # surplus 2 = |S[0]|
    (1, DELETE, [99], []),           # nothing found
], ids=["k0", "surplus0", "over_left", "one", "all_of_left", "miss"])
def test_pass_takes_the_shift_only_for_a_surplus_left_holds(
        monkeypatch, k, kind, keys, shifted):
    # every k >= 1 pass that finds an item makes one seg_move_task, its
    # count the boundary surplus clamped to [0, |S[k-1]|]; restoring the
    # prefix moves the rest
    m, ctr, calls = _map_with_pass_spies(monkeypatch, [2, 4, 10])
    before = [[lf.key.value for lf in seg.rec.leaves()] for seg in m.segments]
    pending = _groups(ctr, kind, keys)
    run_task(m._segment_pass(k, pending))
    assert calls == shifted
    # trees, twins and n; a deletion's hole stays for the next pass to fill
    batched.SegmentedMap.audit_segments(m)
    after = [[lf.key.value for lf in seg.rec.leaves()] for seg in m.segments]
    if kind == SEARCH:
        # the hits lead the map in key order, and S[0..k-1] is exactly full
        assert sum(after, [])[:len(keys)] == keys
        assert [len(a) for a in after] == [len(b) for b in before]
    gone = set(keys) if kind == DELETE else set()
    assert sorted(sum(after, [])) == sorted(set(sum(before, [])) - gone)


@pytest.mark.parametrize("name, structure, actor", [
    ("m1-hot_zipf_m1", "m1", False),
    ("m2-deep_insert_m2-600", "m2", True),
])
def test_golden_specs_take_the_shift(monkeypatch, name, structure, actor):
    # the interface's passes and the S[m] actor each shift at least once
    calls = {"interface": 0, "actor": 0}

    def counting(module, who):
        move_task = module.seg_move_task

        def spy(src, dst, count, *args):
            calls[who] += count > 0
            return move_task(src, dst, count, *args)

        monkeypatch.setattr(module, "seg_move_task", spy)

    counting(batched, "interface")
    counting(pipelined, "actor")
    report = run_experiment(golden_spec(name), structure)
    assert not report.failed()
    assert calls["interface"] > 0
    assert (calls["actor"] > 0) == actor

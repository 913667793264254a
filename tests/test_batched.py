import random

import pytest

from conftest import (
    chunk_chains, golden_spec, random_ops, run_map_workload, run_task,
)
from wsmap.batched import BatchedWorkingSetMap, GroupOp
from wsmap.core import (
    CmpCounter, DELETE, INSERT, Key, Operation, SEARCH, UPDATE,
    oracle_replay, validate_batch_preserving,
)
from wsmap import segments
from wsmap.runtime import Runtime
from wsmap.segments import (
    PairedSegment, preload_segment, seg_move_task, seg_update_task,
)
from wsmap.tree23 import (
    StepMeter, batch_update_task, pop_extreme_task, push_edge_task,
)


def _make(rt):
    m = BatchedWorkingSetMap(rt)
    m.audit = True
    return m


def _check_equivalence(results, m):
    lin = m.extract_linearization()
    assert len(lin) == len(results)
    expected = oracle_replay(lin)
    for op, exp in zip(lin, expected):
        assert results[op.op_id] == exp, f"op {op.op_id} {op.kind}"
    assert validate_batch_preserving(m.cut_batches, lin)


def test_group_op_fold_examples():
    ctr = CmpCounter()
    k = Key("x", ctr)

    def grp(spec):
        ops = [Operation(i, kind, k, val) for i, (kind, val) in enumerate(spec)]
        return GroupOp(k, [(op, None) for op in ops])

    # [del, ins v] on a present key: replace-with-v
    results, net = grp([(DELETE, None), (INSERT, 7)]).resolve(True, 1)
    assert net == (True, 7)
    assert [r.found for r in results] == [True, False]
    # [ins v, del] is ensure-absent
    results, net = grp([(INSERT, 7), (DELETE, None)]).resolve(True, 1)
    assert net == (False, None)
    results, net = grp([(INSERT, 7), (DELETE, None)]).resolve(False, None)
    assert net == (False, None)
    assert [r.found for r in results] == [False, True]
    # trailing insert materializes
    results, net = grp([(SEARCH, None), (INSERT, 3)]).resolve(False, None)
    assert net == (True, 3)


def test_serial_inserts_and_searches():
    ctr = CmpCounter()
    ops = []
    for i in range(40):
        ops.append(Operation(i, INSERT, Key(i, ctr), i * 10))
    for i in range(40):
        ops.append(Operation(40 + i, SEARCH, Key(i, ctr)))
    results, m, metrics, _rt = run_map_workload(_make, [ops], p=4)
    for i in range(40):
        assert results[i].tuple == (False, None)
        assert results[40 + i].tuple == (True, i * 10)
    assert m.n == 40
    m.audit_segments()
    _check_equivalence(results, m)


def test_duplicate_heavy_batch_combining():
    # one wide batch with many ops on the same key exercises group-ops
    ctr = CmpCounter()
    chains = []
    oid = 0
    for c in range(16):
        ops = []
        for i in range(4):
            kind = [INSERT, SEARCH, SEARCH, DELETE][i % 4]
            ops.append(Operation(oid, kind, Key(c % 3, ctr), oid))
            oid += 1
        chains.append(ops)
    results, m, _metrics, _rt = run_map_workload(_make, chains, p=8)
    _check_equivalence(results, m)


def test_multi_segment_carving():
    # 300 distinct inserts: segments 2+4+16+256 = 278, so S[4] gets 22
    ctr = CmpCounter()
    ops = [Operation(i, INSERT, Key(i, ctr), i) for i in range(300)]
    chains = chunk_chains(ops, 8)
    results, m, _metrics, _rt = run_map_workload(_make, chains, p=8)
    assert m.n == 300
    assert [seg.size for seg in m.segments] == [2, 4, 16, 256, 22]
    m.audit_segments()
    _check_equivalence(results, m)


def test_deletion_cascades_and_shrink():
    ctr = CmpCounter()
    keys = {i: Key(i, ctr) for i in range(64)}
    ops = [Operation(i, INSERT, keys[i], i) for i in range(64)]
    ops += [Operation(64 + i, DELETE, keys[i], None) for i in range(64)]
    # one serial chain: every delete happens after its insert
    results, m, _metrics, _rt = run_map_workload(_make, [ops], p=4)
    assert m.n == 0
    assert m.segments == []
    _check_equivalence(results, m)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [4, 8])
def test_random_workloads_match_oracle(seed, p):
    ops = random_ops(400, 48, seed)
    width = random.Random(seed).choice([1, 2, 8])
    results, m, _metrics, _rt = run_map_workload(
        _make, chunk_chains(ops, width), p=p)
    _check_equivalence(results, m)


def test_ingest_slicing_spec_examples():
    m = BatchedWorkingSetMap(Runtime(p=4))
    m.p2 = 4   # the spec example's bunch size
    run_task(m._ingest(list(range(5))))
    assert [sum(map(len, b)) for b in m.feed] == [4, 1]
    # q=3, b=2: one op tops up the last bunch, one opens a new bunch
    m8 = BatchedWorkingSetMap(Runtime(p=4))
    m8.p2 = 4
    run_task(m8._ingest(list(range(3))))
    assert [sum(map(len, b)) for b in m8.feed] == [3]
    run_task(m8._ingest(list(range(3, 5))))
    assert [sum(map(len, b)) for b in m8.feed] == [4, 1]
    # b=0 is a no-op
    run_task(m8._ingest([]))
    assert [sum(map(len, b)) for b in m8.feed] == [4, 1]


def test_cut_bunch_count_formula():
    m = BatchedWorkingSetMap(Runtime(p=4))
    m.feed.extend([None] * 50)
    m.n = 16
    assert m._cut_bunch_count() == 1
    m.n = 2 ** 40
    assert m._cut_bunch_count() == 10
    m.n = 0
    assert m._cut_bunch_count() == 1
    m.feed.clear()
    m.feed.append(None)
    m.n = 2 ** 40
    assert m._cut_bunch_count() == 1  # capped by availability


def test_batch_preserving_within_batch_same_item_order():
    # two ops on the same key inside one batch keep their arrival order
    ctr = CmpCounter()
    k = Key(5, ctr)
    chain = [Operation(0, INSERT, k, "first"),
             Operation(1, UPDATE, k, "second"),
             Operation(2, SEARCH, k, None)]
    results, m, _metrics, _rt = run_map_workload(_make, [chain], p=4)
    assert results[2].tuple == (True, "second")
    _check_equivalence(results, m)


def test_work_tracks_working_set_bound_loosely():
    from wsmap.core import working_set_bound
    ops = random_ops(600, 32, 9, mix=(0.6, 0.3, 0.1, 0.0))
    results, m, metrics, _rt = run_map_workload(
        _make, chunk_chains(ops, 8), p=8)
    _check_equivalence(results, m)
    lin = m.extract_linearization()
    rep = working_set_bound(lin, p=8)
    import math
    bound = rep.w_l + rep.e_l * math.log2(8)
    assert metrics.ds_work <= 120 * bound


def test_append_after_deletion_empties_last_segment():
    # hot_zipf_m1 shape: a deletion empties the last segment while the one
    # before it is one short; the next inserts must top that one up first
    # rather than refill the empty segment
    from wsmap.bench import run_experiment
    spec = golden_spec("m1-hot_zipf_m1", n_ops=500, seed=2)
    report = run_experiment(spec, "m1", audit=True)
    assert not report.failed(), report.failed()


def _preloaded(n):
    """An M1 map warm-started with keys 0..n-1, most recent first."""
    m = BatchedWorkingSetMap(Runtime(p=4))
    m.preload([(Key(v), v) for v in range(n)])
    return m


def _break_a_twin_link(m):
    a, b = m.segments[1].keys.leaves()[:2]
    a.twin = b.twin


def _resize_segment_1(m, size):
    seg = m.segments[1]
    pairs = [(lf.key, lf.val) for lf in seg.rec.leaves()]
    pairs = (pairs + [(Key(-v - 1), None) for v in range(size)])[:size]
    m.segments[1] = PairedSegment(1, m.meter)
    preload_segment(m.segments[1], pairs)
    m.n += size - len(seg.keys)


def _overfill_segment_1(m):
    _resize_segment_1(m, 5)


def _shorten_segment_1(m):
    _resize_segment_1(m, 3)


def _miscount_n(m):
    m.n += 1


@pytest.mark.parametrize("corrupt, message", [
    (_break_a_twin_link, "broken twin"),
    (_overfill_segment_1, "segment 1 over capacity"),
    (_shorten_segment_1, "segment 1 not exactly full"),
    (_miscount_n, "wrong n"),
])
def test_audit_segments_catches_corrupted_state(corrupt, message):
    m = _preloaded(7)
    assert [seg.size for seg in m.segments] == [2, 4, 1]
    m.audit_segments()
    corrupt(m)
    with pytest.raises(AssertionError, match=message):
        m.audit_segments()


def test_block_insert_sorts_nothing_and_a_move_sorts_once(monkeypatch):
    sorts = []
    merge_sort_task = segments.merge_sort_task

    def spy(items, key):
        sorts.append(len(items))
        return merge_sort_task(items, key)

    monkeypatch.setattr(segments, "merge_sort_task", spy)
    meter, ctr = StepMeter(), CmpCounter()
    src, dst = PairedSegment(3, meter), PairedSegment(4, meter)
    for lo in (0, 4):
        block = [(Key(k, ctr), k) for k in range(lo, lo + 4)]
        run_task(seg_update_task(src, [], block, block, "front"))
    assert sorts == []
    # recency order 4..7, 0..3: the moved back block is not key-sorted
    run_task(seg_move_task(src, dst, 6))
    assert sorts == [6]
    assert [lf.key.value for lf in dst.rec.leaves()] == [6, 7, 0, 1, 2, 3]
    assert [lf.key.value for lf in src.rec.leaves()] == [4, 5]
    src.audit()
    dst.audit()


def _preloaded_segment(n, meter, ctr):
    # recency order: odd keys descending, so key and recency orders differ
    seg = PairedSegment(5, meter)
    preload_segment(seg, [(Key(k, ctr), k) for k in range(2 * n - 1, 0, -2)])
    return seg


def _audit_both_ways(seg):
    seg.audit()
    for rl in seg.rec.leaves():
        assert rl.twin.twin is rl and rl.twin.key is rl.key


def test_paired_segment_fork_keeps_both_trees_and_twins():
    meter, ctr = StepMeter(), CmpCounter()
    seg = _preloaded_segment(40, meter, ctr)
    block = [(Key(k, ctr), k) for k in (0, 10, 20, 30, 84)]
    run_task(seg_update_task(seg, [], block, block, "front"))
    _audit_both_ways(seg)
    assert [lf.key.value for lf in seg.rec.leaves()][:6] == [0, 10, 20, 30,
                                                            84, 79]
    found = [seg.keys.search(Key(k, ctr)) for k in (0, 7, 30, 79, 84)]
    run_task(seg_update_task(seg, found, [], [], "front"))
    _audit_both_ways(seg)
    assert seg.size == 40
    assert [lf.key.value for lf in seg.rec.leaves()][:4] == [10, 20, 77, 75]
    assert [lf.key.value for lf in seg.keys.leaves()][:4] == [1, 3, 5, 9]


def test_block_insert_span_below_its_two_tree_updates_in_sequence():
    # the recency push and the key-tree insert run as the two branches of
    # one fork, so the block insert's span is below the sum of theirs
    def block(ctr):
        return [(Key(k, ctr), k) for k in range(0, 64, 4)]

    meter, ctr = StepMeter(), CmpCounter()
    alone = _preloaded_segment(200, meter, ctr)
    _, push, _rt = run_task(push_edge_task(alone.rec, block(ctr), "front"))
    _, insert, _rt = run_task(batch_update_task(alone.keys, [], block(ctr)))
    meter, ctr = StepMeter(), CmpCounter()
    seg = _preloaded_segment(200, meter, ctr)
    pairs = block(ctr)
    _, both, _rt = run_task(seg_update_task(seg, [], pairs, pairs, "front"))
    seg.audit()
    # each run_task adds one root node to the span it reports
    push_span, insert_span, both_span = (
        m.ds_span - 1 for m in (push, insert, both))
    assert both_span < push_span + insert_span
    # at most the longer branch plus the fork and join nodes
    assert both_span <= max(push_span, insert_span) + 2


def test_block_move_span_below_its_two_tree_updates_in_sequence():
    # a move's source key-tree delete and its destination block insert touch
    # different segments' trees, so they run as the two branches of one fork
    def segments_pair():
        meter, ctr = StepMeter(), CmpCounter()
        dst = PairedSegment(6, meter)
        preload_segment(dst, [(Key(k, ctr), k) for k in range(400, 800, 2)])
        return _preloaded_segment(200, meter, ctr), dst

    src, dst = segments_pair()
    rec_leaves, pop, _rt = run_task(pop_extreme_task(src.rec, 16, "back"))
    by_key, sort, _rt = run_task(
        segments.merge_sort_task(rec_leaves, key=lambda lf: lf.key))
    _, delete, _rt = run_task(
        batch_update_task(src.keys, [lf.twin for lf in by_key], []))
    _, insert, _rt = run_task(seg_update_task(
        dst, [], [(lf.key, lf.val) for lf in rec_leaves],
        [(lf.key, lf.val) for lf in by_key], "front"))
    src, dst = segments_pair()
    _, move, _rt = run_task(seg_move_task(src, dst, 16))
    _audit_both_ways(src)
    _audit_both_ways(dst)
    assert src.size == 184 and dst.size == 216
    assert [lf.key.value for lf in dst.rec.leaves()][:17] == \
        list(range(31, 0, -2)) + [400]
    # each run_task adds one root node to the span it reports
    pop_span, sort_span, delete_span, insert_span, move_span = (
        m.ds_span - 1 for m in (pop, sort, delete, insert, move))
    assert move_span < pop_span + sort_span + delete_span + insert_span
    # at most the pop, the sort, the longer branch and the fork and join
    assert move_span <= pop_span + sort_span + max(delete_span,
                                                   insert_span) + 2

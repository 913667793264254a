import hashlib
import random

import pytest

from conftest import run_task
from wsmap.tree23 import (
    Bunch, StepMeter, Tree23, TreeUsageError, batch_delete_keys_task,
    batch_delete_pos_task, batch_insert_task, batch_op_task,
    batch_search_task, pop_extreme_task, push_edge_task, reverse_index_task,
)


def _build(keys):
    t, leaves = Tree23.build([(k, f"v{k}") for k in keys])
    return t, leaves


def test_build_and_audit_all_sizes():
    for n in range(0, 80):
        t, leaves = _build(list(range(n)))
        t.audit(sorted_keys=True)
        assert len(t) == n
        assert [lf.key for lf in t.leaves()] == list(range(n))


def test_sequential_ops_fuzz_against_dict():
    rnd = random.Random(11)
    t = Tree23()
    model = {}
    for step in range(3000):
        k = rnd.randrange(64)
        action = rnd.random()
        if action < 0.45:
            leaf = t.search(k)
            assert (leaf is not None) == (k in model)
            if leaf is not None:
                assert leaf.val == model[k]
        elif action < 0.8:
            if k not in model:
                t.insert(k, step)
                model[k] = step
            else:
                leaf = t.search(k)
                leaf.val = step
                model[k] = step
        else:
            leaf = t.delete_key(k)
            assert (leaf is not None) == (k in model)
            model.pop(k, None)
        if step % 250 == 0:
            t.audit(sorted_keys=True)
            assert len(t) == len(model)
    t.audit(sorted_keys=True)


def test_split_lt_and_join_fuzz():
    rnd = random.Random(5)
    for trial in range(120):
        n = rnd.randrange(0, 60)
        keys = sorted(rnd.sample(range(200), n))
        t, _ = _build(keys)
        cut = rnd.randrange(0, 201)
        left, right = t.split_lt(cut)
        left.audit(sorted_keys=True)
        right.audit(sorted_keys=True)
        assert [lf.key for lf in left.leaves()] == [k for k in keys if k < cut]
        assert [lf.key for lf in right.leaves()] == [k for k in keys if k >= cut]
        left.join(right)
        left.audit(sorted_keys=True)
        assert [lf.key for lf in left.leaves()] == keys


def test_split_pos_fuzz():
    rnd = random.Random(6)
    for trial in range(120):
        n = rnd.randrange(0, 60)
        keys = list(range(n))
        rnd.shuffle(keys)  # sequence trees are not key-sorted
        t, _ = _build(keys)
        cut = rnd.randrange(0, n + 1)
        left, right = t.split_pos(cut)
        left.audit()
        right.audit()
        assert [lf.key for lf in left.leaves()] == keys[:cut]
        assert [lf.key for lf in right.leaves()] == keys[cut:]


def test_index_of_and_leaf_at():
    keys = list(range(37))
    t, leaves = _build(keys)
    for i, leaf in enumerate(leaves):
        assert t.index_of(leaf) == i
        assert t.leaf_at(i) is leaf


def test_batch_op_against_oracle():
    rnd = random.Random(9)
    t, _ = _build([])
    model = {}
    for trial in range(60):
        ks = sorted(rnd.sample(range(128), rnd.randrange(1, 24)))
        ops = []
        for k in ks:
            kind = rnd.choice(["search", "insert", "delete"])
            ops.append((kind, k, trial))
        results, _m, _rt = run_task(batch_op_task(t, ops))
        for (kind, k, val), res in zip(ops, results):
            was = k in model
            if kind == "search":
                assert (res is not None) == was
                if was:
                    assert res.val == model[k]
            elif kind == "insert":
                assert res is not None and res.alive
                model[k] = val
            else:
                assert (res is not None) == was
                if was:
                    assert not res.alive
                model.pop(k, None)
        t.audit(sorted_keys=True)
        assert sorted(model) == [lf.key for lf in t.leaves()]


def test_batch_rejects_unsorted_or_duplicate():
    t, _ = _build(range(8))
    with pytest.raises(TreeUsageError):
        run_task(batch_op_task(t, [("search", 3, None), ("search", 1, None)]))
    t2, _ = _build(range(8))
    with pytest.raises(TreeUsageError):
        run_task(batch_op_task(t2, [("search", 3, None), ("search", 3, None)]))


def test_spec_style_mixed_batch():
    t, _ = _build(range(1, 9))
    ops = [("search", 3, None), ("delete", 5, None), ("insert", 9, "nine")]
    results, _m, _rt = run_task(batch_op_task(t, ops))
    assert results[0].alive and results[0].key == 3
    assert results[1] is not None and not results[1].alive
    assert results[2].alive and results[2].val == "nine"
    assert [lf.key for lf in t.leaves()] == [1, 2, 3, 4, 6, 7, 8, 9]


def test_handle_stability_across_batches():
    t, _ = _build([])
    res, _m, _rt = run_task(batch_insert_task(t, [(k, k) for k in range(0, 40, 2)]))
    handles = {lf.key: lf for lf in res}
    run_task(batch_insert_task(t, [(k, k) for k in range(1, 40, 2)]))
    run_task(batch_delete_keys_task(t, list(range(1, 40, 8))))
    for k, lf in handles.items():
        assert lf.alive and lf.key == k
        assert t.index_of(lf) == k  # keys 0..39 dense at this point minus dels
        break  # index check only for key 0; later keys shift


def test_reverse_index_returns_sorted():
    keys = [7, 2, 5, 11, 3]
    t, leaves = _build(sorted(keys))
    by_key = {lf.key: lf for lf in leaves}
    handles = [by_key[7], by_key[2], by_key[5]]
    ordered, _m, _rt = run_task(reverse_index_task(t, handles))
    assert [lf.key for _pos, lf in ordered] == [2, 5, 7]
    positions = [pos for pos, _lf in ordered]
    assert positions == sorted(positions)
    dead = by_key[3]
    t.delete_leaf(dead)
    with pytest.raises(TreeUsageError):
        run_task(reverse_index_task(t, [dead]))


def test_batch_delete_pos():
    keys = list("abcdefghij")
    t, leaves = _build(keys)
    removed, _m, _rt = run_task(batch_delete_pos_task(t, [0, 3, 4, 9]))
    assert [lf.key for lf in removed] == ["a", "d", "e", "j"]
    assert [lf.key for lf in t.leaves()] == ["b", "c", "f", "g", "h", "i"]
    t.audit()


def test_push_edge_and_pop_extreme():
    t, _ = _build([])
    run_task(push_edge_task(t, [("c", 3), ("d", 4)], "back"))
    run_task(push_edge_task(t, [("a", 1), ("b", 2)], "front"))
    run_task(push_edge_task(t, [("e", 5)], "back"))
    assert [lf.key for lf in t.leaves()] == ["a", "b", "c", "d", "e"]
    taken, _m, _rt = run_task(pop_extreme_task(t, 2, "front"))
    assert [lf.key for lf in taken] == ["a", "b"]
    taken, _m, _rt = run_task(pop_extreme_task(t, 2, "back"))
    assert [lf.key for lf in taken] == ["d", "e"]
    assert [lf.key for lf in t.leaves()] == ["c"]
    taken, _m, _rt = run_task(pop_extreme_task(t, 0, "front"))
    assert taken == []
    with pytest.raises(TreeUsageError):
        run_task(pop_extreme_task(t, 5, "front"))


def test_pop_extreme_sort_by_key():
    t, _ = _build([])
    run_task(push_edge_task(t, [(9, None), (2, None), (5, None)], "back"))
    taken, _m, _rt = run_task(pop_extreme_task(t, 3, "front"))
    assert [lf.key for lf in taken] == [9, 2, 5]
    assert sorted(lf.key for lf in taken) == [2, 5, 9]


def test_batch_work_and_span_scale():
    # span grows like a + b*log2(n); work like b*log2(n)
    meter = StepMeter()
    spans = {}
    for logn in (6, 10, 14):
        n = 2 ** logn
        t, _ = _build(range(0, 2 * n, 2))
        t.meter = meter
        keys = sorted(random.Random(3).sample(range(1, 2 * n, 2), 16))
        _res, m, _rt = run_task(batch_insert_task(t, [(k, None) for k in keys]))
        spans[logn] = m.ds_span
        assert m.ds_work <= 60 * 16 * (logn + 1)
    # span must scale with log2 n: the 256x size jump from 2^6 to 2^14
    # may only buy a small constant-factor span growth
    slope = (spans[14] - spans[6]) / 8
    assert 0 < slope < 200
    assert spans[14] < 8 * spans[6]


def test_bunch():
    b = Bunch()
    assert b.size == 0
    b.add([1, 2, 3, 4])
    b.add([5, 6, 7, 8])
    b.add([9, 10, 11, 12])
    assert b.size == 12
    out, _m, _rt = run_task(b.to_batch_task())
    assert out == list(range(1, 13))
    empty, _m, _rt = run_task(Bunch().to_batch_task())
    assert empty == []


def _split_join_trail():
    """A seeded sequence of splits, joins and batch tasks on one meter;
    returns the meter count, the simulated work and span of the batch
    tasks, and a digest of every intermediate (meter count, shape)."""
    rnd = random.Random(20160711)
    meter = StepMeter()
    t, _ = Tree23.build([(k, None) for k in range(0, 600, 3)], meter)
    trail = []
    work = span = 0
    for step in range(60):
        keys = [lf.key for lf in t.leaves()]
        lo, hi = keys[0], keys[-1]
        kind = step % 5
        if kind == 0:
            left, right = t.split_lt(rnd.randrange(lo - 5, hi + 5))
            trail.append(left.dump())
            left.join(right)
            t = left
        elif kind == 1:
            left, right = t.split_pos(rnd.randrange(0, len(t) + 1))
            trail.append(right.dump())
            left.join(right)
            t = left
        elif kind == 2:
            # joins of unequal heights on both sides
            back, _ = Tree23.build([(hi + 1 + k, None) for k in range(
                rnd.randrange(0, 40))], meter)
            front, _ = Tree23.build([(lo - k, None) for k in range(
                rnd.randrange(1, 40), 0, -1)], meter)
            front.join(t)
            t = front
            t.join(back)
        elif kind == 3:
            batch = set(rnd.sample(range(lo - 20, hi + 20), 24))
            batch.update(rnd.sample(keys, min(8, len(keys))))
            ops = [(rnd.choice(["search", "insert", "delete"]), k, k)
                   for k in sorted(batch)]
            _res, metrics, _rt = run_task(batch_op_task(t, ops))
            work += metrics.ds_work
            span += metrics.ds_span
        else:
            positions = sorted(rnd.sample(range(len(t)), min(12, len(t))))
            _res, metrics, _rt = run_task(batch_delete_pos_task(t, positions))
            work += metrics.ds_work
            span += metrics.ds_span
        t.audit(sorted_keys=True)
        trail.append((meter.count, t.dump()))
    digest = hashlib.sha256(repr(trail).encode()).hexdigest()
    return meter.count, work, span, digest


def test_split_join_meter_and_shapes_pinned():
    # meter charges are the simulated cost of every tree operation, so a
    # rewrite of split/join must leave the count, the batch tasks' work and
    # span, and each intermediate shape of this sequence unchanged
    assert _split_join_trail() == (
        29095, 27384, 7614,
        "4722340a4a062fb195ca732efbb723705584992122e5799c397a66e68e06a212")

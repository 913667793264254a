import bisect
import hashlib
import random

import pytest

from conftest import batch_op_task, delete_key, run_task, tree_dump
from wsmap.core import CmpCounter, Key
from wsmap.runtime import Runtime, concat_tree
from wsmap.tree23 import (
    Inner, Leaf, StepMeter, Tree23, TreeUsageError, _split_by_pos,
    _split_join_task, batch_delete_pos_task, batch_search_task,
    batch_update_task, pop_extreme_task, push_edge_task, reverse_index_task,
)


def _build(keys):
    t, leaves = Tree23.build([(k, f"v{k}") for k in keys])
    return t, leaves


def _deletes(keys):
    """A key delete batch for batch_op_task: a search and a handle delete
    per key."""
    return [("delete", k, None) for k in keys]


def _joined(keys, rnd):
    """A tree over keys in order, joined from built pieces of random sizes,
    so 2- and 3-kid nodes occur at every height."""
    t = Tree23()
    i = 0
    while i < len(keys):
        j = i + rnd.randrange(1, 64)
        t.join(_build(keys[i:j])[0])
        i = j
    return t


def test_build_and_audit_all_sizes():
    for n in range(0, 80):
        t, leaves = _build(list(range(n)))
        t.audit(sorted_keys=True)
        assert len(t) == n
        assert [lf.key for lf in t.leaves()] == list(range(n))


def test_dead_handle_and_position_errors_raise():
    t, leaves = _build([1, 2, 3])
    t.delete_leaf(leaves[0])
    with pytest.raises(TreeUsageError, match="delete of a dead handle"):
        t.delete_leaf(leaves[0])
    with pytest.raises(TreeUsageError, match="repeated handle"):
        run_task(batch_delete_pos_task(t, [leaves[2], leaves[1], leaves[2]]))
    with pytest.raises(TreeUsageError, match="of a dead handle"):
        run_task(batch_delete_pos_task(t, [leaves[0]]))
    with pytest.raises(TreeUsageError, match="index_of a dead handle"):
        t.index_of(leaves[0])


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
            leaf = delete_key(t, k)
            assert (leaf is not None) == (k in model)
            model.pop(k, None)
        if step % 250 == 0:
            t.audit(sorted_keys=True)
            assert len(t) == len(model)
    t.audit(sorted_keys=True)


def test_split_lt_and_join_fuzz():
    rnd = random.Random(5)
    # the last trials split trees of height 7 and more
    for trial in range(126):
        n = rnd.randrange(0, 60) if trial < 120 else rnd.randrange(500, 2001)
        universe = 200 if trial < 120 else 2 * n
        keys = sorted(rnd.sample(range(universe), n))
        t = _build(keys)[0] if trial < 120 else _joined(keys, rnd)
        assert trial < 120 or t.height >= 7
        cut = rnd.randrange(0, universe + 1)
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
    # the last trials split trees of height 7 and more
    for trial in range(126):
        n = rnd.randrange(0, 60) if trial < 120 else rnd.randrange(500, 2001)
        keys = list(range(n))
        rnd.shuffle(keys)  # sequence trees are not key-sorted
        t = _build(keys)[0] if trial < 120 else _joined(keys, rnd)
        assert trial < 120 or t.height >= 7
        cut = rnd.randrange(0, n + 1)
        left, right = t.split_pos(cut)
        left.audit()
        right.audit()
        assert [lf.key for lf in left.leaves()] == keys[:cut]
        assert [lf.key for lf in right.leaves()] == keys[cut:]


@pytest.mark.parametrize("log_n", [8, 12, 16])
def test_split_charges_a_constant_per_level(log_n):
    # each half of a split grows from the cut outward, so a split charges
    # O(1) meter steps per level; a fold that walks down from the root for
    # every piece charges more per level the taller the tree
    rnd = random.Random(log_n)
    n = 1 << log_n
    t, _ = Tree23.build([(k, None) for k in range(n)])
    for op in ("split_lt", "split_pos"):
        charges = levels = 0
        for _ in range(16):
            levels += t.height + 1
            start = t.meter.count
            left, right = getattr(t, op)(rnd.randrange(1, n))
            charges += t.meter.count - start
            t = left.join(right)
        assert charges / levels <= 6, (op, charges / levels)


def test_index_of_inverts_the_leaf_order():
    keys = list(range(37))
    t, leaves = _build(keys)
    for i, leaf in enumerate(leaves):
        assert t.index_of(leaf) == i
        assert t.leaves()[i] is leaf


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
    t2, leaves = _build(range(8))
    with pytest.raises(TreeUsageError):
        run_task(batch_op_task(t2, [("search", 3, None), ("search", 3, None)]))
    with pytest.raises(TreeUsageError, match="repeated handle"):
        run_task(batch_delete_pos_task(t2, [leaves[1], leaves[1]]))
    with pytest.raises(TreeUsageError, match="unknown batch op kind 'upsert'"):
        run_task(batch_op_task(t2, [("upsert", 2, None)]))


def test_batch_precondition_counts_no_key_comparison():
    # the sorted-and-distinct check is a usage check, not map work: it must
    # leave the shared key-comparison counter alone
    ctr = CmpCounter()
    t, _ = _build(range(8))
    keys = [Key(v, ctr) for v in (0, 1, 2, 3, 4, 5, 5)]
    with pytest.raises(TreeUsageError):
        next(batch_op_task(t, [("search", k, None) for k in keys]))
    assert ctr.count == 0


def test_spec_style_mixed_batch():
    t, _ = _build(range(1, 9))
    ops = [("search", 3, None), ("delete", 5, None), ("insert", 9, "nine")]
    results, _m, _rt = run_task(batch_op_task(t, ops))
    assert results[0].alive and results[0].key == 3
    assert results[1] is not None and not results[1].alive
    assert results[2].alive and results[2].val == "nine"
    assert [lf.key for lf in t.leaves()] == [1, 2, 3, 4, 6, 7, 8, 9]


def test_batch_insert_makes_no_search(monkeypatch):
    searched = []
    search = Tree23.search

    def spy(tree, key):
        searched.append(key)
        return search(tree, key)

    monkeypatch.setattr(Tree23, "search", spy)
    t, _ = _build(range(0, 64, 2))
    run_task(batch_update_task(t, [], [(k, None) for k in range(1, 64, 4)]))
    assert searched == []
    t.audit(sorted_keys=True)
    # a search batch still finds every key the insert batch added
    hits, _m, _rt = run_task(batch_search_task(t, list(range(1, 64, 4))))
    assert [h.key for h in hits] == list(range(1, 64, 4))


@pytest.mark.parametrize("n, height", [(1, 0), (40, 5)])
def test_insert_rejects_a_present_key(n, height):
    # the check compares raw values: a rejected insert counts no key
    # comparison and leaves the tree as it was
    ctr = CmpCounter()
    for k in sorted({0, n // 2, n - 1}):
        t, _ = Tree23.build([(Key(k, ctr), k) for k in range(n)])
        assert t.height == height
        before = ctr.count
        with pytest.raises(TreeUsageError, match="present key"):
            t.insert(Key(k, ctr))
        assert ctr.count == before
        t.audit(sorted_keys=True)
        assert [lf.key.value for lf in t.leaves()] == list(range(n))
        with pytest.raises(TreeUsageError, match="present key"):
            run_task(batch_update_task(t, [], [(Key(k, ctr), None)]))
        assert ctr.count == before


def test_handle_stability_across_batches():
    t, _ = _build([])
    res, _m, _rt = run_task(batch_update_task(t, [], [(k, k)
                                                      for k in range(0, 40, 2)]))
    handles = {lf.key: lf for lf in res}
    odd, _m, _rt = run_task(batch_update_task(t, [], [(k, k)
                                                      for k in range(1, 40, 2)]))
    run_task(batch_update_task(t, odd[::4], []))
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
    held = [leaves[i] for i in (0, 3, 4, 9)]
    removed, _m, _rt = run_task(batch_delete_pos_task(t, held))
    assert [lf.key for lf in removed] == ["a", "d", "e", "j"]
    assert all(lf is h for lf, h in zip(removed, held))
    assert [lf.key for lf in t.leaves()] == ["b", "c", "f", "g", "h", "i"]
    t.audit()


def test_batch_delete_pos_takes_handles_in_any_order():
    # one reverse index sorts the handles by position, so their order is
    # free; a repeated or a dead handle is a usage error
    keys = list(range(40))
    for seed in range(5):
        t, leaves = _build(keys)
        gone = random.Random(seed).sample(range(40), 12)
        assert gone != sorted(gone)
        removed, _m, _rt = run_task(batch_delete_pos_task(
            t, [leaves[i] for i in gone]))
        assert removed == [leaves[i] for i in sorted(gone)]
        assert not any(lf.alive for lf in removed)
        t.audit(sorted_keys=True)
        assert [lf.key for lf in t.leaves()] == \
            [k for k in keys if k not in set(gone)]
    t, leaves = _build(keys)
    shape = tree_dump(t)
    with pytest.raises(TreeUsageError, match="repeated handle"):
        run_task(batch_delete_pos_task(t, leaves[30:10:-1] + [leaves[20]]))
    assert tree_dump(t) == shape and all(lf.alive for lf in leaves)
    t.delete_leaf(leaves[5])
    with pytest.raises(TreeUsageError, match="dead handle"):
        run_task(batch_delete_pos_task(t, [leaves[9], leaves[5], leaves[2]]))
    assert len(t) == 39 and leaves[9].alive and leaves[2].alive


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
        _res, m, _rt = run_task(batch_update_task(t, [], [(k, None)
                                                          for k in keys]))
        spans[logn] = m.ds_span
        assert m.ds_work <= 60 * 16 * (logn + 1)
    # span must scale with log2 n: the 256x size jump from 2^6 to 2^14
    # may only buy a small constant-factor span growth
    slope = (spans[14] - spans[6]) / 8
    assert 0 < slope < 200
    assert spans[14] < 8 * spans[6]


def test_bunch():
    # a bunch is a list of batches; concat_tree joins it into one batch
    bunch = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
    out, _m, _rt = run_task(concat_tree(bunch))
    assert out == list(range(1, 13))
    empty, _m, _rt = run_task(concat_tree([]))
    assert empty == []


def _delete_located(t, located):
    """Delete a position-sorted (position, leaf) list through the shared
    split/join recursion, as batch_delete_pos_task does after its reverse
    index; the pinned trail charges the splits and joins alone."""
    return _split_join_task(t, located, _split_by_pos,
                            lambda t, pl: t.delete_leaf(pl[1]))


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
            trail.append(tree_dump(left))
            left.join(right)
            t = left
        elif kind == 1:
            left, right = t.split_pos(rnd.randrange(0, len(t) + 1))
            trail.append(tree_dump(right))
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
            leaves = t.leaves()
            _res, metrics, _rt = run_task(_delete_located(
                t, [(p, leaves[p]) for p in positions]))
            work += metrics.ds_work
            span += metrics.ds_span
        t.audit(sorted_keys=True)
        trail.append((meter.count, tree_dump(t)))
    digest = hashlib.sha256(repr(trail).encode()).hexdigest()
    return meter.count, work, span, digest


def test_split_join_meter_and_shapes_pinned():
    # meter charges are the simulated cost of every tree operation: a
    # rewrite of split/join that only speeds it up leaves the count, the
    # batch tasks' work and span, and each intermediate shape of this
    # sequence unchanged; one that changes them is a cost-model change,
    # re-pinned with recalibrated constants and recorded as such
    assert _split_join_trail() == (
        11028, 9010, 3421,
        "74c62c5d9e4888fe1dc0f50caf9781cdf0ebad0073176e86a48d5377164133b0")


def _search_trail():
    """Seeded search batches of 1-64 keys, hits and misses, on trees of 0,
    1, 2 and about 500 leaves on one meter, each result checked against the
    key set. Returns the meter count, the simulated work and span of the
    batches, and a digest of every intermediate (meter count, hits, shape)."""
    rnd = random.Random(20160712)
    meter = StepMeter()
    trail = []
    work = span = 0
    for n in (0, 1, 2, rnd.randrange(480, 520)):
        keys = list(range(0, 3 * n, 3))
        t = _joined(keys, rnd)
        t.meter = meter
        present = set(keys)
        for _ in range(12):
            batch = sorted(rnd.sample(range(-70, 3 * n + 70),
                                      rnd.randrange(1, 65)))
            hits, metrics, _rt = run_task(batch_search_task(t, batch))
            assert [h and h.key for h in hits] == \
                [k if k in present else None for k in batch]
            work += metrics.ds_work
            span += metrics.ds_span
            t.audit(sorted_keys=True)
            trail.append((meter.count, [h is not None for h in hits],
                          tree_dump(t)))
    digest = hashlib.sha256(repr(trail).encode()).hexdigest()
    return meter.count, work, span, digest


def test_search_batches_meter_and_shapes_pinned():
    # an inner node is charged one step plus the comparisons of the binary
    # searches that cut its key range, O(log K) for a batch of K keys:
    # criterion 8's span separation rests on that charge (at one step per
    # node M1's hot-path span falls far more than M2's), so a change to it
    # has to be made and re-pinned on purpose
    assert _search_trail() == (
        4064, 4964, 1160,
        "7195b4f01ffc850dca65f33af6727a7af45b6ea893479b207148152469390728")


def _node_count(node):
    return 1 if type(node) is Leaf else 1 + sum(map(_node_count, node.kids))


def _checked(gen, check):
    """The task gen, with check() run before each of its nodes and after its
    last one."""
    send = None
    while True:
        check()
        try:
            effect = gen.send(send)
        except StopIteration as stop:
            check()
            return stop.value
        send = yield effect


def test_search_batches_of_every_size_match_a_sorted_list(monkeypatch):
    # every tree size s and batch size k up to 40 crosses the merge cutoff
    # s + k = 2 * k.bit_length() on both sides, from the empty tree and
    # single keys up to batches that fork at several levels; a search batch
    # only reads: it never splits or joins, and every node of its task sees
    # the whole tree attached
    rnd = random.Random(27)
    spawn = Runtime._spawn
    forks = []

    def check():
        assert len(t) == s and t.root is root, (s, k)

    def checked_spawn(rt, gen, parent, owner=None):
        forks.append((s, k))
        return spawn(rt, _checked(gen, check), parent, owner)

    def forbidden(*_args):
        raise AssertionError("a search batch split or joined a tree")

    for s in range(41):
        keys = list(range(0, 2 * s, 2))
        for k in range(41):
            t = _joined(keys, rnd)
            root, leaves, shape = t.root, t.leaves(), tree_dump(t)
            batch = sorted(rnd.sample(range(-k - 1, 2 * s + k + 1), k))
            start = t.meter.count
            with monkeypatch.context() as patch:
                patch.setattr(Runtime, "_spawn", checked_spawn)
                patch.setattr(Tree23, "_split", forbidden)
                patch.setattr(Tree23, "_append", forbidden)
                hits, _m, _rt = run_task(_checked(batch_search_task(t, batch),
                                                  check))
            steps = t.meter.count - start
            for v, hit in zip(batch, hits, strict=True):
                i = bisect.bisect_left(keys, v)
                want = leaves[i] if i < s and keys[i] == v else None
                assert hit is want, (s, k, v)
            t.audit(sorted_keys=True)
            assert tree_dump(t) == shape, (s, k)
            assert all(a is b for a, b in zip(t.leaves(), leaves, strict=True))
            if 1 < k and s + k <= 2 * k.bit_length():
                # a merge of the whole tree charges one step per node and
                # one per key
                assert steps == (s and _node_count(t.root)) + k, (s, k)
        for bad in ([1, 0], [2, 2], [0, 4, 4]):
            t = _joined(keys, rnd)
            shape = tree_dump(t)
            with pytest.raises(TreeUsageError, match="sorted and distinct"):
                run_task(batch_search_task(t, bad))
            assert tree_dump(t) == shape
    assert len(set(forks)) > 500


@pytest.mark.parametrize("n", [0, 1, 2, 3, 200])
def test_update_batches_of_every_length_match_a_sorted_list(n):
    # each length up to 40 crosses the run a batch applies in one node,
    # on trees too small to split and one deep enough to split at every level
    rnd = random.Random(n)
    keys = list(range(0, 2 * n, 2))
    for b in range(41):
        t, _ = _build(keys)
        new = sorted(rnd.sample(range(-81, 2 * n + 81, 2), b))
        got, _m, _rt = run_task(batch_update_task(t, [], [(k, k)
                                                          for k in new]))
        assert [lf.key for lf in got] == new and all(lf.alive for lf in got)
        t.audit(sorted_keys=True)
        assert [lf.key for lf in t.leaves()] == sorted(keys + new)

        t, _ = _build(keys)
        gone = sorted(rnd.sample(range(-81, 2 * n + 81), b))
        got, _m, _rt = run_task(batch_op_task(t, _deletes(gone)))
        assert [lf and lf.key for lf in got] == \
            [k if k % 2 == 0 and 0 <= k < 2 * n else None for k in gone]
        assert not any(lf and lf.alive for lf in got)
        t.audit(sorted_keys=True)
        assert [lf.key for lf in t.leaves()] == \
            [k for k in keys if k not in set(gone)]

        if b <= n:
            t, leaves = _build(keys)
            positions = sorted(rnd.sample(range(n), b))
            got, _m, _rt = run_task(batch_delete_pos_task(
                t, [leaves[i] for i in positions]))
            assert got == [leaves[i] for i in positions]
            assert all(lf is leaves[i] for lf, i in zip(got, positions))
            assert not any(lf.alive for lf in got)
            t.audit(sorted_keys=True)
            assert [lf.key for lf in t.leaves()] == \
                [k for i, k in enumerate(keys) if i not in set(positions)]


def _counted_tree(n, seed, ctr):
    """A tree of keys 0, 2, ..., 2n - 2 counting on ctr, with a fresh meter;
    trees made from one seed have the same shape."""
    t = _joined([Key(k, ctr) for k in range(0, 2 * n, 2)], random.Random(seed))
    t.meter = StepMeter()
    return t


@pytest.mark.parametrize("n", [0, 1, 2, 3, 200])
def test_leaf_delete_batch_matches_the_key_delete_batch(n):
    # a leaf keeps its identity through the batch's key splits, so deleting
    # by handle removes what deleting by key removes and joins the pieces
    # into the same shape
    rnd = random.Random(n)
    for b in range(min(n, 40) + 1):
        gone = sorted(rnd.sample(range(n), b))
        ctr = CmpCounter()
        by_key, by_leaf = _counted_tree(n, b, ctr), _counted_tree(n, b, ctr)
        leaves = by_leaf.leaves()
        run_task(batch_op_task(by_key, _deletes([Key(2 * i, ctr)
                                                 for i in gone])))
        run_task(batch_update_task(by_leaf, [leaves[i] for i in gone], []))
        by_leaf.audit(sorted_keys=True)
        assert tree_dump(by_leaf) == tree_dump(by_key)
        assert not any(leaves[i].alive for i in gone)
        assert [lf.key.value for lf in by_leaf.leaves()] == \
            [2 * i for i in range(n) if i not in set(gone)]


def test_leaf_delete_batch_searches_nothing():
    # the key batch's splits are the only key comparisons a leaf batch makes:
    # a batch whose apply does nothing splits the same pieces, since every
    # split precedes the deletes in its piece
    gone = list(range(3, 400, 7))

    def run(kind):
        ctr = CmpCounter()
        t = _counted_tree(400, 0, ctr)
        leaves = t.leaves()
        held = [leaves[i] for i in gone]
        if kind == "keys":
            task = batch_op_task(t, _deletes([Key(2 * i, ctr) for i in gone]))
        elif kind == "leaves":
            task = batch_update_task(t, held, [])
        else:
            task = _split_join_task(
                t, held, lambda t, part, mid: (*t.split_lt(part[mid].key),
                                               part[mid:]),
                lambda _t, _lf: None)
        _res, metrics, _rt = run_task(task)
        return ctr.count, t.meter.count, metrics.ds_work

    by_key, by_leaf, splits = (run(kind) for kind in
                               ("keys", "leaves", "splits"))
    assert by_leaf[0] == splits[0]
    assert by_leaf[0] < by_key[0]
    assert by_leaf[1] < by_key[1]
    assert by_leaf[2] < by_key[2]


def test_leaf_delete_batch_rejects_dead_or_unsorted_leaves():
    t, leaves = _build(range(8))
    t.delete_leaf(leaves[3])
    with pytest.raises(TreeUsageError, match="dead handle"):
        run_task(batch_update_task(t, [leaves[1], leaves[3]], []))
    t, leaves = _build(range(8))
    with pytest.raises(TreeUsageError, match="sorted and distinct"):
        run_task(batch_update_task(t, [leaves[4], leaves[2]], []))
    with pytest.raises(TreeUsageError, match="sorted and distinct"):
        run_task(batch_update_task(t, [leaves[2], leaves[2]], []))


def test_mixed_update_batch_deletes_and_inserts_in_one_pass():
    # held leaves and new pairs merge into one key batch; each list must be
    # key-sorted on its own, so the merge cannot hide a disorder
    t, leaves = _build(range(0, 20, 2))
    new, _m, _rt = run_task(batch_update_task(
        t, [leaves[1], leaves[3]], [(1, "a"), (5, "b"), (19, "c")]))
    assert [(lf.key, lf.val) for lf in new] == [(1, "a"), (5, "b"), (19, "c")]
    assert not leaves[1].alive and not leaves[3].alive
    t.audit(sorted_keys=True)
    assert [lf.key for lf in t.leaves()] == [0, 1, 4, 5, 8, 10, 12, 14, 16,
                                             18, 19]
    t, leaves = _build(range(0, 20, 2))
    shape = tree_dump(t)
    with pytest.raises(TreeUsageError, match="sorted and distinct"):
        run_task(batch_update_task(t, [leaves[4], leaves[2]], [(5, None)]))
    with pytest.raises(TreeUsageError, match="sorted and distinct"):
        run_task(batch_update_task(t, [leaves[2]], [(9, None), (7, None)]))
    assert tree_dump(t) == shape


def test_insert_batch_span_grows_by_one_split_and_join_per_doubling():
    # a doubling of the batch adds one level of split and join, O(height);
    # a run applied in one node whose length grows with b would add more
    spans = []
    for j in range(9):
        t, _ = _build(range(0, 2 ** 13, 2))
        assert t.height == 12
        keys = sorted(random.Random(j).sample(range(1, 2 ** 13, 2), 2 ** j))
        _res, m, _rt = run_task(
            batch_update_task(t, [], [(k, None) for k in keys]))
        spans.append(m.ds_span)
    steps = [b - a for a, b in zip(spans, spans[1:])]
    assert max(steps) <= 6 * (12 + 1), (spans, steps)


def _edge_trail():
    """A seeded sequence of edge pushes and pops at both ends of one tree on
    one meter, with pushes onto an empty tree and pops of nothing and of
    everything; each result is checked against a list. Returns the meter
    count, the simulated work and span of the tasks, and a digest of every
    intermediate (meter count, shape)."""
    rnd = random.Random(20180725)
    meter = StepMeter()
    t = Tree23(meter)
    model, trail = [], []
    work = span = fresh = 0
    for _ in range(150):
        end = rnd.choice(("front", "back"))
        if not model or rnd.random() < 0.6:
            block = list(range(fresh, fresh + rnd.randrange(1, 40)))
            fresh += len(block)
            got, metrics, _rt = run_task(
                push_edge_task(t, [(k, None) for k in block], end))
            assert [lf.key for lf in got] == block
            model = block + model if end == "front" else model + block
        else:
            roll = rnd.random()
            count = (0 if roll < 0.1 else len(model) if roll < 0.2
                     else rnd.randrange(1, len(model) + 1))
            got, metrics, _rt = run_task(pop_extreme_task(t, count, end))
            cut = count if end == "front" else len(model) - count
            taken = model[:cut] if end == "front" else model[cut:]
            model = model[cut:] if end == "front" else model[:cut]
            assert [lf.key for lf in got] == taken
            assert not any(lf.alive or lf.parent for lf in got)
        work += metrics.ds_work
        span += metrics.ds_span
        t.audit()
        assert [lf.key for lf in t.leaves()] == model
        trail.append((meter.count, tree_dump(t)))
    digest = hashlib.sha256(repr(trail).encode()).hexdigest()
    return meter.count, work, span, digest


def test_edge_ops_meter_and_shapes_pinned():
    # the recency trees' edge pushes and pops are charged by the same meter:
    # a rewrite of either, or of the split a pop runs, that only speeds it
    # up leaves this trail's count, work, span and every intermediate shape
    # unchanged; one that changes them is a recorded cost-model change
    assert _edge_trail() == (
        4922, 5082, 5082,
        "0bcd4d7de870ebdcb08a916e33c04991948919c4db589ddd42c4c0744bb75a60")


def _rebalance_kind(leaf):
    """The first rebalancing step delete_leaf(leaf) takes, read off the
    shape before the delete: None, 'merge' or a borrow from one side."""
    parent = leaf.parent
    if parent is None or len(parent.kids) == 3 or parent.parent is None:
        return None
    kids = parent.parent.kids
    idx = kids.index(parent)
    sib = kids[idx - 1 if idx else 1]
    if len(sib.kids) == 2:
        return "merge"
    return "borrow_left" if idx else "borrow_right"


def _differential_trail(seed):
    """Seeded inserts, key deletes, leaf deletes and joins of unequal
    heights on one meter, each checked against a sorted list and audited
    right after it runs. Returns the rebalancing steps and join directions
    hit, and every intermediate (meter count, shape)."""
    rnd = random.Random(seed)
    meter = StepMeter()
    hit, trail = set(), []

    def check(t, model):
        t.audit(sorted_keys=True)
        assert [lf.hi for lf in t.leaves()] == model, seed
        trail.append((meter.count, tree_dump(t)))

    def churn(t, model, lo, hi, n_ops):
        for step in range(n_ops):
            grow = 0.75 if step < n_ops // 2 else 0.3
            if rnd.random() < grow or not model:
                k = rnd.randrange(lo, hi)
                if k not in model:
                    t.insert(k)
                    bisect.insort(model, k)
            else:
                height = t.height
                if rnd.random() < 0.5:
                    k = rnd.randrange(lo, hi)
                    leaf = t.search(k)
                    assert delete_key(t, k) is leaf
                else:
                    leaf = rnd.choice(t.leaves())
                    hit.add(_rebalance_kind(leaf))
                    t.delete_leaf(leaf)
                if leaf is not None:
                    model.remove(leaf.hi)
                if t.height < height:
                    hit.add("root_collapse")
            check(t, model)

    t, model = Tree23(meter), []
    churn(t, model, 0, 300, rnd.randrange(150, 400))
    for _ in range(4):
        lo, hi = (model[0], model[-1] + 1) if model else (0, 0)
        other, other_model = Tree23(meter), []
        if rnd.random() < 0.5:
            churn(other, other_model, hi, hi + 100, rnd.randrange(1, 60))
            heights = t.height, other.height
            t.join(other)
            model += other_model
        else:
            churn(other, other_model, lo - 100, lo, rnd.randrange(1, 60))
            heights = other.height, t.height
            other.join(t)
            t, model = other, other_model + model
        if heights[0] != heights[1]:
            hit.add("join_taller_left" if heights[0] > heights[1]
                    else "join_taller_right")
        check(t, model)
        churn(t, model, lo - 100, hi + 100, rnd.randrange(20, 120))
    return hit, trail


def test_non_lazy_updates_match_a_sorted_list_per_op_pinned():
    # insert, delete and join carry each size and hi change up the tree
    # from the node that changed; a per-op audit catches a stale ancestor
    # at once, and the pinned trail keeps every meter charge and shape
    hits, trails = set(), []
    for seed in range(8):
        hit, trail = _differential_trail(seed)
        hits |= hit
        trails.append(trail)
    assert hits >= {"borrow_left", "borrow_right", "merge", "root_collapse",
                    "join_taller_left", "join_taller_right"}
    assert sum(map(len, trails)) > 3000
    assert hashlib.sha256(repr(trails).encode()).hexdigest() == \
        "154f5e766a157f4aaa90706693cbf56227986ee19b302e1803af66b144c1d924"


# -- audit corruption: each check must catch its own defect -------------------


def _bottom_nodes(t):
    return [lf.parent for lf in t.leaves() if lf.parent.kids[0] is lf]


def _arity(t):
    node = _bottom_nodes(t)[0]
    node.kids.pop()


def _parent_link(t):
    t.leaves()[5].parent = None


def _size(t):
    t.root.kids[0].size += 1


def _hi(t):
    _bottom_nodes(t)[1].hi = -1


def _depth(t):
    # hoist a grandchild of the root into its parent's place, with size and
    # hi refreshed, so only the leaf depths are wrong
    root = t.root
    child = root.kids[0]
    root.kids[0] = child.kids[0]
    root.kids[0].parent = root
    t._refresh(root)


def _order(t):
    # first kids of two bottom nodes: no hi value names either leaf
    a, b = (node.kids[0] for node in _bottom_nodes(t)[:2])
    a.hi, b.hi = b.hi, a.hi


@pytest.mark.parametrize("corrupt, message", [
    (_arity, "arity"),
    (_parent_link, "stale parent link"),
    (_size, "stale size"),
    (_hi, "stale hi"),
    (_depth, "leaf at depth"),
    (_order, "keys not strictly increasing"),
])
def test_audit_catches_each_corruption(corrupt, message):
    t, _ = _build(range(40))
    assert t.height >= 3
    t.audit(sorted_keys=True)
    corrupt(t)
    with pytest.raises(AssertionError, match=message):
        t.audit(sorted_keys=True)


# -- raw-value routing against the loops it replaced --------------------------
# The reference descents below are the loops tree23 used while it routed
# through the counting keys' operators: kid by kid, with an inner node's hi
# read as its last leaf's key. Every comparison they make is counted, so the
# counter shows what each call must charge in bulk.


def _hi_key(node):
    while type(node) is Inner:
        node = node.kids[-1]
    return node.key


def _ref_bottom(t, key):
    node = t.root
    while type(node.kids[0]) is Inner:
        t.meter.count += 1
        for kid in node.kids[:-1]:
            if not _hi_key(kid) < key:
                node = kid
                break
        else:
            node = node.kids[-1]
    return node


def _ref_search(t, key):
    node = t.root
    if node is None:
        return None
    if type(node) is Inner:
        node = _ref_bottom(t, key)
        t.meter.count += 1
        for kid in node.kids[:-1]:
            if not kid.key < key:
                node = kid
                break
        else:
            node = node.kids[-1]
    t.meter.count += 1
    return node if node.key == key else None


def _ref_insert_position(t, key):
    node = _ref_bottom(t, key)
    pos = len(node.kids)
    for i, kid in enumerate(node.kids):
        if key < kid.key:
            pos = i
            break
    return node, pos


def _ref_split_lt(t, key):
    def route(node):
        kids = node.kids
        for i in range(len(kids) - 1):
            if not _hi_key(kids[i]) < key:
                return i
        return len(kids) - 1

    return t._split(route, lambda leaf: leaf.key < key)


def _random_tree(seed, ctr):
    """A tree over even key values, reshaped by seeded inserts and deletes
    so both 2- and 3-kid nodes occur."""
    rnd = random.Random(seed)
    t, _ = Tree23.build([(Key(v, ctr), None) for v in
                         range(0, 2 * rnd.randrange(1, 90), 2)])
    for _ in range(rnd.randrange(0, 40)):
        v = 2 * rnd.randrange(0, 120)
        if t.search(Key(v, ctr)) is None:
            t.insert(Key(v, ctr))
        else:
            delete_key(t, Key(v, ctr))
    return t


def _small_tree(seed, ctr):
    """A tree of 1-8 leaves over even key values, grown by inserts in a
    seeded order, so the short descents (heights 0-2) occur."""
    rnd = random.Random(seed)
    t = Tree23()
    for v in rnd.sample(range(0, 24, 2), 1 + seed % 8):
        t.insert(Key(v, ctr))
    return t


def _shape(node):
    if type(node) is Leaf:
        return node.hi
    return [_shape(kid) for kid in node.kids]


def _probe_values(t, rnd):
    values = [lf.hi for lf in t.leaves()]
    top = values[-1] if values else 0
    return (rnd.sample(values, min(6, len(values)))
            + [rnd.randrange(-3, top + 4) for _ in range(6)])


def _arities(t):
    level, seen = [t.root], set()
    for _ in range(t.height):
        seen.update(len(node.kids) for node in level)
        level = [kid for node in level for kid in node.kids]
    return seen


def _counted(t, ctr, call):
    c0, m0 = ctr.count, t.meter.count
    out = call()
    return out, ctr.count - c0, t.meter.count - m0


def test_raw_value_routing_matches_the_reference_loops(monkeypatch):
    arities, heights = set(), set()
    calls = 0
    trees = ([(_random_tree, seed) for seed in range(60)]
             + [(_small_tree, seed) for seed in range(60, 100)])
    for make, seed in trees:
        rnd = random.Random(seed)
        ctr = CmpCounter()
        t = make(seed, ctr)
        heights.add(t.height)
        if t.root is not None:
            arities |= _arities(t)
        for v in _probe_values(t, rnd):
            key = Key(v, ctr)
            ref = _counted(t, ctr, lambda: _ref_search(t, key))
            assert _counted(t, ctr, lambda: t.search(key)) == ref, (seed, v)
            calls += 1
        for v in _probe_values(t, rnd):
            # each split on a fresh copy: same seed, same tree
            ref_t, new_t = make(seed, ctr), make(seed, ctr)
            if ref_t.root is None:
                continue
            ref, ref_c, ref_m = _counted(
                ref_t, ctr, lambda: _ref_split_lt(ref_t, Key(v, ctr)))
            got, got_c, got_m = _counted(
                new_t, ctr, lambda: new_t.split_lt(Key(v, ctr)))
            assert (got_c, got_m) == (ref_c, ref_m), (seed, v)
            for r, g in zip(ref, got):
                assert (g.height, g.root and _shape(g.root)) == \
                    (r.height, r.root and _shape(r.root)), (seed, v)
                g.audit(sorted_keys=True)
            calls += 1
        if len(t) < 2:
            continue
        seen = []
        split_up = Tree23._split_up

        def spy(self, node, delta, lazy=False):
            seen.append((node, list(node.kids), self.meter.count))
            assert delta == 1 and not lazy
            return split_up(self, node, delta, lazy)

        monkeypatch.setattr(Tree23, "_split_up", spy)
        for v in _probe_values(t, rnd):
            key = Key(v, ctr)
            if t.search(key) is not None:
                continue
            m0 = t.meter.count
            (node, pos), ref_c, ref_m = _counted(
                t, ctr, lambda: _ref_insert_position(t, key))
            kids = list(node.kids)
            c0, m1 = ctr.count, t.meter.count
            leaf = t.insert(key)
            assert ctr.count - c0 == ref_c, (seed, v)
            at, at_kids, at_meter = seen.pop()
            assert at is node and at_kids == kids[:pos] + [leaf] + kids[pos:]
            # insert charges one step for the new leaf, then the descent
            assert at_meter - m1 == 1 + ref_m and m1 - m0 == ref_m
            t.audit(sorted_keys=True)
            calls += 1
        monkeypatch.undo()
    assert {2, 3} <= arities and calls > 1000
    assert {0, 1, 2} <= heights


def test_insert_into_a_one_leaf_tree_counts_one_comparison():
    ctr = CmpCounter()
    t = Tree23()
    t.insert(Key(5, ctr))
    assert ctr.count == 0
    t.insert(Key(3, ctr))
    assert ctr.count == 1 and [lf.hi for lf in t.leaves()] == [3, 5]

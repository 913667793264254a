import itertools
import math
import random

import pytest

from conftest import ppivot_task, run_task
from wsmap import sortlib
from wsmap.core import CmpCounter, Key
from wsmap.sortlib import entropy, pesort_task


def _keys(values, ctr=None):
    ctr = ctr or CmpCounter()
    return [Key(v, ctr) for v in values], ctr


def _reference(values):
    # stable reference sort of positions
    return [i for i, _v in sorted(enumerate(values), key=lambda t: t[1])]


def test_entropy_examples():
    assert entropy([1, 1, 1, 1]) == pytest.approx(math.log(4))
    assert entropy([7]) == pytest.approx(0.0)
    assert entropy([3, 1]) == pytest.approx(
        0.75 * math.log(4 / 3) + 0.25 * math.log(4))
    with pytest.raises(ValueError):
        entropy([2, 0], 2)
    with pytest.raises(ValueError, match="empty frequency profile"):
        entropy([])


def test_ppivot_examples():
    keys, _ = _keys(list(range(1, 9)))
    pivot, _m, _rt = run_task(ppivot_task(keys, list(range(8))))
    assert pivot.value == 5
    keys, _ = _keys([7])
    pivot, _m, _rt = run_task(ppivot_task(keys, [0]))
    assert pivot.value == 7


def test_ppivot_middle_quartiles_property():
    rnd = random.Random(42)
    for trial in range(300):
        k = rnd.choice([2, 3, 4, 5, 8, 17, 64, 100])
        dup = rnd.random() < 0.4
        values = [rnd.randrange(8 if dup else 10 ** 6) for _ in range(k)]
        keys, _ = _keys(values)
        pivot, _m, _rt = run_task(ppivot_task(keys, list(range(k))))
        le = sum(1 for v in values if v <= pivot.value)
        ge = sum(1 for v in values if v >= pivot.value)
        assert 4 * le >= k and 4 * ge >= k, (k, values, pivot.value)


def test_pesort_single_distinct_value():
    keys, _ = _keys([5, 5, 5, 5])
    order, m, _rt = run_task(pesort_task(keys))
    assert order == [0, 1, 2, 3]


def test_pesort_all_equal_linear_comparisons():
    # the three-way partition puts every key equal to the pivot in the
    # middle part, so one level sorts an all-equal input; a partition that
    # does not group duplicates recurses on them
    keys, ctr = _keys([5] * 512)
    order, _m, _rt = run_task(pesort_task(keys))
    assert order == list(range(512))
    assert ctr.count <= 20 * 512


def test_pesort_matches_reference():
    for seed, n, u in ((0, 63, 7), (1, 256, 10 ** 6), (2, 300, 3)):
        rnd = random.Random(seed)
        values = [rnd.randrange(u) for _ in range(n)]
        keys, _ = _keys(values)
        order, _m, _rt = run_task(pesort_task(keys))
        assert order == _reference(values)


def test_pesort_recursion_depth_bound(monkeypatch):
    # every partition leaves at most 3/4 of its input on either side, so the
    # recursion depth is at most log_{4/3} n + 1
    partition = sortlib._partition_task
    sides = []

    def spy(keys, idx, pivot):
        low, mid, high = yield from partition(keys, idx, pivot)
        sides.append((len(idx), len(low), len(high)))
        return low, mid, high

    monkeypatch.setattr(sortlib, "_partition_task", spy)
    rnd = random.Random(13)
    for n in (64, 512, 2048):
        values = [rnd.randrange(10 ** 9) for _ in range(n)]
        keys, _ = _keys(values)
        sides.clear()
        order, _m, _rt = run_task(pesort_task(keys))
        assert order == _reference(values)
        assert max(k for k, _lo, _hi in sides) == n
        assert all(4 * max(lo, hi) <= 3 * k for k, lo, hi in sides)


def test_pesort_work_and_span_scaling():
    rnd = random.Random(21)
    for n in (64, 1024):
        values = [rnd.randrange(32) for _ in range(n)]
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        h = entropy(counts.values(), n)
        keys, _ = _keys(values)
        _order, metrics, _rt = run_task(pesort_task(keys))
        assert metrics.ds_work <= 60 * (n * h + n)
        assert metrics.ds_span <= 40 * (math.log2(n) ** 2)


def test_pesort_short_inputs_match_the_stable_reference():
    # sizes around the sequential grain ceil(log2(n + 1)), with many equal
    # keys, so base-case runs and partitions both group duplicates stably
    rnd = random.Random(5)
    for n in range(41):
        for u in (1, 2, 3, 5):
            values = [rnd.randrange(u) for _ in range(n)]
            keys, _ = _keys(values)
            order, _m, _rt = run_task(pesort_task(keys))
            assert order == _reference(values), (n, values)


def test_pesort_base_case_charges_at_least_its_comparisons():
    # one run of s positions sorted in one node: its ds work must cover the
    # comparisons Python's stable sort makes on it, whatever the input order
    rnd = random.Random(8)
    inputs = [list(perm) for s in range(7)
              for perm in itertools.permutations(range(s))]
    for s in range(7, 41):
        inputs += [list(range(s)), list(range(s, 0, -1)),
                   [min(i, s - i) for i in range(s)],
                   [rnd.randrange(s) for _ in range(s)],
                   rnd.sample(range(s), s)]
    for values in inputs:
        s = len(values)
        keys, ctr = _keys(values)
        idx = list(range(s))
        order, metrics, _rt = run_task(sortlib._pesort_rec(keys, idx, 0, s))
        assert order == _reference(values)
        assert metrics.ds_work >= ctr.count, (values, ctr.count)
        # the one node's charge, plus run_task's root node
        assert metrics.ds_work == max(1, s * math.ceil(math.log2(s + 1))) + 1

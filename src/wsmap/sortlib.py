"""Entropy-sensitive sorting.

pesort is the parallel quicksort that M1 and M2 run on every cut batch:
guaranteed-middle-quartile pivots and a three-way partition that groups
equal keys, so duplicate-heavy inputs sort in O(nH + n) comparisons (H the
entropy of the key frequencies) rather than n log n. It runs as a task DAG
on the runtime.
"""

from __future__ import annotations

import math

from .runtime import Par, merge_sort_task, par_map


def entropy(counts, n=None):
    """Entropy in nats of normalized frequencies counts/n."""
    counts = list(counts)
    if n is None:
        n = sum(counts)
    if n <= 0:
        raise ValueError("entropy of an empty frequency profile")
    h = 0.0
    for c in counts:
        if c <= 0:
            raise ValueError("counts must be positive")
        q = c / n
        h += q * math.log(1.0 / q)
    return h


def pesort_task(keys):
    """Task: sort by key; returns input positions (stable, duplicates
    grouped)."""
    order = yield from _pesort_rec(keys, list(range(len(keys))), 0)
    return order


def _pesort_rec(keys, idx, pivot_depth):
    if len(idx) <= 1:
        yield 1
        return list(idx)
    pivot = yield from ppivot_task(keys, idx, pivot_depth)
    low, mid, high = yield from _partition_task(keys, idx, pivot)
    lo_sorted, hi_sorted = yield Par(_pesort_rec(keys, low, pivot_depth),
                                     _pesort_rec(keys, high, pivot_depth))
    yield 1
    return lo_sorted + mid + hi_sorted


def _chunked_task(idx, chunk, leaf):
    """Apply leaf to consecutive runs of at most chunk positions at the
    leaves of a binary fork tree, and add the tuples it returns elementwise
    up the join tree (lists concatenate, so order is kept)."""
    if len(idx) <= chunk:
        yield max(1, len(idx))
        return leaf(idx)
    half = (len(idx) // (2 * chunk)) * chunk or chunk
    a, b = yield Par(_chunked_task(idx[:half], chunk, leaf),
                     _chunked_task(idx[half:], chunk, leaf))
    yield 1
    return tuple(x + y for x, y in zip(a, b))


def _partition_task(keys, idx, pivot):
    """Three-way partition keeping relative order within each part; the
    prefix-sum combine is the binary join tree."""
    def part(run):
        low, mid, high = [], [], []
        for i in run:
            if keys[i] < pivot:
                low.append(i)
            elif pivot < keys[i]:
                high.append(i)
            else:
                mid.append(i)
        return low, mid, high

    chunk = max(1, math.ceil(math.log2(len(idx) + 1)))
    return (yield from _chunked_task(idx, chunk, part))


def ppivot_task(keys, idx, pivot_depth=0):
    """Task: pick a pivot guaranteed to lie in the two middle quartiles.

    Blocks of ceil(log2 k) take their lower median sequentially; the medians
    are sorted (recursively via the entropy sort, or a plain merge-sort DAG
    for few blocks or deep pivot recursions) and the lower median of medians
    is the candidate. Ragged last blocks can push the candidate just outside
    the middle quartiles for adversarial sizes, so a counting pass verifies
    it and falls back to the exact lower median when needed.
    """
    k = len(idx)
    if k == 1:
        yield 1
        return keys[idx[0]]
    bsz = max(1, math.ceil(math.log2(k)))
    blocks = [idx[i:i + bsz] for i in range(0, k, bsz)]

    def block_median(block):
        yield max(1, len(block))
        vals = sorted(keys[i] for i in block)
        return vals[(len(vals) - 1) // 2]

    medians = yield from par_map(blocks, block_median)
    c = len(medians)
    if c < 8 or pivot_depth >= 2:
        ordered = yield from merge_sort_task(medians, key=lambda x: x)
    else:
        perm = yield from _pesort_rec(medians, list(range(c)), pivot_depth + 1)
        ordered = [medians[i] for i in perm]
    candidate = ordered[(c - 1) // 2]
    le, ge = yield from _chunked_task(idx, bsz, lambda run: (
        sum(1 for i in run if not candidate < keys[i]),
        sum(1 for i in run if not keys[i] < candidate)))
    if 4 * le >= k and 4 * ge >= k:
        return candidate
    allv = yield from merge_sort_task([keys[i] for i in idx], key=lambda x: x)
    return allv[(k - 1) // 2]

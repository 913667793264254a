"""Entropy-sensitive sorting.

pesort is the parallel quicksort that M1 and M2 run on every cut batch:
guaranteed-middle-quartile pivots and a three-way partition that groups
equal keys, so duplicate-heavy inputs sort in O(nH + n) comparisons (H the
entropy of the key frequencies) rather than n log n. It runs as a task DAG
on the runtime. Runs of at most g = max(ceil(log2(n + 1)), 16) positions
are sorted sequentially in one node, which charges s * ceil(log2(s + 1))
steps for s positions (at least the comparisons it makes). It is the one
parallel sort: segment moves and reverse indexes sort with it too.
"""

from __future__ import annotations

import math

from .runtime import Par, par_map

# the largest power of two at which one node sorts for less work and span
# than one pivot level (pivot, partition and two one-node children)
_MIN_GRAIN = 16


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
    order = yield from _pesort_rec(
        keys, list(range(len(keys))), max(_log_chunk(len(keys)), _MIN_GRAIN))
    return order


def _log_chunk(n):
    """ceil(log2(n + 1)), exactly, as n.bit_length(): the partition's chunk
    for n positions, and pesort's grain where that exceeds _MIN_GRAIN."""
    return n.bit_length()


def _pesort_rec(keys, idx, grain):
    s = len(idx)
    if s <= grain:
        # Python's stable sort makes at most s * ceil(log2(s + 1))
        # comparisons (a natural run, then binary insertion)
        yield max(1, s * _log_chunk(s))
        return sorted(idx, key=keys.__getitem__)
    pivot = yield from _pivot_task(keys, idx, grain)
    low, mid, high = yield from _partition_task(keys, idx, pivot)
    lo_sorted, hi_sorted = yield Par(
        _pesort_rec(keys, low, grain), _pesort_rec(keys, high, grain))
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

    return (yield from _chunked_task(idx, _log_chunk(len(idx)), part))


def _pivot_task(keys, idx, grain):
    """Blocks of ceil(log2 k) take their lower median sequentially; the
    medians are sorted by the entropy sort itself, with the grain of the
    sort the pivot serves, and the lower median of medians is the
    candidate. Ragged last blocks can push the candidate just outside the
    middle quartiles for adversarial sizes, so a counting pass verifies it
    and falls back to the exact lower median, sorted in one node charged as
    the base case is.
    """
    k = len(idx)
    bsz = max(1, math.ceil(math.log2(k)))
    blocks = [idx[i:i + bsz] for i in range(0, k, bsz)]

    def block_median(block):
        yield max(1, len(block))
        vals = sorted(keys[i] for i in block)
        return vals[(len(vals) - 1) // 2]

    medians = yield from par_map(blocks, block_median)
    perm = yield from _pesort_rec(medians, list(range(len(medians))), grain)
    candidate = medians[perm[(len(medians) - 1) // 2]]
    le, ge = yield from _chunked_task(idx, bsz, lambda run: (
        sum(1 for i in run if not candidate < keys[i]),
        sum(1 for i in run if not keys[i] < candidate)))
    if 4 * le >= k and 4 * ge >= k:
        return candidate
    yield k * _log_chunk(k)
    return sorted(keys[i] for i in idx)[(k - 1) // 2]

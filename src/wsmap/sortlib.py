"""Entropy-sensitive sorting.

esort runs sequentially over a working-set dictionary, so its comparison
count tracks the insert working-set bound of the input (duplicate-heavy
inputs sort in far fewer than n log n comparisons). pesort is the parallel
quicksort variant built on guaranteed-middle-quartile pivots; it runs as a
task DAG on the runtime.
"""

from __future__ import annotations

import math

from .runtime import Par, merge, merge_sort_task, par_map
from .seqmap import SeqWorkingSetMap


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


def esort(keys):
    """Stable entropy sort; returns input positions in non-decreasing key
    order with duplicate groups in input order."""
    if not keys:
        return []
    d = SeqWorkingSetMap()
    for pos, key in enumerate(keys):
        tag = d.access_or_insert(key, list)
        tag.append(pos)
    # per-segment sorted lists, merged smallest-capacity first
    merged = []
    for seg in d.segments:
        seg_items = seg.keys.items()  # already key-sorted
        merged = merge(merged, seg_items, key=lambda kv: kv[0])
    out = []
    for _key, tag in merged:
        out.extend(tag)
    return out


# -- parallel entropy sort -------------------------------------------------------


def pesort_task(keys, stats=None):
    """Task: sort by key; returns input positions (stable, duplicates
    grouped). A stats dict, if given, records the maximum recursion depth."""
    order = yield from _pesort_rec(keys, list(range(len(keys))), 0, 0, stats)
    return order


def _pesort_rec(keys, idx, pivot_depth, depth, stats):
    k = len(idx)
    if stats is not None:
        stats["max_depth"] = max(stats.get("max_depth", 0), depth)
    if k <= 1:
        yield 1
        return list(idx)
    pivot = yield from ppivot_task(keys, idx, pivot_depth)
    low, mid, high = yield from _partition_task(keys, idx, pivot)
    lo_sorted, hi_sorted = yield Par(
        _pesort_rec(keys, low, pivot_depth, depth + 1, stats),
        _pesort_rec(keys, high, pivot_depth, depth + 1, stats))
    yield 1
    return lo_sorted + mid + hi_sorted


def _partition_task(keys, idx, pivot, chunk=None):
    """Three-way partition keeping relative order within each part; the
    prefix-sum combine is the binary join tree."""
    if chunk is None:
        chunk = max(1, math.ceil(math.log2(len(idx) + 1)))
    if len(idx) <= chunk:
        yield max(1, len(idx))
        low, mid, high = [], [], []
        for i in idx:
            if keys[i] < pivot:
                low.append(i)
            elif pivot < keys[i]:
                high.append(i)
            else:
                mid.append(i)
        return low, mid, high
    half = (len(idx) // (2 * chunk)) * chunk or chunk
    (l1, m1, h1), (l2, m2, h2) = yield Par(
        _partition_task(keys, idx[:half], pivot, chunk),
        _partition_task(keys, idx[half:], pivot, chunk))
    yield 1
    return l1 + l2, m1 + m2, h1 + h2


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
        perm = yield from _pesort_rec(medians, list(range(c)),
                                      pivot_depth + 1, 0, None)
        ordered = [medians[i] for i in perm]
    candidate = ordered[(c - 1) // 2]
    le, ge = yield from _quartile_count_task(keys, idx, candidate, bsz)
    if 4 * le >= k and 4 * ge >= k:
        return candidate
    allv = yield from merge_sort_task([keys[i] for i in idx], key=lambda x: x)
    return allv[(k - 1) // 2]


def _quartile_count_task(keys, idx, pivot, chunk):
    if len(idx) <= chunk:
        yield max(1, len(idx))
        le = sum(1 for i in idx if not pivot < keys[i])
        ge = sum(1 for i in idx if not keys[i] < pivot)
        return le, ge
    half = (len(idx) // (2 * chunk)) * chunk or chunk
    (l1, g1), (l2, g2) = yield Par(
        _quartile_count_task(keys, idx[:half], pivot, chunk),
        _quartile_count_task(keys, idx[half:], pivot, chunk))
    yield 1
    return l1 + l2, g1 + g2

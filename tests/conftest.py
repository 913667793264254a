import functools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wsmap.core import (
    CmpCounter, DELETE, INSERT, Key, Operation, SEARCH, UPDATE,
)
from wsmap import bench, sortlib
from wsmap.bench import WorkloadSpec
from wsmap.calibrate import measure_line_constants
from wsmap.runtime import Runtime, DS
from wsmap.tree23 import (
    Leaf, TreeUsageError, _check_sorted_distinct, _split_join_task,
)

from regen_golden import GOLDEN


def golden_spec(name, **changes):
    """The spec of the golden report tests/golden/<name>.json, changed."""
    spec = json.loads((GOLDEN / f"{name}.json").read_text())["spec"]
    return WorkloadSpec(**{**spec, **changes})


@functools.cache
def line_constants(structure):
    """measure_line_constants(structure), measured once per test session
    for the acceptance criteria and the line-table test."""
    return measure_line_constants(structure)


def run_task(gen, p=8, scheduler="greedy", owner=DS, trace=False):
    """Run one task generator to completion; returns (result, metrics, rt)."""
    rt = Runtime(p=p, scheduler=scheduler, trace=trace)
    out = []

    def root():
        out.append((yield from gen))

    rt.spawn_root(root(), owner=owner)
    metrics = rt.run()
    return out[0], metrics, rt


def delete_key(t, key):
    """Delete key from t by a search and a handle delete, charged as such;
    returns the dead leaf, or None for a miss."""
    leaf = t.search(key)
    return None if leaf is None else t.delete_leaf(leaf)


def ppivot_task(keys, idx):
    """Task: pick a pivot guaranteed to lie in the two middle quartiles of
    the keys at positions idx, as pesort would for a run of that size."""
    grain = max(len(idx).bit_length(), sortlib._MIN_GRAIN)
    return (yield from sortlib._pivot_task(keys, idx, grain))


def _apply_op(t, op):
    kind, key, val = op
    if kind == "search":
        return t.search(key)
    if kind == "insert":
        leaf = t.search(key)
        if leaf is not None:
            leaf.val = val
            return leaf
        return t.insert(key, val)
    if kind == "delete":
        return delete_key(t, key)
    raise TreeUsageError(f"unknown batch op kind {kind!r}")


def batch_op_task(tree, ops):
    """Apply a key-sorted batch of (kind, key, val) triples with kinds in
    {'search','insert','delete'}; an insert of a present key updates its
    value. Returns one result per op: the live leaf for search/insert hits
    and inserts, the dead leaf for deletes that removed something, None for
    misses. Runs through the maps' split/apply/rejoin recursion, split at
    the middle op's key."""
    _check_sorted_distinct([key for _kind, key, _val in ops])

    def split(t, part, mid):
        return (*t.split_lt(part[mid][1]), part[mid:])

    return (yield from _split_join_task(tree, ops, split, _apply_op))


def run_map_workload(make_map, chains, p=8, scheduler="greedy"):
    """Drive op chains (serial within a chain, chains in parallel) through
    the map make_map(rt) builds, as run_experiment does; returns (results
    by op_id, map, metrics, rt)."""
    rt = Runtime(p=p, scheduler=scheduler)
    m = make_map(rt)
    results, metrics = bench._run_parallel(m, chains)
    return results, m, metrics, rt


def random_ops(n, universe, seed, mix=(0.5, 0.3, 0.1, 0.1), ctr=None):
    """Reproducible op sequence; mix = (search, insert, delete, update)."""
    rnd = random.Random(seed)
    ctr = ctr or CmpCounter()
    kinds = [SEARCH, INSERT, DELETE, UPDATE]
    ops = []
    for i in range(n):
        r = rnd.random()
        acc = 0.0
        kind = kinds[-1]
        for k, w in zip(kinds, mix):
            acc += w
            if r < acc:
                kind = k
                break
        key = Key(rnd.randrange(universe), ctr)
        payload = i if kind in (INSERT, UPDATE) else None
        ops.append(Operation(i, kind, key, payload))
    return ops


def chunk_chains(ops, width):
    """Split ops into width serial chains of near-equal length."""
    if width <= 1:
        return [ops]
    size = (len(ops) + width - 1) // width
    return [ops[i:i + size] for i in range(0, len(ops), size)]


def tree_dump(tree):
    """Nested-list shape of a Tree23, leaves as their keys."""
    def walk(node):
        if type(node) is Leaf:
            return node.key
        return [walk(kid) for kid in node.kids]
    return None if tree.root is None else walk(tree.root)


def seq_dump(m):
    """A SeqWorkingSetMap's segment contents front-to-back."""
    return [[leaf.key for leaf in seg.rec] for seg in m.segments]


def rank_of(m, key):
    """1-based position of key in a SeqWorkingSetMap, in segment order then
    recency order."""
    base = 0
    for seg in m.segments:
        for pos, leaf in enumerate(seg.rec, 1):
            if leaf.key == key:
                return base + pos
        base += seg.size
    raise KeyError(f"rank_of: {key!r} not present")

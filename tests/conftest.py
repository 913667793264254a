import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wsmap.core import (
    CmpCounter, DELETE, INSERT, Key, Operation, SEARCH, UPDATE,
)
from wsmap.runtime import Runtime, DS, par_map
from wsmap.tree23 import Leaf


def run_task(gen, p=8, scheduler="greedy", owner=DS, trace=False):
    """Run one task generator to completion; returns (result, metrics, rt)."""
    rt = Runtime(p=p, scheduler=scheduler, trace=trace)
    out = []

    def root():
        out.append((yield from gen))

    rt.spawn_root(root(), owner=owner)
    metrics = rt.run()
    return out[0], metrics, rt


def run_map_workload(make_map, chains, p=8, scheduler="greedy"):
    """Drive op chains (serial within a chain, chains in parallel) through a
    map structure; returns (results by op_id, map, metrics, rt)."""
    rt = Runtime(p=p, scheduler=scheduler)
    m = make_map(rt, p)
    results = {}

    def chain_task(ops):
        for op in ops:
            res = yield from m.call(op)
            results[op.op_id] = res

    def root():
        yield from par_map(chains, chain_task)

    rt.spawn_root(root())
    metrics = rt.run()
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

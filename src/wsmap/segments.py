"""Paired key-map/recency-map segments for the batched maps.

Each segment holds its items twice: in a key-ordered 2-3 tree and in a
recency-ordered 2-3 tree (front = most recent), with cross-handles between
the paired leaves. This module alone pairs the trees: the maps hand it
key-tree leaves and key-sorted blocks, and it finds the recency twins and
links the new ones after each join. Batch finds go through the key tree;
recency-edge blocks move between segments through reverse-indexing, exactly
so every composite stays within batched-tree work/span. A new block arrives
key-sorted; a moved block is sorted once for both key trees. Leaves already
in hand are deleted by handle in every tree, with no search. Two tasks
change segments: `seg_update_task` updates one segment, its two trees as
the branches of one fork, and `seg_move_task` makes every change across one
boundary (a hit pass's found-removal, keep insert and restoring move, or a
plain block move) as the source's update forked beside the destination's,
taking the move's ends from segment order.
"""

from __future__ import annotations

from .runtime import Par
from .seqmap import segment_capacity
from .sortlib import pesort_task
from .tree23 import (
    Tree23, batch_delete_pos_task, batch_update_task, pop_extreme_task,
    push_edge_task,
)


class PairedSegment:
    __slots__ = ("index", "cap", "keys", "rec")

    def __init__(self, index, meter):
        self.index = index
        self.cap = segment_capacity(index)
        self.keys = Tree23(meter)
        self.rec = Tree23(meter)

    @property
    def size(self):
        return len(self.keys)

    def audit(self):
        assert len(self.keys) == len(self.rec)
        self.keys.audit(sorted_keys=True)
        self.rec.audit()
        for lf in self.keys.leaves():
            assert lf.twin is not None and lf.twin.twin is lf, "broken twin"
            assert lf.twin.key.value == lf.key.value


def preload_segment(seg, pairs):
    """Directly construct a segment's contents (most recent first); bench
    warm-start that skips simulating the insert traffic."""
    rec_tree, rec_leaves = Tree23.build(pairs, seg.rec.meter)
    seg.rec.adopt(rec_tree)
    by_key = sorted(pairs, key=lambda kv: kv[0].value)
    key_tree, key_leaves = Tree23.build(by_key, seg.keys.meter)
    seg.keys.adopt(key_tree)
    _link_twins(pairs, rec_leaves, key_leaves)


def _link_twins(pairs, rec_leaves, key_leaves):
    """Cross-link each key-tree leaf with the recency-tree leaf built from
    the same pair; rec_leaves follow pairs' order."""
    twin = {id(kv[0]): rl for kv, rl in zip(pairs, rec_leaves)}
    for kl in key_leaves:
        rl = twin[id(kl.key)]
        kl.twin = rl
        rl.twin = kl


def seg_update_task(seg, dead, pairs, by_key, end):
    """Delete the key-sorted key-tree leaves dead by handle, with their
    recency twins that are still live (pop_extreme_task already killed a
    popped one), and insert new items: pairs in recency order at the chosen
    end, by_key the same pairs in key order. The two trees update in
    parallel, and twins are linked after the join; when nothing touches the
    recency tree, only the key batch runs."""
    rec_dead = [lf.twin for lf in dead if lf.twin.alive]
    if not (rec_dead or pairs):
        yield from batch_update_task(seg.keys, dead, by_key)
        return
    rec_leaves, key_leaves = yield Par(
        _delete_push_task(seg.rec, rec_dead, pairs, end),
        batch_update_task(seg.keys, dead, by_key))
    _link_twins(pairs, rec_leaves, key_leaves)


def _delete_push_task(rec, dead, pairs, end):
    if dead:
        yield from batch_delete_pos_task(rec, dead)
    return (yield from push_edge_task(rec, pairs, end)) if pairs else []


def seg_move_task(src, dst, count, found=(), block=()):
    """Every update across one segment boundary: move src's count (>= 0)
    items to dst, keeping their recency order, while the new key-sorted
    block enters src's front and dst's found (key-tree) leaves leave it.
    Segment order fixes the ends: a move toward a later segment takes src's
    back to dst's front, one toward an earlier segment src's front to dst's
    back. The moved items are popped and sorted by key once; then src's
    update forks beside dst's. With neither a move nor a block, only dst
    updates."""
    src_end, dst_end = (("back", "front") if src.index < dst.index
                        else ("front", "back"))
    moved = by_key = ()
    if count:
        moved = yield from pop_extreme_task(src.rec, count, src_end)
        order = yield from pesort_task([lf.key for lf in moved])
        by_key = [moved[i] for i in order]
    dst_update = seg_update_task(dst, found,
                                 [(lf.key, lf.val) for lf in moved],
                                 [(lf.key, lf.val) for lf in by_key], dst_end)
    if count or block:
        yield Par(seg_update_task(src, [lf.twin for lf in by_key],
                                  block, block, "front"), dst_update)
    else:
        yield from dst_update


def boundary_move(left, right, surplus, limit=None):
    """The block move across one boundary whose prefix holds surplus items
    over capacity: a surplus goes from the back of left to the front of
    right; a deficit pulls from the front of right to the back of left, at
    most right's size and limit. Returns the move task, or None (no
    generator built) when nothing moves."""
    if surplus > 0:
        return seg_move_task(left, right, surplus)
    pull = min(-surplus, right.size)
    if limit is not None and limit < pull:
        pull = limit
    if pull > 0:
        return seg_move_task(right, left, pull)
    return None


def restore_prefix_task(segments, k):
    """Re-establish the exact-prefix capacity rule after processing segment
    k: walking boundaries outward-in, move items between the back of S[i-1]
    and the front of S[i] until S[0..i-1] is exactly full or S[i] is empty."""
    for i in range(min(k, len(segments) - 1), 0, -1):
        surplus = sum(segments[j].size - segments[j].cap for j in range(i))
        move = boundary_move(segments[i - 1], segments[i], surplus)
        if move is not None:
            yield from move
    yield 1

"""Amortized sequential working-set map.

Items live in a list of segments S[0..l] of capacity 2^(2^k), every segment
full except perhaps the last. Each segment pairs a key-ordered 2-3 tree with
a recency order, an OrderedDict of the tree's leaves (most recent first;
leaves hash by identity, so the order compares no keys); a hit in S[k]
promotes the item to the front of S[k-1] and demotes S[k-1]'s least recent
item into S[k], so an item of recency rank q is found within the first
log log q segments.

Cost instrumentation: the shared StepMeter counts tree node touches and one
step per recency link or unlink; key comparisons are counted by the keys'
own comparator. The summed steps of any operation sequence stay within a
constant of its working-set bound.
"""

from __future__ import annotations

from collections import OrderedDict

from .tree23 import StepMeter, Tree23


def segment_capacity(k):
    """Capacity 2^(2^k) of segment S[k]."""
    return 1 << (1 << k)


class _Segment:
    __slots__ = ("cap", "keys", "rec")

    def __init__(self, index, meter):
        self.cap = segment_capacity(index)
        self.keys = Tree23(meter)
        self.rec = OrderedDict()    # key-tree leaves, most recent first

    @property
    def size(self):
        return len(self.keys)


class SeqWorkingSetMap:
    """Single-owner sequential map with the working-set property."""

    def __init__(self):
        self.meter = StepMeter()
        self.segments = []
        self.n = 0

    @property
    def steps(self):
        return self.meter.count

    # -- queries/updates -------------------------------------------------------

    def _scan(self, key):
        for k, seg in enumerate(self.segments):
            leaf = seg.keys.search(key)
            if leaf is not None:
                return k, leaf
        return None, None

    def _access(self, key):
        """Find key and promote it; returns its leaf after the promotion,
        or None on a miss."""
        k, leaf = self._scan(key)
        if leaf is None:
            return None
        return self._promote(k, leaf)

    def search(self, key):
        leaf = self._access(key)
        if leaf is None:
            return False, None
        return True, leaf.val

    def update(self, key, val):
        leaf = self._access(key)
        if leaf is None:
            return False, None
        prior, leaf.val = leaf.val, val
        return True, prior

    def insert(self, key, val):
        """Returns (found, prior value); a hit acts as update plus promotion."""
        found, prior = self.update(key, val)
        if not found:
            self._append_new(key, val)
        return found, prior

    def delete(self, key):
        k, leaf = self._scan(key)
        if leaf is None:
            return False, None
        _key, prior = self._detach(self.segments[k], leaf)
        # refill by pulling each later segment's most recent item backward
        for i in range(k, len(self.segments) - 1):
            self._move_one(self.segments[i + 1], self.segments[i],
                           "front", "back")
        if self.segments and self.segments[-1].size == 0:
            self.segments.pop()
        self.n -= 1
        return True, prior

    # -- internals ---------------------------------------------------------------

    def _attach(self, seg, key, val, end):
        leaf = seg.keys.insert(key, val)
        self.meter.count += 1
        seg.rec[leaf] = None
        if end == "front":
            seg.rec.move_to_end(leaf, last=False)
        return leaf

    def _detach(self, seg, leaf):
        self.meter.count += 1
        del seg.rec[leaf]
        seg.keys.delete_leaf(leaf)
        return leaf.key, leaf.val

    def _move_one(self, src, dst, src_end, dst_end):
        rec = src.rec
        leaf = next(iter(rec)) if src_end == "front" else next(reversed(rec))
        key, val = self._detach(src, leaf)
        self._attach(dst, key, val, dst_end)

    def _promote(self, k, leaf):
        """Move the hit to the front of S[k-1] (of S[0] when k = 0); returns
        its leaf there, a new one when it changed segment."""
        seg = self.segments[k]
        if k == 0:
            self.meter.count += 2       # unlink plus push-front
            seg.rec.move_to_end(leaf, last=False)
            return leaf
        key, val = self._detach(seg, leaf)
        prev = self.segments[k - 1]
        promoted = self._attach(prev, key, val, "front")
        self._move_one(prev, seg, "back", "front")
        return promoted

    def _append_new(self, key, val):
        if not self.segments:
            self.segments.append(_Segment(0, self.meter))
        last = self.segments[-1]
        if last.size >= last.cap:
            self.segments.append(_Segment(len(self.segments), self.meter))
            last = self.segments[-1]
        self._attach(last, key, val, "back")
        self.n += 1

    def audit(self):
        assert self.n == sum(seg.size for seg in self.segments)
        seen = set()
        for i, seg in enumerate(self.segments):
            assert seg.cap == segment_capacity(i)
            if i < len(self.segments) - 1:
                assert seg.size == seg.cap, \
                    f"segment {i} not full: {seg.size}/{seg.cap}"
            else:
                assert 0 < seg.size <= seg.cap
            assert len(seg.rec) == seg.size, \
                f"segment {i} recency order holds {len(seg.rec)} of " \
                f"{seg.size} leaves"
            for leaf in seg.rec:
                assert leaf.alive, f"dead leaf {leaf.key!r} in segment {i}"
                v = leaf.key.value
                assert v not in seen, f"key {v!r} in two segments"
                seen.add(v)
            assert set(map(id, seg.rec)) == set(map(id, seg.keys.leaves())), \
                f"segment {i}: order and key tree hold different leaves"
            seg.keys.audit(sorted_keys=True)
        if self.segments:
            import math
            l = len(self.segments) - 1
            if l >= 1:
                assert 2 ** (l - 1) <= math.log2(self.n + 1)

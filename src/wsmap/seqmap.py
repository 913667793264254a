"""Amortized sequential working-set map.

Items live in a list of segments S[0..l] of capacity 2^(2^k), every segment
full except perhaps the last. Each segment pairs a key-ordered 2-3 tree with
a recency list (most recent first); a hit in S[k] promotes the item to the
front of S[k-1] and demotes S[k-1]'s least recent item into S[k], so an item
of recency rank q is found within the first log log q segments.

Cost instrumentation: the shared StepMeter counts tree node touches and list
links; key comparisons are counted by the keys' own comparator. The summed
steps of any operation sequence stay within a constant of its working-set
bound.
"""

from __future__ import annotations

from .tree23 import StepMeter, Tree23

_CAP_LIMIT = 1 << 63


def segment_capacity(k):
    if 2 ** k >= 63:
        return _CAP_LIMIT
    return 1 << (1 << k)


class _RecNode:
    __slots__ = ("leaf", "prev", "next")

    def __init__(self, leaf):
        self.leaf = leaf
        self.prev = None
        self.next = None


class _Recency:
    """Doubly linked list, front = most recent; O(1) metered link ops."""

    __slots__ = ("head", "tail", "size", "meter")

    def __init__(self, meter):
        self.head = None
        self.tail = None
        self.size = 0
        self.meter = meter

    def push_front(self, node):
        self.meter.count += 1
        node.prev = None
        node.next = self.head
        if self.head is not None:
            self.head.prev = node
        self.head = node
        if self.tail is None:
            self.tail = node
        self.size += 1

    def push_back(self, node):
        self.meter.count += 1
        node.next = None
        node.prev = self.tail
        if self.tail is not None:
            self.tail.next = node
        self.tail = node
        if self.head is None:
            self.head = node
        self.size += 1

    def unlink(self, node):
        self.meter.count += 1
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self.head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self.tail = node.prev
        node.prev = node.next = None
        self.size -= 1

    def keys_front_to_back(self):
        out = []
        node = self.head
        while node is not None:
            out.append(node.leaf.key)
            node = node.next
        return out


class _Segment:
    __slots__ = ("index", "cap", "keys", "rec")

    def __init__(self, index, meter):
        self.index = index
        self.cap = segment_capacity(index)
        self.keys = Tree23(meter)
        self.rec = _Recency(meter)

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
        leaf = self._access(key)
        if leaf is not None:
            prior, leaf.val = leaf.val, val
            return True, prior
        self._append_new(key, val)
        return False, None

    def access_or_insert(self, key, make_val):
        """Single-pass hit-promote-or-insert; returns the item's value."""
        leaf = self._access(key)
        if leaf is not None:
            return leaf.val
        val = make_val()
        self._append_new(key, val)
        return val

    def delete(self, key):
        k, leaf = self._scan(key)
        if leaf is None:
            return False, None
        prior = leaf.val
        seg = self.segments[k]
        seg.rec.unlink(leaf.twin)
        seg.keys.delete_leaf(leaf)
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
        node = _RecNode(leaf)
        leaf.twin = node
        if end == "front":
            seg.rec.push_front(node)
        else:
            seg.rec.push_back(node)
        return leaf

    def _detach(self, seg, leaf):
        seg.rec.unlink(leaf.twin)
        seg.keys.delete_leaf(leaf)
        return leaf.key, leaf.val

    def _move_one(self, src, dst, src_end, dst_end):
        node = src.rec.head if src_end == "front" else src.rec.tail
        key, val = self._detach(src, node.leaf)
        self._attach(dst, key, val, dst_end)

    def _promote(self, k, leaf):
        """Move the hit to the front of S[k-1] (of S[0] when k = 0); returns
        its leaf there, a new one when it changed segment."""
        seg = self.segments[k]
        if k == 0:
            node = leaf.twin
            seg.rec.unlink(node)
            seg.rec.push_front(node)
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

    # -- test hooks (not metered) ---------------------------------------------------

    def rank_of(self, key):
        """1-based position in segment order then recency order."""
        saved = self.meter.count
        base = 0
        for seg in self.segments:
            node = seg.rec.head
            pos = 1
            while node is not None:
                if node.leaf.key == key:
                    self.meter.count = saved
                    return base + pos
                node = node.next
                pos += 1
            base += seg.size
        self.meter.count = saved
        raise KeyError(f"rank_of: {key!r} not present")

    def dump(self):
        """Segment contents front-to-back, for golden tests."""
        saved = self.meter.count
        out = [seg.rec.keys_front_to_back() for seg in self.segments]
        self.meter.count = saved
        return out

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
            assert seg.rec.size == seg.size
            node = seg.rec.head
            count = 0
            while node is not None:
                assert node.leaf.twin is node
                assert node.leaf.alive
                v = node.leaf.key.value
                assert v not in seen
                seen.add(v)
                count += 1
                node = node.next
            assert count == seg.size
            seg.keys.audit(sorted_keys=True)
        if self.segments:
            import math
            l = len(self.segments) - 1
            if l >= 1:
                assert 2 ** (l - 1) <= math.log2(self.n + 1)

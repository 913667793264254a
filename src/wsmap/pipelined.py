"""Pipelined working-set map.

One segment chain S[0..l] in `segments`: a first slab S[0..m-1], processed
batch-at-a-time by the interface exactly like the batched map (the shared
`SegmentedMap` engine), then a pipelined final slab S[m..l] of
activation-gated segment actors. Against M1's policies, a cut batch is one
bunch, every delivery records a linearization event, and growth past S[m-1]
appends final-slab segments; an emptied terminal segment is popped. A filter
in front of the final slab guarantees all in-flight final-slab operations
are on distinct keys: an operation on a filtered key is trapped in that
key's entry and finishes together with it. Neighbour-locks serialize
adjacent segment runs (acquired in the alternating arrow order, so no
cycles form) and front-locks FL[0..] serialize every access to the filter
and S[m]'s contents; `_front_acquire`/`_front_release` are the one place
that takes and releases them. An actor's step-4d segment update forks beside
its filter delete; at S[m] it is one `seg_move_task` across S[m-1]|S[m].
Locks are made on first use; the runtime learns of one when a task parks
on it. All final-slab nodes are owned by DS_FINAL, so they run on the
high-priority queue; interface activations stay on the low queue. m comes
from the runtime's p unless overridden.
"""

from __future__ import annotations

import math

from .batched import SegmentedMap
from .runtime import (
    Acquire, ActivationGate, DS, DS_FINAL, DedicatedLock, Par, concat_tree,
)
from .segments import (
    PairedSegment, boundary_move, seg_move_task, seg_update_task,
)
from .tree23 import (
    Tree23, batch_search_task, batch_update_task, pop_extreme_task,
)


def first_slab_depth(p):
    """ceil(log2 log2 (2 p^2)) + 1 segments form the first slab."""
    return math.ceil(math.log2(math.log2(2 * p * p))) + 1


class _SlabSegment(PairedSegment):
    __slots__ = ("buffer", "gate", "running", "in_flight")

    def __init__(self, index, meter):
        super().__init__(index, meter)
        self.buffer = Tree23(meter)    # pending ops, key-sorted
        self.gate = None
        self.running = False
        self.in_flight = []


class PipelinedWorkingSetMap(SegmentedMap):
    def __init__(self, rt, m_override=None):
        super().__init__(rt)
        self.m = m_override if m_override is not None else first_slab_depth(rt.p)
        self.filter = Tree23(self.meter)
        self.filter_size = 0          # entries, exact between filter batches
        self._full_steps = 0          # filter-full steps, less t + 1 if full since t
        self.locks = {}               # ("nl", k): S[k-1]|S[k]; ("fl", j): FL[j]
        self._recency = {}            # event keys, least recent event first
        self.trapped_ops = 0          # ops folded into an in-flight entry
        self.fl_delays = []           # (segment index, front-access steps)

    @property
    def terminal(self):
        """Index of the deepest final-slab segment, or None while the final
        slab is closed."""
        last = len(self.segments) - 1
        return last if last >= self.m else None

    @property
    def final(self):
        """The final slab S[m..terminal], as a read-only slice."""
        return self.segments[self.m:]

    # -- interface policies ------------------------------------------------------

    def _ready(self):
        return super()._ready() and self.filter_size <= self.p2

    def _form_cut(self):
        return (yield from concat_tree(self.feed.popleft()))

    def _record(self, deliveries):
        """Time linearization: one event per finished group, in occurrence
        order; within one delivery, descending key, i.e. the reverse of how
        the items were pushed onto the front of S[m'] (front-most item
        last)."""
        ranked = sorted(deliveries, key=lambda d: d[0].key.value, reverse=True)
        recency = self._recency
        for g, _results in ranked:
            key = g.key.value
            self.events.append([op for op, _h in g.entries])
            recency.pop(key, None)
            recency[key] = None

    def _grow_segment(self):
        """Append S[k]: a plain first-slab segment below m, else a final-slab
        segment with its actor gate."""
        k = len(self.segments)
        if k < self.m:
            return super()._grow_segment()
        seg = _SlabSegment(k, self.meter)
        # a popped segment's buffer is empty and no hand-off reaches it
        seg.gate = ActivationGate(lambda: len(seg.buffer) > 0,
                                  lambda: self._segment_cycle(seg))
        self.segments.append(seg)
        return seg

    def _lock(self, family, j):
        """Neighbour-lock ("nl", j) or front-lock ("fl", j), made on first use."""
        lock = self.locks.get((family, j))
        if lock is None:
            lock = self.locks[family, j] = DedicatedLock(2, f"{family}[{j}]")
        return lock

    def _front_acquire(self, k):
        """Take the front-locks FL[k-m..0] for S[k]'s front access (k = m for
        the interface), outermost first: key 2 on FL[k-m], key 1 on the rest.
        Returns the window's start step."""
        t0 = self.rt.now
        top = k - self.m
        for j in range(top, -1, -1):
            yield Acquire(self._lock("fl", j), 2 if j == top else 1)
        return t0

    def _front_release(self, k, t0):
        """Release FL[0..k-m], one step apart past S[m], and record the
        front-access delay since t0 (None: record nothing)."""
        for j in range(k - self.m + 1):
            self.rt.release(self._lock("fl", j))
            if k > self.m:
                yield 1
        if t0 is not None:
            self.fl_delays.append((k, self.rt.now - t0))

    def _cycle(self):
        pending = yield from self._sorted_groups()
        has_final = self.terminal is not None
        pending, k = yield from self._sweep(
            pending, 0, self.m - 1 if has_final else len(self.segments))
        if has_final and pending:
            t0 = self.rt.now   # the interface's window includes its nl wait
            nl = self._lock("nl", self.m)
            yield Acquire(nl, 1)
            yield from self._front_acquire(self.m)
            if self.terminal is None:
                # the final slab drained away while we waited for the locks
                yield from self._front_release(self.m, None)
                self.rt.release(nl)
                pending, _k = yield from self._sweep(pending, k,
                                                     len(self.segments))
                yield from self._finish_tail(pending)
            else:
                pending = yield from self._segment_pass(self.m - 1, pending)
                admitted = yield from self._filter_pass(pending)
                if admitted:
                    yield from self._hand_off(self.segments[self.m], admitted)
                yield from self._front_release(self.m, t0)
                self.rt.release(nl)
        else:
            yield from self._finish_tail(pending)
        if self.audit and self.terminal is None:
            self._audit_full_prefix()
        self._maybe_audit()

    # -- the filter ----------------------------------------------------------------

    def _filter_pass(self, groups):
        """Trap operations on in-flight keys into their filter entries;
        admit the rest as new entries, each group holding its entry's leaf.
        Returns the admitted groups."""
        if not groups:
            yield 1
            return []
        hits = yield from batch_search_task(self.filter,
                                            [g.key for g in groups])
        admitted = []
        for g, leaf in zip(groups, hits):
            if leaf is not None:
                entry = leaf.val
                assert g.found_value is None, \
                    "a tagged deletion cannot collide with an in-flight key"
                entry.entries.extend(g.entries)
                self.trapped_ops += len(g.entries)
            else:
                admitted.append(g)
        if admitted:
            leaves = yield from batch_update_task(
                self.filter, [], [(g.key, g) for g in admitted])
            for g, lf in zip(admitted, leaves):
                g.filter_leaf = lf
            self._resize_filter(len(admitted))
        return admitted

    def _resize_filter(self, delta):
        """Count a finished filter batch, in effect from the next step."""
        was_full = self.filter_size >= self.rt.p
        self.filter_size += delta
        if was_full != (self.filter_size >= self.rt.p):
            self._full_steps += (self.rt.now + 1) * (1 if was_full else -1)

    def filter_full_steps(self):
        """Steps so far that began with at least p filter entries."""
        return self._full_steps + self.rt.now * (self.filter_size >= self.rt.p)

    # -- final-slab segment actors ----------------------------------------------------

    def _hand_off(self, seg, groups):
        """Add key-sorted groups to a final-slab segment's buffer and
        activate its actor on the high-priority queue."""
        yield from batch_update_task(seg.buffer, [],
                                     [(g.key, g) for g in groups])
        self.rt.detach(seg.gate.activate(), owner=DS_FINAL)

    def _segment_cycle(self, seg):
        segs = self.segments
        k = seg.index
        # step 1: neighbour-locks in arrow order (key 2 = right user of nl[k],
        # key 1 = left user of nl[k+1]); the arrows alternate, so nl[k] comes
        # first when k - m is even
        plan = [(self._lock("nl", k), 2)]
        has_right = k + 1 < len(segs)
        if has_right:
            plan.append((self._lock("nl", k + 1), 1))
            if (k - self.m) % 2:
                plan.reverse()
        for lock, lock_key in plan:
            yield Acquire(lock, lock_key)
        seg.running = True
        # step 2: S[m]'s front access spans steps 2-6
        if k == self.m:
            fl_t0 = yield from self._front_acquire(k)
        # step 3: grow a terminal segment if this one overflows
        if self.terminal == k:
            left = segs[k - 1]
            if left.size + seg.size > left.cap + seg.cap:
                self._grow_segment()
                # with has_right, step 1 already holds nl[k+1]: S[k+1] emptied
                # and left the chain while this actor waited for the locks
                if not has_right:
                    nxt_lock = self._lock("nl", k + 1)
                    yield Acquire(nxt_lock, 1)   # fresh lock, uncontended
                    plan.append((nxt_lock, 1))
        # step 4: flush the buffer and find its keys R in S[k]; a k > m actor
        # removes R here, the S[m] actor in step 4d
        buf_leaves = yield from pop_extreme_task(seg.buffer, len(seg.buffer),
                                                 "front")
        batch = [lf.val for lf in buf_leaves]   # GroupOps in key order
        seg.in_flight = batch
        leaves = yield from batch_search_task(seg.keys, [g.key for g in batch])
        found = [(g, lf) for g, lf in zip(batch, leaves) if lf is not None]
        found_leaves = [lf for _g, lf in found]
        if k > self.m:
            yield from seg_update_task(seg, found_leaves, [], [], "front")
            # step 4b: deeper segments' front access spans steps 4b-4f
            fl_t0 = yield from self._front_acquire(k)
        # step 4c: consult the filter to split R into kept items R' and
        # successful deletions (this reads only R's values, so at S[m] it
        # runs before R leaves S[m])
        keeps, delivered = self._resolve_found(found)
        # step 4d: return results for R', insert R' at the front of S[m'],
        # and at the terminal segment finish everything else too; the
        # segment update forks beside the delete of the delivered groups'
        # filter entries, and the filter count and the deliveries change
        # after the join
        dst = segs[min(k - 1, self.m)]
        inserts = []
        if self.terminal == k:
            inserts, rest = self._resolve_rest(
                [g for g in batch if not g.finished])
            delivered += rest
        block = sorted(keeps + inserts, key=lambda kv: kv[0].value)
        update = drop = None
        if k == self.m:
            # the S[m] actor also removes R from S[m] and moves as much of
            # S[m-1]'s surplus, counted with the block, as S[m-1] holds
            surplus = dst.size - dst.cap + len(block)
            update = seg_move_task(dst, seg, min(max(surplus, 0), dst.size),
                                   found_leaves, block)
        elif block:
            update = seg_update_task(dst, [], block, block, "front")
        if delivered:
            entries = sorted((g.filter_leaf for g, _r in delivered),
                             key=lambda lf: lf.hi)
            drop = batch_update_task(self.filter, entries, [])
        if update and drop:
            yield Par(update, drop)
        elif update or drop:
            yield from update or drop
        if delivered:
            self._resize_filter(-len(delivered))
            self._deliver(delivered)
        # step 4e
        if self.filter_size <= self.p2:
            self.rt.detach(self.gate.activate(), owner=DS)
        # step 4f
        if k > self.m:
            yield from self._front_release(k, fl_t0)
        # steps 4g/4h: rebalance against the previous segment, pulling at
        # most as many items as this batch deleted (at S[m], step 4d already
        # moved S[m-1]'s surplus up to |S[m-1]|, and this moves the rest)
        left = segs[k - 1]
        dels = sum(1 for g in batch if g.found_value is not None)
        move = boundary_move(left, seg, left.size - left.cap, dels)
        if move is not None:
            yield from move
        # step 4i: forward survivors (they leave this segment's books first)
        remaining = [g for g in batch if not g.finished]
        seg.in_flight = []
        if self.terminal != k and remaining:
            yield from self._hand_off(segs[k + 1], remaining)
        # step 5: an empty terminal segment is removed
        if self.terminal == k and seg.size == 0 and len(seg.buffer) == 0:
            segs.pop()
            if self.terminal is None:
                assert self.filter_size == 0
        # step 6
        if k == self.m:
            yield from self._front_release(k, fl_t0)
        # step 7
        seg.running = False
        for lock, _key in reversed(plan):
            self.rt.release(lock)
        self._maybe_audit()

    # -- audits ---------------------------------------------------------------------

    def _maybe_audit(self):
        if self.audit:
            self.audit_distinctness()
            self.audit_balance()
            self.audit_rank_invariant()
            if self._quiescent():
                self.audit_segments()

    def _quiescent(self):
        return not self.gate.held and \
            all(not seg.gate.held for seg in self.final)

    def audit_distinctness(self):
        """Final-slab op keys are pairwise distinct and tracked by the
        filter whenever it is attached (a filter update batch holds it
        detached, reading empty, until it rejoins), which never grows past
        2p^2; first-slab items never appear in the filter."""
        assert self.filter_size <= 2 * self.p2, "filter grew past 2p^2"
        in_flight = []
        for seg in self.final:
            in_flight.extend(lf.key.value for lf in seg.buffer.leaves())
            in_flight.extend(g.key.value for g in seg.in_flight
                             if not g.finished)
        assert len(in_flight) == len(set(in_flight)), \
            "duplicate keys in the final slab"
        filter_keys = {lf.key.value for lf in self.filter.leaves()}
        if self.filter.root is not None or self.filter_size == 0:
            assert set(in_flight) <= filter_keys, \
                "final-slab op key missing from the filter"
        if self._quiescent():
            assert set(in_flight) == filter_keys, \
                "filter keys diverge from in-flight keys"
            assert self.filter_size == len(self.filter), "stale filter_size"
        if filter_keys:
            for seg in self.segments[:self.m]:
                for lf in seg.keys.leaves():
                    assert lf.key.value not in filter_keys, \
                        f"first-slab key {lf.key.value} in the filter"

    def audit_balance(self):
        segs = self.segments
        sm = segs[self.m] if len(segs) > self.m else None
        # invariant 3: final segments stay within 3x capacity
        for seg in self.final:
            assert seg.size <= 3 * seg.cap, \
                f"final segment {seg.index} over 3x capacity"
        # invariant 1: S[m-1] within capacity unless S[m] is running
        if len(segs) >= self.m and (sm is None or not sm.running):
            last = segs[self.m - 1]
            assert last.size <= last.cap, \
                f"S[m-1] over capacity: {last.size}/{last.cap}"
        # invariant 2: with the interface idle, S[0..m-2] has no holes and
        # S[m-1] has at most d holes (d = successful deletions in S[m])
        if not self.gate.held and sm is not None:
            for i, seg in enumerate(segs[:self.m - 1]):
                assert seg.size == seg.cap, \
                    f"hole in first-slab segment {i}"
            d = sum(1 for lf in sm.buffer.leaves()
                    if lf.val.found_value is not None)
            d += sum(1 for g in sm.in_flight
                     if g.found_value is not None and not g.finished)
            seg = segs[self.m - 1]
            assert seg.cap - seg.size <= d, \
                f"S[m-1] has {seg.cap - seg.size} holes > {d} deletions"
        # invariant 4: when a non-terminal S[k] is idle, S[0..k-1] is at most
        # 2p^2 below total capacity
        for k in range(self.m, len(segs) - 1):
            if segs[k].running:
                continue
            caps = sum(s.cap for s in segs[:k])
            sizes = sum(s.size for s in segs[:k])
            assert sizes >= caps - 2 * self.p2, \
                f"prefix below S[{k}] is {caps - sizes} under capacity"

    def audit_rank_invariant(self):
        """Every final-slab item sits within the first r items of the final
        slab, r = distinct keys kept/inserted since the item's last shift,
        i.e. the rank of its key in event recency (1 = most recent). Only
        the F most recent keys (F = final-slab size) can have r below a
        final-slab position, so only they are ranked; O(F) per call."""
        items = [lf.key.value for seg in self.final
                 for lf in seg.rec.leaves()]
        budget = self._recency_ranks(len(items))
        for position, key in enumerate(items, 1):
            assert key in self._recency, f"final-slab item {key} has no event"
            r = budget.get(key)
            assert r is None or position <= r, \
                f"item {key} at final-slab position {position} " \
                f"exceeds its recency budget {r}"

    def _recency_ranks(self, limit):
        """{key: recency rank} for the limit most recently recorded event
        keys."""
        return dict(zip(reversed(self._recency), range(1, limit + 1)))

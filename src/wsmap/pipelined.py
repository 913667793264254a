"""Pipelined working-set map.

Segments split into a first slab S[0..m-1], processed batch-at-a-time by the
interface exactly like the batched map (the shared `SegmentedMap` engine,
with `segments` as the first slab), and a pipelined final slab S[m..l] of
activation-gated segment actors. Against M1's policies, a cut batch is one
bunch, every delivery records a linearization event, and growth past S[m-1]
opens the final slab. A filter in front of the final slab guarantees all
in-flight final-slab operations are on distinct keys: an operation on a
filtered key is trapped in that key's entry and finishes together with it.
Neighbour-locks serialize adjacent segment runs (acquired in the
alternating arrow order, so no cycles form) and front-locks FL[0..]
serialize every access to the filter and S[m]'s contents. All final-slab
nodes run on the high-priority queue; interface activations stay on the low
queue.
"""

from __future__ import annotations

import math

from .batched import SegmentedMap
from .runtime import (
    Acquire, ActivationGate, DS, DS_FINAL, DedicatedLock, Q1, Q2,
)
from .segments import (
    PairedSegment, seg_find_task, seg_insert_block_task, seg_move_block_task,
    seg_remove_found_task,
)
from .tree23 import (
    Tree23, batch_delete_keys_task, batch_insert_task, batch_search_task,
    pop_extreme_task,
)


def first_slab_depth(p):
    """ceil(log2 log2 (2 p^2)) + 1 segments form the first slab."""
    return math.ceil(math.log2(math.log2(2 * p * p))) + 1


class _SlabSegment(PairedSegment):
    __slots__ = ("buffer", "gate", "running", "in_flight", "alive")

    def __init__(self, index, meter):
        super().__init__(index, meter)
        self.buffer = Tree23(meter)    # pending ops, key-sorted
        self.gate = None
        self.running = False
        self.in_flight = []
        self.alive = True


class PipelinedWorkingSetMap(SegmentedMap):
    structure_name = "m2"

    def __init__(self, rt, p, m_override=None):
        super().__init__(rt, p)
        self.m = m_override if m_override is not None else first_slab_depth(p)
        self.final = {}               # k -> _SlabSegment for k >= m
        self.terminal = None          # deepest final-slab index, or None
        self.filter = Tree23(self.meter)
        rt.filter_probe = self.filter.__len__   # read once per step
        self.locks = {}               # ("nl", k): S[k-1]|S[k]; ("fl", j): FL[j]
        self._event_seq = 0           # events: ((seq, tie), step, key, ops)
        self._recency = {}            # event keys, least recent event first
        self.trapped_ops = 0          # ops folded into an in-flight entry
        self.fl_delays = []           # (segment index, front-access steps)
        self.audit_every_run = False
        self.rank_audit = False

    def extract_linearization(self):
        """Time linearization: finish events in occurrence order; within one
        event, descending key, i.e. the reverse of how the items were pushed
        onto the front of S[m'] (front-most item last). _record appends each
        event inside one node with a growing seq, so events is already in
        (seq, tie) order."""
        return [op for _ord, _step, _key, ops in self.events for op in ops]

    # -- interface policies ------------------------------------------------------

    def _ready(self):
        return super()._ready() and len(self.filter) <= self.p2

    def _form_cut(self):
        cut = yield from self.feed.popleft().to_batch_task()
        return cut

    def _record(self, deliveries):
        step = self.rt.now
        seq = self._event_seq
        self._event_seq += 1
        ranked = sorted(deliveries, key=lambda d: d[0].key.value, reverse=True)
        recency = self._recency
        for j, (g, _results) in enumerate(ranked):
            key = g.key.value
            self.events.append(((seq, j), step, key,
                                [op for op, _h in g.entries]))
            recency.pop(key, None)
            recency[key] = None

    def _last_segment(self):
        if self.terminal is not None:
            return self.final[self.terminal]
        return super()._last_segment()

    def _grow_segment(self):
        if self.terminal is not None:
            return self._new_slab_segment(self.terminal + 1)
        if len(self.segments) < self.m:
            return super()._grow_segment()
        return self._new_slab_segment(self.m)

    def _segment(self, k):
        return self.final[k] if k >= self.m else self.segments[k]

    def _lock(self, family, j):
        """Neighbour-lock ("nl", j) or front-lock ("fl", j), registered on
        first use."""
        lock = self.locks.get((family, j))
        if lock is None:
            lock = self.locks[family, j] = self.rt.register_lock(
                DedicatedLock(2, name=f"{family}[{j}]"))
        return lock

    def _cycle(self):
        pending = yield from self._sorted_groups()
        has_final = self.terminal is not None
        pending, k = yield from self._sweep(
            pending, 0, self.m - 1 if has_final else len(self.segments))
        if has_final and pending:
            t0 = self.rt.now
            nl, fl = self._lock("nl", self.m), self._lock("fl", 0)
            yield Acquire(nl, 1)
            yield Acquire(fl, 2)
            if self.terminal is None:
                # the final slab drained away while we waited for the locks
                self.rt.release(fl)
                self.rt.release(nl)
                pending, _k = yield from self._sweep(pending, k,
                                                     len(self.segments))
                yield from self._finish_tail(pending)
            else:
                pending = yield from self._segment_pass(self.m - 1, pending)
                admitted = yield from self._filter_pass(pending)
                if admitted:
                    seg = self.final[self.m]
                    yield from batch_insert_task(
                        seg.buffer, [(g.key, g) for g in admitted])
                    self.rt.detach(seg.gate.activate(),
                                   owner=DS_FINAL, queue=Q1)
                self.rt.release(fl)
                self.rt.release(nl)
                self.fl_delays.append((self.m, self.rt.now - t0))
        else:
            yield from self._finish_tail(pending)
        if self.terminal is None and self.audit_every_run == "full":
            self._audit_full_prefix()
        self._maybe_audit()
        return True

    def _new_slab_segment(self, k):
        seg = _SlabSegment(k, self.meter)
        seg.gate = ActivationGate(
            lambda s=seg: s.alive and len(s.buffer) > 0,
            lambda k=k: self._segment_cycle(k),
            name=f"s[{k}]")
        self.final[k] = seg
        self.terminal = k
        self._lock("nl", k)
        self._lock("fl", k - self.m)
        return seg

    # -- the filter ----------------------------------------------------------------

    def _filter_pass(self, groups):
        """Trap operations on in-flight keys into their filter entries;
        admit the rest as new entries. Returns the admitted groups."""
        if not groups:
            yield 1
            return []
        hits = yield from batch_search_task(self.filter,
                                            [g.key for g in groups])
        admitted = []
        new_entries = []
        for g, leaf in zip(groups, hits):
            if leaf is not None:
                entry = leaf.val
                assert g.found_value is None, \
                    "a tagged deletion cannot collide with an in-flight key"
                entry.entries.extend(g.entries)
                self.trapped_ops += len(g.entries)
            else:
                admitted.append(g)
                new_entries.append((g.key, g))
        if new_entries:
            yield from batch_insert_task(self.filter, new_entries)
        return admitted

    # -- final-slab segment actors ----------------------------------------------------

    def _arrow_label(self, j):
        # alternating arrow numbers: the lock between S[j-1] and S[j]
        return 1 if (j - self.m) % 2 == 0 else 2

    def _segment_cycle(self, k):
        seg = self.final.get(k)
        if seg is None or not seg.alive:
            return False
            yield  # pragma: no cover
        # step 1: neighbour-locks in arrow order (key 2 = right user of nl[k],
        # key 1 = left user of nl[k+1])
        plan = [(self._arrow_label(k), self._lock("nl", k), 2)]
        has_right = (k + 1) in self.final
        if has_right:
            plan.append((self._arrow_label(k + 1), self._lock("nl", k + 1), 1))
            plan.sort(key=lambda t: t[0])
        for _lbl, lock, lock_key in plan:
            yield Acquire(lock, lock_key)
        seg.running = True
        fl_t0 = None
        # step 2
        if k == self.m:
            fl_t0 = self.rt.now
            yield Acquire(self._lock("fl", 0), 2)
        # step 3: grow a terminal segment if this one overflows
        if self.terminal == k:
            left = self._segment(k - 1)
            if left.size + seg.size > left.cap + seg.cap:
                self._new_slab_segment(k + 1)
                nxt_lock = self._lock("nl", k + 1)
                yield Acquire(nxt_lock, 1)   # fresh lock, uncontended
                plan.append((self._arrow_label(k + 1), nxt_lock, 1))
        # step 4: flush and process the buffer
        buf_leaves = yield from pop_extreme_task(seg.buffer, len(seg.buffer),
                                                 "front")
        batch = [lf.val for lf in buf_leaves]   # GroupOps in key order
        seg.in_flight = batch
        leaves = yield from seg_find_task(seg, [g.key for g in batch])
        found = [(g, lf) for g, lf in zip(batch, leaves) if lf is not None]
        yield from seg_remove_found_task(seg, [lf for _g, lf in found])
        # step 4b: front-locks, outermost first
        if k > self.m:
            fl_t0 = self.rt.now
            for j in range(k - self.m, -1, -1):
                yield Acquire(self._lock("fl", j), 2 if j == k - self.m else 1)
        # step 4c: consult the filter to split R into kept items R' and
        # successful deletions
        keeps, delivered = self._resolve_found(found)
        # step 4d: return results for R', insert R' at the front of S[m'],
        # and at the terminal segment finish everything else too
        dst = self._segment(min(k - 1, self.m))
        inserts = []
        if self.terminal == k:
            inserts, rest = self._resolve_rest(
                [g for g in batch if not g.finished])
            delivered += rest
        if keeps or inserts:
            block = sorted(keeps + inserts, key=lambda kv: kv[0].value)
            yield from seg_insert_block_task(dst, block, "front")
        if delivered:
            ordered = sorted((g.key for g, _r in delivered),
                             key=lambda kk: kk.value)
            yield from batch_delete_keys_task(self.filter, ordered)
            self._deliver(delivered)
        # step 4e
        if len(self.filter) <= self.p2:
            self.rt.detach(self.gate.activate(), owner=DS, queue=Q2)
        # step 4f
        if k > self.m:
            for j in range(0, k - self.m + 1):
                self.rt.release(self._lock("fl", j))
                yield 1
            self.fl_delays.append((k, self.rt.now - fl_t0))
        # steps 4g/4h: rebalance against the previous segment
        left = self._segment(k - 1)
        if left.size > left.cap:
            yield from seg_move_block_task(left, seg, left.size - left.cap,
                                           "back", "front")
        else:
            holes = left.cap - left.size
            dels = sum(1 for g in batch if g.found_value is not None)
            pull = min(holes, seg.size, dels)
            if pull:
                yield from seg_move_block_task(seg, left, pull,
                                               "front", "back")
        # step 4i: forward survivors (they leave this segment's books first)
        remaining = [g for g in batch if not g.finished]
        seg.in_flight = []
        if self.terminal != k and remaining:
            nxt = self.final[k + 1]
            yield from batch_insert_task(nxt.buffer,
                                         [(g.key, g) for g in remaining])
            self.rt.detach(nxt.gate.activate(), owner=DS_FINAL, queue=Q1)
        # step 5: an empty terminal segment is removed
        if self.terminal == k and seg.size == 0 and len(seg.buffer) == 0:
            seg.alive = False
            del self.final[k]
            self.terminal = k - 1 if (k - 1) >= self.m else None
            if self.terminal is None:
                assert len(self.filter) == 0
        # step 6
        if k == self.m:
            self.rt.release(self._lock("fl", 0))
            self.fl_delays.append((k, self.rt.now - fl_t0))
        # step 7
        seg.running = False
        for _lbl, lock, _key in reversed(plan):
            self.rt.release(lock)
        self._maybe_audit()
        return seg.alive

    # -- audits ---------------------------------------------------------------------

    def _maybe_audit(self):
        if self.audit_every_run == "full":
            self.audit_distinctness()
            self.audit_balance()
        elif self.audit_every_run:
            self.audit_distinctness()
        if self.rank_audit:
            self.audit_rank_invariant()

    def _final_indices(self):
        return sorted(self.final)

    def _quiescent(self):
        if self.gate.flag.held:
            return False
        return all(not self.final[k].gate.flag.held
                   for k in self._final_indices())

    def audit_distinctness(self):
        """Final-slab op keys are pairwise distinct and tracked by the
        filter, which never grows past 2p^2; first-slab items never appear
        in the filter."""
        assert len(self.filter) <= 2 * self.p2, "filter grew past 2p^2"
        in_flight = []
        for k in self._final_indices():
            seg = self.final[k]
            in_flight.extend(lf.key.value for lf in seg.buffer.leaves())
            in_flight.extend(g.key.value for g in seg.in_flight
                             if not g.finished)
        assert len(in_flight) == len(set(in_flight)), \
            "duplicate keys in the final slab"
        filter_keys = {lf.key.value for lf in self.filter.leaves()}
        assert set(in_flight) <= filter_keys, \
            "final-slab op key missing from the filter"
        if self._quiescent():
            assert set(in_flight) == filter_keys, \
                "filter keys diverge from in-flight keys"
        if filter_keys:
            for seg in self.segments:
                for lf in seg.keys.leaves():
                    assert lf.key.value not in filter_keys, \
                        f"first-slab key {lf.key.value} in the filter"

    def audit_balance(self):
        p2 = self.p2
        # invariant 3: final segments stay within 3x capacity
        for k in self._final_indices():
            assert self.final[k].size <= 3 * self.final[k].cap, \
                f"final segment {k} over 3x capacity"
        # invariant 1: S[m-1] within capacity unless S[m] is running
        if len(self.segments) >= self.m:
            sm = self.final.get(self.m)
            if sm is None or not sm.running:
                last = self.segments[self.m - 1]
                assert last.size <= last.cap
        # invariant 2: with the interface idle, S[0..m-2] has no holes and
        # S[m-1] has at most d holes (d = successful deletions in S[m])
        if not self.gate.flag.held and self.terminal is not None:
            for i, seg in enumerate(self.segments[:self.m - 1]):
                assert seg.size == seg.cap, \
                    f"hole in first-slab segment {i}"
            sm = self.final.get(self.m)
            d = 0
            if sm is not None:
                d += sum(1 for lf in sm.buffer.leaves()
                         if lf.val.found_value is not None)
                d += sum(1 for g in sm.in_flight
                         if g.found_value is not None and not g.finished)
            seg = self.segments[self.m - 1]
            assert seg.cap - seg.size <= d, \
                f"S[m-1] has {seg.cap - seg.size} holes > {d} deletions"
        # invariant 4: when S[k] is idle, S[0..k-1] is at most 2p^2 below
        # total capacity
        for k in self._final_indices():
            seg = self.final[k]
            if seg.running or self.terminal == k:
                continue
            caps = sum(s.cap for s in self.segments) + \
                sum(self.final[j].cap for j in self._final_indices() if j < k)
            sizes = sum(s.size for s in self.segments) + \
                sum(self.final[j].size for j in self._final_indices() if j < k)
            assert sizes >= caps - 2 * p2, \
                f"prefix below S[{k}] is {caps - sizes} under capacity"

    def audit_rank_invariant(self):
        """Every final-slab item sits within the first r items of the final
        slab, r = distinct keys kept/inserted since the item's last shift,
        i.e. the rank of its key in event recency (1 = most recent). Only
        the F most recent keys (F = final-slab size) can have r below a
        final-slab position, so only they are ranked; O(F) per call."""
        items = [lf.key.value for k in self._final_indices()
                 for lf in self.final[k].rec.leaves()]
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

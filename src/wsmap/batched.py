"""Batched working-set map and the segment engine it shares with M2.

`SegmentedMap` is the activation-gated interface of both parallel maps; p is
its runtime's. One cycle flushes the parallel buffer, cuts the input into
p^2-sized bunches on a feed buffer, forms a cut batch, entropy-sorts it so
same-key operations combine into group-operations, and sweeps the segment
list. Hits return immediately and shift to the front of the previous
segment, in one boundary move with as much of that segment's surplus as it
holds (`segments.seg_move_task`), deletions travel to the end, capacity
prefixes are restored boundary by boundary, and trailing insertions are
carved into just-enough new segments.

A map built on it sets three policies: how many bunches a cut batch takes
(`_form_cut`), how finished groups enter the linearization (`_record`), and
what kind of segment the tail grows (`_grow_segment`). Both maps keep their
whole segment chain in one list, `segments`. The batched map M1 cuts
ceil(log n / p) bunches, keeps each cut batch's ops in `cut_batches` (the
batch-preservation check reads them), records its linearization at sort
time and grows plain paired segments. Setting `audit` checks the map's
invariants after every cycle (tests and `wsmap run` turn it on).
"""

from __future__ import annotations

import math
from collections import deque

from .core import DELETE, INSERT, UPDATE, OpResult
from .pbuffer import ParallelBuffer
from .runtime import ActivationGate, BUFFER, Call, concat_tree, par_map
from .segments import (
    PairedSegment, preload_segment, restore_prefix_task, seg_move_task,
    seg_update_task,
)
from .sortlib import pesort_task
from .tree23 import StepMeter, batch_search_task


class GroupOp:
    """All of one batch's operations on one key, folded into a single
    equivalent operation; each original still gets its individually correct
    result when the group resolves against the item's actual state."""

    __slots__ = ("key", "entries", "finished", "found_value", "filter_leaf")

    def __init__(self, key, entries):
        self.key = key
        self.entries = entries            # [(Operation, park handle)]
        self.finished = False
        self.found_value = None           # (True, v) once a tagged deletion
        self.filter_leaf = None           # M2's filter entry while in flight

    def resolve(self, found, value):
        """Fold the group left to right against an initial presence; returns
        (per-op results, (present, value) after the group)."""
        present, val = found, value
        results = []
        for op, _h in self.entries:
            results.append(OpResult(present, val))
            if op.kind == INSERT:
                present, val = True, op.payload
            elif op.kind == UPDATE:
                if present:
                    val = op.payload
            elif op.kind == DELETE:
                if present:
                    present, val = False, None
        return results, (present, val)


def group_sorted_ops(cut, order):
    """Group a cut batch of (op, handle) pairs, pre-sorted by the positions
    in order, into GroupOps (consecutive equal keys, arrival order kept)."""
    groups = []
    for pos in order:
        op, handle = cut[pos]
        if groups and groups[-1].key.value == op.key.value:
            groups[-1].entries.append((op, handle))
        else:
            groups.append(GroupOp(op.key, [(op, handle)]))
    return groups


class SegmentedMap:
    """The interface engine over a list of paired segments. A map provides
    `_cycle` and the policies `_form_cut` and `_record`; `_grow_segment`
    defaults to a plain paired segment."""

    terminal = None     # deepest final-slab index; None: no final slab
    audit = False       # check the invariants after every cycle

    def __init__(self, rt):
        self.rt = rt
        self.p2 = rt.p * rt.p
        self.meter = StepMeter()
        self.segments = []            # the segment chain S[0..]
        self.feed = deque()
        self.gate = ActivationGate(self._ready, self._cycle)
        self.pbuf = ParallelBuffer(rt, activate=self.gate.activate)
        self.n = 0
        self.events = []        # linearization events: one op list each
        self.cut_batches = []   # M1's op lists per cut batch, arrival order

    # -- program-facing API ------------------------------------------------------

    def call(self, op):
        result = yield from self.pbuf.submit(op)
        return result

    def extract_linearization(self):
        """The operations of every event, in event order."""
        return [op for ops in self.events for op in ops]

    # -- interface cycle -----------------------------------------------------------

    def _ready(self):
        return self.pbuf.pending > 0 or bool(self.feed)

    def _sorted_groups(self):
        """Flush the buffer, ingest, cut a batch and sort it into groups."""
        incoming = yield Call(self.pbuf.flush_task(), owner=BUFFER)
        yield from self._ingest(incoming)
        if not self.feed:
            raise RuntimeError("cut batch requested with an empty feed buffer")
        cut = yield from self._form_cut()
        keys = [op.key for op, _h in cut]
        order = yield from pesort_task(keys)
        return group_sorted_ops(cut, order)

    def _ingest(self, incoming):
        b = len(incoming)
        p2 = self.p2
        yield max(1, b // p2 + 1)
        if b == 0:
            return
        feed = self.feed
        # top the last bunch up to p^2 ops, then open new bunches
        idx = p2 - sum(map(len, feed[-1])) if feed else 0
        if idx:
            feed[-1].append(incoming[:idx])
        while idx < b:
            feed.append([incoming[idx:idx + p2]])
            idx += p2

    def _sweep(self, pending, k, stop):
        """Segment passes over S[k..stop-1] while groups remain; returns
        (the unfinished groups, the next segment index)."""
        while k < stop and pending:
            pending = yield from self._segment_pass(k, pending)
            k += 1
        return pending, k

    def _segment_pass(self, k, pending):
        """One pass over segment k; returns the unfinished groups (deletions
        stay, tagged). The found items leave S[k], the kept ones enter
        S[k-1]'s front (S[0]'s own at k = 0), and the capacity prefixes are
        restored boundary by boundary from k inward. For k >= 1 the removal,
        the insert and as much of boundary k's surplus, counted with the
        keeps, as S[k-1] holds are one seg_move_task."""
        seg = self.segments[k]
        leaves = yield from batch_search_task(seg.keys, [g.key for g in pending])
        found = [(g, lf) for g, lf in zip(pending, leaves) if lf is not None]
        found_leaves = [lf for _g, lf in found]
        keeps, deliveries = self._resolve_found(found)
        if found and k > 0:
            left = self.segments[k - 1]
            surplus = len(keeps) + sum(s.size - s.cap
                                       for s in self.segments[:k])
            yield from seg_move_task(left, seg, min(max(surplus, 0), left.size),
                                     found_leaves, keeps)
        elif found:
            yield from seg_update_task(seg, found_leaves, [], [], "front")
            if keeps:
                yield from seg_update_task(seg, [], keeps, keeps, "front")
        if deliveries:
            self._deliver(deliveries)
        yield from restore_prefix_task(self.segments, k)
        return [g for g in pending if not g.finished]

    def _resolve_found(self, found):
        """Resolve groups against their found items: a kept item finishes
        its group, a removed one leaves the map and tags the group. Returns
        (kept (key, value) pairs, deliveries)."""
        keeps = []
        deliveries = []
        for g, lf in found:
            results, (present, value) = g.resolve(True, lf.val)
            if present:
                keeps.append((g.key, value))
                deliveries.append((g, results))
                g.finished = True
            else:
                g.found_value = (True, lf.val)
                self.n -= 1
        return keeps, deliveries

    def _resolve_rest(self, groups):
        """Finish groups whose key no segment holds (any more): each
        resolves against its tagged deletion or absence. Returns
        (inserted (key, value) pairs, deliveries). A tagged group that ends
        present (M2 traps a later insert into its filter entry) is
        re-inserted, as its item already left the map."""
        inserts = []
        deliveries = []
        for g in groups:
            results, (present, value) = g.resolve(*(g.found_value or (False, None)))
            if present:
                inserts.append((g.key, value))
            deliveries.append((g, results))
            g.finished = True
        self.n += len(inserts)
        return inserts, deliveries

    def _finish_tail(self, pending):
        """Finish every leftover group and carve trailing insertions into
        just-enough new segments."""
        inserts, deliveries = self._resolve_rest(pending)
        yield 1
        # a deletion may have emptied the last segment: drop it, as filling it
        # while the one before is short would leave a non-final one not full
        self._drop_empty_tail()
        idx = 0
        while idx < len(inserts):
            seg = self.segments[-1] if self.segments else None
            if seg is None or seg.size >= seg.cap:
                seg = self._grow_segment()
            take = min(seg.cap - seg.size, len(inserts) - idx)
            block = inserts[idx:idx + take]
            yield from seg_update_task(seg, [], block, block, "back")
            idx += take
        if deliveries:
            self._deliver(deliveries)

    def _drop_empty_tail(self):
        while (self.segments and self.terminal is None
               and self.segments[-1].size == 0):
            self.segments.pop()

    def _grow_segment(self):
        seg = PairedSegment(len(self.segments), self.meter)
        self.segments.append(seg)
        return seg

    def _deliver(self, deliveries):
        """Record finished groups and resume their callers in a detached
        fan-out."""
        self._record(deliveries)
        pairs = [(handle, res) for g, results in deliveries
                 for (_op, handle), res in zip(g.entries, results)]
        rt = self.rt

        def one(pair):
            rt.resume(*pair)
            return None
            yield  # pragma: no cover

        rt.detach(par_map(pairs, one))

    def preload(self, pairs):
        """Warm-start: fill segments to exact capacity with (key, value)
        pairs, most recent first, without simulating the insert traffic."""
        assert not self.segments and self.n == 0
        idx = 0
        while idx < len(pairs):
            seg = self._grow_segment()
            take = min(seg.cap, len(pairs) - idx)
            preload_segment(seg, pairs[idx:idx + take])
            idx += take
        self.n = len(pairs)

    def audit_segments(self):
        """Each segment's two trees and twin links, and the map's n."""
        for seg in self.segments:
            seg.audit()
        assert sum(seg.size for seg in self.segments) == self.n, "wrong n"

    def _audit_full_prefix(self):
        for i, seg in enumerate(self.segments[:-1]):
            assert seg.size == seg.cap, \
                f"segment {i} not exactly full: {seg.size}/{seg.cap}"


class BatchedWorkingSetMap(SegmentedMap):
    def _cycle(self):
        groups = yield from self._sorted_groups()
        self.events.extend([op for op, _h in g.entries] for g in groups)
        pending, _k = yield from self._sweep(groups, 0, len(self.segments))
        yield from self._finish_tail(pending)
        if self.audit:
            self.audit_segments()

    def _cut_bunch_count(self):
        if self.n < 2:
            want = 1
        else:
            want = max(1, math.ceil(math.log2(self.n) / self.rt.p))
        return min(len(self.feed), want)

    def _form_cut(self):
        bunches = [self.feed.popleft() for _ in range(self._cut_bunch_count())]
        converted = yield from par_map(bunches, concat_tree)
        cut = yield from concat_tree(converted)
        self.cut_batches.append([op for op, _h in cut])
        return cut

    def _record(self, deliveries):
        """Events are recorded in sorted group order at cut time."""

    def audit_segments(self):
        super().audit_segments()
        for seg in self.segments:
            assert seg.size <= seg.cap, f"segment {seg.index} over capacity"
        self._audit_full_prefix()

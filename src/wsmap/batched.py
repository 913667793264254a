"""Batched working-set map.

An activation-gated interface repeatedly: flushes the parallel buffer, cuts
the input into p^2-sized bunches on a feed buffer, forms a cut batch of
ceil(log n / p) bunches, entropy-sorts it so same-key operations combine
into group-operations, and sweeps the segment list. Hits return immediately
and shift to the front of the previous segment, deletions travel to the end,
capacity prefixes are restored boundary by boundary, and trailing insertions
are carved into just-enough new segments.
"""

from __future__ import annotations

import math
from collections import deque

from .core import DELETE, INSERT, UPDATE, OpResult
from .pbuffer import ParallelBuffer
from .runtime import (
    ActivationGate, BUFFER, Call, Sub, concat_tree, par_map,
)
from .segments import (
    PairedSegment, preload_segment, restore_prefix_task, seg_find_task,
    seg_insert_block_task, seg_remove_found_task,
)
from .sortlib import pesort_task
from .tree23 import Bunch, StepMeter


class GroupOp:
    """All of one batch's operations on one key, folded into a single
    equivalent operation; each original still gets its individually correct
    result when the group resolves against the item's actual state."""

    __slots__ = ("key", "entries", "finished", "deletion_success",
                 "cached_results", "found_value")

    def __init__(self, key, entries):
        self.key = key
        self.entries = entries            # [(Operation, park handle)]
        self.finished = False
        self.deletion_success = False     # tagged successful deletion
        self.cached_results = None
        self.found_value = None

    def resolve(self, found, value):
        """Fold the group left to right against an initial presence; returns
        (per-op results, net effect) where net is ('keep', v), ('insert', v),
        ('remove', None) or ('none', None)."""
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
        if present:
            return results, (("keep", val) if found else ("insert", val))
        return results, (("remove", None) if found else ("none", None))


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


class BatchedWorkingSetMap:
    structure_name = "m1"

    def __init__(self, rt, p):
        self.rt = rt
        self.p = p
        self.meter = StepMeter()
        self.segments = []
        self.feed = deque()
        self.gate = ActivationGate(self._ready, self._cycle, name="m1")
        self.pbuf = ParallelBuffer(rt, p, activate=self.gate.activate)
        self.n = 0
        self.events = []        # op lists in linearization order
        self.cut_batches = []   # op lists per cut batch, arrival order
        self.audit_every_batch = False
        self.promotion_audit = False
        self.promotions = []    # (pre_rank, post_rank_bound_peers) samples

    # -- program-facing API ------------------------------------------------------

    def call(self, op):
        result = yield from self.pbuf.submit(op)
        return result

    def extract_linearization(self):
        return [op for group in self.events for op in group]

    def stats(self):
        """Bound report over the extracted linearization plus the metrics
        slice accumulated so far."""
        from .core import working_set_bound
        rep = working_set_bound(self.extract_linearization(), p=self.p)
        return {"bound_report": {"W_L": rep.w_l, "IW_L": rep.iw_l,
                                 "e_L": rep.e_l, "N": rep.n_ops,
                                 "log_base": rep.log_base},
                "metrics": self.rt.metrics.to_dict()}

    # -- interface cycle -----------------------------------------------------------

    def _ready(self):
        return self.pbuf.pending > 0 or bool(self.feed)

    def _cycle(self):
        incoming = yield Call(self.pbuf.flush_task(), owner=BUFFER)
        yield from self._ingest([ih for ih in incoming])
        cut = yield from self._form_cut_batch()
        yield from self._process(cut)
        if self.audit_every_batch:
            self.audit()
        return True

    def _ingest(self, incoming):
        b = len(incoming)
        p2 = self.p * self.p
        yield max(1, b // p2 + 1)
        if b == 0:
            return
        idx = 0
        if self.feed and self.feed[-1].size < p2:
            first = min(b, p2 - self.feed[-1].size)
            self.feed[-1].add(incoming[:first])
            idx = first
        while idx < b:
            bunch = Bunch()
            bunch.add(incoming[idx:idx + p2])
            self.feed.append(bunch)
            idx += p2

    def _cut_bunch_count(self):
        if self.n < 2:
            want = 1
        else:
            want = max(1, math.ceil(math.log2(self.n) / self.p))
        return min(len(self.feed), want)

    def _form_cut_batch(self):
        if not self.feed:
            raise RuntimeError("cut batch requested with an empty feed buffer")
        take = self._cut_bunch_count()
        bunches = [self.feed.popleft() for _ in range(take)]
        converted = yield from par_map(bunches, lambda bn: bn.to_batch_task())
        cut = yield from concat_tree(converted)
        return cut

    def _process(self, cut):
        keys = [op.key for op, _h in cut]
        order = yield from pesort_task(keys)
        groups = group_sorted_ops(cut, order)
        self.cut_batches.append([op for op, _h in cut])
        for g in groups:
            self.events.append([op for op, _h in g.entries])
        pending = groups
        for k in range(len(self.segments)):
            if not pending:
                break
            yield from self._run_segment(k, pending)
            pending = [g for g in pending if not g.finished]
        yield from self._finish_tail(pending)
        while self.segments and self.segments[-1].size == 0:
            self.segments.pop()

    def _run_segment(self, k, pending):
        seg = self.segments[k]
        leaves = yield from seg_find_task(seg, [g.key for g in pending])
        found = [(g, lf) for g, lf in zip(pending, leaves) if lf is not None]
        if found:
            keeps = []
            deliveries = []
            prefix = sum(self.segments[j].size for j in range(k))
            for g, lf in found:
                results, net = g.resolve(True, lf.val)
                if net[0] == "keep":
                    if self.promotion_audit:
                        pre = prefix + seg.rec.index_of(lf.twin) + 1
                        post_base = sum(self.segments[j].size
                                        for j in range(max(k - 1, 0)))
                        self.promotions.append(
                            (pre, post_base + len(keeps) + 1))
                    keeps.append((g.key, net[1]))
                    deliveries.append((g, results))
                    g.finished = True
                else:   # net remove: item leaves the map, group travels on
                    g.deletion_success = True
                    g.cached_results = results
                    self.n -= 1
            yield from seg_remove_found_task(seg, [lf for _g, lf in found])
            if keeps:
                dst = self.segments[k - 1] if k > 0 else seg
                yield from seg_insert_block_task(dst, keeps, "front")
            if deliveries:
                self._fork_deliver(deliveries)
        yield from restore_prefix_task(self.segments, k)

    def _finish_tail(self, pending):
        inserts = []
        deliveries = []
        for g in pending:
            if g.deletion_success:
                results = g.cached_results
            else:
                results, net = g.resolve(False, None)
                if net[0] == "insert":
                    inserts.append((g.key, net[1]))
            deliveries.append((g, results))
            g.finished = True
        yield from self._append_inserts(inserts)
        if deliveries:
            self._fork_deliver(deliveries)

    def _append_inserts(self, pairs):
        yield 1
        if not pairs:
            return
        self.n += len(pairs)
        # a deletion may have emptied the last segment; filling it while the
        # one before is short would leave a non-final segment not full
        while self.segments and self.segments[-1].size == 0:
            self.segments.pop()
        if not self.segments:
            self.segments.append(PairedSegment(0, self.meter))
        idx = 0
        last = self.segments[-1]
        room = last.cap - last.size
        if room > 0:
            take = min(room, len(pairs))
            yield from seg_insert_block_task(last, pairs[:take], "back")
            idx = take
        while idx < len(pairs):
            seg = PairedSegment(len(self.segments), self.meter)
            self.segments.append(seg)
            take = min(seg.cap, len(pairs) - idx)
            yield from seg_insert_block_task(seg, pairs[idx:idx + take], "back")
            idx += take

    def _fork_deliver(self, deliveries):
        pairs = []
        for g, results in deliveries:
            for (op, handle), res in zip(g.entries, results):
                pairs.append((handle, res))
        rt = self.rt

        def one(pair):
            rt.resume(pair[0], pair[1])
            return None
            yield  # pragma: no cover

        def fan_out():
            yield from par_map(pairs, one)

        rt.detach(fan_out())

    def preload(self, pairs):
        """Warm-start: fill segments to exact capacity with (key, value)
        pairs, most recent first, without simulating the insert traffic."""
        assert not self.segments and self.n == 0
        idx = 0
        while idx < len(pairs):
            seg = PairedSegment(len(self.segments), self.meter)
            self.segments.append(seg)
            take = min(seg.cap, len(pairs) - idx)
            preload_segment(seg, pairs[idx:idx + take])
            idx += take
        self.n = len(pairs)

    # -- test hooks -------------------------------------------------------------

    def audit(self):
        total = 0
        for i, seg in enumerate(self.segments):
            seg.audit()
            total += seg.size
            if i < len(self.segments) - 1:
                assert seg.size == seg.cap, \
                    f"segment {i} not exactly full: {seg.size}/{seg.cap}"
            else:
                assert seg.size <= seg.cap
        assert total == self.n

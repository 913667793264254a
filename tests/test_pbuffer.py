import math
import random

from wsmap.pbuffer import ParallelBuffer
from wsmap.runtime import ActivationGate, BUFFER, Call, Runtime, par_map


class _Collector:
    """Minimal structure: on activation, flush and record the batch, then
    echo each op back to its caller."""

    def __init__(self, rt):
        self.rt = rt
        self.batches = []
        self.activations = 0
        self.gate = ActivationGate(self._ready, self._drain)
        self.buf = ParallelBuffer(rt, activate=self.gate.activate)

    def _ready(self):
        return self.buf.pending > 0

    def _drain(self):
        self.activations += 1
        batch = yield Call(self.buf.flush_task(), owner=BUFFER)
        self.batches.append([op for op, _h in batch])
        for op, handle in batch:
            self.rt.resume(handle, ("echo", op))
        yield 1
        return True


def _run(p, submitters, scheduler="greedy"):
    """submitters: list of (delay, [ops]); each is a serial program chain."""
    rt = Runtime(p=p, scheduler=scheduler)
    coll = _Collector(rt)
    results = []

    def chain(spec):
        delay, ops = spec
        if delay:
            yield delay
        for op in ops:
            res = yield from coll.buf.submit(op)
            results.append(res)

    def root():
        yield from par_map(submitters, chain)

    rt.spawn_root(root())
    metrics = rt.run()
    return coll, results, metrics


def test_no_lost_or_duplicated_ops():
    rnd = random.Random(4)
    for trial in range(20):
        p = rnd.choice([4, 8])
        chains = []
        next_op = 0
        for c in range(rnd.randrange(1, 2 * p)):
            n = rnd.randrange(0, 6)
            chains.append((rnd.randrange(0, 5),
                           list(range(next_op, next_op + n))))
            next_op += n
        coll, results, _m = _run(p, chains)
        flat = [op for batch in coll.batches for op in batch]
        assert sorted(flat) == list(range(next_op))
        assert len(results) == next_op


def test_per_processor_fifo_order():
    # one serial chain submits everything from the same task; its ops must
    # appear in submission order across the flushed batches
    coll, _res, _m = _run(4, [(0, list(range(9)))])
    flat = [op for batch in coll.batches for op in batch]
    assert flat == list(range(9))


def test_simultaneous_submits_single_activation():
    # p parallel chains submit one op each in the same step: all land in the
    # first flush and the flag tree admits exactly one activation for it
    p = 8
    chains = [(0, [i]) for i in range(p)]
    coll, results, _m = _run(p, chains)
    assert sorted(coll.batches[0]) == list(range(p))
    assert coll.activations <= 2  # the batch plus at most one empty recheck
    assert len(results) == p


def test_flush_span_logarithmic():
    for p, n_ops in ((4, 16), (8, 64)):
        chains = [(0, list(range(i, n_ops, p))) for i in range(p)]
        _coll, _res, metrics = _run(p, chains)
        bound = 18 * (math.log2(p) + math.log2(n_ops) + 1)
        assert metrics.buffer_span <= bound, \
            f"buffer span {metrics.buffer_span} vs {bound}"


def test_submit_walk_stops_at_set_flag():
    # second submit in a later step stops early: its walk is shorter
    rt = Runtime(p=4, trace=True)
    coll = _Collector(rt)

    def chain(delay, op):
        if delay:
            yield delay
        yield from coll.buf.submit(op)

    def blocker():
        # keep the collector busy so flags stay set between submits
        yield 1

    def root():
        rt.detach(chain(0, "a"), owner="program")
        rt.detach(chain(2, "b"), owner="program")
        yield 1

    rt.spawn_root(root())
    rt.run()
    flat = [op for batch in coll.batches for op in batch]
    assert sorted(flat) == ["a", "b"]

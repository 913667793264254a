"""Parallel buffer: one sub-buffer per processor of the runtime (rt.p) under a
static tree of flags.

A map call parks its continuation, appends (op, continuation) to the
submitting processor's sub-buffer, and walks the flag tree upward, stopping
at the first flag that is already set; reaching the root activates the
structure's interface. A flush atomically swaps in a whole fresh tree and
combines the old sub-buffers with a balanced parallel recursion; walkers
still climbing the old tree can at worst trigger one spurious activation.
Ops that arrive mid-flush land in either this batch or the next.
"""

from __future__ import annotations

from .runtime import BUFFER, DS, Par, Park


class _FlagTree:
    __slots__ = ("flags", "subs", "size")

    def __init__(self, size):
        self.size = size
        self.flags = [False] * size        # heap-style internal flag nodes
        self.subs = [[] for _ in range(size)]


class ParallelBuffer:
    def __init__(self, rt, activate):
        self.rt = rt
        self.activate = activate           # gate-activation task factory
        size = 1
        while size < rt.p:
            size *= 2
        self.tree = _FlagTree(size)
        self.pending = 0

    # -- program side ---------------------------------------------------------

    def submit(self, op):
        """Task code for the calling program thread: park until the result
        for op is delivered; the walk continues as a buffer-owned child."""
        proc = self.rt.current_slot
        result = yield Park(lambda handle: self.rt.detach(
            self._walk(op, handle, proc), owner=BUFFER))
        return result

    def _walk(self, op, handle, proc):
        tree = self.tree                   # all climbing stays on this tree
        tree.subs[proc].append((op, handle))
        self.pending += 1
        yield 1
        node = (tree.size + proc) // 2
        while node >= 1:
            was_set = tree.flags[node]
            tree.flags[node] = True
            yield 1
            if was_set:
                return
            node //= 2
        self.rt.detach(self.activate(), owner=DS)

    # -- structure side ----------------------------------------------------------

    def flush_task(self):
        """Swap in a fresh tree, then combine the old sub-buffers; returns
        the batch of (op, handle) pairs, per-processor FIFO, left to right."""
        old = self.tree
        self.tree = _FlagTree(old.size)
        batch = yield from self._flush_rec(old, 0, old.size)
        self.pending -= len(batch)
        return batch

    def _flush_rec(self, tree, lo, hi):
        if hi - lo == 1:
            yield max(1, len(tree.subs[lo]).bit_length())
            taken = tree.subs[lo]
            tree.subs[lo] = []
            return taken
        mid = (lo + hi) // 2
        left, right = yield Par(self._flush_rec(tree, lo, mid),
                                self._flush_rec(tree, mid, hi))
        yield 1
        return left + right

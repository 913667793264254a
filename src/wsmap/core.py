"""Keys, operations and working-set accounting.

Everything here is value-level and single-threaded: the counting comparator,
the rank/bound computations of the cost model, and the sequential reference
map used as ground truth for semantic equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SEARCH = "search"
INSERT = "insert"
DELETE = "delete"
UPDATE = "update"

KINDS = (SEARCH, INSERT, DELETE, UPDATE)


class CmpCounter:
    """Shared comparison counter; one increment per invoked comparison."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class Key:
    """Totally ordered opaque key; every comparison is counted. Python
    answers ``>`` and ``>=`` through the other key's ``__lt__``/``__le__``
    and ``!=`` through ``__eq__``, one count each."""

    __slots__ = ("value", "ctr")

    def __init__(self, value, ctr=None):
        self.value = value
        self.ctr = ctr if ctr is not None else _default_ctr

    def __lt__(self, other):
        self.ctr.count += 1
        return self.value < other.value

    def __le__(self, other):
        self.ctr.count += 1
        return self.value <= other.value

    def __eq__(self, other):
        if not isinstance(other, Key):
            return NotImplemented
        self.ctr.count += 1
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Key({self.value!r})"


_default_ctr = CmpCounter()


@dataclass
class Operation:
    op_id: int
    kind: str
    key: Key
    payload: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")


@dataclass(frozen=True)
class OpResult:
    """What an operation observed: presence and prior value at its key."""

    found: bool
    value: object = None

    @property
    def tuple(self):
        return (self.found, self.value)


@dataclass
class BoundReport:
    w_l: float
    e_l: int
    n_ops: int
    n_max: int


def access_ranks(ops):
    """Access rank of every operation when ops run on an empty map.

    A successful search/update counts the distinct members accessed since
    the last operation naming the same key (that key included); inserts,
    deletes and misses rank n+1. A deletion (or any other op naming x)
    resets x's recency window. A Fenwick tree over the op indices holds one
    mark per member, at the op that last accessed it.
    """
    n = len(ops)
    fen = [0] * (n + 1)
    last_access = {}   # member key -> 1-based op index of last access mark
    last_op = {}
    present = set()
    ranks = []
    # each member holds exactly one live mark, so len(present) counts them
    for idx, op in enumerate(ops, 1):
        kind, k = op.kind, op.key.value
        found = k in present
        size = len(present)
        if found and kind != DELETE:
            # a hit (search, update or insert of a member) counts the marks
            # after k's last op; k's own mark sits at last_access[k] <=
            # last_op[k], never counted
            i, before = last_op[k], 0
            while i:
                before += fen[i]
                i &= i - 1
            ranks.append(1 + size - before)
        else:
            ranks.append(size + 1)
        if found:
            # a hit moves k's mark to this op, a delete drops it
            i = last_access.pop(k)
            while i <= n:
                fen[i] -= 1
                i += i & -i
        if kind == DELETE:
            present.discard(k)
        elif found or kind == INSERT:
            present.add(k)
            last_access[k] = i = idx
            while i <= n:
                fen[i] += 1
                i += i & -i
        last_op[k] = idx
    return ranks


def working_set_bound(ops, p=None, ranks=None):
    """W_L = sum(log2(r_i) + 1). One walk over the member set counts e_L,
    the ops run while the map has fewer than p members (0 when p is None),
    and n_max, the most members the map ever holds (at least 1). Pass ranks
    when access_ranks(ops) is already at hand."""
    if ranks is None:
        ranks = access_ranks(ops)
    w = 0.0
    for r in ranks:
        w += math.log2(r) + 1.0
    below = 0 if p is None else p
    e = 0
    n_max = 1
    present = set()
    for op in ops:
        if len(present) < below:
            e += 1
        if op.kind == INSERT:
            present.add(op.key.value)
            if len(present) > n_max:
                n_max = len(present)
        elif op.kind == DELETE:
            present.discard(op.key.value)
    return BoundReport(w, e, len(ops), n_max)


def oracle_replay(ops):
    """Run ops on the reference sequential map; ground truth for equivalence.

    Returns one OpResult per op: presence at the key and the value stored
    there just before the op took effect.
    """
    store = {}
    results = []
    for op in ops:
        k = op.key.value
        found = k in store
        results.append(OpResult(found, store.get(k)))
        if op.kind == INSERT or (op.kind == UPDATE and found):
            store[k] = op.payload
        elif op.kind == DELETE and found:
            del store[k]
    return results


def validate_batch_preserving(batches, lin):
    """True iff lin keeps batch order and, within each batch, the relative
    order of operations on the same item."""
    expected = [op.op_id for batch in batches for op in batch]
    got = [op.op_id for op in lin]
    if len(set(expected)) != len(expected):
        raise ValueError("duplicate op_id across batches")
    if sorted(expected) != sorted(got):
        raise ValueError("linearization is not a permutation of the batches")
    pos = {oid: i for i, oid in enumerate(got)}
    hi = -1
    for batch in batches:
        if not batch:
            continue
        lo = min(pos[op.op_id] for op in batch)
        if lo <= hi:
            return False
        hi = max(pos[op.op_id] for op in batch)
        per_key = {}
        for op in batch:
            per_key.setdefault(op.key.value, []).append(pos[op.op_id])
        for positions in per_key.values():
            if positions != sorted(positions):
                return False
    return True

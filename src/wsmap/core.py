"""Keys, operations, linearizations and working-set accounting.

Everything here is value-level and single-threaded: the counting comparator,
the rank/bound computations of the cost model, and the sequential reference
map used as ground truth for semantic equivalence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

SEARCH = "search"
INSERT = "insert"
DELETE = "delete"
UPDATE = "update"

KINDS = (SEARCH, INSERT, DELETE, UPDATE)

LOG_BASE = 2.0


class CmpCounter:
    """Shared comparison counter; one increment per invoked comparison."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class Key:
    """Totally ordered opaque key; every comparison is counted."""

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

    def __gt__(self, other):
        self.ctr.count += 1
        return self.value > other.value

    def __ge__(self, other):
        self.ctr.count += 1
        return self.value >= other.value

    def __eq__(self, other):
        if not isinstance(other, Key):
            return NotImplemented
        self.ctr.count += 1
        return self.value == other.value

    def __ne__(self, other):
        if not isinstance(other, Key):
            return NotImplemented
        self.ctr.count += 1
        return self.value != other.value

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
    iw_l: float
    e_l: int
    n_ops: int
    log_base: float = LOG_BASE

    def to_json(self):
        return json.dumps({"W_L": self.w_l, "IW_L": self.iw_l, "e_L": self.e_l,
                           "N": self.n_ops, "log_base": self.log_base})

    @staticmethod
    def from_json(text):
        d = json.loads(text)
        return BoundReport(d["W_L"], d["IW_L"], d["e_L"], d["N"], d["log_base"])


@dataclass
class Linearization:
    """An operation order with its text form."""

    ops: list

    def to_text(self):
        lines = []
        for op in self.ops:
            parts = [str(op.op_id), op.kind, str(op.key.value)]
            if op.payload is not None:
                parts.append(str(op.payload))
            lines.append(" ".join(parts))
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_text(text, ctr=None):
        ops = []
        for line in text.splitlines():
            if not line.strip():
                continue
            parts = line.split()
            payload = int(parts[3]) if len(parts) > 3 else None
            ops.append(Operation(int(parts[0]), parts[1],
                                 Key(int(parts[2]), ctr), payload))
        return Linearization(ops)


class _Fenwick:
    __slots__ = ("n", "tree")

    def __init__(self, n):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i, delta):
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i):
        s = 0
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return s


def access_ranks(ops):
    """Access rank of every operation when ops run on an empty map.

    A successful search/update counts the distinct members accessed since
    the last operation naming the same key (that key included); inserts,
    deletes and misses rank n+1. A deletion (or any other op naming x)
    resets x's recency window.
    """
    return _ranks([(op.kind, op.key.value) for op in ops])


def _ranks(steps):
    """access_ranks over (kind, key value) pairs."""
    n = len(steps)
    fen = _Fenwick(n)
    last_access = {}   # member key -> 1-based op index of last access mark
    last_op = {}
    present = set()
    ranks = []
    # each member holds exactly one live mark, so len(present) counts them
    for idx, (kind, k) in enumerate(steps, 1):
        found = k in present
        size = len(present)
        if found and kind != DELETE:
            # a hit (search, update or insert of a member) moves k's mark;
            # k's own mark sits at last_access[k] <= last_op[k], never counted
            ranks.append(1 + size - fen.prefix(last_op.get(k, 0)))
            fen.add(last_access[k], -1)
            fen.add(idx, 1)
            last_access[k] = idx
        elif kind == INSERT:
            ranks.append(size + 1)
            present.add(k)
            fen.add(idx, 1)
            last_access[k] = idx
        elif kind == DELETE and found:
            ranks.append(size + 1)
            present.discard(k)
            fen.add(last_access[k], -1)
            del last_access[k]
        else:
            ranks.append(size + 1)
        last_op[k] = idx
    return ranks


def access_rank(ops, index):
    """Rank of the op at index within the prefix ops[:index+1]."""
    if not 0 <= index < len(ops):
        raise IndexError(f"op index {index} out of range")
    return access_ranks(ops[:index + 1])[index]


def working_set_bound(ops, p=None, ranks=None):
    """W_L = sum(log2(r_i) + 1); e_L counts ops run while the map has fewer
    than p members (0 when p is None). Pass ranks when access_ranks(ops) is
    already at hand."""
    if ranks is None:
        ranks = access_ranks(ops)
    w = 0.0
    for r in ranks:
        w += math.log2(r) + 1.0
    e = 0
    if p is not None:
        present = set()
        for op in ops:
            if len(present) < p:
                e += 1
            k = op.key.value
            if op.kind == INSERT:
                present.add(k)
            elif op.kind == DELETE:
                present.discard(k)
    iw = insert_working_set_bound(ops)
    return BoundReport(w, iw, e, len(ops))


def insert_working_set_bound(ops_or_keys):
    """W of searching then inserting-iff-absent each item, in order, into an
    initially empty map."""
    derived = []
    seen = set()
    for item in ops_or_keys:
        k = (item.key if isinstance(item, Operation) else item).value
        derived.append((SEARCH, k))
        if k not in seen:
            derived.append((INSERT, k))
            seen.add(k)
    ranks = _ranks(derived)
    return sum(math.log2(r) + 1.0 for r in ranks)


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
        prior = store.get(k)
        if op.kind == SEARCH:
            results.append(OpResult(found, prior))
        elif op.kind == INSERT:
            results.append(OpResult(found, prior))
            store[k] = op.payload
        elif op.kind == UPDATE:
            results.append(OpResult(found, prior))
            if found:
                store[k] = op.payload
        else:
            results.append(OpResult(found, prior))
            if found:
                del store[k]
    return results


def validate_batch_preserving(batches, lin):
    """True iff lin keeps batch order and, within each batch, the relative
    order of operations on the same item."""
    expected = [op.op_id for batch in batches for op in batch]
    got = [op.op_id for op in lin.ops] if isinstance(lin, Linearization) else \
        [op.op_id for op in lin]
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

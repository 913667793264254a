import math
import random

import pytest

from conftest import random_ops
from wsmap.core import (
    CmpCounter, DELETE, INSERT, Key, Operation, OpResult, SEARCH, UPDATE,
    access_ranks, oracle_replay, validate_batch_preserving, working_set_bound,
)


def _ops(spec, ctr=None):
    ctr = ctr or CmpCounter()
    out = []
    for i, (kind, k) in enumerate(spec):
        payload = i if kind in (INSERT, UPDATE) else None
        out.append(Operation(i, kind, Key(k, ctr), payload))
    return out


def test_counting_comparator():
    ctr = CmpCounter()
    a, b = Key(1, ctr), Key(2, ctr)
    assert a < b
    assert ctr.count == 1
    assert not (a == b)
    assert ctr.count == 2
    assert b >= a
    assert ctr.count == 3


def test_access_rank_examples():
    ops = _ops([(INSERT, "a"), (INSERT, "b"), (SEARCH, "a")])
    assert access_ranks(ops)[2] == 2
    ops = _ops([(INSERT, "a"), (SEARCH, "a")])
    assert access_ranks(ops)[1] == 1
    ops = _ops([(INSERT, "a"), (INSERT, "b"), (INSERT, "c")])
    assert access_ranks(ops)[2] == 3


def test_access_rank_miss_and_delete_reset():
    # unsuccessful search ranks n+1; deletion resets the recency window
    ops = _ops([(INSERT, 1), (INSERT, 2), (SEARCH, 9)])
    assert access_ranks(ops)[2] == 3
    ops = _ops([(INSERT, 1), (INSERT, 2), (DELETE, 1), (INSERT, 1),
                (SEARCH, 1)])
    # after the reinsert nothing else was accessed: rank 1
    assert access_ranks(ops)[4] == 1
    ops = _ops([(INSERT, 1), (INSERT, 2), (DELETE, 1), (INSERT, 1),
                (SEARCH, 2), (SEARCH, 1)])
    assert access_ranks(ops)[5] == 2


def test_working_set_bound_examples():
    ops = _ops([(INSERT, "a"), (INSERT, "b"), (SEARCH, "a")])
    rep = working_set_bound(ops)
    assert rep.w_l == pytest.approx(5.0)
    assert working_set_bound([]).w_l == 0.0
    ops = _ops([(INSERT, i) for i in range(4)])
    # ranks 1,2,3,4: sum(log2 r + 1) = 1 + 2 + (log2 3 + 1) + 3
    assert working_set_bound(ops).w_l == pytest.approx(7 + math.log2(3))
    assert working_set_bound(ops).w_l >= len(ops)
    # n_max is the most members at any point, deletes and misses included
    ops = _ops([(INSERT, "a"), (INSERT, "b"), (DELETE, "a"), (DELETE, "z"),
                (INSERT, "c"), (INSERT, "c"), (DELETE, "b"), (DELETE, "c")])
    rep = working_set_bound(ops, p=4)
    assert (rep.n_max, rep.e_l, rep.n_ops) == (2, 8, 8)
    # without p, e_L is 0 and n_max is still counted
    rep = working_set_bound(ops)
    assert (rep.n_max, rep.e_l) == (2, 0)
    assert working_set_bound(_ops([(INSERT, i) for i in range(5)])).n_max == 5
    # an empty or member-free sequence keeps n_max at 1
    rep = working_set_bound([], p=4)
    assert (rep.n_max, rep.e_l, rep.n_ops) == (1, 0, 0)
    assert working_set_bound(_ops([(SEARCH, "a"), (DELETE, "a")])).n_max == 1


def test_member_walk_matches_prefix_recount():
    # e_L and n_max against recounting the members of every prefix from
    # scratch: a key is a member iff its last insert/delete was an insert
    def members(prefix):
        last = {}
        for op in prefix:
            if op.kind in (INSERT, DELETE):
                last[op.key.value] = op.kind
        return sum(kind == INSERT for kind in last.values())

    rnd = random.Random(12)
    for seed in range(6):
        mix = rnd.choice([(0.5, 0.3, 0.1, 0.1), (0.1, 0.45, 0.4, 0.05)])
        ops = random_ops(150, rnd.choice([6, 20, 60]), seed, mix=mix)
        p = rnd.choice([4, 8, 16])
        sizes = [members(ops[:i]) for i in range(len(ops) + 1)]
        rep = working_set_bound(ops, p=p)
        assert rep.e_l == sum(size < p for size in sizes[:-1])
        assert rep.n_max == max(1, *sizes)
        assert working_set_bound(ops).n_max == rep.n_max


def test_small_op_count():
    ops = _ops([(INSERT, i) for i in range(10)])
    rep = working_set_bound(ops, p=4)
    assert rep.e_l == 4   # sizes 0..3 are below p
    assert rep.n_ops == 10


def test_incremental_ranks_match_brute_force():
    def brute(ops):
        ranks = []
        present = {}
        last_op = {}
        marks = {}
        for i, op in enumerate(ops):
            k = op.key.value
            found = k in present
            if (op.kind in (SEARCH, UPDATE) and found) or \
                    (op.kind == INSERT and found):
                since = last_op.get(k, -1)
                distinct = {y for y, t in marks.items()
                            if y in present and t > since and y != k}
                ranks.append(len(distinct) + 1)
                marks[k] = i
            elif op.kind == INSERT:
                ranks.append(len(present) + 1)
                present[k] = True
                marks[k] = i
            elif op.kind == DELETE and found:
                ranks.append(len(present) + 1)
                del present[k]
                marks.pop(k, None)
            else:
                ranks.append(len(present) + 1)
            last_op[k] = i
        return ranks

    for seed in range(8):
        ops = random_ops(300, 24, seed)
        fast = access_ranks(ops)
        slow = brute(ops)
        assert fast == slow
        # every prefix agrees with from-scratch recomputation
        if seed == 0:
            for cut in (1, 7, 100, 299):
                assert access_ranks(ops[:cut]) == fast[:cut]


def test_adjacent_swap_rank_stability():
    rnd = random.Random(3)
    ops = random_ops(200, 16, 99)
    base = access_ranks(ops)
    for _ in range(60):
        i = rnd.randrange(len(ops) - 1)
        if ops[i].key.value == ops[i + 1].key.value:
            continue
        swapped = ops[:i] + [ops[i + 1], ops[i]] + ops[i + 2:]
        ranks = access_ranks(swapped)
        assert abs(ranks[i + 1] - base[i]) <= 1
        assert abs(ranks[i] - base[i + 1]) <= 1


def test_oracle_replay_examples():
    ops = _ops([(INSERT, "a"), (SEARCH, "a")])
    res = oracle_replay(ops)
    assert res[0].found is False
    assert res[1].found is True and res[1].value == 0
    res = oracle_replay(_ops([(DELETE, "a")]))
    assert res[0].found is False


class ListMap:
    """Independently coded second map (sorted association list) used to
    cross-check the dict-based oracle."""

    def __init__(self):
        self.items = []

    def _locate(self, k):
        lo, hi = 0, len(self.items)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.items[mid][0] < k:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def apply(self, op):
        k = op.key.value
        i = self._locate(k)
        hit = i < len(self.items) and self.items[i][0] == k
        prior = self.items[i][1] if hit else None
        if op.kind == INSERT:
            if hit:
                self.items[i] = (k, op.payload)
            else:
                self.items.insert(i, (k, op.payload))
        elif op.kind == UPDATE and hit:
            self.items[i] = (k, op.payload)
        elif op.kind == DELETE and hit:
            del self.items[i]
        return OpResult(hit, prior)


def test_oracle_cross_check_against_list_map():
    ops = random_ops(1000, 40, 1234)
    dict_results = oracle_replay(ops)
    lm = ListMap()
    list_results = [lm.apply(op) for op in ops]
    assert dict_results == list_results


def test_validate_batch_preserving():
    ctr = CmpCounter()
    ia = Operation(0, INSERT, Key("a", ctr), 1)
    ib = Operation(1, INSERT, Key("b", ctr), 2)
    sa = Operation(2, SEARCH, Key("a", ctr))
    batches = [[ia, ib], [sa]]
    assert validate_batch_preserving(batches, [ib, ia, sa]) is True
    assert validate_batch_preserving(batches, [sa, ia, ib]) is False
    assert validate_batch_preserving([[ia]], [ia]) is True
    # same-item order within one batch must be kept
    sa2 = Operation(3, SEARCH, Key("a", ctr))
    batches = [[ia, sa2]]
    assert validate_batch_preserving(batches, [sa2, ia]) is False
    with pytest.raises(ValueError):
        validate_batch_preserving(batches, [ia])


def test_batch_preserving_replay_invariance():
    # replaying any batch-preserving linearization keeps per-op success
    rnd = random.Random(7)
    ops = random_ops(120, 8, 11)
    batches = [ops[i:i + 10] for i in range(0, 120, 10)]
    base = {op.op_id: r.found for op, r in zip(ops, oracle_replay(ops))}
    for _ in range(10):
        lin = []
        for batch in batches:
            perm = list(batch)
            # shuffle but keep same-key order within the batch
            groups = {}
            for op in perm:
                groups.setdefault(op.key.value, []).append(op)
            order = list(groups)
            rnd.shuffle(order)
            shuffled = [op for k in order for op in groups[k]]
            lin.extend(shuffled)
        assert validate_batch_preserving(batches, lin)
        got = {op.op_id: r.found for op, r in zip(lin, oracle_replay(lin))}
        assert got == base

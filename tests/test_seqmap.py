import math
import random

import pytest

from conftest import random_ops, rank_of, seq_dump
from wsmap.core import (
    CmpCounter, DELETE, INSERT, Key, SEARCH, UPDATE, oracle_replay,
    working_set_bound,
)
from wsmap.seqmap import SeqWorkingSetMap, segment_capacity


def _keys(values, ctr=None):
    ctr = ctr or CmpCounter()
    return {v: Key(v, ctr) for v in values}


def _fill(m, values):
    ks = _keys(values)
    for v in values:
        m.insert(ks[v], f"v{v}")
    return ks


def test_capacities():
    assert [segment_capacity(k) for k in range(5)] == [2, 4, 16, 256, 65536]


def test_singleton_search():
    m = SeqWorkingSetMap()
    ks = _fill(m, ["a"])
    found, val = m.search(ks["a"])
    assert found and val == "va"
    assert rank_of(m, ks["a"]) == 1
    m.audit()


def test_search_promotion_trace():
    # 7 items: S[0]=[a,b] S[1]=[c,d,e,f] S[2]=[g]; searching g moves it to
    # the front of S[1] and demotes S[1]'s least recent item f into S[2]
    m = SeqWorkingSetMap()
    ks = _fill(m, list("abcdefg"))
    assert [[k.value for k in seg] for seg in seq_dump(m)] == \
        [["a", "b"], ["c", "d", "e", "f"], ["g"]]
    found, val = m.search(ks["g"])
    assert found and val == "vg"
    assert [[k.value for k in seg] for seg in seq_dump(m)] == \
        [["a", "b"], ["g", "c", "d", "e"], ["f"]]
    m.audit()


def test_search_inside_s0_moves_to_front():
    m = SeqWorkingSetMap()
    ks = _fill(m, ["a", "b"])
    m.search(ks["b"])
    assert [[k.value for k in seg] for seg in seq_dump(m)] == [["b", "a"]]
    m.audit()


def test_delete_cascade_trace():
    m = SeqWorkingSetMap()
    ks = _fill(m, list("abcdefg"))
    found, _ = m.delete(ks["a"])
    assert found
    assert [[k.value for k in seg] for seg in seq_dump(m)] == \
        [["b", "c"], ["d", "e", "f", "g"]]
    m.audit()


def test_delete_last_and_absent():
    m = SeqWorkingSetMap()
    ks = _fill(m, ["a"])
    assert m.delete(ks["a"]) == (True, "va")
    assert m.n == 0 and m.segments == []
    assert m.delete(Key("zz")) == (False, None)


def test_duplicate_insert_updates_and_promotes():
    m = SeqWorkingSetMap()
    ks = _fill(m, list("abcdefg"))
    found, prior = m.insert(ks["g"], "new")
    assert found and prior == "vg"
    assert seq_dump(m)[1][0].value == "g"
    assert m.search(ks["g"]) == (True, "new")
    m.audit()


def test_update_miss_is_unsuccessful():
    m = SeqWorkingSetMap()
    _fill(m, ["a"])
    assert m.update(Key("q"), 1) == (False, None)
    assert m.n == 1


def test_rank_of_back_of_s1():
    m = SeqWorkingSetMap()
    ks = _fill(m, list("abcdef"))
    assert rank_of(m, ks["f"]) == 6  # |S0| + |S1|


def test_oracle_equivalence_random():
    for seed in (1, 2, 3):
        ops = random_ops(2000, 48, seed)
        expected = oracle_replay(ops)
        m = SeqWorkingSetMap()
        for op, exp in zip(ops, expected):
            if op.kind == SEARCH:
                got = m.search(op.key)
            elif op.kind == INSERT:
                got = m.insert(op.key, op.payload)
            elif op.kind == UPDATE:
                got = m.update(op.key, op.payload)
            else:
                got = m.delete(op.key)
            assert got == (exp.found, exp.value)
        m.audit()


def test_promotion_bound_every_access():
    # after every hit: new rank <= 2 * sqrt(old rank)
    rnd = random.Random(17)
    ctr = CmpCounter()
    ks = {v: Key(v, ctr) for v in range(400)}
    m = SeqWorkingSetMap()
    for v in range(400):
        m.insert(ks[v], v)
    for _ in range(2500):
        v = rnd.randrange(400)
        q = rank_of(m, ks[v])
        found, _ = m.search(ks[v])
        assert found
        q2 = rank_of(m, ks[v])
        assert q2 <= 2 * math.sqrt(q), f"rank {q} promoted only to {q2}"
    m.audit()


def test_found_segment_implies_deep_rank():
    # finding x in S[k], k > 0 implies its pre-rank exceeded 2^(2^(k-1))
    rnd = random.Random(23)
    ctr = CmpCounter()
    ks = {v: Key(v, ctr) for v in range(300)}
    m = SeqWorkingSetMap()
    for v in range(300):
        m.insert(ks[v], v)
    for _ in range(1500):
        v = rnd.randrange(300)
        q = rank_of(m, ks[v])
        before = [seg.size for seg in m.segments]
        k = next(i for i, seg in enumerate(m.segments)
                 if seg.keys.search(ks[v]) is not None)
        m.search(ks[v])
        if k > 0:
            assert q > 2 ** (2 ** (k - 1)), (q, k, before)


def test_instrumented_cost_tracks_working_set_bound():
    ctr = CmpCounter()
    ops = random_ops(4000, 64, 77, ctr=ctr)
    m = SeqWorkingSetMap()
    c0 = ctr.count
    for op in ops:
        if op.kind == SEARCH:
            m.search(op.key)
        elif op.kind == INSERT:
            m.insert(op.key, op.payload)
        elif op.kind == UPDATE:
            m.update(op.key, op.payload)
        else:
            m.delete(op.key)
    steps = m.steps + (ctr.count - c0)
    w = working_set_bound(ops).w_l
    assert steps <= 25 * w, f"steps {steps} vs W_L {w}"


def test_miss_cost_logarithmic():
    ctr = CmpCounter()
    m = SeqWorkingSetMap()
    for v in range(22):
        m.insert(Key(v, ctr), v)
    before_steps, before_cmp = m.steps, ctr.count
    found, _ = m.search(Key(10 ** 9, ctr))
    assert not found
    cost = (m.steps - before_steps) + (ctr.count - before_cmp)
    assert cost <= 40 * (math.log2(23) + 1)


def test_meter_charge_on_each_path():
    # The meter (tree node touches plus one step per recency link or unlink)
    # after each op; the shipped digests pin only the totals, so a drift on
    # one path shows here by name. S[0] holds 2 items, S[1] 4.
    m = SeqWorkingSetMap()
    ks = _keys("abcdefg")
    path = [
        ("insert a: opens S[0]", lambda: m.insert(ks["a"], 1), 2),
        ("insert b into S[0]", lambda: m.insert(ks["b"], 2), 6),
        ("hit inside S[0]", lambda: m.search(ks["b"]), 10),
        ("insert c: opens S[1]", lambda: m.insert(ks["c"], 3), 14),
        ("insert d", lambda: m.insert(ks["d"], 4), 20),
        ("insert e", lambda: m.insert(ks["e"], 5), 27),
        ("insert f: fills S[1]", lambda: m.insert(ks["f"], 6), 37),
        ("insert g: opens S[2]", lambda: m.insert(ks["g"], 7), 44),
        ("hit in S[1]: promote e, demote a", lambda: m.search(ks["e"]), 67),
        ("delete b: refill S[0] and S[1], drop S[2]",
         lambda: m.delete(ks["b"]), 89),
        ("update g: hit in S[1]", lambda: m.update(ks["g"], 8), 112),
        ("search miss", lambda: m.search(Key("zz")), 117),
    ]
    for name, op, steps in path:
        op()
        assert m.steps == steps, name
    assert [[k.value for k in seg] for seg in seq_dump(m)] == \
        [["g", "e"], ["a", "c", "d", "f"]]
    m.audit()


def _drop_a_leaf_from_the_order(m):
    seg = m.segments[1]
    del seg.rec[next(iter(seg.rec))]


def _leave_a_dead_leaf_in_the_order(m):
    # the key tree gets a fresh leaf; the order keeps the old, dead one
    seg = m.segments[1]
    leaf = next(iter(seg.rec))
    seg.keys.delete_leaf(leaf)
    seg.keys.insert(leaf.key, leaf.val)


def _swap_leaves_between_orders(m):
    a, b = m.segments[0], m.segments[1]
    la, lb = next(iter(a.rec)), next(iter(b.rec))
    del a.rec[la], b.rec[lb]
    a.rec[lb] = b.rec[la] = None


def _shorten_a_non_final_segment(m):
    seg = m.segments[0]
    leaf = next(reversed(seg.rec))
    del seg.rec[leaf]
    seg.keys.delete_leaf(leaf)
    m.n -= 1


def _one_key_in_two_segments(m):
    seg = m.segments[-1]
    first = next(iter(m.segments[0].rec))
    seg.rec[seg.keys.insert(Key(first.key.value), None)] = None
    m.n += 1


@pytest.mark.parametrize("corrupt, message", [
    (_drop_a_leaf_from_the_order, "recency order holds 3 of 4 leaves"),
    (_leave_a_dead_leaf_in_the_order, "dead leaf"),
    (_swap_leaves_between_orders, "different leaves"),
    (_shorten_a_non_final_segment, "segment 0 not full"),
    (_one_key_in_two_segments, "in two segments"),
])
def test_audit_catches_corrupted_state(corrupt, message):
    m = SeqWorkingSetMap()
    _fill(m, list("abcdefg"))
    m.audit()
    corrupt(m)
    with pytest.raises(AssertionError, match=message):
        m.audit()

"""Leaf-based 2-3 trees with stable leaf handles, split/join primitives, and
batched operations that execute as fork/join task DAGs.

One tree class serves both roles the maps need: key-sorted dictionaries
(route by max-key) and recency sequences (route by position). Leaves survive
every restructuring, so a handle obtained from a batch stays valid until its
item is deleted; cross-handles between a key tree and its paired recency
tree live in ``Leaf.twin``. A leaf is removed only through its handle
(``delete_leaf``), which its holder already has, so no delete descends.

Structural work is charged to a shared StepMeter (one count per node touch);
batch tasks convert meter deltas into simulator cost, so measured work/span
reflect what an update batch's split/apply/rejoin recursion, or a search
batch's read-only descent, actually touched. A search batch also charges, at
each inner node, the comparisons of the binary searches that partition its
keys among the kids. The batch tasks: `batch_search_task` finds keys,
`batch_update_task` is the one key-addressed update (deletes by handle and
inserts, key-sorted), `batch_delete_pos_task` deletes handles in any order
by position through `reverse_index_task`, and `push_edge_task` and
`pop_extreme_task` add and remove blocks at either end.

Descents route on raw key values: every node keeps its largest key's raw
value in ``hi``, a leaf its own key's value (the key itself when it has no
``value``), just as every node reports a ``size``. Each call counts the key
comparisons it makes and adds the total to the probe key's counter once,
exactly what comparing the counting keys one by one would charge, since a
tree's keys share the probe's counter.
"""

from __future__ import annotations

import heapq

from .runtime import Par, par_map, merge_sort_task


class TreeUsageError(RuntimeError):
    pass


class StepMeter:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class Leaf:
    __slots__ = ("key", "hi", "val", "parent", "alive", "twin")
    size = 1

    def __init__(self, key, val=None):
        self.key = key
        self.hi = getattr(key, "value", key)
        self.val = val
        self.parent = None
        self.alive = True
        self.twin = None

    def __repr__(self):
        return f"Leaf({self.key!r})"


class Inner:
    __slots__ = ("kids", "parent", "size", "hi")

    def __init__(self, kids):
        self.kids = kids
        self.parent = None
        self.size = 0
        self.hi = None
        for kid in kids:
            kid.parent = self


class Tree23:
    """A 2-3 tree over leaves; empty tree has root None and height -1."""

    __slots__ = ("root", "height", "meter")

    def __init__(self, meter=None):
        self.root = None
        self.height = -1
        self.meter = meter if meter is not None else StepMeter()

    # -- basics ---------------------------------------------------------------

    def __len__(self):
        return 0 if self.root is None else self.root.size

    def leaves(self):
        """The leaves in order, gathered level by level (all at depth
        height)."""
        if self.root is None:
            return []
        level = [self.root]
        for _ in range(self.height):
            level = [kid for node in level for kid in node.kids]
        return level

    def _refresh(self, node):
        self.meter.count += 1
        kids = node.kids
        size = 0
        for kid in kids:
            size += kid.size
        node.size = size
        node.hi = kids[-1].hi

    def _refresh_up(self, node, delta):
        """Refresh node, whose kids changed, then add its size change
        delta to every ancestor and pass its hi to each ancestor whose last
        kid is on the path. Sizes and hi values must be exact when the
        update starts, so this only follows non-lazy updates. One meter
        step per node."""
        self._refresh(node)
        steps = 0
        parent = node.parent
        while parent is not None:
            steps += 1
            parent.size += delta
            if parent.kids[-1] is node:
                parent.hi = node.hi
            node = parent
            parent = node.parent
        self.meter.count += steps

    def adopt(self, other):
        """Take over another tree's contents (used after split/rejoin)."""
        self.root = other.root
        self.height = other.height
        other.root = None
        other.height = -1
        return self

    # -- sequential key operations ---------------------------------------------

    def _route(self, kv, depth):
        """Descend depth levels from the root by hi values, charging one
        meter step per level. Returns the node reached and the number of
        key comparisons made."""
        node = self.root
        cmps = 0
        for _ in range(depth):
            kids = node.kids
            cmps += 1
            if kv <= kids[0].hi:
                node = kids[0]
            elif len(kids) == 2:
                node = kids[1]
            else:
                cmps += 1
                node = kids[1] if kv <= kids[1].hi else kids[2]
        self.meter.count += depth
        return node, cmps

    def search(self, key):
        if self.root is None:
            return None
        kv = getattr(key, "value", key)
        node, cmps = self._route(kv, self.height)
        self.meter.count += 1
        _count(key, cmps + 1)   # and the equality test at the leaf
        return node if node.hi == kv else None

    def insert(self, key, val=None):
        """Insert an absent key; returns the new leaf. A present key raises
        TreeUsageError; the check compares raw values and charges nothing."""
        leaf = Leaf(key, val)
        self.meter.count += 1
        if self.root is None:
            self.root = leaf
            self.height = 0
            return leaf
        kv = leaf.hi
        if self.height == 0:
            old = self.root
            if old.hi == kv:
                raise TreeUsageError(f"insert of a present key {key!r}")
            kids = [leaf, old] if kv < old.hi else [old, leaf]
            _count(key, 1)
            self.root = Inner(kids)
            self._refresh(self.root)
            self.height = 1
            return leaf
        node, cmps = self._route(kv, self.height - 1)
        kids = node.kids
        if kv < kids[0].hi:
            pos = 0
        elif kv < kids[1].hi:
            pos = 1
        elif len(kids) == 2:
            pos = 2
        else:
            pos = 2 if kv < kids[2].hi else 3
        if pos and kids[pos - 1].hi == kv:
            raise TreeUsageError(f"insert of a present key {key!r}")
        # the scan stops at the first larger kid or passes them all
        _count(key, cmps + min(pos + 1, len(kids)))
        kids.insert(pos, leaf)
        leaf.parent = node
        self._split_up(node, 1)
        return leaf

    def _split_up(self, node, delta, lazy=False):
        """Split node's overflow up the tree; the subtree under node grew
        by delta leaves."""
        while len(node.kids) > 3:
            self.meter.count += 1
            right = Inner(node.kids[2:])
            node.kids = node.kids[:2]
            self._refresh(node)
            self._refresh(right)
            parent = node.parent
            if parent is None:
                root = Inner([node, right])
                self._refresh(root)
                self.root = root
                self.height += 1
                return
            parent.kids.insert(parent.kids.index(node) + 1, right)
            right.parent = parent
            node = parent
        if not lazy:
            self._refresh_up(node, delta)

    def _respine(self, side):
        """Recompute size/hi bottom-up along one side spine (0 left, -1
        right), the root once; this is where lazy joins left stale
        counters."""
        path = []
        node = self.root
        while type(node) is Inner:
            path.append(node)
            node = node.kids[side]
        for n in reversed(path):
            self._refresh(n)

    def delete_leaf(self, leaf):
        """Unlink a leaf and rebalance; marks the handle dead and returns
        it."""
        if not leaf.alive:
            raise TreeUsageError("delete of a dead handle")
        leaf.alive = False
        self.meter.count += 1
        parent = leaf.parent
        if parent is None:
            self.root = None
            self.height = -1
            return leaf
        parent.kids.remove(leaf)
        leaf.parent = None
        self._fix_underflow(parent)
        return leaf

    def _fix_underflow(self, node):
        while len(node.kids) < 2:
            self.meter.count += 1
            parent = node.parent
            if parent is None:
                # a merge leaves the root (2-3 kids before it) one kid
                self.root = node.kids[0]
                self.root.parent = None
                self.height -= 1
                if type(self.root) is Inner:
                    self._refresh(self.root)
                return
            idx = parent.kids.index(node)
            sib_idx = idx - 1 if idx > 0 else idx + 1
            sib = parent.kids[sib_idx]
            if len(sib.kids) == 3:
                if sib_idx < idx:
                    moved = sib.kids.pop()
                    node.kids.insert(0, moved)
                else:
                    moved = sib.kids.pop(0)
                    node.kids.append(moved)
                moved.parent = node
                self._refresh(sib)
                self._refresh(node)
                self._refresh_up(parent, -1)
                return
            # merge with the 2-kid sibling
            if sib_idx < idx:
                sib.kids.extend(node.kids)
            else:
                sib.kids[0:0] = node.kids
            for kid in node.kids:
                kid.parent = sib
            node.kids = []
            parent.kids.remove(node)
            self._refresh(sib)
            node = parent
        self._refresh_up(node, -1)

    # -- positional operations ---------------------------------------------------

    def index_of(self, leaf):
        if not leaf.alive:
            raise TreeUsageError("index_of a dead handle")
        pos = 0
        node = leaf
        while node.parent is not None:
            self.meter.count += 1
            parent = node.parent
            for kid in parent.kids:
                if kid is node:
                    break
                pos += kid.size
            node = parent
        return pos

    # -- split / join -------------------------------------------------------------

    def join(self, other):
        """Append other (to the right); both inputs are consumed."""
        rb, hb = other.root, other.height
        other.root, other.height = None, -1
        return self._append(rb, hb, False)

    def _append(self, rb, hb, lazy):
        """Join the detached subtree rb of height hb on the right. A lazy
        append skips the root-path refresh; callers must _respine after."""
        self.meter.count += 1
        if rb is None:
            return self
        rb.parent = None
        if self.root is None:
            self.root, self.height = rb, hb
            return self
        ra, ha = self.root, self.height
        if ha == hb:
            root = Inner([ra, rb])
            self._refresh(root)
            self.root = root
            self.height = ha + 1
            return self
        if ha > hb:
            node = ra
            for _ in range(ha - hb - 1):
                self.meter.count += 1
                node = node.kids[-1]
            node.kids.append(rb)
            rb.parent = node
            self.root, self.height = ra, ha
            self._split_up(node, rb.size, lazy)
        else:
            node = rb
            for _ in range(hb - ha - 1):
                self.meter.count += 1
                node = node.kids[0]
            node.kids.insert(0, ra)
            ra.parent = node
            self.root, self.height = rb, hb
            self._split_up(node, ra.size, lazy)
        return self

    def _split(self, route, goes_left):
        """Generic split; route(node) returns the kid index where the cut
        descends (kids before it go left, after it go right) and
        goes_left(leaf) whether the boundary leaf it reaches goes left; the
        tree is non-empty. Returns the left and the right tree."""
        meter = self.meter
        left_groups, right_groups = [], []   # (kids, height), outermost first
        node = self.root
        h = self.height - 1
        self.root = None
        self.height = -1
        while type(node) is Inner:
            meter.count += 1
            idx = route(node)
            kids = node.kids
            if idx:
                left_groups.append((kids[:idx], h))
            if idx + 1 < len(kids):
                right_groups.append((kids[idx + 1:], h))
            node.kids = []
            node = kids[idx]
            h -= 1
        node.parent = None
        left, right = Tree23(meter), Tree23(meter)
        # each half grows from the cut outward, the boundary leaf its
        # innermost piece: the tree a piece joins is at most one level
        # taller than the piece, so the walks down telescope to O(height),
        # and only the spine facing the cut goes stale
        half = left if goes_left(node) else right
        half.root, half.height = node, 0
        for kids, h in reversed(left_groups):
            for kid in reversed(kids):
                # prepend: a taller piece takes the tree under its right spine
                kid.parent = None
                rb, hb = left.root, left.height
                left.root, left.height = kid, h
                left._append(rb, hb, True)
        left._respine(-1)
        for kids, h in reversed(right_groups):
            for kid in kids:
                right._append(kid, h, True)
        right._respine(0)
        return left, right

    def split_lt(self, key):
        """Split into (keys < key, keys >= key)."""
        if self.root is None:
            return Tree23(self.meter), Tree23(self.meter)

        kv = getattr(key, "value", key)
        cmps = 1   # the boundary test

        def route(node):
            nonlocal cmps
            kids = node.kids
            cmps += 1
            if kv <= kids[0].hi:
                return 0
            if len(kids) == 2:
                return 1
            cmps += 1
            return 1 if kv <= kids[1].hi else 2

        halves = self._split(route, lambda leaf: leaf.hi < kv)
        _count(key, cmps)
        return halves

    def split_pos(self, count):
        """Split into (first count leaves, rest)."""
        n = len(self)
        if count <= 0:
            rest = Tree23(self.meter).adopt(self)
            return Tree23(self.meter), rest
        if count >= n:
            taken = Tree23(self.meter).adopt(self)
            return taken, Tree23(self.meter)
        skip = count

        def route(node):
            # 0 < count < n, so skip < node.size at every level
            nonlocal skip
            for i, kid in enumerate(node.kids):
                s = kid.size
                if skip < s:
                    return i
                skip -= s

        return self._split(route, lambda _leaf: skip > 0)

    # -- bulk construction ---------------------------------------------------------

    @staticmethod
    def build(pairs, meter=None):
        """Build a tree over the given (key, val) pairs in order, O(n)."""
        t = Tree23(meter)
        leaves = []
        for k, v in pairs:
            leaf = Leaf(k, v)
            leaves.append(leaf)
        t.meter.count += max(1, len(leaves))
        if not leaves:
            return t, []
        level = leaves
        height = 0
        while len(level) > 1:
            # pairs, the last group a triple when the level is odd
            cuts = [*range(0, len(level) - 1, 2), len(level)]
            nxt = []
            for a, b in zip(cuts, cuts[1:]):
                node = Inner(level[a:b])
                t._refresh(node)
                nxt.append(node)
            level = nxt
            height += 1
        t.root = level[0]
        t.height = height
        return t, leaves

    # -- debug / audits (test instrumentation; not metered) ----------------------------

    def audit(self, sorted_keys=False):
        """Check, level by level, arity, parent links, sizes, hi values,
        that every leaf sits at depth height and, with sorted_keys, that
        key values strictly increase. Only raw values are compared, so an
        audit leaves the comparison count alone."""
        if self.root is None:
            assert self.height == -1
            return
        assert self.root.parent is None
        level = [self.root]
        for depth in range(self.height):
            nxt = []
            for node in level:
                assert type(node) is Inner, \
                    f"leaf at depth {depth} != {self.height}"
                kids = node.kids
                assert 2 <= len(kids) <= 3, f"arity {len(kids)}"
                size = 0
                for kid in kids:
                    assert kid.parent is node, "stale parent link"
                    size += kid.size
                assert node.size == size, "stale size"
                assert node.hi == kids[-1].hi, "stale hi"
                nxt.extend(kids)
            level = nxt
        for node in level:
            assert type(node) is Leaf, f"inner node at depth {self.height}"
        if sorted_keys:
            assert all(a.hi < b.hi for a, b in zip(level, level[1:])), \
                "keys not strictly increasing"


def _count(key, cmps):
    """Charge cmps key comparisons to the probe key's counter, if it has one."""
    ctr = getattr(key, "ctr", None)
    if ctr is not None:
        ctr.count += cmps


# -- batched task operations ----------------------------------------------------------


def _charge(meter, start):
    return max(1, meter.count - start)


def _check_sorted_distinct(keys):
    """A usage check, not map work: raw key values are compared, so the
    comparison count is left alone. Returns the raw values."""
    vals = [getattr(k, "value", k) for k in keys]
    for a, b in zip(vals, vals[1:]):
        if not a < b:
            raise TreeUsageError("batch keys must be sorted and distinct")
    return vals


def _split_join_task(tree, items, split, leaf):
    """Split the tree at the middle item, recurse on both halves in
    parallel, and join them back (Blelloch, Ferizovic & Sun's join-based
    batch pattern). split(t, items, mid) returns (left tree, right tree,
    the items from mid on re-addressed to the right tree); leaf(t, item)
    applies one item. For a batch of b items let g = b.bit_length() =
    ceil(log2(b + 1)). Runs of at most g items are applied in one node,
    charged the meter steps it takes, last item first: the recursion is
    O(log b) deep and a run costs at most g descents, so the span stays
    O(log b log n) while each item saves a split and a join. Returns the
    per-item results in item order."""
    if not items:
        yield 1
        return []
    piece = Tree23(tree.meter).adopt(tree)
    results = yield from _split_join_rec(piece, items, split, leaf,
                                         len(items).bit_length())
    tree.adopt(piece)
    return results


def _split_join_rec(t, items, split, leaf, g):
    meter = t.meter
    start = meter.count
    if len(items) <= g:
        res = [leaf(t, item) for item in reversed(items)][::-1]
    else:
        mid = len(items) // 2
        left_t, right_t, right_items = split(t, items, mid)
        yield _charge(meter, start)
        lres, rres = yield Par(
            _split_join_rec(left_t, items[:mid], split, leaf, g),
            _split_join_rec(right_t, right_items, split, leaf, g))
        start = meter.count
        left_t.join(right_t)
        t.adopt(left_t)
        res = lres + rres
    yield _charge(meter, start)
    return res


def _split_by_pos(t, located, mid):
    cut = located[mid][0]
    return (*t.split_pos(cut), [(p - cut, lf) for p, lf in located[mid:]])


def _cut(vals, kv, lo, hi):
    """The first index in [lo, hi) whose value exceeds kv (hi if none), by
    binary search; also returns the comparisons it made, at most
    ceil(log2(hi - lo + 1))."""
    cmps = 0
    while lo < hi:
        mid = (lo + hi) // 2
        cmps += 1
        if kv < vals[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo, cmps


def batch_search_task(tree, keys):
    """The live leaf of each of the sorted, distinct keys, None for a miss,
    by one read-only descent (Paul, Vishkin & Wagener's multi-search on 2-3
    trees) that never splits, joins or detaches the tree. A task holds a
    node and an index range of the key list and writes results by index
    into one list. For a batch of K keys and g = K.bit_length(), a lone key
    descends with search (its subtree taken as a tree); a subtree of at
    most 2g leaves plus keys is finished in one node by a merge, charged
    one meter step per node and one per key, each key counting one
    comparison per leaf passed plus the stopping and equality tests; a leaf
    reached by more keys tests the last key not above its own after one
    binary search; an inner node cuts its range at its kids' hi values with
    at most two binary searches, charged one step plus their comparisons
    (at most ceil(log2(k + 1)) each for k keys), and forks over the kids
    that receive keys, or continues into the one kid that does. Every node
    is O(log K), so the span stays O(log K · log n). An empty tree charges
    one step per key. Searching in place is safe because no tree is
    searched while another task updates it: M2's filter is used only under
    fl[0], S[m-1] only under nl[m] and the front-locks, a final-slab
    segment only under a neighbour-lock its searching actor holds (S[m]
    also under the front-locks), and the rest of the first slab, like every
    segment of M1, only by the interface."""
    vals = _check_sorted_distinct(keys)
    res = [None] * len(keys)
    meter = tree.meter
    cutoff = 2 * len(keys).bit_length()

    def merge(node, h, lo, hi):
        level = [node]
        nodes = 1
        for _ in range(h):
            level = [kid for n in level for kid in n.kids]
            nodes += len(level)
        meter.count += nodes + hi - lo
        i, n = 0, len(level)
        for j in range(lo, hi):
            kv = vals[j]
            passed = i
            while i < n and level[i].hi < kv:
                i += 1
            if i < n and level[i].hi == kv:
                res[j] = level[i]
            # one comparison per leaf passed, then the stopping and
            # equality tests
            _count(keys[j], i - passed + (2 if i < n else 0))

    def descend(node, h, lo, hi):
        start = meter.count
        while h and hi - lo > 1 and node.size + hi - lo > cutoff:
            kids = node.kids
            bounds, cmps = [lo], 0
            for kid in kids[:-1]:
                cut, more = _cut(vals, kid.hi, bounds[-1], hi)
                bounds.append(cut)
                cmps += more
            bounds.append(hi)
            meter.count += 1 + cmps
            _count(keys[lo], cmps)
            parts = [(kid, h - 1, a, b)
                     for kid, a, b in zip(kids, bounds, bounds[1:]) if a < b]
            if len(parts) > 1:
                yield _charge(meter, start)
                yield from par_map(parts, lambda part: descend(*part))
                return
            node, h, lo, hi = parts[0]
        if hi - lo == 1:
            sub = Tree23(meter)
            sub.root, sub.height = node, h
            res[lo] = sub.search(keys[lo])
        elif node.size + hi - lo <= cutoff:
            merge(node, h, lo, hi)
        else:
            cut, cmps = _cut(vals, node.hi, lo, hi)
            if cut > lo:
                cmps += 1
                if vals[cut - 1] == node.hi:
                    res[cut - 1] = node
            meter.count += 1 + cmps
            _count(keys[lo], cmps)
        yield _charge(meter, start)

    if not keys:
        yield 1
    elif tree.root is None:
        meter.count += len(keys)
        yield len(keys)
    else:
        yield from descend(tree.root, tree.height, 0, len(keys))
    return res


def batch_update_task(tree, leaves, pairs):
    """One key batch that deletes the key-sorted live leaves of tree by
    handle (a leaf survives the batch's key splits, so no deletion descends)
    and inserts the key-sorted (key, val) pairs of absent keys, as a
    split/apply/rejoin task DAG that applies runs of items in one node (the
    keys are distinct, so in any order; see _split_join_task). No key is in
    both lists, and the two merge on raw values, which counts no comparison
    and leaves an unsorted list for the usage check to reject. Returns the
    new leaves in pairs' order."""
    items = leaves or pairs
    if leaves and pairs:
        items = list(heapq.merge(
            leaves, pairs, key=lambda it: it.hi if type(it) is Leaf
            else getattr(it[0], "value", it[0])))

    def key(it):
        return it.key if type(it) is Leaf else it[0]

    _check_sorted_distinct([key(it) for it in items])

    def split(t, part, mid):
        return (*t.split_lt(key(part[mid])), part[mid:])

    done = yield from _split_join_task(
        tree, items, split,
        lambda t, it: t.delete_leaf(it) if type(it) is Leaf else t.insert(*it))
    return [lf for it, lf in zip(items, done) if type(it) is not Leaf]


def reverse_index_task(tree, handles):
    """From live leaf handles to the position-sorted (position, leaf) list;
    the tree is not modified."""
    for h in handles:
        if not h.alive:
            raise TreeUsageError("reverse_index of a dead handle")
    meter = tree.meter

    def locate(leaf):
        start = meter.count
        pos = tree.index_of(leaf)
        yield _charge(meter, start)
        return (pos, leaf)

    located = yield from par_map(list(handles), locate)
    ordered = yield from merge_sort_task(located, key=lambda pl: pl[0])
    return ordered


def batch_delete_pos_task(tree, handles):
    """Delete live leaves of tree, given as handles in any order: one
    reverse index sorts them by position, the positions only address the
    splits, and a leaf survives them, so no item descends; returns the
    leaves in tree order."""
    if len(set(handles)) < len(handles):
        raise TreeUsageError("delete of a repeated handle")
    located = yield from reverse_index_task(tree, handles)
    return (yield from _split_join_task(tree, located, _split_by_pos,
                                        lambda t, pl: t.delete_leaf(pl[1])))


def push_edge_task(tree, pairs, end):
    """Attach a block of new leaves at the front or back, preserving the
    block's order; returns the new leaves."""
    meter = tree.meter
    start = meter.count
    block, leaves = Tree23.build(pairs, meter)
    if end == "front":
        tree.adopt(block.join(tree))
    else:
        tree.join(block)
    yield _charge(meter, start)
    return leaves


def pop_extreme_task(tree, count, end):
    """Remove the count front/back leaves; returned in tree order."""
    if count > len(tree):
        raise TreeUsageError("pop_extreme count exceeds size")
    meter = tree.meter
    start = meter.count
    if end == "front":
        taken, rest = tree.split_pos(count)
    else:
        rest, taken = tree.split_pos(len(tree) - count)
    tree.adopt(rest)
    leaves = taken.leaves()
    for lf in leaves:
        lf.alive = False
        lf.parent = None
    yield _charge(meter, start)
    return leaves


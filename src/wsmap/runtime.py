"""Deterministic step-synchronous fork/join task simulator.

Every advance of a task generator costs exactly one unit-time node; the
scheduler executes a bounded number of ready nodes per step (greedy or
weak-priority with two queues) with ties broken by node id, so identical
inputs always produce identical traces and metrics.

A task yields one of:

* an ``int`` c >= 1 -- this code segment costs c unit nodes (c-1 stall ticks),
* ``Par(a, b)``     -- binary fork; resumes with the pair of branch results
  through a join node that has both branch-final nodes as parents,
* ``Call(g, ...)``  -- run g as a single child task (possibly with a
  different owner/queue) and resume with its result,
* ``Detach(g, ...)``-- fire-and-forget child task,
* ``Acquire(lock, key)`` -- blocking acquire of a dedicated lock,
* ``Park(fn)``      -- suspend this task; ``fn(handle)`` stores the handle
  somewhere; another node later calls ``rt.resume(handle, value)``.

Plain Python executed between yields runs atomically within one node, which
is the serialization granularity of the whole model (simultaneous memory
operations are ordered by node id).

Node ids only grow and are handed out when a node is staged, so the ready
set is one list in id order plus a count of its Q1 nodes, kept at staging
time. A step that runs every ready node (greedy: at most p ready; weak
priority: at most p/2 in each queue) takes the whole list, which trades
places with the staging list; a contended greedy step takes the first p
entries, and a contended weak-priority step takes, in one pass, the first
p/2 of each queue and leaves the rest in order. With trace off the nodes of
a step run inline, and a stall tick only charges its node and restages its
task. When a step would run every ready node and each of them is a stall
tick, no task code runs, so with trace off ``run`` skips k such steps at
once, k being the fewest ticks left: work, spans, step counters and node
ids come out as if the k steps had run one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Q1 = 1
Q2 = 2

PROGRAM = "program"
BUFFER = "buffer"
DS = "ds"
DS_FINAL = "ds_final"

_PATH_SLOT = {PROGRAM: 0, BUFFER: 1, DS: 2, DS_FINAL: 2}


class SimDeadlock(RuntimeError):
    """No ready nodes remain but suspended work exists."""

    def __init__(self, msg, blocked=()):
        super().__init__(msg)
        self.blocked = list(blocked)


class LockUsageError(RuntimeError):
    pass


class Sub:
    """Child-task spec; owner/queue default to the parent's."""

    __slots__ = ("gen", "owner", "queue")

    def __init__(self, gen, owner=None, queue=None):
        self.gen = gen
        self.owner = owner
        self.queue = queue


class Call(Sub):
    __slots__ = ()


class Detach(Sub):
    __slots__ = ()


class Par:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left if isinstance(left, Sub) else Sub(left)
        self.right = right if isinstance(right, Sub) else Sub(right)


class Acquire:
    __slots__ = ("lock", "key")

    def __init__(self, lock, key):
        self.lock = lock
        self.key = key


class Park:
    __slots__ = ("register",)

    def __init__(self, register):
        self.register = register


class _Join:
    __slots__ = ("task", "need", "single", "results", "paths")

    def __init__(self, task, single=False):
        self.task = task
        self.single = single
        self.need = 1 if single else 2
        self.results = [None, None]
        self.paths = [None, None]


class _Task:
    __slots__ = ("gen", "owner", "queue", "join", "ticks")

    def __init__(self, gen, owner, queue):
        self.gen = gen
        self.owner = owner
        self.queue = queue
        self.join = None   # (_Join, branch index) set when a Par/Call waits on us
        self.ticks = 0


class ParkHandle:
    """A suspended task plus the path metrics of its suspension node."""

    __slots__ = ("task", "path", "node_id", "done", "where")

    def __init__(self, task, path, node_id, where=""):
        self.task = task
        self.path = path
        self.node_id = node_id
        self.done = False
        self.where = where


class NonBlockingFlag:
    """Test-and-set lock; atomic at node granularity."""

    __slots__ = ("held",)

    def __init__(self):
        self.held = False

    def try_lock(self):
        if self.held:
            return False
        self.held = True
        return True

    def unlock(self):
        if not self.held:
            raise LockUsageError("unlock of unheld flag")
        self.held = False


class DedicatedLock:
    """Blocking lock with keys 1..k; concurrent acquirers must use distinct
    keys and a release resumes the cyclically next parked waiter."""

    __slots__ = ("k", "count", "holder", "slots", "name")

    def __init__(self, k, name=""):
        self.k = k
        self.count = 0
        self.holder = 0
        self.slots = [None] * (k + 1)
        self.name = name

    def waiters(self):
        return [i for i in range(1, self.k + 1) if self.slots[i] is not None]


@dataclass
class ExecutionMetrics:
    p: int
    scheduler: str
    steps: int = 0
    work: dict = field(default_factory=dict)
    t1: int = 0
    t_inf: int = 0
    buffer_work: int = 0
    buffer_span: int = 0
    ds_work: int = 0
    ds_span: int = 0
    high_busy_steps: int = 0
    high_idle_steps: int = 0
    filter_full_steps: int = 0
    filter_empty_steps: int = 0

    def to_dict(self):
        return {
            "T1": self.t1,
            "T_inf": self.t_inf,
            "per_structure": {
                "ds": {"work": self.ds_work, "span": self.ds_span},
                "buffer": {"work": self.buffer_work, "span": self.buffer_span},
            },
            "steps": {
                "total": self.steps,
                "high_busy": self.high_busy_steps,
                "high_idle": self.high_idle_steps,
                "filter_full": self.filter_full_steps,
                "filter_empty": self.filter_empty_steps,
            },
            "p": self.p,
            "scheduler": self.scheduler,
        }


class Runtime:
    """Single-threaded deterministic simulator of a p-processor machine."""

    def __init__(self, p, scheduler="greedy", trace=False, filter_probe=None):
        if p < 4:
            raise ValueError("p must be at least 4")
        if scheduler not in ("greedy", "weak_priority"):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        if scheduler == "weak_priority" and p % 2:
            raise ValueError("weak_priority requires even p")
        self.p = p
        self.scheduler = scheduler
        self.metrics = ExecutionMetrics(p=p, scheduler=scheduler)
        self.trace = [] if trace else None
        self.step_stats = [] if trace else None
        self.filter_probe = filter_probe
        self.now = 0
        self.current_slot = 0
        self._locks = []
        self._next_id = 0
        self._staged = []        # (node_id, task, send, path), id order
        self._staged_q1 = 0      # Q1 entries in _staged
        self._parked = 0
        self._spans = [0, 0, 0]
        self._cur_path = (0, 0, 0)
        self._cur_task = None

    # -- task creation -------------------------------------------------------

    def spawn_root(self, gen, owner=PROGRAM, queue=Q2):
        task = _Task(gen, owner, queue)
        self._stage(task, None, (0, 0, 0))
        return task

    def register_lock(self, lock):
        self._locks.append(lock)
        return lock

    @property
    def current_path(self):
        """(program, buffer, ds) node counts along the executing node's
        longest incoming path; task code may sample it between yields."""
        return self._cur_path

    def export_trace(self, path):
        """Write the execution trace as '<step> <node_id> <owner> <queue>'
        lines; requires trace=True."""
        if self.trace is None:
            raise ValueError("runtime was created without trace=True")
        with open(path, "w") as fh:
            for step, node_id, owner, queue in self.trace:
                fh.write(f"{step} {node_id} {owner} {queue}\n")

    def _stage(self, task, send, path):
        nid = self._next_id
        self._next_id = nid + 1
        self._staged.append((nid, task, send, path))
        if task.queue == Q1:
            self._staged_q1 += 1

    def _spawn_sub(self, sub, parent, path):
        task = _Task(sub.gen, sub.owner or parent.owner, sub.queue or parent.queue)
        self._stage(task, None, path)
        return task

    # -- in-node operations (called from task code between yields) ------------

    def resume(self, handle, value):
        """Resume a parked task; the resumption node is a child of both the
        current node and the suspension node."""
        if handle.done:
            raise LockUsageError("double resume of a parked task")
        handle.done = True
        self._parked -= 1
        merged = tuple(map(max, handle.path, self._cur_path))
        self._stage(handle.task, value, merged)

    def release(self, lock):
        """Dedicated-lock release with cyclic scan from the holder's key."""
        if lock.count <= 0:
            raise LockUsageError(f"release of unheld lock {lock.name}")
        lock.count -= 1
        if lock.count == 0:
            lock.holder = 0
            return
        j = lock.holder
        while True:
            j = j % lock.k + 1
            if lock.slots[j] is not None:
                handle = lock.slots[j]
                lock.slots[j] = None
                break
        lock.holder = j
        self.resume(handle, None)

    def detach(self, gen, owner=None, queue=None):
        """Spawn a fire-and-forget child of the current node."""
        self._spawn_sub(Sub(gen, owner, queue), self._cur_task, self._cur_path)

    # -- main loop -------------------------------------------------------------

    def run(self):
        m = self.metrics
        p = self.p
        half = p // 2
        greedy = self.scheduler == "greedy"
        probe = self.filter_probe
        stats = self.step_stats
        fast = self.trace is None
        ready, n1 = self._staged, self._staged_q1
        self._staged, self._staged_q1 = [], 0
        while ready:
            n = len(ready)
            q1_ready = n1
            high_busy = n1 >= half
            filter_full = probe is not None and probe() >= p
            if (n <= p) if greedy else (n1 <= half and n - n1 <= half):
                batch, ready, q1_exec = ready, None, n1
            elif greedy:
                batch = ready[:p]
                del ready[:p]
                q1_exec = sum(1 for entry in batch if entry[1].queue == Q1)
            else:
                batch, ready = _pick_quota(ready, half)
                q1_exec = min(n1, half)
            n1 -= q1_exec
            if stats is not None:
                stats.append((q1_ready, n - q1_ready, q1_exec,
                              len(batch) - q1_exec))
            k = 1
            if fast and ready is None:
                for entry in batch:
                    if not entry[1].ticks:
                        break
                else:
                    k = min([entry[1].ticks for entry in batch])
            if k > 1:
                self._skip_ticks(batch, k)
            else:
                self._run_batch(batch)
            if high_busy:
                m.high_busy_steps += k
            else:
                m.high_idle_steps += k
            if probe is not None:
                if filter_full:
                    m.filter_full_steps += k
                else:
                    m.filter_empty_steps += k
            m.steps += k
            self.now += k
            staged = self._staged
            if ready is None:
                batch.clear()
                ready, self._staged = staged, batch
            else:
                ready += staged
                staged.clear()
            n1 += self._staged_q1
            self._staged_q1 = 0
        if self._parked:
            blocked = [(lk.name, lk.waiters()) for lk in self._locks if lk.waiters()]
            raise SimDeadlock(
                f"{self._parked} suspended task(s) with no ready nodes; "
                f"blocked locks: {blocked}",
                blocked=blocked,
            )
        m.t1 = m.work.get(PROGRAM, 0)
        m.t_inf = self._spans[0]
        m.buffer_work = m.work.get(BUFFER, 0)
        m.buffer_span = self._spans[1]
        m.ds_work = m.work.get(DS, 0) + m.work.get(DS_FINAL, 0)
        m.ds_span = self._spans[2]
        return m

    def _skip_ticks(self, batch, k):
        """Run k steps of a batch that is the whole ready set and holds only
        stall ticks: no task code runs, so each entry just gains k nodes and
        is restaged with the id the k-th one-node step would have given it."""
        work, spans = self.metrics.work, self._spans
        first = self._next_id + (k - 1) * len(batch)
        for i, (_nid, task, _send, path) in enumerate(batch):
            slot = _PATH_SLOT[task.owner]
            here = path[:slot] + (path[slot] + k,) + path[slot + 1:]
            work[task.owner] = work.get(task.owner, 0) + k
            if here[slot] > spans[slot]:
                spans[slot] = here[slot]
            task.ticks -= k
            self._staged.append((first + i, task, None, here))
            if task.queue == Q1:
                self._staged_q1 += 1
        self._next_id += k * len(batch)

    def _run_batch(self, batch):
        """Execute one step's batch in id order. With trace on, each node
        goes through _exec; with trace off the same bookkeeping runs inline:
        a stall tick or an int effect restages its task here, and only the
        other effects go through _dispatch."""
        if self.trace is not None:
            for slot, entry in enumerate(batch):
                self.current_slot = slot
                self._exec(entry)
            return
        work = self.metrics.work
        spans = self._spans
        staged = self._staged
        for slot, (_nid, task, send, path) in enumerate(batch):
            owner = task.owner
            s = _PATH_SLOT[owner]
            if s == 0:
                here = (path[0] + 1, path[1], path[2])
            elif s == 1:
                here = (path[0], path[1] + 1, path[2])
            else:
                here = (path[0], path[1], path[2] + 1)
            work[owner] = work.get(owner, 0) + 1
            if here[s] > spans[s]:
                spans[s] = here[s]
            if task.ticks:
                task.ticks -= 1
            else:
                self.current_slot = slot
                self._cur_path = here
                self._cur_task = task
                try:
                    effect = task.gen.send(send)
                except StopIteration as stop:
                    if task.join is not None:
                        self._finish(task, stop.value, here)
                    continue
                if type(effect) is not int:
                    self._dispatch(task, effect, here)
                    continue
                if effect > 1:
                    task.ticks = effect - 1
            nid = self._next_id
            self._next_id = nid + 1
            staged.append((nid, task, None, here))
            if task.queue == Q1:
                self._staged_q1 += 1

    def _exec(self, entry):
        """Run one node on the traced path, recording it in the trace."""
        nid, task, send, path = entry
        slot = _PATH_SLOT[task.owner]
        if slot == 0:
            here = (path[0] + 1, path[1], path[2])
        elif slot == 1:
            here = (path[0], path[1] + 1, path[2])
        else:
            here = (path[0], path[1], path[2] + 1)
        self._cur_path = here
        self._cur_task = task
        m = self.metrics
        m.work[task.owner] = m.work.get(task.owner, 0) + 1
        if here[slot] > self._spans[slot]:
            self._spans[slot] = here[slot]
        self.trace.append((self.now, nid, task.owner, task.queue))
        if task.ticks:
            task.ticks -= 1
            self._stage(task, None, here)
            return
        try:
            effect = task.gen.send(send)
        except StopIteration as stop:
            self._finish(task, stop.value, here)
            return
        if type(effect) is int:
            if effect > 1:
                task.ticks = effect - 1
            self._stage(task, None, here)
        else:
            self._dispatch(task, effect, here)

    def _dispatch(self, task, effect, here):
        """Apply an effect other than an int that task yielded at the node
        whose path is here."""
        if isinstance(effect, Par):
            join = _Join(task)
            left, right = effect.left, effect.right
            lt = _Task(left.gen, left.owner or task.owner,
                       left.queue or task.queue)
            rt_ = _Task(right.gen, right.owner or task.owner,
                        right.queue or task.queue)
            lt.join = (join, 0)
            rt_.join = (join, 1)
            nid = self._next_id
            self._next_id = nid + 2
            self._staged += ((nid, lt, None, here), (nid + 1, rt_, None, here))
            self._staged_q1 += (lt.queue == Q1) + (rt_.queue == Q1)
        elif isinstance(effect, Call):
            join = _Join(task, single=True)
            child = self._spawn_sub(effect, task, here)
            child.join = (join, 0)
        elif isinstance(effect, Detach):
            self._spawn_sub(effect, task, here)
            self._stage(task, None, here)
        elif isinstance(effect, Acquire):
            lock, key = effect.lock, effect.key
            if not 1 <= key <= lock.k:
                raise LockUsageError(f"key {key} out of range for lock {lock.name}")
            lock.count += 1
            if lock.count == 1:
                lock.holder = key
                self._stage(task, None, here)
            else:
                if lock.slots[key] is not None:
                    raise LockUsageError(
                        f"duplicate key {key} among concurrent acquirers of {lock.name}")
                lock.slots[key] = ParkHandle(task, here, self._next_id,
                                             where=lock.name)
                self._parked += 1
        elif isinstance(effect, Park):
            handle = ParkHandle(task, here, self._next_id)
            self._parked += 1
            effect.register(handle)
        else:
            raise TypeError(f"task yielded unsupported effect {effect!r}")

    def _finish(self, task, value, here):
        if task.join is None:
            return
        join, idx = task.join
        join.results[idx] = value
        join.paths[idx] = here
        join.need -= 1
        if join.need == 0:
            if join.single:
                self._stage(join.task, join.results[0], join.paths[0])
            else:
                a, b = join.paths
                merged = (a[0] if a[0] > b[0] else b[0],
                          a[1] if a[1] > b[1] else b[1],
                          a[2] if a[2] > b[2] else b[2])
                self._stage(join.task, tuple(join.results), merged)


def _pick_quota(ready, quota):
    """Split an id-ordered ready list into the first quota entries of each
    queue and the rest, both still in id order."""
    batch, rest = [], []
    left1 = left2 = quota
    for entry in ready:
        if entry[1].queue == Q1:
            if left1:
                left1 -= 1
                batch.append(entry)
                continue
        elif left2:
            left2 -= 1
            batch.append(entry)
            continue
        rest.append(entry)
    return batch, rest


# -- task-code combinators -----------------------------------------------------


def par_map(items, fn):
    """Binary fan-out over items applying task factory fn; returns the list
    of results. Span is O(log n) plus the deepest leaf."""
    n = len(items)
    if n == 0:
        return []
    if n == 1:
        result = yield from fn(items[0])
        return [result]
    mid = n // 2
    left, right = yield Par(par_map(items[:mid], fn), par_map(items[mid:], fn))
    return left + right


def concat_tree(pieces):
    """Concatenate list pieces with a balanced binary join tree."""
    n = len(pieces)
    if n == 0:
        return []
    if n == 1:
        yield 1
        return list(pieces[0])
    mid = n // 2
    left, right = yield Par(concat_tree(pieces[:mid]), concat_tree(pieces[mid:]))
    yield 1
    return left + right


def merge_sort_task(items, key):
    """Balanced merge-sort task DAG; O(n log n) work, O((log n)^2) span."""
    n = len(items)
    if n <= 1:
        yield 1
        return list(items)
    mid = n // 2
    left, right = yield Par(merge_sort_task(items[:mid], key),
                            merge_sort_task(items[mid:], key))
    yield max(1, n)
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        if key(right[j]) < key(left[i]):
            out.append(right[j])
            j += 1
        else:
            out.append(left[i])
            i += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def execute_inline(gen):
    """Run a task generator to completion without the scheduler, executing
    Par branches sequentially; valid only when branches touch disjoint
    state. Returns the task's value; costs are discarded."""
    send = None
    while True:
        try:
            effect = gen.send(send)
        except StopIteration as stop:
            return stop.value
        if type(effect) is int:
            send = None
        elif isinstance(effect, Par):
            send = (execute_inline(effect.left.gen),
                    execute_inline(effect.right.gen))
        elif isinstance(effect, Call):
            send = execute_inline(effect.gen)
        elif isinstance(effect, Detach):
            execute_inline(effect.gen)
            send = None
        else:
            raise TypeError(f"inline execution cannot handle {effect!r}")


class ActivationGate:
    """Non-blocking-lock guard that runs a process iff it is not already
    running and its readiness predicate holds; honors self-reactivation.

    The try-lock, the readiness check, and (on a negative check) the unlock
    all happen inside one node, so an activator that first makes the
    predicate true can never be lost.
    """

    __slots__ = ("flag", "ready", "process", "name")

    def __init__(self, ready, process, name=""):
        self.flag = NonBlockingFlag()
        self.ready = ready
        self.process = process
        self.name = name

    def activate(self):
        while True:
            if not self.flag.try_lock():
                return
            if not self.ready():
                self.flag.unlock()
                return
            reactivate = yield from self.process()
            self.flag.unlock()
            if not reactivate:
                return
            # retry happens in the same node as the unlock: no lost wakeups

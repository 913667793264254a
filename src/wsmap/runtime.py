"""Deterministic step-synchronous fork/join task simulator.

Every advance of a task generator costs exactly one unit-time node; the
scheduler executes a bounded number of ready nodes per step (greedy or
weak-priority with two queues) with ties broken by node id, so identical
inputs always produce identical traces and metrics.

A task yields one of:

* an ``int`` c >= 1 -- this code segment costs c unit nodes (c-1 stall ticks),
* ``Par(a, b)``     -- binary fork of two generators on the parent's owner;
  resumes with the pair of branch results through a join node that has
  both branch-final nodes as parents,
* ``Call(g, ...)``  -- run g as a single child task (possibly with a
  different owner) and resume with its result,
* ``Acquire(lock, key)`` -- blocking acquire of a dedicated lock; a lock a
  task parks on is remembered for the deadlock report,
* ``Park(fn)``      -- suspend this task; ``fn(handle)`` stores the handle
  somewhere; another node later calls ``rt.resume(handle, value)``.

Plain Python executed between yields runs atomically within one node, which
is the serialization granularity of the whole model (simultaneous memory
operations are ordered by node id).

Node ids only grow and are handed out when a node is staged, so a node's id
is its place in staging order: the ids handed out before its step plus its
index in that step's staging list. Only the trace reads ids, so they are
counted with trace on only; the ready list is in id order either way. A
task carries the state of its next node (its path counts, the value it
resumes with, its stall ticks), so the ready set is one list of tasks in id
order plus a count of its Q1 tasks, kept at staging time, and no node
allocates an entry of its own.

One picker, ``_pick``, chooses a step's batch: the first p ready tasks in
id order with at most a quota from each queue, the quota being p (greedy)
or p/2 (weak priority); a task's owner fixes its queue, Q1 (high priority)
for DS_FINAL and Q2 for the rest. A step that runs every ready node takes
the whole list, which trades places with the staging list.

One executor, ``_run_batch``, runs every code node: it runs a step's
batch in id order, recording each node in the trace when trace is on. With
trace off it takes two shortcuts where no task code could see the
difference:

* when a step would run every ready node and each of them is a stall tick,
  it runs k such steps in one pass, k being the fewest ticks left (``run``
  finds k);
* when the ready set is one task about to run code, it runs that task's code
  nodes back to back, each ``yield c`` charged as c steps, until the task
  yields another effect, finishes, or its code stages a node (a resume,
  release or detach).

Work, spans and step counters come out as if every step had run one by one,
and ``now`` and ``current_slot`` are exact whenever task code runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Q1 = 1
Q2 = 2

PROGRAM = "program"
BUFFER = "buffer"
DS = "ds"
DS_FINAL = "ds_final"

SCHEDULERS = ("greedy", "weak_priority")

# owner -> (its slot in a path's (program, buffer, ds) counts, its queue)
_PLACE = {PROGRAM: (0, Q2), BUFFER: (1, Q2), DS: (2, Q2), DS_FINAL: (2, Q1)}


class SimDeadlock(RuntimeError):
    """No ready nodes remain but suspended work exists."""

    def __init__(self, msg, blocked=()):
        super().__init__(msg)
        self.blocked = list(blocked)


class LockUsageError(RuntimeError):
    pass


class Call:
    """Run gen as one child task; owner defaults to the parent's."""

    __slots__ = ("gen", "owner")

    def __init__(self, gen, owner=None):
        self.gen = gen
        self.owner = owner


class Par:
    """Binary fork of two task generators on the parent's owner."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Acquire:
    __slots__ = ("lock", "key")

    def __init__(self, lock, key):
        self.lock = lock
        self.key = key


class Park:
    __slots__ = ("register",)

    def __init__(self, register):
        self.register = register


class _Task:
    """A task plus the state of its next node: ``path`` holds the (program,
    buffer, ds) node counts along that node's longest incoming path and is
    updated in place (its nodes count at ``path[axis]``), ``send`` is the
    value the node resumes the task with, ``ticks`` its stall ticks left;
    ``axis`` and ``queue`` follow from ``owner``. While the task waits on a
    ``Par``, ``need`` counts the branches still running, ``send`` collects
    their results and ``path`` is the first finisher's; a child finishing
    under a ``Par`` or ``Call`` reports to ``parent`` (at ``branch``, None
    for a ``Call``). ``nid`` is the next node's id, stamped with trace on
    only."""

    __slots__ = ("gen", "owner", "queue", "axis", "path", "send", "ticks",
                 "parent", "branch", "need", "nid")

    def __init__(self, gen, owner, path):
        self.gen = gen
        self.owner = owner
        self.axis, self.queue = _PLACE[owner]
        self.path = path
        self.send = None
        self.ticks = 0
        self.parent = None


class ParkHandle:
    """A suspended task; its path stays that of its suspension node until
    it is resumed."""

    __slots__ = ("task", "done")

    def __init__(self, task):
        self.task = task
        self.done = False


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
            },
            "p": self.p,
            "scheduler": self.scheduler,
        }


class Runtime:
    """Single-threaded deterministic simulator of a p-processor machine."""

    def __init__(self, p, scheduler="greedy", trace=False):
        if type(p) is not int or p < 4:
            raise ValueError(f"p must be an integer >= 4, got {p!r}")
        if scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {scheduler!r}")
        if scheduler == "weak_priority" and p % 2:
            raise ValueError("weak_priority requires even p")
        self.p = p
        self.scheduler = scheduler
        self.metrics = ExecutionMetrics(p=p, scheduler=scheduler)
        self.trace = [] if trace else None
        self.step_stats = [] if trace else None
        self.now = 0
        self.current_slot = 0
        self._locks = {}         # every lock a task has parked on, in order
        self._ids = 0            # ids handed out before this step (traced)
        self._staged = []        # tasks staged this step, in node-id order
        self._staged_q1 = 0      # Q1 tasks in _staged
        self._parked = 0
        self._spans = [0, 0, 0]
        self._cur_task = None    # the task whose code is running

    # -- task creation -------------------------------------------------------

    def spawn_root(self, gen, owner=PROGRAM):
        task = _Task(gen, owner, [0, 0, 0])
        task.nid = self._ids + len(self._staged)
        self._stage(task)
        return task

    @property
    def current_path(self):
        """(program, buffer, ds) node counts along the executing node's
        longest incoming path; task code may sample it between yields."""
        return tuple(self._cur_task.path)

    def _stage(self, task):
        self._staged.append(task)
        if task.queue == Q1:
            self._staged_q1 += 1

    def _spawn(self, gen, parent, owner=None):
        """Stage a child of parent from its path, on its owner by default."""
        task = _Task(gen, owner or parent.owner, parent.path[:])
        self._stage(task)
        return task

    # -- in-node operations (called from task code between yields) ------------

    def resume(self, handle, value):
        """Resume a parked task; the resumption node is a child of both the
        current node and the suspension node."""
        if handle.done:
            raise LockUsageError("double resume of a parked task")
        handle.done = True
        self._parked -= 1
        task = handle.task
        task.path = list(map(max, task.path, self._cur_task.path))
        task.send = value
        self._stage(task)

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

    def detach(self, gen, owner=None):
        """Spawn a fire-and-forget child of the current node."""
        self._spawn(gen, self._cur_task, owner)

    # -- main loop -------------------------------------------------------------

    def run(self):
        m = self.metrics
        p = self.p
        half = p // 2
        quota = p if self.scheduler == "greedy" else half
        stats = self.step_stats
        traced = self.trace is not None
        work, spans = m.work, self._spans
        start = self.now
        busy = 0                 # high-busy steps
        ready, n1 = self._staged, self._staged_q1
        staged = self._staged = []
        self._staged_q1 = 0
        self._ids += len(ready)
        while ready:
            n = len(ready)
            high_busy = n1 >= half
            if n <= p and n1 <= quota and n - n1 <= quota:
                batch, ready, q1_exec = ready, None, n1
            else:
                batch, ready, q1_exec = _pick(ready, p, quota)
            if stats is not None:
                stats.append((n1, n - n1, q1_exec, len(batch) - q1_exec))
            n1 -= q1_exec
            k = 1
            if ready is None and not traced:
                for task in batch:
                    if not task.ticks:
                        break
                else:
                    k = min([task.ticks for task in batch])
            self._run_batch(batch, k)
            if high_busy:
                busy += k
            self.now += k
            if traced:
                for nid, task in enumerate(staged, self._ids):
                    task.nid = nid
                self._ids += len(staged)
            if ready is None:
                batch.clear()
                ready, staged = staged, batch
                self._staged = staged
            else:
                ready += staged
                staged.clear()
            n1 += self._staged_q1
            self._staged_q1 = 0
        steps = self.now - start
        m.steps += steps
        m.high_busy_steps += busy
        m.high_idle_steps += steps - busy
        if self._parked:
            blocked = [(lk.name, lk.waiters()) for lk in self._locks if lk.waiters()]
            raise SimDeadlock(
                f"{self._parked} suspended task(s) with no ready nodes; "
                f"blocked locks: {blocked}",
                blocked=blocked,
            )
        m.t1 = work.get(PROGRAM, 0)
        m.t_inf = spans[0]
        m.buffer_work = work.get(BUFFER, 0)
        m.buffer_span = spans[1]
        m.ds_work = work.get(DS, 0) + work.get(DS_FINAL, 0)
        m.ds_span = spans[2]
        return m

    def _run_batch(self, batch, k):
        """Execute one step's batch in id order, recording each node when
        trace is on. With k > 1 the batch is the whole ready set and every
        node in it a stall tick with at least k ticks left: run k such steps
        at once, each task charged k nodes and restaged once, in order.

        A batch of one task is the whole ready set: one ``_pick`` builds
        holds at least 2 tasks (p >= 4, every quota >= 2). With trace off
        its code nodes run back to back while each yields an int c and
        stages nothing, each c charged as c steps: its c - 1 ticks and its
        next code node. ``now`` and the task's path grow at each c, as task
        code reads them; its work and the span once the chain ends."""
        work, spans, trace = self.metrics.work, self._spans, self.trace
        now = self.now
        if trace is not None:
            trace.extend([(now, t.nid, t.owner, t.queue) for t in batch])
        lone = trace is None and len(batch) == 1
        staged = self._staged
        for slot, task in enumerate(batch):
            s, path, owner = task.axis, task.path, task.owner
            path[s] += k
            work[owner] = work.get(owner, 0) + k
            if path[s] > spans[s]:
                spans[s] = path[s]
            if task.ticks:
                task.ticks -= k
            else:
                self.current_slot = slot
                self._cur_task = task
                send, task.send = task.send, None
                gen = task.gen
                try:
                    while True:
                        effect = gen.send(send)
                        if not lone or type(effect) is not int or staged:
                            break
                        send = None
                        path[s] += effect
                        self.now += effect
                except StopIteration as stop:
                    self._finish(task, stop.value)
                    continue
                if type(effect) is not int:
                    self._dispatch(task, effect)
                    continue
                if effect > 1:
                    task.ticks = effect - 1
            staged.append(task)
            if task.queue == Q1:
                self._staged_q1 += 1
        if lone:
            # the lone task's chained nodes, charged once
            work[owner] += self.now - now
            if path[s] > spans[s]:
                spans[s] = path[s]

    def _dispatch(self, task, effect):
        """Apply an effect other than an int that task yielded at its
        current node."""
        if isinstance(effect, Par):
            left = self._spawn(effect.left, task)
            right = self._spawn(effect.right, task)
            left.parent = right.parent = task
            left.branch, right.branch = 0, 1
            task.need = 2
            task.send = [None, None]
        elif isinstance(effect, Call):
            child = self._spawn(effect.gen, task, effect.owner)
            child.parent = task
            child.branch = None
        elif isinstance(effect, Acquire):
            lock, key = effect.lock, effect.key
            if not 1 <= key <= lock.k:
                raise LockUsageError(f"key {key} out of range for lock {lock.name}")
            if lock.count:
                if key == lock.holder:
                    raise LockUsageError(
                        f"key {key} of lock {lock.name} is already held")
                if lock.slots[key] is not None:
                    raise LockUsageError(
                        f"duplicate key {key} among concurrent acquirers of {lock.name}")
            lock.count += 1
            if lock.count == 1:
                lock.holder = key
                self._stage(task)
            else:
                lock.slots[key] = ParkHandle(task)
                self._parked += 1
                self._locks[lock] = None
        elif isinstance(effect, Park):
            handle = ParkHandle(task)
            self._parked += 1
            effect.register(handle)
        else:
            raise TypeError(f"task yielded unsupported effect {effect!r}")

    def _finish(self, task, value):
        """Report a finished task's value to the task waiting on it."""
        parent = task.parent
        if parent is None:
            return
        if task.branch is None:
            parent.send = value
            parent.path = task.path
        else:
            parent.send[task.branch] = value
            parent.need -= 1
            if parent.need:
                parent.path = task.path
                return
            a, b = parent.path, task.path
            parent.path = [a[0] if a[0] > b[0] else b[0],
                           a[1] if a[1] > b[1] else b[1],
                           a[2] if a[2] > b[2] else b[2]]
            parent.send = tuple(parent.send)
        self._stage(parent)


def _pick(ready, p, quota):
    """Split an id-ordered ready list into the first p tasks with at most
    quota from each queue and the rest, both still in id order; also return
    the number of Q1 tasks picked."""
    batch, rest = [], []
    left = [0, quota, quota]     # picks left per queue, indexed by Q1, Q2
    for task in ready:
        if left[task.queue] and len(batch) < p:
            left[task.queue] -= 1
            batch.append(task)
        else:
            rest.append(task)
    return batch, rest, quota - left[Q1]


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
    return merge(left, right, key)


def merge(left, right, key):
    """Stable merge of two key-sorted lists; ties keep left's items first."""
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


class ActivationGate:
    """Non-blocking-lock guard that runs a process iff it is not already
    running and its readiness predicate holds, and again after each run
    while the predicate holds (the process's return value is ignored).

    `held` is the lock's test-and-set bit, atomic at node granularity. The
    try-lock, the readiness check, and (on a negative check) the unlock all
    happen inside one node, as do a run's unlock and re-check, so an
    activator that first makes the predicate true can never be lost.
    """

    __slots__ = ("held", "ready", "process")

    def __init__(self, ready, process):
        self.held = False
        self.ready = ready
        self.process = process

    def activate(self):
        while not self.held:
            self.held = True
            if not self.ready():
                self.held = False
                return
            yield from self.process()
            self.held = False

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
* ``Acquire(lock, key)`` -- blocking acquire of a dedicated lock,
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
allocates an entry of its own. A step that runs every ready node (greedy:
at most p ready; weak priority: at most p/2 in each queue) takes the whole
list, which trades places with the staging list; a contended greedy step
takes the first p tasks, and a contended weak-priority step takes, in one
pass, the first p/2 of each queue and leaves the rest in order.

With trace on, ``run`` steps one node at a time through ``_run_batch``,
the reference. With trace off it runs a step's nodes inline (a stall tick
only charges its node and restages its task) and takes two shortcuts where
no task code could see the difference:

* when a step would run every ready node and each of them is a stall tick,
  it skips k such steps at once, k being the fewest ticks left;
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


class Par:
    """Binary fork; each branch is a task generator or a ``Sub``."""

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
    updated in place (its nodes count at ``path[axis]``), ``send`` is the value the node resumes the task with,
    ``ticks`` its stall ticks left. While the task waits on a ``Par``,
    ``need`` counts the branches still running, ``send`` collects their
    results and ``path`` is the first finisher's; a child finishing under a
    ``Par`` or ``Call`` reports to ``parent`` (at ``branch``, None for a
    ``Call``). ``nid`` is the next node's id, stamped with trace on only."""

    __slots__ = ("gen", "owner", "queue", "axis", "path", "send", "ticks",
                 "parent", "branch", "need", "nid")

    def __init__(self, gen, owner, queue, path):
        self.gen = gen
        self.owner = owner
        self.queue = queue
        self.axis = _PATH_SLOT[owner]
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

    def __init__(self, p, scheduler="greedy", trace=False):
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
        self.filter_probe = None  # filter size callable, read once per step
        self.now = 0
        self.current_slot = 0
        self._locks = []
        self._ids = 0            # ids handed out before this step (traced)
        self._staged = []        # tasks staged this step, in node-id order
        self._staged_q1 = 0      # Q1 tasks in _staged
        self._parked = 0
        self._spans = [0, 0, 0]
        self._cur_task = None    # the task whose code is running

    # -- task creation -------------------------------------------------------

    def spawn_root(self, gen, owner=PROGRAM, queue=Q2):
        task = _Task(gen, owner, queue, [0, 0, 0])
        task.nid = self._ids + len(self._staged)
        self._stage(task)
        return task

    def register_lock(self, lock):
        self._locks.append(lock)
        return lock

    @property
    def current_path(self):
        """(program, buffer, ds) node counts along the executing node's
        longest incoming path; task code may sample it between yields."""
        return tuple(self._cur_task.path)

    def _stage(self, task):
        self._staged.append(task)
        if task.queue == Q1:
            self._staged_q1 += 1

    def _spawn(self, spec, parent, path):
        """Stage a child of parent for spec, a task generator or a Sub."""
        if isinstance(spec, Sub):
            task = _Task(spec.gen, spec.owner or parent.owner,
                         spec.queue or parent.queue, path)
        else:
            task = _Task(spec, parent.owner, parent.queue, path)
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

    def detach(self, gen, owner=None, queue=None):
        """Spawn a fire-and-forget child of the current node."""
        cur = self._cur_task
        self._spawn(Sub(gen, owner, queue), cur, cur.path[:])

    # -- main loop -------------------------------------------------------------

    def run(self):
        m = self.metrics
        p = self.p
        half = p // 2
        greedy = self.scheduler == "greedy"
        probe = self.filter_probe
        stats = self.step_stats
        traced = self.trace is not None
        work, spans = m.work, self._spans
        start = self.now
        busy = full = 0          # high-busy and filter-full steps
        ready, n1 = self._staged, self._staged_q1
        staged = self._staged = []
        self._staged_q1 = 0
        self._ids += len(ready)
        while ready:
            n = len(ready)
            high_busy = n1 >= half
            filter_full = probe is not None and probe() >= p
            if (n <= p) if greedy else (n1 <= half and n - n1 <= half):
                batch, ready, q1_exec = ready, None, n1
            elif greedy:
                batch = ready[:p]
                del ready[:p]
                q1_exec = sum(1 for task in batch if task.queue == Q1)
            else:
                batch, ready = _pick_quota(ready, half)
                q1_exec = min(n1, half)
            if stats is not None:
                stats.append((n1, n - n1, q1_exec, len(batch) - q1_exec))
            n1 -= q1_exec
            k = 1
            if traced:
                self._run_batch(batch)
            elif n == 1 and not batch[0].ticks:
                # A lone task about to run code: run its code nodes back to
                # back while each yields an int c and stages nothing, i.e.
                # while each is followed by c - 1 steps of its own ticks and
                # then its next code node, with the ready set one task.
                task = batch[0]
                s, path, gen = task.axis, task.path, task.gen
                self.current_slot = 0
                self._cur_task = task
                send, task.send = task.send, None
                before = path[s]
                while True:
                    path[s] += 1
                    try:
                        effect = gen.send(send)
                    except StopIteration as stop:
                        self._finish(task, stop.value)
                        break
                    if type(effect) is not int:
                        self._dispatch(task, effect)
                        break
                    if staged:
                        task.ticks = effect - 1
                        self._stage(task)
                        break
                    send = None
                    path[s] += effect - 1
                    if filter_full:
                        full += 1
                    if effect > 1 and probe is not None and probe() >= p:
                        full += effect - 1
                    self.now += effect
                    filter_full = probe is not None and probe() >= p
                work[task.owner] = work.get(task.owner, 0) + path[s] - before
                if path[s] > spans[s]:
                    spans[s] = path[s]
            else:
                if ready is None:
                    for task in batch:
                        if not task.ticks:
                            break
                    else:
                        k = min([task.ticks for task in batch])
                if k > 1:
                    # every ready node is a stall tick for k steps: no task
                    # code runs, and each task is restaged k times in order
                    for task in batch:
                        s, path = task.axis, task.path
                        path[s] += k
                        work[task.owner] = work.get(task.owner, 0) + k
                        if path[s] > spans[s]:
                            spans[s] = path[s]
                        task.ticks -= k
                    batch, staged = staged, batch
                    self._staged, self._staged_q1 = staged, q1_exec
                else:
                    for slot, task in enumerate(batch):
                        s, path, owner = task.axis, task.path, task.owner
                        path[s] += 1
                        work[owner] = work.get(owner, 0) + 1
                        if path[s] > spans[s]:
                            spans[s] = path[s]
                        if task.ticks:
                            task.ticks -= 1
                        else:
                            self.current_slot = slot
                            self._cur_task = task
                            send, task.send = task.send, None
                            try:
                                effect = task.gen.send(send)
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
            if high_busy:
                busy += k
            if filter_full:
                full += k
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
        if probe is not None:
            m.filter_full_steps += full
            m.filter_empty_steps += steps - full
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

    def _run_batch(self, batch):
        """Execute one step's batch in id order, one node at a time and
        recorded in the trace: the reference the untraced loop in run must
        match."""
        work, spans = self.metrics.work, self._spans
        for slot, task in enumerate(batch):
            self.current_slot = slot
            s, path = task.axis, task.path
            path[s] += 1
            self._cur_task = task
            work[task.owner] = work.get(task.owner, 0) + 1
            if path[s] > spans[s]:
                spans[s] = path[s]
            self.trace.append((self.now, task.nid, task.owner, task.queue))
            if task.ticks:
                task.ticks -= 1
                self._stage(task)
                continue
            send, task.send = task.send, None
            try:
                effect = task.gen.send(send)
            except StopIteration as stop:
                self._finish(task, stop.value)
                continue
            if type(effect) is int:
                if effect > 1:
                    task.ticks = effect - 1
                self._stage(task)
            else:
                self._dispatch(task, effect)

    def _dispatch(self, task, effect):
        """Apply an effect other than an int that task yielded at its
        current node."""
        if isinstance(effect, Par):
            path = task.path
            left = self._spawn(effect.left, task, path[:])
            right = self._spawn(effect.right, task, path[:])
            left.parent = right.parent = task
            left.branch, right.branch = 0, 1
            task.need = 2
            task.send = [None, None]
        elif isinstance(effect, Call):
            child = self._spawn(effect, task, task.path[:])
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


def _pick_quota(ready, quota):
    """Split an id-ordered ready list into the first quota tasks of each
    queue and the rest, both still in id order."""
    batch, rest = [], []
    left1 = left2 = quota
    for task in ready:
        if task.queue == Q1:
            if left1:
                left1 -= 1
                batch.append(task)
                continue
        elif left2:
            left2 -= 1
            batch.append(task)
            continue
        rest.append(task)
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
    running and its readiness predicate holds; honors self-reactivation.

    `held` is the lock's test-and-set bit, atomic at node granularity. The
    try-lock, the readiness check, and (on a negative check) the unlock all
    happen inside one node, so an activator that first makes the predicate
    true can never be lost.
    """

    __slots__ = ("held", "ready", "process", "name")

    def __init__(self, ready, process, name=""):
        self.held = False
        self.ready = ready
        self.process = process
        self.name = name

    def activate(self):
        while True:
            if self.held:
                return
            self.held = True
            if not self.ready():
                self.held = False
                return
            reactivate = yield from self.process()
            self.held = False
            if not reactivate:
                return
            # retry happens in the same node as the unlock: no lost wakeups

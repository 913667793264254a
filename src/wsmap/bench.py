"""Workload generation, experiment driving, and bound checking.

A workload spec describes a reproducible program DAG of map calls (parallel
chains of serial calls). run_experiment executes it against a chosen
structure, extracts the structure's linearization, replays it on the
reference map, and emits a report whose lines compare measured work/span
against the frozen calibration constants at 1.5x slack.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import asdict, dataclass, field, fields

from .batched import BatchedWorkingSetMap
from .calibration import SLACK, frozen_constants
from .core import (
    CmpCounter, DELETE, INSERT, KINDS, Key, Operation, OpResult, SEARCH, UPDATE,
    access_ranks, oracle_replay, validate_batch_preserving, working_set_bound,
)
from .pipelined import PipelinedWorkingSetMap
from .runtime import Runtime, par_map
from .seqmap import SeqWorkingSetMap

GENERATORS = ("uniform", "zipf", "hotset", "coldest")
STRUCTURES = ("m0", "m1", "m2")
# each parallel structure's map class and default scheduler
PARALLEL_MAPS = {"m1": (BatchedWorkingSetMap, "greedy"),
                 "m2": (PipelinedWorkingSetMap, "weak_priority")}
# (structure, bounded report line) -> the frozen constant that bounds it
LINE_CONSTANTS = {
    ("m0", "m0_working_set_bound"): "m0_steps_per_wl",
    ("m1", "effective_work_bound"): "m1_work",
    ("m1", "effective_span_bound"): "m1_span",
    ("m1", "buffer_cost_bound"): "pbuffer_cost",
    ("m2", "effective_work_bound"): "m2_work",
    ("m2", "effective_span_bound"): "m2_span",
    ("m2", "buffer_cost_bound"): "pbuffer_cost",
    ("m2", "front_access_bound"): "m2_fl_delay",
}

@dataclass
class WorkloadSpec:
    generator: str = "uniform"
    n_ops: int = 1000
    universe: int = 256
    mix: dict = field(default_factory=lambda: {
        "search": 0.5, "insert": 0.3, "delete": 0.1, "update": 0.1})
    width: int = 4
    seed: int = 0
    p: int = 8
    zipf_s: float = 1.0
    hot_window: int = 8
    name: str = ""

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        for name in ("n_ops", "universe", "width", "hot_window"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if type(self.p) is not int or self.p < 4 or self.p % 2:
            raise ValueError(f"p must be an even integer >= 4 (the weak-priority "
                             f"scheduler gives each queue p/2 slots), got {self.p!r}")
        if not isinstance(self.mix, dict):
            raise ValueError(f"op mix must be an object, got {self.mix!r}")
        unknown = sorted(set(self.mix) - set(KINDS))
        if unknown:
            raise ValueError(f"unknown op kind(s) in mix: {unknown}; "
                             f"expected a subset of {list(KINDS)}")
        for kind, weight in self.mix.items():
            if type(weight) not in (int, float) or not weight >= 0:
                raise ValueError(f"mix weight of {kind!r} must be a number "
                                 f">= 0, got {weight!r}")
        if abs(sum(self.mix.values()) - 1.0) > 1e-9:
            raise ValueError("op mix must sum to 1")
        s = self.zipf_s
        if type(s) not in (int, float) or not -math.inf < s < math.inf:
            raise ValueError(f"zipf_s must be a finite number, got {s!r}")
        # keep universe ** zipf_s, the zipf generator's largest weight
        # divisor, a finite float well above 1
        if s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {s!r}")
        if self.universe > 1 and s > 1000 / math.log2(self.universe):
            raise ValueError(f"zipf_s must be <= 1000 / log2(universe) = "
                             f"{1000 / math.log2(self.universe):.4g} for "
                             f"universe {self.universe}, got {s!r}")
        if type(self.name) is not str:
            raise ValueError(f"name must be a string, got {self.name!r}")

    @staticmethod
    def from_json(text):
        """Parse a spec; any malformed input raises ValueError."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a workload spec must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(WorkloadSpec)})
        if unknown:
            raise ValueError(f"unknown workload spec field(s): {unknown}")
        return WorkloadSpec(**data)

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    @property
    def depth(self):
        """Max map calls on any program-DAG path, by construction."""
        return math.ceil(self.n_ops / self.width)


def _key_stream(spec, rnd):
    if spec.generator == "uniform":
        while True:
            yield rnd.randrange(spec.universe)
    elif spec.generator == "zipf":
        weights = [1.0 / (i + 1) ** spec.zipf_s for i in range(spec.universe)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        # the float-summed last entry can fall short of a random() draw
        last = spec.universe - 1
        while True:
            yield min(bisect.bisect_left(cumulative, rnd.random()), last)
    else:   # hotset; coldest generates keys op by op elsewhere
        recent = []
        while True:
            if recent and rnd.random() < 0.9:
                yield rnd.choice(recent[-spec.hot_window:])
            else:
                k = rnd.randrange(spec.universe)
                recent.append(k)
                yield k


def generate(spec, ctr=None):
    """Deterministic list of chains of Operations for the spec."""
    rnd = random.Random(spec.seed)
    ctr = ctr or CmpCounter()
    kinds = []
    # a draw past the float-summed weights takes the last drawable kind
    last = [k for k in KINDS if spec.mix.get(k, 0.0) > 0][-1]
    for i in range(spec.n_ops):
        r = rnd.random()
        acc = 0.0
        kind = last
        for k in KINDS:
            acc += spec.mix.get(k, 0.0)
            if r < acc:
                kind = k
                break
        kinds.append(kind)
    ops = []
    if spec.generator == "coldest":
        # track simulated recency so searches always hit the globally least
        # recent present key (deletes/updates target it as well)
        recency = []   # most recent last
        next_new = 0
        for i, kind in enumerate(kinds):
            if kind != INSERT and not recency:
                kind = INSERT
            if kind == INSERT:
                k = next_new
                next_new += 1
                recency.append(k)
            else:
                k = recency.pop(0)
                if kind != DELETE:
                    recency.append(k)
            payload = i if kind in (INSERT, UPDATE) else None
            ops.append(Operation(i, kind, Key(k, ctr), payload))
    else:
        stream = _key_stream(spec, rnd)
        for i, kind in enumerate(kinds):
            k = next(stream)
            payload = i if kind in (INSERT, UPDATE) else None
            ops.append(Operation(i, kind, Key(k, ctr), payload))
    d = spec.depth
    return [ops[i:i + d] for i in range(0, len(ops), d)]


def chain_weighted_span(chains, rank_by_id):
    """s_L for a chains-shaped program DAG: each map call weighted
    log2(rank) + 1; the heaviest chain is the weighted span."""
    best = 0.0
    for chain in chains:
        total = 0.0
        for op in chain:
            total += math.log2(rank_by_id[op.op_id]) + 1.0
        best = max(best, total)
    return best


@dataclass
class Report:
    structure: str
    spec: dict
    scheduler: str
    bound_report: dict
    metrics: dict
    ratios: dict
    lines: list

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(text):
        """Parse a report; any malformed input raises ValueError."""
        data = json.loads(text)
        names = sorted(f.name for f in fields(Report))
        if not isinstance(data, dict) or sorted(data) != names:
            raise ValueError(f"a report must be a JSON object with the "
                             f"fields {names}")
        lines = data["lines"]
        if not isinstance(lines, list) or not all(
                isinstance(line, dict)
                and type(line.get("name")) is str
                and type(line.get("passed")) is bool
                and type(line.get("value")) in (int, float, bool)
                and type(line.get("bound", 0)) in (int, float)
                for line in lines):
            raise ValueError("report lines must be objects with a string "
                             "name, a boolean passed, a number value and, "
                             "if any, a number bound")
        return Report(**data)

    def failed(self):
        return [line for line in self.lines if not line["passed"]]


def _line(name, passed, value, bound=None):
    entry = {"name": name, "passed": bool(passed), "value": value}
    if bound is not None:
        entry["bound"] = bound
    return entry


def _run_serial(chains):
    """M0 executes the chains in program order; returns (map, ops in order,
    results by op id, instrumented steps)."""
    ops = [op for chain in chains for op in chain]
    m = SeqWorkingSetMap()
    ctr = ops[0].key.ctr if ops else CmpCounter()
    c0 = ctr.count
    out = {}
    for op in ops:
        if op.kind == SEARCH:
            found, val = m.search(op.key)
        elif op.kind == INSERT:
            found, val = m.insert(op.key, op.payload)
        elif op.kind == UPDATE:
            found, val = m.update(op.key, op.payload)
        else:
            found, val = m.delete(op.key)
        out[op.op_id] = OpResult(found, val)
    steps = m.steps + (ctr.count - c0)
    return m, ops, out, steps


def _run_parallel(m, chains):
    """Drive the chains through a parallel map on its runtime, serial within
    a chain and the chains in parallel; returns (results by op id,
    metrics)."""
    results = {}

    def chain_task(ops):
        for op in ops:
            results[op.op_id] = yield from m.call(op)

    m.rt.spawn_root(par_map(chains, chain_task))
    return results, m.rt.run()


def run_experiment(spec, structure, scheduler=None, audit=True):
    """Execute the workload on a structure and report every bound line."""
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    if structure not in PARALLEL_MAPS and scheduler is not None:
        raise ValueError(f"{structure} runs serially and takes no scheduler")
    ctr = CmpCounter()
    chains = generate(spec, ctr)
    frozen = frozen_constants()
    lines = []
    ratios = {}
    p = spec.p
    logp = math.log2(p)

    def bounded(name, ratio_key, value, normaliser, asserted):
        ratio = value / max(normaliser, 1.0)
        ratios[ratio_key] = ratio
        bound = SLACK * frozen[LINE_CONSTANTS[structure, name]]
        lines.append(_line(name, ratio <= bound or not asserted, ratio, bound))

    if structure == "m0":
        scheduler = "serial"
        m, lin_ops, results, steps = _run_serial(chains)
        if audit:
            m.audit()
    else:
        map_cls, default = PARALLEL_MAPS[structure]
        scheduler = scheduler or default
        m = map_cls(Runtime(p=p, scheduler=scheduler))
        m.audit = bool(audit)
        results, metrics = _run_parallel(m, chains)
        if structure == "m2":
            # in-run audits never find M2 quiescent; the end of the run is
            m._maybe_audit()
        lin_ops = m.extract_linearization()
    ranks = access_ranks(lin_ops)
    rep = working_set_bound(lin_ops, p=p, ranks=ranks)
    expected = oracle_replay(lin_ops)
    equal = len(lin_ops) == spec.n_ops and all(
        results[op.op_id] == r for op, r in zip(lin_ops, expected))
    lines.append(_line("equivalence", equal, int(equal)))

    if structure == "m0":
        bounded("m0_working_set_bound", "steps_per_wl", steps, rep.w_l, True)
        metrics_dict = {"instrumented_steps": steps}
    else:
        if structure == "m1":
            lines.append(_line(
                "batch_preserving",
                validate_batch_preserving(m.cut_batches, lin_ops), 1))
        assert_bounds = structure == "m1" or scheduler == "weak_priority"
        bounded("effective_work_bound", "work_per_bound", metrics.ds_work,
                rep.w_l + rep.e_l * logp, assert_bounds)
        d = spec.depth
        if structure == "m1":
            span_bound = spec.n_ops / p + d * (logp ** 2
                                               + math.log2(rep.n_max + 1))
        else:
            rank_by_id = {op.op_id: r for op, r in zip(lin_ops, ranks)}
            s_l = chain_weighted_span(chains, rank_by_id)
            span_bound = rep.w_l / p + d * logp ** 2 + s_l
            ratios["s_l"] = s_l
        bounded("effective_span_bound", "span_per_bound", metrics.ds_span,
                span_bound, assert_bounds)
        bounded("buffer_cost_bound", "buffer_cost_per_bound",
                metrics.buffer_work / p + metrics.buffer_span,
                (metrics.t1 + metrics.ds_work) / p + d * max(logp, 1.0), True)
        metrics_dict = metrics.to_dict()

    if structure == "m2":
        steps = metrics_dict["steps"]
        steps["filter_full"] = m.filter_full_steps()
        steps["filter_empty"] = steps["total"] - steps["filter_full"]
        worst = max((delay / 2 ** k for k, delay in m.fl_delays), default=0.0)
        bounded("front_access_bound", "front_access_per_2k", worst, 1, True)
        lines.append(_line("trapped_ops", True, m.trapped_ops))

    bound_report = {"W_L": rep.w_l, "e_L": rep.e_l, "N": rep.n_ops}
    return Report(structure, asdict(spec), scheduler, bound_report,
                  metrics_dict, ratios, lines)


def render_table(report):
    """Trivial fixed-width table of a report's lines."""
    rows = [("line", "value", "bound", "pass")]
    for line in report.lines:
        rows.append((line["name"],
                     f"{line['value']:.4g}" if isinstance(line["value"], float)
                     else str(line["value"]),
                     f"{line.get('bound', ''):.4g}" if "bound" in line else "",
                     "ok" if line["passed"] else "FAIL"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    out = []
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(out)

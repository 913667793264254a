"""wsmap benchmark: host throughput and simulated cost, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload hot_zipf_m1 --seed 1 --seconds 30 --trace 0

A run derives SUB_SEEDS workload specs from --seed (spec seeds seed,
seed + SEED_STRIDE, ...). Each goes through wsmap.bench.run_experiment,
the path `wsmap run` takes, with audits on. The run then keeps cycling
through the same specs until --seconds have passed. Every sample is
checked: the equivalence and batch-preservation lines pass, the workload's
coverage guards hold, and a repeated spec yields a byte-identical report.

--trace 0 prints the end-to-end metrics of BENCHMARK.json and, as
'metric' lines only, the raw ops_per_s and ops_per_cpu_s and the
structure's other report ratios. --trace 1 alternates span-only and
profiled samples, prints the per-layer metrics and writes the spans to
.perfbench_out/ at exit. perfbench/notes.json defines every metric. All
numbers are taken from outside the package: wrappers around its public
calls, the objects a run creates, and cProfile.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. attempted counts the report lines checked (one report
per derived spec) and failed the lines that did not pass, so failed /
attempted is the run's lines_failed_ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import heapq
import itertools
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = HERE / "workloads"
OUT_DIR = ROOT / ".perfbench_out"

# Several specs per run, so one unlucky seed moves a median less.
SUB_SEEDS = 8
SEED_STRIDE = 1_000_000
SETUP_PROBES = 9
# Reference loop: REF_TASKS generator tasks of REF_STEPS steps each.
REF_TASKS = 1024
REF_STEPS = 40
PROBE_TIMEOUT_S = 60

# Report lines that check the map's outputs rather than a cost bound.
OUTPUT_LINES = ("equivalence", "batch_preserving")

END_TO_END = {
    "setup_s": "s",
    "ops_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "work_per_bound": "ratio",
    "span_per_bound": "ratio",
}

MODULES = ("runtime", "tree23", "pipelined", "batched", "sortlib", "segments",
           "pbuffer", "seqmap", "core", "builtins")
SELF_METRICS = tuple(f"{mod}.self_s" for mod in MODULES)
COUNT_METRICS = (
    "runtime.steps", "runtime.nodes", "runtime.slot_util",
    "runtime.high_idle_share", "tree23.meter_steps",
    "pipelined.final_segments", "pipelined.ds_final_work",
    "pipelined.fl_accesses", "pipelined.trapped_ops",
    "pipelined.front_access_per_2k", "batched.cut_batches",
    "batched.ops_per_cut", "pbuffer.work", "pbuffer.span",
    "pbuffer.cost_per_bound", "seqmap.steps", "core.comparisons",
)
# span name -> per-layer metric its duration adds to
SPAN_METRIC = {
    "generate": "bench.generate_s",
    "Runtime.run": "bench.simulate_s",
    "serial_driver": "bench.simulate_s",
    "extract_linearization": "bench.linearize_s",
    "working_set_bound": "core.bound_s",
    "access_ranks": "core.bound_s",
    "oracle_replay": "core.verify_s",
    "validate_batch_preserving": "core.verify_s",
}
SIMULATE_SPANS = ("Runtime.run", "serial_driver")
SPAN_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values())) + ("runtime.us_per_step",)

PER_LAYER = {name: "s" for name in SELF_METRICS + SPAN_METRICS}
PER_LAYER.update({name: "count" for name in COUNT_METRICS})
PER_LAYER.update({
    "runtime.us_per_step": "us",
    "runtime.slot_util": "ratio",
    "runtime.high_idle_share": "ratio",
    "pipelined.front_access_per_2k": "ratio",
    "batched.ops_per_cut": "ratio",
    "pbuffer.cost_per_bound": "ratio",
    "trace.overhead_ratio": "ratio",
})


def load_wsmap():
    """Import wsmap from this checkout's src/, and only from there."""
    if not (SRC / "wsmap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wsmap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wsmap
    import wsmap.bench
    import wsmap.runtime
    if Path(wsmap.__file__).resolve().parent != SRC / "wsmap":
        sys.exit(f"perfbench: imported wsmap from {wsmap.__file__}, "
                 f"not from {SRC}")
    return SimpleNamespace(
        bench=wsmap.bench,
        Runtime=wsmap.Runtime,
        Batched=wsmap.BatchedWorkingSetMap,
        Pipelined=wsmap.PipelinedWorkingSetMap,
        Seq=wsmap.SeqWorkingSetMap,
        DS_FINAL=wsmap.runtime.DS_FINAL,
    )


def derived_specs(ws, workload, seed, n_ops=None):
    specs = []
    for i in range(SUB_SEEDS):
        fields = dict(workload["spec"], seed=seed + i * SEED_STRIDE)
        if n_ops is not None:
            fields["n_ops"] = n_ops
        specs.append(ws.bench.WorkloadSpec(**fields))
    return specs


def probe_setup(spec_json):
    """Seconds from starting a fresh interpreter until it has imported
    wsmap, loaded the spec and generated the inputs."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), spec_json],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {code})")
    return elapsed


class _RefNode:
    __slots__ = ("node_id", "value")

    def __init__(self, node_id, value):
        self.node_id = node_id
        self.value = value


def _ref_task(steps):
    total = 0
    for i in range(steps):
        total += (yield i) or 0
    return total


def reference_s():
    """Seconds one fixed pure-Python loop takes on this host right now.

    The loop is shaped like the simulator's inner loop: generator tasks
    stepped in node-id order through a heap, one small object allocated per
    step. On a shared host the speed of Python code drifts by tens of
    percent over minutes; timing this loop next to every sample and
    reporting calls per reference loop (ops_per_ref) cancels that drift.
    """
    start = time.perf_counter()
    heap = [(i, _ref_task(REF_STEPS), None) for i in range(REF_TASKS)]
    next_id = REF_TASKS
    kept = {}
    while heap:
        _, task, value = heapq.heappop(heap)
        try:
            value = task.send(value)
        except StopIteration:
            continue
        kept[next_id & 4095] = _RefNode(next_id, value)
        heapq.heappush(heap, (next_id, task, value))
        next_id += 1
    return time.perf_counter() - start


class Recorder:
    """What one run_experiment call did: the runtimes and maps it built and,
    when traced, spans around run_experiment's calls into each layer, the
    results of those calls, and a profile of the simulate span."""

    def __init__(self, ws, run_id=None, profile=False):
        self.ws = ws
        self.run_id = run_id
        self.profiler = cProfile.Profile() if profile else None
        self.runtimes = []
        self.maps = []
        self.spans = []
        self.results = {}
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name, "run_id": self.run_id,
                  "parent": self._open[-1]["id"] if self._open else None}
        self.spans.append(record)
        self._open.append(record)
        profiled = self.profiler is not None and name in SIMULATE_SPANS
        record["start"] = time.perf_counter()
        if profiled:
            self.profiler.enable()
        try:
            yield
        finally:
            if profiled:
                self.profiler.disable()
            record["end"] = time.perf_counter()
            self._open.pop()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.results[name] = result
            return result
        return wrapper

    @contextlib.contextmanager
    def attached(self):
        ws = self.ws

        def recording(init, store):
            def __init__(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                store.append(obj)
            return __init__

        with contextlib.ExitStack() as stack:
            def patch(owner, attr, replacement):
                stack.enter_context(mock.patch.object(owner, attr, replacement))

            patch(ws.Runtime, "__init__",
                  recording(ws.Runtime.__init__, self.runtimes))
            for cls in (ws.Batched, ws.Pipelined, ws.Seq):
                patch(cls, "__init__", recording(cls.__init__, self.maps))
            if self.run_id is not None:
                patch(ws.Runtime, "run",
                      self._spanned("Runtime.run", ws.Runtime.run))
                patch(ws.bench, "_run_serial",
                      self._spanned("serial_driver", ws.bench._run_serial))
                for cls in (ws.Batched, ws.Pipelined):
                    patch(cls, "extract_linearization",
                          self._spanned("extract_linearization",
                                        cls.extract_linearization))
                for name in ("generate", "working_set_bound", "access_ranks",
                             "oracle_replay", "validate_batch_preserving"):
                    patch(ws.bench, name,
                          self._spanned(name, getattr(ws.bench, name)))
            yield self


def run_sample(ws, structure, spec, recorder, checks):
    """One timed and checked run_experiment call. Returns (report, wall s,
    cpu s), or None when the program raised on this spec."""
    with recorder.attached():
        root = (recorder.span("run_experiment") if recorder.run_id
                else contextlib.nullcontext())
        with root:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                report = ws.bench.run_experiment(spec, structure)
            except Exception as exc:  # a failure of the program: count it
                checks.raised(spec, exc)
                return None
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
    checks.sample(spec, report, recorder)
    return report, wall, cpu


GUARDS = {
    "final_slab_work": lambda ws, rec: any(
        rt.metrics.work.get(ws.DS_FINAL, 0) > 0 for rt in rec.runtimes),
    "front_lock_access": lambda ws, rec: any(
        m.fl_delays for m in rec.maps if isinstance(m, ws.Pipelined)),
    "no_runtime": lambda ws, rec: not rec.runtimes,
}


class Checks:
    """Correctness over every sample of a run, and the one report kept per
    derived spec."""

    def __init__(self, ws, workload_name, workload):
        self.ws = ws
        self.name = workload_name
        self.requires = workload["requires"]
        self.correct = True
        self.reports = {}
        self.digests = {}
        self.raises = {}

    def fail(self, why):
        self.correct = False
        print(f"perfbench: FAILED {self.name}: {why}", file=sys.stderr)

    def sample(self, spec, report, recorder):
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        if spec.seed not in self.digests:
            self.digests[spec.seed] = digest
            self.reports[spec.seed] = report
            failed = [line["name"] for line in report.failed()]
            print(f"report {self.name} seed={spec.seed} sha256={digest} "
                  f"lines={len(report.lines) - len(failed)}/"
                  f"{len(report.lines)}"
                  + (f" failed={','.join(failed)}" if failed else ""))
            for name in failed:
                if name in OUTPUT_LINES:
                    self.fail(f"seed {spec.seed}: {name} line failed")
        elif digest != self.digests[spec.seed]:
            self.fail(f"seed {spec.seed}: report differs between samples")
        for guard in self.requires:
            if not GUARDS[guard](self.ws, recorder):
                self.fail(f"seed {spec.seed}: coverage guard {guard} failed")

    def raised(self, spec, exc):
        """A spec on which run_experiment raised counts as one failed line."""
        if spec.seed in self.digests:
            self.fail(f"seed {spec.seed}: raised after an earlier sample "
                      f"completed")
        self.raises[spec.seed] = exc
        print(f"report {self.name} seed={spec.seed} raised "
              f"{type(exc).__name__}: {exc}")
        traceback.print_exception(exc, file=sys.stderr)

    def lines(self):
        reports = self.reports.values()
        attempted = sum(len(r.lines) for r in reports) + len(self.raises)
        failed = sum(len(r.failed()) for r in reports) + len(self.raises)
        return attempted, failed

    def ratio(self, key):
        return statistics.median(r.ratios[key] for r in self.reports.values())


def sample_loop(specs, seconds, body):
    """Call body(spec, first) on every spec once, then cycle through the
    specs it completed until the time is up."""
    deadline = time.perf_counter() + seconds
    completed = [spec for spec in specs if body(spec, True)]
    if not completed:
        sys.exit("perfbench: run_experiment raised on every spec")
    for spec in itertools.cycle(completed):
        if time.perf_counter() >= deadline:
            break
        body(spec, False)


def end_to_end(ws, workload, checks, specs, seconds):
    structure = workload["structure"]
    setup = [probe_setup(specs[0].to_json()) for _ in range(SETUP_PROBES)]
    wall_rates, cpu_rates, ref_rates, refs = [], [], [], []

    def body(spec, _first):
        before = reference_s()
        sample = run_sample(ws, structure, spec, Recorder(ws), checks)
        ref = (before + reference_s()) / 2
        if sample:
            _report, wall, cpu = sample
            wall_rates.append(spec.n_ops / wall)
            cpu_rates.append(spec.n_ops / cpu)
            ref_rates.append(spec.n_ops * ref / wall)
            refs.append(ref)
        return sample

    sample_loop(specs, seconds, body)
    print(f"metric ops_per_s {statistics.median(wall_rates)} 1/s")
    print(f"metric ops_per_cpu_s {statistics.median(cpu_rates)} 1/s")
    print(f"metric host_ref_ms {statistics.median(refs) * 1e3} ms")
    # M0 runs its one chain serially: its work is its span, and the report's
    # steps_per_wl is the ratio of both to W_L.
    serial = structure == "m0"
    simulated = {
        "work_per_bound": checks.ratio("steps_per_wl" if serial
                                       else "work_per_bound"),
        "span_per_bound": checks.ratio("steps_per_wl" if serial
                                       else "span_per_bound"),
    }
    for key in ("buffer_cost_per_bound", "front_access_per_2k", "steps_per_wl"):
        if all(key in r.ratios for r in checks.reports.values()):
            print(f"metric {key} {checks.ratio(key)} ratio")
    attempted, failed = checks.lines()
    print(f"metric lines_failed_ratio {failed / attempted} ratio")
    return {
        "setup_s": statistics.median(setup),
        "ops_per_ref": statistics.median(ref_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **simulated,
    }


def layer_counts(ws, recorder, report, spec):
    c = dict.fromkeys(COUNT_METRICS, 0.0)
    for rt in recorder.runtimes:
        m = rt.metrics
        nodes = sum(m.work.values())
        c["runtime.steps"] += m.steps
        c["runtime.nodes"] += nodes
        c["runtime.slot_util"] = nodes / (rt.p * m.steps)
        c["runtime.high_idle_share"] = m.high_idle_steps / m.steps
        c["pipelined.ds_final_work"] += m.work.get(ws.DS_FINAL, 0)
        c["pbuffer.work"] += m.buffer_work
        c["pbuffer.span"] += m.buffer_span
    for m in recorder.maps:
        c["tree23.meter_steps"] += m.meter.count
        if isinstance(m, ws.Pipelined):
            c["pipelined.final_segments"] += len(m.final)
            c["pipelined.fl_accesses"] += len(m.fl_delays)
            c["pipelined.trapped_ops"] += m.trapped_ops
        elif isinstance(m, ws.Batched):
            c["batched.cut_batches"] += len(m.cut_batches)
            c["batched.ops_per_cut"] = spec.n_ops / len(m.cut_batches)
    c["seqmap.steps"] = report.metrics.get("instrumented_steps", 0)
    c["pipelined.front_access_per_2k"] = report.ratios.get(
        "front_access_per_2k", 0.0)
    c["pbuffer.cost_per_bound"] = report.ratios.get("buffer_cost_per_bound", 0.0)
    chains = recorder.results["generate"]
    c["core.comparisons"] = chains[0][0].key.ctr.count
    return c


def span_times(recorder, steps):
    t = dict.fromkeys(SPAN_METRICS, 0.0)
    for s in recorder.spans:
        if s["name"] in SPAN_METRIC:
            t[SPAN_METRIC[s["name"]]] += s["end"] - s["start"]
    t["runtime.us_per_step"] = (t["bench.simulate_s"] / steps * 1e6
                                if steps else 0.0)
    return t


def module_self_times(profiler):
    """cProfile self-time inside the simulate span, by wsmap source file;
    built-in functions count as 'builtins'."""
    out = dict.fromkeys(SELF_METRICS, 0.0)
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        if filename == "~":
            module = "builtins"
        elif Path(filename).parent == SRC / "wsmap":
            module = Path(filename).stem
        else:
            continue
        key = f"{module}.self_s"
        if key in out:
            out[key] += row[2]
    return out


def per_layer(ws, workload_name, workload, checks, specs, seconds, seed):
    structure = workload["structure"]
    counts = {}
    timed = {name: [] for name in SELF_METRICS + SPAN_METRICS}
    overhead = []
    spans = []
    rounds = itertools.count()

    def body(spec, first):
        run_id = f"{workload_name}/{spec.seed}/{next(rounds)}"
        plain = Recorder(ws, run_id=run_id + "/spans")
        sample = run_sample(ws, structure, spec, plain, checks)
        if not sample:
            return None
        report, plain_wall, _ = sample
        if first:
            counts[spec.seed] = layer_counts(ws, plain, report, spec)
        steps = counts[spec.seed]["runtime.steps"]
        for name, value in span_times(plain, steps).items():
            timed[name].append(value)
        profiled = Recorder(ws, run_id=run_id + "/profile", profile=True)
        sample = run_sample(ws, structure, spec, profiled, checks)
        if not sample:
            return None
        _report, profiled_wall, _ = sample
        for name, value in module_self_times(profiled.profiler).items():
            timed[name].append(value)
        # Spans alone cost a few clock reads per experiment, so the span-only
        # sample stands in for an untraced one.
        overhead.append(profiled_wall / plain_wall)
        spans.extend(plain.spans + profiled.spans)
        return sample

    sample_loop(specs, seconds, body)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{workload_name}-{seed}.json").write_text(
        json.dumps(spans) + "\n")
    metrics = {name: statistics.median(v) for name, v in timed.items()}
    for name in COUNT_METRICS:
        metrics[name] = statistics.median(c[name] for c in counts.values())
    metrics["trace.overhead_ratio"] = statistics.median(overhead)
    return metrics


def main(argv=None):
    names = sorted(p.stem for p in WORKLOADS.glob("*.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-ops", type=int, default=None,
                        help="override the spec size (smoke test only)")
    args = parser.parse_args(argv)

    ws = load_wsmap()
    workload = json.loads((WORKLOADS / f"{args.workload}.json").read_text())
    specs = derived_specs(ws, workload, args.seed, args.n_ops)
    checks = Checks(ws, args.workload, workload)
    if args.trace:
        values = per_layer(ws, args.workload, workload, checks, specs,
                           args.seconds, args.seed)
        units = PER_LAYER
    else:
        values = end_to_end(ws, workload, checks, specs, args.seconds)
        units = END_TO_END
    for name, unit in units.items():
        print(f"metric {name} {values[name]} {unit}")
    attempted, failed = checks.lines()
    print(json.dumps({
        "correct": checks.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

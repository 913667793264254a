import hashlib
import json
import math

import pytest

from wsmap import bench
from wsmap.bench import (
    Report, WorkloadSpec, chain_weighted_span, generate, render_table,
    run_experiment,
)
from wsmap.cli import main
from wsmap.core import CmpCounter, INSERT, Key, Operation, SEARCH


def test_workload_spec_round_trip():
    spec = WorkloadSpec(generator="zipf", n_ops=100, universe=32, width=4,
                        seed=9, p=4)
    back = WorkloadSpec.from_json(spec.to_json())
    assert back == spec
    with pytest.raises(ValueError):
        WorkloadSpec(generator="bogus")
    with pytest.raises(ValueError):
        WorkloadSpec(mix={"search": 0.5})


# Each spec below crashed deep inside a run, or was silently misread, before
# WorkloadSpec validated its fields.
@pytest.mark.parametrize("fields, message", [
    ({"n_ops": 0}, "n_ops must be an integer >= 1"),
    ({"width": 0}, "width must be an integer >= 1"),
    ({"universe": 0}, "universe must be an integer >= 1"),
    ({"mix": {"serch": 0.5, "insert": 0.5}}, "unknown op kind(s) in mix: ['serch']"),
    ({"mix": {"search": 1.2, "insert": -0.2}}, "mix weight of 'insert' must be"),
    ({"hot_window": 0}, "hot_window must be an integer >= 1"),
    ({"p": 3}, "p must be an even integer >= 4"),
], ids=["n_ops_0", "width_0", "universe_0", "mix_key_typo", "mix_negative",
        "hot_window_0", "p_3"])
def test_workload_spec_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError) as info:
        WorkloadSpec(**fields)
    assert message in str(info.value)
    text = json.dumps({**json.loads(WorkloadSpec().to_json()), **fields})
    with pytest.raises(ValueError):
        WorkloadSpec.from_json(text)


def test_workload_spec_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match=r"unknown workload spec field\(s\): \['nops'\]"):
        WorkloadSpec.from_json('{"nops": 10}')
    with pytest.raises(ValueError, match="must be a JSON object"):
        WorkloadSpec.from_json("[1, 2]")


@pytest.mark.parametrize("structure", ["m0", "m1", "m2"])
def test_cli_run_rejects_bad_spec_with_status_2(tmp_path, capsys, structure):
    spec_path = tmp_path / "w.json"
    spec_path.write_text(json.dumps({"generator": "uniform", "n_ops": 0}))
    out_path = tmp_path / "report.json"
    argv = ["run", "--structure", structure, "--workload", str(spec_path),
            "--out", str(out_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n_ops must be an integer >= 1" in err
    # an override is validated too: p=3 fails the same way on every structure
    spec_path.write_text(WorkloadSpec(n_ops=20, p=4).to_json())
    assert main(argv + ["--p", "3"]) == 2
    assert "p must be an even integer >= 4" in capsys.readouterr().err
    assert not out_path.exists()


def test_generate_shapes_and_determinism():
    spec = WorkloadSpec(generator="uniform", n_ops=20, universe=8, width=4,
                        seed=3, p=4)
    chains = generate(spec)
    assert len(chains) == 4
    assert all(len(c) == 5 for c in chains)
    assert spec.depth == 5
    again = generate(spec)
    assert [[(o.kind, o.key.value) for o in c] for c in chains] == \
        [[(o.kind, o.key.value) for o in c] for c in again]
    serial = WorkloadSpec(generator="uniform", n_ops=10, universe=8, width=1,
                          seed=3, p=4)
    assert serial.depth == 10


def test_zipf_histogram_reproducible():
    spec = WorkloadSpec(generator="zipf", n_ops=4096, universe=64, width=4,
                        seed=7, p=4, zipf_s=1.0)
    hist = {}
    for chain in generate(spec):
        for op in chain:
            hist[op.key.value] = hist.get(op.key.value, 0) + 1
    hist2 = {}
    for chain in generate(spec):
        for op in chain:
            hist2[op.key.value] = hist2.get(op.key.value, 0) + 1
    assert hist == hist2
    assert hist[0] > hist.get(40, 0)   # zipf head is heavy


def test_coldest_generator_targets_least_recent():
    spec = WorkloadSpec(generator="coldest", n_ops=60, universe=100, width=1,
                        seed=1, p=4,
                        mix={"search": 0.5, "insert": 0.5, "delete": 0.0,
                             "update": 0.0})
    ops = generate(spec)[0]
    # replaying the intents: every search targets the least recent present
    recency = []
    for op in ops:
        if op.kind == INSERT:
            recency.append(op.key.value)
        else:
            assert op.key.value == recency[0]
            recency.append(recency.pop(0))


def weighted_span(n_nodes, edges, weights):
    """Longest weighted path in a DAG given as edge list over 0..n-1; the
    general reference for chain_weighted_span."""
    children = [[] for _ in range(n_nodes)]
    indeg = [0] * n_nodes
    for a, b in edges:
        children[a].append(b)
        indeg[b] += 1
    best = list(weights)
    queue = [i for i in range(n_nodes) if indeg[i] == 0]
    out = 0.0
    while queue:
        node = queue.pop()
        out = max(out, best[node])
        for ch in children[node]:
            cand = best[node] + weights[ch]
            if cand > best[ch]:
                best[ch] = cand
            indeg[ch] -= 1
            if indeg[ch] == 0:
                queue.append(ch)
    return out


def test_weighted_span_examples():
    # single op, rank 1
    assert weighted_span(1, [], [1.0]) == 1.0
    # serial chain of ranks 1,2,4 -> 1 + 2 + 3
    w = [math.log2(r) + 1 for r in (1, 2, 4)]
    assert weighted_span(3, [(0, 1), (1, 2)], w) == pytest.approx(6.0)
    # two parallel chains: the heavier one wins
    w = [1.0, 1.0, 5.0]
    assert weighted_span(3, [(0, 1)], w) == pytest.approx(5.0)

    ctr = CmpCounter()
    chains = [[Operation(0, SEARCH, Key(1, ctr)),
               Operation(1, SEARCH, Key(2, ctr))],
              [Operation(2, SEARCH, Key(3, ctr))]]
    ranks = {0: 1, 1: 2, 2: 4}
    assert chain_weighted_span(chains, ranks) == pytest.approx(1 + 2)
    # the chains as a DAG: an edge from each call to the next in its chain
    w = [math.log2(ranks[i]) + 1 for i in range(3)]
    assert weighted_span(3, [(0, 1)], w) == chain_weighted_span(chains, ranks)


@pytest.mark.parametrize("structure", ["oracle", "m0", "m1", "m2"])
def test_run_experiment_all_lines_pass(structure):
    spec = WorkloadSpec(generator="zipf", n_ops=250, universe=64, width=4,
                        seed=5, p=4)
    report = run_experiment(spec, structure)
    assert not report.failed(), report.failed()
    names = [line["name"] for line in report.lines]
    assert "equivalence" in names
    if structure == "m1":
        assert "batch_preserving" in names
    if structure in ("m1", "m2"):
        assert "effective_work_bound" in names
        assert "effective_span_bound" in names
        assert "buffer_cost_bound" in names
    if structure == "m2":
        assert "front_access_bound" in names
    for ratio in report.ratios.values():
        assert math.isfinite(ratio)


# Golden report digests. The simulator is deterministic, so a change that
# only speeds it up must leave every report byte-identical; a drift of the
# cost model shows here. The m1 spec is the hot_zipf_m1 benchmark shape and
# the m2 spec the deep_insert_m2 shape at 400 ops, the smallest size at
# which that seed opens M2's final slab, filter and front-locks. The third
# case runs M2 on a 256-key universe, which fits in the 278-item first slab:
# it pins M2's first-slab-only path through the shared segment engine. The
# fourth is the deep_insert_m2 shape at 600 ops, which ends with the final
# slab open, so its rank-audited run boundaries and final-slab segments are
# pinned too. The m0 case is the coldest_m0 shape at 1,000 ops: its
# steps_per_wl includes every key comparison the 2-3 trees charge.
_HOT_MIX = {"search": 0.7, "insert": 0.15, "delete": 0.1, "update": 0.05}
_DEEP_MIX = {"search": 0.15, "insert": 0.75, "delete": 0.05, "update": 0.05}
_FIRST_SLAB_ONLY = WorkloadSpec(generator="zipf", n_ops=300, universe=256,
                                mix=_HOT_MIX, width=8, seed=1, p=8,
                                name="first_slab_m2")
_FINAL_SLAB_OPEN = WorkloadSpec(generator="uniform", n_ops=600, universe=8192,
                                mix=_DEEP_MIX, width=8, seed=3, p=8,
                                name="deep_insert_m2")


@pytest.mark.parametrize("structure, spec, digest", [
    ("m1", WorkloadSpec(generator="zipf", n_ops=300, universe=256,
                        mix=_HOT_MIX, width=8, seed=1, p=8,
                        name="hot_zipf_m1"),
     "23157018594a93d3edb560eb84e04cfb184862614e330a5695bb9469c80a49a1"),
    ("m2", WorkloadSpec(generator="uniform", n_ops=400, universe=8192,
                        mix=_DEEP_MIX, width=8, seed=1, p=8,
                        name="deep_insert_m2"),
     "fa6fafd074f51cdcd7d37fa8ff90aa1a82d20ad4f5b5db99cce667498568233f"),
    ("m2", _FIRST_SLAB_ONLY,
     "c49254b4bcf257ec304ab5f4241177c42e72ad5c69219362b1a2c7a4fc911efd"),
    ("m2", _FINAL_SLAB_OPEN,
     "26786975275956ace49c3f230ca9d0b53460c3a6439650717fc991e9552909f9"),
    ("m0", WorkloadSpec(generator="coldest", n_ops=1000, universe=4096,
                        mix={"search": 0.6, "insert": 0.35, "delete": 0.05,
                             "update": 0.0},
                        width=1, seed=1, p=4, name="coldest_m0"),
     "249bac75bc03e1891d4b56016be85badf7014a493a22458011936e5d155d73f1"),
])
def test_report_digest_pinned(structure, spec, digest, monkeypatch):
    runs = []
    run_parallel = bench._run_parallel

    def recording(*args):
        runs.append(run_parallel(*args))
        return runs[-1]

    monkeypatch.setattr(bench, "_run_parallel", recording)
    report = run_experiment(spec, structure)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    if spec is _FIRST_SLAB_ONLY:
        m = runs[0][0]
        assert m.terminal is None and not m.final
    if spec is _FINAL_SLAB_OPEN:
        m = runs[0][0]
        assert m.terminal is not None and m.final


@pytest.mark.parametrize("structure, scheduler", [
    ("m1", "greedy"), ("m2", "weak_priority")])
def test_audits_leave_the_comparison_counter_alone(structure, scheduler):
    # the audits are not part of the measured cost: with them on, the
    # shared key-comparison counter must read exactly as with them off
    spec = WorkloadSpec(generator="zipf", n_ops=300, universe=256,
                        mix=_HOT_MIX, width=8, seed=1, p=8,
                        name="hot_zipf_m1")
    counts = []
    for audit in (True, False):
        ctr = CmpCounter()
        chains = generate(spec, ctr)
        bench._run_parallel(structure, chains, spec.p, scheduler, audit)
        counts.append(ctr.count)
    assert counts[0] == counts[1] > 0


def test_m2_greedy_reports_but_does_not_assert_bounds():
    spec = WorkloadSpec(generator="uniform", n_ops=200, universe=64, width=8,
                        seed=11, p=4)
    report = run_experiment(spec, "m2", scheduler="greedy")
    assert report.scheduler == "greedy"
    assert not report.failed()
    assert "work_per_bound" in report.ratios


def test_report_json_round_trip_and_table(tmp_path):
    spec = WorkloadSpec(generator="uniform", n_ops=120, universe=32, width=4,
                        seed=2, p=4)
    report = run_experiment(spec, "m1")
    back = Report.from_json(report.to_json())
    assert back.lines == report.lines
    table = render_table(back)
    assert "equivalence" in table and "ok" in table


def test_cli_run_check_table(tmp_path, capsys):
    spec_path = tmp_path / "w.json"
    spec_path.write_text(WorkloadSpec(
        generator="zipf", n_ops=150, universe=48, width=4, seed=4,
        p=4).to_json())
    out_path = tmp_path / "report.json"
    rc = main(["run", "--structure", "m1", "--workload", str(spec_path),
               "--seed", "9", "--p", "4", "--out", str(out_path)])
    assert rc == 0
    data = json.loads(out_path.read_text())
    assert data["structure"] == "m1"
    assert data["spec"]["seed"] == 9
    rc = main(["check", "--report", str(out_path)])
    assert rc == 0
    rc = main(["table", "--report", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "equivalence" in out

    # a failing line makes check exit nonzero
    data["lines"].append({"name": "broken", "passed": False, "value": 0})
    out_path.write_text(json.dumps(data))
    assert main(["check", "--report", str(out_path)]) == 1


def test_metrics_and_trace_formats(tmp_path):
    from wsmap.runtime import Runtime

    rt = Runtime(p=4, trace=True)

    def prog():
        yield 3

    rt.spawn_root(prog())
    metrics = rt.run()
    d = metrics.to_dict()
    assert set(d) >= {"T1", "T_inf", "per_structure", "steps", "p"}
    trace_path = tmp_path / "trace.txt"
    rt.export_trace(trace_path)
    for line in trace_path.read_text().splitlines():
        assert len(line.split()) == 4


def test_bound_report_json_and_stats():
    from wsmap.core import BoundReport
    from conftest import run_map_workload, random_ops, chunk_chains
    from wsmap.batched import BatchedWorkingSetMap

    rep = BoundReport(10.5, 12.0, 3, 8)
    back = BoundReport.from_json(rep.to_json())
    assert back == rep

    ops = random_ops(100, 24, 5)
    _res, m, _metrics, _rt = run_map_workload(
        lambda rt, p: BatchedWorkingSetMap(rt, p), chunk_chains(ops, 4), p=4)
    stats = m.stats()
    assert stats["bound_report"]["N"] == 100
    assert stats["metrics"]["p"] == 4

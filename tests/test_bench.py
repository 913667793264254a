import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from wsmap import bench
from wsmap.bench import (
    Report, WorkloadSpec, chain_weighted_span, generate, render_table,
    run_experiment,
)
from wsmap.cli import main
from wsmap.core import CmpCounter, INSERT, Key, Operation, SEARCH
from wsmap.runtime import DS_FINAL


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
    ({"zipf_s": "x"}, "zipf_s must be a finite number"),
    ({"zipf_s": math.nan}, "zipf_s must be a finite number"),
    ({"zipf_s": math.inf}, "zipf_s must be a finite number"),
    ({"zipf_s": True}, "zipf_s must be a finite number"),
    ({"zipf_s": 2000.0}, "zipf_s must be <= 1000 / log2(universe) = 125 "),
    ({"zipf_s": 2000}, "zipf_s must be <= 1000 / log2(universe) = 125 "),
    ({"zipf_s": -400.0}, "zipf_s must be >= 0"),
    ({"zipf_s": 10 ** 400}, "zipf_s must be <= 1000 / log2(universe)"),
    ({"name": 7}, "name must be a string"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"mix": [0.5, 0.5]}, "op mix must be an object"),
], ids=["n_ops_0", "width_0", "universe_0", "mix_key_typo", "mix_negative",
        "hot_window_0", "p_3", "zipf_s_string", "zipf_s_nan", "zipf_s_inf",
        "zipf_s_bool", "zipf_s_large_float", "zipf_s_large_int",
        "zipf_s_negative", "zipf_s_huge_int", "name_number", "seed_float",
        "mix_list"])
def test_workload_spec_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError) as info:
        WorkloadSpec(**fields)
    assert message in str(info.value)
    text = json.dumps({**json.loads(WorkloadSpec().to_json()), **fields})
    with pytest.raises(ValueError):
        WorkloadSpec.from_json(text)


def test_run_experiment_rejects_an_unknown_structure():
    with pytest.raises(ValueError, match="unknown structure 'm3'"):
        run_experiment(WorkloadSpec(n_ops=10), "m3")


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


def test_cli_run_rejects_missing_workload_and_out_dir_with_status_2(
        tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "w.json"
    out_path = tmp_path / "report.json"
    argv = ["run", "--structure", "m0", "--workload", str(spec_path),
            "--out", str(out_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"wsmap run: cannot read workload {spec_path}: ")
    # a missing output directory is caught before the run starts
    spec_path.write_text(WorkloadSpec(n_ops=20, p=4).to_json())
    bad_out = tmp_path / "no_such_dir" / "report.json"
    runs = []
    monkeypatch.setattr("wsmap.cli.run_experiment",
                        lambda *a, **k: runs.append(a))
    assert main(argv[:-1] + [str(bad_out)]) == 2
    assert runs == []
    err = capsys.readouterr().err
    assert err == (f"wsmap run: output directory {bad_out.parent} "
                   f"does not exist\n")
    # so is an output path that is an existing directory
    assert main(argv[:-1] + [str(tmp_path)]) == 2
    assert runs == []
    err = capsys.readouterr().err
    assert err == f"wsmap run: output path {tmp_path} is a directory\n"
    # and a write that fails after the run is one line, not a traceback
    late_dir = tmp_path / "late"

    def run_then_block(*a, **k):
        late_dir.mkdir()
        return SimpleNamespace(to_json=lambda: "{}")

    monkeypatch.setattr("wsmap.cli.run_experiment", run_then_block)
    assert main(argv[:-1] + [str(late_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"wsmap run: cannot write report {late_dir}: ")


def _report_text(line):
    return json.dumps({"structure": "m1", "spec": {}, "scheduler": "greedy",
                       "bound_report": {}, "metrics": {}, "ratios": {},
                       "lines": [line]})


# The last four passed `check` as ok, or made `table` die with a traceback,
# before Report.from_json checked the type of each line field.
@pytest.mark.parametrize("command", ["check", "table"])
@pytest.mark.parametrize("text", [
    "[1, 2]", '{"lines": []}', "not json", _report_text({"name": "x"}),
    pytest.param(_report_text({"name": "x", "passed": "no", "value": 1}),
                 id="passed_string"),
    pytest.param(_report_text({"name": "x", "passed": True, "value": 1.5,
                               "bound": "x"}), id="bound_string"),
    pytest.param(_report_text({"name": 7, "passed": True, "value": 1}),
                 id="name_number"),
    pytest.param(_report_text({"name": "x", "passed": True, "value": "1"}),
                 id="value_string")])
def test_cli_rejects_a_file_that_is_not_a_report_with_status_2(
        tmp_path, capsys, command, text):
    path = tmp_path / "r.json"
    path.write_text(text)
    assert main([command, "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"wsmap {command}: invalid report {path}: ")
    assert main([command, "--report", str(tmp_path / "missing.json")]) == 2
    assert "cannot read report" in capsys.readouterr().err


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


@pytest.mark.parametrize("universe, zipf_s", [(512, 3), (128, 1)])
def test_zipf_keys_stay_below_universe(universe, zipf_s):
    # the normalized weights sum to just under 1 in floats; a draw above
    # that sum must still map to the last key, not to key `universe`
    top = SimpleNamespace(random=lambda: 1 - 2 ** -53)
    spec = WorkloadSpec(generator="zipf", universe=universe, zipf_s=zipf_s)
    keys = bench._key_stream(spec, top)
    assert [next(keys) for _ in range(3)] == [universe - 1] * 3


def test_generate_never_draws_a_zero_weight_kind(monkeypatch):
    # the m0 calibration mix sums to 0.9999999999999999 in floats; a draw
    # above that sum must take the last kind with a positive weight
    top = SimpleNamespace(random=lambda: 1 - 2 ** -53, randrange=lambda n: 0)
    monkeypatch.setattr(bench, "random", SimpleNamespace(Random=lambda _s: top))
    spec = WorkloadSpec(generator="uniform", n_ops=5, universe=8, width=1,
                        mix={"search": 0.6, "insert": 0.3, "delete": 0.1,
                             "update": 0.0})
    assert [op.kind for op in generate(spec)[0]] == ["delete"] * 5


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


@pytest.mark.parametrize("structure", ["m0", "m1", "m2"])
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
# Each case is named by its map and spec rather than by its digest, so a
# re-pinned digest keeps the test's name.
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
     "ddd6c01299b52d039bf48a76d1103b0348ebc250164057f20e8faebe61c5451e"),
    ("m2", WorkloadSpec(generator="uniform", n_ops=400, universe=8192,
                        mix=_DEEP_MIX, width=8, seed=1, p=8,
                        name="deep_insert_m2"),
     "895f8edde4265c02cbcad5ff9cbeeee3822a1efd6cad878ed26561407b05a950"),
    ("m2", _FIRST_SLAB_ONLY,
     "4fead614efccec93aca233b3b66f9ff9eb27024b42460e735a25cbaecd3b5af9"),
    ("m2", _FINAL_SLAB_OPEN,
     "41d56fbc8543827b5a34e89a3ccbfcbd0dece6dc5c04b827d5e32a98fc756215"),
    ("m0", WorkloadSpec(generator="coldest", n_ops=1000, universe=4096,
                        mix={"search": 0.6, "insert": 0.35, "delete": 0.05,
                             "update": 0.0},
                        width=1, seed=1, p=4, name="coldest_m0"),
     "47359b1b6489b5deb624ada642d96b6e4e708b78f8fde480dee578d6ffababd7"),
], ids=["m1-hot_zipf_m1", "m2-deep_insert_m2-400", "m2-first_slab_m2",
        "m2-deep_insert_m2-600", "m0-coldest_m0"])
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


# The same for the shipped workloads/*.json specs on every map, which CI also
# runs through `wsmap run`, with the work each M2 run charges to its final
# slab (the same under both schedulers).
_SHIPPED = Path(__file__).resolve().parent.parent / "workloads"
_M2_FINAL_SLAB_WORK = {"coldest_serial": 3913, "hotset_mixed": 0,
                       "uniform_wide": 35264, "zipf_small": 0}


@pytest.mark.parametrize("workload, structure, digest", [
    ("coldest_serial", "m0",
     "345ba24ae48b5238ea29b1dc453dcbd764e31d3df375088e74f975f18caf8086"),
    ("coldest_serial", "m1",
     "0e1a11f185ecca6cf56581827d4344b5177482498a70c273811687c9e32fda2f"),
    ("coldest_serial", "m2",
     "a760fddb9a9214435977d0d7774d19d82791313f0209d59c80253d7b6d6545fd"),
    ("hotset_mixed", "m0",
     "2360da27e48bc5ad2d91185146f641c701ac3750c0529ab29ab8154f60ff1754"),
    ("hotset_mixed", "m1",
     "eba4290bf3d8ca3938ef4f7b54c145b58a502a397b3bddf66f4dd0dbc97b459e"),
    ("hotset_mixed", "m2",
     "a45028b9d21ee2a66128a3398e7a4ebd950bd9ef867a688091b797923da53e51"),
    ("uniform_wide", "m0",
     "06339532bb08dcb4b11d52c5bf9dff0c0252d033986fe892286c04334cd26989"),
    ("uniform_wide", "m1",
     "95de1e4cdbf5b7e0d911c0227a2bb5d134060894944f64ea5abba6085bb32bbe"),
    ("uniform_wide", "m2",
     "a9b226acaac4f9198eb227e31704ddb3cb4e5ab83a0b9028f870b725ba077c77"),
    ("zipf_small", "m0",
     "c0ca13b7c7e8df99f7aaebd617065c039ce73d94b19be5848ab4a0f5337fd573"),
    ("zipf_small", "m1",
     "ef41c8e2e5a5cc76ebcc3478dc5b08eeccc85fca016a541b20a3f5151b0d00d7"),
    ("zipf_small", "m2",
     "1ed32468e09c9df56df9ba57269cbb2fc32ea4cdfd7fc112958308f3d9a258dd"),
], ids=[f"{w}-{s}" for w in ("coldest_serial", "hotset_mixed", "uniform_wide",
                              "zipf_small") for s in ("m0", "m1", "m2")])
def test_shipped_workload_digest_pinned(workload, structure, digest,
                                       monkeypatch):
    runs = []
    run_parallel = bench._run_parallel

    def recording(*args):
        runs.append(run_parallel(*args))
        return runs[-1]

    monkeypatch.setattr(bench, "_run_parallel", recording)
    spec = WorkloadSpec.from_json((_SHIPPED / f"{workload}.json").read_text())
    report = run_experiment(spec, structure)
    assert not report.failed(), report.failed()
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    if structure == "m2":
        # two shipped specs open M2's final slab; losing it would go unseen
        _m, _results, metrics = runs[0]
        assert metrics.work.get(DS_FINAL, 0) == _M2_FINAL_SLAB_WORK[workload]


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


def test_metrics_and_trace_formats():
    from wsmap.runtime import Runtime

    rt = Runtime(p=4, trace=True)

    def prog():
        yield 3

    rt.spawn_root(prog())
    metrics = rt.run()
    d = metrics.to_dict()
    assert set(d) >= {"T1", "T_inf", "per_structure", "steps", "p"}
    assert rt.trace
    for entry in rt.trace:
        assert len(entry) == 4


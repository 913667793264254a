import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import golden_spec
from regen_golden import GOLDEN, flipped, rerun
from wsmap import bench
from wsmap.bench import (
    Report, WorkloadSpec, chain_weighted_span, generate, render_table,
    run_experiment,
)
from wsmap.cli import main
from wsmap.core import CmpCounter, INSERT, Key, Operation, SEARCH
from wsmap.runtime import DS_FINAL
from wsmap.seqmap import SeqWorkingSetMap


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


def test_run_experiment_rejects_a_scheduler_for_m0():
    with pytest.raises(ValueError, match="m0 runs serially"):
        run_experiment(WorkloadSpec(n_ops=10), "m0", scheduler="greedy")


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


def test_cli_run_rejects_a_scheduler_for_m0_with_status_2(
        tmp_path, capsys, monkeypatch):
    # M0 runs serially; a --scheduler it would ignore is refused before
    # the run starts
    spec_path = tmp_path / "w.json"
    spec_path.write_text(WorkloadSpec(n_ops=20, p=4).to_json())
    out_path = tmp_path / "report.json"
    runs = []
    monkeypatch.setattr("wsmap.cli.run_experiment",
                        lambda *a, **k: runs.append(a))
    assert main(["run", "--structure", "m0", "--scheduler", "greedy",
                 "--workload", str(spec_path), "--out", str(out_path)]) == 2
    assert runs == [] and not out_path.exists()
    err = capsys.readouterr().err
    assert err == "wsmap run: m0 runs serially and takes no --scheduler\n"


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


# Golden reports: the simulator is deterministic, so each report pinned in
# tests/golden must reproduce byte for byte until the cost model changes on
# purpose (then tests/regen_golden.py rewrites the moved files for review).
# Besides `<workload>-<map>` for each shipped workload, they pin the
# hot_zipf_m1 and coldest_m0 benchmark shapes, M2 on keys that fit its first
# slab, and deep_insert_m2 at 400 ops (the smallest size at which that seed
# opens M2's final slab, filter and front-locks) and at 600 (it ends open).
# `repro-<item>-<name>-<map>` files pin ROADMAP reproducers, which may fail
# their lines; only the shipped ones must pass them all.
_SHIPPED = Path(__file__).resolve().parent.parent / "workloads"
_GOLDEN_FILES = sorted(GOLDEN.glob("*.json"))
# M2 runs whose final slab ends closed or open, and the work each shipped
# M2 run charges to it under either scheduler (two open it)
_FINAL_SLAB_OPEN = {"m2-first_slab_m2": False, "m2-deep_insert_m2-600": True}
_M2_FINAL_SLAB_WORK = {"coldest_serial-m2": 4004, "hotset_mixed-m2": 0,
                       "uniform_wide-m2": 26676, "zipf_small-m2": 0}


def _moved(old, new, path=""):
    """'path: old -> new' for each JSON path whose value differs."""
    if type(old) is type(new) is dict:
        for key in sorted(old.keys() | new.keys()):
            yield from _moved(old.get(key), new.get(key), f"{path}.{key}")
    elif type(old) is type(new) is list and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _moved(a, b, f"{path}[{i}]")
    elif old != new:
        yield f"{path[1:]}: {old!r} -> {new!r}"


@pytest.mark.parametrize("path", _GOLDEN_FILES, ids=lambda path: path.stem)
def test_golden_report_reproduces(path, monkeypatch):
    runs = []   # (map, metrics) of each parallel run
    run_parallel = bench._run_parallel

    def recording(m, chains):
        results, metrics = run_parallel(m, chains)
        runs.append((m, metrics))
        return results, metrics

    monkeypatch.setattr(bench, "_run_parallel", recording)
    text = path.read_text()
    shipped = _SHIPPED / f"{path.stem.split('-')[0]}.json"
    if shipped.exists():
        old = Report.from_json(text)
        assert WorkloadSpec(**old.spec) == \
            WorkloadSpec.from_json(shipped.read_text())
        assert not old.failed(), old.failed()
    new = rerun(path)
    assert new == text, "\n".join(_moved(json.loads(text), json.loads(new)))
    if path.stem in _FINAL_SLAB_OPEN:
        assert (runs[0][0].terminal is not None) == _FINAL_SLAB_OPEN[path.stem]
    if path.stem in _M2_FINAL_SLAB_WORK:
        work = runs[0][1].work.get(DS_FINAL, 0)
        assert work == _M2_FINAL_SLAB_WORK[path.stem]


def test_known_failing_reproducers_are_pinned():
    failing = {path.stem for path in _GOLDEN_FILES
               if Report.from_json(path.read_text()).failed()}
    assert failing <= {path.stem for path in _GOLDEN_FILES
                       if path.stem.startswith("repro-")}


def test_regen_names_every_flipped_verdict():
    path = GOLDEN / "repro-18-zipf4-seed10-m2.json"
    old = path.read_text()
    report = json.loads(old)
    for line in report["lines"]:
        if line["name"] in ("buffer_cost_bound", "equivalence"):
            line["passed"] = not line["passed"]
    assert flipped(old, json.dumps(report)) == [
        "equivalence: True -> False", "buffer_cost_bound: False -> True"]
    assert flipped(old, old) == []


@pytest.mark.parametrize("structure, scheduler", [
    ("m0", None), ("m1", "greedy"), ("m2", "weak_priority")],
    ids=["m0", "m1-greedy", "m2-weak_priority"])
def test_audits_leave_the_comparison_counter_alone(structure, scheduler,
                                                   monkeypatch):
    # the audits are not part of the measured cost: with them on, the
    # shared key-comparison counter must read exactly as with them off
    spec = golden_spec("m1-hot_zipf_m1")
    ctrs = []

    def generating(spec, ctr):
        ctrs.append(ctr)
        return generate(spec, ctr)

    monkeypatch.setattr(bench, "generate", generating)
    reports = [run_experiment(spec, structure, scheduler, audit)
               for audit in (True, False)]
    assert ctrs[0].count == ctrs[1].count > 0
    assert reports[0] == reports[1]


def test_run_experiment_audits_m0_at_the_end_of_the_run(monkeypatch):
    calls = []

    def failing(m):
        calls.append(m)
        raise AssertionError("segment 0 not full")

    monkeypatch.setattr(SeqWorkingSetMap, "audit", failing)
    spec = golden_spec("m0-coldest_m0", n_ops=200)
    with pytest.raises(AssertionError, match="segment 0 not full"):
        run_experiment(spec, "m0")
    assert len(calls) == 1
    run_experiment(spec, "m0", audit=False)
    assert len(calls) == 1


def test_m2_greedy_reports_but_does_not_assert_bounds():
    spec = WorkloadSpec(generator="uniform", n_ops=200, universe=64, width=8,
                        seed=11, p=4)
    report = run_experiment(spec, "m2", scheduler="greedy")
    assert report.scheduler == "greedy"
    assert not report.failed()
    assert "work_per_bound" in report.ratios


def test_report_json_round_trip_and_table():
    for path in _GOLDEN_FILES:
        text = path.read_text()
        report = Report.from_json(text)
        assert report.to_json() + "\n" == text, path.name
        table = render_table(report)
        assert all(line["name"] in table for line in report.lines), path.name
    assert {*_FINAL_SLAB_OPEN, *_M2_FINAL_SLAB_WORK} <= \
        {path.stem for path in _GOLDEN_FILES}, "a stale final-slab pin"


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


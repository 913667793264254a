import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    # the library quick start is documentation users copy; run it so an
    # API change that breaks it fails here
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_bound_report_keys_match_reports():
    # the schema section lists the bound_report keys; keep it in step with
    # what run_experiment writes on both the serial and the parallel path
    from wsmap.bench import WorkloadSpec, run_experiment

    section = README.read_text().split("### Report schema", 1)[1]
    listed = re.search(r"`bound_report`\s*\(([^)]*)\)", section).group(1)
    documented = re.findall(r"`(\w+)`", listed)
    spec = WorkloadSpec(n_ops=40, universe=16, p=4)
    for structure in ("m0", "m1"):
        report = run_experiment(spec, structure)
        assert list(report.bound_report) == documented, structure

"""Every BENCH_*.json at the repository root is a readable benchmark
record: a JSON object naming the change it measured, the host, the method
and the end-to-end numbers, so the records form one trajectory."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_bench_record_parses_and_names_what_it_measured():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert isinstance(record, dict), path.name
        missing = {"change", "host", "method", "end_to_end"} - set(record)
        assert not missing, (path.name, sorted(missing))

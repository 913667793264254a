"""Rerun each golden report in tests/golden from its own structure,
scheduler and spec; rewrite the files that moved and print their names,
each followed by every bound line whose verdict flipped
(`name: old -> new`). Run `PYTHONPATH=src python tests/regen_golden.py`
after a deliberate cost-model change. To pin a new case, write its report
with `wsmap run ... --out tests/golden/<id>.json`; a known-failing
reproducer is pinned as `repro-<ROADMAP item>-<name>-<map>.json`.
"""

import json
from pathlib import Path

from wsmap.bench import Report, WorkloadSpec, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"


def rerun(path):
    """The text, as `wsmap run --out` writes it, of the golden report's run."""
    old = Report.from_json(path.read_text())
    scheduler = None if old.structure == "m0" else old.scheduler
    report = run_experiment(WorkloadSpec(**old.spec), old.structure, scheduler)
    return report.to_json() + "\n"


def flipped(old_text, new_text):
    """'name: old -> new' for each line whose `passed` differs."""
    old = {line["name"]: line["passed"]
           for line in json.loads(old_text)["lines"]}
    return [f"{line['name']}: {old.get(line['name'])} -> {line['passed']}"
            for line in json.loads(new_text)["lines"]
            if old.get(line["name"]) != line["passed"]]


if __name__ == "__main__":
    for path in sorted(GOLDEN.glob("*.json")):
        text = rerun(path)
        old_text = path.read_text()
        if text != old_text:
            path.write_text(text)
            print(path.name)
            for flip in flipped(old_text, text):
                print(f"  {flip}")

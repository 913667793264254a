"""Rerun each golden report in tests/golden from its own structure,
scheduler and spec; rewrite the files that moved and print their names.
Run `PYTHONPATH=src python tests/regen_golden.py` after a deliberate
cost-model change. To pin a new case, write its report with
`wsmap run ... --out tests/golden/<id>.json`.
"""

from pathlib import Path

from wsmap.bench import Report, WorkloadSpec, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"


def rerun(path):
    """The text, as `wsmap run --out` writes it, of the golden report's run."""
    old = Report.from_json(path.read_text())
    scheduler = None if old.structure == "m0" else old.scheduler
    report = run_experiment(WorkloadSpec(**old.spec), old.structure, scheduler)
    return report.to_json() + "\n"


if __name__ == "__main__":
    for path in sorted(GOLDEN.glob("*.json")):
        text = rerun(path)
        if text != path.read_text():
            path.write_text(text)
            print(path.name)

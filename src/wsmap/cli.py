"""Command-line interface: run experiments, check reports, print tables,
and re-measure calibration constants."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    PARALLEL_MAPS, STRUCTURES, Report, WorkloadSpec, render_table,
    run_experiment,
)
from .runtime import SCHEDULERS


class _BadInput(Exception):
    """A user input error; main prints it on one line and exits 2."""


def _cmd_run(args):
    if args.structure not in PARALLEL_MAPS and args.scheduler is not None:
        raise _BadInput(f"{args.structure} runs serially and takes no "
                        f"--scheduler")
    overrides = {name: value for name, value in
                 (("seed", args.seed), ("p", args.p)) if value is not None}
    try:
        spec = replace(WorkloadSpec.from_json(Path(args.workload).read_text()),
                       **overrides)
    except OSError as exc:
        raise _BadInput(f"cannot read workload {args.workload}: "
                        f"{exc.strerror}") from None
    except ValueError as exc:
        raise _BadInput(f"invalid workload {args.workload}: {exc}") from None
    out = Path(args.out)
    # a run can take minutes; a bad --out should not surface after it
    if not out.parent.is_dir():
        raise _BadInput(f"output directory {out.parent} does not exist")
    if out.is_dir():
        raise _BadInput(f"output path {out} is a directory")
    report = run_experiment(spec, args.structure, scheduler=args.scheduler)
    try:
        out.write_text(report.to_json() + "\n")
    except OSError as exc:
        raise _BadInput(f"cannot write report {out}: {exc.strerror}") from None
    failed = report.failed()
    print(f"{args.structure}: {len(report.lines) - len(failed)}/"
          f"{len(report.lines)} lines passed -> {out}")
    return 1 if failed else 0


def _load_report(path):
    try:
        return Report.from_json(Path(path).read_text())
    except OSError as exc:
        raise _BadInput(f"cannot read report {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise _BadInput(f"invalid report {path}: {exc}") from None


def _cmd_check(args):
    report = _load_report(args.report)
    failed = report.failed()
    for line in report.lines:
        status = "ok" if line["passed"] else "FAIL"
        print(f"{status:4} {line['name']}")
    return 1 if failed else 0


def _cmd_table(args):
    print(render_table(_load_report(args.report)))
    return 0


def _cmd_calibrate(args):
    from .calibrate import measure_constants
    values = measure_constants()
    text = json.dumps(values, indent=2, sort_keys=True) + "\n"
    if args.write:
        target = Path(__file__).with_name("calibration.json")
        target.write_text(text)
        print(f"wrote {target}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wsmap",
        description="working-set map simulator benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a workload on a structure")
    p_run.add_argument("--structure", required=True,
                       choices=STRUCTURES)
    p_run.add_argument("--workload", required=True,
                       help="workload spec JSON file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--p", type=int, default=None)
    p_run.add_argument("--scheduler", default=None,
                       choices=SCHEDULERS)
    p_run.add_argument("--out", required=True, help="report JSON output path")
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="validate a report's lines")
    p_check.add_argument("--report", required=True)
    p_check.set_defaults(fn=_cmd_check)

    p_table = sub.add_parser("table", help="print a report as a table")
    p_table.add_argument("--report", required=True)
    p_table.set_defaults(fn=_cmd_table)

    p_cal = sub.add_parser("calibrate",
                           help="re-measure calibration constants")
    p_cal.add_argument("--write", action="store_true",
                       help="overwrite the frozen calibration file")
    p_cal.set_defaults(fn=_cmd_calibrate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _BadInput as exc:
        print(f"wsmap {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Every frozen constant is read by a gate, and every bounded report line
is checked against the constant bench.LINE_CONSTANTS names for it.

A constant whose measurement is gone would otherwise linger in
calibration.json, re-measured by nothing and checked by nothing.
"""

import ast
import json
from pathlib import Path

from conftest import line_constants
from regen_golden import GOLDEN
from wsmap.bench import LINE_CONSTANTS, Report
from wsmap.calibration import SLACK, frozen_constants

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wsmap"


def string_literals(path):
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_frozen_constant_is_read_by_a_gate():
    read = (string_literals(SRC / "bench.py")
            | string_literals(TESTS / "test_acceptance.py"))
    frozen = json.loads((SRC / "calibration.json").read_text())
    assert sorted(set(frozen) - read) == []


def test_every_bounded_line_reads_its_table_constant():
    frozen = frozen_constants()
    for path in sorted(GOLDEN.glob("*.json")):
        report = Report.from_json(path.read_text())
        for line in report.lines:
            if "bound" in line:
                name = LINE_CONSTANTS[report.structure, line["name"]]
                assert line["bound"] == SLACK * frozen[name], path.name
    for (structure, _line), name in LINE_CONSTANTS.items():
        assert name in frozen and name in line_constants(structure), name

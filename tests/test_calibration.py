"""Every frozen constant is read by a gate.

A constant whose measurement is gone would otherwise linger in
calibration.json, re-measured by nothing and checked by nothing.
"""

import ast
import json
from pathlib import Path

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

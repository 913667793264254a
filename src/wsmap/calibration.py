"""Frozen calibration constants.

Every asymptotic bound is checked as measured/bound <= SLACK * frozen,
where the frozen constant was measured once on documented seeds by
wsmap.calibrate (`wsmap calibrate --write`) and committed to
calibration.json. The 1.5x slack absorbs scheduler admissibility and
workload variation.
"""

from __future__ import annotations

import json
from pathlib import Path

SLACK = 1.5

_CAL_PATH = Path(__file__).with_name("calibration.json")
_cache = None


def frozen_constants():
    global _cache
    if _cache is None:
        _cache = json.loads(_CAL_PATH.read_text())
    return _cache


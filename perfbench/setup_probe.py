"""Set-up probe: import wsmap, load one workload spec, generate its inputs.

run.py starts this file in a fresh interpreter and times it from process
start to the "ready" line, which is the point where the first simulated
step would run. Usage: python3 perfbench/setup_probe.py '<spec json>'
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wsmap.bench import WorkloadSpec, generate  # noqa: E402

generate(WorkloadSpec.from_json(sys.argv[1]))
print("ready", flush=True)

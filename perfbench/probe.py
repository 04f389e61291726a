"""Set-up probe: a fresh interpreter imports clearq and builds one workload's inputs.

Usage: python3 perfbench/probe.py WORKLOAD SEED

It prints one JSON line, {"import_s": ..., "inputs_s": ...}, as soon as the
first operation could start; the caller times the interpreter from its start
to that line.
"""
import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import clearq.cli  # noqa: E402,F401  the import every command pays

imported = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "inputs_s": built - imported}), flush=True)

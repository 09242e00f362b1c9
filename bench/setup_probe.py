"""Set-up of one workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Imports numpy, then blockstep, then builds the workload's op list, schemes
and problems and fills the package's lazy caches, exactly as run.py does
before its timed phase.  Prints one JSON line with the phase times.  run.py
times the whole process from outside for setup_s and takes the import split
from this line.
"""

import json
import os
import random
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
import blockstep  # noqa: E402,F401

t2 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
workload.prepare(workload.generate(random.Random(int(sys.argv[2]))))
t3 = time.perf_counter()
print(json.dumps({"import_numpy_s": t1 - t0, "import_blockstep_s": t2 - t1, "build_s": t3 - t2}))

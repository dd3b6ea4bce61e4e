"""Fresh-process set-up, timed from outside by run.py.

    python3 perfbench/setup_child.py WORKLOAD   set up WORKLOAD
    python3 perfbench/setup_child.py --solver   print the seconds one cold
                                                256-cell RadialSolver build takes
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    if sys.argv[1] == "--solver":
        start = time.perf_counter()
        workloads.radial.RadialSolver(2.0, 1.0, 256)
        print(time.perf_counter() - start)
    else:
        workloads.WORKLOADS[sys.argv[1]].setup()

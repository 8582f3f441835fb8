"""Set-up probe, run in a fresh interpreter: time to import blaschke_lab.cli
and build one workload's first-pass inputs.  Its last line is the seconds
and the host-speed scale that 50 calibration units measure right after.

    python3 perfbench/probe_setup.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.path.dirname(os.path.abspath(__file__))]
import blaschke_lab.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.BUILDERS[sys.argv[1]](int(sys.argv[2]), 0)
SETUP = time.perf_counter() - T0

import calibrate  # noqa: E402

print(f"{SETUP:.6f} {calibrate.Sampler().take_scale(min_units=50):.6f}")

"""Set-up probe: seconds from the start of this script to the built inputs.

    python3 bench/probe.py WORKLOAD SEED      (from the root of a checkout)

Imports ncframe from the checkout's src/, builds the workload's inputs and
prints "<seconds> <sha256 of the inputs> <calibration kernel ns>"; the kernel
(hostspeed.py) runs after the set-up, in the same process, so that run.py can
scale the set-up time to the reference host.  bench/run.py starts the probe
several times per run and reports the median as setup_s.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402

pool = workloads.build(sys.argv[1], int(sys.argv[2]), os.getcwd())
seconds = time.perf_counter() - START

import statistics  # noqa: E402

import hostspeed  # noqa: E402

hostspeed.kernel()  # first call pays numpy's lazy set-up
kernel_ns = statistics.median(hostspeed.kernel_ns() for _ in range(5))
print(f"{seconds!r} {pool.sha256} {kernel_ns}")

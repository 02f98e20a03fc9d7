"""Time one fresh-process setup: import symdual, generate the jobs, run the warm-ups.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints three numbers: the seconds from the end of a host speed probe near
this script's start to the end of the warm-up jobs, then the probe's time
before and after them (see calibrate.py).  run.py starts it several times
and reports the median of the scaled seconds as setup_s.
"""

from time import perf_counter

import calibrate

BEFORE = calibrate.probe()
START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from symdual import cli  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    workloads.generate(workload, seed)
    for argv in workloads.WARMUP[workload]:
        code = run.run_job(cli, argv)[0]
        if code != 0:
            print(f"warm-up job {argv[0]} exited {code}", file=sys.stderr)
            return 1
    seconds = perf_counter() - START
    print(seconds, BEFORE, calibrate.probe())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One timed set-up of a benchmark run, in a fresh interpreter.

Prints the seconds from the first statement to the end of set-up: imports,
plant loading or generation (with its plant-file round trip) and one
warm-up evaluation. ``run.py`` starts this several times per run and
reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py --workload NAME --seed N --seconds S --out DIR
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402,F401  (pins BLAS threads and puts src/ on the path first)
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    st = workloads.setup(workload, args.seed, args.seconds, Path(args.out))
    workloads.warm_up(workload, st)
    print(repr(perf_counter() - T0))


if __name__ == "__main__":
    main()

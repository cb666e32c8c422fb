"""One timed set-up of a workload, in a fresh interpreter.

Times the import of the package, the generation of the seeded inputs
and the model-JSON write, and prints ``{"setup_s": ...}``.  The
benchmark runs this several times per run and reports the median.

    python3 perfbench/setup_probe.py --workload energy-d3 --seed 10 --dir DIR
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import ktspin.cli  # noqa: F401  the import is part of set-up
    from workloads import prepare

    prepare(args.workload, args.seed, Path(args.dir))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()

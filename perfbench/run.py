"""factorcomm benchmark: one workload, one seeded closed-loop run.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, warms up, runs ops for
``--seconds`` with one caller, checks every op's output, and prints one
metric per line followed by a final JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics with tracing off; ``--trace 1`` runs a fixed prefix of
the same traffic untraced and then traced, and reports per-module metrics.
Results and spans are written under ``.perfbench-out/`` in the checkout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# The BLAS thread count must be set before numpy loads; children inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 5
TRACE_SHARE = 0.5  # nominal share of --seconds given to each traced-run pass


def _parse(argv):
    parser = argparse.ArgumentParser(description="factorcomm benchmark")
    parser.add_argument("--workload", required=True, choices=("classify", "stone", "cli-cold", "suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the set-up time, exit")
    return parser.parse_args(argv)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "factorcomm", "__init__.py")):
        sys.exit(f"perfbench: no factorcomm sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import factorcomm

    if os.path.dirname(os.path.dirname(os.path.abspath(factorcomm.__file__))) != SRC:
        sys.exit(f"perfbench: imported factorcomm from {factorcomm.__file__}, not from {SRC}")


def main(argv=None):
    args = _parse(argv)
    _import_library()
    from perfbench import report, workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = report.Run(args, workload, setup_s, ROOT, OUT, BLAS_THREADS)
        if args.trace:
            result = run.traced(TRACE_SHARE)
        else:
            result = run.timed()
            run.add_setup_samples(SETUP_SAMPLES - 1, os.path.abspath(__file__))
        return run.finish(result)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)


if __name__ == "__main__":
    sys.exit(main())

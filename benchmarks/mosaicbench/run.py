"""mosaicbench: one seeded benchmark, five workloads, a traced layer budget.

One workload, as the benchmark driver runs it (last stdout line is the
result object)::

    python3 benchmarks/mosaicbench/run.py --workload closed_scan --seed 1 --seconds 8 --trace 0

All five, once per seed, collected into one file (``--trace 1`` for the
per-layer set)::

    python3 benchmarks/mosaicbench/run.py --seed 1 2 3 --out results.json [--trace 1] [--quick]

Compare two such files metric by metric against the recorded bounds::

    python3 benchmarks/mosaicbench/run.py --compare parent.json change.json

See README.md beside this file for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]

# One BLAS thread, here and in every subprocess (set before numpy loads).
# The matrices this program multiplies are small: OpenBLAS's second thread
# spins without shortening anything (an OPEN probe: 7.2 s of CPU against
# 3.4 s, same wall time), and on a two-core VM whose sustained CPU is
# capped that waste is what gets later runs throttled.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

# The package is imported as ``mosaicbench`` (so its ``trace`` and ``stats``
# never shadow a standard module), the program from ``src/``.
sys.path[0] = str(HERE.parent)
sys.path.insert(1, str(REPO_ROOT / "src"))

DEFAULT_SECONDS = 8
QUICK_SECONDS = 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mosaicbench", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", help="run this workload only and print its result object (default: all five)"
    )
    parser.add_argument(
        "--seed", type=int, nargs="+", default=[1],
        help="generates every input; several: all five workloads once per seed",
    )
    parser.add_argument("--seconds", type=float, default=None, help="scales the fixed operation counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="small inputs and counts (tests)")
    parser.add_argument("--out", help="all five workloads: write the results here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--summarize", metavar="RESULTS", help="median and spread per metric")
    parser.add_argument(
        "--noise-floor", nargs=2, metavar=("FIRST", "SECOND"),
        help="two sets of one commit: print the noise-floor record as JSON",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from mosaicbench import report

        return report.compare_files(*args.compare)
    if args.summarize:
        from mosaicbench import report

        return report.print_summary(args.summarize)
    if args.noise_floor:
        from mosaicbench import report

        return report.print_noise_floor(*args.noise_floor)
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    )
    if seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(
            f"mosaicbench measures the program under {REPO_ROOT / 'src'}, "
            "which is not there",
            file=sys.stderr,
        )
        return 2
    if args.workload:
        from mosaicbench import runner

        if len(args.seed) != 1:
            print("--workload takes one --seed", file=sys.stderr)
            return 2
        return runner.run_and_print(
            args.workload, args.seed[0], seconds, bool(args.trace), args.quick
        )
    return _suite(args, seconds)


def _suite(args, seconds: float) -> int:
    """Every workload in its own process (so memory and leftovers are per
    workload), once per seed."""
    from mosaicbench import metrics

    runs = []
    status = 0
    for seed in args.seed:
        for workload in metrics.WORKLOADS:
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} (seed {seed}) failed", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            runs.append(
                {"workload": workload, "seed": seed, "seconds": seconds,
                 "trace": args.trace, "quick": args.quick, "result": result}
            )
    if args.out:
        Path(args.out).write_text(json.dumps({"claim": None, "runs": runs}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

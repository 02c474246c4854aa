"""Run one workload of the SimMR end-to-end benchmark.

    python3 perfbench/run.py --workload replay_static --seed 7 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same operations once untraced and once with layer spans, and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it list every metric with its unit and sample count, and the
run's provenance.  ``--workload all`` runs every workload in turn, each
in a fresh process so that its peak resident set is its own, and
prints each one's report and result line.  See README.md beside this
file.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import SRC, iter_report, load_spec, print_lines, result_line  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the documented default seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the untraced phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no SimMR sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        status = 0
        for name in names:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            status = subprocess.run(command, check=False).returncode or status
        return status

    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, run_benchmark

    seed = DEFAULT_SEED if args.seed is None else args.seed
    run = run_benchmark(args.workload, seed, args.seconds, bool(args.trace))
    title = (f"simmr {args.workload} seed={seed} trace={args.trace}: "
             f"{run.attempted} ops, {run.failed} failed")
    print_lines(iter_report(title, run.metrics, run.provenance))
    for error in run.errors:
        print(f"  FAILED {error}")
    print(result_line(run.correct, run.attempted, run.failed, run.metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

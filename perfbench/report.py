"""Run every workload once and print each end-to-end metric by name, with its unit.

    python3 perfbench/report.py [--seed N]

Each workload runs in its own process (``run.py --trace 0``), one after the
other, for the ``run_seconds`` that ``BENCHMARK.json`` gives, so
``peak_rss_mb`` is per workload.  Exits non-zero if any run fails or reports
an output that differs from the reference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(seconds),
                               "--trace", "0"],
                              capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':20s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:20s} {unit:6s}" + "".join(
            f"{results[w]['metrics'][name]['value']:14.4f}" for w in WORKLOADS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

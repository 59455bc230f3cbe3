"""Run-to-run spread of the end-to-end metrics, across seeds.

    python3 perfbench/spread.py --workload serve-mixed --runs 10

Runs ``perfbench/run.py`` once per seed (``--first-seed`` onwards) and
prints, for every metric, the median of its values and the distance
between their first and third quartiles as a share of that median —
the figure ``BENCHMARK.json``'s ``bound`` is compared against.  Runs are
untraced and, unless ``--seconds`` says otherwise, as long as
``BENCHMARK.json``'s ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CONFIG = RUN.parent.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads(CONFIG.read_text())["run_seconds"],
    )
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed", file=sys.stderr)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={entry['value']:.4g}"
            for name, entry in result["metrics"].items()), flush=True)
    print(json.dumps({
        name: {
            "median": statistics.median(series),
            "spread": (lambda q: (q[2] - q[0]) / statistics.median(series))(
                statistics.quantiles(series, n=4)),
        }
        for name, series in values.items() if len(series) >= 2
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

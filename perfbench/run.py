"""The repository benchmark: four paper workloads through real ``ppm`` commands.

    python3 perfbench/run.py --workload fig2-mine --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload once more with spans around each layer
and reports the per-layer split instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Samples, workload properties and the environment go to
``perfbench/out/<workload>-seed<N>-trace<T>.json`` (and the spans of a
traced run to ``...-spans.jsonl``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pbench import common  # noqa: E402

WORKLOADS = ("fig2-mine", "range-mine", "serve-mixed", "stream-durable")


def _module(workload: str):
    if workload in ("fig2-mine", "range-mine"):
        from pbench import mine

        return mine
    if workload == "serve-mixed":
        from pbench import serve

        return serve
    from pbench import stream

    return stream


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="'tiny' shrinks every input (for the benchmark's own tests)",
    )
    parser.add_argument(
        "--wrong-oracle", action="store_true",
        help="perturb the expected outputs (tests that checking works)",
    )
    args = parser.parse_args(argv)
    try:
        common.require_source()
    except common.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    module = _module(args.workload)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    call = (args.workload, args.seed, args.seconds, args.size,
            args.wrong_oracle)
    if args.trace:
        from pbench import layers, trace

        traced = module.measure_traced(*call)
        tally = traced["tally"]
        metrics = layers.metrics(traced)
        common.REPORT_DIR.mkdir(parents=True, exist_ok=True)
        trace.dump_spans(traced["spans"] + traced.get("resume_spans", []),
                         common.REPORT_DIR / f"{name}-spans.jsonl")
        report = {
            "properties": traced["properties"],
            "socket": traced.get("socket"),
        }
    else:
        measured = module.measure(*call)
        tally = measured["tally"]
        metrics = measured["metrics"]
        report = measured["report"]
    report.update(
        environment=common.environment(args.seed),
        workload=args.workload,
        trace=args.trace,
        size=args.size,
        attempted=tally.attempted,
        failed=tally.failed,
        error_rate=tally.failed / max(tally.attempted, 1),
        failures=tally.reasons,
        metrics=metrics,
    )
    path = common.write_report(name, report)
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(f"perfbench: report {path}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

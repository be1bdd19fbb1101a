"""Run one benchmark workload and print its result as the last stdout line.

Usage::

    python3 perfbench/run.py --workload {paper-cli,service-mix,big-suite} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the same workload with per-layer accounting and prints the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``; what each
one means is in ``perfbench/README.md``.  A line ``perfbench detail:
{...}`` before the result carries raw latencies with percentiles and sample
counts, throughput, exact counts and the host record.
"""

from __future__ import annotations

import argparse
import compileall
import json
import signal
import sys

import common

WORKLOADS = ("paper-cli", "service-mix", "big-suite")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops the processes it started: the workloads'
    # ``finally`` blocks run on SystemExit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not common.source_present():
        print(f"perfbench: no program source under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    # The build step: compile the package's bytecode once, before anything
    # is timed, as installing it would (a no-op when it is up to date).
    if not compileall.compile_dir(str(common.SRC), quiet=1):
        print("perfbench: src/ does not compile", file=sys.stderr)
        return 2

    if args.workload == "paper-cli":
        import paper_cli as workload
    elif args.workload == "service-mix":
        import service_mix as workload
    else:
        import big_suite as workload
    run = workload.traced if args.trace else workload.untraced
    outcome, values, detail = run(args.seed, args.seconds)

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        # A layer this workload never enters reads 0 of its unit.
        metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    detail = dict(detail, workload=args.workload, host=common.host_record(args.seed))
    common.emit(outcome, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())

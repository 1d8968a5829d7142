"""fdplace benchmark: CLI and library solve latency on seeded models.

    python3 bench/run.py --workload single-random --seed 1 --seconds 10 --trace 0

Workloads are defined in workloads.py and explained in BENCHMARK.json.
Run from a checkout of the repository: the package is imported from
src/ and every CLI request is a fresh `python -m fdplace` process with
PYTHONPATH=src. Models, witnesses, the results file and, with --trace
1, the spans are written under bench/out/.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}, the metrics being the end-to-end ones with --trace 0 and
the per-layer ones with --trace 1. A human-readable summary goes to
stderr. Exit code 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
OUT = BENCH / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fdplace" / "__init__.py").is_file():
        print(f"error: no fdplace package under {src}", file=sys.stderr)
        return 2
    out_dir = OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))

    # Started before this process imports the package or parses a model;
    # see spawner.py.
    sys.path.insert(0, str(BENCH))
    from spawner import Spawner

    with Spawner(str(out_dir / "stderr.txt"), env) as spawner:
        sys.path.insert(0, str(src))
        import harness
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        references = harness.References(BENCH / "references.json", out_dir / "reference_cache.json")
        outcome = harness.run(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), out_dir, spawner, references,
        )

    result, details = outcome["result"], outcome["details"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = details.pop("spans", None)
    if spans is not None:
        (out_dir / f"spans-{stem}.json").write_text(
            "[\n" + ",\n".join(json.dumps(s) for s in spans) + "\n]\n"
        )
    (out_dir / f"results-{stem}.json").write_text(json.dumps({**details, **result}, indent=1) + "\n")
    summarise(result, details)
    print(json.dumps(result))
    return 0


def summarise(result: dict, details: dict) -> None:
    err = sys.stderr
    counts: dict[str, int] = {}
    for by_kind in details["samples"].values():
        for kind, values in by_kind.items():
            counts[kind] = counts.get(kind, 0) + len(values)
    print(f"{details['workload']} seed {details['seed']} trace {int(details['trace'])}: "
          f"{details['passes']} passes in {details['measured_s']:.1f} s, samples {counts}", file=err)
    rows = {**result["metrics"], "failed_frac": details["failed_frac"]}
    for name, metric in rows.items():
        print(f"  {name:30} {metric['value']:>14.6g} {metric['unit']}", file=err)
    if "trace_overhead_s" in details:
        print(f"  trace overhead on query_p50_s: {details['trace_overhead_s']:+.4f} s, "
              f"span violations {details['span_violations']}", file=err)
    for failure in details["failures"]:
        print(f"  FAILED {failure}", file=err)


if __name__ == "__main__":
    sys.exit(main())

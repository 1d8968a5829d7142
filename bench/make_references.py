"""Writes references.json: the reference objective of every request of
every workload, keyed by base-shape fingerprint and request key.

    python3 bench/make_references.py

Single-block references come from solve_basic (about a minute for all
of them on one core), multi-block ones from the DP under a skew window
one wider than the natural bound, checked against the DP at the natural
bound. The run reads this table first and computes, then caches under
bench/out/, any reference it lacks, for instance after a change to the
generator.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, compute_reference, fingerprint, query  # noqa: E402


def main() -> int:
    table: dict[str, dict] = {}
    for workload_name, workload in WORKLOADS.items():
        for model_name, build in workload.models.items():
            base = build()
            entry = table.setdefault(fingerprint(base), {"model": f"{workload_name}/{model_name}"})
            for request in workload.requests:
                if request.model != model_name:
                    continue
                reference = compute_reference(base, request)
                if request.multi and list(query(base, request)[0].entries) != reference:
                    print(f"error: {entry['model']} {request.key}: skew windows disagree", file=sys.stderr)
                    return 1
                entry[request.key] = reference
                print(f"{entry['model']} {request.key}: {reference[:6]}...", file=sys.stderr)
    lines = [f"{json.dumps(fp)}: {json.dumps(entry, separators=(',', ':'))}" for fp, entry in table.items()]
    (Path(__file__).parent / "references.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print pipeline_bench's deterministic work counters as JSON.

Runs one short traced pass of each compile workload of pipeline_bench and
keeps every per-layer metric whose unit is `count` or `bytes`, except the
`serve.*` ones (the serving path's counts depend on thread timing). The
result is what `BENCH_counters.json` holds; CI regenerates it and fails on
any difference, so a change that makes the pipeline do more or less work
shows up without a benchmark run.

    python3 scripts/bench_counters.py > BENCH_counters.json

Run it from the repository root. Set CARGO_TARGET_DIR to reuse a build.
"""

import json
import subprocess
import sys

WORKLOADS = ["match-heavy", "search-heavy", "stochastic"]
ARGS = ["--seed", "1", "--seconds", "1", "--trace", "1"]
UNITS = {"count", "bytes"}


def counters(workload):
    cmd = [
        "cargo", "run", "--release", "--offline", "-q",
        "--manifest-path", "pipeline_bench/Cargo.toml", "--",
        "--workload", workload, *ARGS,
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: the traced run was not correct: {result}")
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in UNITS and not name.startswith("serve.")
    }


def main():
    report = {
        "schema": "denali-bench-counters-v1",
        "args": " ".join(ARGS),
        "workloads": {w: counters(w) for w in WORKLOADS},
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()

"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workload shared_dense --seeds 1-10

Each run measures for the ``run_seconds`` of ``BENCHMARK.json``, untraced.
For every metric it prints the median over the runs, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  The runs are
made one after another; results go to ``perfbench/out/spread_*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(
    encoding="utf-8"))["run_seconds"]


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"unit": results[0]["metrics"][name]["unit"],
                      "median": median, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / median if median else 0.0,
                      "values": values}
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    results = []
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
            capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        results.append(result)
        print("seed %d: %.0f s, attempted %d, failed %d, correct %s" % (
            seed, time.perf_counter() - start, result["attempted"],
            result["failed"], result["correct"]), flush=True)
    rows = summarise(results)
    print("%-26s %12s %12s %12s %8s" % ("metric", "q1", "median", "q3", "spread"))
    for name, row in rows.items():
        print("%-26s %12.5g %12.5g %12.5g %7.1f%%  %s" % (
            name, row["q1"], row["median"], row["q3"], 100 * row["spread"],
            row["unit"]))
    shares = {r["failed"] / r["attempted"] for r in results}
    print("failed share per run: %s" % sorted(shares))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = "spread_%s_%s.json" % (args.workload, time.strftime("%Y%m%dT%H%M%S"))
    (out / name).write_text(json.dumps({"seeds": args.seeds, "metrics": rows,
                                        "results": results}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

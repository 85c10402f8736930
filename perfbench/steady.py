"""Run one workload under several seeds and print each end-to-end metric's
spread: the distance between its first and third quartile as a share of
its median, next to the metric's bound from ``BENCHMARK.json``.

    python3 perfbench/steady.py --workload fig8g-reach --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    values = {entry["name"]: [] for entry in spec["end_to_end"]}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for entry in spec["end_to_end"]:
        series = values[entry["name"]]
        print(f"{entry['name']:<12} median {statistics.median(series):<12.6g} "
              f"spread {metrics.spread(series):.4f}  bound {entry['bound']}  "
              f"third of bound {entry['bound'] / 3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

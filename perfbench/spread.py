"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout::

    python3 perfbench/spread.py --seeds 1-10 [--out summary.json]

Every run measures ``run_seconds`` of ``BENCHMARK.json`` with ``--trace 0``.
For every workload and end-to-end metric it prints the median of the runs,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread: the distance between the quartiles as a share of the median.
Runs go seed by seed through the workloads, so slow drift in the machine's
load spreads over all workloads alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES

RUN = ROOT / "perfbench" / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="range a-b or comma list")
    p.add_argument("--out", default=None, help="write the summary as JSON here")
    args = p.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    runs = {w: [] for w in WORKLOAD_NAMES}
    for seed in _seeds(args.seeds):
        for w in WORKLOAD_NAMES:
            r = run_once(w, seed, seconds)
            runs[w].append(r)
            print(f"{w} seed={seed} correct={r['correct']} attempted={r['attempted']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in r["metrics"].items()),
                  flush=True)

    summary = {}
    for w in WORKLOAD_NAMES:
        summary[w] = {
            "runs": len(runs[w]),
            "all_correct": all(r["correct"] for r in runs[w]),
            "jobs": [r["attempted"] for r in runs[w]],
            "metrics": summarise(runs[w]),
        }
        for name, m in summary[w]["metrics"].items():
            print(f"{w:9s} {name:12s} median={m['median']:.4f} {m['unit']} "
                  f"q1={m['q1']:.4f} q3={m['q3']:.4f} spread={m['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

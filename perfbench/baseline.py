"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1-10] [--seconds 20]
                                  [--trace] [--out FILE]

For every workload and seed it runs ``perfbench/run.py`` once, one run after
another, and prints per metric the median, the first and third quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median. ``--trace`` adds two traced runs per workload at the first seed and checks
that their counts repeat exactly.
``--out`` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import count_mismatches  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} reported failures:\n{proc.stdout[-3000:]}")
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in catalogue["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=catalogue["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in catalogue["end_to_end"]}
    summary = {"seeds": seeds, "seconds": args.seconds,
               "machine": {"platform": platform.platform(), "cpu": platform.processor() or platform.machine(),
                           "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            t0 = time.monotonic()
            runs.append(run_once(workload, seed, args.seconds, 0)["metrics"])
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1].items()), flush=True)
        entry = {name: summarise([r[name]["value"] for r in runs]) for name in runs[0]}
        for name, s in entry.items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  <-- above a third of bound"
            print(f"  {name}: median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        summary["workloads"][workload] = {"end_to_end": entry}
        if args.trace:
            traced = [run_once(workload, seeds[0], args.seconds, 1)["metrics"] for _ in range(2)]
            layers = [{k: v["value"] for k, v in t.items()} for t in traced]
            mismatches = count_mismatches(layers, list(layers[0]))
            for problem in mismatches:
                print(f"  FAILED count stability across traced runs: {problem}", flush=True)
            summary["workloads"][workload]["per_layer"] = layers[0]
            summary["workloads"][workload]["counts_repeat"] = not mismatches
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

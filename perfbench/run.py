"""The lab's benchmark: one workload, run through ``vqalab.cli.main`` in fresh workers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The workload's graphs are drawn from ``--seed`` as G(d, p) and handed to the
CLI as edge-list files, together with ``--seed`` for sampling and restarts.
The load is a closed loop with one client: one worker process at a time
issues the command list back to back, on one Python thread with every BLAS
pool pinned to one thread.

With ``--trace 0`` the run first starts ``SETUP_SAMPLES - 1`` workers that only
set up, then one worker that sets up and runs passes for ``--seconds``. It
reports every end-to-end metric of BENCHMARK.json. With ``--trace 1`` two
workers at the same seed alternate untraced and traced passes; the run
reports every per-layer metric and fails unless the two give identical
counts. Either way every output is checked against ``oracle.py``; the last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from worker import THREAD_VARS, THREADS  # noqa: E402

SETUP_SAMPLES = 9
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0
READY_LIMIT_S = 60.0
EXACT_COUNTS = ("linalg.eigh.n3_sum", "reductions.instance_bytes", "optimize.iterations",
                "serialize.bytes_out")


class BenchError(RuntimeError):
    pass


def load_config() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def make_commands(workload: dict, name: str, seed: int, run_dir: Path) -> list[dict]:
    """The workload's command list with its graphs written to ``run_dir``."""
    specs = []
    for i, c in enumerate(workload["commands"]):
        edges = oracle.random_graph(c["d"], c["p"], f"{seed}/{name}/{i}")
        graph = run_dir / f"graph{i}.txt"
        graph.write_text(oracle.edge_list_text(c["d"], edges))
        argv = [c["command"], "--family", c["family"], "--graph", str(graph), "--seed", str(seed)]
        if "k" in c:
            argv += ["--k", str(c["k"])]
        argv += c["args"]
        out = None
        if c["command"] == "export":
            out = str(run_dir / f"export{i}.json")
            argv += ["--out", out]
        specs.append({
            "argv": argv, "command": c["command"], "family": c["family"], "d": c["d"],
            "k": c.get("k", 1), "maxcut": oracle.maxcut(c["d"], edges), "out": out,
        })
    return specs


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ``TAIL_BEYOND`` samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    pct = (100 * (n - TAIL_BEYOND)) // n
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def best_pass(command_walls: list[list[float]]) -> float:
    """One pass's wall time with each command at its fastest: the sum over the
    command list of each command's minimum over the timed passes.

    On a shared host other tenants slow every command for seconds to minutes
    at a time, so a median pass follows their load. A command's fastest run
    is the least disturbed one and drifts far less.
    """
    return sum(min(times) for times in command_walls)


class Runner:
    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, **{v: str(THREADS) for v in THREAD_VARS})
        self.env.pop("PYTHONPATH", None)
        self.spawned = 0

    def worker(self, job: dict) -> tuple[float, dict]:
        """Run one worker to completion; returns (set-up seconds, result)."""
        k = self.spawned
        self.spawned += 1
        job_path = self.run_dir / f"job{k}.json"
        result_path = self.run_dir / f"result{k}.json"
        job_path.write_text(json.dumps(job))
        with open(self.run_dir / f"worker{k}.err", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                stdout=subprocess.PIPE, stderr=err, text=True, env=self.env, cwd=ROOT,
            )
            try:
                ready, _, _ = select.select([proc.stdout], [], [], READY_LIMIT_S)
                line = proc.stdout.readline() if ready else ""
                setup_s = time.perf_counter() - t0
                if line.strip() != "ready":
                    raise BenchError(f"worker {k} did not set up")
                proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker {k} ran past the run's time limit")
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
        if proc.returncode != 0 or not result_path.exists():
            tail = (self.run_dir / f"worker{k}.err").read_text().strip()[-2000:]
            raise BenchError(f"worker {k} exited with {proc.returncode}:\n{tail}")
        return setup_s, json.loads(result_path.read_text())


def digest_failures(results: list[dict]) -> list[dict]:
    """Commands whose output, timestamp removed, differs from their first output.

    A digest is None where the command already failed; those are skipped.
    """
    failures = []
    for i in range(len(results[0]["digests"])):
        seen = [(w, p, d) for w, r in enumerate(results) for p, d in enumerate(r["digests"][i])
                if d is not None]
        for w, pass_no, d in seen[1:]:
            if d != seen[0][2]:
                failures.append({"worker": w, "pass": pass_no, "cmd": i,
                                 "problem": "output differs from the first pass"})
    return failures


def count_mismatches(layers: list[dict], names: list[str]) -> list[str]:
    """Count metrics that do not repeat exactly across traced passes."""
    exact = [n for n in names if n.endswith(".calls") or n in EXACT_COUNTS]
    problems = []
    for n in exact:
        values = {m.get(n, 0) for m in layers}
        if len(values) > 1:
            problems.append(f"{n} differs between traced passes: {sorted(values)}")
    return problems


def main(argv=None) -> int:
    config = load_config()
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    ap.add_argument("--seed", type=int, default=config["default_seed"])
    ap.add_argument("--seconds", type=float, default=catalogue["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into an exit, so the worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "vqalab" / "__init__.py").is_file():
        print(f"error: no vqalab package under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if THREADS > nproc:
        print(f"error: {THREADS} BLAS threads requested but nproc is {nproc}", file=sys.stderr)
        return 2
    wanted = catalogue["per_layer" if args.trace else "end_to_end"]

    run_dir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        commands = make_commands(config["workloads"][args.workload], args.workload, args.seed, run_dir)
        runner = Runner(run_dir, time.monotonic() + RUN_LIMIT_S)
        job = {"src": str(src), "commands": commands, "seconds": args.seconds}
        if args.trace:
            spans_dir = ROOT / ".bench_out" / "spans"
            spans_dir.mkdir(exist_ok=True)
            results = []
            for w in range(2):
                spans = spans_dir / f"{args.workload}-s{args.seed}-w{w}.npz"
                _, res = runner.worker(dict(job, mode="trace", seconds=args.seconds / 2,
                                            spans_path=str(spans)))
                results.append(res)
        else:
            setups = [runner.worker(dict(job, mode="setup"))[0] for _ in range(SETUP_SAMPLES - 1)]
            setup_s, res = runner.worker(dict(job, mode="measure"))
            setups.append(setup_s)
            results = [res]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = results[0]["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    failures = [dict(f, worker=w) for w, r in enumerate(results) for f in r["failures"]]
    failures += digest_failures(results)
    for f in failures:
        print(f"FAILED worker {f['worker']} pass {f['pass']}: "
              f"vqalab {' '.join(commands[f['cmd']]['argv'])}: {f['problem']}")
    attempted = sum(r["attempted"] for r in results)
    failed = len({(f["worker"], f["pass"], f["cmd"]) for f in failures})
    correct = failed == 0
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4g}")

    if args.trace:
        layers = [m for r in results for m in r["layers"]]
        for problem in count_mismatches(layers, [m["name"] for m in wanted]):
            print(f"FAILED count stability: {problem}")
            correct = False
        values = {m["name"]: statistics.median(l.get(m["name"], 0.0) for l in layers) for m in wanted}
        print(f"traced passes: {len(layers)} over {len(results)} workers")
    else:
        walls = results[0]["walls"]
        values = {
            "best_pass_s": best_pass(results[0]["command_walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": results[0]["maxrss_kb"] / 1024,
        }
        tail = tail_percentile(walls)
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else f"no percentile has {TAIL_BEYOND} samples beyond it"
        print(f"pass wall time: median {statistics.median(walls):.4f} s, {tail_text}, "
              f"min {min(walls):.4f} s, max {max(walls):.4f} s, n={len(walls)} passes")
        print(f"best_pass_s: sum of each command's fastest of {len(walls)} runs "
              f"{values['best_pass_s']:.4f} s")
        print(f"setup_s: median of {len(setups)} workers {values['setup_s']:.4f} s")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

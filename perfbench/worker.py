"""One benchmark worker: a fresh interpreter that sets up, then runs passes.

Usage: python3 worker.py JOB.json RESULT.json

The worker pins every BLAS/OpenMP pool to one thread before numpy is
imported, imports ``vqalab`` from the checkout named in the job, constructs
every instance the workload uses and prints ``ready``. A ``setup`` job stops
there. A ``measure`` or ``trace`` job then runs passes over the command
list through ``vqalab.cli.main`` until its time is up, checks every output
against the oracle and writes the result file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# optimize builds an instance only where its objective or spectrum needs one;
# on oracular, logdim and boosted it evaluates closed forms only.
OPTIMIZE_BUILDS = frozenset({"single-layer", "qaoa1", "qaoa-multi", "fermion"})
MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool; the libraries read these only when loaded."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def _import_vqalab(src: str):
    sys.path.insert(0, src)
    import vqalab
    import vqalab.cli

    where = Path(vqalab.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"vqalab imported from {where}, not from {src}")
    return vqalab


def _construct(vqalab, commands) -> list:
    """Build every instance the CLI builds for the commands, with its own argument defaults."""
    from vqalab import fermions, reductions
    from vqalab.graphs import parse_graph

    constructors = {
        "oracular": lambda g, a: reductions.oracular_vqa_instance(g),
        "boosted": lambda g, a: reductions.boosted_vqa_instance(g, a.k),
        "logdim": lambda g, a: reductions.logdim_vqa_instance(g),
        "single-layer": lambda g, a: reductions.single_layer_instance(g, a.m),
        "qaoa1": lambda g, a: reductions.qaoa_single_layer_instance(g, a.tau, a.m),
        "qaoa-multi": lambda g, a: reductions.qaoa_multilayer_instance(g),
        "fermion": lambda g, a: fermions.fermionic_vqa_instance(g),
    }
    parser = vqalab.cli.build_parser()
    built = []
    for spec in commands:
        if spec["command"] == "optimize" and spec["family"] not in OPTIMIZE_BUILDS:
            continue
        args = parser.parse_args(spec["argv"])
        with open(args.graph) as fh:
            g = parse_graph(fh.read())
        built.append(constructors[args.family](g, args))
    return built


def _run_pass(cli, commands) -> tuple[list[float], list]:
    """Run the command list once; returns each command's wall time and outcome.

    ``cli.main`` is looked up per call so a traced pass goes through the
    tracer's wrapper."""
    times, outcomes = [], []
    for spec in commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(spec["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, not a crashed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        outcomes.append((rc, out.getvalue(), err.getvalue()))
    return times, outcomes


class Checker:
    """Checks each command's output and tracks its digest across passes."""

    def __init__(self, commands):
        self.commands = commands
        self.digests: list[list[str]] = [[] for _ in commands]
        self._known_raw: list[dict[str, str]] = [{} for _ in commands]
        self.failures: list[dict] = []
        self.attempted = 0
        self.optimize_docs: list[dict] = []

    def check_pass(self, pass_no: int, outcomes) -> None:
        self.optimize_docs = []
        for i, (spec, (rc, stdout, stderr)) in enumerate(zip(self.commands, outcomes)):
            self.attempted += 1
            digest, problems = self._check_one(i, spec, rc, stdout, stderr)
            self.digests[i].append(digest)
            for problem in problems:
                self.failures.append({"pass": pass_no, "cmd": i, "problem": problem})

    def _check_one(self, i, spec, rc, stdout, stderr) -> tuple[str | None, list[str]]:
        """(digest or None, problems) of one command's output."""
        if rc != 0:
            return None, [f"exit {rc!r}: {stderr.strip()[-300:]}"]
        raw = Path(spec["out"]).read_bytes() if spec.get("out") else stdout.encode()
        raw_hash = hashlib.sha256(raw).hexdigest()
        known = self._known_raw[i].get(raw_hash)
        if known is not None:
            if spec["command"] == "optimize":
                self.optimize_docs.append(json.loads(raw))
            return known, []
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            return None, [f"output is not JSON: {exc}"]
        problems = oracle.check(spec, doc)
        digest = oracle.digest(doc)
        if not problems:
            self._known_raw[i][raw_hash] = digest
        if spec["command"] == "optimize":
            self.optimize_docs.append(doc)
        return digest, problems


def optimize_counts(docs, max_iters: int) -> dict[str, float]:
    """Iterations, restarts stopped at the iteration cap, and converged share."""
    iterations = at_cap = converged = restarts = 0
    for doc in docs:
        for inst in doc["instances"]:
            its = inst["iterations_per_restart"]
            iterations += sum(its)
            at_cap += sum(1 for n in its if n == max_iters + 1)
            converged += sum(1 for c in inst["converged"] if c)
            restarts += len(its)
    return {
        "optimize.iterations": iterations,
        "optimize.restarts_at_max_iters": at_cap,
        "optimize.converged_frac": converged / restarts if restarts else 0.0,
    }


def _environment(vqalab) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "vqalab": vqalab.__version__,
    }


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    commands = job["commands"]
    pin_threads()
    vqalab = _import_vqalab(job["src"])
    instances = _construct(vqalab, commands)
    print("ready", flush=True)
    del instances
    result = {"env": _environment(vqalab)}
    if job["mode"] != "setup":
        result.update(_measure(vqalab, job))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result))
    return 0


def _measure(vqalab, job) -> dict:
    from vqalab.optimize import OptimizerConfig

    commands, traced = job["commands"], job["mode"] == "trace"
    checker = Checker(commands)
    tracer = Tracer() if traced else None
    max_iters = OptimizerConfig().max_iters
    walls = {"untraced": [], "traced": []}
    command_times = []  # per untraced timed pass, each command's wall time
    layers = []
    t_start = time.perf_counter()
    pass_no = 0
    while True:
        trace_this = traced and pass_no % 2 == 1
        if trace_this:
            tracer.current_pass = pass_no
            tracer.install()
        try:
            times, outcomes = _run_pass(vqalab.cli, commands)
        finally:
            if trace_this:
                tracer.uninstall()
        checker.check_pass(pass_no, outcomes)
        if pass_no > 0:  # the first pass warms caches and lazy imports
            walls["traced" if trace_this else "untraced"].append(sum(times))
            if not trace_this:
                command_times.append(times)
        if trace_this:
            metrics = tracer.pass_metrics(pass_no)
            metrics.update(optimize_counts(checker.optimize_docs, max_iters))
            layers.append(metrics)
        pass_no += 1
        elapsed = time.perf_counter() - t_start
        enough = len(walls["untraced"]) >= MIN_TIMED_PASSES and (
            not traced or len(walls["traced"]) >= MIN_TRACED_PASSES)
        if elapsed >= job["seconds"] and enough:
            break
    if traced:
        tracer.save(job["spans_path"])
        overhead = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
        for metrics in layers:
            metrics["trace.overhead_s"] = overhead
    return {
        "walls": walls["untraced"],
        "command_walls": [list(c) for c in zip(*command_times)],
        "layers": layers,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "digests": checker.digests,
    }


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: worker.py JOB.json RESULT.json")
    sys.exit(main(sys.argv[1], sys.argv[2]))

"""simqwalk benchmark: one workload per run, one client, jobs in a closed loop.

    python3 bench/run.py --workload karate-cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each job is a fixed list of ``simqwalk`` command lines (see workloads.py),
passed one at a time to ``simqwalk.cli.main`` in this process with stdout
captured, exactly as a user's ``simqwalk ...`` call would run them.  Every
call's output is checked after the job, outside the timed region.  A call
fails if it raises, exits non-zero or fails its check; a failed check also
makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics: the median job time, the
median set-up time (one set-up before the first job and one after each job,
each in a fresh interpreter timed from its start), and the peak resident
memory of this process through set-up and its first job.  ``--trace 1`` alternates
untraced and traced jobs and reports per-layer medians over the traced ones
(see spans.py), plus the tracing overhead; the spans go to
``.bench_run/<workload>-seed<seed>/spans.json``.

The last line of stdout is the result as one JSON object; the line before it
records the workload, its input sizes and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_TIMEOUT_S = 60


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cap_blas_threads(threads: int) -> None:
    """Must run before numpy is imported; set-up children inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _time_setup(workload: str, seed: int, workdir: Path) -> float:
    """One set-up in a fresh interpreter, timed from its start until it is ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed with exit code {proc.returncode}")
    return elapsed


def _call(cli, argv) -> tuple[str, str | None]:
    """Run one CLI call; return its stdout and the failure, if any."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the op failed; the run goes on and counts it
        return out.getvalue(), f"raised {type(exc).__name__}: {exc}"
    if code != 0:
        return out.getvalue(), f"exit code {code}: {err.getvalue().strip()}"
    return out.getvalue(), None


class Runner:
    """Runs jobs, checks their outputs and tallies the ops."""

    def __init__(self, cli, prepared: workloads.Prepared):
        self.cli = cli
        self.ops = prepared.ops
        self.attempted = self.failed = self.wrong = 0
        self.problems: dict[str, int] = {}

    def job(self, job: int, tracer: spans.Tracer | None = None) -> float:
        """Time one job, then check it; returns the job's wall time."""
        outputs = []
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is None:
                outputs.append(_call(self.cli, op.argv))
            else:
                with tracer.op(job, i, op.dim):
                    outputs.append(_call(self.cli, op.argv))
        elapsed = time.perf_counter() - start
        for op, (out, failure) in zip(self.ops, outputs):
            self.attempted += 1
            if failure is None:
                wrong = op.check(out)
                if wrong is not None:
                    self.wrong += 1
                    failure = f"wrong output: {wrong}"
            if failure is not None:
                self.failed += 1
                key = f"{' '.join(op.argv[:3])}: {failure}"
                self.problems[key] = self.problems.get(key, 0) + 1
            if tracer is not None:
                tracer.count("cli.output_bytes", len(out.encode("utf-8")))
                tracer.count("cli.failed_ops", failure is not None)
        return elapsed


def _closed_loop(seconds: float, step) -> None:
    """Call ``step`` while half a typical step still fits in ``seconds``; at
    least once.  A run thus ends within about half a step of ``seconds``."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        start = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + median(durations) / 2 > deadline:
            return


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_cap": nproc,
        "cpu": _cpu_model(),
        "nproc": nproc,
    }


def _unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"),
                         ("_flops", "flop"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to run jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "simqwalk" / "__init__.py").is_file():
        print(f"bench: no simqwalk package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    nproc = _nproc()
    _cap_blas_threads(nproc)
    workdir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}"

    setup_samples = [_time_setup(args.workload, args.seed, workdir)]
    prepared = workloads.setup(SRC, args.workload, args.seed, workdir)
    import simqwalk.cli

    runner = Runner(simqwalk.cli, prepared)
    job_times: list[float] = []
    if args.trace:
        tracer = spans.Tracer()
        traced_times: list[float] = []

        def traced(job):
            with tracer.installed(simqwalk):
                traced_times.append(runner.job(job, tracer))

        def pair(i):
            # alternate which side runs first, so warm-up falls on both
            if i % 2:
                traced(2 * i + 1)
            job_times.append(runner.job(2 * i))
            if not i % 2:
                traced(2 * i + 1)

        _closed_loop(args.seconds, pair)
        metrics = spans.medians([tracer.job_metrics(2 * i + 1) for i in range(len(traced_times))])
        metrics["trace.job_s"] = median(traced_times)
        metrics["trace.untraced_job_s"] = median(job_times)
        metrics["trace.overhead_s"] = metrics["trace.job_s"] - metrics["trace.untraced_job_s"]
    else:
        peak_kb = []

        def timed(i):
            job_times.append(runner.job(i))
            if not peak_kb:
                # Set-up plus one job is what a fresh `simqwalk` process holds;
                # later jobs only add allocator history, which moved the peak
                # of hodge-structure from 98 MB to 110 MB in some runs.
                peak_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            # Set-ups spread over the run see the same machine as the jobs;
            # back to back they all landed in one slow or fast moment.
            setup_samples.append(_time_setup(args.workload, args.seed, workdir))

        _closed_loop(args.seconds, timed)
        metrics = {
            "job_s": median(job_times),
            "setup_s": median(setup_samples),
            "peak_rss_mb": peak_kb[0] / 1024,
        }

    workload = workloads.WORKLOADS[args.workload]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "loads": workload.loads,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input": dict(graph=prepared.graph, **prepared.stats()),
        "jobs": runner.attempted // len(prepared.ops),
        "ops_per_job": len(prepared.ops),
        "job_s_samples": job_times,
        "setup_s_samples": setup_samples,
        "error_rate": runner.failed / runner.attempted,
        "problems": runner.problems,
        "environment": _environment(nproc),
    }
    if args.trace:
        tracer.dump(workdir / "spans.json", record)
    for name, value in metrics.items():
        print(f"{name:32} {value:.6g} {_unit(name)}")
    print(f"{'error_rate':32} {record['error_rate']:.6g} ratio "
          f"({runner.failed} of {runner.attempted} ops failed, {record['jobs']} jobs)")
    print(json.dumps(record))
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the `hurwitz` CLI, end to end and per module.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # every workload in turn

Run from the root of a source checkout; it imports the package from
`src/`.  The seed relabels the bundled inputs (`inputs.py`); each workload
(`workloads.py`) runs its CLI jobs in one fresh single-threaded Python
process (`worker.py`) and every report is checked (`oracle.py`).

--trace 0 prints the end-to-end metrics: median pass wall and CPU time, the
worker's peak RSS, and the median set-up time over several fresh processes.
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics (`tracer.py`); the spans go to .bench_out/ as JSON lines.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit status is 0 only when every
job of every pass succeeded and matched the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import write_inputs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "hurwitz" / "data"

# Fresh processes timed for setup_s before and again after the worker, so
# that the median spans the run rather than one moment of machine speed.
SETUP_PROBES = 3
TIME_LIMIT_S = 170  # every run ends within 180 s

# BLAS pools single-threaded like the CLI (its --threads defaults to 1), and a
# fixed hash seed so that the traced work counts repeat exactly.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS),
                   help="one workload (default: every workload in turn)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _spawn(args, deadline):
    """Start a worker; (process, seconds from start to its "ready" line)."""
    env = {**os.environ, **SINGLE_THREAD_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise RuntimeError(f"worker did not get ready (exit status {proc.returncode})")
    return proc, ready


def _finish(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the time limit") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")


def _probe_setup(deadline):
    """Set-up times of SETUP_PROBES fresh processes that only import the CLI."""
    times = []
    for _ in range(SETUP_PROBES):
        proc, ready = _spawn(["--setup-only"], deadline)
        _finish(proc, deadline)
        times.append(ready)
    return times


def run(args):
    """The worker's summary plus the set-up samples, or raise RuntimeError."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        inputs = write_inputs(DATA, work / "inputs", args.seed)
        setups = _probe_setup(deadline)
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        result = work / "result.json"
        proc, ready = _spawn(
            ["--workload", args.workload, "--inputs", str(inputs), "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result), "--spans", str(spans)],
            deadline,
        )
        _finish(proc, deadline)
        setups += [ready] + _probe_setup(deadline)
        summary = json.loads(result.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary["setups"] = setups
    return summary


def metrics_of(summary, trace):
    if trace:
        return summary["layers"]
    values = {
        "wall_s": summary["wall_s"],
        "cpu_s": summary["cpu_s"],
        "peak_rss_mb": summary["peak_rss_mb"],
        "setup_s": statistics.median(summary["setups"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hurwitz" / "cli.py").is_file() or not DATA.is_dir():
        print(f"no hurwitz source tree under {SRC}", file=sys.stderr)
        return 2
    status = 0
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        status = max(status, run_workload(argparse.Namespace(**{**vars(args), "workload": workload})))
    return status


def run_workload(args):
    """Run, check and print one workload; the exit status."""
    try:
        summary = run(args)
    except RuntimeError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    metrics = metrics_of(summary, args.trace)
    for problem in summary["failures"]:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted, failed = summary["attempted"], summary["failed"]
    kind = "untraced and traced pass" if args.trace else "pass"
    print(f"workload {args.workload}, seed {args.seed}: {kind} walls "
          f"{' '.join(f'{w:.3f}' for w in summary['walls'])} s")
    for job_id in summary["job_walls"][0]:
        walls = " ".join(f"{w[job_id]:.3f}" for w in summary["job_walls"])
        print(f"  job {job_id:28s} {walls} s")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {failed / attempted:>14.6g} ratio ({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

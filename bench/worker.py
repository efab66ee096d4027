"""One workload in one fresh, single-threaded process (started by run.py).

Imports `hurwitz.cli`, prints "ready" (the end of set-up), then calls
`hurwitz.cli.main(argv)` for each job of the workload, writing reports to
`--out` files, and checks every report against the oracle outside the timed
region.  Untraced, it repeats whole passes while another pass still fits in
`--seconds`; traced, it runs one untraced and one traced pass.  The summary
goes to the JSON file named by `--result`.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter, process_time


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--inputs")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--result")
    p.add_argument("--spans")
    return p.parse_args(argv)


def run_pass(main, jobs, out_dir, tracer=None):
    """Run every job once; (wall s, cpu s, {job id: (exit status or error, wall s)})."""
    statuses = {}
    wall0 = perf_counter()
    cpu0 = process_time()
    for job_id, argv in jobs:
        if tracer is not None:
            tracer.job = job_id
        start = perf_counter()
        try:
            status = main(argv + ["--out", str(Path(out_dir) / f"{job_id}.json")])
        except Exception:
            status = traceback.format_exc()
        statuses[job_id] = (status, perf_counter() - start)
    wall = perf_counter() - wall0
    cpu = process_time() - cpu0
    return wall, cpu, statuses


def check_pass(oracle, statuses, out_dir):
    """Mismatch descriptions of one pass; a job with any counts as failed."""
    failures = {}
    for job_id, (status, _) in statuses.items():
        if status != 0:
            failures[job_id] = [f"{job_id}: exit status {status!r}"]
            continue
        path = Path(out_dir) / f"{job_id}.json"
        problems = oracle.check(job_id, json.loads(path.read_text()))
        path.unlink()
        if problems:
            failures[job_id] = problems
    return failures


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, args.src)
    import hurwitz.cli

    if not Path(hurwitz.cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"imported hurwitz from {hurwitz.cli.__file__}, not from {args.src}")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import resource

    from oracle import Oracle
    from tracer import Tracer
    from workloads import job_argvs

    jobs = job_argvs(args.workload, args.inputs)
    oracle = Oracle(goldens=args.seed == 0)
    out_dir = Path(args.inputs) / "reports"
    out_dir.mkdir(exist_ok=True)
    walls, cpus, failures, job_walls = [], [], [], []

    def one_pass(tracer=None):
        wall, cpu, statuses = run_pass(hurwitz.cli.main, jobs, out_dir, tracer)
        walls.append(wall)
        cpus.append(cpu)
        job_walls.append({job_id: wall for job_id, (_, wall) in statuses.items()})
        failures.append(check_pass(oracle, statuses, out_dir))
        return wall

    summary = {}
    if args.trace:
        untraced = one_pass()
        tracer = Tracer()
        tracer.install()
        try:
            traced = one_pass(tracer)
        finally:
            tracer.uninstall()
        tracer.write_jsonl(args.spans)
        summary["layers"] = tracer.layer_metrics(traced, untraced)
    else:
        start = perf_counter()
        while True:
            one_pass()
            if perf_counter() - start + median(walls) > args.seconds:
                break
    summary.update(
        walls=walls,
        cpus=cpus,
        job_walls=job_walls,
        wall_s=median(walls),
        cpu_s=median(cpus),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(jobs) * len(walls),
        failures=[problem for f in failures for problems in f.values() for problem in problems],
        failed=sum(len(f) for f in failures),
    )
    Path(args.result).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

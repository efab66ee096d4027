"""Record the oracle: expected.json and the seed-0 goldens of every job.

    python3 bench/record.py

Runs every job of every workload once at seed 0 in this process and writes
the invariant fields and the `result` subtrees that later runs must match.
Run it only on a commit whose answers are trusted, and commit the output.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hurwitz.cli  # noqa: E402
from inputs import write_inputs  # noqa: E402
from oracle import EXPECTED_PATH, GOLDEN_DIR, canonical, golden_path, invariant_fields  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS, job_argvs  # noqa: E402


def main():
    expected = {}
    GOLDEN_DIR.mkdir(exist_ok=True)
    work_root = HERE.parent / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        inputs = write_inputs(HERE.parent / "src" / "hurwitz" / "data", Path(tmp) / "inputs", 0)
        for workload in WORKLOADS:
            _, _, statuses = run_pass(hurwitz.cli.main, job_argvs(workload, inputs), tmp)
            for job_id, (status, _) in statuses.items():
                if status != 0:
                    raise SystemExit(f"{job_id} failed: {status}")
                report = json.loads((Path(tmp) / f"{job_id}.json").read_text())
                expected[job_id] = invariant_fields(report)
                golden_path(job_id).write_text(canonical(report["result"]))
    EXPECTED_PATH.write_text(canonical(expected))


if __name__ == "__main__":
    main()

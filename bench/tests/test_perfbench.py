"""Tests of the benchmark itself: inputs, oracle, tracing and metric names."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hurwitz.cli  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from inputs import relabel, write_inputs  # noqa: E402
from oracle import Oracle, golden_path  # noqa: E402
from tracer import SPANS, Tracer, wrapped_attributes  # noqa: E402
from workloads import job_argvs  # noqa: E402

DATA = ROOT / "src" / "hurwitz" / "data"
# cheap jobs, one per workload
QUICK_JOBS = {"certify": "h25_monodromy", "tuples": "a5n5_orbits", "cover_side": "pgl27_classify"}


def _quick_jobs(input_dir):
    return [
        job for workload, job_id in QUICK_JOBS.items()
        for job in job_argvs(workload, input_dir) if job[0] == job_id
    ]


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    first = _files(write_inputs(DATA, tmp_path / "a", 3))
    again = _files(write_inputs(DATA, tmp_path / "b", 3))
    other = _files(write_inputs(DATA, tmp_path / "c", 4))
    assert first == again
    assert first.keys() == other.keys()
    assert first["S6.json"] != other["S6.json"]


def test_seed_zero_is_the_identity_relabeling(tmp_path):
    files = write_inputs(DATA, tmp_path, 0)
    for name in ("S5", "PGL27"):
        ours = json.loads((files / f"{name}.json").read_text())
        bundled = json.loads((DATA / "groups" / f"{name}.json").read_text())
        assert ours["generators"] == bundled["generators"]


def test_relabel_conjugates():
    # sigma maps 0->1, 1->2, 2->0: (1 2) becomes (2 3), an image array likewise
    assert relabel("(1 2)", [1, 2, 0]) == "(2 3)"
    assert relabel([1, 0, 2], [1, 2, 0]) == [0, 2, 1]
    assert relabel("()", [1, 2, 0]) == "()"


def _run_quick(tmp_path, seed):
    inputs = write_inputs(DATA, tmp_path / f"seed{seed}", seed)
    out = tmp_path / f"out{seed}"
    out.mkdir()
    _, _, statuses = worker.run_pass(hurwitz.cli.main, _quick_jobs(inputs), out)
    return out, statuses


@pytest.mark.parametrize("seed", [0, 1])
def test_reports_match_the_oracle_at_seeds_zero_and_one(tmp_path, seed):
    out, statuses = _run_quick(tmp_path, seed)
    assert worker.check_pass(Oracle(goldens=seed == 0), statuses, out) == {}


def test_oracle_flags_a_tampered_report():
    oracle = Oracle(goldens=True)
    result = json.loads(golden_path("h25_goursat").read_text())
    assert oracle.check("h25_goursat", {"subcommand": "goursat", "result": result}) == []
    result["distinct_pairs"]["span_full"] -= 1
    assert oracle.check("h25_goursat", {"subcommand": "goursat", "result": result})

    # a relabeling-dependent field is held only by the seed-0 golden
    result = json.loads(golden_path("pgl27_classify").read_text())
    result["classes"][0]["representative"] = "(1 2)"
    report = {"subcommand": "classify", "result": result}
    assert Oracle(goldens=False).check("pgl27_classify", report) == []
    assert Oracle(goldens=True).check("pgl27_classify", report)
    assert oracle.check("h25_goursat", {"subcommand": "goursat", "error": "boom"})


def test_untraced_runs_call_the_program_unchanged(tmp_path):
    bindings = wrapped_attributes()
    assert {b[3] for b in bindings} == {span[0] for span in SPANS}
    # functions are rebound where other modules imported them by name, too
    assert (hurwitz.cli, "enumerate_tuples") in {(b[0], b[1]) for b in bindings}
    _run_quick(tmp_path, 1)
    for owner, attr, original, _, _ in bindings:
        assert vars(owner)[attr] is original

    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, original, _, _ in bindings:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original, _, _ in bindings:
        assert vars(owner)[attr] is original


def test_traced_pass_records_spans_and_counts(tmp_path):
    inputs = write_inputs(DATA, tmp_path / "in", 0)
    jobs = [job for job in _quick_jobs(inputs) if job[0] == "h25_monodromy"]
    tracer = Tracer()
    tracer.install()
    try:
        wall, _, statuses = worker.run_pass(hurwitz.cli.main, jobs, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert statuses["h25_monodromy"][0] == 0
    metrics = tracer.layer_metrics(wall, wall)
    assert metrics["monodromy.points"]["value"] == 50  # inn and aut fibers of 25 points
    assert metrics["cli.emit.s"]["value"] > 0
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert self_total == pytest.approx(wall)
    assert {span[4] for span in tracer.spans} == {"h25_monodromy"}


def test_printed_metric_names_equal_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "setups": [1.0]}
    printed = run.metrics_of(summary, trace=0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, m["unit"]) for name, m in printed.items()
    ]
    printed = Tracer().layer_metrics(1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, m["unit"]) for name, m in printed.items()
    ]


def test_manifest_maps_every_per_layer_metric_once():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((BENCH / "manifest.json").read_text())
    mapped = [name for group in manifest["per_layer_moves"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    workloads = {w["name"] for w in spec["workloads"]}
    for group in manifest["per_layer_moves"]:
        assert set(group["on"]) | set(group.get("unchanged_on", ())) <= workloads

"""Correctness oracle: expected report fields per job.

`invariant_fields` keeps the fields of a report that no relabeling of the
input points can change (counts, sorted orbit sizes, orders, verdicts, class
kinds by cycle type, mass ratios).  `expected.json` holds them per job, as
the commit that defined the benchmark computed them, and `goldens/` holds each
job's whole `result` subtree at seed 0, which must match byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
GOLDEN_DIR = HERE / "goldens"


def _orbit_fields(payload):
    out = {
        "fiber_size": payload["fiber_size"],
        "orbit_sizes": sorted(payload["orbit_sizes"]),
    }
    if "orbit_labels" in payload:
        out["label_count"] = len(set(payload["orbit_labels"]))
    if "note" in payload:
        out["note"] = payload["note"]
    return out


def _monodromy_fields(payload):
    out = {
        "fiber_size": payload["fiber_size"],
        "orbit_sizes": sorted(payload["orbit_sizes"]),
        "per_orbit": sorted([v["size"], v["order"], v["full"]] for v in payload["per_orbit"]),
        "group_order": payload["group_order"],
        "quasi_full": payload["quasi_full"],
        "mass": payload.get("mass"),
    }
    labels = payload.get("labels")
    if labels is not None:
        out["label_count"] = len(labels["realized"])
        out["bijective_with_orbits"] = labels["bijective_with_orbits"]
    return out


def _mass_fields(result):
    out = {k: v for k, v in result.items() if k != "label_shares"}
    if "label_shares" in result:
        out["label_shares"] = sorted(result["label_shares"].values())
    return out


def _condition_e_fields(result):
    out = {k: v for k, v in result.items() if k != "witness"}
    out["has_witness"] = "witness" in result
    return out


def _classify_fields(result):
    return sorted(
        [row["cycle_type"], row["order"], row["size"], row["kind"],
         row.get("lifted_class_count"), row.get("derived_orbit_count")]
        for row in result["classes"]
    )


def invariant_fields(report):
    """The relabeling-invariant fields of one CLI report."""
    sub = report["subcommand"]
    result = report["result"]
    if sub in ("orbits", "monodromy"):
        fields = _orbit_fields if sub == "orbits" else _monodromy_fields
        return {mode: fields(payload) for mode, payload in sorted(result.items())}
    if sub == "conway-parker":
        return {**{k: v for k, v in result.items() if k != "orbit_labels"},
                "orbit_sizes": sorted(result["orbit_sizes"])}
    if sub == "mass":
        return _mass_fields(result)
    if sub == "condition-e":
        return _condition_e_fields(result)
    if sub == "classify":
        return _classify_fields(result)
    if sub in ("fiber", "goursat"):
        return result
    raise ValueError(f"no oracle for subcommand {sub!r}")


def canonical(obj):
    """The text two equal fields or result subtrees must share."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def golden_path(job_id):
    return GOLDEN_DIR / f"{job_id}.json"


class Oracle:
    """Checks reports against the recorded expectations of their jobs."""

    def __init__(self, goldens=False):
        self.expected = json.loads(EXPECTED_PATH.read_text())
        self.goldens = goldens
        self._golden_text = {}

    def check(self, job_id, report):
        """A list of mismatch descriptions; empty when the report is correct."""
        if "result" not in report:
            return [f"{job_id}: report has no result ({report.get('error')!r})"]
        problems = []
        got = canonical(invariant_fields(report))
        if got != canonical(self.expected[job_id]):
            problems.append(f"{job_id}: invariant fields differ from expected.json")
        if self.goldens:
            if job_id not in self._golden_text:
                self._golden_text[job_id] = golden_path(job_id).read_text()
            if canonical(report["result"]) != self._golden_text[job_id]:
                problems.append(f"{job_id}: result differs from its seed-0 golden")
        return problems

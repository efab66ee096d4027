"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS lines as
they complete.  Shared expensive computations (the degree-25 cover, the
contrasting 125/170 pair, the A5 fibers) come from session fixtures, with
wall-clock times recorded where a criterion bounds the runtime.
"""

import json
import random
from math import factorial

import numpy as np
import pytest

import hurwitz as hw
from hurwitz import NielsenTuple, PermGroup, Permutation, apply_sigma
from hurwitz.cli import main
from hurwitz.covers import classify_class, condition_e, condition_e_by_kinds, sd_partition_rule
from hurwitz.monodromy import braid_orbits, conway_parker_report, fiber_generator_arrays
from hurwitz.fiberpower import row_span_checker

from conftest import class_by_type


def verdict(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_1_degree_25_cover(h25_data):
    fiber = h25_data["fiber_aut"]
    report = h25_data["report"]
    ok = (
        len(fiber) == 25
        and report.orbits.orbit_sizes == (25,)
        and report.group_order in (factorial(25), factorial(25) // 2)
        and h25_data["elapsed"] < 30.0
    )
    verdict(
        1,
        ok,
        f"degree-25 cover: |F*| = {len(fiber)}, transitive = "
        f"{report.orbits.orbit_sizes == (25,)}, order in {{25!/2, 25!}} = "
        f"{report.group_order in (factorial(25), factorial(25) // 2)}, "
        f"{h25_data['elapsed']:.1f}s < 30s",
    )


def test_criterion_2_contrasting_pair(contrasting_pair):
    r221 = contrasting_pair["221"]["report"]
    r212 = contrasting_pair["212"]["report"]
    blocks = r212.per_orbit[0].blocks
    ok = (
        r221.fiber_size == 125
        and r221.group_order == factorial(125)
        and r212.fiber_size == 170
        and r212.group_order == 2 * factorial(85) ** 2
        and blocks is not None
        and len(blocks) == 2
        and all(len(b) == 85 for b in blocks)
        and contrasting_pair["elapsed"] < 300.0
    )
    verdict(
        2,
        ok,
        f"nu=(2,2,1): fiber {r221.fiber_size}, order == 125! exact; "
        f"nu=(2,1,2): fiber {r212.fiber_size}, 2 blocks of 85, "
        f"order == 2*(85!)^2 exact; {contrasting_pair['elapsed']:.1f}s < 300s",
    )


def test_criterion_3_class_classification(ext_2s5, ext_2s6, ext_2pgl27, s5, s6, pgl27):
    mixed_s6 = []
    table_ok = True
    for G, ext in ((s5, ext_2s5), (s6, ext_2s6)):
        for c in G.conjugacy_classes():
            if c.representative.is_identity():
                continue
            kind = classify_class(ext, c).kind
            if kind != sd_partition_rule(c.cycle_type()):
                table_ok = False
            if G is s6 and kind == "mixed":
                mixed_s6.append(c.cycle_type())
    pgl_ok = True
    for c in pgl27.conjugacy_classes():
        if c.representative.is_identity():
            continue
        kind = classify_class(ext_2pgl27, c).kind
        expected = (
            "ambiguous" if c.order() == 7 else "inert" if c.order() == 2 else "split"
        )
        if kind != expected:
            pgl_ok = False
    ok = table_ok and mixed_s6 == [(4, 2)] and pgl_ok
    verdict(
        3,
        ok,
        f"S5/S6 kinds match the partition table = {table_ok}; unique mixed "
        f"class of S6 = {mixed_s6}; PGL2(7) order-7 ambiguous / order-2 "
        f"inert / rest split = {pgl_ok}",
    )


def test_criterion_4_condition_e(ext_2s6, ext_2pgl27, s6, pgl27):
    # PGL2(7): the condition holds for every unambiguous class list; the
    # per-class subgroup pairs are equal, so sums over any list agree
    pgl_classes = [
        c
        for c in pgl27.conjugacy_classes()
        if not c.representative.is_identity() and c.order() != 7
    ]
    pgl_ok = all(
        hw.obstruction_subgroups(ext_2pgl27, [c])[0].codes
        == hw.obstruction_subgroups(ext_2pgl27, [c])[1].codes
        for c in pgl_classes
    )
    pgl_ok = pgl_ok and condition_e(ext_2pgl27, pgl_classes).holds
    c42 = class_by_type(s6, (4, 2))
    c33 = class_by_type(s6, (3, 3))
    c21111 = class_by_type(s6, (2, 1, 1, 1, 1))
    fail_res = condition_e(ext_2s6, [c42, c33])
    hold_res = condition_e(ext_2s6, [c42, c21111])
    kinds_fail = condition_e_by_kinds([classify_class(ext_2s6, c) for c in (c42, c33)])
    kinds_hold = condition_e_by_kinds(
        [classify_class(ext_2s6, c) for c in (c42, c21111)]
    )
    routes_agree = (fail_res.holds == kinds_fail) and (hold_res.holds == kinds_hold)
    ok = pgl_ok and not fail_res.holds and hold_res.holds and routes_agree
    verdict(
        4,
        ok,
        f"PGL2(7) always holds = {pgl_ok}; S6 (C42,C33) fails = "
        f"{not fail_res.holds}; S6 (C42,C21111) holds = {hold_res.holds}; "
        f"pairing and classification routes agree = {routes_agree}",
    )


def test_criterion_5_conway_parker(a5_n5, a5_n6):
    results = {}
    for n, case in (("5", a5_n5), ("6", a5_n6)):
        rec = conway_parker_report(case["orbits"])
        results[n] = (rec.orbit_count, rec.label_count, rec.bijective)
    ok = all(v == (2, 2, True) for v in results.values())
    verdict(
        5,
        ok,
        f"A5 3-cycle tuples: n=5 gives orbits/labels/bijective = {results['5']}, "
        f"n=6 gives {results['6']} (expect (2, 2, True) for both)",
    )


def test_criterion_6_mass_formula_trend(a5_n6, h25, h25_data):
    predicted = 20**6 / 3600
    actual = len(a5_n6["fiber"])
    within = abs(actual - predicted) <= 0.10 * predicted
    ratio_25 = (10**4 * 24 / (60 * 120)) / len(h25_data["fiber_aut"])
    ok = within and abs(ratio_25 - 33.333333 / 25) < 1e-6
    verdict(
        6,
        ok,
        f"A5 n=6: |F| = {actual} within 10% of {predicted:.1f} "
        f"(off by {abs(actual - predicted) / predicted:.2%}); degree-25 "
        f"predicted/actual ratio reported = {ratio_25:.4f} (not asserted)",
    )


def test_criterion_7_goursat_exhaustive(h25, h25_data):
    pts = h25_data["fiber_aut"].points()
    n = len(pts)
    wrong = 0
    check = row_span_checker(h25, 2)
    for i in range(n):
        for j in range(n):
            result = check([pts[i], pts[j]])
            if result != (i != j):
                wrong += 1
    ok = wrong == 0 and n == 25
    verdict(
        7,
        ok,
        f"row span over all {n * (n - 1)} ordered distinct pairs and {n} "
        f"diagonal pairs of the degree-25 fiber: {wrong} disagreements with "
        f"distinctness",
    )


# ---------------------------------------------------------------------------
# criterion 8: property suites


def test_criterion_8a_braid_relations(s5, a5, pgl27):
    rng = random.Random(2024)
    failures = 0
    for G in (s5, a5, pgl27):
        els = G.elements()
        for _ in range(1000):
            t = NielsenTuple([rng.choice(els) for _ in range(4)])
            if apply_sigma(apply_sigma(apply_sigma(t, 1), 2), 1) != apply_sigma(
                apply_sigma(apply_sigma(t, 2), 1), 2
            ):
                failures += 1
            if apply_sigma(apply_sigma(t, 1), 3) != apply_sigma(apply_sigma(t, 3), 1):
                failures += 1
    verdict(
        "8a",
        failures == 0,
        f"braid relations on 1000 random tuples per bundled group: {failures} failures",
    )


def test_criterion_8b_lifting_invariant_constancy(a5_n4):
    rng = random.Random(4096)
    h, ts, lift = a5_n4["h"], a5_n4["tuples"], a5_n4["lift"]
    table = h.group.table()
    failures = 0
    for _ in range(1000):
        t = ts.tuple_at(rng.randrange(len(ts)))
        row = np.array([[table.code(g) for g in t]], dtype=np.int64)
        before = int(lift.label_codes_for_rows(row)[0])
        moved = t
        for _ in range(50):
            letter = rng.choice([1, -1]) * rng.randint(1, h.n - 1)
            moved = apply_sigma(moved, abs(letter), inverse=letter < 0)
        row2 = np.array([[table.code(g) for g in moved]], dtype=np.int64)
        if int(lift.label_codes_for_rows(row2)[0]) != before:
            failures += 1
    verdict(
        "8b",
        failures == 0,
        f"lifting invariant constant under 1000 random 50-letter braid words: "
        f"{failures} failures",
    )


def test_criterion_8c_canonicalization_idempotent(h25_data, a5_n5):
    failures = 0
    for fiber in (h25_data["fiber_aut"], h25_data["fiber_inn"], a5_n5["fiber"]):
        rng = random.Random(11)
        for _ in range(100):
            p = fiber.point(rng.randrange(len(fiber)))
            if fiber.canonicalize_tuple(p) != p:
                failures += 1
    verdict(
        "8c",
        failures == 0,
        f"canonical representatives are fixed points of canonicalization: "
        f"{failures} failures",
    )


def test_criterion_8d_orbit_size_divides_order(h25_data, contrasting_pair):
    failures = 0
    for report in (
        h25_data["report"],
        contrasting_pair["221"]["report"],
        contrasting_pair["212"]["report"],
    ):
        for size in report.orbits.orbit_sizes:
            if report.group_order % size:
                failures += 1
    verdict(
        "8d",
        failures == 0,
        f"orbit sizes divide the monodromy group order: {failures} failures",
    )


def test_criterion_8e_thread_count_determinism(tmp_path):
    outputs = []
    for i, threads in enumerate(("1", "4", "1")):
        out = tmp_path / f"det{i}.json"
        code = main(
            [
                "conway-parker",
                "a5_c3_n4",
                "--cover",
                "SL25",
                "--threads",
                threads,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    verdict(
        "8e",
        ok,
        "reports byte-identical across runs and thread counts",
    )

"""Braid orbits, monodromy groups, fullness, quasi-fullness, reports."""

import random
from math import factorial

import numpy as np
import pytest

import hurwitz as hw
from hurwitz import PermGroup, Permutation
from hurwitz.monodromy import (
    _block_system,
    braid_orbits,
    conway_parker_report,
    cross_check_braid_orbits,
    fiber_generator_arrays,
    full_by_order,
    fullness_by_jordan_witness,
    mass_report,
    monodromy_group,
    quasi_fullness,
)

from conftest import class_by_type


# ---------------------------------------------------------------------------
# orbits


def test_single_point_fiber_one_orbit():
    S3 = PermGroup.symmetric(3)
    c2 = class_by_type(S3, (2, 1))
    c3 = class_by_type(S3, (3,))
    h = hw.validate_parameter(S3, [c2, c3], [2, 1])
    fiber = hw.build_fiber(h, "inn")
    assert len(fiber) == 1
    words, arrays = fiber_generator_arrays(fiber)
    orbits = braid_orbits(fiber, arrays)
    assert orbits.orbit_sizes == (1,)


def test_h25_single_orbit(h25_data):
    assert h25_data["report"].orbits.orbit_sizes == (25,)


def test_170_fiber_single_orbit(contrasting_pair):
    assert contrasting_pair["212"]["report"].orbits.orbit_sizes == (170,)


def test_orbit_numbering_by_least_point(a5_n5):
    orbits = a5_n5["orbits"]
    firsts = [members[0] for members in orbits.orbit_members]
    assert firsts == sorted(firsts)
    assert firsts[0] == 0


# ---------------------------------------------------------------------------
# monodromy groups and fullness


def test_h25_full(h25_data):
    rep = h25_data["report"]
    assert rep.group_order in (factorial(25), factorial(25) // 2)
    assert all(v.full for v in rep.per_orbit)
    assert rep.quasi_full


def test_contrasting_pair_exact_orders(contrasting_pair):
    r221 = contrasting_pair["221"]["report"]
    assert r221.fiber_size == 125
    assert r221.group_order == factorial(125)
    assert r221.quasi_full
    r212 = contrasting_pair["212"]["report"]
    assert r212.fiber_size == 170
    assert r212.group_order == 2 * factorial(85) ** 2
    assert not r212.per_orbit[0].full
    blocks = r212.per_orbit[0].blocks
    assert blocks is not None
    assert len(blocks) == 2 and all(len(b) == 85 for b in blocks)
    assert not r212.quasi_full


def test_order_divisible_by_orbit_sizes(h25_data, a5_n5):
    rep = h25_data["report"]
    for size in rep.orbits.orbit_sizes:
        assert rep.group_order % size == 0


def test_order_invariant_under_generator_permutation(h25_data):
    fiber = h25_data["fiber_aut"]
    arrays = list(h25_data["report"].generators)
    rep_fwd = monodromy_group(fiber, gen_arrays=arrays)
    rep_rev = monodromy_group(fiber, gen_arrays=arrays[::-1])
    assert rep_fwd.group_order == rep_rev.group_order


def test_full_by_order_conventions():
    assert full_by_order(1, 1)  # Alt(1) trivial
    assert full_by_order(2, 1)  # Alt(2) trivial
    assert full_by_order(2, 2)
    assert full_by_order(5, 60)
    assert full_by_order(5, 120)
    assert not full_by_order(5, 20)


def test_synthetic_wreath_not_full_with_blocks():
    # S3 wr S2 on 6 points
    gens = [
        Permutation.from_cycles("(1 2)", 6),
        Permutation.from_cycles("(1 2 3)", 6),
        Permutation.from_cycles("(4 5)", 6),
        Permutation.from_cycles("(4 5 6)", 6),
        Permutation.from_cycles("(1 4)(2 5)(3 6)", 6),
    ]
    G = PermGroup(6, gens)
    assert G.order() == 72
    assert not full_by_order(6, G.order())
    blocks = _block_system([Permutation(g.images) for g in gens], 6)
    assert blocks is not None and len(blocks) == 2


def test_jordan_witness_agrees_with_order_route(h25_data):
    fiber = h25_data["fiber_aut"]
    perms = [Permutation(int(x) for x in arr) for arr in h25_data["report"].generators]
    verdict = fullness_by_jordan_witness(perms, 25)
    assert verdict is True  # conclusive on this orbit, matching the order route
    # primitive but tiny wreath case: inconclusive or False, never True
    gens = [
        Permutation.from_cycles("(1 2)", 6),
        Permutation.from_cycles("(1 2 3)", 6),
        Permutation.from_cycles("(4 5)", 6),
        Permutation.from_cycles("(4 5 6)", 6),
        Permutation.from_cycles("(1 4)(2 5)(3 6)", 6),
    ]
    assert fullness_by_jordan_witness(gens, 6) is not True


# ---------------------------------------------------------------------------
# quasi-fullness


def _diagonal_action(gens, degree):
    return [Permutation(list(g.images) + [x + degree for x in g.images]) for g in gens]


def _product_action(gens, degree):
    out = []
    for g in gens:
        out.append(Permutation(list(g.images) + list(range(degree, 2 * degree))))
        out.append(Permutation(list(range(degree)) + [x + degree for x in g.images]))
    return out


def test_quasi_fullness_synthetic():
    A5 = PermGroup.from_cycles(5, ["(1 2 3)", "(3 4 5)"])
    diag_gens = _diagonal_action(A5.generators, 5)
    prod_gens = _product_action(A5.generators, 5)

    def run(gens):
        G = PermGroup(10, gens)
        arrays = [np.array(g.images) for g in gens]

        class FakeFiber:
            rows = np.zeros((10, 1), dtype=np.int64)

            def __len__(self):
                return 10

        orbits = braid_orbits(FakeFiber(), arrays)
        per_orbit = []
        from hurwitz.monodromy import OrbitVerdict, _restriction_perms

        for members in orbits.orbit_members:
            perms = _restriction_perms(arrays, members)
            order = PermGroup(len(members), perms).order()
            per_orbit.append(
                OrbitVerdict(len(members), order, full_by_order(len(members), order))
            )
        return quasi_fullness(G, orbits, per_orbit), per_orbit

    quasi_diag, po_diag = run(diag_gens)
    assert all(v.full for v in po_diag)  # each orbit restriction is Alt(5)
    assert not quasi_diag  # but the diagonal is far from Alt x Alt

    quasi_prod, po_prod = run(prod_gens)
    assert all(v.full for v in po_prod)
    assert quasi_prod


def test_single_full_orbit_quasi_full(h25_data):
    assert h25_data["report"].quasi_full


# ---------------------------------------------------------------------------
# reports


def test_conway_parker_h25(h25, h25_data, ext_2s5):
    fiber = h25_data["fiber_inn"]
    red = hw.reduce_cover(ext_2s5, h25.classes)
    lift = hw.LiftData(red, h25)
    words, arrays = fiber_generator_arrays(fiber)
    orbits = braid_orbits(fiber, arrays, lift_data=lift)
    rec = conway_parker_report(orbits)
    assert rec.orbit_count == 1
    assert rec.label_count == 1
    assert rec.bijective


def test_conway_parker_a5_n5_n6(a5_n5, a5_n6):
    for case in (a5_n5, a5_n6):
        rec = conway_parker_report(case["orbits"])
        assert rec.orbit_count == 2
        assert rec.label_count == 2
        assert rec.bijective
        assert set(case["orbits"].labels) == {0, 1}


def test_conway_parker_small_nu_records_without_judgment(a5, a5_c3, ext_sl25):
    # nu = (3): whatever holds is reported; no bijectivity is asserted.
    # (This tuple set is in fact empty: three 3-cycles multiplying to one
    # cannot generate A5 on five points.)
    h = hw.validate_parameter(a5, [a5_c3], [3])
    fiber = hw.build_fiber(h, "inn")
    lift = hw.LiftData(hw.reduce_cover(ext_sl25, h.classes), h)
    words, arrays = fiber_generator_arrays(fiber)
    orbits = braid_orbits(fiber, arrays, lift_data=lift)
    rec = conway_parker_report(orbits)
    assert rec.orbit_count >= rec.label_count
    assert len(fiber) == 0


def test_labels_constant_on_orbits_enforced(a5_n6):
    # braid_orbits already verified label constancy when attaching labels
    assert a5_n6["orbits"].labels is not None
    assert len(a5_n6["orbits"].labels) == a5_n6["orbits"].count


def test_orbit_partition_refines_labels(a5_n5):
    labels_per_point = a5_n5["lift"].label_codes_for_rows(a5_n5["fiber"].rows)
    orbit_id = a5_n5["orbits"].orbit_id
    for oid, label in enumerate(a5_n5["orbits"].labels):
        members = np.nonzero(orbit_id == oid)[0]
        assert set(int(labels_per_point[m]) for m in members) == {label}


def test_mass_report_h25(h25, h25_data):
    out = mass_report(
        h25,
        fiber_inn_size=len(h25_data["fiber_inn"]),
        fiber_aut_size=len(h25_data["fiber_aut"]),
    )
    # 10^4 * 24 / (60 * 120) = 33.33...
    assert abs(out["predicted_fiber_aut"] - 33.3333) < 0.001
    assert abs(out["ratio_aut"] - 33.3333 / 25) < 0.001


def test_mass_report_a5_n6(a5_n6):
    out = mass_report(a5_n6["h"], fiber_inn_size=len(a5_n6["fiber"]))
    predicted = 20**6 / 3600
    actual = len(a5_n6["fiber"])
    assert abs(out["predicted_fiber_inn"] - predicted) < 1e-6
    assert abs(actual - predicted) <= 0.10 * predicted


def test_mass_refined_label_shares(a5_n6):
    labels = a5_n6["lift"].label_codes_for_rows(a5_n6["fiber"].rows)
    total = len(labels)
    half = total / 2
    for l in (0, 1):
        share = int((labels == l).sum())
        assert abs(share - half) <= 0.15 * half


def test_mass_degenerate_fiber(s5):
    c2111 = class_by_type(s5, (2, 1, 1, 1))
    c5 = class_by_type(s5, (5,))
    h = hw.validate_parameter(s5, [c2111, c5], [4, 1])
    out = mass_report(h, fiber_inn_size=0)
    assert out.get("degenerate") is True
    assert "ratio_inn" not in out


# ---------------------------------------------------------------------------
# the independent full-braid-group cross-check


def test_cross_check_h25(h25):
    assert cross_check_braid_orbits(h25)


def test_cross_check_s3_toy():
    S3 = PermGroup.symmetric(3)
    c2 = class_by_type(S3, (2, 1))
    c3 = class_by_type(S3, (3,))
    h = hw.validate_parameter(S3, [c2, c3], [2, 1])
    assert cross_check_braid_orbits(h)


def test_cross_check_wide_tuples():
    # n = 64 transpositions in C2: row keys wider than 63 bits
    C2 = PermGroup.symmetric(2)
    h = hw.validate_parameter(C2, [class_by_type(C2, (2,))], [64])
    assert cross_check_braid_orbits(h)


def test_cross_check_a5_single_block(a5, a5_c3):
    # one block: the block-preserving subgroup is the whole braid group and
    # the cross-check compares the computation against itself
    h = hw.validate_parameter(a5, [a5_c3], [4])
    assert cross_check_braid_orbits(h)

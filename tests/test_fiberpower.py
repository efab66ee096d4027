"""Fiber powers and the row-span distinctness criterion."""

import random

import pytest

import hurwitz as hw
from hurwitz import FiberPowerGroup, PermGroup, Permutation, row_span_check, row_span_checker
from hurwitz import cli, covers, fiberpower, structure

from conftest import class_by_type


def test_order_formula(s5, s6, pgl27):
    for G in (s5, s6, pgl27):
        derived = G.derived_subgroup().order()
        for k in (1, 2, 3):
            fp = FiberPowerGroup(G, k)
            assert fp.order == G.order() * derived ** (k - 1)


def test_s5_squared_order(s5):
    assert FiberPowerGroup(s5, 2).order == 7200


def test_a5_power_is_direct_product(a5):
    fp = FiberPowerGroup(a5, 2)
    assert fp.order == 3600


def test_k1_is_the_group(s5):
    fp = FiberPowerGroup(s5, 1)
    assert fp.order == 120
    assert fp.realized.degree == 5


def test_embed_tuple_checks_abelianization(s5):
    fp = FiberPowerGroup(s5, 2)
    odd = Permutation.from_cycles("(1 2)", 5)
    even = Permutation.from_cycles("(1 2 3)", 5)
    with pytest.raises(hw.InputError):
        fp.embed_tuple([odd, even])
    el = fp.embed_tuple([odd, odd])
    assert fp.coordinate_projection(el, 0) == odd
    assert fp.coordinate_projection(el, 1) == odd


def test_row_span_examples(h25, h25_data):
    pts = h25_data["fiber_aut"].points()
    assert row_span_check(h25, [pts[0], pts[1]])
    assert not row_span_check(h25, [pts[0], pts[0]])
    assert row_span_check(h25, [pts[7]])


def test_row_span_rejects_non_pseudosimple(s4):
    c2 = class_by_type(s4, (2, 1, 1))
    c3 = class_by_type(s4, (3, 1))
    h = hw.validate_parameter(s4, [c2, c3], [2, 1])
    t = hw.NielsenTuple(
        [
            Permutation.from_cycles("(1 2)", 4),
            Permutation.from_cycles("(1 3)", 4),
            Permutation.from_cycles("(1 2 3)", 4),
        ]
    )
    with pytest.raises(hw.UnsupportedConfigurationError, match="pseudosimple") as one_shot:
        row_span_check(h, [t, t])
    # the checker refuses when it is built, before any tuples arrive
    with pytest.raises(hw.UnsupportedConfigurationError) as built:
        row_span_checker(h, 2)
    assert str(built.value) == str(one_shot.value)


def test_row_span_checker_matches_row_span_check(h25, h25_data):
    pts = h25_data["fiber_aut"].points()
    rng = random.Random(7)
    pairs = [(i, i) for i in rng.sample(range(len(pts)), 3)]
    pairs += [tuple(rng.sample(range(len(pts)), 2)) for _ in range(9)]
    check = row_span_checker(h25, 2)
    for i, j in pairs:
        tuples = [pts[i], pts[j]]
        assert check(tuples) == row_span_check(h25, tuples) == (i != j)


def test_row_span_checker_rejects_wrong_tuples(h25, h25_data):
    pts = h25_data["fiber_aut"].points()
    with pytest.raises(hw.InputError, match="at least one"):
        row_span_checker(h25, 0)
    check = row_span_checker(h25, 2)
    with pytest.raises(hw.InputError, match="expected 2 tuples"):
        check([pts[0]])
    with pytest.raises(hw.InputError, match="expected 2 tuples"):
        check([pts[0], pts[1], pts[2]])
    with pytest.raises(hw.InputError, match="tuple length"):
        check([pts[0], list(pts[1])[:-1]])


def test_goursat_checks_preconditions_once(monkeypatch, tmp_path):
    pseudosimple_calls = []
    power_builds = []
    original_pseudosimple = structure.is_pseudosimple
    original_init = fiberpower.FiberPowerGroup.__init__

    def counting_pseudosimple(group):
        pseudosimple_calls.append(group)
        return original_pseudosimple(group)

    def counting_init(self, base, k):
        power_builds.append(k)
        original_init(self, base, k)

    for module in (structure, covers, fiberpower):
        monkeypatch.setattr(module, "is_pseudosimple", counting_pseudosimple)
    monkeypatch.setattr(fiberpower.FiberPowerGroup, "__init__", counting_init)
    assert cli.main(["goursat", "h25", "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    assert len(pseudosimple_calls) == 1
    assert power_builds == [2]


def test_row_span_allows_s5_ambiguous_class(h25, h25_data):
    # C5 is ambiguous, but every automorphism of S5 over its abelianization
    # is inner and therefore fixes all classes, so the criterion still
    # applies; the acceptance sweep relies on this
    pts = h25_data["fiber_aut"].points()
    assert row_span_check(h25, [pts[2], pts[9]])


def test_fiber_power_requires_centerless():
    C4 = PermGroup.from_cycles(4, ["(1 2 3 4)"])
    with pytest.raises(hw.InputError):
        FiberPowerGroup(C4, 2)

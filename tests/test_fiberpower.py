"""Fiber powers and the row-span distinctness criterion."""

import random

import pytest

import hurwitz as hw
from hurwitz import FiberPowerGroup, PermGroup, Permutation, row_span_check, row_span_checker
from hurwitz import cli, covers, fiberpower, structure
from hurwitz import perms as perms_module

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


def _row_span_chain_oracle(h, tuples):
    """The check every k used before pairs went through one homomorphism
    closure: embed the rows in the fiber power and compare the order of
    their stabilizer chain with the fiber power's."""
    power = FiberPowerGroup(h.group, len(tuples))
    rows = [power.embed_tuple([t[j] for t in tuples]) for j in range(h.n)]
    return PermGroup(power.realized.degree, rows).order() == power.order


def _assert_pairs_match_chain_oracle(h, pts):
    check = row_span_checker(h, 2)
    for i, t in enumerate(pts):
        for j, u in enumerate(pts):
            # distinct points span the fiber square and a repeated one does not
            assert check([t, u]) == _row_span_chain_oracle(h, [t, u]) == (i != j), (i, j)


def test_row_span_pairs_match_chain_oracle_h25(h25, h25_data):
    _assert_pairs_match_chain_oracle(h25, h25_data["fiber_aut"].points())


def test_row_span_pairs_match_chain_oracle_a5_c3_n4(a5_n4):
    h = a5_n4["h"]
    pts = hw.build_fiber(h, "aut", tuples=a5_n4["tuples"]).points()
    assert len(pts) == 9
    _assert_pairs_match_chain_oracle(h, pts)


def test_row_span_pairs_match_chain_oracle_s5_221(contrasting_pair):
    case = contrasting_pair["221"]
    _assert_pairs_match_chain_oracle(case["h"], case["fiber"].points()[:40])


def test_row_span_triples_keep_the_chain(h25, h25_data, monkeypatch):
    pts = h25_data["fiber_aut"].points()
    closures = []
    monkeypatch.setattr(fiberpower, "_hom_closure", lambda *a: closures.append(a))
    check = row_span_checker(h25, 3)
    for i, j, l in ((0, 1, 2), (0, 0, 1), (3, 17, 3), (5, 5, 5), (24, 9, 13)):
        tuples = [pts[i], pts[j], pts[l]]
        assert check(tuples) == _row_span_chain_oracle(h25, tuples) == (len({i, j, l}) == 3)
    assert closures == []


def test_row_span_pair_with_a_tuple_not_generating_the_group(h25, h25_data):
    # u generates S3 only, so the homomorphism closure finds no map from or
    # to it, which must not read as a full span
    pts = h25_data["fiber_aut"].points()
    u = hw.NielsenTuple(
        [Permutation.from_cycles(c, 5) for c in ["(1 2)"] * 4 + ["(1 2 3)"]]
    )
    check = row_span_checker(h25, 2)
    for tuples in ([pts[0], u], [u, pts[0]]):
        assert _row_span_chain_oracle(h25, tuples) is False
        assert check(tuples) is False
        assert row_span_check(h25, tuples) is False


def test_row_span_check_codes_matches_tuples(h25, h25_data):
    fiber = h25_data["fiber_aut"]
    pts = fiber.points()
    check = row_span_checker(h25, 2)
    for i, j in ((0, 1), (4, 4), (24, 3)):
        assert check.check_codes(fiber.rows[[i, j]]) == check([pts[i], pts[j]])
    with pytest.raises(hw.InputError, match="expected 2 tuples"):
        check.check_codes(fiber.rows[:3])


def test_goursat_builds_chains_independent_of_fiber_size(monkeypatch, tmp_path):
    # one chain per pair would make 625 of them on the 25-point fiber of h25
    built = []
    real = perms_module.StabilizerChain

    def counting(*args, **kwargs):
        built.append(args[1])  # the degree
        return real(*args, **kwargs)

    monkeypatch.setattr(perms_module, "StabilizerChain", counting)
    assert cli.main(["goursat", "h25", "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    # S5's chain, for its table, and the fiber square's, for its order
    assert sorted(built) == [5, 10]


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

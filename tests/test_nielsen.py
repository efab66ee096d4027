"""Parameter validation, tuple enumeration, braiding, fibers."""

import random

import numpy as np
import pytest

import hurwitz as hw
from hurwitz import (
    NielsenTuple,
    PermGroup,
    Permutation,
    apply_sigma,
    braid_nu_generators,
)
from hurwitz.nielsen import canonicalize_codes, induced_permutation_array, row_keys

from conftest import class_by_type


# ---------------------------------------------------------------------------
# validation


def test_h25_valid(h25):
    assert h25.n == 5
    assert h25.nu == (4, 1)


def test_sign_obstruction(s5):
    c2111 = class_by_type(s5, (2, 1, 1, 1))
    c5 = class_by_type(s5, (5,))
    with pytest.raises(hw.InputError, match="not allowed"):
        hw.validate_parameter(s5, [c2111, c5], [3, 1])


def test_a5_any_nu_allowed(a5, a5_c3):
    for n in (1, 2, 3, 7):
        hw.validate_parameter(a5, [a5_c3], [n])


def test_duplicate_class_rejected(s5):
    c = class_by_type(s5, (2, 1, 1, 1))
    with pytest.raises(hw.InputError, match="more than once"):
        hw.validate_parameter(s5, [c, c], [2, 2])


def test_identity_class_rejected(s5):
    ident = s5.class_of(Permutation.identity(5))
    with pytest.raises(hw.InputError, match="identity"):
        hw.validate_parameter(s5, [ident], [2])


def test_non_generating_classes_rejected(s5):
    c311 = class_by_type(s5, (3, 1, 1))  # 3-cycles generate only A5
    with pytest.raises(hw.InputError, match="generate"):
        hw.validate_parameter(s5, [c311], [2])


def test_length_mismatch(s5):
    c = class_by_type(s5, (2, 1, 1, 1))
    with pytest.raises(hw.InputError):
        hw.validate_parameter(s5, [c], [1, 1])


# ---------------------------------------------------------------------------
# enumeration


def test_h25_tuple_count(h25_data):
    # 25 fiber points (the classical cover degree) times the free action of
    # Inn(S5), order 120
    assert len(h25_data["tuples"]) == 3000


def test_a5_n4_against_brute_force(a5, a5_c3, a5_n4):
    # oracle: direct product loop over 20^3 prefixes, no pruning, raw
    # permutation closure for the generation test
    elements = list(a5_c3.elements)
    found = set()
    for a in elements:
        for b in elements:
            for c in elements:
                d = (a * b * c).inverse()
                if d.cycle_type() != (3, 1, 1):
                    continue
                closure = {Permutation.identity(5)}
                frontier = [Permutation.identity(5)]
                while frontier:
                    new = []
                    for x in frontier:
                        for g in (a, b, c, d):
                            y = x * g
                            if y not in closure:
                                closure.add(y)
                                new.append(y)
                    frontier = new
                if len(closure) == 60:
                    found.add((a.images, b.images, c.images, d.images))
    assert len(found) == 1080
    dfs = {tuple(t[i].images for i in range(4)) for t in a5_n4["tuples"]}
    assert dfs == found


def test_block_reordering_round_trip():
    # the enumeration reorders blocks by class size internally; tuples must
    # come back in the original block order with all invariants intact
    S3 = PermGroup.symmetric(3)
    c2 = class_by_type(S3, (2, 1))
    c3 = class_by_type(S3, (3,))
    for classes, nu in (([c2, c3], [2, 1]), ([c3, c2], [1, 2])):
        h = hw.validate_parameter(S3, classes, nu)
        ts = hw.enumerate_tuples(h)
        assert len(ts) == 6
        pos = h.position_class_indices()
        for t in ts:
            assert t.product().is_identity()
            for j, g in enumerate(t):
                assert g in classes[pos[j]]


def test_budget_pre_check(a5, a5_c3):
    h = hw.validate_parameter(a5, [a5_c3], [6])
    with pytest.raises(hw.BudgetError):
        hw.enumerate_tuples(h, budget=1000)


def test_tuple_set_contains(h25_data):
    ts = h25_data["tuples"]
    t = ts.tuple_at(17)
    assert t in ts


# ---------------------------------------------------------------------------
# braiding


def test_sigma_example():
    t = NielsenTuple([Permutation.from_cycles("(1 2)", 3), Permutation.from_cycles("(2 3)", 3)])
    moved = apply_sigma(t, 1)
    assert [str(g) for g in moved] == ["(2 3)", "(1 3)"]


def test_sigma_inverse_round_trip():
    rng = random.Random(3)
    S5 = PermGroup.symmetric(5)
    els = S5.elements()
    for _ in range(100):
        t = NielsenTuple([rng.choice(els) for _ in range(4)])
        for i in (1, 2, 3):
            assert apply_sigma(apply_sigma(t, i), i, inverse=True) == t
            assert apply_sigma(apply_sigma(t, i, inverse=True), i) == t


def test_braid_relations_random_tuples(s5, a5, pgl27):
    # defining relations hold on arbitrary tuples over every bundled group
    rng = random.Random(7)
    for G in (s5, a5, pgl27):
        els = G.elements()
        for _ in range(1000):
            t = NielsenTuple([rng.choice(els) for _ in range(4)])
            lhs = apply_sigma(apply_sigma(apply_sigma(t, 1), 2), 1)
            rhs = apply_sigma(apply_sigma(apply_sigma(t, 2), 1), 2)
            assert lhs == rhs
            far_l = apply_sigma(apply_sigma(t, 1), 3)
            far_r = apply_sigma(apply_sigma(t, 3), 1)
            assert far_l == far_r


def test_sigma_preserves_product_and_subgroup(s5):
    rng = random.Random(13)
    els = s5.elements()
    for _ in range(50):
        t = NielsenTuple([rng.choice(els) for _ in range(5)])
        prod = t.product()
        moved = apply_sigma(t, rng.randint(1, 4))
        assert moved.product() == prod
        assert PermGroup(5, list(t)).order() == PermGroup(5, list(moved)).order()


def test_sigma_index_range():
    t = NielsenTuple([Permutation.identity(3)] * 3)
    with pytest.raises(hw.InputError):
        apply_sigma(t, 0)
    with pytest.raises(hw.InputError):
        apply_sigma(t, 3)


def test_braid_word_inverse_is_identity_action(h25_data):
    rng = random.Random(5)
    ts = h25_data["tuples"]
    words = braid_nu_generators((4, 1))
    for w in words:
        t = ts.tuple_at(rng.randrange(len(ts)))
        assert w.inverse().apply(w.apply(t)) == t


def test_braid_nu_generator_sets():
    one_block = braid_nu_generators((4,))
    names = {w.name for w in one_block}
    assert {"sigma_1", "sigma_2", "sigma_3"} <= names
    pure = braid_nu_generators((1, 1))
    assert [w.name for w in pure] == ["A_1_2"]
    assert pure[0].letters == (1, 1)
    mixed = braid_nu_generators((4, 1))
    names = [w.name for w in mixed]
    assert names[:3] == ["sigma_1", "sigma_2", "sigma_3"]
    assert "sigma_4" not in names  # crosses the block boundary
    assert sum(1 for n in names if n.startswith("A_")) == 10


def test_braid_nu_generators_preserve_tuple_set(h25, h25_data):
    # every generator of the block-preserving subgroup maps the tuple set
    # into itself, block structure included
    ts = h25_data["tuples"]
    pos = h25.position_class_indices()
    rng = random.Random(23)
    sample = [ts.tuple_at(rng.randrange(len(ts))) for _ in range(40)]
    for w in braid_nu_generators((4, 1)):
        for t in sample:
            moved = w.apply(t)
            assert moved in ts
            for j, g in enumerate(moved):
                assert g in h25.classes[pos[j]]


# ---------------------------------------------------------------------------
# fibers


def test_h25_fiber_sizes(h25_data):
    assert len(h25_data["fiber_aut"]) == 25
    assert len(h25_data["fiber_inn"]) == 25


def test_contrasting_pair_fiber_sizes(contrasting_pair):
    assert len(contrasting_pair["221"]["fiber"]) == 125
    assert len(contrasting_pair["212"]["fiber"]) == 170


def test_inn_action_free_on_tuples(h25_data):
    # for a centerless group the inner action on generating tuples is free:
    # every fiber point has exactly |Inn| = 120 preimages
    fiber = h25_data["fiber_inn"]
    tuples = h25_data["tuples"]
    rows, keys = fiber.canonical_codes(tuples.codes)
    counts = {}
    for k in keys:
        counts[bytes(k)] = counts.get(bytes(k), 0) + 1
    assert set(counts.values()) == {120}
    assert len(counts) == 25


def test_mass_sanity_equality_when_free(h25_data):
    fiber = h25_data["fiber_aut"]
    assert len(fiber) * fiber.acting_size >= fiber.tuple_count
    assert len(fiber) * fiber.acting_size == fiber.tuple_count  # free here


def test_canonicalization_idempotent_and_orbit_constant(h25_data):
    fiber = h25_data["fiber_aut"]
    table = fiber.table
    rng = random.Random(31)
    for _ in range(30):
        i = rng.randrange(len(fiber))
        point = fiber.point(i)
        assert fiber.canonicalize_tuple(point) == point  # idempotent
        # constant on the orbit of the acting group
        amap = fiber.maps[rng.randrange(len(fiber.maps))]
        codes = [int(amap[table.code(g)]) for g in point]
        moved = NielsenTuple(table.perm(c) for c in codes)
        assert fiber.canonicalize_tuple(moved) == point


def test_canonicalization_exhaustive_small():
    S3 = PermGroup.symmetric(3)
    c2 = class_by_type(S3, (2, 1))
    c3 = class_by_type(S3, (3,))
    h = hw.validate_parameter(S3, [c2, c3], [2, 1])
    fiber = hw.build_fiber(h, "inn")
    assert len(fiber) == 1  # six tuples, free inner action of order 6
    table = fiber.table
    point = fiber.point(0)
    for amap in fiber.maps:
        moved = NielsenTuple(table.perm(int(amap[table.code(g)])) for g in point)
        assert fiber.canonicalize_tuple(moved) == point


def _canonical_rows_oracle(codes, maps):
    # brute force: per row, the least mapped tuple over all maps
    return [min(tuple(int(amap[c]) for c in row) for amap in maps) for row in codes]


@pytest.mark.parametrize("width", [3, 8])
def test_canonicalize_codes_matches_brute_force_s6(s6, width):
    # width 8 over |S6| = 720 needs 80 key bits: beyond any 64-bit packing
    table = s6.table()
    maps = table.inner_maps()
    codes = np.random.default_rng(width).integers(0, table.size, size=(60, width))
    rows, keys = canonicalize_codes(codes, maps, table.size)
    expected = _canonical_rows_oracle(codes, maps)
    assert [tuple(int(c) for c in r) for r in rows] == expected
    assert keys.tobytes() == row_keys(rows, table.size).tobytes()
    for k in (keys, row_keys(rows, 1 << 17)):
        by_key = rows[np.argsort(k, kind="stable")]
        assert [tuple(int(c) for c in r) for r in by_key] == sorted(expected)


def test_induced_permutation_identity_and_inverse(h25_data):
    fiber = h25_data["fiber_aut"]
    ident = hw.BraidWord((), "id", 5)
    assert hw.induced_permutation(fiber, ident).is_identity()
    for w in braid_nu_generators((4, 1))[:5]:
        p = hw.induced_permutation(fiber, w)
        q = hw.induced_permutation(fiber, w.inverse())
        assert (p * q).is_identity()


def test_induced_generators_transitive_on_h25(h25_data):
    # full cover: the braid images generate a transitive group on the fiber
    fiber = h25_data["fiber_aut"]
    arrays = [induced_permutation_array(fiber, w) for w in braid_nu_generators((4, 1))]
    orbits = hw.braid_orbits(fiber, arrays)
    assert orbits.orbit_sizes == (25,)


def test_fiber_rejects_unknown_mode(h25):
    with pytest.raises(hw.InputError):
        hw.build_fiber(h25, "weird")

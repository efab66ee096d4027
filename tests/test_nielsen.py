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
from hurwitz.nielsen import (
    _centralizer_generators,
    _enumerate_codes,
    _sorted_block_arrangement,
    apply_word_codes,
    canonicalize_codes,
    induced_permutation_array,
)
from hurwitz.perms import SubgroupCloser, conjugation_maps, label_reps, orbit_labels

from conftest import class_by_type, row_keys


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


def _dfs_oracle(table, pos_class, class_codes, budget, counter):
    """The recursive DFS that `_enumerate_codes` replaced, kept as its oracle.

    One recursion per surviving prefix of the first n-2 positions, the same
    two prunes, each visit counted before its budget check, and a dict of
    Python lists for the last two positions.
    """
    n = len(pos_class)
    mul, inv = table.mul, table.inv
    m = table.size
    if n == 1:
        return np.empty((0, 1), dtype=np.int64)
    closer = SubgroupCloser(table)
    reachable = [None] * (n + 1)
    mask = np.zeros(m, dtype=bool)
    mask[table.identity] = True
    reachable[n] = mask
    for k in range(n - 1, -1, -1):
        prev = np.nonzero(reachable[k + 1])[0]
        mask = np.zeros(m, dtype=bool)
        mask[np.unique(mul[np.ix_(class_codes[pos_class[k]], prev)])] = True
        reachable[k] = mask
    pair_map = {}
    for a in class_codes[pos_class[n - 2]]:
        for b in class_codes[pos_class[n - 1]]:
            pair_map.setdefault(int(mul[a, b]), []).append((int(a), int(b)))
    table_cid = [int(table.class_id[codes[0]]) for codes in class_codes]
    remaining_ids = [tuple(sorted({table_cid[ci] for ci in pos_class[k:]})) for k in range(n + 1)]
    rows = []
    prefix = [0] * (n - 2)

    def recurse(depth, prod, sid):
        counter["visits"] += 1
        if counter["visits"] > budget:
            raise hw.BudgetError("budget", consumed=counter["visits"], budget=budget)
        if depth == n - 2:
            pairs = pair_map.get(int(inv[prod]), [])
            if pairs and closer.is_full(sid):
                block = np.empty((len(pairs), n), dtype=np.int64)
                block[:, : n - 2] = prefix
                block[:, n - 2 :] = pairs
                rows.append(block)
                return
            for a, b in pairs:
                if closer.is_full(closer.extend(closer.extend(sid, a), b)):
                    rows.append(np.array([prefix + [a, b]], dtype=np.int64))
            return
        for c in class_codes[pos_class[depth]]:
            new_prod = int(mul[prod, c])
            if not reachable[depth + 1][int(inv[new_prod])]:
                continue
            s2 = closer.extend(sid, int(c))
            if not closer.is_full(s2) and not closer.can_reach_full(s2, remaining_ids[depth + 1]):
                continue
            prefix[depth] = int(c)
            recurse(depth + 1, new_prod, s2)

    recurse(0, table.identity, closer.trivial_id)
    return np.concatenate(rows) if rows else np.empty((0, n), dtype=np.int64)


def _sorted_rows(codes):
    return codes[np.argsort(row_keys(codes, 1 << 17), kind="stable")]


def _position_classes(h):
    order, _ = _sorted_block_arrangement(h)
    return [i for i in order for _ in range(h.nu[i])]


def _assert_matches_dfs_oracle(table, pos_class, class_codes):
    """Same rows and visits as the oracle; returns (rows, visits)."""
    want_counter = {"visits": 0}
    want = _dfs_oracle(table, pos_class, class_codes, 10**9, want_counter)
    counter = {"visits": 0}
    got = _enumerate_codes(table, pos_class, class_codes, 10**9, counter, SubgroupCloser(table))
    assert got.dtype == table.mul.dtype and got.shape == (len(want), len(pos_class))
    assert np.array_equal(_sorted_rows(got), _sorted_rows(want))
    assert counter == want_counter
    return got, counter["visits"]


# bundled parameters plus the generated ones the benchmark runs, with the
# prefix visits the recursive DFS made on them
_ORACLE_CASES = {
    "a5_c3_n4": ("A5", [(3, 1, 1)], [4], 421),
    "a5_c3_n5": ("A5", [(3, 1, 1)], [5], 8421),
    "a5_c3_n6": ("A5", [(3, 1, 1)], [6], 168421),
    "h25": ("S5", [(2, 1, 1, 1), (5,)], [4, 1], 761),
    "s5_212": ("S5", [(2, 1, 1, 1), (3, 1, 1), (5,)], [2, 1, 2], 2111),
    "s5_221": ("S5", [(2, 1, 1, 1), (3, 1, 1), (5,)], [2, 2, 1], 2051),
    "s5_mix": ("S5", [(2, 1, 1, 1), (2, 2, 1), (5,)], [2, 2, 1], 1581),
    "s4_42": ("S4", [(2, 1, 1), (4,)], [4, 2], 1555),
    "pgl27_22": ("PGL27", [(2, 2, 2, 1, 1), (3, 3, 1, 1)], [2, 2], 813),
    "s6_41": ("S6", [(4, 1, 1), (4, 2)], [2, 1], 91),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_enumerate_codes_matches_dfs_oracle(name, request):
    group_name, types, nu, visits = _ORACLE_CASES[name]
    G = request.getfixturevalue(group_name.lower())
    h = hw.validate_parameter(G, [class_by_type(G, t) for t in types], nu)
    table = G.table()
    _, got_visits = _assert_matches_dfs_oracle(table, _position_classes(h), [c.codes for c in h.classes])
    assert got_visits == visits
    if name == "a5_c3_n6":
        # the two parameters of criterion 5 also go through enumerate_tuples
        assert hw.enumerate_tuples(h).visits == visits


def test_enumerate_codes_matches_dfs_oracle_on_random_words(s4, s5, a5, pgl27):
    # class words read off random tuples with product one, so that tuples
    # exist; arbitrary words as the braid cross-check enumerates them, some
    # of whose leaves reach the group only through their last two entries
    rng = random.Random(41)
    checked = proper_prefix_rows = 0
    for trial in range(80):
        G = (s4, s5, a5, pgl27)[trial % 4]
        table = G.table()
        n = rng.randint(2, 6)
        codes = [rng.randrange(table.size) for _ in range(n - 1)]
        last = table.identity
        for c in codes:
            last = int(table.mul[last, c])
        codes.append(int(table.inv[last]))
        if table.identity in codes:
            continue
        cids = [int(table.class_id[c]) for c in codes]
        chosen = sorted(set(cids))
        pos_class = [chosen.index(cid) for cid in cids]
        classes = [G.conjugacy_classes()[cid] for cid in chosen]
        estimate = 1
        for ci in pos_class[:-1]:
            estimate *= classes[ci].size
        if estimate > 200_000:
            continue
        rows, _ = _assert_matches_dfs_oracle(table, pos_class, [c.codes for c in classes])
        checked += 1
        for row in rows[:50] if n >= 4 else []:
            if len(table.closure_codes(row[: n - 2].tolist() + [table.identity])) < table.size:
                proper_prefix_rows += 1
    assert checked >= 40 and proper_prefix_rows > 0


def test_enumerate_codes_budget_edge(s5, a5, pgl27):
    for G, types, nu in (
        (a5, [(3, 1, 1)], [5]),
        (s5, [(2, 1, 1, 1), (5,)], [4, 1]),
        (pgl27, [(2, 2, 2, 1, 1), (3, 3, 1, 1)], [2, 2]),
    ):
        h = hw.validate_parameter(G, [class_by_type(G, t) for t in types], nu)
        table = G.table()
        args = (table, _position_classes(h), [c.codes for c in h.classes])
        _, visits = _assert_matches_dfs_oracle(*args)
        counter = {"visits": 0}
        with pytest.raises(hw.BudgetError) as info:
            _enumerate_codes(*args, visits - 1, counter, SubgroupCloser(table))
        assert (info.value.consumed, info.value.budget) == (visits, visits - 1)
        assert counter["visits"] == visits
        counter = {"visits": 0}
        _enumerate_codes(*args, visits, counter, SubgroupCloser(table))
        assert counter["visits"] == visits
        # a budget crossed inside a level: consumed is still budget + 1
        with pytest.raises(hw.BudgetError) as info:
            _enumerate_codes(*args, visits // 2, {"visits": 0}, SubgroupCloser(table))
        assert info.value.consumed == visits // 2 + 1
        # a running count shared by several calls, as in the braid cross-check
        counter = {"visits": 5}
        closer = SubgroupCloser(table)
        _enumerate_codes(*args, visits + 5, counter, closer)
        with pytest.raises(hw.BudgetError) as info:
            _enumerate_codes(*args, 2 * visits + 4, counter, closer)
        assert info.value.consumed == 2 * visits + 5
        # the root visit alone exceeds a zero budget
        with pytest.raises(hw.BudgetError) as info:
            _enumerate_codes(*args, 0, {"visits": 0}, SubgroupCloser(table))
        assert info.value.consumed == 1


def test_budget_exhausted_inside_a_large_enumeration(a5, a5_c3):
    # 168,421 visits complete this enumeration; the running count stops it
    h = hw.validate_parameter(a5, [a5_c3], [6])
    with pytest.raises(hw.BudgetError) as info:
        hw.enumerate_tuples(h, budget=1000)
    assert (info.value.consumed, info.value.budget) == (1001, 1000)


def test_tuple_set_contains(h25_data):
    ts = h25_data["tuples"]
    assert all(ts.tuple_at(i) in ts for i in (0, 17, len(ts) - 1))
    t = ts.tuple_at(17)
    # the identity lies in no class of h25, and lengths must agree
    assert NielsenTuple([t[0].inverse() * t[0], *t.entries[1:]]) not in ts
    assert NielsenTuple(t.entries[:4]) not in ts


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


def _acting_maps(h, mode):
    """Every element map of Inn(G) or Aut(G, C)."""
    if mode == "inn":
        return h.group.table().inner_maps()
    return hw.aut_fixing_classes(hw.automorphism_group(h.group), h.classes).element_maps()


def test_inn_action_free_on_tuples(h25_data):
    # for a centerless group the inner action on generating tuples is free:
    # every fiber point has exactly |Inn| = 120 preimages
    fiber = h25_data["fiber_inn"]
    tuples = h25_data["tuples"]
    keys = row_keys(canonicalize_codes(tuples.codes, _acting_maps(fiber.h, "inn")), fiber.table.size)
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
    maps = _acting_maps(fiber.h, "aut")
    rng = random.Random(31)
    for _ in range(30):
        i = rng.randrange(len(fiber))
        point = fiber.point(i)
        assert fiber.canonicalize_tuple(point) == point  # idempotent
        # constant on the orbit of the acting group
        amap = maps[rng.randrange(len(maps))]
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
    for amap in _acting_maps(h, "inn"):
        moved = NielsenTuple(table.perm(int(amap[table.code(g)])) for g in point)
        assert fiber.canonicalize_tuple(moved) == point


def test_canonicalize_tuple_outside_the_tuple_set(h25_data):
    fiber = h25_data["fiber_aut"]
    t = fiber.point(3)
    # a product other than one: in every class, outside the tuple set
    swapped = NielsenTuple([t[1], t[0], *t.entries[2:]])
    assert swapped not in h25_data["tuples"]
    # a first entry in position 0's class, and one outside it (a 5-cycle),
    # which has no conjugator into the slice
    for bad in (swapped, NielsenTuple([t[4], *t.entries[1:]])):
        row = np.array([[fiber.table.code(g) for g in bad]])
        outside = bad[0] == t[4]
        assert (fiber.to_slice[row[0, 0]] < 0) == outside
        with pytest.raises(hw.InternalCheckError, match="outside position 0's class" if outside else "missing"):
            fiber.points_of(row)
        with pytest.raises(hw.InputError, match="not in the parameter's tuple set"):
            fiber.canonicalize_tuple(bad)
    with pytest.raises(hw.InputError, match="length"):
        fiber.canonicalize_tuple(NielsenTuple(t.entries[:4]))


def _key_positions(sorted_keys, keys):
    """Oracle: positions of row keys by binary search over the sorted keys."""
    pos = np.searchsorted(sorted_keys, keys)
    assert (pos < len(sorted_keys)).all() and (sorted_keys[pos] == keys).all()
    return pos


def _canonical_rows_oracle(codes, maps):
    # brute force: per row, the least mapped tuple over all maps
    return [min(tuple(int(amap[c]) for c in row) for amap in maps) for row in codes]


@pytest.mark.parametrize("width", [3, 8])
def test_canonicalize_codes_matches_brute_force_s6(s6, width):
    # width 8 over |S6| = 720 needs 80 key bits: beyond any 64-bit packing
    table = s6.table()
    maps = table.inner_maps()
    codes = np.random.default_rng(width).integers(0, table.size, size=(60, width))
    rows = canonicalize_codes(codes, maps)
    expected = _canonical_rows_oracle(codes, maps)
    assert [tuple(int(c) for c in r) for r in rows] == expected
    assert rows.dtype == maps.dtype and rows.shape == codes.shape
    for k in (row_keys(rows, table.size), row_keys(rows, 1 << 17)):
        by_key = rows[np.argsort(k, kind="stable")]
        assert [tuple(int(c) for c in r) for r in by_key] == sorted(expected)


def _canonical_fiber_oracle(tuples, maps, words):
    """Oracle: the fiber by canonicalizing every tuple over all acting maps,
    deduplicating and sorting, and each braid array by canonicalizing the
    moved points; returns (rows, keys, point of every tuple, arrays)."""
    m = tuples.table.size
    canon = canonicalize_codes(tuples.codes, maps)
    canon_keys = row_keys(canon, m)
    order = np.argsort(canon_keys, kind="stable")
    first = np.ones(len(order), dtype=bool)
    first[1:] = canon_keys[order][1:] != canon_keys[order][:-1]
    rows, keys = canon[order[first]], canon_keys[order[first]]
    arrays = []
    for w in words:
        moved_keys = row_keys(canonicalize_codes(apply_word_codes(rows, w.letters, tuples.table), maps), m)
        arrays.append(_key_positions(keys, moved_keys))
    return rows, keys, _key_positions(keys, canon_keys), arrays


_A5_FIVE_CYCLES = ("(1 2 3 4 5)", "(1 3 5 2 4)")


@pytest.mark.parametrize(
    "name, modes",
    [
        (name, ("inn", "aut"))
        for name in ("h25", "a5_c3_n4", "a5_c3_n5", "s6_41", "s5_212", "s5_221", "pgl27_22", "s4_42", "s5_mix")
    ]
    + [("a5_55", ("inn", "aut")), ("a5_c3_n6", ("inn",))],
)
def test_fiber_matches_canonical_fiber_oracle(name, modes, request):
    if name == "a5_55":
        G = request.getfixturevalue("a5")
        classes = [G.class_of(Permutation.from_cycles(c, 5)) for c in _A5_FIVE_CYCLES]
        h = hw.validate_parameter(G, classes, [2, 3])
    else:
        group_name, types, nu, _ = _ORACLE_CASES[name]
        G = request.getfixturevalue(group_name.lower())
        h = hw.validate_parameter(G, [class_by_type(G, t) for t in types], nu)
    tuples = hw.enumerate_tuples(h)
    words = braid_nu_generators(h.nu)
    for mode in modes:
        fiber = hw.build_fiber(h, mode, tuples=tuples)
        rows, keys, points, arrays = _canonical_fiber_oracle(tuples, _acting_maps(h, mode), words)
        assert fiber.rows.dtype == G.table().mul.dtype
        assert np.array_equal(fiber.rows, rows)
        assert row_keys(fiber.rows, G.table().size).tobytes() == keys.tobytes()
        # every tuple of the set, not only the slice, reads its oracle point
        assert np.array_equal(fiber.points_of(tuples.codes), points)
        _assert_slice_leads(fiber, tuples)
        got = induced_permutation_array(fiber, words)
        assert got.dtype == np.int32 and np.array_equal(got, arrays)
        if mode == "aut":
            # built on a separate inn fiber: the same points and arrays
            again = hw.build_fiber(h, "aut", inn=hw.build_fiber(h, "inn", tuples=tuples))
            assert np.array_equal(again.rows, fiber.rows)
            assert np.array_equal(again.points_of(tuples.codes), points)
            assert np.array_equal(induced_permutation_array(again, words), got)


_INDEX_CASES = ("a5_c3_n4", "a5_c3_n5", "a5_c3_n6", "h25", "s5_212", "s5_221", "s6_41", "pgl27_22", "s4_42")


def _assert_slice_leads(fiber, tuples):
    """The slice is the N / |C0| tuples that start with x0, the least code
    of position 0's class, at the head of the sorted tuple set."""
    c0 = fiber.h.classes[0]
    x0 = int(c0.codes[0])
    count = len(fiber.slice_index.rows)
    assert len(tuples) == c0.size * count
    assert (tuples.codes[:count, 0] == x0).all() and (tuples.codes[count:, 0] != x0).all()
    assert np.array_equal(fiber.slice_index.rows, tuples.codes[:count])
    assert np.flatnonzero(fiber.to_slice >= 0).tolist() == c0.codes.tolist()


def _orbit_numbers(step):
    """Oracle: the number of every point's orbit, orbits ordered by least
    point (the fiber's point numbering on a sorted tuple set)."""
    return label_reps(orbit_labels(np.asarray(step)))[1]


@pytest.mark.parametrize("name", _INDEX_CASES)
def test_tuple_index_matches_searchsorted_oracle(name, request):
    """Every lookup the fibers make, in both modes, against a binary search
    over the tuples' sorted row keys: the slice lookups of the inn fiber's
    centralizer generators, the outer generators' lookups of inn points,
    and the braid words' lookups of points.  The oracle's point of every
    tuple comes from orbits on the whole tuple set, located by search."""
    group_name, types, nu, _ = _ORACLE_CASES[name]
    G = request.getfixturevalue(group_name.lower())
    h = hw.validate_parameter(G, [class_by_type(G, t) for t in types], nu)
    tuples = hw.enumerate_tuples(h)
    table = tuples.table
    m = table.size
    keys = row_keys(tuples.codes, m)
    assert np.sort(keys).tobytes() == keys.tobytes() and len(np.unique(keys)) == len(keys)

    def oracle_positions(rows):
        return _key_positions(keys, row_keys(rows, m))

    inner = conjugation_maps(table.mul, table.inv, table.gen_codes)
    aut = hw.aut_fixing_classes(hw.automorphism_group(G), h.classes)
    outer = hw.aut_generator_maps(aut)[len(inner):]
    inner_steps = [oracle_positions(amap[tuples.codes]) for amap in inner]
    outer_steps = [oracle_positions(amap[tuples.codes]) for amap in outer]
    for amap, want in zip(inner, inner_steps):
        assert np.array_equal(tuples.positions(amap[tuples.codes]), want)
    assert len(tuples.index.levels) <= h.n - 1
    inn = hw.build_fiber(h, "inn", tuples=tuples)
    slice_rows = inn.slice_index.rows
    assert len(inn.slice_index.levels) <= h.n - 1
    for amap in conjugation_maps(table.mul, table.inv, _centralizer_generators(table, slice_rows[0, 0])):
        assert np.array_equal(inn.slice_index.positions(amap[slice_rows]), oracle_positions(amap[slice_rows]))
    inn_point = _orbit_numbers(inner_steps)
    for amap in outer:
        moved = amap[inn.rows]
        assert np.array_equal(inn.points_of(moved), inn_point[oracle_positions(moved)])
    fibers = ((inn, inn_point), (hw.build_fiber(h, "aut", inn=inn), _orbit_numbers(inner_steps + outer_steps)))
    for fiber, point in fibers:
        assert np.array_equal(fiber.points_of(tuples.codes), point)
        for w in braid_nu_generators(h.nu):
            moved = apply_word_codes(fiber.rows, w.letters, table)
            assert np.array_equal(fiber.points_of(moved), point[oracle_positions(moved)])


def _c2_s3():
    """C2 x S3 on 5 points: center {1, (4 5)}."""
    gens = [Permutation.from_cycles(c, 5) for c in ("(1 2)", "(1 2 3)", "(4 5)")]
    return PermGroup(5, gens, name="C2xS3")


def _d8():
    """The dihedral group of order 8 on a square: center {1, (1 3)(2 4)}."""
    return PermGroup(4, [Permutation.from_cycles(c, 4) for c in ("(1 2 3 4)", "(1 3)")], name="D8")


# (group, class representatives, nu, tuple count, |C_G(x0)|); the bundled
# base groups all have trivial center
_CENTER_CASES = {
    "c2s3_central": (_c2_s3, ("(4 5)", "(1 2)", "(1 2 3)"), (2, 4, 1), 54, 12),
    "c2s3_transposition": (_c2_s3, ("(1 2)", "(4 5)", "(1 2 3)"), (4, 2, 1), 54, 4),
    "d8_central": (_d8, ("(1 3)(2 4)", "(1 3)", "(1 2)(3 4)"), (2, 2, 2), 8, 8),
    "s6_transposition": ("s6", ("(1 2)", "(1 2 3 4 5 6)"), (2, 2), 8640, 48),
}


@pytest.mark.parametrize("name", sorted(_CENTER_CASES))
def test_fiber_slice_under_large_centralizers(name, request):
    """A central class at position 0 makes the slice the whole tuple set
    and C_G(x0) = G; an S6 transposition has a centralizer of order 48.
    The fibers match the canonical oracle in both modes, and their braid
    orbits match the orbits of the braid and inner generators on the
    whole tuple set, whose braid orbits `cross_check_braid_orbits` checks
    against the full braid group."""
    make, reps, nu, count, centralizer = _CENTER_CASES[name]
    G = request.getfixturevalue(make) if isinstance(make, str) else make()
    h = hw.validate_parameter(G, [G.class_of(Permutation.from_cycles(r, G.degree)) for r in reps], nu)
    table = G.table()
    tuples = hw.enumerate_tuples(h)
    assert len(tuples) == count
    x0 = int(h.classes[0].codes[0])
    assert len(table.centralizer_codes(x0)) == centralizer
    gens = _centralizer_generators(table, x0)
    assert 2 ** len(gens) <= centralizer
    assert table.closure_codes(gens) == tuple(table.centralizer_codes(x0).tolist())
    words = braid_nu_generators(h.nu)
    inner = conjugation_maps(table.mul, table.inv, table.gen_codes)
    braid_steps = [tuples.positions(apply_word_codes(tuples.codes, w.letters, table)) for w in words]
    inner_steps = [tuples.positions(amap[tuples.codes]) for amap in inner]
    for mode in ("inn", "aut"):
        fiber = hw.build_fiber(h, mode, tuples=tuples)
        rows, _, points, arrays = _canonical_fiber_oracle(tuples, _acting_maps(h, mode), words)
        assert np.array_equal(fiber.rows, rows)
        assert np.array_equal(fiber.points_of(tuples.codes), points)
        assert np.array_equal(induced_permutation_array(fiber, words), arrays)
        _assert_slice_leads(fiber, tuples)
        if mode == "inn":
            assert (len(fiber.slice_index.rows) == len(tuples)) == (centralizer == table.size)
            fiber_orbits = _orbit_numbers(induced_permutation_array(fiber, words))[points]
            assert np.array_equal(fiber_orbits, _orbit_numbers(braid_steps + inner_steps))
    assert hw.cross_check_braid_orbits(h) is True


def test_full_tuple_index_built_on_first_use(h25, monkeypatch):
    # fibers index only their slice; `positions`, membership and
    # cross_check_braid_orbits still locate any tuple in the whole set
    from hurwitz import monodromy

    tuples = hw.enumerate_tuples(h25)
    fiber = hw.build_fiber(h25, "aut", tuples=tuples)
    induced_permutation_array(fiber, braid_nu_generators(h25.nu))
    assert "index" not in tuples.__dict__
    assert tuples.positions(tuples.codes[::-1]).tolist() == list(range(len(tuples)))[::-1]
    assert "index" in tuples.__dict__ and tuples.tuple_at(7) in tuples
    checked = []
    enumerate_tuples = monodromy.enumerate_tuples
    monkeypatch.setattr(
        monodromy, "enumerate_tuples", lambda *a, **k: checked.append(enumerate_tuples(*a, **k)) or checked[-1]
    )
    assert hw.cross_check_braid_orbits(h25) is True
    assert "index" in checked[0].__dict__


def test_empty_tuple_set(a5, a5_c3):
    # a 3-cycle and its inverse generate no more than C3
    h = hw.validate_parameter(a5, [a5_c3], [2])
    tuples = hw.enumerate_tuples(h)
    assert len(tuples) == 0 and tuples.codes.shape == (0, 2)
    t = NielsenTuple([a5_c3.representative, a5_c3.representative.inverse()])
    assert t not in tuples
    for mode in ("inn", "aut"):
        fiber = hw.build_fiber(h, mode, tuples=tuples)
        assert len(fiber) == 0 and fiber.tuple_count == 0
        words = braid_nu_generators(h.nu)
        assert induced_permutation_array(fiber, words).shape == (len(words), 0)
        with pytest.raises(hw.InputError, match="not in the parameter's tuple set"):
            fiber.canonicalize_tuple(t)


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
    arrays = induced_permutation_array(fiber, braid_nu_generators((4, 1)))
    orbits = hw.braid_orbits(fiber, arrays)
    assert orbits.orbit_sizes == (25,)


def test_fiber_rejects_unknown_mode(h25):
    with pytest.raises(hw.InputError):
        hw.build_fiber(h25, "weird")

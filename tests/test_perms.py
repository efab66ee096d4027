"""Permutation arithmetic, stabilizer chains, classes, centralizers.

Expected values marked as derived below were computed by the independent
oracles in this file (brute-force partitions, element filters, matrix
arithmetic), not by the code under test.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurwitz as hw
from hurwitz import PermGroup, Permutation, StabilizerChain, orbit_labels
from hurwitz import perms as perms_module
from hurwitz.monodromy import _restriction_perms, braid_orbits, fiber_generator_arrays
from hurwitz.perms import RowIndex, SubgroupCloser, conjugation_maps, label_orbits, label_reps, sorted_rows

from _chain_oracle import ChainOracle
from conftest import class_by_type, cover_group, random_groups, random_perm, row_keys


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_simple():
    g = Permutation.from_cycles("(1 2)", 3)
    h = Permutation.from_cycles("(2 3)", 3)
    assert str(g.conjugate_by(h)) == "(1 3)"


def test_conjugate_identity():
    g = Permutation.from_cycles("(1 2 3)", 5)
    assert g.conjugate_by(Permutation.identity(5)) == g


def test_conjugate_five_cycle_by_transposition():
    # hand multiplication of (1 2)^-1 (1 2 3 4 5) (1 2) gives (1 3 4 5 2)
    g = Permutation.from_cycles("(1 2 3 4 5)", 5)
    h = Permutation.from_cycles("(1 2)", 5)
    assert str(g.conjugate_by(h)) == "(1 3 4 5 2)"


def test_conjugate_degree_mismatch():
    with pytest.raises(hw.InputError):
        Permutation.identity(3).conjugate_by(Permutation.identity(4))


def test_conjugation_is_an_action():
    rng = random.Random(11)
    for _ in range(200):
        g, h, k = (random_perm(rng, 6) for _ in range(3))
        assert g.conjugate_by(h).conjugate_by(k) == g.conjugate_by(h * k)


@given(st.permutations(list(range(7))))
def test_inverse_composes_to_identity(images):
    p = Permutation(images)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(st.permutations(list(range(6))), st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_composition_associative(a, b, c):
    p, q, r = Permutation(a), Permutation(b), Permutation(c)
    assert (p * q) * r == p * (q * r)


@given(st.permutations(list(range(8))))
def test_cycle_notation_round_trip(images):
    p = Permutation(images)
    assert Permutation.from_cycles(str(p), 8) == p


def test_cycle_parse_errors():
    with pytest.raises(hw.InputError):
        Permutation.from_cycles("(0 1)")  # files are 1-based
    with pytest.raises(hw.InputError):
        Permutation.from_cycles("(1 2)(2 3)")  # not disjoint
    with pytest.raises(hw.InputError):
        Permutation.from_cycles("(1 2")


# ---------------------------------------------------------------------------
# orders


def test_order_s5():
    assert PermGroup.from_cycles(5, ["(1 2)", "(1 2 3 4 5)"]).order() == 120


def test_order_a5():
    assert PermGroup.from_cycles(5, ["(1 2 3)", "(3 4 5)"]).order() == 60


def test_order_sl2_f5():
    # independent construction: SL2(F5) acting on the 24 nonzero vectors of
    # F5^2 by row-vector multiplication; |SL2(5)| = (25-1)(25-5)/(5-1) = 120
    vecs = [(x, y) for x in range(5) for y in range(5) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}

    def mat_perm(a, b, c, d):
        return Permutation(
            index[((x * a + y * c) % 5, (x * b + y * d) % 5)] for (x, y) in vecs
        )

    G = PermGroup(24, [mat_perm(1, 1, 0, 1), mat_perm(0, 1, 4, 0)])
    assert G.order() == 120


def test_order_matches_closure_on_random_groups():
    rng = random.Random(5)
    for _ in range(25):
        degree = rng.randint(2, 7)
        gens = [random_perm(rng, degree) for _ in range(rng.randint(1, 3))]
        G = PermGroup(degree, gens)
        assert G.order() == len(G.elements())


def test_order_invariant_under_base_strategy(s5, a5, pgl27):
    # the chain picks its own base; the oracle's other bases give the same order
    for G in (s5, a5, pgl27):
        greedy = StabilizerChain(G.generators, G.degree).order()
        natural = ChainOracle(G.generators, G.degree, strategy="natural").order()
        prefixed = ChainOracle(G.generators, G.degree, base_prefix=(G.degree - 1, 0)).order()
        assert greedy == natural == prefixed == G.order()


def test_trivial_group():
    T = PermGroup.trivial(4)
    assert T.order() == 1
    assert len(T.conjugacy_classes()) == 1


# ---------------------------------------------------------------------------
# conjugacy classes


def brute_force_classes(group):
    """Oracle: partition all elements by pairwise conjugation."""
    elements = list(group.elements())
    remaining = set(elements)
    classes = []
    while remaining:
        g = min(remaining)
        orbit = {h.inverse() * g * h for h in elements}
        assert orbit <= remaining
        remaining -= orbit
        classes.append(frozenset(orbit))
    return classes


def test_s5_classes_against_brute_force(s5):
    oracle = brute_force_classes(s5)
    assert sorted(len(c) for c in oracle) == [1, 10, 15, 20, 20, 24, 30]
    computed = s5.conjugacy_classes()
    assert len(computed) == 7
    assert {frozenset(c.elements) for c in computed} == set(oracle)


def test_a5_classes(a5):
    oracle = brute_force_classes(a5)
    computed = a5.conjugacy_classes()
    assert len(computed) == 5
    assert {frozenset(c.elements) for c in computed} == set(oracle)
    five_cycles = [c for c in computed if c.order() == 5]
    assert [c.size for c in five_cycles] == [12, 12]


def test_class_sizes_sum_and_divide(s5, s6, a5, s4, pgl27):
    for G in (s5, s6, a5, s4, pgl27):
        classes = G.conjugacy_classes()
        assert sum(c.size for c in classes) == G.order()
        assert all(G.order() % c.size == 0 for c in classes)


def test_class_ordering_deterministic(s5):
    keys = [(c.order(), c.size, c.representative.images) for c in s5.conjugacy_classes()]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# derived subgroups, centralizers, abelianization


def test_derived_subgroups(s5, a5):
    d = s5.derived_subgroup()
    assert d.order() == 60
    assert all(g in d for g in a5.generators)
    assert a5.derived_subgroup().order() == 60
    abelian = PermGroup.from_cycles(6, ["(1 2 3)", "(4 5 6)"])
    assert abelian.derived_subgroup().order() == 1


def test_centralizers_against_filter_oracle(s5):
    five = Permutation.from_cycles("(1 2 3 4 5)", 5)
    trans = Permutation.from_cycles("(1 2)", 5)
    for g, expected in ((five, 5), (trans, 12)):
        oracle = [x for x in s5.elements() if x * g == g * x]
        Z = s5.centralizer(g)
        assert Z.order() == expected == len(oracle)
        assert all(x in Z for x in oracle)
    assert s5.centralizer(Permutation.identity(5)).order() == 120


def test_centralizer_requires_membership():
    A5 = PermGroup.from_cycles(5, ["(1 2 3)", "(3 4 5)"])
    with pytest.raises(hw.InputError):
        A5.centralizer(Permutation.from_cycles("(1 2)", 5))


def test_orbit_stabilizer_exhaustive(s5):
    for g in s5.elements():
        cls = s5.class_of(g)
        assert s5.centralizer(g).order() * cls.size == 120


def test_abelianization_s5_sign(s5):
    ab = s5.abelianization()
    assert ab.size == 2
    assert ab.invariant_factors() == (2,)
    assert ab.label(Permutation.from_cycles("(1 2)", 5)) == 1
    assert ab.label(Permutation.from_cycles("(1 2 3)", 5)) == 0
    c2111 = class_by_type(s5, (2, 1, 1, 1))
    assert ab.class_label(c2111) == 1


def test_abelianization_a5_trivial(a5):
    assert a5.abelianization().size == 1


def test_abelianization_nontrivial_factors():
    G = PermGroup.from_cycles(5, ["(1 2 3)", "(4 5)"])  # C3 x C2 = C6
    ab = G.abelianization()
    assert ab.size == 6
    assert ab.invariant_factors() == (6,)


# ---------------------------------------------------------------------------
# chains: membership, pointwise stabilizers


def test_membership(s5, a5):
    assert Permutation.from_cycles("(1 2)", 5) in s5
    assert Permutation.from_cycles("(1 2)", 5) not in a5
    assert Permutation.from_cycles("(1 2 3)", 5) in a5


def test_normal_closure(s4):
    double = Permutation.from_cycles("(1 2)(3 4)", 4)
    v4 = s4.normal_closure([double])
    assert v4.order() == 4
    trans = Permutation.from_cycles("(1 2)", 4)
    assert s4.normal_closure([trans]).order() == 24


# ---------------------------------------------------------------------------
# chains against the former algorithm (every level acting by S_i)


def _random_word(rng, gens, degree, length=12):
    word = Permutation.identity(degree)
    for _ in range(length if gens else 0):
        word = word * rng.choice(gens)
    return word


def _assert_chain_matches_oracle(gens, degree, rng, depths=None):
    """Order, membership and pointwise stabilizers against ChainOracle.

    ``depths`` are the k whose acting elements T_k are checked (default:
    every k from 0 to the number of levels).
    """
    chain = StabilizerChain(gens, degree)
    oracle = ChainOracle(gens, degree)
    assert chain.order() == oracle.order()
    probes = [random_perm(rng, degree) for _ in range(8)]
    probes += [_random_word(rng, gens, degree) for _ in range(8)]
    for p in probes:
        assert chain.contains(p) == oracle.contains(p)
    # T_k, the elements that entered level k, generate the pointwise
    # stabilizer of the first k base points, whose order is the product of
    # the deeper orbits
    base = chain.base()
    for k in range(len(chain.levels) + 1) if depths is None else depths:
        acting = chain.levels[k].acting if k < len(chain.levels) else []
        stab = [tuple(t[:degree]) for t in acting]
        assert all(g[b] == b for g in stab for b in base[:k])
        pointwise = math.prod(len(level.transversal) for level in chain.levels[k:])
        assert ChainOracle(stab, degree).order() == pointwise
    return chain, oracle


def _sparse_groups(count, seed):
    """Seeded groups of degree 257-300 whose generators each permute 9 of
    one window of 14 points: tuple-mode chains of at most 14 levels."""
    rng = random.Random(seed)
    groups = []
    for _ in range(count):
        degree = rng.randint(257, 300)
        window = rng.sample(range(degree), 14)
        gens = []
        for _ in range(rng.randint(2, 3)):
            moved = rng.sample(window, 9)
            images = list(range(degree))
            for a, b in zip(moved, rng.sample(moved, 9)):
                images[a] = b
            gens.append(Permutation(images))
        groups.append((degree, gens))
    return groups


def test_chain_matches_oracle_on_random_groups():
    rng = random.Random(37)
    for G in random_groups():
        _assert_chain_matches_oracle(G.generators, G.degree, rng)


def test_chain_matches_oracle_in_tuple_mode():
    rng = random.Random(41)
    for degree, gens in _sparse_groups(6, 43):
        _assert_chain_matches_oracle(gens, degree, rng)


def test_chain_matches_oracle_through_repeated_adds(monkeypatch):
    rng = random.Random(47)
    cases = [(G.degree, list(G.generators)) for G in random_groups()[:25]]
    cases += _sparse_groups(2, 53)
    for degree, gens in cases:
        # one add per element, as PermGroup.normal_closure calls it
        chain = StabilizerChain([], degree)
        oracle = ChainOracle([], degree)
        for _ in range(6):
            x = _random_word(rng, gens, degree, length=rng.randint(1, 6))
            assert chain.add(x.images) == oracle.add(x.images)
            assert chain.order() == oracle.order()
        G = PermGroup(degree, gens)
        seed = [_random_word(rng, gens, degree, length=3)]
        probes = [_random_word(rng, gens, degree) for _ in range(6)]
        monkeypatch.setattr(perms_module, "StabilizerChain", ChainOracle)
        want = G.normal_closure(seed)
        want_members = [p in want for p in probes]
        want_order = want.order()
        monkeypatch.undo()
        got = G.normal_closure(seed)
        assert got.order() == want_order
        assert [p in got for p in probes] == want_members


@pytest.fixture(scope="module")
def s4_42_orbit(s4):
    """The 160-point imprimitive orbit of S4 at classes (2,1,1), (4) and
    nu = (4, 2), inn mode: a chain of 96 levels."""
    h = hw.validate_parameter(s4, [class_by_type(s4, (2, 1, 1)), class_by_type(s4, (4,))], [4, 2])
    fiber = hw.build_fiber(h, "inn")
    arrays = fiber_generator_arrays(fiber)[1]
    members = [m for m in braid_orbits(fiber, arrays).orbit_members if len(m) == 160]
    assert len(members) == 1
    return _restriction_perms(arrays, members[0])


def test_chain_matches_oracle_on_s4_42_orbit(s4_42_orbit):
    rng = random.Random(59)
    chain, oracle = _assert_chain_matches_oracle(s4_42_orbit, 160, rng, depths=(64, 80, 90, 95, 96))
    assert chain.order() == 24966908504806995262901468519458343826960638143365120
    # the sift count is a deterministic work count; every level acting by
    # the elements that entered it sifts 10,144 Schreier generators, where
    # levels acting by all strong generators of their depth sifted 37,344
    assert StabilizerChain(s4_42_orbit, 160).sifts == chain.sifts
    assert chain.sifts <= 10_144
    assert chain.sifts < oracle.sifts


# ---------------------------------------------------------------------------
# the orbit primitive


def bfs_orbits_oracle(step, points):
    """Oracle: the orbits through the points by a per-point Python BFS."""
    orbits = []
    reached = set()
    for start in sorted(set(points)):
        if start in reached:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for x in frontier:
                for row in step:
                    y = int(row[x])
                    if y not in orbit:
                        orbit.add(y)
                        new.append(y)
            frontier = new
        reached |= orbit
        orbits.append(sorted(orbit))
    return sorted(orbits)


def random_step(rng, k, m):
    return np.array([rng.permutation(m) for _ in range(k)], dtype=np.int64).reshape(k, m)


def test_label_orbits_matches_bfs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(0, 4))
        m = int(rng.integers(1, 40))
        step = random_step(rng, k, m)
        labels = orbit_labels(step)
        want = bfs_orbits_oracle(step, range(m))
        got = [orbit.tolist() for orbit in label_orbits(labels)]
        assert got == want
        assert all(orbit.dtype == np.int64 for orbit in label_orbits(labels))
        assert labels.tolist() == _labels_of(want, m)
        points = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        got = label_orbits(labels, points)
        assert [orbit.tolist() for orbit in got] == bfs_orbits_oracle(step, points.tolist())
        assert all(orbit.dtype == np.int64 for orbit in got)
        reps, number = label_reps(labels)
        assert reps.tolist() == [orbit[0] for orbit in want]
        assert number.dtype == labels.dtype
        assert number.tolist() == [reps.tolist().index(x) for x in labels.tolist()]


def _labels_of(orbits, m):
    labels = [None] * m
    for orbit in orbits:
        for x in orbit:
            labels[x] = min(orbit)
    return labels


def test_orbit_labels_long_cycles_and_many_orbits():
    rng = np.random.default_rng(5)
    # one long cycle through shuffled points, plus a second map
    m = 3000
    order = rng.permutation(m)
    cycle = np.empty(m, dtype=np.int64)
    cycle[order] = np.roll(order, -1)
    for step in (cycle[None], np.argsort(cycle)[None], np.array([cycle, rng.permutation(m)])):
        assert orbit_labels(step).tolist() == _labels_of(bfs_orbits_oracle(step, range(m)), m)
    # the 1,024 classes of C2^10 are singletons
    g = PermGroup(20, [Permutation.from_cycles(f"({2 * i + 1} {2 * i + 2})", 20) for i in range(10)])
    table = g.table()
    step = conjugation_maps(table.mul, table.inv, table.gen_codes)
    labels = orbit_labels(step)
    assert labels.dtype == np.int32
    assert labels.tolist() == _labels_of(bfs_orbits_oracle(step, range(table.size)), table.size)
    assert labels.tolist() == list(range(1024))
    assert [c.size for c in g.conjugacy_classes()] == [1] * 1024


def _searchsorted_oracle(rows, queries, m):
    """Positions of query rows by binary search over the rows' sorted keys."""
    keys = row_keys(rows, m)
    return np.searchsorted(keys, row_keys(queries, m))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
def test_sorted_rows_sorts_in_place_like_lexsort(dtype):
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows = rng.integers(0, 200, size=(int(rng.integers(0, 300)), int(rng.integers(1, 6))))
        rows = rows.astype(dtype)
        want = rows[np.lexsort(rows.T[::-1])]
        got = sorted_rows(rows)
        assert got is rows and got.dtype == dtype and np.array_equal(got, want)


def test_row_index_matches_searchsorted_oracle_on_random_rows(monkeypatch):
    rng = np.random.default_rng(17)
    for case in range(50):
        # small blocks put the build's block boundaries inside the rows
        monkeypatch.setattr(hw.perms, "_CANON_CHUNK", (1, 2, 7, 64, 1 << 16)[case % 5])
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 30))
        rows = rng.integers(0, m, size=(int(rng.integers(2, 400)), n))
        # a twin differing in the last column only: the first n - 1 columns
        # do not determine the rows, so the levels run to column n
        twin = rows[:1].copy()
        twin[0, -1] = (twin[0, -1] + 1) % m
        rows = np.unique(np.concatenate([rows, twin]), axis=0).astype(np.uint16)
        index = RowIndex(rows, m)
        assert len(index.levels) == n
        queries = rows[rng.permutation(len(rows))]
        got = index.positions(queries)
        assert got.dtype == np.int32
        assert np.array_equal(got, _searchsorted_oracle(rows, queries, m))
        assert np.array_equal(index.positions(rows), np.arange(len(rows)))
        present = {tuple(r) for r in rows.tolist()}
        for query in rng.integers(0, m, size=(5, n)).astype(np.uint16):
            if tuple(query.tolist()) in present:
                continue
            with pytest.raises(hw.InternalCheckError, match="missing"):
                index.positions(np.concatenate([rows[:3], query[None]]))


def test_row_index_levels_stop_where_the_prefixes_are_the_rows():
    rows = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 2]], dtype=np.uint16)
    index = RowIndex(rows, 3)
    # the 2-prefixes are distinct: two levels, then the last column compared
    assert len(index.levels) == 2
    assert [level[2].dtype for level in index.levels] == [np.int8, np.int8]
    assert index.positions(rows[::-1]).tolist() == [2, 1, 0]
    for query, why in (
        ([2, 0, 0], "code absent from column 0"),
        ([1, 1, 2], "absent prefix (1, 1)"),
        ([0, 0, 1], "last-column mismatch"),
        ([0, 1, 2], "last-column mismatch"),
    ):
        with pytest.raises(hw.InternalCheckError, match="missing"):
            index.positions(np.array([query], dtype=np.uint16))
    # one row needs no level; n = 2 with distinct first entries needs one
    assert len(RowIndex(rows[:1], 3).levels) == 0
    pairs = np.array([[0, 2], [1, 1], [2, 0]], dtype=np.uint16)
    assert len(RowIndex(pairs, 3).levels) == 1
    assert RowIndex(pairs, 3).positions(pairs[[2, 0]]).tolist() == [2, 0]
    with pytest.raises(hw.InternalCheckError, match="missing"):
        RowIndex(pairs, 3).positions(np.array([[1, 2]], dtype=np.uint16))


def test_row_index_rejects_rows_not_strictly_increasing():
    for rows in ([[0, 1], [0, 0]], [[0, 1], [0, 1]], [[1, 0], [0, 2], [2, 2]]):
        with pytest.raises(hw.InternalCheckError, match="strictly increasing"):
            RowIndex(np.array(rows, dtype=np.uint16), 3)


def test_row_index_empty():
    index = RowIndex(np.empty((0, 3), dtype=np.uint16), 5)
    assert index.positions(np.empty((0, 3), dtype=np.uint16)).tolist() == []
    with pytest.raises(hw.InternalCheckError, match="missing"):
        index.positions(np.zeros((1, 3), dtype=np.uint16))


def test_label_orbits_edge_cases():
    def orbits(step, points=None):
        return [o.tolist() for o in label_orbits(orbit_labels(step), points)]

    empty = np.empty((0, 5), dtype=np.int64)
    assert orbits(empty) == [[0], [1], [2], [3], [4]]
    assert orbits(empty, [3, 1, 3]) == [[1], [3]]
    assert orbits(np.zeros((2, 1), dtype=np.int64)) == [[0]]
    # a listed subset returns whole orbits, ordered by least point
    step = np.array([[5, 1, 3, 2, 4, 0]])
    assert orbits(step, [2, 5]) == [[0, 5], [2, 3]]
    assert orbits(step, []) == []
    assert orbits(np.empty((0, 0), dtype=np.int64)) == []
    assert [a.tolist() for a in label_reps(orbit_labels(step))] == [[0, 1, 2, 4], [0, 1, 2, 2, 3, 0]]


def _closure_table(name, request):
    """The table of a bundled group, or of the reduced 2S5 cover of h25."""
    if name == "h25_quotient":
        classes = [class_by_type(request.getfixturevalue("s5"), t) for t in [(2, 1, 1, 1), (5,)]]
        return hw.reduce_cover(request.getfixturevalue("ext_2s5"), classes).table
    return request.getfixturevalue(name).table()


def _closure_oracle(table, codes):
    """The orbit of the identity under right multiplication by the codes."""
    return bfs_orbits_oracle([table.mul[:, g] for g in codes], [table.identity])[0]


@pytest.mark.parametrize("name", ["s5", "pgl27", "s6", "h25_quotient"])
def test_closure_codes_matches_bfs_oracle(name, request):
    table = _closure_table(name, request)
    rng = random.Random(3)
    for _ in range(30):
        codes = rng.sample(range(table.size), rng.randint(0, 3))
        closed = table.closure_codes(codes)
        assert isinstance(closed, tuple)
        assert list(closed) == _closure_oracle(table, codes)
    assert len(table.closure_codes(table.gen_codes)) == table.size
    for _ in range(12):
        # a whole subgroup plus one code, as SubgroupCloser.extend asks
        gens = rng.sample(range(table.size), rng.randint(0, 2))
        h = table.closure_codes(gens)
        c = rng.randrange(table.size)
        expected = _closure_oracle(table, gens + [c])
        assert list(table.closure_codes([c], subgroup=np.array(h))) == expected
        assert table.closure_codes([c], subgroup=h) == table.closure_codes(list(h) + [c])
        # a subgroup plus whole classes, as SubgroupCloser.can_reach_full asks
        cids = rng.sample(range(len(table.class_codes)), rng.randint(1, 2))
        classes = np.concatenate([table.class_codes[i] for i in cids])
        got = table.closure_codes(classes, subgroup=h)
        assert list(got) == _closure_oracle(table, gens + sorted(set(classes.tolist())))
        assert got == table.closure_codes(list(h) + classes.tolist())
    # no codes: the subgroup itself
    h = table.closure_codes(rng.sample(range(table.size), 2))
    assert table.closure_codes([], subgroup=h) == h


# ---------------------------------------------------------------------------
# GroupTable, classes, centralizers and G/G' against the element-by-element
# loops they replaced


def _elements_bfs_oracle(group):
    """The element list `PermGroup.elements` built before tables came from
    chain products: a BFS over Permutation products by the generators,
    sorted."""
    ident = Permutation.identity(group.degree)
    seen = {ident.images}
    frontier = [ident]
    out = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in group.generators:
                y = x * g
                if y.images not in seen:
                    seen.add(y.images)
                    new.append(y)
                    out.append(y)
        frontier = new
    return tuple(sorted(out))


def _classes_oracle(group):
    """Classes by a BFS of Permutation conjugations, sorted like the table's."""
    elems = _elements_bfs_oracle(group)
    index = {g.images: i for i, g in enumerate(elems)}
    assigned = [False] * len(elems)
    classes = []
    for i, g in enumerate(elems):
        if assigned[i]:
            continue
        orbit = [g]
        assigned[i] = True
        qi = 0
        while qi < len(orbit):
            x = orbit[qi]
            qi += 1
            for h in group.generators:
                y = x.conjugate_by(h)
                j = index[y.images]
                if not assigned[j]:
                    assigned[j] = True
                    orbit.append(y)
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (c[0].order(), len(c), c[0].images))
    return classes


def _abelian_quotient_oracle(group):
    """(label of each element, coset representatives, multiplication) of G/G'."""
    dset = set(group.derived_subgroup().elements())
    label_of = {}
    reps = []
    for g in group.elements():
        if g not in label_of:
            members = sorted(g * d for d in dset)
            reps.append(members[0])
            for m in members:
                label_of[m] = len(reps) - 1
    assert reps[0].is_identity()
    mul = [[label_of[a * b] for b in reps] for a in reps]
    return label_of, reps, mul


def assert_classes_match_oracle(group):
    elems = group.elements()
    classes = _classes_oracle(group)
    computed = group.conjugacy_classes()
    assert [c.elements for c in computed] == classes
    assert [c.representative for c in computed] == [c[0] for c in classes]
    assert [c.codes.tolist() for c in computed] == [
        sorted(group.table().code(g) for g in c) for c in classes
    ]
    k = len(classes)
    assert [[c[0] in d for d in computed] for c in classes] == [[i == j for j in range(k)] for i in range(k)]
    class_of = {g: c for c in classes for g in c}
    for g in elems:
        assert group.class_of(g).elements == class_of[g]
        # Z(g) has |G| / |class of g| elements, so a commuting set that large is all of it
        members = sorted(group.centralizer(g).generators + (Permutation.identity(group.degree),))
        assert len(members) * len(class_of[g]) == len(elems)
        assert all(x * g == g * x for x in members)
    for c in classes:
        g = c[0]
        oracle = [x for x in elems if x * g == g * x]
        assert sorted(group.centralizer(g).generators) == [x for x in oracle if not x.is_identity()]
    center = [x for x in elems if all(x * g == g * x for g in group.generators)]
    assert sorted(group.center().generators) == [x for x in center if not x.is_identity()]
    label_of, reps, mul = _abelian_quotient_oracle(group)
    ab = group.abelianization()
    assert [ab.label(g) for g in elems] == [label_of[g] for g in elems]
    assert ab.reps == reps
    assert [[ab.multiply(a, b) for b in range(ab.size)] for a in range(ab.size)] == mul


def _table_oracle(group):
    """images, mul, inv, order_of, class_id, class codes, identity and
    generator codes over the BFS element list, by dict lookups of image
    bytes."""
    elems = _elements_bfs_oracle(group)
    size = len(elems)
    code_of = {g.images: i for i, g in enumerate(elems)}
    dtype = np.uint16 if size < 65535 else np.uint32
    arr = np.ascontiguousarray(np.array([g.images for g in elems], dtype=dtype))
    lookup = {arr[i].tobytes(): i for i in range(size)}
    mul = np.empty((size, size), dtype=dtype)
    for a in range(size):
        # rows of arr[:, arr[a]] are the image tuples of a*b over all b
        block = np.ascontiguousarray(arr[:, arr[a]])
        mul[a] = [lookup[block[b].tobytes()] for b in range(size)]
    inv = np.array([code_of[g.inverse().images] for g in elems], dtype=dtype)
    order_of = np.array([g.order() for g in elems], dtype=np.int64)
    class_id = np.empty(size, dtype=np.int32)
    class_codes = []
    for ci, c in enumerate(_classes_oracle(group)):
        class_codes.append(sorted(code_of[g.images] for g in c))
        for g in c:
            class_id[code_of[g.images]] = ci
    inner_maps = np.empty((size, size), dtype=dtype)
    for z in range(size):
        # row z column x: (z^-1 * x) * z
        inner_maps[z] = mul[mul[int(inv[z])], z]
    return {
        "images": np.array([g.images for g in elems], dtype=np.uint16).reshape(size, group.degree),
        "mul": mul,
        "inv": inv,
        "order_of": order_of,
        "class_id": class_id,
        "inner_maps": inner_maps,
        "identity": code_of[tuple(range(group.degree))],
        "gen_codes": [code_of[g.images] for g in group.generators],
        "class_codes": class_codes,
        "elements": elems,
    }


def assert_table_matches_oracle(group):
    table = hw.GroupTable(group)
    expected = _table_oracle(group)
    assert table.identity == expected.pop("identity") == 0
    assert table.gen_codes == expected.pop("gen_codes")
    assert [c.tolist() for c in table.class_codes] == expected.pop("class_codes")
    assert table.elements == expected.pop("elements")
    assert np.array_equal(table.inner_maps(), expected.pop("inner_maps"))
    assert table.inner_maps().dtype == table.mul.dtype
    for name, want in expected.items():
        got = getattr(table, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert_classes_match_oracle(group)


@pytest.mark.parametrize("name", ["a5", "s4", "s5", "s6", "pgl27"])
def test_group_table_matches_oracle_on_bundled_groups(name, request):
    assert_table_matches_oracle(request.getfixturevalue(name))


@pytest.mark.parametrize("name", ["ext_2s5", "ext_2s5_alt", "ext_sl25", "ext_2pgl27", "ext_2s6"])
def test_group_table_matches_oracle_on_bundled_covers(name, request):
    ext = request.getfixturevalue(name)
    group = cover_group(ext)
    assert_table_matches_oracle(group)
    # the extension's own table is that group's table
    for field in ("mul", "inv", "class_id"):
        assert np.array_equal(getattr(ext.table, field), getattr(group.table(), field)), field


@pytest.mark.parametrize(
    "name",
    ["a5", "s4", "s5", "s6", "pgl27", "ext_2s5", "ext_2s5_alt", "ext_sl25", "ext_2pgl27", "ext_2s6"],
)
def test_group_table_matches_oracle_on_derived_subgroups(name, request):
    group = request.getfixturevalue(name)
    if name.startswith("ext_"):
        group = cover_group(group)
    assert_table_matches_oracle(group.derived_subgroup())


def test_group_table_matches_oracle_on_random_groups():
    for G in random_groups():
        assert_table_matches_oracle(G)


def _normal_closure_gen_codes_oracle(table, seed):
    """The loop normal_closure_gen_codes replaced: a conjugate joins when it
    lies outside the subgroup generated so far, which is closed again from
    its generators by the BFS oracle after every join."""
    mul, inv = table.mul, table.inv
    gens = [c for c in dict.fromkeys(int(c) for c in seed) if c != table.identity]
    members = set(_closure_oracle(table, gens))
    frontier = list(gens)
    while frontier:
        new = []
        for x in frontier:
            for z in table.gen_codes:
                y = int(mul[mul[inv[z], x], z])
                if y not in members:
                    gens.append(y)
                    members = set(_closure_oracle(table, gens))
                    new.append(y)
        frontier = new
    return gens


@pytest.mark.parametrize("name", ["s5", "pgl27", "s6"])
def test_normal_closure_gen_codes_match_loop_oracle(name, request):
    # the same generators in the same order, so every caller sees the same list
    table = request.getfixturevalue(name).table()
    for codes in table.class_codes:
        seed = [int(codes[0])]
        assert table.normal_closure_gen_codes(seed) == _normal_closure_gen_codes_oracle(table, seed)
    g = np.asarray(table.gen_codes, dtype=np.int64)
    comms = np.unique(table.commutator(g[:, None], g)).tolist()
    assert table.derived_gen_codes() == _normal_closure_gen_codes_oracle(table, comms)


def test_normal_closures_on_codes_match_chain_route():
    rng = random.Random(31)
    for G in random_groups():
        table = G.table()
        derived = table.closure_codes(table.derived_gen_codes())
        assert [table.perm(c) for c in derived] == list(G.derived_subgroup().elements())
        for _ in range(3):
            seed = [rng.randrange(table.size) for _ in range(rng.randint(1, 3))]
            closure = table.closure_codes(table.normal_closure_gen_codes(seed))
            chain = G.normal_closure([table.perm(c) for c in seed])
            assert [table.perm(c) for c in closure] == list(chain.elements())
        center = [c for c in range(table.size) if (table.mul[c] == table.mul[:, c]).all()]
        assert table.center_order() == len(center) == G.center().order()


@pytest.mark.parametrize(
    "group",
    [PermGroup.trivial(1), PermGroup.trivial(3), PermGroup.symmetric(1), PermGroup.symmetric(2)],
    ids=["trivial1", "trivial3", "S1", "S2"],
)
def test_group_table_with_empty_or_short_base(group):
    # the trivial groups have an empty chain base, so every gather has no levels
    assert_table_matches_oracle(group)


@pytest.mark.parametrize(
    "name, base, cycle_types, size",
    [
        ("ext_2s5", "s5", [(2, 1, 1, 1), (5,)], 120),  # h25
        ("ext_2s6", "s6", [(4, 2), (2, 1, 1, 1, 1)], 720),  # s6_e_hold
    ],
    ids=["h25", "s6_e_hold"],
)
def test_reduced_cover_table_matches_permutation_oracles(name, base, cycle_types, size, request):
    # a reduced cover's table comes from arrays; its element c is the
    # permutation of the cosets by right multiplication
    group = request.getfixturevalue(base)
    classes = [class_by_type(group, t) for t in cycle_types]
    table = hw.reduce_cover(request.getfixturevalue(name), classes).table
    assert table.size == size
    perms = [table.perm(c) for c in range(size)]
    assert perms[table.identity].is_identity()
    assert table.order_of.tolist() == [p.order() for p in perms]
    rng = random.Random(23)
    for _ in range(300):
        a, b = rng.randrange(size), rng.randrange(size)
        assert perms[a] * perms[b] == perms[int(table.mul[a, b])]
        assert (perms[a] * perms[int(table.inv[a])]).is_identity()
    code_of = {p.images: c for c, p in enumerate(perms)}
    assert table.code_of == code_of
    # classes: orbits of Permutation conjugation by the generators
    step = [
        [code_of[p.conjugate_by(perms[g]).images] for p in perms] for g in table.gen_codes
    ]
    orbits = bfs_orbits_oracle(step, range(size))
    assert sorted(sorted(o.tolist()) for o in table.class_codes) == orbits
    for orbit in orbits:
        assert len(set(table.class_id[orbit].tolist())) == 1
    assert len(set(table.class_id.tolist())) == len(orbits)


def test_group_table_missing_element_is_internal_error(monkeypatch):
    G = PermGroup.symmetric(4)
    real = StabilizerChain.element_images
    monkeypatch.setattr(
        StabilizerChain, "element_images", lambda self, dtype: np.delete(real(self, dtype), 5, axis=0)
    )
    with pytest.raises(hw.InternalCheckError):
        hw.GroupTable(G)


def test_element_cap_raises_before_anything_is_built():
    big = PermGroup.symmetric(10)
    with pytest.raises(hw.BudgetError) as capped:
        big.elements(cap=1000)
    assert (capped.value.consumed, capped.value.budget) == (3628800, 1000)
    assert big._table is None
    with pytest.raises(hw.BudgetError) as default:
        big.table()
    assert (default.value.consumed, default.value.budget) == (3628800, perms_module.DEFAULT_ELEMENT_CAP)
    small = PermGroup.symmetric(4)
    with pytest.raises(hw.BudgetError) as tight:
        small.elements(cap=23)
    assert (tight.value.consumed, tight.value.budget) == (24, 23)
    assert small.elements(cap=24) == _elements_bfs_oracle(small)
    # the cap limits materialization, so elements already built are returned
    assert small.elements(cap=1) is small.table().elements


def test_cli_import_does_not_load_scipy():
    src = str(Path(hw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, hurwitz.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_group_table_images_beyond_code_dtype():
    # three elements get uint16 codes, while their images reach point 65537
    images = list(range(70000))
    images[0], images[1], images[65537] = 1, 65537, 0
    table = PermGroup(70000, [Permutation(images)]).table()
    assert table.size == 3
    assert sorted(table.order_of.tolist()) == [1, 3, 3]


# ---------------------------------------------------------------------------
# SubgroupCloser


@pytest.mark.parametrize("name", ["s5", "pgl27", "h25_quotient"])
def test_can_reach_full_matches_bfs_oracle(name, request):
    table = _closure_table(name, request)
    rng = random.Random(29)
    ncls = len(table.class_codes)
    answers = set()
    for _ in range(40):
        closer = SubgroupCloser(table)
        gens = rng.sample(range(table.size), rng.randint(0, 2))
        sid = closer.trivial_id
        for g in gens:
            sid = closer.extend(sid, g)
        remaining = tuple(rng.choice(range(ncls)) for _ in range(rng.randint(0, 3)))
        codes = [int(c) for cid in set(remaining) for c in table.class_codes[cid]]
        expected = len(_closure_oracle(table, gens + codes)) == table.size
        assert closer.can_reach_full(sid, remaining) == expected
        answers.add(expected)
    assert answers == {False, True}


@pytest.mark.parametrize("name", ["s5", "pgl27"])
def test_subgroup_closer_double_coset_memo(name, request, monkeypatch):
    # one closure <H, c> answers extend(H, c') for every c' in HcH
    table = request.getfixturevalue(name).table()
    mul = table.mul
    calls = []
    closure_codes = hw.GroupTable.closure_codes
    monkeypatch.setattr(
        hw.GroupTable,
        "closure_codes",
        lambda self, *args, **kwargs: calls.append(1) or closure_codes(self, *args, **kwargs),
    )
    rng = random.Random(17)
    checked = 0
    for _ in range(25):
        closer = SubgroupCloser(table)
        sid = closer.trivial_id
        for g in rng.sample(range(table.size), rng.randint(0, 2)):
            sid = closer.extend(sid, g)
        h = tuple(sorted(closer._sets[sid]))
        c = rng.randrange(table.size)
        coset = {int(mul[mul[a, c], b]) for a in h for b in h}
        calls.clear()
        first = closer.extend(sid, c)
        assert len(calls) <= 1
        for c2 in sorted(coset):
            got = closer.extend(sid, c2)
            assert got == first
            assert tuple(sorted(closer._sets[got])) == closure_codes(table, list(h) + [c2])
        assert len(calls) <= 1
        checked += len(coset) > 1
    assert checked > 10

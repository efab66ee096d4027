"""Permutation arithmetic, stabilizer chains, classes, centralizers.

Expected values marked as derived below were computed by the independent
oracles in this file (brute-force partitions, element filters, matrix
arithmetic), not by the code under test.
"""

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
from hurwitz import PermGroup, Permutation, StabilizerChain, conjugate, orbit_partition

from conftest import class_by_type


def random_perm(rng, degree):
    img = list(range(degree))
    rng.shuffle(img)
    return Permutation(img)


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_simple():
    g = Permutation.from_cycles("(1 2)", 3)
    h = Permutation.from_cycles("(2 3)", 3)
    assert str(conjugate(g, h)) == "(1 3)"


def test_conjugate_identity():
    g = Permutation.from_cycles("(1 2 3)", 5)
    assert conjugate(g, Permutation.identity(5)) == g


def test_conjugate_five_cycle_by_transposition():
    # hand multiplication of (1 2)^-1 (1 2 3 4 5) (1 2) gives (1 3 4 5 2)
    g = Permutation.from_cycles("(1 2 3 4 5)", 5)
    h = Permutation.from_cycles("(1 2)", 5)
    assert str(conjugate(g, h)) == "(1 3 4 5 2)"


def test_conjugate_degree_mismatch():
    with pytest.raises(hw.InputError):
        conjugate(Permutation.identity(3), Permutation.identity(4))


def test_conjugation_is_an_action():
    rng = random.Random(11)
    for _ in range(200):
        g, h, k = (random_perm(rng, 6) for _ in range(3))
        assert conjugate(conjugate(g, h), k) == conjugate(g, h * k)


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
    for G in (s5, a5, pgl27):
        greedy = StabilizerChain(G.generators, G.degree, strategy="greedy").order()
        natural = StabilizerChain(G.generators, G.degree, strategy="natural").order()
        prefixed = StabilizerChain(
            G.generators, G.degree, base_prefix=(G.degree - 1, 0)
        ).order()
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


def test_pointwise_stabilizer_prefix(s6):
    chain = s6.chain(base_prefix=(0, 1), strategy="natural")
    stab_gens = chain.strong_generators(from_level=2)
    H = PermGroup(6, [Permutation(g) for g in stab_gens])
    assert H.order() == 24  # S4 on the remaining four points
    assert all(g.images[0] == 0 and g.images[1] == 1 for g in H.generators)


def test_normal_closure(s4):
    double = Permutation.from_cycles("(1 2)(3 4)", 4)
    v4 = s4.normal_closure([double])
    assert v4.order() == 4
    trans = Permutation.from_cycles("(1 2)", 4)
    assert s4.normal_closure([trans]).order() == 24


# ---------------------------------------------------------------------------
# the orbit primitive


def bfs_orbits_oracle(step, points):
    """Oracle: the per-point Python BFS loop that orbit_partition replaced."""
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


def test_orbit_partition_matches_bfs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(0, 4))
        m = int(rng.integers(1, 40))
        step = random_step(rng, k, m)
        got = [orbit.tolist() for orbit in orbit_partition(step)]
        assert got == bfs_orbits_oracle(step, range(m))
        assert all(orbit.dtype == np.int64 for orbit in orbit_partition(step))
        points = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        got = [orbit.tolist() for orbit in orbit_partition(step, points)]
        assert got == bfs_orbits_oracle(step, points.tolist())


def test_orbit_partition_edge_cases():
    empty = np.empty((0, 5), dtype=np.int64)
    assert [o.tolist() for o in orbit_partition(empty)] == [[0], [1], [2], [3], [4]]
    assert [o.tolist() for o in orbit_partition(empty, [3, 1, 3])] == [[1], [3]]
    assert [o.tolist() for o in orbit_partition(np.zeros((2, 1), dtype=np.int64))] == [[0]]
    # a listed subset returns whole orbits, ordered by least point
    step = np.array([[5, 1, 3, 2, 4, 0]])
    assert [o.tolist() for o in orbit_partition(step, [2, 5])] == [[0, 5], [2, 3]]


@pytest.mark.parametrize("name", ["s5", "pgl27"])
def test_closure_codes_matches_bfs_oracle(name, request):
    table = request.getfixturevalue(name).table()
    rng = random.Random(3)
    for _ in range(30):
        codes = rng.sample(range(table.size), rng.randint(0, 3))
        step = [table.mul[:, g] for g in codes]
        expected = bfs_orbits_oracle(step, [table.identity])[0]
        closed = table.closure_codes(codes)
        assert isinstance(closed, tuple)
        assert list(closed) == expected
    assert len(table.closure_codes([table.code(g) for g in table.group.generators])) == table.size


# ---------------------------------------------------------------------------
# GroupTable against the element-by-element build


def _table_oracle(group):
    """mul, inv, order_of, class_id and identity by dict lookups of image bytes."""
    elems = group.elements()
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
    for ci, c in enumerate(group.conjugacy_classes()):
        for g in c.elements:
            class_id[code_of[g.images]] = ci
    return {
        "mul": mul,
        "inv": inv,
        "order_of": order_of,
        "class_id": class_id,
        "identity": code_of[tuple(range(group.degree))],
    }


def assert_table_matches_oracle(group):
    table = hw.GroupTable(group)
    expected = _table_oracle(group)
    assert table.identity == expected.pop("identity")
    for name, want in expected.items():
        got = getattr(table, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("name", ["a5", "s4", "s5", "s6", "pgl27"])
def test_group_table_matches_oracle_on_bundled_groups(name, request):
    assert_table_matches_oracle(request.getfixturevalue(name))


@pytest.mark.parametrize("name", ["ext_2s5", "ext_2s5_alt", "ext_sl25", "ext_2pgl27", "ext_2s6"])
def test_group_table_matches_oracle_on_bundled_covers(name, request):
    assert_table_matches_oracle(request.getfixturevalue(name).cover_group)


def test_group_table_matches_oracle_on_random_groups():
    rng = random.Random(29)
    checked = 0
    while checked < 50:
        degree = rng.randint(1, 8)
        G = PermGroup(degree, [random_perm(rng, degree) for _ in range(rng.randint(1, 3))])
        if G.order() > 2000:
            continue
        assert_table_matches_oracle(G)
        checked += 1


@pytest.mark.parametrize(
    "group",
    [PermGroup.trivial(1), PermGroup.trivial(3), PermGroup.symmetric(1), PermGroup.symmetric(2)],
    ids=["trivial1", "trivial3", "S1", "S2"],
)
def test_group_table_with_empty_or_short_base(group):
    # the trivial groups have an empty chain base, so every gather has no levels
    assert_table_matches_oracle(group)


def test_group_table_missing_element_is_internal_error():
    G = PermGroup.symmetric(4)
    elems = G.elements()
    G._elements = tuple(g for g in elems if g != elems[5])
    with pytest.raises(hw.InternalCheckError):
        hw.GroupTable(G)


def test_cli_import_does_not_load_scipy():
    src = str(Path(hw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, hurwitz.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

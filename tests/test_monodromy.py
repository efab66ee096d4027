"""Braid orbits, monodromy groups, fullness, quasi-fullness, reports."""

import json
import random
from math import factorial

import numpy as np
import pytest

import hurwitz as hw
from hurwitz import PermGroup, Permutation
from hurwitz import monodromy as monodromy_module
from hurwitz import perms as perms_module
from hurwitz.monodromy import (
    MonodromyReport,
    OrbitPartition,
    OrbitVerdict,
    _block_system,
    _is_transitive,
    _restriction_perms,
    braid_orbits,
    conway_parker_report,
    cross_check_braid_orbits,
    decimal_digits,
    fiber_generator_arrays,
    full_by_order,
    fullness_by_jordan_witness,
    mass_report,
    monodromy_group,
)

from _chain_oracle import ChainOracle
from conftest import class_by_type, parse_digits, random_perm


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
    assert [v.route for v in rep.per_orbit] == ["jordan"]


def test_contrasting_pair_exact_orders(contrasting_pair):
    r221 = contrasting_pair["221"]["report"]
    assert r221.fiber_size == 125
    assert r221.group_order == factorial(125)
    assert r221.quasi_full
    # S125 by witness; 125! is also the order the chain computes (about 60 s)
    assert [v.route for v in r221.per_orbit] == ["jordan"]
    r212 = contrasting_pair["212"]["report"]
    assert r212.fiber_size == 170
    assert r212.group_order == 2 * factorial(85) ** 2
    assert not r212.per_orbit[0].full
    blocks = r212.per_orbit[0].blocks
    assert blocks is not None
    assert len(blocks) == 2 and all(len(b) == 85 for b in blocks)
    assert not r212.quasi_full
    assert [v.route for v in r212.per_orbit] == ["chain"]  # imprimitive


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


def test_jordan_witness_rejects_intransitive_input():
    # S5 x S7 on 5 + 7 points: every point moves, the group is not transitive
    gens = [
        Permutation.from_cycles("(1 2)", 12),
        Permutation.from_cycles("(1 2 3 4 5)", 12),
        Permutation.from_cycles("(6 7)", 12),
        Permutation.from_cycles("(6 7 8 9 10 11 12)", 12),
    ]
    assert len({p for g in gens for p in g.moved_points()}) == 12
    assert fullness_by_jordan_witness(gens, 12) is False
    # even when told the action is primitive, transitivity is checked itself
    assert fullness_by_jordan_witness(gens, 12, primitive=True) is False


def _restriction_perms_oracle(arrays, points):
    """Oracle: each array restricted to the points through a dict of their
    places, one point at a time."""
    pos = {p: i for i, p in enumerate(points)}
    return [Permutation(pos[int(arr[p])] for p in points) for arr in arrays]


def test_restriction_perms_match_oracle(a5_n5):
    arrays = a5_n5["arrays"]
    for members in a5_n5["orbits"].orbit_members:
        got = _restriction_perms(arrays, members)
        assert got == _restriction_perms_oracle(arrays, members)
        assert all(type(x) is int for g in got for x in g.images)
    # no generators: nothing to restrict
    assert _restriction_perms([], (0, 1)) == []


def test_is_transitive():
    # S5 x S7 on 5 + 7 points moves every point from two orbits
    product = [Permutation.from_cycles(c, 12) for c in ("(1 2 3 4 5)", "(6 7 8 9 10 11 12)")]
    assert not _is_transitive(product, 12)
    assert _is_transitive(product + [Permutation.from_cycles("(5 6)", 12)], 12)
    # no generators: transitive on one point only
    assert _is_transitive([], 1)
    assert not _is_transitive([], 3)
    # point 0 fixed by every generator, the rest one orbit
    assert not _is_transitive([Permutation.from_cycles("(2 3 4)", 4)], 4)


# ---------------------------------------------------------------------------
# primitivity by suborbits


def _block_system_oracle(perms, size):
    """Oracle: the minimal-block refinement seeded with every pair (0, b) in
    turn; the first proper nontrivial system, as a tuple of sorted blocks."""
    if size <= 2:
        return None
    for b in range(1, size):
        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx == ry:
                return None
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            return (rx, ry)

        stack = [(0, b)]
        union(0, b)
        while stack:
            x, y = stack.pop()
            for g in perms:
                merged = union(g.images[x], g.images[y])
                if merged:
                    stack.append(merged)
        roots = {}
        for x in range(size):
            roots.setdefault(find(x), []).append(x)
        blocks = sorted(roots.values())
        if 1 < len(blocks) < size:
            return tuple(tuple(blk) for blk in blocks)
    return None


def _assert_blocks_match_oracle(perms, size, monkeypatch):
    """_block_system equals the oracle under five sampling seeds; the
    oracle's answer."""
    want = _block_system_oracle(perms, size)
    for seed in range(5):
        monkeypatch.setattr(monodromy_module, "_SUBORBIT_SEED", seed)
        assert _block_system(perms, size) == want, seed
    return want


def _relabeled(gens, rng):
    """The generators conjugated by a random relabeling of their points."""
    n = len(gens[0].images)
    relabel = list(range(n))
    rng.shuffle(relabel)
    out = []
    for g in gens:
        images = [0] * n
        for x, y in enumerate(g.images):
            images[relabel[x]] = relabel[y]
        out.append(Permutation(images))
    return out


def _shape(blocks):
    """(number of blocks, block size), or None for a primitive action."""
    return None if blocks is None else (len(blocks), len(blocks[0]))


def _cycle(points, n):
    images = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return Permutation(images)


def _wreath_sym_sym(m, k):
    """S_m wr S_k on blocks {i*m, ..., i*m + m - 1}, i < k."""
    n = m * k
    within = [_cycle([0, 1], n), _cycle(list(range(m)), n)]
    across = [
        Permutation([(x + m) % (2 * m) if x < 2 * m else x for x in range(n)]),
        Permutation([(x + m) % n for x in range(n)]),
    ]
    return within + across


def _wreath_c2_alt(b):
    """C2 wr A_b on the pairs {i, i + b}, A_b acting on both copies alike."""
    n = 2 * b
    diagonal = [list(range(3)), list(range(b)) if b % 2 else list(range(1, b))]
    gens = [_cycle([0, b], n)]
    for cyc in diagonal:
        images = list(range(n))
        for a, c in zip(cyc, cyc[1:] + cyc[:1]):
            images[a], images[a + b] = c, c + b
        gens.append(Permutation(images))
    return gens


def test_blocks_match_oracle_on_wreath_products(monkeypatch):
    rng = random.Random(55)
    for m, k in ((2, 2), (3, 2), (2, 5), (5, 3), (4, 4), (6, 10), (12, 5), (2, 30)):
        gens = _relabeled(_wreath_sym_sym(m, k), rng)
        assert _assert_blocks_match_oracle(gens, m * k, monkeypatch) is not None, (m, k)
    for b in (3, 4, 5, 6, 11, 20, 30):
        gens = _relabeled(_wreath_c2_alt(b), rng)
        assert PermGroup(2 * b, gens).order() == 2**b * factorial(b) // 2
        assert _assert_blocks_match_oracle(gens, 2 * b, monkeypatch) is not None, b


def test_blocks_match_oracle_on_random_imprimitive_generators(monkeypatch):
    """Random generators that permute the blocks of a random partition into
    equal parts, with random bijections between the blocks; with them,
    random generators on up to 40 points."""
    rng = random.Random(2003)
    imprimitive = 0
    for _ in range(120):
        count, width = rng.randint(2, 8), rng.randint(2, 6)
        n = count * width
        points = list(range(n))
        rng.shuffle(points)
        blocks = [points[i * width : (i + 1) * width] for i in range(count)]
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = [0] * n
            for blk, target in zip(blocks, rng.sample(blocks, count)):
                for x, y in zip(blk, rng.sample(target, width)):
                    images[x] = y
            gens.append(Permutation(images))
        imprimitive += _assert_blocks_match_oracle(gens, n, monkeypatch) is not None
    assert imprimitive >= 100
    for _ in range(40):
        n = rng.randint(3, 40)
        _assert_blocks_match_oracle([random_perm(rng, n) for _ in range(rng.randint(1, 3))], n, monkeypatch)


def test_blocks_match_oracle_on_bundled_orbits(a5_n4, a5_n5, contrasting_pair, monkeypatch):
    orbits = [(case["arrays"], m) for case in (a5_n4, a5_n5) for m in case["orbits"].orbit_members]
    for key in ("212", "221"):
        fiber = contrasting_pair[key]["fiber"]
        arrays = fiber_generator_arrays(fiber)[1]
        orbits += [(arrays, m) for m in braid_orbits(fiber, arrays).orbit_members]
    shapes = []
    for arrays, members in orbits:
        perms = _restriction_perms(arrays, members)
        blocks = _assert_blocks_match_oracle(perms, len(members), monkeypatch)
        shapes.append((len(members), _shape(blocks)))
    # a5_c3_n4 inn, a5_c3_n5 inn, s5_212 and s5_221 aut
    assert shapes == [(18, (9, 2)), (252, (126, 2)), (432, (216, 2)), (170, (2, 85)), (125, None)]


def test_blocks_match_oracle_on_cyclic_actions(monkeypatch):
    # one generator: G_0 is trivial, every suborbit is one point, and the
    # Schreier tree is one path of n - 1 edges
    rng = random.Random(97)
    for n in (12, 30, 97):
        points = list(range(n))
        rng.shuffle(points)
        blocks = _assert_blocks_match_oracle([_cycle(points, n)], n, monkeypatch)
        assert (blocks is None) == (n == 97), n  # primitive exactly at a prime


def test_blocks_match_oracle_on_intransitive_and_tiny_inputs(monkeypatch):
    rng = random.Random(5)
    cycles = ("(1 2)", "(1 2 3 4 5)", "(6 7)", "(6 7 8 9 10 11 12)")
    product = [Permutation.from_cycles(c, 12) for c in cycles]
    assert _assert_blocks_match_oracle(product, 12, monkeypatch) is not None
    # point 0 fixed by every generator: the tree is the root alone
    fixed = [Permutation.from_cycles(c, 9) for c in ("(2 3 4)", "(5 6)(7 8 9)")]
    assert _assert_blocks_match_oracle(fixed, 9, monkeypatch) is not None
    for _ in range(30):
        n = rng.randint(3, 16)
        gens = [Permutation(range(n))] * rng.randint(0, 1)
        gens += [_cycle(rng.sample(range(n), rng.randint(2, n - 1)), n) for _ in range(rng.randint(1, 3))]
        _assert_blocks_match_oracle(gens, n, monkeypatch)
    # no generators, and sizes of at most two
    assert _assert_blocks_match_oracle([], 5, monkeypatch) == ((0, 1), (2,), (3,), (4,))
    for size in (0, 1, 2):
        assert _assert_blocks_match_oracle([Permutation(range(size))], size, monkeypatch) is None
        assert _block_system([], size) is None


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


class _FakeFiber:
    """The parts of a Fiber that monodromy_group reads, for bare generators."""

    mode = "inn"

    def __init__(self, n):
        self.rows = np.zeros((n, 1), dtype=np.int64)

    def __len__(self):
        return len(self.rows)


def _count_chains(monkeypatch):
    """Count StabilizerChain builds from here on; returns the counter list."""
    built = []
    real = perms_module.StabilizerChain

    def counting(*args, **kwargs):
        built.append(args[1])  # the degree
        return real(*args, **kwargs)

    monkeypatch.setattr(perms_module, "StabilizerChain", counting)
    return built


def _monodromy_counting_chains(gens, monkeypatch):
    """monodromy_group on bare generators, and the degrees of the chains it built."""
    arrays = [np.array(g.images) for g in gens]
    built = _count_chains(monkeypatch)
    rep = monodromy_group(_FakeFiber(len(arrays[0])), gen_arrays=arrays)
    monkeypatch.undo()
    return arrays, rep, built


def test_quasi_fullness_synthetic(monkeypatch):
    A5 = PermGroup.from_cycles(5, ["(1 2 3)", "(3 4 5)"])
    # equal degrees: no shortcut, one chain on all 10 points decides
    arrays, diag, built = _monodromy_counting_chains(_diagonal_action(A5.generators, 5), monkeypatch)
    assert all(v.full for v in diag.per_orbit)  # each orbit restriction is Alt(5)
    assert not diag.quasi_full  # but the diagonal is far from Alt x Alt
    assert diag.group_order == 60
    assert built.count(10) == 1
    _assert_routes_agree(arrays, diag)

    arrays, product, built = _monodromy_counting_chains(_product_action(A5.generators, 5), monkeypatch)
    assert all(v.full for v in product.per_orbit)
    assert product.quasi_full
    assert product.group_order == 60 * 60
    assert built.count(10) == 1
    _assert_routes_agree(arrays, product)


def test_a20_diagonal_and_product_take_one_fiber_chain(monkeypatch):
    A20 = PermGroup.alternating(20)
    for action, quasi, order in (
        (_diagonal_action, False, factorial(20) // 2),
        (_product_action, True, (factorial(20) // 2) ** 2),
    ):
        arrays, rep, built = _monodromy_counting_chains(action(A20.generators, 20), monkeypatch)
        assert [(v.size, v.route, v.full) for v in rep.per_orbit] == [(20, "jordan", True)] * 2
        assert rep.quasi_full == quasi
        assert rep.group_order == order
        assert built.count(40) == 1
        _assert_routes_agree(arrays, rep)


def test_quasi_fullness_ignores_orbits_of_size_at_most_two():
    # Alt(X) is trivial on them; neither route may ask them for a stabilizer
    A5 = PermGroup.from_cycles(5, ["(1 2 3)", "(3 4 5)"])
    product_and_fixed_point = [
        Permutation(list(g.images) + [10]) for g in _product_action(A5.generators, 5)
    ]
    s5_with_sign = [
        Permutation.from_cycles("(1 2 3 4 5)", 7),
        Permutation.from_cycles("(1 2)(6 7)", 7),  # 6 and 7 swap only with odd elements
    ]
    for gens, sizes, order in (
        (product_and_fixed_point, [5, 5, 1], 60 * 60),
        (s5_with_sign, [5, 2], 120),
    ):
        arrays = [np.array(g.images) for g in gens]
        rep = _assert_routes_agree(arrays)
        assert sorted(v.size for v in rep.per_orbit) == sorted(sizes)
        assert rep.quasi_full
        assert rep.group_order == order


def _quasi_full_by_base_prefix(arrays, members):
    """Quasi-fullness of an action whose orbits are each full, by chains
    whose base runs through all other orbits first.

    The pointwise stabilizer of all other orbits must restrict onto at
    least the alternating group of each orbit of size >= 3; Alt(X) is
    trivial on smaller orbits, which need nothing.
    """
    n = len(arrays[0])
    gens = [tuple(int(x) for x in a) for a in arrays]
    for i, orbit in enumerate(members):
        m = len(orbit)
        if m <= 2:
            continue
        others = tuple(p for j, o in enumerate(members) if j != i for p in o)
        chain = ChainOracle(gens, n, base_prefix=others, strategy="natural")
        stab_gens = chain.strong_generators(from_level=len(others))
        restricted = _restriction_perms([np.array(g, dtype=np.int64) for g in stab_gens], orbit)
        if ChainOracle(restricted, m).order() < factorial(m) // 2:
            return False
    return True


def _chain_oracle(arrays):
    """Orders and verdicts by stabilizer chains alone, quasi-fullness by
    the pointwise stabilizers of the other orbits."""
    n = len(arrays[0])
    orbits = braid_orbits(_FakeFiber(n), arrays)
    group = PermGroup(n, [Permutation(int(x) for x in a) for a in arrays])
    per_orbit = []
    for members in orbits.orbit_members:
        perms = _restriction_perms(arrays, members)
        order = PermGroup(len(members), perms).order()
        full = full_by_order(len(members), order)
        blocks = None if full else _block_system_oracle(perms, len(members))
        per_orbit.append((len(members), order, full, blocks))
    quasi = all(v[2] for v in per_orbit) and (
        len(per_orbit) <= 1 or _quasi_full_by_base_prefix(arrays, orbits.orbit_members)
    )
    return group.order(), per_orbit, quasi


def _assert_routes_agree(arrays, report=None):
    """monodromy_group (witness first) against the chain oracle; the report."""
    if report is None:
        report = monodromy_group(_FakeFiber(len(arrays[0])), gen_arrays=list(arrays))
    order, per_orbit, quasi = _chain_oracle(arrays)
    got = [(v.size, v.group_order, v.full, v.blocks) for v in report.per_orbit]
    assert got == per_orbit
    assert report.group_order == order
    assert report.quasi_full == quasi
    return report


def test_routes_agree_on_fixtures(h25_data, a5, a5_n4):
    for fiber in (h25_data["fiber_inn"], h25_data["fiber_aut"]):
        rep = _assert_routes_agree(fiber_generator_arrays(fiber)[1])
        assert [v.route for v in rep.per_orbit] == ["jordan"]
    _assert_routes_agree(a5_n4["arrays"])  # 18 points, imprimitive
    five = [c for c in a5.conjugacy_classes() if c.cycle_type() == (5,)]
    routes = set()
    # the two A5 classes of 5-cycles: orbits 30 + 40, 2 + 5, 10 and 4
    for classes, nu in ((five, [2, 3]), (five, [2, 2]), (five[:1], [4]), (five, [1, 3])):
        fiber = hw.build_fiber(hw.validate_parameter(a5, classes, nu), "inn")
        rep = _assert_routes_agree(fiber_generator_arrays(fiber)[1])
        routes.update(v.route for v in rep.per_orbit)
    assert routes == {"jordan", "chain"}


def _random_arrays(rng):
    """Generators on 5-12 points: random, identity, copied (diagonal) or
    sparse actions on the parts of a random partition, points shuffled.
    Half the partitions of 10-12 points are two parts of size >= 5."""
    n = rng.randint(5, 12)
    if n >= 10 and rng.random() < 0.5:
        first = rng.randint(5, n - 5)
        sizes = [first, n - first]
    else:
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, 2)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    points = list(range(n))
    rng.shuffle(points)
    parts, start = [], 0
    for size in sizes:
        parts.append(points[start : start + size])
        start += size
    arrays = []
    for _ in range(rng.randint(2, 3)):
        images = list(range(n))
        actions = []
        for part in parts:
            twins = [a for q, a in actions if len(q) == len(part)]
            kind = rng.random()
            if kind < 0.2 and twins:
                local = rng.choice(twins)
            elif kind < 0.3:
                local = list(range(len(part)))
            elif kind < 0.4 and len(part) >= 2:
                local = list(range(len(part)))
                i, j = rng.sample(range(len(part)), 2)
                local[i], local[j] = local[j], local[i]
            else:
                local = rng.sample(range(len(part)), len(part))
            actions.append((part, local))
            for x, y in enumerate(local):
                images[part[x]] = part[y]
        arrays.append(np.array(images, dtype=np.int64))
    return arrays


def test_routes_agree_on_random_generator_sets():
    rng = random.Random(20141)
    routes = set()
    shortcut = equal_degrees = 0
    for _ in range(300):
        arrays = _random_arrays(rng)
        rep = _assert_routes_agree(arrays)
        routes.update(v.route for v in rep.per_orbit)
        degrees = [v.size for v in rep.per_orbit if v.size >= 3]
        if rep.quasi_full and len(degrees) >= 2:
            if min(degrees) >= 5 and len(set(degrees)) == len(degrees):
                shortcut += 1
            else:
                equal_degrees += 1
    # every route was taken
    assert routes == {"jordan", "chain"}
    assert shortcut and equal_degrees


def test_distinct_degree_product_quasi_full_without_chain(monkeypatch):
    # A5 on 5 points x A7 on 7 points, plus odd generators
    even = [
        Permutation.from_cycles("(1 2 3)", 12),
        Permutation.from_cycles("(3 4 5)", 12),
        Permutation.from_cycles("(6 7 8)", 12),
        Permutation.from_cycles("(8 9 10 11 12)", 12),
    ]
    both_odd = Permutation.from_cycles("(1 2)(6 7)", 12)
    first_odd = Permutation.from_cycles("(4 5)", 12)
    alt = factorial(5) // 2 * factorial(7) // 2
    for gens, rank in ((even + [both_odd], 1), (even + [both_odd, first_odd], 2)):
        arrays, rep, built = _monodromy_counting_chains(gens, monkeypatch)
        assert not built
        assert [(v.size, v.route, v.full) for v in rep.per_orbit] == [
            (5, "jordan", True),
            (7, "jordan", True),
        ]
        assert rep.quasi_full
        assert rep.group_order == alt * 2**rank
        _assert_routes_agree(arrays, rep)


def test_four_point_orbit_takes_chain_route(monkeypatch):
    # S4 on 4 points x S5 on 5 points
    gens = [
        Permutation.from_cycles("(1 2)", 9),
        Permutation.from_cycles("(1 2 3 4)", 9),
        Permutation.from_cycles("(5 6)", 9),
        Permutation.from_cycles("(5 6 7 8 9)", 9),
    ]
    arrays, rep, built = _monodromy_counting_chains(gens, monkeypatch)
    assert [(v.size, v.route) for v in rep.per_orbit] == [(4, "chain"), (5, "jordan")]
    assert rep.quasi_full
    assert built.count(9) == 1  # the order came from one chain on all 9 points
    assert rep.group_order == factorial(4) * factorial(5)
    _assert_routes_agree(arrays, rep)


def test_single_full_orbit_quasi_full(h25_data):
    assert h25_data["report"].quasi_full


def test_jordan_orbits_build_no_whole_fiber_group(h25_data, monkeypatch):
    # every h25 orbit goes by the Jordan route, so neither quasi-fullness
    # nor the order needs the group on the whole fiber
    built = []

    class CountingPermGroup(PermGroup):
        def __init__(self, degree, generators, name=None):
            built.append(degree)
            super().__init__(degree, generators, name)

    monkeypatch.setattr(monodromy_module, "PermGroup", CountingPermGroup)
    for fiber in (h25_data["fiber_inn"], h25_data["fiber_aut"]):
        rep = monodromy_group(fiber)
        assert [v.route for v in rep.per_orbit] == ["jordan"]
    assert rep.to_json_dict() == h25_data["report"].to_json_dict()
    assert not built


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


def test_cross_check_honours_zero_budget(h25):
    with pytest.raises(hw.BudgetError):
        hw.enumerate_tuples(h25, budget=0)
    with pytest.raises(hw.BudgetError):
        cross_check_braid_orbits(h25, budget=0)


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


# ---------------------------------------------------------------------------
# orders beyond the interpreter's int-to-str digit limit


def test_decimal_at_the_piece_boundaries():
    for n in (0, 7, 10**4000 - 1, 10**4000, 10**4000 + 1, 10**8001 + 5 * 10**4000):
        digits = decimal_digits(n)
        assert digits == "0" or digits[0] != "0"
        assert parse_digits(digits) == n


def test_report_prints_a_full_1600_point_orbit():
    # 1600!/2 has 4,434 digits, beyond the default limit of 4,300
    size = 1600
    order = factorial(size) // 2
    orbits = OrbitPartition(np.zeros(size, dtype=np.int64), (size,), (tuple(range(size)),))
    report = MonodromyReport(
        fiber_size=size,
        mode="aut",
        generator_names=("g",),
        generators=(np.arange(size),),
        group_order=order,
        orbits=orbits,
        per_orbit=(OrbitVerdict(size=size, group_order=order, full=True, route="jordan"),),
        quasi_full=True,
    )
    out = json.loads(json.dumps(report.to_json_dict()))
    for digits in (out["group_order"], out["per_orbit"][0]["order"]):
        assert len(digits) == 4434
        assert parse_digits(digits) == order

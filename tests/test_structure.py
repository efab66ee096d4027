"""Ambiguity, pseudosimplicity, rationality, automorphism groups."""

import random
from types import SimpleNamespace

import numpy as np
import pytest

import hurwitz as hw
from hurwitz import PermGroup, Permutation
from hurwitz import structure
from hurwitz.structure import (
    _FINGERPRINT_WORDS,
    _hom_closure,
    _pruned_product,
    _word_order,
    minimal_generating_sequence,
)

from conftest import class_by_type, cover_group, random_groups, row_keys


# ---------------------------------------------------------------------------
# ambiguity


def derived_orbits_oracle(group, conj_class):
    """Oracle: orbit partition of the class under conjugation by every
    element of the derived subgroup, with raw permutation arithmetic."""
    derived_elements = list(group.derived_subgroup().elements())
    remaining = set(conj_class.elements)
    orbits = []
    while remaining:
        g = min(remaining)
        orbit = {h.inverse() * g * h for h in derived_elements}
        remaining -= orbit
        orbits.append(orbit)
    return orbits


def test_s5_c5_ambiguous(s5):
    c5 = class_by_type(s5, (5,))
    assert hw.is_ambiguous(s5, c5)
    assert len(derived_orbits_oracle(s5, c5)) == 2


def test_s5_c2111_unambiguous(s5):
    c = class_by_type(s5, (2, 1, 1, 1))
    assert not hw.is_ambiguous(s5, c)
    assert len(derived_orbits_oracle(s5, c)) == 1


def test_pgl27_order7_ambiguous(pgl27):
    sevens = [c for c in pgl27.conjugacy_classes() if c.order() == 7]
    assert sevens
    assert all(hw.is_ambiguous(pgl27, c) for c in sevens)


def test_ambiguity_equals_centralizer_surjectivity(s5, s6, pgl27):
    # a class is unambiguous exactly when the centralizer of a representative
    # surjects onto the abelianization
    for G in (s5, s6, pgl27):
        for c in G.conjugacy_classes():
            assert hw.is_ambiguous(G, c) == (
                not hw.centralizer_covers_abelianization(G, c)
            )


def test_derived_orbit_count_matches_oracle(s5):
    for c in s5.conjugacy_classes():
        assert hw.derived_orbit_count(s5, c) == len(derived_orbits_oracle(s5, c))


# ---------------------------------------------------------------------------
# pseudosimplicity


def test_s5_pseudosimple(s5):
    v = hw.is_pseudosimple(s5)
    assert v.pseudosimple
    assert v.simple_factor_count == 1


def test_a5_pseudosimple(a5):
    v = hw.is_pseudosimple(a5)
    assert v.pseudosimple
    assert v.simple_factor_count == 1


def test_s6_pgl27_pseudosimple(s6, pgl27):
    assert hw.is_pseudosimple(s6).pseudosimple
    assert hw.is_pseudosimple(pgl27).pseudosimple


def test_s4_not_pseudosimple(s4):
    # the normal closure of the double-transposition class is the Klein four
    # group, giving the nonabelian quotient S3
    v = hw.is_pseudosimple(s4)
    assert not v.pseudosimple
    assert v.reason == "nonabelian proper quotient"
    closure = s4.normal_closure([Permutation.from_cycles("(1 2)(3 4)", 4)])
    assert closure.order() == 4


def test_group_with_center_not_pseudosimple():
    # C2 acting on 2 points has a center
    G = PermGroup.from_cycles(2, ["(1 2)"])
    assert hw.is_pseudosimple(G).reason == "center nontrivial"


def test_abelian_derived_group_reason():
    S3 = PermGroup.symmetric(3)
    v = hw.is_pseudosimple(S3)
    assert not v.pseudosimple
    assert v.reason == "derived group abelian"


def _is_nonabelian_simple_oracle(group):
    """Simplicity test by class-based normal closures; desk scale."""
    if group.is_abelian():
        return False
    if not group.is_perfect():
        return False
    full = group.order()
    for c in group.conjugacy_classes():
        if c.representative.is_identity():
            continue
        if group.normal_closure([c.representative]).order() != full:
            return False
    return True


def _is_pseudosimple_oracle(group):
    """Oracle: the chain-route verdict, checking every condition of the
    definition directly.  Trivial center; every nontrivial quotient abelian
    (normal closure of each nontrivial class contains the derived group);
    the derived group nonabelian, perfect, and the join of its minimal
    normal subgroups, all simple, permuted transitively by the group."""
    not_power = "derived group not perfect-power-of-simple"
    if group.center().order() > 1:
        return structure.StructureVerdict(False, reason="center nontrivial")
    derived = group.derived_subgroup()
    if derived.is_abelian():
        return structure.StructureVerdict(False, reason="derived group abelian")
    dorder = derived.order()
    for c in group.conjugacy_classes():
        if c.representative.is_identity():
            continue
        closure = group.normal_closure([c.representative])
        if not all(g in closure for g in derived.generators):
            return structure.StructureVerdict(False, reason="nonabelian proper quotient")
    if not derived.is_perfect():
        return structure.StructureVerdict(False, reason=not_power)
    closures = []
    for c in derived.conjugacy_classes():
        if c.representative.is_identity():
            continue
        n = derived.normal_closure([c.representative])
        closures.append(derived if n.order() == dorder else n)
    minimal = []
    for n in closures:
        if any(other.order() < n.order() and other.is_subgroup_of(n) for other in closures):
            continue
        if any(m.equals(n) for m in minimal):
            continue
        minimal.append(n)
    if not minimal:
        return structure.StructureVerdict(False, reason=not_power)
    sizes = {m.order() for m in minimal}
    if len(sizes) != 1 or not all(_is_nonabelian_simple_oracle(m) for m in minimal):
        return structure.StructureVerdict(False, reason=not_power)
    w = len(minimal)
    joint = derived.subgroup([g for m in minimal for g in m.generators])
    if joint.order() != dorder or dorder != minimal[0].order() ** w:
        return structure.StructureVerdict(False, reason=not_power)
    if w > 1:
        # the group must permute the simple factors transitively
        factor_sets = [frozenset(g.images for g in m.elements()) for m in minimal]
        index = {fs: i for i, fs in enumerate(factor_sets)}
        reached = {0}
        frontier = [0]
        while frontier:
            new = []
            for fi in frontier:
                for g in group.generators:
                    moved = frozenset(
                        Permutation(images).conjugate_by(g).images for images in factor_sets[fi]
                    )
                    j = index.get(moved)
                    if j is None:
                        return structure.StructureVerdict(False, reason=not_power)
                    if j not in reached:
                        reached.add(j)
                        new.append(j)
            frontier = new
        if len(reached) != w:
            return structure.StructureVerdict(False, reason=not_power)
    return structure.StructureVerdict(True, simple_factor_count=w)


def _assert_pseudosimple_matches_oracle(group):
    assert hw.is_pseudosimple(group) == _is_pseudosimple_oracle(group)


@pytest.mark.parametrize(
    "name",
    ["a5", "s4", "s5", "s6", "pgl27", "ext_2s5", "ext_2s5_alt", "ext_sl25", "ext_2pgl27", "ext_2s6"],
)
def test_pseudosimple_matches_oracle_on_bundled_groups(name, request):
    group = request.getfixturevalue(name)
    if name.startswith("ext_"):
        group = cover_group(group)
    _assert_pseudosimple_matches_oracle(group)


def test_pseudosimple_matches_oracle_on_small_groups():
    s3 = PermGroup.symmetric(3)
    c2_s3 = PermGroup.from_cycles(5, ["(1 2)", "(3 4 5)", "(3 4)"])
    for group in [s3, c2_s3, *random_groups()]:
        _assert_pseudosimple_matches_oracle(group)


def test_pseudosimple_wreath_product_has_two_factors():
    # A5 wr C2 on 10 points: the derived group A5 x A5, whose two factors
    # the swap exchanges
    G = PermGroup.from_cycles(10, ["(1 2 3)", "(1 2 3 4 5)", "(1 6)(2 7)(3 8)(4 9)(5 10)"])
    v = hw.is_pseudosimple(G)
    assert v == structure.StructureVerdict(True, simple_factor_count=2)
    assert v == _is_pseudosimple_oracle(G)


def test_pseudosimple_builds_no_chain_and_no_other_table(s6, monkeypatch):
    # S6's own table, and the chain that builds it, exist before the check
    s6.table()
    built = []
    for cls in (hw.StabilizerChain, hw.GroupTable):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__", lambda self, *a, _init=init, **k: built.append(type(self)) or _init(self, *a, **k)
        )
    assert hw.is_pseudosimple(s6) == structure.StructureVerdict(True, simple_factor_count=1)
    assert built == []


# ---------------------------------------------------------------------------
# rationality


def test_s5_all_classes_rational(s5):
    assert all(hw.is_rational_class(s5, c) for c in s5.conjugacy_classes())


def test_a5_five_cycles_irrational(a5):
    fives = [c for c in a5.conjugacy_classes() if c.order() == 5]
    assert len(fives) == 2
    assert not any(hw.is_rational_class(a5, c) for c in fives)
    # squaring swaps the two classes
    rep = fives[0].representative
    assert rep**2 in fives[1]


def test_identity_class_rational(a5):
    ident = a5.class_of(Permutation.identity(5))
    assert hw.is_rational_class(a5, ident)


# ---------------------------------------------------------------------------
# automorphism groups


def hom_closure_oracle(table_g, table_h, gen_codes, image_codes):
    """Oracle: the element-by-element BFS that _hom_closure replaced."""
    fmap = np.full(table_g.size, -1, dtype=np.int64)
    fmap[table_g.identity] = table_h.identity
    frontier = [table_g.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, fg in zip(gen_codes, image_codes):
                y = int(table_g.mul[x, g])
                fy = int(table_h.mul[fmap[x], fg])
                if fmap[y] == -1:
                    fmap[y] = fy
                    new.append(y)
                elif fmap[y] != fy:
                    return None
        frontier = new
    return None if (fmap == -1).any() else fmap


def test_hom_closure_matches_loop_oracle(s5, a5):
    rng = random.Random(7)
    aut = hw.automorphism_group(s5)
    extended = []
    for source, target in ((s5, s5), (a5, s5), (s5, a5)):
        ts, tt = source.table(), target.table()
        for _ in range(60):
            gens = [rng.randrange(ts.size) for _ in range(rng.randint(0, 3))]
            images = [rng.randrange(tt.size) for _ in gens]
            if source is target and rng.random() < 0.5:
                # generating codes sent through an automorphism extend
                gens = [ts.code(g) for g in source.generators] + gens
                fmap = rng.choice(aut.maps).element_map
                images = [int(fmap[g]) for g in gens]
            got = _hom_closure(ts, tt, gens, images)
            want = hom_closure_oracle(ts, tt, gens, images)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
            extended.append(want is not None)
    assert any(extended) and not all(extended)


def test_aut_s5_all_inner(s5):
    aut = hw.automorphism_group(s5)
    assert len(aut.maps) == 120
    assert aut.inner_count == 120
    assert all(a.inner for a in aut.maps)


def test_aut_verify_rejects_non_bijective_map(s5):
    aut = hw.automorphism_group(s5)
    assert aut.verify()
    fmap = aut.maps[1].element_map.copy()
    fmap[1] = fmap[0]
    with pytest.raises(hw.InputError, match="not a bijection"):
        _bad_aut_group(aut, fmap).verify()


def _verify_all_products_oracle(aut):
    """Oracle: f(x*y) = f(x)*f(y) over the whole multiplication table, one
    map at a time."""
    mul = aut.table.mul
    for a in aut.maps:
        fmap = a.element_map
        if np.unique(fmap).size != aut.table.size:
            return False
        if not np.array_equal(fmap[mul], mul[np.ix_(fmap, fmap)]):
            return False
    return True


def _bad_aut_group(aut, fmap):
    a = aut.maps[1]
    bad = hw.Automorphism(aut.table, a.gen_images, fmap, a.inner)
    return hw.AutGroup(aut.table, [bad], aut.class_action[1:2], aut.inner_count)


def _swapped_images(aut):
    """A bijection that is no homomorphism: an automorphism with the images
    of two nonidentity elements exchanged."""
    fmap = aut.maps[1].element_map.copy()
    fmap[[1, 2]] = fmap[[2, 1]]
    return _bad_aut_group(aut, fmap)


def _shifted_coset(aut, i):
    """A bijection with f(x*g) = f(x)*f(g) for the generator g = gen_codes[i]
    and every x, but no homomorphism: the identity map, except y -> y*g on
    one left coset y<g> other than <g>.  It fixes more than half the group
    when |g| < |G|/2, so it is no automorphism."""
    table = aut.table
    g = table.gen_codes[i]
    cyclic = set(table.closure_codes([g]))
    x = next(c for c in range(table.size) if c not in cyclic)
    coset = [x]
    while int(table.mul[coset[-1], g]) != x:
        coset.append(int(table.mul[coset[-1], g]))
    fmap = np.arange(table.size, dtype=np.int64)
    fmap[coset] = table.mul[coset, g]
    return _bad_aut_group(aut, fmap)


def test_aut_s6_outer(s6):
    aut = hw.automorphism_group(s6)
    assert len(aut.maps) == 1440
    assert aut.inner_count == 720
    assert sum(1 for a in aut.maps if not a.inner) == 720
    aut.verify(full=True)


def test_aut_a5_is_s5(a5):
    aut = hw.automorphism_group(a5)
    assert len(aut.maps) == 120
    assert aut.inner_count == 60
    aut.verify(full=True)


@pytest.mark.parametrize("name", ["a5", "s5"])
def test_verify_generators_matches_all_products_oracle(name, request):
    aut = hw.automorphism_group(request.getfixturevalue(name))
    assert aut.verify(full=True)
    assert _verify_all_products_oracle(aut)
    gens = aut.table.gen_codes
    assert len(gens) > 1
    assert all(2 * aut.table.order_of[g] < aut.table.size for g in gens)
    for bad in [_swapped_images(aut)] + [_shifted_coset(aut, i) for i in range(len(gens))]:
        assert bad.verify()
        assert not _verify_all_products_oracle(bad)
        with pytest.raises(hw.InputError, match="not a homomorphism"):
            bad.verify(full=True)


def _isomorphisms_oracle(source, target):
    """Oracle: the exhaustive search that certifies every candidate by its
    own closure, with the same generators, pools and fingerprints."""
    if source.order() != target.order():
        return []
    ts = source.table()
    tt = target.table()
    gens = minimal_generating_sequence(source)
    gen_codes = [ts.code(g) for g in gens]
    pools = []
    for g in gens:
        key = (g.order(), source.class_of(g).size)
        pool = [
            x
            for c in target.conjugacy_classes()
            if (c.order(), c.size) == key
            for x in c.codes.tolist()
        ]
        if not pool:
            return []
        pools.append(pool)
    words_by_len = {}
    for word in _FINGERPRINT_WORDS:
        if max(word) < len(gens):
            words_by_len.setdefault(max(word) + 1, []).append(word)
    source_orders = {
        word: _word_order(ts, gen_codes, word)
        for words in words_by_len.values()
        for word in words
    }

    def consistent(prefix):
        return all(
            _word_order(tt, prefix, word) == source_orders[word]
            for word in words_by_len.get(len(prefix), ())
        )

    found = []
    for chosen in _pruned_product(pools, consistent):
        fmap = _hom_closure(ts, tt, gen_codes, chosen)
        if fmap is not None and np.unique(fmap).size == ts.size:
            found.append(fmap)
    return found


def _aut_fields_oracle(group, maps):
    """Per automorphism, sorted as `AutGroup.maps`: its element map's bytes,
    inner flag, class action and generator images, as the search over every
    map computed them."""
    table = group.table()
    inner = {table.inner_maps()[z].astype(np.int64).tobytes() for z in range(table.size)}
    rep_codes = [table.code(c.representative) for c in group.conjugacy_classes()]
    out = []
    for fmap in sorted(maps, key=lambda f: f.tobytes()):
        out.append((
            fmap.tobytes(),
            fmap.tobytes() in inner,
            tuple(int(table.class_id[int(fmap[rc])]) for rc in rep_codes),
            tuple(table.elements[int(fmap[c])] for c in table.gen_codes),
        ))
    return out


def _small_group(name):
    cycles = {
        "Q8": (8, ["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"]),
        "D8": (4, ["(1 2 3 4)", "(1 3)"]),
        "C2xC2": (4, ["(1 2)", "(3 4)"]),
        "C4": (4, ["(1 2 3 4)"]),
    }
    degree, gens = cycles[name]
    return PermGroup.from_cycles(degree, gens, name=name)


@pytest.mark.parametrize(
    "name, order, aut_order",
    [
        ("s4", 24, 24),
        ("s5", 120, 120),
        ("a5", 60, 120),
        ("s6", 720, 1440),
        ("pgl27", 336, 336),
        ("SL25", 120, 120),
        ("Q8", 8, 24),
        ("D8", 8, 8),
        ("C2xC2", 4, 6),
        ("C4", 4, 2),
    ],
)
def test_coset_search_matches_isomorphisms_oracle(name, order, aut_order, request):
    if name == "SL25":
        group = cover_group(request.getfixturevalue("ext_sl25"))
    elif name.islower():
        group = request.getfixturevalue(name)
    else:
        group = _small_group(name)
    assert group.order() == order
    want = _isomorphisms_oracle(group, group)
    got = structure.isomorphisms(group, group)
    assert len(want) == len(got) == aut_order
    as_bytes = {f.astype(np.int64).tobytes() for f in got}
    assert as_bytes == {f.tobytes() for f in want}
    aut = hw.automorphism_group(group)
    # element maps stay in the table's dtype; the oracle's are int64
    assert all(a.element_map.dtype == group.table().mul.dtype for a in aut.maps)
    assert [
        (a.element_map.astype(np.int64).tobytes(), a.inner, ca, tuple(a.gen_images))
        for a, ca in zip(aut.maps, aut.class_action)
    ] == _aut_fields_oracle(group, want)
    assert sum(a.inner for a in aut.maps) == aut.inner_count
    assert aut.verify(full=True)


def test_coset_search_between_relabeled_groups(a5):
    # A5 on the points 0..4 carried to other labels of 6 points
    relabel = [5, 2, 0, 4, 1]
    gens = []
    for g in a5.generators:
        images = list(range(6))
        for p in range(5):
            images[relabel[p]] = relabel[g(p)]
        gens.append(Permutation(images))
    a5_relabeled = PermGroup(6, gens)
    want = _isomorphisms_oracle(a5, a5_relabeled)
    got = structure.isomorphisms(a5, a5_relabeled)
    assert len(want) == len(got) == 120
    assert {f.astype(np.int64).tobytes() for f in got} == {f.tobytes() for f in want}
    # the first map found is the first candidate that closes, as before
    first = structure.isomorphisms(a5, a5_relabeled, find_all=False)
    assert len(first) == 1 and np.array_equal(first[0], want[0])


@pytest.mark.parametrize("name, closures", [("s6", 2), ("s5", 1), ("a5", 2)])
def test_coset_search_closure_count(name, closures, request, monkeypatch):
    group = request.getfixturevalue(name)
    calls = []
    closure = structure._hom_closure
    monkeypatch.setattr(
        structure, "_hom_closure", lambda *a: calls.append(1) or closure(*a)
    )
    maps = structure.isomorphisms(group, group)
    assert len(calls) == closures
    assert len(maps) == len(hw.automorphism_group(group).maps)


def test_aut_closed_under_composition(a5):
    aut = hw.automorphism_group(a5)
    maps = {a.element_map.tobytes() for a in aut.maps}
    rng_choices = [(0, 1), (3, 7), (10, 55), (119, 2), (60, 60)]
    for i, j in rng_choices:
        composed = aut.maps[j].element_map[aut.maps[i].element_map]
        assert composed.astype(aut.maps[0].element_map.dtype).tobytes() in maps
    for i in (0, 5, 77):
        fmap = aut.maps[i].element_map
        inv = np.empty_like(fmap)
        inv[fmap] = np.arange(len(fmap))
        assert inv.tobytes() in maps


def test_inner_maps_normal_in_aut(a5):
    aut = hw.automorphism_group(a5)
    inner = {a.element_map.tobytes() for a in aut.maps if a.inner}
    assert len(inner) == 60
    rng_pairs = [(0, 1), (7, 100), (50, 119), (99, 3)]
    for i, j in rng_pairs:
        if not aut.maps[i].inner:
            continue
        # conjugate an inner map by an arbitrary automorphism: still inner
        f = aut.maps[i].element_map
        g = aut.maps[j].element_map
        ginv = np.empty_like(g)
        ginv[g] = np.arange(len(g))
        conj = g[f[ginv]]
        assert conj.astype(f.dtype).tobytes() in inner


def test_element_cap_resource_error():
    big = PermGroup.symmetric(10)
    with pytest.raises(hw.BudgetError):
        big.elements(cap=1000)


def test_aut_outer_swaps_s6_transposition_class(s6):
    aut = hw.automorphism_group(s6)
    classes = s6.conjugacy_classes()
    t_idx = classes.index(class_by_type(s6, (2, 1, 1, 1, 1)))
    t3_idx = classes.index(class_by_type(s6, (2, 2, 2)))
    outer = [a_i for a_i, a in enumerate(aut.maps) if not a.inner]
    assert all(aut.class_action[i][t_idx] == t3_idx for i in outer)


def test_aut_fixing_classes_s6(s6):
    aut = hw.automorphism_group(s6)
    c2111 = class_by_type(s6, (2, 1, 1, 1, 1))
    c6 = class_by_type(s6, (6,))
    fixed = hw.aut_fixing_classes(aut, [c2111, c6])
    assert len(fixed.maps) == 720
    assert fixed.outer_order() == 1


def test_aut_fixing_classes_s5(s5):
    aut = hw.automorphism_group(s5)
    for c in s5.conjugacy_classes():
        assert len(hw.aut_fixing_classes(aut, [c]).maps) == 120


def test_aut_fixing_empty_list_is_whole_group(s6):
    aut = hw.automorphism_group(s6)
    assert len(hw.aut_fixing_classes(aut, []).maps) == 1440


def _generated_maps_oracle(gens):
    """Oracle: every product of the generator maps, by breadth-first search
    over map bytes."""
    identity = np.arange(gens.shape[1], dtype=gens.dtype)
    seen = {identity.tobytes()}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = g[x]
                if y.tobytes() not in seen:
                    seen.add(y.tobytes())
                    new.append(y)
        frontier = new
    return seen


@pytest.mark.parametrize(
    "name, types, outer",
    [
        ("a5", [(3, 1, 1)], 2),
        ("s6", [(4, 1, 1), (4, 2)], 2),
        ("s6", [(2, 1, 1, 1, 1)], 1),
        ("s5", [(2, 1, 1, 1)], 1),
        ("pgl27", [(3, 3, 1, 1)], 1),
        ("c2_cubed", [], 168),
    ],
)
def test_aut_generator_maps_generate_aut_fixing_classes(name, types, outer, request):
    if name == "c2_cubed":
        # elementary abelian: Inn is trivial and Aut is GL(3, 2)
        G = PermGroup.from_cycles(6, ["(1 2)", "(3 4)", "(5 6)"])
    else:
        G = request.getfixturevalue(name)
    aut = hw.aut_fixing_classes(hw.automorphism_group(G), [class_by_type(G, t) for t in types])
    assert aut.outer_order() == outer
    gens = hw.aut_generator_maps(aut)
    table = G.table()
    assert gens.dtype == table.mul.dtype
    assert _generated_maps_oracle(gens) == {row.tobytes() for row in aut.element_maps()}
    # the inner conjugations first; every outer map at least doubles the group
    inner = len(table.gen_codes)
    assert np.array_equal(gens[:inner], structure.conjugation_maps(table.mul, table.inv, table.gen_codes))
    assert 2 ** (len(gens) - inner) <= outer


def _aut_generator_maps_oracle(aut):
    """Oracle: `aut_generator_maps` with the maps ordered by a stable
    argsort of their generator images' row keys, and membership by a
    breadth-first orbit of the identity, level by level."""
    table = aut.table
    gens = np.asarray(table.gen_codes, dtype=np.int64)
    maps = aut.element_maps()
    images = maps[:, gens]
    order = np.argsort(row_keys(images, table.size), kind="stable")
    index = hw.perms.RowIndex(images[order], table.size)

    def after(g):
        return order[index.positions(g[images])]

    chosen = list(structure.conjugation_maps(table.mul, table.inv, gens))
    step = [after(g) for g in chosen]
    identity = order[index.positions(gens[None, :])]
    while True:
        inside = np.zeros(len(maps), dtype=bool)
        inside[identity] = True
        frontier = identity
        while frontier.size:
            reached = np.concatenate([s[frontier] for s in step])
            frontier = np.unique(reached[~inside[reached]])
            inside[frontier] = True
        outside = np.flatnonzero(~inside)
        if not len(outside):
            return np.reshape(chosen, (len(chosen), table.size)).astype(table.mul.dtype)
        chosen.append(maps[outside[0]])
        step.append(after(chosen[-1]))


def _gl42_aut():
    """Aut(C2^4) = GL(4, 2) on the table codes of C2^4 = <(1 2), (3 4),
    (5 6), (7 8)>, in the order of its matrices' columns; Inn is trivial."""
    group = PermGroup.from_cycles(8, ["(1 2)", "(3 4)", "(5 6)", "(7 8)"])
    table = group.table()
    bits = 1 << np.arange(4)
    vector_of = ((table.images[:, ::2] != np.arange(0, 8, 2)) * bits).sum(axis=1)
    code_of = np.argsort(vector_of)
    columns = np.array(np.meshgrid(*[np.arange(16)] * 4, indexing="ij")).reshape(4, -1).T
    # image of the vector v under the matrix: the XOR of the columns at v's bits
    on_vectors = np.zeros((len(columns), 16), dtype=np.int64)
    for i in range(4):
        on_vectors ^= np.where((np.arange(16) & bits[i]) != 0, columns[:, i : i + 1], 0)
    invertible = np.array([len(set(row)) == 16 for row in on_vectors.tolist()])
    maps = code_of[on_vectors[invertible][:, vector_of]].astype(table.mul.dtype)
    assert len(maps) == 20160
    return SimpleNamespace(table=table, element_maps=lambda: maps)


@pytest.mark.parametrize("name", ["s4", "s5", "s6", "pgl27", "c2_4"])
def test_aut_generator_maps_matches_oracle(name, request):
    if name == "c2_4":
        aut = _gl42_aut()
    else:
        aut = hw.automorphism_group(request.getfixturevalue(name))
    got = hw.aut_generator_maps(aut)
    want = _aut_generator_maps_oracle(aut)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if name == "c2_4":
        # Inn is trivial: one identity conjugation per generator, then the
        # outer maps, each at least doubling the group
        assert len(got) - len(aut.table.gen_codes) <= 14
        assert _generated_maps_oracle(got) == {row.tobytes() for row in aut.element_maps()}


def test_find_isomorphism():
    A = PermGroup.from_cycles(5, ["(1 2 3)", "(3 4 5)"])
    iso = hw.find_isomorphism(A, A)
    assert iso is not None
    assert hw.find_isomorphism(A, PermGroup.symmetric(4)) is None

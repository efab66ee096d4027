"""Ambiguity, pseudosimplicity, rationality, automorphism groups."""

import random

import numpy as np
import pytest

import hurwitz as hw
from hurwitz import PermGroup, Permutation
from hurwitz.structure import _hom_closure

from conftest import class_by_type


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
    a = aut.maps[1]
    fmap = a.element_map.copy()
    fmap[1] = fmap[0]
    bad = hw.Automorphism(s5.table(), a.gen_images, fmap, a.inner)
    with pytest.raises(hw.InputError, match="not a bijection"):
        hw.AutGroup(s5.table(), [bad], aut.class_action[1:2], aut.inner_count).verify()


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


def test_find_isomorphism():
    A = PermGroup.from_cycles(5, ["(1 2 3)", "(3 4 5)"])
    iso = hw.find_isomorphism(A, A)
    assert iso is not None
    assert hw.find_isomorphism(A, PermGroup.symmetric(4)) is None

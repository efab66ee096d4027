"""Central extensions, pairings, class kinds, condition E, lifting invariants."""

import gc
import itertools
import random
import weakref

import numpy as np
import pytest

import hurwitz as hw
from hurwitz import PermGroup, Permutation
from hurwitz.covers import (
    LiftData,
    classify_class,
    commutator_pairing,
    condition_e,
    condition_e_by_kinds,
    obstruction_subgroups,
    out_action_on_labels,
    reduce_cover,
    sd_partition_rule,
)

from hurwitz.io import load_cover_file, load_group_file, resolve_reference

from conftest import class_by_type, cover_group


# ---------------------------------------------------------------------------
# loading and verification


def test_bundled_covers_valid(ext_2s5, ext_2s6, ext_sl25, ext_2pgl27):
    for ext, cover_order in (
        (ext_2s5, 240),
        (ext_2s6, 1440),
        (ext_sl25, 120),
        (ext_2pgl27, 672),
    ):
        assert ext.kernel_order() == 2
        assert ext.size == cover_group(ext).order() == cover_order
        assert ext.size == 2 * ext.base_group.order()


def test_identity_cover(s5):
    ext = hw.CentralExtension.from_generators(list(s5.generators), list(s5.generators), s5)
    assert ext.kernel_order() == 1


def test_non_central_kernel_rejected():
    # S3 -> C2 (sign): kernel A3 is not central
    S3 = PermGroup.symmetric(3)
    C2 = PermGroup.from_cycles(2, ["(1 2)"])
    images = [Permutation.from_cycles("(1 2)", 2), Permutation.identity(2)]
    gens = [Permutation.from_cycles("(1 2)", 3), Permutation.from_cycles("(1 2 3)", 3)]
    with pytest.raises(hw.InputError, match="kernel not central"):
        hw.CentralExtension.from_generators(gens, images, C2)


def test_stem_violation_rejected():
    # S3 x C2 -> S3: kernel C2 central but outside the derived subgroup A3
    gens = [
        Permutation.from_cycles("(1 2)", 5),
        Permutation.from_cycles("(1 2 3)", 5),
        Permutation.from_cycles("(4 5)", 5),
    ]
    S3 = PermGroup.symmetric(3)
    images = [
        Permutation.from_cycles("(1 2)", 3),
        Permutation.from_cycles("(1 2 3)", 3),
        Permutation.identity(3),
    ]
    with pytest.raises(hw.InputError, match="stem condition"):
        hw.CentralExtension.from_generators(gens, images, S3)


def test_non_homomorphism_rejected(s5):
    # sending a transposition to a 3-cycle cannot extend to a homomorphism
    gens = [Permutation.from_cycles("(1 2)", 5), Permutation.from_cycles("(1 2 3 4 5)", 5)]
    images = [Permutation.from_cycles("(1 2 3)", 5), Permutation.from_cycles("(1 2 3 4 5)", 5)]
    with pytest.raises(hw.InputError, match="homomorphism"):
        hw.CentralExtension.from_generators(gens, images, s5)


def test_conj_partition_rejects_a_subset_that_is_not_closed(s5):
    # A5 is transitive on the transpositions of S5
    table = s5.table()
    transpositions = [table.code(g) for g in class_by_type(s5, (2, 1, 1, 1)).elements]
    assert table.derived_orbits(transpositions) == [sorted(transpositions)]
    with pytest.raises(hw.InternalCheckError, match="left the given code subset"):
        table.derived_orbits(transpositions[1:])


def test_non_surjective_rejected(s5):
    gens = [Permutation.from_cycles("(1 2 3)", 5), Permutation.from_cycles("(3 4 5)", 5)]
    images = [Permutation.from_cycles("(1 2 3)", 5), Permutation.from_cycles("(3 4 5)", 5)]
    with pytest.raises(hw.InputError, match="surjective"):
        hw.CentralExtension.from_generators(gens, images, s5)


# ---------------------------------------------------------------------------
# the commutator pairing


@pytest.mark.parametrize("name", ["ext_2s5", "ext_2s5_alt", "ext_sl25", "ext_2pgl27", "ext_2s6"])
def test_lift_code_is_the_least_preimage(name, request):
    ext = request.getfixturevalue(name)
    least = {}
    for c in range(ext.size - 1, -1, -1):
        least[int(ext.proj[c])] = c
    expected = [least[b] for b in range(ext.base_group.order())]
    assert [ext.lift_code(b) for b in range(len(expected))] == expected
    assert ext.lift_code(np.arange(len(expected))).tolist() == expected


@pytest.mark.parametrize(
    "name",
    ["s4", "s5", "s6", "a5", "pgl27", "ext_2s5", "ext_2s5_alt", "ext_sl25", "ext_2pgl27", "ext_2s6"],
)
def test_surjection_splits_matches_loop_oracle(name, request):
    from hurwitz.covers import _surjection_splits

    G = request.getfixturevalue(name)
    if name.startswith("ext_"):
        G = cover_group(G)
    ab = G.abelianization()
    k = ab.size
    expected = k == 1 or len(ab.invariant_factors()) == 1 and any(
        g.order() == k and ab.element_order(ab.label(g)) == k for g in G.elements()
    )
    assert _surjection_splits(G) == expected
    if name == "ext_2s5_alt":
        # the unique involution of this realization is central, so no odd
        # element has order 2
        assert not expected


def test_pairing_with_identity_is_trivial(ext_2s5):
    g = Permutation.from_cycles("(1 2)(3 4)", 5)
    assert commutator_pairing(ext_2s5, g, Permutation.identity(5)).is_identity()


def test_pairing_of_element_with_itself_trivial(ext_2s5):
    g = Permutation.from_cycles("(1 2 3)", 5)
    assert commutator_pairing(ext_2s5, g, g).is_identity()


def test_klein_four_pairing_nontrivial(ext_2s5):
    # the Klein four group lifts to the quaternion group, where distinct
    # involutions anticommute
    a = Permutation.from_cycles("(1 2)(3 4)", 5)
    b = Permutation.from_cycles("(1 3)(2 4)", 5)
    assert not commutator_pairing(ext_2s5, a, b).is_identity()


def test_pairing_requires_commuting(ext_2s5):
    with pytest.raises(hw.InputError, match="commuting"):
        commutator_pairing(
            ext_2s5,
            Permutation.from_cycles("(1 2)", 5),
            Permutation.from_cycles("(2 3)", 5),
        )


def test_pairing_antisymmetric_and_bilinear_on_klein_four(ext_2s5):
    # exhaustive over V4 = {e, (12)(34), (13)(24), (14)(23)}
    V = [
        Permutation.identity(5),
        Permutation.from_cycles("(1 2)(3 4)", 5),
        Permutation.from_cycles("(1 3)(2 4)", 5),
        Permutation.from_cycles("(1 4)(2 3)", 5),
    ]
    for x, y in itertools.product(V, V):
        p = commutator_pairing(ext_2s5, x, y)
        q = commutator_pairing(ext_2s5, y, x)
        assert (p * q).is_identity()  # antisymmetry
    for x, y, z in itertools.product(V, V, V):
        left = commutator_pairing(ext_2s5, x * y, z)
        right = commutator_pairing(ext_2s5, x, z) * commutator_pairing(ext_2s5, y, z)
        assert left == right  # bilinearity on commuting triples


def test_pairing_independent_of_cover_realization(ext_2s5, ext_2s5_alt):
    # the two bundled realizations of the S5 double cover must agree on
    # which commuting pairs have nontrivial pairing
    V = [
        Permutation.identity(5),
        Permutation.from_cycles("(1 2)(3 4)", 5),
        Permutation.from_cycles("(1 3)(2 4)", 5),
        Permutation.from_cycles("(1 4)(2 3)", 5),
    ]
    extra = [
        (Permutation.from_cycles("(1 2)", 5), Permutation.from_cycles("(3 4)", 5)),
        (Permutation.from_cycles("(1 2 3 4 5)", 5), Permutation.from_cycles("(1 3 5 2 4)", 5)),
    ]
    pairs = [(x, y) for x, y in itertools.product(V, V)] + extra
    for x, y in pairs:
        a = commutator_pairing(ext_2s5, x, y).is_identity()
        b = commutator_pairing(ext_2s5_alt, x, y).is_identity()
        assert a == b


# ---------------------------------------------------------------------------
# obstruction subgroups


def test_obstruction_2s5_transpositions(ext_2s5, s5):
    c = class_by_type(s5, (2, 1, 1, 1))
    full, primed = obstruction_subgroups(ext_2s5, [c])
    assert full.order == 2 and primed.order == 2  # inert class


def test_obstruction_sl25_three_cycles(ext_sl25, a5, a5_c3):
    full, primed = obstruction_subgroups(ext_sl25, [a5_c3])
    assert full.order == 1 and primed.order == 1  # split class


def test_obstruction_2s6_c42_mixed(ext_2s6, s6):
    c42 = class_by_type(s6, (4, 2))
    full, primed = obstruction_subgroups(ext_2s6, [c42])
    assert full.order == 2 and primed.order == 1  # the mixed signature


def test_obstruction_independent_of_representative(ext_2s5, ext_2s6, s5, s6):
    # recompute the pairing set from every representative of several classes
    from hurwitz.covers import _pairing_codes

    for ext, G, ct in (
        (ext_2s5, s5, (2, 1, 1, 1)),
        (ext_2s5, s5, (2, 2, 1)),
        (ext_2s6, s6, (4, 2)),
        (ext_2s6, s6, (3, 3)),
    ):
        c = class_by_type(G, ct)
        bt = G.table()
        baseline = None
        for rep in c.elements:
            full = frozenset(_pairing_codes(ext, bt.code(rep), False))
            primed = frozenset(_pairing_codes(ext, bt.code(rep), True))
            if baseline is None:
                baseline = (full, primed)
            else:
                assert (full, primed) == baseline


# ---------------------------------------------------------------------------
# reduced covers


def test_reduce_2s5_inert_forces_full_quotient(ext_2s5, s5):
    c2111 = class_by_type(s5, (2, 1, 1, 1))
    c5 = class_by_type(s5, (5,))
    red = reduce_cover(ext_2s5, [c2111, c5])
    assert red.kernel_order() == 1
    assert red.size == 120  # the base group itself, on kernel cosets


def test_reduce_sl25_split_no_reduction(ext_sl25, a5_c3):
    red = reduce_cover(ext_sl25, [a5_c3])
    assert red is ext_sl25


def test_reduce_trivial_kernel_unchanged(s5):
    ext = hw.CentralExtension.from_generators(list(s5.generators), list(s5.generators), s5)
    c = class_by_type(s5, (2, 1, 1, 1))
    assert reduce_cover(ext, [c]) is ext


def test_reduce_2s6_by_inert_class(ext_2s6, s6):
    c21111 = class_by_type(s6, (2, 1, 1, 1, 1))
    red = reduce_cover(ext_2s6, [c21111])
    assert red.kernel_order() == 1
    assert red.size == 720
    # the coset realization is a faithful degree-720 group of order 720
    assert cover_group(red).degree == 720
    assert cover_group(red).order() == 720


# ---------------------------------------------------------------------------
# class kinds


def test_s5_kinds_match_partition_rule(ext_2s5, s5):
    for c in s5.conjugacy_classes():
        if c.representative.is_identity():
            continue
        assert classify_class(ext_2s5, c).kind == sd_partition_rule(c.cycle_type())


def test_s6_kinds_match_partition_rule(ext_2s6, s6):
    for c in s6.conjugacy_classes():
        if c.representative.is_identity():
            continue
        assert classify_class(ext_2s6, c).kind == sd_partition_rule(c.cycle_type())


def test_c42_unique_mixed_in_s6(ext_2s6, s6):
    mixed = [
        c.cycle_type()
        for c in s6.conjugacy_classes()
        if not c.representative.is_identity()
        and classify_class(ext_2s6, c).kind == "mixed"
    ]
    assert mixed == [(4, 2)]


def test_pgl27_kinds(ext_2pgl27, pgl27):
    for c in pgl27.conjugacy_classes():
        if c.representative.is_identity():
            continue
        kind = classify_class(ext_2pgl27, c).kind
        if c.order() == 7:
            assert kind == "ambiguous"
        elif c.order() == 2:
            assert kind == "inert"
        else:
            assert kind == "split"


def test_kinds_agree_between_s5_cover_realizations(ext_2s5, ext_2s5_alt, s5):
    for c in s5.conjugacy_classes():
        if c.representative.is_identity():
            continue
        assert classify_class(ext_2s5, c).kind == classify_class(ext_2s5_alt, c).kind


def test_classify_requires_split_pp(ext_sl25, a5, a5_c3):
    # A5 has trivial abelianization, so |G^ab| != |Z|
    with pytest.raises(hw.UnsupportedConfigurationError):
        classify_class(ext_sl25, a5_c3)


def test_split_class_counts(ext_2s5, s5):
    c311 = class_by_type(s5, (3, 1, 1))
    k = classify_class(ext_2s5, c311)
    assert k.kind == "split"
    assert k.lifted_class_count == 2
    c2111 = class_by_type(s5, (2, 1, 1, 1))
    k2 = classify_class(ext_2s5, c2111)
    assert k2.kind == "inert"
    assert k2.lifted_class_count == 1
    assert k2.derived_orbit_count == 1


# ---------------------------------------------------------------------------
# condition E


def test_condition_e_pgl27_always_holds(ext_2pgl27, pgl27):
    unamb = [
        c
        for c in pgl27.conjugacy_classes()
        if not c.representative.is_identity() and c.order() != 7
    ]
    # per-class subgroup pairs agree, so every sublist satisfies the condition
    for c in unamb:
        full, primed = obstruction_subgroups(ext_2pgl27, [c])
        assert full.codes == primed.codes
    assert condition_e(ext_2pgl27, unamb).holds
    for size in (1, 2, 3):
        assert condition_e(ext_2pgl27, unamb[:size]).holds


def test_condition_e_s6_fail_and_hold(ext_2s6, s6):
    c42 = class_by_type(s6, (4, 2))
    c33 = class_by_type(s6, (3, 3))
    c21111 = class_by_type(s6, (2, 1, 1, 1, 1))
    res_fail = condition_e(ext_2s6, [c42, c33])
    assert not res_fail.holds
    assert res_fail.witness is not None
    ci, g, z, value = res_fail.witness
    # the witness pairing really does lie outside the primed subgroup
    _, primed = obstruction_subgroups(ext_2s6, [c42, c33])
    assert not value.is_identity()
    assert commutator_pairing(ext_2s6, g, z) == value
    # it is the first such pairing, with classes in list order and z in element order
    bt = s6.table()
    first = next(
        (i, x)
        for i, c in enumerate([c42, c33])
        for x in s6.elements()
        if x * c.representative == c.representative * x
        and ext_2s6.lift_commutator(bt.code(c.representative), bt.code(x)) not in primed.codes
    )
    assert (ci, z) == first
    res_hold = condition_e(ext_2s6, [c42, c21111])
    assert res_hold.holds


def test_condition_e_routes_agree(ext_2s6, ext_2s5, s6, s5):
    cases = [
        (ext_2s6, s6, [(4, 2), (3, 3)]),
        (ext_2s6, s6, [(4, 2), (2, 1, 1, 1, 1)]),
        (ext_2s6, s6, [(6,), (3, 3)]),
        (ext_2s5, s5, [(2, 1, 1, 1), (4, 1)]),
        (ext_2s5, s5, [(3, 1, 1), (3, 2)]),
    ]
    for ext, G, types in cases:
        classes = [class_by_type(G, t) for t in types]
        pairing_route = condition_e(ext, classes).holds
        kind_route = condition_e_by_kinds([classify_class(ext, c) for c in classes])
        assert pairing_route == kind_route


def test_condition_e_rejects_ambiguous(ext_2s5, s5):
    c5 = class_by_type(s5, (5,))
    with pytest.raises(hw.UnsupportedConfigurationError, match="ambiguous"):
        condition_e(ext_2s5, [c5])


def test_condition_e_rejects_non_pseudosimple(s4):
    ext = hw.CentralExtension.from_generators(list(s4.generators), list(s4.generators), s4)
    c = class_by_type(s4, (2, 1, 1))
    with pytest.raises(hw.UnsupportedConfigurationError, match="pseudosimple"):
        condition_e(ext, [c])


# ---------------------------------------------------------------------------
# lifting invariants


def test_trivial_kernel_single_label(h25, h25_data, ext_2s5):
    red = reduce_cover(ext_2s5, h25.classes)
    lift = LiftData(red, h25)
    labels = lift.label_codes_for_rows(h25_data["fiber_inn"].rows)
    assert set(int(x) for x in labels) == {0}


def test_a5_n6_two_labels(a5_n6):
    labels = a5_n6["lift"].label_codes_for_rows(a5_n6["fiber"].rows)
    assert set(int(x) for x in labels) == {0, 1}


def test_label_of_a_row_whose_product_is_not_one(a5_n4):
    # four copies of one 3-cycle multiply to that 3-cycle, so the product
    # of their lifts lies outside the kernel
    h, lift = a5_n4["h"], a5_n4["lift"]
    code = int(h.classes[0].codes[0])
    rows = np.array([[code] * h.n], dtype=np.int64)
    with pytest.raises(hw.InternalCheckError, match="outside the kernel"):
        lift.label_codes_for_rows(rows)


def test_lifting_invariant_object(a5_n4, ext_sl25):
    h = a5_n4["h"]
    t = a5_n4["tuples"].tuple_at(0)
    label = hw.lifting_invariant(ext_sl25, h, t)
    assert label.index in (0, 1)
    assert len(label.chosen_lifts) == 1


def test_lifting_invariant_braid_invariance(a5_n4):
    # random 50-letter braid words leave the label unchanged
    rng = random.Random(17)
    h, ts, lift = a5_n4["h"], a5_n4["tuples"], a5_n4["lift"]
    table = h.group.table()
    n = h.n
    for _ in range(1000):
        t = ts.tuple_at(rng.randrange(len(ts)))
        row = np.array([[table.code(g) for g in t]], dtype=np.int64)
        before = int(lift.label_codes_for_rows(row)[0])
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(50)]
        moved = t
        for letter in word:
            moved = hw.apply_sigma(moved, abs(letter), inverse=letter < 0)
        row2 = np.array([[table.code(g) for g in moved]], dtype=np.int64)
        assert int(lift.label_codes_for_rows(row2)[0]) == before


def test_lifting_invariant_conjugation_invariance(a5_n4, a5):
    rng = random.Random(19)
    h, ts, lift = a5_n4["h"], a5_n4["tuples"], a5_n4["lift"]
    table = h.group.table()
    els = a5.elements()
    for _ in range(200):
        t = ts.tuple_at(rng.randrange(len(ts)))
        z = rng.choice(els)
        moved = t.conjugate_by(z)
        row = np.array(
            [[table.code(g) for g in u] for u in (t, moved)], dtype=np.int64
        )
        labels = lift.label_codes_for_rows(row)
        assert int(labels[0]) == int(labels[1])


def test_unreduced_extension_rejected_for_lifting(ext_2s5, h25):
    # 2.S5 is not reduced for (C2111, C5): the transposition class is inert
    with pytest.raises(hw.InputError, match="not reduced"):
        LiftData(ext_2s5, h25)


# ---------------------------------------------------------------------------
# the outer action on labels


def test_out_action_trivial_out_group(h25, h25_data, ext_2s5, s5):
    red = reduce_cover(ext_2s5, h25.classes)
    aut = hw.aut_fixing_classes(hw.automorphism_group(s5), h25.classes)
    rep = out_action_on_labels(red, h25, aut, h25_data["fiber_inn"])
    assert rep.label_orbits == ((0,),)
    assert rep.stabilizer_orders == {0: 1}


def test_out_action_a5_n6_regression(a5_n6, ext_sl25, a5, a5_c3):
    # regression value from this artifact's first run: the outer involution
    # of A5 fixes both lifting labels at nu = (6), so the starred label set
    # still has two elements and each stabilizer is the full outer group
    red = reduce_cover(ext_sl25, [a5_c3])
    aut = hw.aut_fixing_classes(hw.automorphism_group(a5), [a5_c3])
    assert aut.outer_order() == 2
    rep = out_action_on_labels(red, a5_n6["h"], aut, a5_n6["fiber"])
    assert rep.label_orbits == ((0,), (1,))
    assert rep.stabilizer_orders == {0: 2, 1: 2}


def test_inner_automorphisms_fix_labels(a5_n5, ext_sl25, a5, a5_c3):
    red = reduce_cover(ext_sl25, [a5_c3])
    aut = hw.automorphism_group(a5)
    inner_only = hw.AutGroup(
        a5.table(),
        [a for a in aut.maps if a.inner],
        [ca for a, ca in zip(aut.maps, aut.class_action) if a.inner],
        aut.inner_count,
    )
    rep = out_action_on_labels(red, a5_n5["h"], inner_only, a5_n5["fiber"])
    assert all(m[l] == l for m in rep.maps for l in rep.realized)


# ---------------------------------------------------------------------------
# object lifetimes


def test_groups_and_covers_are_freed_without_the_cycle_collector():
    # with automatic collection off only reference counting frees objects,
    # so a reference cycle among them (a table or class pointing back at its
    # group) would keep them alive
    gc.disable()
    try:
        s6 = load_group_file(resolve_reference("S6", "groups"))
        ext = load_cover_file(resolve_reference("2S6", "covers"), base_group=s6)
        classes = [class_by_type(s6, (4, 2)), class_by_type(s6, (2, 1, 1, 1, 1))]
        aut = hw.automorphism_group(s6)
        reduced = reduce_cover(ext, classes)
        objects = [
            s6,
            s6.table(),
            s6.center(),
            s6.abelianization(),
            aut,
            hw.aut_fixing_classes(aut, classes),
            ext,
            ext.table,
            reduced,
            reduced.table,
        ]
        refs = [weakref.ref(x) for x in objects]
        del s6, ext, classes, aut, reduced, objects
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()

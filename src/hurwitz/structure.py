"""Structural predicates on (G, C): ambiguity, pseudosimplicity, Aut(G, C).

A conjugacy class is ambiguous when the derived subgroup splits it into
more than one conjugation orbit.  A centerless group is pseudosimple when
its derived subgroup is a power of a nonabelian simple group and every
nontrivial quotient is abelian; symmetric groups S_d (d >= 5) and
PGL_2(q) are the standard examples beyond the simple groups themselves.
Three checks on the group's code table decide it: the center is trivial,
the derived group G' is nonabelian, and G' lies in the normal closure of
every nonidentity class.  Then G' is the unique minimal normal subgroup,
and a minimal normal subgroup is a direct product of isomorphic simple
groups that the group permutes transitively (Dixon and Mortimer,
Permutation Groups, 1996, 4.3), so nothing else needs checking; the
number of simple factors is read off the orders.

Automorphism groups are found by backtracking over candidate images of a
minimal generating sequence, with (order, class size) and word-order
fingerprints pruning the search.  A surviving candidate is certified as a
bijective homomorphism by generator-driven closure over the whole group,
and then its whole coset under the inner automorphisms of the target is
taken at once, so the search runs one closure per Inn-coset: two for
Aut(S6), against 1440 certified one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalCheckError
from .perms import PermGroup, RowIndex, conjugation_maps, orbit_labels

# codes per block of maps in AutGroup.verify: 64 KiB as int64, so that no
# block is a large temporary
_VERIFY_CHUNK = 1 << 13


def is_ambiguous(group, conj_class):
    """True when the derived subgroup has more than one orbit on the class."""
    if conj_class.table is not group.table():
        raise InputError("class does not belong to the given group")
    return derived_orbit_count(group, conj_class) > 1


def derived_orbit_count(group, conj_class):
    """Number of derived-subgroup conjugation orbits on the class."""
    return len(group.table().derived_orbits(conj_class.codes))


def centralizer_covers_abelianization(group, conj_class):
    """Equivalent reading of unambiguity: Z(g) surjects onto G^ab."""
    ab = group.abelianization()
    z = group.table().centralizer_codes(conj_class.codes[0])
    return np.unique(ab.labels[z]).size == ab.size


def is_rational_class(group, conj_class):
    """True when g^k stays in the class for every k prime to the order of g."""
    rep = conj_class.representative
    n = rep.order()
    members = set(conj_class.elements)
    return all(rep**k in members for k in range(1, n) if math.gcd(k, n) == 1)


@dataclass
class StructureVerdict:
    pseudosimple: bool
    reason: str | None = None
    simple_factor_count: int | None = None


def is_pseudosimple(group):
    """Verdict with failure reason; see the module docstring for the notion
    and for the three checks, made in that order on the group's table.

    When all three pass, every nontrivial normal subgroup contains G', so G'
    is the unique minimal normal subgroup: G' = T^w with T simple, and
    nonabelian since G' is.  So G' is perfect, its minimal normal subgroups
    are exactly the w factors, and the group permutes them transitively; no
    further check can fail.  The closure of a G'-class is the normal closure
    in G' of one element, the product of the factors on which that element
    is not trivial, so the least such closure has |T| elements, and
    |G'| = |T|^w gives w.
    """
    table = group.table()
    if table.center_order() > 1:
        return StructureVerdict(False, reason="center nontrivial")
    gens = np.asarray(table.derived_gen_codes(), dtype=np.int64)
    products = table.mul[np.ix_(gens, gens)]
    if (products == products.T).all():
        return StructureVerdict(False, reason="derived group abelian")
    for codes in table.class_codes:
        if codes[0] == table.identity:
            continue
        closure = table.closure_codes(table.normal_closure_gen_codes(codes[:1]))
        if not np.isin(gens, closure).all():
            return StructureVerdict(False, reason="nonabelian proper quotient")
    derived = table.closure_codes(gens)
    factor = min(
        len(table.closure_codes(orbit))
        for orbit in table.derived_orbits(derived)
        if orbit != [table.identity]
    )
    w = round(math.log(len(derived), factor))
    if factor**w != len(derived):
        raise InternalCheckError("the derived group of a pseudosimple group is not a simple power")
    return StructureVerdict(True, simple_factor_count=w)


# ---------------------------------------------------------------------------
# automorphism groups


class Automorphism:
    """An automorphism stored as generator images plus a full element map
    over the codes of its group's table."""

    __slots__ = ("table", "gen_images", "element_map", "inner")

    def __init__(self, table, gen_images, element_map, inner):
        self.table = table
        self.gen_images = tuple(gen_images)
        self.element_map = element_map  # np array: element code -> element code
        self.inner = inner

    def apply(self, perm):
        return self.table.perm(int(self.element_map[self.table.code(perm)]))

    def __eq__(self, other):
        return isinstance(other, Automorphism) and np.array_equal(
            self.element_map, other.element_map
        )

    def __hash__(self):
        return hash(self.element_map.tobytes())

    def __repr__(self):
        kind = "inner" if self.inner else "outer"
        return f"Automorphism({kind}, {[str(g) for g in self.gen_images]})"


class AutGroup:
    """All automorphisms of a group, given by its table, with the induced
    action on its classes (numbered by the table's `class_id`)."""

    def __init__(self, table, maps, class_action, inner_count):
        self.table = table
        self.maps = tuple(maps)
        self.class_action = tuple(class_action)
        self.inner_count = inner_count

    def __len__(self):
        return len(self.maps)

    @property
    def order(self):
        return len(self.maps)

    def outer_order(self):
        return len(self.maps) // self.inner_count

    def element_maps(self):
        """Every automorphism's element map, as an (order, m) array in the
        table's dtype."""
        return np.stack([a.element_map for a in self.maps])

    def verify(self, full=False):
        """Certify each map as a bijective homomorphism.

        A map is a bijection when its sorted codes are 0..m-1.  Construction
        already certified each coset representative by generator-driven
        closure, and every other map is one of those followed by an inner
        automorphism.  With ``full=True`` each map f is rechecked against
        the table: f(x*g) = f(x)*f(g) for every element x and every
        generator g in `table.gen_codes`.  That is equivalent to checking
        every product.  Putting x = 1 gives f(1) = 1, which is
        f(x*y) = f(x)*f(y) for y = 1; if that holds for y, then
        f(x*y*g) = f(x*y)*f(g) = f(x)*f(y)*f(g) = f(x)*f(y*g), and the
        generators generate the group, so induction on word length reaches
        every y.  That is m*k products per map instead of m^2.  Maps are
        checked in blocks of about `_VERIFY_CHUNK` codes.
        """
        table = self.table
        m = table.size
        gens = np.asarray(table.gen_codes, dtype=np.int64)
        step = max(1, _VERIFY_CHUNK // m)
        for start in range(0, len(self.maps), step):
            block = np.array(
                [a.element_map for a in self.maps[start:start + step]], dtype=np.int64
            )
            if not (np.sort(block, axis=1) == np.arange(m)).all():
                raise InputError("automorphism map is not a bijection")
            if full:
                left = block[:, table.mul[:, gens]]
                right = table.mul[block[:, :, None], block[:, None, gens]]
                if not np.array_equal(left, right):
                    raise InputError("automorphism map is not a homomorphism")
        return True

    def __repr__(self):
        return f"AutGroup(order={len(self.maps)}, inner={self.inner_count})"


def minimal_generating_sequence(group):
    """A short generating sequence found by deterministic scan.

    Tries a single generator, then ordered pairs (first elements in sorted
    order); falls back to greedily pruning the given generator list.  The
    backtracking cost of the automorphism search is exponential in the
    length of this sequence, so short sequences matter more than fast
    discovery.
    """
    order = group.order()
    elems = group.elements()
    table = group.table()
    for g in elems:
        if g.order() == order:
            return [g]
    for a in elems:
        if a.is_identity():
            continue
        for b in elems:
            if b.is_identity():
                continue
            if len(table.closure_codes([table.code(a), table.code(b)])) == order:
                return [a, b]
        break  # only scan pairs anchored at the first nonidentity element
    for a in elems:
        if a.is_identity():
            continue
        for b in elems:
            if len(table.closure_codes([table.code(a), table.code(b)])) == order:
                return [a, b]
    gens = list(group.generators)
    keep = list(gens)
    for g in gens:
        trial = [x for x in keep if x != g]
        if trial and PermGroup(group.degree, trial).order() == order:
            keep = trial
    return keep


def _hom_closure(table_g, table_h, gen_codes, image_codes):
    """Extend generator images to a full map, checking consistency.

    Walks products of already-mapped elements with generators, level by
    level, mirroring them on the image side; a collision with a different
    value means the assignment extends to no homomorphism.  Returns the
    element map as a numpy array, or None.  Consistency over generator
    products certifies a homomorphism on the generated subgroup by
    induction on word length.
    """
    gens = np.asarray(gen_codes, dtype=np.int64)
    images = np.asarray(image_codes, dtype=np.int64)
    fmap = np.full(table_g.size, -1, dtype=np.int64)
    fmap[table_g.identity] = table_h.identity
    frontier = np.array([table_g.identity], dtype=np.int64)
    while frontier.size:
        y = table_g.mul[frontier[:, None], gens].ravel()
        fy = table_h.mul[fmap[frontier][:, None], images].ravel()
        new = fmap[y] == -1
        fmap[y[new]] = fy[new]
        if (fmap[y] != fy).any():
            return None
        frontier = np.unique(y[new])
    if (fmap == -1).any():
        return None  # generators failed to generate; should not happen
    return fmap


_FINGERPRINT_WORDS = (
    (0, 1),
    (1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (0, 1, 0, 1),
)


def _word_order(table, codes, word):
    acc = table.identity
    for idx in word:
        acc = int(table.mul[acc, codes[idx]])
    return int(table.order_of[acc])


def _pruned_product(pools, accept, prefix=()):
    """Tuples of one candidate per pool, depth first in pool order, whose
    every prefix passes accept(prefix)."""
    if len(prefix) == len(pools):
        yield prefix
        return
    for cand in pools[len(prefix)]:
        longer = prefix + (cand,)
        if accept(longer):
            yield from _pruned_product(pools, accept, longer)


def isomorphisms(source, target, find_all=True):
    """Backtracking search for isomorphisms source -> target.

    Candidate images are constrained to classes with matching element order
    and class size, pruned by the orders of a few fixed words in the
    generators, then certified by full closure.  Once a candidate closes to
    an isomorphism f, its whole coset {x -> f(x)^z} under the inner
    automorphisms of the target is an isomorphism too: those maps are the
    rows of `inner_maps()[:, f]`, one per element z of the target, of
    which rows for z in the same coset of the center coincide.  Their
    generator images are marked as covered, and a later candidate already
    covered is skipped without a closure.  A homomorphism is determined by
    its generator images, so the search stays exhaustive, with one closure
    per Inn-coset.  Returns a list of element maps (numpy arrays over
    source codes into target codes, in the target table's dtype); with
    ``find_all=False`` only the first map found.
    """
    if source.order() != target.order():
        return []
    ts = source.table()
    tt = target.table()
    gens = minimal_generating_sequence(source)
    gen_codes = [ts.code(g) for g in gens]
    # candidate pools by (order, class size)
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
    covered = set()
    for chosen in _pruned_product(pools, consistent):
        if chosen in covered:
            continue
        fmap = _hom_closure(ts, tt, gen_codes, chosen)
        if fmap is None or np.unique(fmap).size != ts.size:
            continue
        # row z is x -> f(x)^z; the identity's row, f itself, comes first
        coset = tt.inner_maps()[:, fmap]
        images, keep = np.unique(coset[:, gen_codes], axis=0, return_index=True)
        covered.update(map(tuple, images.tolist()))
        found.extend(coset[z] for z in np.sort(keep))
        if not find_all:
            return found[:1]
    return found


def find_isomorphism(source, target):
    """One isomorphism source -> target as a dict Permutation -> Permutation."""
    maps = isomorphisms(source, target, find_all=False)
    if not maps:
        return None
    ts, tt = source.table(), target.table()
    fmap = maps[0]
    return {ts.perm(i): tt.perm(int(fmap[i])) for i in range(ts.size)}


def automorphism_group(group):
    """Aut(G) by backtracking; cached on the group object.

    The maps are sorted by their bytes.  A map is inner when its generator
    images are those of some conjugation, since the generator images
    determine the map.
    """
    if group._aut is not None:
        return group._aut
    table = group.table()
    gen_codes = table.gen_codes
    maps = sorted(isomorphisms(group, group, find_all=True), key=lambda f: f.tobytes())
    inner = set(map(tuple, table.inner_maps()[:, gen_codes].tolist()))
    images = np.array([fmap[gen_codes] for fmap in maps]).tolist()
    rep_codes = [int(codes[0]) for codes in table.class_codes]
    class_actions = table.class_id[np.array([fmap[rep_codes] for fmap in maps])].tolist()
    auts = [
        Automorphism(
            table,
            [table.elements[c] for c in row],
            fmap,
            tuple(row) in inner,
        )
        for fmap, row in zip(maps, images)
    ]
    inner_count = table.size // table.center_order()
    result = AutGroup(table, auts, map(tuple, class_actions), inner_count)
    result.verify(full=False)
    if len(result.maps) % inner_count:
        raise InternalCheckError("automorphism search returned a non-group")
    group._aut = result
    return result


def aut_fixing_classes(aut, classes):
    """The subgroup of automorphisms fixing each listed class setwise."""
    if any(c.table is not aut.table for c in classes):
        raise InputError("classes must belong to the automorphism group's base group")
    wanted = {int(aut.table.class_id[c.codes[0]]) for c in classes}
    keep = [
        i
        for i in range(len(aut.maps))
        if all(aut.class_action[i][ci] == ci for ci in wanted)
    ]
    return AutGroup(
        aut.table,
        [aut.maps[i] for i in keep],
        [aut.class_action[i] for i in keep],
        aut.inner_count,
    )


def aut_generator_maps(aut):
    """Element maps of a small generating set of an automorphism group.

    `aut` must contain Inn(G), as `automorphism_group` and
    `aut_fixing_classes` do.  The conjugations by the table's generators
    come first; they generate Inn(G).  Then the maps of `aut.maps` follow
    in order, each only when it lies outside the subgroup generated so
    far, which it therefore at least doubles: there are at most
    log2 |aut : Inn(G)| of them.  One map per Inn(G)-coset would not do:
    Inn(C2^4) is trivial and Aut(C2^4) = GL(4, 2) has 20,160 elements.
    Membership is the orbit of the identity in the `orbit_labels` of the
    chosen maps on the indices of `aut.maps`, each map located by its
    generator images in a `RowIndex` of them.
    Returns a (k, m) array in the table's dtype.
    """
    table = aut.table
    gens = np.asarray(table.gen_codes, dtype=np.int64)
    maps = aut.element_maps()
    # an automorphism is determined by its generator images
    images = maps[:, gens]
    order = np.lexsort(images.T[::-1])
    index = RowIndex(images[order], table.size)

    def after(g):
        # index of every map followed by g
        return order[index.positions(g[images])]

    chosen = list(conjugation_maps(table.mul, table.inv, gens))
    step = [after(g) for g in chosen]
    identity = order[index.positions(gens[None, :])]
    while True:
        labels = orbit_labels(np.reshape(step, (len(step), len(maps))))
        outside = np.flatnonzero(labels != labels[identity])
        if not len(outside):
            return np.reshape(chosen, (len(chosen), table.size)).astype(table.mul.dtype)
        chosen.append(maps[outside[0]])
        step.append(after(chosen[-1]))

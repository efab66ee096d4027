"""Structural predicates on (G, C): ambiguity, pseudosimplicity, Aut(G, C).

A conjugacy class is ambiguous when the derived subgroup splits it into
more than one conjugation orbit.  A centerless group is pseudosimple when
its derived subgroup is a power of a nonabelian simple group and every
nontrivial quotient is abelian; symmetric groups S_d (d >= 5) and
PGL_2(q) are the standard examples beyond the simple groups themselves.

Automorphism groups are found by backtracking over candidate images of a
minimal generating sequence, with (order, class size) and word-order
fingerprints pruning the search; every surviving candidate is certified as
a bijective homomorphism by generator-driven closure over the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalCheckError
from .perms import PermGroup, Permutation


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
    from math import gcd

    rep = conj_class.representative
    n = rep.order()
    members = set(conj_class.elements)
    return all(rep**k in members for k in range(1, n) if gcd(k, n) == 1)


@dataclass
class StructureVerdict:
    pseudosimple: bool
    reason: str | None = None
    simple_factor_count: int | None = None


def _is_nonabelian_simple(group):
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


def is_pseudosimple(group):
    """Verdict with failure reason; see the module docstring for the notion.

    Checks, in order: trivial center; every nontrivial quotient abelian
    (normal closure of each nontrivial class contains the derived group);
    the derived group nonabelian, perfect, and the join of its minimal
    normal subgroups, all simple, permuted transitively by the group.
    """
    if group.center().order() > 1:
        return StructureVerdict(False, reason="center nontrivial")
    derived = group.derived_subgroup()
    if derived.is_abelian():
        return StructureVerdict(False, reason="derived group abelian")
    dorder = derived.order()
    for c in group.conjugacy_classes():
        if c.representative.is_identity():
            continue
        closure = group.normal_closure([c.representative])
        if not all(g in closure for g in derived.generators):
            return StructureVerdict(False, reason="nonabelian proper quotient")
    if not derived.is_perfect():
        return StructureVerdict(False, reason="derived group not perfect-power-of-simple")
    # minimal normal closures inside the derived group
    closures = []
    for c in derived.conjugacy_classes():
        if c.representative.is_identity():
            continue
        n = derived.normal_closure([c.representative])
        # the derived group itself, so that its elements and table are reused
        closures.append(derived if n.order() == dorder else n)
    minimal = []
    for n in closures:
        if any(
            other.order() < n.order() and other.is_subgroup_of(n) for other in closures
        ):
            continue
        if any(m.equals(n) for m in minimal):
            continue
        minimal.append(n)
    if not minimal:
        return StructureVerdict(False, reason="derived group not perfect-power-of-simple")
    sizes = {m.order() for m in minimal}
    if len(sizes) != 1 or not all(_is_nonabelian_simple(m) for m in minimal):
        return StructureVerdict(False, reason="derived group not perfect-power-of-simple")
    w = len(minimal)
    joint = derived.subgroup([g for m in minimal for g in m.generators])
    if joint.order() != dorder or dorder != minimal[0].order() ** w:
        return StructureVerdict(False, reason="derived group not perfect-power-of-simple")
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
                        return StructureVerdict(
                            False, reason="derived group not perfect-power-of-simple"
                        )
                    if j not in reached:
                        reached.add(j)
                        new.append(j)
            frontier = new
        if len(reached) != w:
            return StructureVerdict(False, reason="derived group not perfect-power-of-simple")
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
        table = self.table
        out = np.empty((len(self.maps), table.size), dtype=table.mul.dtype)
        for i, a in enumerate(self.maps):
            out[i] = a.element_map
        return out

    def verify(self, full=False):
        """Certify each map as a bijective homomorphism.

        Construction already checks generator-driven closure; with
        ``full=True`` every product of the multiplication table is
        rechecked, which is affordable for the desk-scale groups here.
        """
        table = self.table
        m = table.size
        for a in self.maps:
            fmap = a.element_map
            if np.unique(fmap).size != m:
                raise InputError("automorphism map is not a bijection")
            if full:
                left = fmap[table.mul]
                right = table.mul[np.ix_(fmap, fmap)]
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
    generators, then certified by full closure.  Returns a list of element
    maps (numpy arrays over source codes into target codes).
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
    for chosen in _pruned_product(pools, consistent):
        fmap = _hom_closure(ts, tt, gen_codes, chosen)
        if fmap is not None and np.unique(fmap).size == ts.size:
            found.append(fmap)
            if not find_all:
                break
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
    """Aut(G) by backtracking; cached on the group object."""
    if group._aut is not None:
        return group._aut
    table = group.table()
    maps = isomorphisms(group, group, find_all=True)
    inner = {table.inner_maps()[z].astype(np.int64).tobytes() for z in range(table.size)}
    classes = group.conjugacy_classes()
    rep_codes = [table.code(c.representative) for c in classes]
    auts = []
    class_actions = []
    for fmap in sorted(maps, key=lambda f: f.tobytes()):
        gen_images = [table.elements[int(fmap[c])] for c in table.gen_codes]
        is_inner = fmap.astype(np.int64).tobytes() in inner
        auts.append(Automorphism(table, gen_images, fmap, is_inner))
        class_actions.append(
            tuple(int(table.class_id[int(fmap[rc])]) for rc in rep_codes)
        )
    inner_count = group.order() // group.center().order()
    result = AutGroup(table, auts, class_actions, inner_count)
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

"""Braid orbits on fibers, monodromy groups, and fullness certification.

The block-preserving braid generators act on a fiber through index
permutations; their orbits are the connected components of the resulting
Schreier graph, and the group they generate is the monodromy group of the
corresponding cover of configuration spaces.  An action on a set X is full
when its image contains Alt(X); it is quasi-full when the image contains
the product of the alternating groups of all its orbits.  Alt(X) is
trivial for |X| <= 2, so orbits of size one or two are vacuously full;
asymptotic statements never meet them but small multiplicities do.

Fullness is decided by exact order comparison (stabilizer chains on these
degrees are cheap and exact), cross-validated on small orbits by a
Jordan-style witness: a primitive group containing a cycle of prime length
p <= |X| - 3 contains the alternating group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InputError, InternalCheckError
from .nielsen import (
    braid_nu_generators,
    enumerate_tuples,
    induced_permutation_array,
    _dfs_enumerate,
    _class_code_arrays,
    key_positions,
    row_keys,
)
from .perms import PermGroup, Permutation


@dataclass
class OrbitPartition:
    """Orbits of the braid generators on fiber indices.

    Orbit ids are assigned by least contained point; `labels` carries one
    lifting label per orbit when a reduced cover was supplied (constant on
    each orbit, which is verified).
    """

    orbit_id: np.ndarray
    orbit_sizes: tuple
    orbit_members: tuple
    labels: tuple | None = None

    @property
    def count(self):
        return len(self.orbit_sizes)


def braid_orbits(fiber, gen_arrays, lift_data=None):
    """Union of the Schreier graphs of the generators, as an OrbitPartition."""
    n = len(fiber)
    if n == 0:
        empty_labels = () if lift_data is not None else None
        return OrbitPartition(np.empty(0, dtype=np.int64), (), (), empty_labels)
    rows = []
    cols = []
    for arr in gen_arrays:
        rows.append(np.arange(n))
        cols.append(np.asarray(arr))
    if rows:
        graph = coo_matrix(
            (np.ones(n * len(gen_arrays), dtype=np.int8), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        _, raw = connected_components(graph, directed=False)
    else:
        raw = np.arange(n)
    # renumber components by least contained point
    first = {}
    for i, c in enumerate(raw):
        first.setdefault(int(c), i)
    order = sorted(first, key=lambda c: first[c])
    renum = {c: i for i, c in enumerate(order)}
    orbit_id = np.array([renum[int(c)] for c in raw], dtype=np.int64)
    members = []
    for i in range(len(order)):
        members.append(tuple(int(x) for x in np.nonzero(orbit_id == i)[0]))
    sizes = tuple(len(m) for m in members)
    labels = None
    if lift_data is not None:
        point_labels = lift_data.label_codes_for_rows(fiber.rows)
        labels = []
        for m in members:
            vals = {int(point_labels[x]) for x in m}
            if len(vals) != 1:
                raise InternalCheckError("lifting label not constant on a braid orbit")
            labels.append(vals.pop())
        labels = tuple(labels)
    return OrbitPartition(orbit_id, sizes, tuple(members), labels)


@dataclass
class OrbitVerdict:
    size: int
    group_order: int
    full: bool
    blocks: tuple | None = None  # an imprimitivity system, when one exists


@dataclass
class MonodromyReport:
    fiber_size: int
    mode: str
    generator_names: tuple
    generators: tuple  # index arrays
    group_order: int
    orbits: OrbitPartition
    per_orbit: tuple  # OrbitVerdict per orbit
    quasi_full: bool
    label_census: dict | None = None
    mass: dict | None = None

    def to_json_dict(self):
        out = {
            "fiber_size": self.fiber_size,
            "mode": self.mode,
            "orbit_sizes": list(self.orbits.orbit_sizes),
            "group_order": str(self.group_order),
            "per_orbit": [
                {
                    "size": v.size,
                    "order": str(v.group_order),
                    "full": v.full,
                    **({"blocks": [list(b) for b in v.blocks]} if v.blocks else {}),
                }
                for v in self.per_orbit
            ],
            "quasi_full": self.quasi_full,
        }
        if self.label_census is not None:
            out["labels"] = self.label_census
        if self.mass is not None:
            out["mass"] = self.mass
        return out


def fiber_generator_arrays(fiber, words=None):
    """Index-permutation arrays of the braid generators on a fiber."""
    if words is None:
        words = braid_nu_generators(fiber.h.nu)
    return words, [induced_permutation_array(fiber, w) for w in words]


def _restriction_perms(arrays, points):
    """Generator permutations restricted to an orbit, relabeled 0..k-1."""
    pos = {p: i for i, p in enumerate(points)}
    out = []
    for arr in arrays:
        out.append(Permutation(pos[int(arr[p])] for p in points))
    return out


def _block_system(perms, size):
    """A nontrivial imprimitivity system, or None if the action is primitive.

    Runs the minimal-block refinement seeded with each pair (0, b); the
    first proper nontrivial system found (smallest seed) is returned as a
    tuple of sorted blocks.
    """
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


def full_by_order(size, order):
    """Exact fullness: the group order is |X|! or |X|!/2 (trivially full for |X| <= 2)."""
    if size <= 2:
        return True
    return order in (factorial(size), factorial(size) // 2)


def fullness_by_jordan_witness(perms, size, word_budget=4000):
    """Independent fullness route: primitivity plus a prime-cycle witness.

    Searches deterministic products of the generators for an element some
    power of which is a single p-cycle, p prime <= size - 3; inside a
    primitive group such an element forces the alternating group.  Returns
    True/False when conclusive, None when no witness was found.
    """
    if size <= 2:
        return True
    if _block_system(perms, size) is not None:
        return False
    orbit_pts = set()
    for g in perms:
        orbit_pts.update(g.moved_points())
    if len(orbit_pts) < size:
        return False  # not transitive, certainly not full
    primes = [p for p in range(2, max(2, size - 2)) if all(p % d for d in range(2, p))]
    prime_set = set(primes)
    frontier = [Permutation.identity(size)]
    seen = {frontier[0].images}
    count = 0
    while frontier and count < word_budget:
        new = []
        for x in frontier:
            for g in perms:
                y = x * g
                if y.images in seen:
                    continue
                seen.add(y.images)
                count += 1
                ct = [c for c in y.cycle_type() if c > 1]
                for p in prime_set:
                    if ct.count(p) == 1 and all(c == p or p % c and c % p for c in ct):
                        # some power of y is a single p-cycle
                        power = 1
                        for c in ct:
                            if c != p:
                                power = power * c // _gcd(power, c)
                        z = y**power
                        zt = [c for c in z.cycle_type() if c > 1]
                        if zt == [p] and p <= size - 3:
                            return True
                new.append(y)
                if count >= word_budget:
                    break
            if count >= word_budget:
                break
        frontier = new
    return None


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def monodromy_group(fiber, gen_arrays=None, words=None, lift_data=None, mass=None):
    """Full monodromy report: orbits, exact group order, fullness verdicts.

    Per-orbit fullness comes from the exact order of the restriction; a
    non-full orbit additionally gets an imprimitivity system when one
    exists.  Quasi-fullness of a multi-orbit action restricts the pointwise
    stabilizer of the other orbits (base ordered through them first) to
    each orbit in turn and requires the alternating group each time.
    """
    if gen_arrays is None:
        words, gen_arrays = fiber_generator_arrays(fiber, words)
    names = tuple(w.name for w in words) if words else tuple(f"g{i}" for i in range(len(gen_arrays)))
    n = len(fiber)
    orbits = braid_orbits(fiber, gen_arrays, lift_data)
    perms = [Permutation(int(x) for x in arr) for arr in gen_arrays]
    group = PermGroup(n, perms, name="monodromy")
    order = group.order() if n else 1
    per_orbit = []
    for members in orbits.orbit_members:
        if len(members) == n:
            sub_order = order
            sub_perms = perms
        else:
            sub_perms = _restriction_perms(gen_arrays, members)
            sub_order = PermGroup(len(members), sub_perms).order()
        is_full = full_by_order(len(members), sub_order)
        blocks = None
        if not is_full:
            blocks = _block_system(sub_perms, len(members))
        per_orbit.append(
            OrbitVerdict(size=len(members), group_order=sub_order, full=is_full, blocks=blocks)
        )
    quasi = quasi_fullness(group, orbits, per_orbit)
    census = None
    if orbits.labels is not None:
        census = {
            "orbit_labels": list(orbits.labels),
            "realized": sorted(set(orbits.labels)),
            "bijective_with_orbits": len(set(orbits.labels)) == orbits.count,
        }
    return MonodromyReport(
        fiber_size=n,
        mode=fiber.mode,
        generator_names=names,
        generators=tuple(gen_arrays),
        group_order=order,
        orbits=orbits,
        per_orbit=tuple(per_orbit),
        quasi_full=quasi,
        label_census=census,
        mass=mass,
    )


def fullness(report):
    """Per-orbit fullness verdicts of a MonodromyReport."""
    return tuple(v.full for v in report.per_orbit)


def quasi_fullness(group, orbits, per_orbit):
    """Whether the action contains the product of its orbit alternating groups.

    Requires every orbit individually full; for several orbits, the
    pointwise stabilizer of all other orbits must still restrict onto
    (at least) the alternating group of each orbit.
    """
    if not all(v.full for v in per_orbit):
        return False
    members = orbits.orbit_members
    if len(members) <= 1:
        return True
    for i, orbit in enumerate(members):
        others = [p for j, m in enumerate(members) if j != i for p in m]
        chain = group.chain(base_prefix=tuple(others), strategy="natural")
        stab_gens = chain.strong_generators(from_level=len(others))
        if not stab_gens:
            return False
        restricted = _restriction_perms(
            [np.array(g, dtype=np.int64) for g in stab_gens], orbit
        )
        sub_order = PermGroup(len(orbit), restricted).order()
        m = len(orbit)
        if m > 2 and sub_order < factorial(m) // 2:
            return False
    return True


# ---------------------------------------------------------------------------
# reports


@dataclass
class ConwayParkerRecord:
    """Orbits versus realized lifting labels at one parameter.

    Reports whether the orbit -> label map is injective and surjective onto
    the realized labels; it measures whether bijectivity already holds at
    the given multiplicities and never asserts the asymptotic regime.
    """

    orbit_count: int
    label_count: int
    injective: bool
    surjective: bool

    @property
    def bijective(self):
        return self.injective and self.surjective

    def to_json_dict(self):
        return {
            "orbit_count": self.orbit_count,
            "label_count": self.label_count,
            "injective": self.injective,
            "surjective": self.surjective,
            "bijective": self.bijective,
        }


def conway_parker_report(orbits):
    """Compare braid orbits with lifting labels (labels must be attached)."""
    if orbits.labels is None:
        raise InputError("orbit partition carries no lifting labels; supply a reduced cover")
    realized = set(orbits.labels)
    return ConwayParkerRecord(
        orbit_count=orbits.count,
        label_count=len(realized),
        injective=len(orbits.labels) == len(set(orbits.labels)),
        surjective=True,  # realized labels are by construction hit by orbits
    )


def mass_report(h, fiber_inn_size=None, fiber_aut_size=None, label_shares=None, kernel_order=None):
    """Asymptotic mass predictions against enumerated fiber sizes.

    Predicted |F| is prod |C_i|^nu_i / (|G'| |Inn G|), and the starred
    variant divides by |Aut(G, C)| instead; the refined per-label
    prediction splits |F| evenly across the reduced kernel.  Ratios are
    reported, not asserted: the formulas are asymptotic in min nu_i.
    """
    from .structure import aut_fixing_classes, automorphism_group

    group = h.group
    prod = 1
    for c, count in zip(h.classes, h.nu):
        prod *= c.size**count
    inn = group.order() // group.center().order()
    derived_order = group.derived_subgroup().order()
    aut_gc = aut_fixing_classes(automorphism_group(group), h.classes)
    predicted_inn = prod / (derived_order * inn)
    predicted_aut = prod / (derived_order * len(aut_gc.maps))
    out = {
        "predicted_fiber_inn": predicted_inn,
        "predicted_fiber_aut": predicted_aut,
    }
    if fiber_inn_size is not None:
        out["actual_fiber_inn"] = fiber_inn_size
        if fiber_inn_size:
            out["ratio_inn"] = predicted_inn / fiber_inn_size
        else:
            out["degenerate"] = True
    if fiber_aut_size is not None:
        out["actual_fiber_aut"] = fiber_aut_size
        if fiber_aut_size:
            out["ratio_aut"] = predicted_aut / fiber_aut_size
        else:
            out["degenerate"] = True
    if label_shares is not None and kernel_order:
        out["predicted_per_label"] = (
            (fiber_inn_size or predicted_inn) / kernel_order
        )
        out["label_shares"] = dict(label_shares)
    return out


# ---------------------------------------------------------------------------
# independent cross-check of the braid orbit computation


def _assignments(classes_counts):
    """All position-wise class words with the given multiset of counts."""
    out = []
    total = sum(classes_counts.values())

    def rec(prefix, counts):
        if len(prefix) == total:
            out.append(tuple(prefix))
            return
        for ci in sorted(counts):
            if counts[ci]:
                counts[ci] -= 1
                prefix.append(ci)
                rec(prefix, counts)
                prefix.pop()
                counts[ci] += 1

    rec([], dict(classes_counts))
    return out


def cross_check_braid_orbits(h, budget=None):
    """Verify block-subgroup orbits against the full braid group route.

    Enumerates every tuple whose class multiset matches the parameter (all
    position arrangements), computes the orbits of the full braid group on
    that superset, intersects them with the block-ordered tuples, and
    compares the partition with the direct block-preserving orbit
    computation.  Returns True or raises InternalCheckError.
    """
    from .nielsen import DEFAULT_TUPLE_BUDGET, apply_word_codes

    budget = budget or DEFAULT_TUPLE_BUDGET
    table = h.group.table()
    class_codes = _class_code_arrays(table, h.classes)
    counts = {ci: v for ci, v in enumerate(h.nu)}
    all_rows = []
    counter = {"visits": 0}
    for assign in _assignments(counts):
        rows = _dfs_enumerate(table, list(assign), class_codes, budget, counter)
        all_rows.append(rows)
    superset = np.concatenate(all_rows, axis=0)
    n = h.n
    keys = row_keys(superset, table.size)
    order = np.argsort(keys, kind="stable")
    superset = superset[order]
    keys = keys[order]
    m = len(superset)
    # full braid group generators sigma_1..sigma_{n-1} acting on the superset
    arrays = []
    for i in range(1, n):
        moved = apply_word_codes(superset, (i,), table)
        arrays.append(key_positions(keys, row_keys(moved, table.size)))
    rows = np.concatenate([np.arange(m)] * len(arrays))
    cols = np.concatenate(arrays)
    graph = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(m, m))
    _, comp = connected_components(graph, directed=False)
    # restrict to the block-ordered subset and compare with the direct route
    tuples = enumerate_tuples(h, budget=budget)
    direct_keys = row_keys(tuples.codes, table.size)
    restricted = comp[key_positions(keys, direct_keys)]
    sigma_words = braid_nu_generators(h.nu)
    direct_arrays = []
    for w in sigma_words:
        moved = apply_word_codes(tuples.codes, w.letters, table)
        direct_arrays.append(key_positions(direct_keys, row_keys(moved, table.size)))
    k = len(tuples.codes)
    rows2 = np.concatenate([np.arange(k)] * len(direct_arrays))
    cols2 = np.concatenate(direct_arrays)
    graph2 = coo_matrix((np.ones(len(rows2), dtype=np.int8), (rows2, cols2)), shape=(k, k))
    _, comp2 = connected_components(graph2, directed=False)
    # the two partitions of the block-ordered tuples must be identical
    pairing = {}
    for a, b in zip(restricted, comp2):
        a, b = int(a), int(b)
        if pairing.setdefault(a, b) != b:
            raise InternalCheckError("full braid route splits a block-route orbit")
    reverse = {}
    for a, b in pairing.items():
        if reverse.setdefault(b, a) != a:
            raise InternalCheckError("block route splits a full-braid orbit")
    return True

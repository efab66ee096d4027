"""Braid orbits on fibers, monodromy groups, and fullness certification.

The block-preserving braid generators act on a fiber through index
permutations; their orbits come from the shared orbit-label primitive
(`perms.orbit_labels`) over those index arrays, and the group they
generate is the monodromy group of the corresponding cover of
configuration spaces.  An action on a set X is full
when its image contains Alt(X); it is quasi-full when the image contains
the product of the alternating groups of all its orbits.  Alt(X) is
trivial for |X| <= 2, so orbits of size one or two are vacuously full;
asymptotic statements never meet them but small multiplicities do.

Fullness is proved first by Jordan's theorem: a primitive group containing
a cycle of prime length p <= |X| - 3 contains Alt(X), and the generators'
parities then decide between Alt(X) and Sym(X).  Orbits the witness does
not decide (imprimitive, of size 3 or 4, or without a witness within the
word budget) take the exact order of their restriction from a
deterministic Schreier-Sims stabilizer chain.

An action is quasi-full exactly when its order is the product of the
alternating orders of its orbits times 2^r, r the GF(2) rank of the
generators' per-orbit sign vectors, so quasi-fullness is one comparison
of orders (`quasi_fullness`).  When every orbit is full and the orbit
sizes >= 3 are pairwise different and all >= 5, the action is quasi-full
by Goursat and that product is its order; any other action on several
orbits takes its order from one chain on the whole fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isqrt, lcm, prod

import numpy as np

from .errors import InputError, InternalCheckError
from .nielsen import (
    braid_nu_generators,
    enumerate_tuples,
    induced_permutation_array,
    _enumerate_codes,
)
from .perms import (
    PermGroup,
    Permutation,
    RowIndex,
    SubgroupCloser,
    label_orbits,
    label_reps,
    orbit_labels,
    sorted_rows,
)

# generator products fullness_by_jordan_witness examines before giving up
_JORDAN_WORD_BUDGET = 4000


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


def _orbits_and_ids(arrays, n):
    """Orbits of index arrays on range(n), by least point, and each point's orbit id."""
    labels = orbit_labels(np.reshape(arrays, (len(arrays), n)))
    return label_orbits(labels), label_reps(labels)[1]


def braid_orbits(fiber, gen_arrays, lift_data=None):
    """Orbits of the generators' index arrays on the fiber, as an OrbitPartition.

    The orbits are those of `orbit_labels`, numbered by least point.
    """
    orbits, orbit_id = _orbits_and_ids(gen_arrays, len(fiber))
    members = [tuple(orbit.tolist()) for orbit in orbits]
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


# digits per piece of `decimal_digits`, below the interpreter's default
# limit of 4300 digits for converting an int to a string
_DECIMAL_PIECE = 4000


def decimal_digits(n):
    """The decimal digits of a nonnegative int, at any length.

    Python refuses str() of an int above 4300 digits unless the limit is
    raised for the whole process, which a library must not do; orders of
    full actions on 1559 or more points are that long.  The int is split
    by divmod into pieces below the limit, the lower ones zero-padded.
    """
    high, low = divmod(n, 10**_DECIMAL_PIECE)
    if not high:
        return str(low)
    return decimal_digits(high) + str(low).zfill(_DECIMAL_PIECE)


@dataclass
class OrbitVerdict:
    size: int
    group_order: int
    full: bool
    blocks: tuple | None = None  # an imprimitivity system, when one exists
    route: str = "chain"  # "jordan" (witness and parity) or "chain"; not serialized


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
            "group_order": decimal_digits(self.group_order),
            "per_orbit": [
                {
                    "size": v.size,
                    "order": decimal_digits(v.group_order),
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
    return words, list(induced_permutation_array(fiber, words))


def _restriction_perms(arrays, points):
    """Generator permutations restricted to an orbit, relabeled 0..k-1.

    `points` is the orbit's members in increasing order, so a member's
    place among them is its binary search position.  Each array is
    gathered at the members only, not copied whole, since a fiber has as
    many orbits to restrict to as it likes.
    """
    points = np.asarray(points)
    images = np.searchsorted(points, [np.asarray(arr)[points] for arr in arrays])
    return [Permutation(row) for row in images.tolist()]


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


def _primes_upto(n):
    """The primes p <= n, by a sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def _is_transitive(perms, size):
    """Whether the generators reach every point from point 0: every
    point's orbit label is 0."""
    step = np.array([g.images for g in perms], dtype=np.int64).reshape(len(perms), size)
    return not orbit_labels(step).any()


def fullness_by_jordan_witness(perms, size, primitive=None):
    """Fullness by transitivity, primitivity and a prime-cycle witness.

    Searches deterministic products of the generators for an element some
    power of which is a single p-cycle, p prime <= size - 3; inside a
    primitive group such an element forces the alternating group (Jordan).
    Returns True/False when conclusive, None when none of the first
    `_JORDAN_WORD_BUDGET` products is a witness.
    `primitive` is `_block_system(perms, size) is None` when the caller has
    already computed it; otherwise it is computed here.
    """
    if size <= 2:
        return True
    if not _is_transitive(perms, size):
        return False
    if primitive is None:
        primitive = _block_system(perms, size) is None
    if not primitive:
        return False
    primes = set(_primes_upto(size - 3))
    frontier = [Permutation.identity(size)]
    seen = {frontier[0].images}
    count = 0
    while frontier and count < _JORDAN_WORD_BUDGET:
        new = []
        for x in frontier:
            for g in perms:
                y = x * g
                if y.images in seen:
                    continue
                seen.add(y.images)
                count += 1
                ct = [c for c in y.cycle_type() if c > 1]
                for p in primes.intersection(ct):
                    if ct.count(p) == 1 and all(c == p or c % p for c in ct):
                        # the lcm of the other cycle lengths is prime to p,
                        # so that power of y is a single p-cycle
                        power = lcm(*(c for c in ct if c != p))
                        if [c for c in (y**power).cycle_type() if c > 1] == [p]:
                            return True
                new.append(y)
                if count >= _JORDAN_WORD_BUDGET:
                    break
            if count >= _JORDAN_WORD_BUDGET:
                break
        frontier = new
    return None


def _is_odd(perm):
    return sum(c - 1 for c in perm.cycle_type()) % 2


def _gf2_rank(vectors):
    """Rank over GF(2) of bit vectors given as ints."""
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def monodromy_group(fiber, gen_arrays=None, words=None, lift_data=None, mass=None):
    """Full monodromy report: orbits, exact group order, fullness verdicts.

    Each orbit is first tried by the Jordan witness on its restriction; a
    conclusive witness gives |X|! when some restricted generator is odd and
    |X|!/2 otherwise.  Any other orbit gets the exact order of its
    restriction from a stabilizer chain, and a non-full orbit additionally
    gets an imprimitivity system when one exists.  The group order comes
    by one of three routes: a single orbit reuses its own order; orbits
    that are all full, with pairwise different sizes >= 5 among those
    >= 3, are quasi-full by Goursat, so the order is the product of the
    alternating orders times 2^r, r the GF(2) rank of the generators'
    per-orbit sign vectors; any other action takes the order of one chain
    on the whole fiber.  `quasi_fullness` then compares that order with
    the product formula.
    """
    if gen_arrays is None:
        words, gen_arrays = fiber_generator_arrays(fiber, words)
    names = tuple(w.name for w in words) if words else tuple(f"g{i}" for i in range(len(gen_arrays)))
    n = len(fiber)
    orbits = braid_orbits(fiber, gen_arrays, lift_data)
    per_orbit = []
    sign_vectors = [0] * len(gen_arrays)
    for i, members in enumerate(orbits.orbit_members):
        size = len(members)
        sub_perms = _restriction_perms(gen_arrays, members)
        odd = [_is_odd(g) for g in sub_perms]
        for j, bit in enumerate(odd):
            sign_vectors[j] |= bit << i
        blocks = _block_system(sub_perms, size)
        if fullness_by_jordan_witness(sub_perms, size, primitive=blocks is None):
            route = "jordan"
            sub_order = factorial(size) if any(odd) else max(1, factorial(size) // 2)
        else:
            route = "chain"
            sub_order = PermGroup(size, sub_perms).order()
        is_full = full_by_order(size, sub_order)
        per_orbit.append(
            OrbitVerdict(
                size=size,
                group_order=sub_order,
                full=is_full,
                blocks=blocks,  # None on full orbits: Alt(X) is primitive
                route=route,
            )
        )
    sign_rank = _gf2_rank(sign_vectors)
    degrees = [v.size for v in per_orbit if v.size >= 3]
    if orbits.count == 1:
        order = per_orbit[0].group_order
    elif (
        all(v.full for v in per_orbit)
        and min(degrees, default=5) >= 5
        and len(set(degrees)) == len(degrees)
    ):
        order = _quasi_full_order(per_orbit, sign_rank)
    else:
        order = _fiber_group(gen_arrays).order()
    quasi = quasi_fullness(per_orbit, order, sign_rank)
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


def _fiber_group(arrays):
    """The group generated by index arrays, on all of their points."""
    return PermGroup(
        len(arrays[0]), [Permutation(int(x) for x in arr) for arr in arrays], name="monodromy"
    )


def _quasi_full_order(per_orbit, sign_rank):
    """2^r times the order of the product of the orbit alternating groups."""
    return prod(max(1, factorial(v.size) // 2) for v in per_orbit) * 2**sign_rank


def quasi_fullness(per_orbit, order, sign_rank):
    """Whether a group of this order contains the product of its orbit
    alternating groups.

    Let G act on X, the disjoint union of its orbits X_1..X_m, and let
    sigma: G -> F_2^m send g to its signs on the orbits.  sigma is a
    homomorphism whose image is spanned by the generators' sign vectors,
    so it has order 2^r with r = `sign_rank`, their GF(2) rank.  Its
    kernel is G intersected with the product P of the Alt(X_i), so
    |G| = 2^r |ker sigma| <= 2^r |P|, with equality exactly when G contains
    P.  The test assumes nothing about the orbits; on a single orbit it is
    `full_by_order`.  Alt(X_i) is trivial for |X_i| <= 2.

    When every orbit is full and the orbits of size >= 3 have pairwise
    different sizes >= 5, G contains P without a chain: the perfect core
    of G maps onto each A_n and trivially on orbits of size <= 2, and a
    subdirect product of pairwise non-isomorphic nonabelian simple groups
    is their direct product (Goursat).  `monodromy_group` then takes the
    order from the formula, and the test holds by construction.
    """
    return order == _quasi_full_order(per_orbit, sign_rank)


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
    table = group.table()
    inn = table.size // table.center_order()
    derived_order = len(table.closure_codes(table.derived_gen_codes()))
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
    """All position-wise class words with the given multiset of counts, in
    lexicographic order (each word's successor by the next-permutation step)."""
    word = [ci for ci in sorted(classes_counts) for _ in range(classes_counts[ci])]
    out = [tuple(word)]
    while True:
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])
        out.append(tuple(word))


def cross_check_braid_orbits(h, budget=None):
    """Verify block-subgroup orbits against the full braid group route.

    Enumerates every tuple whose class multiset matches the parameter (all
    position arrangements), computes the orbits of the full braid group on
    that superset, intersects them with the block-ordered tuples, and
    compares the partition with the direct block-preserving orbit
    computation.  Returns True or raises InternalCheckError.
    """
    from .nielsen import DEFAULT_TUPLE_BUDGET, apply_word_codes

    if budget is None:
        budget = DEFAULT_TUPLE_BUDGET
    table = h.group.table()
    class_codes = [c.codes for c in h.classes]
    counts = {ci: v for ci, v in enumerate(h.nu)}
    all_rows = []
    counter = {"visits": 0}
    closer = SubgroupCloser(table)
    for assign in _assignments(counts):
        rows = _enumerate_codes(table, list(assign), class_codes, budget, counter, closer)
        all_rows.append(rows)
    superset = sorted_rows(np.concatenate(all_rows, axis=0))
    index = RowIndex(superset, table.size)
    n = h.n
    # full braid group generators sigma_1..sigma_{n-1} acting on the superset
    arrays = [index.positions(apply_word_codes(superset, (i,), table)) for i in range(1, n)]
    full = orbit_labels(np.reshape(arrays, (n - 1, len(superset))))
    # restrict to the block-ordered subset and compare with the direct route
    tuples = enumerate_tuples(h, budget=budget)
    restricted = full[index.positions(tuples.codes)]
    direct_arrays = [
        tuples.positions(apply_word_codes(tuples.codes, w.letters, table))
        for w in braid_nu_generators(h.nu)
    ]
    block = orbit_labels(np.reshape(direct_arrays, (len(direct_arrays), len(tuples))))
    # the two partitions of the block-ordered tuples must be identical: the
    # distinct (full, block) label pairs are as many as either label alone
    pairs = np.unique(restricted.astype(np.int64) * len(superset) + block)
    if len(np.unique(pairs // len(superset))) != len(pairs):
        raise InternalCheckError("full braid route splits a block-route orbit")
    if len(np.unique(pairs % len(superset))) != len(pairs):
        raise InternalCheckError("block route splits a full-braid orbit")
    return True

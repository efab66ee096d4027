"""Central extensions, commutator pairings, class kinds, lifting invariants.

A stem extension of G is a central extension pi: G~ -> G whose kernel lies
in the derived subgroup of G~; one of maximal order is a Schur cover, and
its kernel realizes the Schur multiplier.  Covers are supplied as data
(permutation generators plus their images) and fully verified on load;
this package never computes multipliers from scratch.

For commuting x, y in G the commutator of arbitrary lifts is a
well-defined kernel element <x, y>; collecting <g, z> over g in a class C_i
and z centralizing g (optionally restricted to the derived subgroup) spans
the obstruction subgroups whose comparison is the homological condition
("condition E") appearing in the full-monodromy analysis.  Quotienting the
cover by the full obstruction subgroup of a class list produces the
reduced cover, in which every listed class splits completely, and which
hosts the lifting invariant of Nielsen tuples: multiply the designated
lifts of the entries; the resulting kernel element is constant on braid
orbits and on conjugation orbits.

Cover-side computations run on dense code tables.  A cover is held as the
GroupTable of its permutation group.  A reduced cover, the quotient by a
central subgroup, gets its GroupTable arithmetically from the parent's;
its elements are the permutations of the cosets by right multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError,
    InternalCheckError,
    UnsupportedConfigurationError,
)
from .perms import GroupTable, PermGroup, Permutation, label_orbits, orbit_labels
from .structure import _hom_closure, is_ambiguous, is_pseudosimple


@dataclass(frozen=True)
class KernelSubgroup:
    """A subgroup of a cover kernel, as sorted element codes."""

    codes: tuple

    @property
    def order(self):
        return len(self.codes)

    def __contains__(self, code):
        return int(code) in set(self.codes)

    def __repr__(self):
        return f"KernelSubgroup(order={len(self.codes)})"


class CentralExtension:
    """A verified central extension pi: cover -> base with central kernel.

    `table` is the GroupTable of the cover; `proj` sends cover codes to base
    codes.  Verification failures raise InputError naming the broken
    invariant.
    """

    def __init__(self, table, base_group, proj, name=None):
        self.table = table
        self.base_group = base_group
        self.proj = proj
        self.name = name
        base_identity = base_group.table().identity
        self.kernel_codes = tuple(
            int(c) for c in np.nonzero(proj == base_identity)[0]
        )
        self._lift = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_generators(cls, cover_gens, image_gens, base_group, name=None):
        """Build and verify an extension from matched generator lists."""
        if len(cover_gens) != len(image_gens):
            raise InputError("cover and image generator lists have different lengths")
        degree = cover_gens[0].degree if cover_gens else 1
        ct = PermGroup(degree, cover_gens).table()
        bt = base_group.table()
        # identity generators on the cover side are dropped by PermGroup; keep
        # the projection pairs aligned on the originals
        pairs = []
        for cg, ig in zip(cover_gens, image_gens):
            if ig.degree != base_group.degree:
                raise InputError("image generator degree does not match the base group")
            if not cg.is_identity():
                pairs.append((ct.code(cg), bt.code(ig)))
            elif not ig.is_identity():
                raise InputError("projection is not a homomorphism")
        proj = _hom_closure(ct, bt, [g for g, _ in pairs], [f for _, f in pairs])
        if proj is None:
            raise InputError("projection is not a homomorphism")
        ext = cls(ct, base_group, proj, name=name)
        ext.verify()
        return ext

    def verify(self):
        table = self.table
        if len(set(int(p) for p in self.proj)) != self.base_group.order():
            raise InputError("projection not surjective")
        kernel = np.array(self.kernel_codes, dtype=np.int64)
        gens = np.array(table.gen_codes, dtype=np.int64)
        if not np.array_equal(table.mul[np.ix_(kernel, gens)], table.mul[np.ix_(gens, kernel)].T):
            raise InputError("kernel not central")
        derived = set(table.closure_codes(table.derived_gen_codes()))
        if not set(self.kernel_codes) <= derived:
            raise InputError("stem condition violated: kernel not inside derived subgroup")

    # -- basic queries ---------------------------------------------------------

    @property
    def size(self):
        return self.table.size

    def kernel_order(self):
        return len(self.kernel_codes)

    def kernel_subgroup(self, codes):
        return KernelSubgroup(tuple(sorted(int(c) for c in set(codes))))

    def lift_code(self, base_code):
        """Code of the lexicographically least preimage of a base element;
        an array of base codes gives an array of lifts."""
        if self._lift is None:
            # proj is onto (verified), so the first index of each base code
            # is its least preimage
            _, self._lift = np.unique(self.proj, return_index=True)
        return self._lift[base_code]

    def lift_commutator(self, x, y):
        """Code of [x~, y~] for the least lifts of base codes x and y; y may
        be an array of base codes."""
        return self.table.commutator(self.lift_code(x), self.lift_code(y))

    def preimage_codes(self, base_codes):
        mask = np.isin(self.proj, np.asarray(list(base_codes), dtype=np.int64))
        return [int(c) for c in np.nonzero(mask)[0]]

    def __repr__(self):
        label = self.name or f"|cover|={self.size}"
        return (
            f"CentralExtension({label} -> {self.base_group!r},"
            f" |Z|={len(self.kernel_codes)})"
        )


# ---------------------------------------------------------------------------
# pairings and obstruction subgroups


def commutator_pairing(ext, x, y):
    """<x, y>: the kernel element [x~, y~] for arbitrary lifts of commuting x, y."""
    bt = ext.base_group.table()
    cx, cy = bt.code(x), bt.code(y)
    if int(bt.mul[cx, cy]) != int(bt.mul[cy, cx]):
        raise InputError("commutator pairing requires commuting elements")
    comm = ext.lift_commutator(cx, cy)
    if comm not in set(ext.kernel_codes):
        raise InternalCheckError("commutator of lifts landed outside the kernel")
    return ext.table.perm(comm)


def _pairings(ext, g):
    """Codes z of the centralizer of the base code g, and the kernel codes <g, z>."""
    zs = ext.base_group.table().centralizer_codes(g)
    return zs, ext.lift_commutator(g, zs)


def _pairing_codes(ext, class_rep_code, derived_only):
    """Kernel codes <g, z> for one class representative over its centralizer."""
    zs, comms = _pairings(ext, int(class_rep_code))
    if derived_only:
        # the derived subgroup is the identity coset of G'
        comms = comms[ext.base_group.abelianization().labels[zs] == 0]
    return set(comms.tolist())


def obstruction_subgroups(ext, classes):
    """(full, derived-restricted) pairing subgroups of the kernel for a class list.

    The full subgroup collects <g, z> over one representative per class and
    all centralizing z; the primed variant restricts z to the derived
    subgroup.  Both are returned as KernelSubgroups; the choice of class
    representative does not matter (a tested property).
    """
    bt = ext.base_group.table()
    full = set()
    primed = set()
    for c in classes:
        rep = bt.code(c.representative)
        full |= _pairing_codes(ext, rep, derived_only=False)
        primed |= _pairing_codes(ext, rep, derived_only=True)
    full_closed = ext.table.closure_codes(sorted(full))
    primed_closed = ext.table.closure_codes(sorted(primed))
    return ext.kernel_subgroup(full_closed), ext.kernel_subgroup(primed_closed)


# ---------------------------------------------------------------------------
# reduced covers


def reduce_cover(ext, classes):
    """Quotient of the cover by the full obstruction subgroup of the classes.

    Its table is induced on the cosets of the factored central subgroup;
    afterwards every listed class splits completely, which is verified (and
    an InternalCheckError if not).
    """
    full, _ = obstruction_subgroups(ext, classes)
    if full.order == 1:
        return ext
    reduced = _central_quotient(ext, full.codes)
    # post-verification: every listed class splits fully in the reduced cover
    expected = reduced.kernel_order()
    for c in classes:
        kind_counts = _preimage_counts(reduced, c)
        if kind_counts[0] != expected:
            raise InternalCheckError(
                "reduced cover failed to split class "
                f"{c.representative}: {kind_counts[0]} classes above it"
            )
    return reduced


def _central_quotient(ext, h_codes):
    """Quotient extension cover/H for a central subgroup H given by codes.

    Coset c is numbered by its least code, and its element is the
    permutation mul[:, c] by which right multiplication moves the cosets;
    this action is faithful for the quotient group.
    """
    ct = ext.table
    # row c of mul over the codes of H is the coset cH; its least code names it
    reps, coset_of = np.unique(ct.mul[:, sorted(set(h_codes))].min(axis=1), return_inverse=True)
    reps = reps.astype(np.int64)
    q_mul = coset_of[ct.mul[np.ix_(reps, reps)]].astype(ct.mul.dtype)
    q_inv = coset_of[ct.inv[reps]].astype(ct.mul.dtype)
    table = GroupTable.from_arrays(q_mul, q_inv, coset_of[ct.identity], coset_of[ct.gen_codes])
    quotient = CentralExtension(
        table, ext.base_group, ext.proj[reps], name=f"{ext.name or 'cover'} reduced"
    )
    quotient.verify()
    return quotient


# ---------------------------------------------------------------------------
# class kinds


@dataclass(frozen=True)
class ClassKind:
    kind: str  # split | mixed | inert | ambiguous
    lifted_class_count: int | None = None
    derived_orbit_count: int | None = None


def _preimage_counts(ext, conj_class):
    """(cover classes, cover-derived orbits) above a base class."""
    if conj_class.table is not ext.base_group.table():
        raise InputError("class does not belong to the extension's base group")
    pre = ext.preimage_codes(conj_class.codes)
    ct = ext.table
    return np.unique(ct.class_id[pre]).size, len(ct.derived_orbits(pre))


def check_split_pp(ext):
    """Verify |G^ab| = |Z| = p prime and that G -> G^ab splits; return p."""
    base = ext.base_group
    ab = base.abelianization()
    p = ab.size
    if p < 2 or any(p % d == 0 and d not in (1, p) for d in range(2, p)):
        raise UnsupportedConfigurationError(
            f"base abelianization has order {p}, not a prime"
        )
    if ext.kernel_order() != p:
        raise UnsupportedConfigurationError(
            f"kernel order {ext.kernel_order()} differs from |G^ab| = {p}"
        )
    if not _surjection_splits(base):
        raise UnsupportedConfigurationError(
            "the map onto the abelianization does not split"
        )
    return p


def _surjection_splits(base):
    """True when G -> G^ab has a section (G^ab cyclic of order k here)."""
    ab = base.abelianization()
    k = ab.size
    if k == 1:
        return True
    if len(ab.invariant_factors()) > 1:
        return False
    label_orders = np.array([ab.element_order(a) for a in range(k)])
    generates = label_orders[ab.labels] == k
    return bool((generates & (base.table().order_of == k)).any())


def classify_class(ext, conj_class):
    """Split / mixed / inert / ambiguous for a class of a split-p-p base group.

    Ambiguous classes are reported as such with no cover analysis.  For the
    rest: split means the preimage is p cover classes; mixed means one
    cover class but p derived-subgroup orbits; inert means one of each.
    """
    p = check_split_pp(ext)
    base = ext.base_group
    if is_ambiguous(base, conj_class):
        return ClassKind(kind="ambiguous")
    s, t = _preimage_counts(ext, conj_class)
    if s == p:
        kind = "split"
    elif t == p:
        kind = "mixed"
    else:
        kind = "inert"
    return ClassKind(kind=kind, lifted_class_count=s, derived_orbit_count=t)


def sd_partition_rule(cycle_type):
    """Class kind of a symmetric-group class from its cycle partition.

    Reads the number of even parts e and whether all parts are distinct:
    all distinct with e = 0 is ambiguous, with e even is mixed, with e odd
    is split; repeated parts give split when e = 0 and inert otherwise.
    """
    parts = tuple(cycle_type)
    e = sum(1 for part in parts if part % 2 == 0)
    distinct = len(set(parts)) == len(parts)
    if distinct:
        if e == 0:
            return "ambiguous"
        return "mixed" if e % 2 == 0 else "split"
    return "split" if e == 0 else "inert"


# ---------------------------------------------------------------------------
# condition E


@dataclass(frozen=True)
class ConditionEResult:
    holds: bool
    full_order: int
    primed_order: int
    witness: tuple | None = None  # (class index, g, z, pairing value)

    def __bool__(self):
        return self.holds


def condition_e(ext, classes):
    """Whether the full and derived-restricted obstruction subgroups agree.

    Preconditions (checked): all classes unambiguous; the base group
    pseudosimple with cyclic abelianization and split projection onto it.
    On failure a witness pairing <g, z> lying outside the primed subgroup
    is returned.
    """
    base = ext.base_group
    for i, c in enumerate(classes):
        if is_ambiguous(base, c):
            raise UnsupportedConfigurationError(
                f"class #{i} ({c.representative}) is ambiguous"
            )
    verdict = is_pseudosimple(base)
    if not verdict.pseudosimple:
        raise UnsupportedConfigurationError(
            f"base group not pseudosimple: {verdict.reason}"
        )
    ab = base.abelianization()
    if len(ab.invariant_factors()) > 1:
        raise UnsupportedConfigurationError("abelianization is not cyclic")
    if not _surjection_splits(base):
        raise UnsupportedConfigurationError(
            "the map onto the abelianization does not split"
        )
    full, primed = obstruction_subgroups(ext, classes)
    if full.codes == primed.codes:
        return ConditionEResult(True, full.order, primed.order)
    witness = _find_witness(ext, classes, primed.codes)
    return ConditionEResult(False, full.order, primed.order, witness)


def _find_witness(ext, classes, primed_codes):
    bt = ext.base_group.table()
    for i, c in enumerate(classes):
        g = bt.code(c.representative)
        zs, comms = _pairings(ext, g)
        outside = np.nonzero(~np.isin(comms, primed_codes))[0]
        if outside.size:
            j = outside[0]
            return (i, bt.perm(g), bt.perm(zs[j]), ext.table.perm(comms[j]))
    raise InternalCheckError("subgroups differ but no witness pairing found")


def condition_e_by_kinds(kinds):
    """Classification route: fails exactly when no inert and at least one mixed kind."""
    names = [k.kind for k in kinds]
    if "ambiguous" in names:
        raise UnsupportedConfigurationError("ambiguous class in kind list")
    return not ("inert" not in names and "mixed" in names)


# ---------------------------------------------------------------------------
# lifting invariants


@dataclass(frozen=True)
class InvariantLabel:
    """A lifting-invariant value: a kernel element of the reduced cover."""

    value: Permutation
    index: int  # position of the value in the sorted kernel
    chosen_lifts: tuple  # per class: the designated lift of its representative

    def __repr__(self):
        return f"InvariantLabel({self.index})"


class LiftData:
    """Designated lifts for a parameter in a reduced cover.

    The chosen lifted class of C_i is the cover class containing the
    lexicographically least preimage of the stored representative.  Every
    element of C_i has exactly one preimage in it when the cover is reduced
    for the classes; a repeated or missing preimage raises InputError
    ("extension not reduced").
    """

    def __init__(self, ext, h):
        bt = h.group.table()
        if ext.base_group is not h.group:
            raise InputError("extension base group differs from the parameter's group")
        self.ext = ext
        self.h = h
        ct = ext.table
        lift_of = np.full(bt.size, -1, dtype=np.int64)
        chosen = []
        for c in h.classes:
            least = int(ext.lift_code(bt.code(c.representative)))
            pre = np.array(ext.preimage_codes(c.codes), dtype=np.int64)
            # the cover class of the least preimage, among the preimages
            orbit = pre[ct.class_id[pre] == ct.class_id[least]]
            chosen.append(ct.perm(least))
            seen_base = set()
            for xc in orbit.tolist():
                b = int(ext.proj[xc])
                if b in seen_base:
                    raise InputError(
                        "extension not reduced: repeated preimage in chosen lift class"
                    )
                seen_base.add(b)
                if lift_of[b] != -1 and lift_of[b] != xc:
                    raise InputError(
                        "extension not reduced: conflicting lifts across classes"
                    )
                lift_of[b] = xc
            if len(seen_base) != c.size:
                raise InputError(
                    "extension not reduced: chosen lift class misses elements"
                )
        self.lift_of = lift_of
        self.chosen = tuple(chosen)
        self.kernel_sorted = np.sort(np.array(ext.kernel_codes, dtype=np.int64))

    def label_codes_for_rows(self, rows):
        """Kernel label index per row of an (N, n) base-code array."""
        lifted = self.lift_of[rows]
        if (lifted < 0).any():
            raise InputError("tuple entry outside the parameter's classes")
        ct = self.ext.table
        acc = np.full(len(rows), ct.identity, dtype=np.int64)
        for j in range(rows.shape[1]):
            acc = ct.mul[acc, lifted[:, j]].astype(np.int64)
        out = np.searchsorted(self.kernel_sorted, acc)
        found = self.kernel_sorted[np.minimum(out, len(self.kernel_sorted) - 1)]
        if (found != acc).any():
            raise InternalCheckError("lift product landed outside the kernel")
        return out

    def label_of_tuple(self, t):
        bt = self.h.group.table()
        row = np.array([[bt.code(g) for g in t]], dtype=np.int64)
        idx = int(self.label_codes_for_rows(row)[0])
        return InvariantLabel(
            value=self.ext.table.perm(self.kernel_sorted[idx]),
            index=idx,
            chosen_lifts=self.chosen,
        )


def lifting_invariant(ext_reduced, h, t):
    """The lifting invariant of one Nielsen tuple in a reduced cover."""
    return LiftData(ext_reduced, h).label_of_tuple(t)


# ---------------------------------------------------------------------------
# outer action on labels


@dataclass
class LabelOrbitReport:
    realized: tuple  # sorted realized label indices
    label_orbits: tuple  # tuple of tuples: orbits of realized labels
    stabilizer_orders: dict  # label index -> |Out(G,C)_label|
    maps: tuple  # per automorphism: label map over kernel indices (unrealized fixed)


def out_action_on_labels(ext_reduced, h, aut, fiber, labels=None):
    """Action of Aut(G, C) on realized lifting labels, with stabilizer sizes.

    Each automorphism is applied entrywise to every fiber representative;
    the induced label map must be single-valued (anything else raises
    InternalCheckError).  Returns label orbits and, per label, the order of
    its stabilizer in the outer group.
    """
    lift = LiftData(ext_reduced, h)
    base_labels = labels
    if base_labels is None:
        base_labels = lift.label_codes_for_rows(fiber.rows)
    base_labels = np.asarray(base_labels, dtype=np.int64)
    realized = np.unique(base_labels)
    maps = []
    for a in aut.maps:
        moved = a.element_map[fiber.rows].astype(np.int64)
        new_labels = lift.label_codes_for_rows(moved)
        label_map = np.arange(len(lift.kernel_sorted))
        label_map[base_labels] = new_labels
        if (label_map[base_labels] != new_labels).any():
            raise InternalCheckError(
                "automorphism induces an ill-defined label map"
            )
        if a.inner and (label_map[realized] != realized).any():
            raise InternalCheckError("inner automorphism moved a lifting label")
        maps.append(label_map)
    step = np.array(maps, dtype=np.int64).reshape(len(maps), len(lift.kernel_sorted))
    orbits = label_orbits(orbit_labels(step), realized)
    fixed = (step[:, realized] == realized).sum(axis=0)
    return LabelOrbitReport(
        realized=tuple(realized.tolist()),
        label_orbits=tuple(tuple(orbit.tolist()) for orbit in orbits),
        stabilizer_orders={
            int(l): int(count) // aut.inner_count for l, count in zip(realized, fixed)
        },
        maps=tuple(maps),
    )

"""Hurwitz parameters, Nielsen tuples, the braid action, and fibers.

A Hurwitz parameter is a triple (G, C, nu): a finite permutation group, an
ordered list of distinct nonidentity conjugacy classes that together
generate G, and positive multiplicities nu with the class product condition
prod [C_i]^nu_i = 1 in G^ab.  The tuple set attached to it consists of the
n-tuples (n = sum nu_i) whose block-i entries lie in C_i, whose ordered
product is the identity, and which generate G.

The braid group on n strands acts by sigma_i: (g_i, g_{i+1}) |->
(g_{i+1}, g_{i+1}^-1 g_i g_{i+1}); the subgroup preserving the block
structure is generated by the interior sigma_i together with the band
generators A_ij = (sigma_{j-1}..sigma_{i+1}) sigma_i^2
(sigma_{i+1}^-1..sigma_{j-1}^-1).

Tuples are enumerated level by level over numpy code arrays: the prefixes
of the first n-2 positions grow one position at a time across the whole
frontier, pruned by reachable-product masks and by a SubgroupCloser (whose
memo stores each closure <H, c> for the whole double coset HcH), and the
last two positions come from joining the leaves with the (a, b) pairs of
the last two classes sorted by product a*b.

The tuple set is kept sorted, so the lexicographically least tuple of any
orbit is the orbit's least index.  Fibers are tuple sets modulo Inn(G) or
Aut(G, C).  Every Inn(G)-orbit holds tuples whose first entry is x0, the
least code of position 0's class C0, and those tuples lead the sorted set:
the slice, N / |C0| rows.  An orbit meets the slice in one orbit of the
centralizer C_G(x0) acting by conjugation, and holds its least tuple
there.  So the inn fiber maps only the slice, by a few generators of
C_G(x0), and locates the images in a prefix-rank index over the slice's
rows (`perms.RowIndex`, one gather per column); the orbits of those index
arrays give every slice row the least index of its orbit, and the points
are the rows whose label is their own index.  Any other tuple is first
conjugated into the slice by a table of conjugators.  The aut fiber is the
same construction one level up: the outer generators of Aut(G, C) move the
inn points' rows, the moved rows are read back as inn points, and their
orbits on the inn points give the aut points.  A braid word moves the
points' rows, and the moved rows are located the same way and read off as
points.  Hot paths run on numpy code arrays in the table's code dtype;
tuples are exposed as objects at the API boundary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InputError, InternalCheckError
from .perms import (
    _CANON_CHUNK,
    ConjugacyClass,
    Permutation,
    RowIndex,
    SubgroupCloser,
    conjugation_maps,
    label_reps,
    orbit_labels,
    sorted_rows,
)

DEFAULT_TUPLE_BUDGET = 10**8
# candidates expanded per gather during enumeration, so a level's temporary
# arrays stay a few MiB however many tuples the parameter has
_LEVEL_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# parameters


class HurwitzParameter:
    """A validated (G, C, nu) triple; see validate_parameter."""

    def __init__(self, group, classes, nu):
        self.group = group
        self.classes = tuple(classes)
        self.nu = tuple(nu)
        self.n = sum(self.nu)

    @property
    def r(self):
        return len(self.classes)

    def position_class_indices(self):
        """Class index (into self.classes) of every tuple position."""
        out = []
        for ci, count in enumerate(self.nu):
            out.extend([ci] * count)
        return out

    def block_spans(self):
        """(start, stop) position span of each block."""
        spans = []
        pos = 0
        for count in self.nu:
            spans.append((pos, pos + count))
            pos += count
        return spans

    def search_size_estimate(self):
        """prod |C_i|^nu_i / |C_last|, the prefix count before pruning."""
        est = 1
        for c, count in zip(self.classes, self.nu):
            est *= c.size**count
        sizes = sorted(c.size for c in self.classes)
        return est // sizes[-1]

    def __repr__(self):
        types = ",".join("".join(map(str, c.cycle_type())) for c in self.classes)
        return f"HurwitzParameter({self.group!r}, classes=[{types}], nu={list(self.nu)})"


def validate_classes(group, classes):
    """Shared checks for class lists: membership, distinctness, nonidentity."""
    seen = set()
    for i, c in enumerate(classes):
        if not isinstance(c, ConjugacyClass) or c.table is not group.table():
            raise InputError(f"class #{i} is not a conjugacy class of the given group")
        if c.representative.is_identity():
            raise InputError(f"class #{i} is the identity class")
        if c.representative.images in seen:
            raise InputError(f"class #{i} appears more than once")
        seen.add(c.representative.images)


def validate_parameter(group, classes, nu):
    """Build a HurwitzParameter, or raise InputError naming the violated invariant."""
    classes = tuple(classes)
    nu = tuple(nu)
    if len(classes) != len(nu):
        raise InputError("classes and nu have different lengths")
    if not classes:
        raise InputError("at least one class is required")
    if any(int(v) != v or v < 1 for v in nu):
        raise InputError("nu entries must be positive integers")
    validate_classes(group, classes)
    # a union of classes is closed under conjugation, so it generates a normal subgroup
    table = group.table()
    if len(table.closure_codes(np.concatenate([c.codes for c in classes]))) != table.size:
        raise InputError("classes do not generate the group")
    ab = group.abelianization()
    acc = 0
    for c, count in zip(classes, nu):
        lbl = ab.class_label(c)
        for _ in range(count % ab.element_order(lbl) if lbl else 0):
            acc = ab.multiply(acc, lbl)
    if acc != 0:
        raise InputError("nu not allowed: class product is nontrivial in the abelianization")
    return HurwitzParameter(group, classes, nu)


# ---------------------------------------------------------------------------
# tuples and the braid action


class NielsenTuple:
    """An immutable tuple of group elements; the points braid groups move."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, NielsenTuple) and self.entries == other.entries

    def __lt__(self, other):
        return self.entries < other.entries

    def __hash__(self):
        return hash(self.entries)

    def product(self):
        acc = Permutation.identity(self.entries[0].degree)
        for g in self.entries:
            acc = acc * g
        return acc

    def conjugate_by(self, h):
        return NielsenTuple(g.conjugate_by(h) for g in self.entries)

    def __repr__(self):
        return "NielsenTuple(%s)" % ", ".join(str(g) for g in self.entries)


def apply_sigma(t, i, inverse=False):
    """Braid generator sigma_i (1-based, 1 <= i <= n-1) applied to a tuple.

    sigma_i replaces (g_i, g_{i+1}) by (g_{i+1}, g_{i+1}^-1 g_i g_{i+1});
    the inverse replaces it by (g_i g_{i+1} g_i^-1, g_i).  Defined on any
    tuple; preserves the ordered product and the generated subgroup.
    """
    n = len(t)
    if not 1 <= i <= n - 1:
        raise InputError(f"sigma index {i} out of range for tuple length {n}")
    a, b = t[i - 1], t[i]
    entries = list(t.entries)
    if not inverse:
        entries[i - 1] = b
        entries[i] = a.conjugate_by(b)
    else:
        entries[i - 1] = b.conjugate_by(a.inverse())
        entries[i] = a
    return NielsenTuple(entries)


@dataclass(frozen=True)
class BraidWord:
    """A word in the sigma generators: letter +i is sigma_i, -i its inverse."""

    letters: tuple
    name: str
    n: int

    def inverse(self):
        return BraidWord(tuple(-l for l in reversed(self.letters)), self.name + "^-1", self.n)

    def apply(self, t):
        for letter in self.letters:
            t = apply_sigma(t, abs(letter), inverse=letter < 0)
        return t

    def __repr__(self):
        return f"BraidWord({self.name})"


def braid_nu_generators(nu):
    """Generators of the block-preserving braid subgroup for multiplicities nu.

    Returns the interior sigma_i (both strands inside one block) together
    with all band generators A_ij, 1 <= i < j <= n.  The pure braids A_ij
    plus the interior transposition lifts generate the full preimage of the
    Young subgroup, so every returned word maps the tuple set of any
    parameter with these multiplicities to itself.
    """
    n = sum(nu)
    words = []
    pos = 0
    for count in nu:
        for i in range(pos + 1, pos + count):
            words.append(BraidWord((i,), f"sigma_{i}", n))
        pos += count
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            conj = tuple(range(j - 1, i, -1))
            letters = conj + (i, i) + tuple(-k for k in reversed(conj))
            words.append(BraidWord(letters, f"A_{i}_{j}", n))
    return words


# ---------------------------------------------------------------------------
# enumeration


class NielsenTupleSet:
    """The full tuple set of a parameter, stored as an (N, n) code array.

    The rows are sorted on construction.  `index`, a `RowIndex` over all
    of them, gives any row's position; it is built on first use, and
    fibers never use it (they index only their slice).
    """

    def __init__(self, h, codes, visits):
        self.h = h
        self.table = h.group.table()
        self.codes = sorted_rows(codes)
        self.visits = visits

    @functools.cached_property
    def index(self):
        return RowIndex(self.codes, self.table.size)

    def __len__(self):
        return len(self.codes)

    def tuple_at(self, i):
        return NielsenTuple(self.table.perm(c) for c in self.codes[i])

    def __iter__(self):
        for i in range(len(self.codes)):
            yield self.tuple_at(i)

    def __contains__(self, t):
        if len(t) != self.codes.shape[1]:
            return False
        try:
            self.positions(np.array([[self.table.code(g) for g in t]]))
        except InternalCheckError:
            return False
        return True

    def positions(self, rows):
        """Indices of code rows in the tuple set; every row must be in it."""
        return self.index.positions(rows)


def _count_visits(counter, visits, budget):
    counter["visits"] += visits
    if counter["visits"] > budget:
        # the visit that crossed the budget is the last one counted
        counter["visits"] = budget + 1
        raise BudgetError(
            "tuple enumeration budget exhausted",
            consumed=counter["visits"],
            budget=budget,
        )


def _per_subgroup(sids, test):
    """test(sid) for every entry of an int64 array of subgroup ids, once per id."""
    present = np.flatnonzero(np.bincount(sids))
    verdict = np.zeros(len(present) and present[-1] + 1, dtype=bool)
    verdict[present] = [test(s) for s in present.tolist()]
    return verdict[sids]


def _enumerate_codes(table, pos_class, class_codes, budget, counter, closer):
    """Tuples with prescribed class per position, product one, generating.

    The prefixes of the first n-2 positions are expanded one position at a
    time over the whole frontier, in chunks of about `_LEVEL_CHUNK`
    candidates.  A candidate survives when the remaining positions can
    still complete its product to one (the reachable-product masks) and
    when the remaining classes can still complete its subgroup to the whole
    group (`closer`, called once per distinct (subgroup, code) pair and
    once per distinct new subgroup).  Each surviving prefix and the root
    count as one visit in `counter`; BudgetError is raised as soon as the
    count exceeds the budget.  The last two positions come from a join of
    the leaves with a table of (a, b) pairs sorted by product a*b, and a
    leaf whose subgroup H is not yet the group needs only <H, a>, since
    prefix*a*b = 1 puts b in it.  Returns the rows in lexicographic order,
    as an (N, n) array in the table's code dtype.
    """
    n = len(pos_class)
    mul, inv = table.mul, table.inv
    m = table.size
    if n == 1:
        return np.empty((0, 1), dtype=mul.dtype)

    # reachable[k][x]: x is a product of one element from each position k..n-1
    reachable = [None] * (n + 1)
    mask = np.zeros(m, dtype=bool)
    mask[table.identity] = True
    reachable[n] = mask
    for k in range(n - 1, -1, -1):
        prev = np.nonzero(reachable[k + 1])[0]
        prods = mul[np.ix_(class_codes[pos_class[k]], prev)]
        mask = np.zeros(m, dtype=bool)
        mask[np.unique(prods)] = True
        reachable[k] = mask

    # SubgroupCloser speaks table class ids, not parameter class indices
    table_cid = [int(table.class_id[codes[0]]) for codes in class_codes]
    remaining_ids = [
        tuple(sorted({table_cid[ci] for ci in pos_class[k:]})) for k in range(n + 1)
    ]

    _count_visits(counter, 1, budget)
    prefix = np.empty((1, 0), dtype=np.int64)
    prod = np.array([table.identity], dtype=np.int64)
    sid = np.array([closer.trivial_id], dtype=np.int64)
    for depth in range(n - 2):
        if not len(prod):
            break
        cand = class_codes[pos_class[depth]]
        target = reachable[depth + 1]
        remaining = remaining_ids[depth + 1]

        def alive(s):
            return closer.is_full(s) or closer.can_reach_full(s, remaining)

        step = max(1, _LEVEL_CHUNK // len(cand))
        parts = []
        for lo in range(0, len(prod), step):
            new_prod = mul[prod[lo : lo + step, None], cand]
            row, col = np.nonzero(target[inv[new_prod]])
            new_sid = closer.extend_pairs(sid[lo + row], cand[col])
            keep = _per_subgroup(new_sid, alive)
            row, col = row[keep], col[keep]
            _count_visits(counter, len(row), budget)
            parts.append((lo + row, cand[col], new_prod[row, col], new_sid[keep]))
        parent, code, prod, sid = (np.concatenate(x) for x in zip(*parts))
        prefix = np.column_stack([prefix[parent], code])
        prod = prod.astype(np.int64)

    # (a, b) pairs of the last two positions, sorted by a*b, with CSR offsets
    ca = class_codes[pos_class[n - 2]]
    cb = class_codes[pos_class[n - 1]]
    pair_prod = mul[ca[:, None], cb].ravel()
    by_prod = np.argsort(pair_prod, kind="stable")
    pair_a = np.repeat(ca, len(cb))[by_prod]
    pair_b = np.tile(cb, len(ca))[by_prod]
    offsets = np.zeros(m + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.bincount(pair_prod, minlength=m))
    need = inv[prod].astype(np.int64)
    first = offsets[need]
    count = offsets[need + 1] - first
    full_leaf = _per_subgroup(sid, closer.is_full)
    blocks = []
    # a leaf has at most one pair per a, so a chunk holds at most step * |ca|
    step = max(1, _LEVEL_CHUNK // len(ca))
    for lo in range(0, len(prod), step):
        c = count[lo : lo + step]
        leaf = np.repeat(np.arange(lo, lo + len(c)), c)
        pair = np.repeat(first[lo : lo + step] - (np.cumsum(c) - c), c) + np.arange(len(leaf))
        a = pair_a[pair]
        keep = full_leaf[leaf]
        grow = np.flatnonzero(~keep)
        keep[grow] = _per_subgroup(closer.extend_pairs(sid[leaf[grow]], a[grow]), closer.is_full)
        leaf, pair = leaf[keep], pair[keep]
        block = np.empty((len(leaf), n), dtype=mul.dtype)
        block[:, : n - 2] = prefix[leaf]
        block[:, n - 2] = a[keep]
        block[:, n - 1] = pair_b[pair]
        blocks.append(block)
    if not blocks:
        return np.empty((0, n), dtype=mul.dtype)
    return np.concatenate(blocks, axis=0)


def _sorted_block_arrangement(h):
    """Stable-sort blocks by class size; return (order, swap script).

    The swap script is the list of adjacent block transposition slots, in
    the order they were applied to reach the sorted arrangement.
    """
    order = list(range(h.r))
    sizes = [h.classes[i].size for i in range(h.r)]
    script = []
    changed = True
    while changed:
        changed = False
        for k in range(len(order) - 1):
            if sizes[order[k]] > sizes[order[k + 1]]:
                order[k], order[k + 1] = order[k + 1], order[k]
                script.append(k)
                changed = True
    return order, script


def _fold_product(table, codes_block):
    """Row-wise ordered product over the columns of an (N, w) code array."""
    acc = np.full(len(codes_block), table.identity, dtype=np.int64)
    for j in range(codes_block.shape[1]):
        acc = table.mul[acc, codes_block[:, j]].astype(np.int64)
    return acc


def _unsort_blocks(table, codes, h, order, script):
    """Map tuples from the sorted block arrangement back to the original one.

    Undoing the adjacent swap that moved block X past block Y conjugates
    X's entries by the inverse of the product of Y's entries; applied to
    full code arrays, vectorized.
    """
    arrangement = [(i, h.nu[i]) for i in order]
    mul, inv = table.mul, table.inv
    for k in reversed(script):
        counts = [c for (_, c) in arrangement]
        start = sum(counts[:k])
        # current layout: block Y at slot k, block X at slot k+1 (post-swap);
        # copies, not views: the writes below overlap these column ranges
        len_y = counts[k]
        len_x = counts[k + 1]
        y_cols = codes[:, start : start + len_y].copy()
        x_cols = codes[:, start + len_y : start + len_y + len_x].copy()
        p = _fold_product(table, y_cols)
        pi = inv[p].astype(np.int64)
        new_x = np.empty_like(x_cols)
        for j in range(len_x):
            new_x[:, j] = mul[mul[p, x_cols[:, j].astype(np.int64)], pi]
        codes[:, start : start + len_x] = new_x
        codes[:, start + len_x : start + len_x + len_y] = y_cols
        arrangement[k], arrangement[k + 1] = arrangement[k + 1], arrangement[k]
    assert [i for (i, _) in arrangement] == list(range(h.r))
    return codes


def enumerate_tuples(h, budget=None):
    """The exact tuple set of a parameter, by pruned level-wise enumeration.

    Blocks are enumerated in increasing class-size order (so the forced
    completion runs over the largest class) and the results are mapped back
    to the original block order through the block-swap bijection.  Prefixes
    are expanded one position at a time in bounded chunks; the last two
    positions are a join with the (a, b) pairs sorted by product, and
    generation is tracked by a SubgroupCloser whose closures are memoized
    per double coset.  `visits` counts the root and every prefix that
    survives both prunes.  Raises BudgetError as soon as that count exceeds
    the configured budget, with `consumed` one more than the budget; the
    count is the only budget check.
    """
    budget = DEFAULT_TUPLE_BUDGET if budget is None else budget
    table = h.group.table()
    order, script = _sorted_block_arrangement(h)
    pos_class = []
    for i in order:
        pos_class.extend([i] * h.nu[i])
    class_codes = [c.codes for c in h.classes]
    counter = {"visits": 0}
    codes = _enumerate_codes(table, pos_class, class_codes, budget, counter, SubgroupCloser(table))
    codes = _unsort_blocks(table, codes, h, order, script)
    return NielsenTupleSet(h, codes, counter["visits"])


# ---------------------------------------------------------------------------
# canonical forms and fibers


def canonicalize_codes(codes, maps):
    """Lexicographic minimum of each row over the acting relabeling maps.

    `maps` is an (A, m) array of element relabelings (inner or full
    automorphism maps).  Returns the canonical rows, in the maps' dtype.
    This walks every map over every row, so no fiber or braid path uses it:
    it is the oracle the tests check fibers against.
    """
    out_rows = np.empty(codes.shape, dtype=maps.dtype)
    for lo in range(0, len(codes), _CANON_CHUNK):
        # columns as rows: each tuple position is one contiguous array
        block = np.ascontiguousarray(codes[lo : lo + _CANON_CHUNK].T)
        best = maps[0][block]
        for amap in maps[1:]:
            mapped = amap[block]
            less = np.zeros(block.shape[1], dtype=bool)
            tied = np.ones(block.shape[1], dtype=bool)
            for x, y in zip(mapped, best):
                less |= tied & (x < y)
                tied &= x == y
            best[:, less] = mapped[:, less]
        out_rows[lo : lo + _CANON_CHUNK] = best.T
    return out_rows


class Fiber:
    """Tuples of a parameter modulo Inn(G) (mode "inn") or Aut(G, C) ("aut").

    Points are the tuples that are the least of their orbit under the
    acting group, in sorted order; `rows` holds their code rows.  The
    slice is the tuples whose first entry is x0, the least code of
    position 0's class C0; `slice_index` is a `RowIndex` over its rows,
    `point_of_slice` (int32) the point of every slice row, and
    `to_slice[y]` a code g with g^-1 y g = x0 for every y in C0 (-1
    elsewhere).  `points_of` locates any tuple through them.
    `tuple_count` is the size of the whole tuple set, and `acting_size`
    the order of the acting group.
    """

    def __init__(self, h, mode, rows, slice_index, to_slice, point_of_slice, tuple_count, acting_size):
        self.h = h
        self.mode = mode
        self.table = h.group.table()
        self.rows = rows
        self.slice_index = slice_index
        self.to_slice = to_slice
        self.point_of_slice = point_of_slice
        self.tuple_count = tuple_count
        self.acting_size = acting_size

    def __len__(self):
        return len(self.rows)

    def point(self, i):
        return NielsenTuple(self.table.perm(c) for c in self.rows[i])

    def points(self):
        return [self.point(i) for i in range(len(self.rows))]

    def points_of(self, rows):
        """The point of every code row, each a tuple of the set: the row is
        conjugated by to_slice[row[0]], which makes its first entry x0, and
        located in the slice.  A row outside the tuple set, whether its
        first entry lies outside C0 or not, raises InternalCheckError."""
        g = self.to_slice[rows[:, 0]]
        if (g < 0).any():
            raise InternalCheckError("row's first entry is outside position 0's class")
        # inner_maps()[g, y] = g^-1 y g, read through flat offsets
        moved = self.table.inner_maps().take(g[:, None] * self.table.size + rows)
        return self.point_of_slice[self.slice_index.positions(moved)]

    def canonicalize_tuple(self, t):
        """The point of t's orbit; InputError when t is not in the tuple set."""
        n = self.rows.shape[1]
        if len(t) != n:
            raise InputError(f"tuple of length {len(t)} in a fiber of {n}-tuples")
        try:
            point = self.points_of(np.array([[self.table.code(g) for g in t]]))[0]
        except InternalCheckError:
            raise InputError("tuple is not in the parameter's tuple set") from None
        return NielsenTuple(self.table.perm(c) for c in self.rows[point])


def _locate_mapped(locate, rows, maps):
    """locate(amap[rows]) for every element map, as a (len(maps),
    len(rows)) array, in blocks of `_CANON_CHUNK` rows."""
    out = np.empty((len(maps), len(rows)), dtype=np.int32 if len(rows) < 2**31 else np.int64)
    for j, amap in enumerate(maps):
        for lo in range(0, len(rows), _CANON_CHUNK):
            out[j, lo : lo + _CANON_CHUNK] = locate(amap[rows[lo : lo + _CANON_CHUNK]])
    return out


def _orbit_points(labels):
    """The least member of each orbit and the number of every member's
    orbit among them, int32."""
    reps, number = label_reps(labels)
    return reps, number.astype(np.int32, copy=False)


def _centralizer_generators(table, x):
    """Codes generating C_G(x): greedy over its codes in increasing order,
    each code outside the subgroup closed so far joining it, so at most
    log2 |C_G(x)| of them."""
    cent = table.centralizer_codes(x)
    inside = np.zeros(table.size, dtype=bool)
    inside[table.identity] = True
    gens = []
    for c in cent.tolist():
        if not inside[c]:
            gens.append(c)
            sub = table.closure_codes([c], subgroup=np.flatnonzero(inside))
            inside[list(sub)] = True
            if len(sub) == len(cent):
                break
    return gens


def _conjugators_to(table, x):
    """to[y]: a code g with g^-1 y g = x for every conjugate y of x, from
    one pass y = g x g^-1 over all g; -1 off x's class."""
    g = np.arange(table.size)
    to = np.full(table.size, -1, dtype=np.int64)
    to[table.mul[table.mul[g, x], table.inv]] = g
    return to


def build_fiber(h, mode="aut", tuples=None, budget=None, inn=None):
    """The fiber of h: its tuple set's orbits under the acting group.

    The inn fiber works on the slice alone: the tuples whose first entry
    is x0, the least code of position 0's class C0, which lead the sorted
    tuple set and number N / |C0|.  Every Inn(G)-orbit meets the slice, in
    one orbit of C_G(x0) acting by conjugation, and its least tuple lies
    there.  So the slice rows are mapped by the conjugations by a small
    generating set of C_G(x0), in blocks of `_CANON_CHUNK` rows, and
    located in a `RowIndex` over the slice; the resulting index arrays go
    to `orbit_labels`, whose least index per orbit is the
    lexicographically least tuple of the orbit, since the slice is a
    sorted prefix of the tuple set.  So the points equal the canonical
    forms over all acting maps without mapping any tuple by more than the
    generators, nor any tuple outside the slice at all.  The aut fiber is
    built on the inn fiber, whose points are the Inn(G)-orbits: the outer
    generators of Aut(G, C) (`aut_generator_maps` after its inner
    conjugations) move the inn points' rows, `Fiber.points_of` reads the
    moved rows back as inn points, and the least inn point of each orbit
    of those arrays, which is the least tuple of its Aut(G, C)-orbit, is
    an aut point.  `inn`, an inn fiber of the same tuple set, saves
    building it again.
    """
    if mode not in ("inn", "aut"):
        raise InputError(f"unknown fiber mode {mode!r}; expected 'inn' or 'aut'")
    table = h.group.table()
    if inn is None:
        if tuples is None:
            tuples = enumerate_tuples(h, budget=budget)
        c0 = h.classes[0]
        x0 = int(c0.codes[0])
        # a copy, so that the fiber does not keep the whole tuple set alive
        slice_rows = tuples.codes[: len(tuples) // c0.size].copy()
        slice_index = RowIndex(slice_rows, table.size)
        gens = conjugation_maps(table.mul, table.inv, _centralizer_generators(table, x0))
        step = _locate_mapped(slice_index.positions, slice_rows, gens)
        reps, point_of_slice = _orbit_points(orbit_labels(step))
        inn = Fiber(
            h,
            "inn",
            slice_rows[reps],
            slice_index,
            _conjugators_to(table, x0),
            point_of_slice,
            len(tuples),
            table.size // table.center_order(),
        )
    if mode == "inn":
        return inn
    from .structure import aut_fixing_classes, aut_generator_maps, automorphism_group

    aut = aut_fixing_classes(automorphism_group(h.group), h.classes)
    outer = aut_generator_maps(aut)[len(table.gen_codes) :]
    step = _locate_mapped(inn.points_of, inn.rows, outer)
    reps, point_of_inn = _orbit_points(orbit_labels(step))
    return Fiber(
        h,
        "aut",
        inn.rows[reps],
        inn.slice_index,
        inn.to_slice,
        point_of_inn[inn.point_of_slice],
        inn.tuple_count,
        aut.order,
    )


def _apply_letter_codes(codes, letter, table):
    i = abs(letter) - 1
    mul, inv = table.mul, table.inv
    a = codes[:, i].astype(np.int64)
    b = codes[:, i + 1].astype(np.int64)
    if letter > 0:
        codes[:, i] = b
        codes[:, i + 1] = mul[mul[inv[b], a], b]
    else:
        codes[:, i] = mul[mul[a, b], inv[a].astype(np.int64)]
        codes[:, i + 1] = a
    return codes


def apply_word_codes(codes, letters, table):
    out = codes.copy()
    for letter in letters:
        out = _apply_letter_codes(out, letter, table)
    return out


def induced_permutation_array(fiber, words):
    """Index arrays of the permutations braid words induce on fiber points.

    A word moves every point's row to some tuple of the same orbit as the
    point's image; that tuple's point is read off by `Fiber.points_of`,
    which conjugates it into the slice and locates it there.  The moved
    rows of as many words as fit in `_CANON_CHUNK` rows go to one call, so
    a small fiber pays the per-level cost of a lookup once, not once per
    word.  Returns a (len(words), len(fiber)) int32 array.
    """
    words = list(words)
    out = np.empty((len(words), len(fiber)), dtype=np.int32)
    step = max(1, _CANON_CHUNK // max(len(fiber), 1))
    for lo in range(0, len(words), step):
        batch = words[lo : lo + step]
        moved = np.concatenate([apply_word_codes(fiber.rows, w.letters, fiber.table) for w in batch])
        out[lo : lo + len(batch)] = fiber.points_of(moved).reshape(len(batch), -1)
    return out


def induced_permutation(fiber, word):
    """The braid word's action on fiber indices, as a Permutation."""
    return Permutation(int(i) for i in induced_permutation_array(fiber, [word])[0])

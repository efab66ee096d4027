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

Fibers are tuple sets modulo Inn(G) or Aut(G, C), represented by canonical
(lexicographically least) orbit representatives.  Hot paths run on numpy
code arrays; tuples are exposed as objects at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InputError, InternalCheckError
from .perms import ConjugacyClass, Permutation, SubgroupCloser

DEFAULT_TUPLE_BUDGET = 10**8


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
        """prod |C_i|^nu_i / |C_last|, the DFS prefix count before pruning."""
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
        if not isinstance(c, ConjugacyClass) or c.group is not group:
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
    closure = group.normal_closure([c.representative for c in classes])
    if closure.order() != group.order():
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
    """The full tuple set of a parameter, stored as an (N, n) code array."""

    def __init__(self, h, codes, visits):
        self.h = h
        self.table = h.group.table()
        self.codes = codes
        self.visits = visits

    def __len__(self):
        return len(self.codes)

    def tuple_at(self, i):
        return NielsenTuple(self.table.perm(c) for c in self.codes[i])

    def __iter__(self):
        for i in range(len(self.codes)):
            yield self.tuple_at(i)

    def __contains__(self, t):
        row = np.array([self.table.code(g) for g in t], dtype=self.codes.dtype)
        return bool((self.codes == row).all(axis=1).any())

    def codes_of(self, t):
        return [self.table.code(g) for g in t]


def _class_code_arrays(table, classes):
    out = []
    for c in classes:
        codes = sorted(table.code(g) for g in c.elements)
        out.append(np.array(codes, dtype=np.int64))
    return out


def _dfs_enumerate(table, pos_class, class_codes, budget, counter, closer=None):
    """Tuples with prescribed class per position, product one, generating.

    DFS over the first n-2 positions with reachable-product masks for
    pruning; the last two entries come from a precomputed pair table keyed
    by the needed completion product.  Generation is tracked by memoized
    incremental subgroup closure.  Returns an (N, n) int64 array.
    """
    n = len(pos_class)
    mul, inv = table.mul, table.inv
    m = table.size
    if n == 1:
        return np.empty((0, 1), dtype=np.int64)
    if closer is None:
        closer = SubgroupCloser(table)

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

    # pair table for the last two positions: product -> (a values, b values)
    ca = class_codes[pos_class[n - 2]]
    cb = class_codes[pos_class[n - 1]]
    pair_map = {}
    for a in ca:
        prods = mul[int(a), cb]
        for b, p in zip(cb, prods):
            pair_map.setdefault(int(p), ([], []))
            pa, pb = pair_map[int(p)]
            pa.append(int(a))
            pb.append(int(b))
    pair_map = {
        p: (np.array(pa, dtype=np.int64), np.array(pb, dtype=np.int64))
        for p, (pa, pb) in pair_map.items()
    }

    # SubgroupCloser speaks table class ids, not parameter class indices
    table_cid = [int(table.class_id[codes[0]]) for codes in class_codes]
    remaining_ids = [
        tuple(sorted({table_cid[ci] for ci in pos_class[k:]})) for k in range(n + 1)
    ]
    rows = []
    prefix = [0] * max(n - 2, 0)

    def recurse(depth, prod, sid):
        counter["visits"] += 1
        if counter["visits"] > budget:
            raise BudgetError(
                "tuple enumeration budget exhausted",
                consumed=counter["visits"],
                budget=budget,
            )
        if depth == n - 2:
            hit = pair_map.get(int(inv[prod]))
            if hit is None:
                return
            pa, pb = hit
            if closer.is_full(sid):
                block = np.empty((len(pa), n), dtype=np.int64)
                block[:, : n - 2] = prefix
                block[:, n - 2] = pa
                block[:, n - 1] = pb
                rows.append(block)
            else:
                for a, b in zip(pa, pb):
                    s2 = closer.extend(closer.extend(sid, int(a)), int(b))
                    if closer.is_full(s2):
                        rows.append(
                            np.array(prefix[: n - 2] + [int(a), int(b)], dtype=np.int64)[
                                None, :
                            ]
                        )
            return
        target_mask = reachable[depth + 1]
        for c in class_codes[pos_class[depth]]:
            new_prod = int(mul[prod, c])
            if not target_mask[int(inv[new_prod])]:
                continue
            s2 = closer.extend(sid, int(c))
            if not closer.is_full(s2) and not closer.can_reach_full(
                s2, remaining_ids[depth + 1]
            ):
                continue
            prefix[depth] = int(c)
            recurse(depth + 1, new_prod, s2)

    recurse(0, table.identity, closer.trivial_id)
    if not rows:
        return np.empty((0, n), dtype=np.int64)
    return np.concatenate([r for r in rows], axis=0)


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


def enumerate_tuples(h, budget=None, return_visits=False):
    """The exact tuple set of a parameter, by pruned DFS.

    Blocks are enumerated in increasing class-size order (so the forced
    completion runs over the largest class) and the results are mapped back
    to the original block order through the block-swap bijection.  Raises
    BudgetError when the configured prefix-visit budget is exhausted.
    """
    budget = DEFAULT_TUPLE_BUDGET if budget is None else budget
    if h.search_size_estimate() > budget:
        raise BudgetError(
            f"estimated search size {h.search_size_estimate()} exceeds budget {budget}",
            consumed=0,
            budget=budget,
        )
    table = h.group.table()
    order, script = _sorted_block_arrangement(h)
    pos_class = []
    for i in order:
        pos_class.extend([i] * h.nu[i])
    class_codes = _class_code_arrays(table, h.classes)
    counter = {"visits": 0}
    codes = _dfs_enumerate(table, pos_class, class_codes, budget, counter)
    codes = _unsort_blocks(table, codes, h, order, script)
    if len(codes):
        codes = codes[np.argsort(row_keys(codes, table.size), kind="stable")]
    result = NielsenTupleSet(h, codes, counter["visits"])
    if return_visits:
        return result, counter["visits"]
    return result


# ---------------------------------------------------------------------------
# canonical forms and fibers


def row_keys(rows, m):
    """Exact sort keys of (N, n) code rows over a group of order m.

    Each row becomes its codes as big-endian unsigned integers (two bytes
    when m <= 65536, else four), viewed as one fixed-width np.void value.
    Byte order of the keys is lexicographic row order at any width, so
    stable argsort, != and searchsorted on them order rows exactly.
    """
    dtype = np.dtype(">u2" if m <= 65536 else ">u4")
    rows = np.ascontiguousarray(rows, dtype=dtype)
    return rows.view(np.dtype((np.void, rows.shape[1] * dtype.itemsize))).ravel()


def key_positions(sorted_keys, keys):
    """Positions of row keys in a sorted key array; every key must be there."""
    pos = np.searchsorted(sorted_keys, keys)
    if (pos >= len(sorted_keys)).any() or (sorted_keys[pos] != keys).any():
        raise InternalCheckError("row key missing from its sorted index: enumeration bug")
    return pos


def canonicalize_codes(codes, maps, m, chunk=1 << 16):
    """Lexicographic minimum of each row over the acting relabeling maps.

    `maps` is an (A, m) array of element relabelings (inner or full
    automorphism maps).  Returns (canonical_rows, row_keys(canonical_rows,
    m)); exact, the keys being the rows' big-endian bytes.
    """
    out_rows = np.empty(codes.shape, dtype=np.int64)
    for lo in range(0, len(codes), chunk):
        # columns as rows: each tuple position is one contiguous array
        block = np.ascontiguousarray(codes[lo : lo + chunk].T)
        best = maps[0][block]
        for amap in maps[1:]:
            mapped = amap[block]
            less = np.zeros(block.shape[1], dtype=bool)
            tied = np.ones(block.shape[1], dtype=bool)
            for x, y in zip(mapped, best):
                less |= tied & (x < y)
                tied &= x == y
            best[:, less] = mapped[:, less]
        out_rows[lo : lo + chunk] = best.T
    return out_rows, row_keys(out_rows, m)


class Fiber:
    """Tuples of a parameter modulo Inn(G) (mode "inn") or Aut(G, C) ("aut").

    Points are the lexicographically least orbit representatives, sorted;
    `keys` holds their row_keys (big-endian row bytes), through which the
    index maps a canonical row back to its point id exactly.
    """

    def __init__(self, h, mode, rows, keys, maps, tuple_count):
        self.h = h
        self.mode = mode
        self.table = h.group.table()
        self.rows = rows
        self.keys = keys
        self.maps = maps
        self.tuple_count = tuple_count
        self.acting_size = len(maps)

    def __len__(self):
        return len(self.rows)

    def point(self, i):
        return NielsenTuple(self.table.perm(c) for c in self.rows[i])

    def points(self):
        return [self.point(i) for i in range(len(self.rows))]

    def canonical_codes(self, codes):
        rows, keys = canonicalize_codes(codes, self.maps, self.table.size)
        return rows, keys

    def canonicalize_tuple(self, t):
        row = np.array([[self.table.code(g) for g in t]], dtype=np.int64)
        rows, _ = self.canonical_codes(row)
        return NielsenTuple(self.table.perm(c) for c in rows[0])

    def index_of_keys(self, keys):
        return key_positions(self.keys, keys)

    def index_of_tuple(self, t):
        row = np.array([[self.table.code(g) for g in t]], dtype=np.int64)
        rows, keys = self.canonical_codes(row)
        return int(self.index_of_keys(keys)[0])


def acting_maps(h, mode):
    """Element relabeling maps of the acting group for a fiber mode."""
    table = h.group.table()
    if mode == "inn":
        return table.inner_maps()
    if mode == "aut":
        from .structure import aut_fixing_classes, automorphism_group

        aut = aut_fixing_classes(automorphism_group(h.group), h.classes)
        return aut.element_maps(table)
    raise InputError(f"unknown fiber mode {mode!r}; expected 'inn' or 'aut'")


def build_fiber(h, mode="aut", tuples=None, budget=None):
    """Canonicalize, deduplicate, sort and index the tuple set of h."""
    if tuples is None:
        tuples = enumerate_tuples(h, budget=budget)
    maps = acting_maps(h, mode)
    rows, keys = canonicalize_codes(tuples.codes, maps, h.group.table().size)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    # gather the kept rows once: a sorted copy of all rows would double the peak
    keep = order[first]
    return Fiber(h, mode, rows[keep], keys[keep], maps, len(tuples))


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


def induced_permutation_array(fiber, word):
    """Index array of the permutation a braid word induces on fiber points."""
    moved = apply_word_codes(fiber.rows, word.letters, fiber.table)
    _, keys = fiber.canonical_codes(moved)
    return fiber.index_of_keys(keys)


def induced_permutation(fiber, word):
    """The braid word's action on fiber indices, as a Permutation."""
    return Permutation(int(i) for i in induced_permutation_array(fiber, word))

"""Permutations and permutation groups.

Conventions used throughout the package:

* points are 0-based integers; disjoint-cycle notation in files is 1-based
  and converted on parse/format,
* products compose left to right: ``x^(p*q) = (x^p)^q``, so
  ``(p * q).images[x] == q.images[p.images[x]]``,
* ``g.conjugate_by(h) == h.inverse() * g * h``, i.e. relabeling of g's
  cycles by h,
* permutations compare lexicographically on their image arrays, and every
  derived ordering (elements, classes, orbits) comes from that order.

Groups are backed by a deterministic Schreier-Sims stabilizer chain for
orders and membership, one per group, built on first use with base points
the chain picks itself.  Every level acts by the elements that entered it:
the generators and Schreier generators whose sift reached the level
without sifting out, in their form there.  Schreier's lemma holds for any
generating set, so each level's Schreier generators generate the
stabilizer of its base point in the group its entrants generate, and that
group is the pointwise stabilizer of the base points above it (see
`StabilizerChain`).  Everything else is read off a dense code table
(`GroupTable`): conjugacy classes are orbits of conjugation by the
generators, centralizers and the center are comparisons of table columns
with rows (the center's order is the number of classes of size one),
normal closures, the derived subgroup among them, are seed codes closed
under conjugation by the generators, and the cosets of the derived
subgroup are orbits of right multiplication by its generators.  A
subgroup generated by codes grows one left coset at a time from a subgroup
already known (`GroupTable.closure_codes`).  Every orbit, of points,
codes or tuples, is an `orbit_labels` labelling, read through
`label_orbits` and `label_reps`.  No package code calls the chain-backed
`PermGroup.center`, `derived_subgroup`, `normal_closure` and
`is_perfect`: they are the independent routes the tests check the table
against.  A table is built in one of two ways:
`PermGroup.table()` forms the group's elements (capped) as the products of
one transversal element per chain level and codes them by their place in
lexicographic order, and `GroupTable.from_arrays` takes the tables of a
quotient whose codes are already fixed (a reduced cover), whose elements
are the permutations of its codes by right multiplication.  A table holds
|G|^2 codes, which is the right trade-off for the group sizes this package
targets (|G| <= a few thousand).  Tables, classes, abelianizations and
automorphism groups hold no reference back to a group object, so reference
counting frees them with the last reference to their group.  Sorted
arrays of code rows (Nielsen tuples, automorphisms by their generator
images) are searched through `RowIndex`, which ranks their prefixes one
column at a time.
"""

from __future__ import annotations

import functools
import math
import operator
import re

import numpy as np

from .errors import BudgetError, InputError, InternalCheckError

DEFAULT_ELEMENT_CAP = 10**6
# products looked up per gather while a GroupTable builds `mul`; at 2^16
# the chunk's temporary arrays stay near 2 MiB
_TABLE_CHUNK = 1 << 16
# rows mapped, canonicalized, indexed or located per block, so that the
# temporary arrays stay a few MiB however many rows there are
_CANON_CHUNK = 1 << 16

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree=None):
    """Parse 1-based disjoint-cycle notation like "(1 2)(3 4 5)" into images.

    Points may be separated by spaces or commas.  "()" and "" denote the
    identity.  The result is 0-based; degree defaults to the largest point
    mentioned.
    """
    stripped = text.strip()
    body = stripped
    cycles = []
    for match in _CYCLE_RE.finditer(stripped):
        body = body.replace(match.group(0), "", 1)
        inner = match.group(1).strip()
        if not inner:
            continue
        points = [int(tok) for tok in re.split(r"[,\s]+", inner)]
        if any(p < 1 for p in points):
            raise InputError(f"cycle notation is 1-based, got point {min(points)} in {text!r}")
        cycles.append([p - 1 for p in points])
    if body.strip():
        raise InputError(f"could not parse permutation {text!r}")
    maxpt = max((max(c) for c in cycles), default=-1)
    n = maxpt + 1 if degree is None else degree
    if maxpt >= n:
        raise InputError(f"point {maxpt + 1} exceeds degree {n} in {text!r}")
    images = list(range(n))
    for cycle in cycles:
        seen = set(cycle)
        if len(seen) != len(cycle):
            raise InputError(f"repeated point in cycle of {text!r}")
        for a, b in zip(cycle, cycle[1:]):
            images[a] = b
        images[cycle[-1]] = cycle[0]
    if sorted(images) != list(range(n)):
        raise InputError(f"cycles in {text!r} are not disjoint")
    return tuple(images)


def format_cycles(images):
    """Format an image array as 1-based disjoint-cycle notation."""
    seen = set()
    out = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        j = images[start]
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = images[j]
        out.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
    return "".join(out) if out else "()"


class Permutation:
    """An immutable permutation of {0, ..., degree-1} stored as an image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        self.images = images

    @classmethod
    def from_cycles(cls, text, degree=None):
        return cls(parse_cycles(text, degree))

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        if len(self.images) != len(other.images):
            raise InputError("degree mismatch in permutation product")
        o = other.images
        return Permutation(o[i] for i in self.images)

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def __invert__(self):
        return self.inverse()

    def __pow__(self, k):
        n = len(self.images)
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, point):
        return self.images[point]

    def conjugate_by(self, h):
        """Return h^-1 * self * h, the relabeling of this permutation by h."""
        if len(self.images) != len(h.images):
            raise InputError("degree mismatch in conjugation")
        him = h.images
        out = [0] * len(him)
        for x, gx in enumerate(self.images):
            out[him[x]] = him[gx]
        return Permutation(out)

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def order(self):
        n = 1
        for length in self.cycle_type():
            n = math.lcm(n, length)
        return n

    def cycle_type(self):
        """Partition of the degree by cycle lengths, sorted descending."""
        seen = set()
        parts = []
        for start in range(len(self.images)):
            if start in seen:
                continue
            length = 1
            seen.add(start)
            j = self.images[start]
            while j != start:
                seen.add(j)
                length += 1
                j = self.images[j]
            parts.append(length)
        parts.sort(reverse=True)
        return tuple(parts)

    def moved_points(self):
        return [i for i, j in enumerate(self.images) if i != j]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({format_cycles(self.images)!r}, degree={len(self.images)})"

    def __str__(self):
        return format_cycles(self.images)


def _compose(p, q):
    # raw image-tuple composition, left to right: x^(p*q) = q[p[x]]
    return operator.itemgetter(*p)(q)


def _pad256(p):
    return bytes(p) + bytes(range(len(p), 256))


class _Level:
    __slots__ = ("point", "acting", "transversal", "inverse", "done")

    def __init__(self, point, ident, inverse):
        self.point = point
        # padded tables of the elements that entered this level (T_i)
        self.acting = []
        self.transversal = {point: ident}
        self.inverse = {point: inverse}
        self.done = {}


class StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain.

    One rule for every level: level i acts by T_i, the elements that
    entered it.  These are the inputs and Schreier generators whose sift
    reached level i and ended in a nontrivial residue, each in the form it
    had on reaching level i, so it fixes the first i base points.  A sift
    that stalls at level j enters every level it passed through, from the
    one it started at down to j (a residue that fixes every base point
    founds a new level j), and those levels are closed again, deepest
    first.  Level i is closed when each Schreier generator of T_i over its
    orbit sifts through the levels below it.

    Why that is a chain: T_{i+1} lies in <T_i>, since an element of
    T_{i+1} is a Schreier generator of level i, or it entered level i too
    and its form at level i+1 is its form at level i times the inverse of
    a transversal element of level i.  Schreier's lemma gives generators
    of a point stabilizer from any generating set (Seress, Permutation
    Group Algorithms, 2003, 4.2; Holt-Eick-O'Brien, Handbook of CGT, 2005,
    4.4), so by induction from the bottom the levels from i on are a chain
    of <T_i>, and <T_{i+1}> is the stabilizer of the i-th base point in
    <T_i>.  With <T_0> = G, the group the inputs generate, <T_k> is G^(k),
    the pointwise stabilizer of the first k base points.  A level's own
    Schreier generators only enter deeper levels, so one scan over its
    orbit closes it, and the orbit grows in the same scan.  ``sifts``
    counts the Schreier generators sifted.

    A new level's base point is the point on the longest cycle of the
    residue that founds it, which keeps chains shallow.

    Internally permutations are bytes when the degree fits in one byte
    (the by-far common case here): a product p*q is p.translate(q padded
    to 256 bytes), and every level keeps its inverse transversal and its
    acting elements as such padded tables, whose entry p is the image of
    p.  Above 256 points permutations are tuples and p*q is
    ``operator.itemgetter(*p)(q)``.
    """

    def __init__(self, generators, degree):
        self.degree = degree
        self._bytes_mode = degree <= 256
        if self._bytes_mode:
            self._ident = bytes(range(degree))
            self._mul = bytes.translate
            self._table = _pad256
        else:
            self._ident = tuple(range(degree))
            self._mul = _compose
            self._table = tuple
        # (base point, inverse tables) per level: what sift reads
        self._path = []
        self.levels = []
        self.sifts = 0
        for gen in generators:
            self.add(gen.images if isinstance(gen, Permutation) else gen)

    def _new_level(self, point):
        level = _Level(point, self._ident, self._table(self._ident))
        self._path.append((point, level.inverse))
        return level

    def _raw(self, images):
        return bytes(images) if self._bytes_mode else tuple(images)

    def _invert(self, p):
        inv = bytearray(len(p)) if self._bytes_mode else [0] * len(p)
        for i, j in enumerate(p):
            inv[j] = i
        return bytes(inv) if self._bytes_mode else tuple(inv)

    def order(self):
        n = 1
        for level in self.levels:
            n *= len(level.transversal)
        return n

    def base(self):
        return [level.point for level in self.levels]

    def sift(self, images, start=0):
        """Reduce through the chain; return (residue, stall level)."""
        g = self._raw(images)
        mul = self._mul
        ident = self._ident
        path = self._path
        for i in range(start, len(path)):
            point, inverse = path[i]
            beta = g[point]
            if beta != point:
                u = inverse.get(beta)
                if u is None:
                    return g, i
                g = mul(g, u)
                if g == ident:
                    break
        return g, len(path)

    def contains(self, perm):
        images = perm.images if isinstance(perm, Permutation) else perm
        residue, _ = self.sift(images)
        return residue == self._ident

    def add(self, images):
        """Add a generator, extending the chain to stay strongly generated."""
        j = self._enter(self._raw(images), 0)
        if j is None:
            return False
        for k in range(j, -1, -1):
            self._fix_level(k)
        return True

    def _enter(self, g, start):
        """Sift g from level `start`.  If the residue is nontrivial, g enters
        every level its sift reached, in its form there, and the stall level
        is returned; the caller then closes those levels, deepest first."""
        residue, j = self.sift(g, start)
        if residue == self._ident:
            return None
        if j == len(self.levels):
            self.levels.append(self._new_level(self._pick_point(residue)))
        for k in range(start, j + 1):
            point, inverse = self._path[k]
            self.levels[k].acting.append(self._table(g))
            if k < j:
                g = self._mul(g, inverse[g[point]])
        return j

    def _pick_point(self, residue):
        # the point on the longest cycle of the residue
        moved = [i for i, j in enumerate(residue) if i != j]
        best, best_len = moved[0], 0
        seen = set()
        for start in moved:
            if start in seen:
                continue
            length = 1
            seen.add(start)
            j = residue[start]
            while j != start:
                seen.add(j)
                length += 1
                j = residue[j]
            if length > best_len:
                best, best_len = start, length
        return best

    def _fix_level(self, i):
        """Extend level i's orbit by its new acting elements and sift the new
        Schreier generators, one pass over the orbit in BFS order.

        The acting list only grows at its end, so the pairs processed at a
        point are a prefix of it (``done[p]`` long).  A pair that finds a
        new point is the tree edge reaching it, whose Schreier generator is
        trivial; transversal entries are never rewritten.
        """
        level = self.levels[i]
        ident = self._ident
        mul = self._mul
        acting = level.acting
        count = len(acting)
        trans = level.transversal
        inverse = level.inverse
        done = level.done
        queue = list(trans)
        for p in queue:
            start = done.get(p, 0)
            if start == count:
                continue
            done[p] = count
            up = trans[p]
            for tab in acting[start:]:
                q = tab[p]
                u = mul(up, tab)
                if q not in trans:
                    trans[q] = u
                    inverse[q] = self._table(self._invert(u))
                    queue.append(q)
                    continue
                schreier = mul(u, inverse[q])
                if schreier == ident:
                    continue
                self.sifts += 1
                j = self._enter(schreier, i + 1)
                if j is not None:
                    for k in range(j, i, -1):
                        self._fix_level(k)

    def element_images(self, dtype):
        """The images of every element of the group, one row each, sorted
        into lexicographic row order.

        Every element of G^(i) is h * u for exactly one h in G^(i+1) and
        one element u of level i's transversal (u carries the base point
        to the image the element gives it), so the elements are the
        products of one transversal element per level.  They are formed
        level by level, deepest first, each level as one gather
        u[h[x]] over all (u, h).
        """
        images = np.arange(self.degree, dtype=dtype)[None, :]
        for level in reversed(self.levels):
            u = np.array([tuple(t) for t in level.transversal.values()], dtype=dtype)
            images = u[:, images].reshape(-1, self.degree)
        # lexsort's primary key is its last
        return images[np.lexsort(images.T[::-1])] if len(images) > 1 else images


class ConjugacyClass:
    """A conjugacy class: its sorted codes in a group's table and its elements."""

    __slots__ = ("table", "codes", "representative", "elements", "size")

    def __init__(self, table, codes):
        self.table = table
        self.codes = codes
        self.elements = tuple(table.elements[c] for c in codes.tolist())
        self.representative = self.elements[0]
        self.size = len(self.elements)

    def order(self):
        return self.representative.order()

    def cycle_type(self):
        return self.representative.cycle_type()

    def __contains__(self, perm):
        code = self.table.code_of.get(perm.images)
        return code is not None and self.table.class_id[code] == self.table.class_id[self.codes[0]]

    def __eq__(self, other):
        return (
            isinstance(other, ConjugacyClass)
            and self.table is other.table
            and self.representative == other.representative
        )

    def __hash__(self):
        return hash((id(self.table), self.representative))

    def __repr__(self):
        return (
            f"ConjugacyClass({format_cycles(self.representative.images)!r},"
            f" size={self.size})"
        )


class AbelianQuotient:
    """G/G' as an explicit finite abelian group with a coset labeling G -> G/G'.

    Cosets are numbered 0..k-1 with 0 the identity coset; numbering follows
    the lexicographically least element of each coset.  `labels` holds the
    coset number of every element code of the group's table.
    """

    def __init__(self, group):
        table = group.table()
        self.table = table
        derived = table.derived_gen_codes()
        # the cosets x G' are the orbits of x -> x d, numbered by least code;
        # the identity's code 0 is the least code, so its coset is numbered 0
        rep_codes, self.labels = label_reps(orbit_labels(table.mul[:, derived].T))
        rep_codes = rep_codes.tolist()
        self.reps = [table.elements[c] for c in rep_codes]
        self.size = len(self.reps)
        self._mul = self.labels[table.mul[np.ix_(rep_codes, rep_codes)]].tolist()

    def label(self, perm):
        return int(self.labels[self.table.code(perm)])

    def class_label(self, conj_class):
        # conjugate elements share a coset of G', so any representative works
        return self.label(conj_class.representative)

    def multiply(self, a, b):
        return self._mul[a][b]

    def element_order(self, a):
        n, acc = 1, a
        while acc != 0:
            acc = self._mul[acc][a]
            n += 1
        return n

    def invariant_factors(self):
        """Cyclic invariant factors d_1 | d_2 | ... recovered from order counts."""
        if self.size == 1:
            return ()
        orders = [self.element_order(a) for a in range(self.size)]
        primes = _prime_factors(self.size)
        parts_by_prime = {}
        for p in primes:
            # conjugate partition from counts of elements of order dividing p^j
            col = []
            j = 1
            while True:
                nj = sum(1 for o in orders if p**j % o == 0)
                prev = sum(1 for o in orders if p ** (j - 1) % o == 0)
                if nj == prev:
                    break
                exp_diff = round(_ilog(nj, p) - _ilog(prev, p))
                col.append(exp_diff)
                j += 1
            parts = []
            for height in col:
                for idx in range(height):
                    if idx < len(parts):
                        parts[idx] += 1
                    else:
                        parts.append(1)
            parts_by_prime[p] = sorted(parts, reverse=True)
        width = max(len(v) for v in parts_by_prime.values())
        factors = []
        for i in range(width):
            d = 1
            for p, parts in parts_by_prime.items():
                if i < len(parts):
                    d *= p ** parts[i]
            factors.append(d)
        return tuple(sorted(factors))

    def __repr__(self):
        facs = self.invariant_factors()
        desc = " x ".join(f"Z/{d}" for d in facs) if facs else "trivial"
        return f"AbelianQuotient({desc})"


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _ilog(n, p):
    k = 0
    while n > 1:
        n //= p
        k += 1
    return k


def orbit_labels(step):
    """The least point of the orbit of every point under x -> step[j, x].

    `step` is a (k, m) integer array whose rows are permutations of
    range(m).  Connected components by the hooking and shortcutting of
    FastSV (Zhang, Azad and Hu, 2020), with no per-orbit loop: every point
    holds a label in its own orbit, at most the point itself.  Along every
    step edge x -- s[x], in both directions, each end's label and the label
    it points to drop to the other end's grandparent label; then every
    label jumps to its label's label.  Hooking the labels, not only the
    points, keeps the number of rounds near log m even on one long cycle,
    where plain min-label propagation needs rounds in proportion to the
    cycle length.  At the fixed point each orbit carries its least point.
    Returns an int32 array of length m (int64 from 2^31 points).
    """
    step = np.asarray(step)
    m = step.shape[1]
    labels = np.arange(m, dtype=np.int32 if m < 2**31 else np.int64)
    while True:
        start = labels.copy()
        for s in step:
            _hook(labels, s)
        labels = labels[labels]
        if np.array_equal(labels, start):
            return labels


def _hook(labels, s):
    """One hooking pass of `orbit_labels` along the edges x -- s[x], in
    place.  Its temporaries of len(labels) die on return, so the next pass
    does not allocate its own while they are still held."""
    parent = labels.copy()
    grand = parent[parent]
    across = grand[s]
    # hook only where it lowers a label: the scatter is the slow part
    lower = across < grand
    np.minimum.at(labels, parent[lower], across[lower])
    lower = grand < across
    np.minimum.at(labels, parent[s[lower]], grand[lower])
    np.minimum(labels, across, out=labels)
    labels[s] = np.minimum(labels[s], grand, out=grand)


def label_orbits(labels, points=None):
    """The orbits an `orbit_labels` array describes, each a sorted int64
    array, ordered by least point: one stable argsort.  With `points`, only
    the orbits through those points, each once and whole."""
    members = None if points is None else np.flatnonzero(np.isin(labels, labels[points]))
    order = np.argsort(labels if members is None else labels[members], kind="stable")
    if members is not None:
        order = members[order]
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if len(order) else []


def label_reps(labels):
    """The least point of every orbit an `orbit_labels` array describes, in
    increasing order, and the number of every point's orbit among them, in
    the labels' dtype."""
    is_rep = labels == np.arange(len(labels), dtype=labels.dtype)
    number = np.cumsum(is_rep, dtype=labels.dtype)
    number -= 1
    return np.flatnonzero(is_rep), number[labels]


def sorted_rows(rows):
    """Sort a C-contiguous (N, n) array of nonnegative integer codes into
    lexicographic row order, in place, and return it.

    With its codes big-endian, a row's bytes viewed as one fixed-width
    np.void value compare as the row does.  So the codes are byte-swapped
    in place where the machine is little-endian, those values are sorted in
    place, and the codes are swapped back: the rows are neither copied nor
    gathered through a permutation.  Only for narrow rows, such as tuples
    of a few codes: numpy's sort of wide np.void values can fail (a
    `MemoryError` on (3, 70000) uint32 rows, 280 kB each), where
    `np.lexsort(rows.T[::-1])` orders wide rows.
    """
    swap = rows.dtype.newbyteorder(">") != rows.dtype
    if swap:
        rows.byteswap(inplace=True)
    rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().sort(kind="stable")
    if swap:
        rows.byteswap(inplace=True)
    return rows


class RowIndex:
    """Positions of code rows in a strictly increasing (N, n) row array.

    The base-image ranking of `_BaseIndex` (Seress, Permutation Group
    Algorithms, 4.1), on rows that are already sorted: the rows sharing a
    length-j prefix are contiguous, so the rank of every row's j-prefix is
    a running count of the rows that differ from their predecessor in the
    first j columns, with no sort.  Level j holds `first[r]`, the rank of
    the first (j+1)-prefix under j-prefix r, and a dense table over
    (r, index of column j's code among that column's codes) holding the
    offset of that (j+1)-prefix inside r's run, or -1; the offsets take
    the smallest signed dtype that holds the column's code count, and an
    extra column of -1 stands for the codes column j never shows.  The
    levels stop at the first j whose prefixes are as many as the rows (for
    tuples of product one, j = n - 1, since the first n - 1 entries fix the
    last); a lookup is one gather per level and a comparison of the
    remaining columns.  Ranks are int32 below 2^31 rows.  The index keeps a
    reference to `rows` and is built in blocks of `_CANON_CHUNK` rows.
    Rows that are not strictly increasing raise InternalCheckError.
    """

    def __init__(self, rows, m):
        self.rows = rows
        count, width = rows.shape
        self.rank_dtype = np.int32 if count < 2**31 else np.int64
        # split[i]: the first column where row i differs from row i - 1;
        # row 0 starts every prefix, so it gets -1
        split = np.empty(count, dtype=np.int16 if width < 2**15 else np.int32)
        split[:1] = -1
        present = np.zeros((width, m), dtype=bool)
        # counts[k]: the rows whose split is k - 1
        counts = np.zeros(width + 1, dtype=np.int64)
        counts[0] = min(count, 1)
        for lo in range(0, count, _CANON_CHUNK):
            # the block's columns as rows, from the row before the block on
            cols = np.ascontiguousarray(rows[max(lo - 1, 0) : lo + _CANON_CHUNK].T)
            later, earlier = cols[:, 1:], cols[:, :-1]
            col = np.full(later.shape[1], width, dtype=split.dtype)
            increasing = np.zeros(later.shape[1], dtype=bool)
            for j in range(width - 1, -1, -1):
                present[j, cols[j]] = True
                differ = later[j] != earlier[j]
                np.copyto(col, j, where=differ)
                np.copyto(increasing, later[j] > earlier[j], where=differ)
            if not increasing.all():
                raise InternalCheckError("index rows are not strictly increasing")
            split[max(lo, 1) : lo + _CANON_CHUNK] = col
            counts += np.bincount(col + 1, minlength=width + 1)
        # prefixes[j]: the number of distinct j-prefixes
        prefixes = np.cumsum(counts)
        depth = int(np.searchsorted(prefixes, count))
        self.levels = []
        for j in range(depth):
            codes = np.flatnonzero(present[j])
            code_index = np.full(m, len(codes), dtype=np.int32)
            code_index[codes] = np.arange(len(codes))
            first = np.empty(prefixes[j], dtype=self.rank_dtype)
            # offsets[r * stride + c], flat
            stride = len(codes) + 1
            offsets = np.full(prefixes[j] * stride, -1, dtype=np.min_scalar_type(-len(codes)))
            # ranks of the last j-prefix and the next (j+1)-prefix so far
            outer, inner = -1, 0
            for lo in range(0, count, _CANON_CHUNK):
                # the rows of the block that start a (j+1)-prefix, in order
                cut = split[lo : lo + _CANON_CHUNK]
                starts = cut <= j
                new_outer = cut[starts] < j
                sub = np.arange(inner, inner + len(new_outer))
                rank = outer + np.cumsum(new_outer)
                first[rank[new_outer]] = sub[new_outer]
                cell = rank * stride
                cell += code_index[rows[lo : lo + _CANON_CHUNK, j][starts]]
                offsets[cell] = sub - first[rank]
                if len(sub):
                    outer, inner = rank[-1], sub[-1] + 1
            self.levels.append((code_index, first, offsets, stride))

    def positions(self, rows):
        """Positions of code rows in the index; every row must be in it."""
        rank = np.zeros(len(rows), dtype=self.rank_dtype)
        columns = np.ascontiguousarray(rows.T)
        for codes, (code_index, first, offsets, stride) in zip(columns, self.levels):
            # flat positions in the level's (rank, code) table, in int64
            cell = rank * np.int64(stride)
            cell += code_index.take(codes)
            offset = offsets.take(cell)
            if (offset < 0).any():
                raise InternalCheckError("row missing from its sorted index: enumeration bug")
            rank = first.take(rank)
            rank += offset
        depth = len(self.levels)
        if (len(rows) and not len(self.rows)) or not np.array_equal(
            self.rows[rank, depth:], rows[:, depth:]
        ):
            raise InternalCheckError("row missing from its sorted index: enumeration bug")
        return rank


def _check_element_cap(order, cap):
    if order > cap:
        raise BudgetError(f"group order {order} exceeds element cap {cap}", consumed=order, budget=cap)


def conjugation_maps(mul, inv, codes):
    """Row j maps x -> g^-1 x g for g = codes[j], over a dense multiplication table."""
    codes = np.asarray(codes, dtype=np.int64)
    return mul[mul[inv[codes]], codes[:, None]]


class PermGroup:
    """A finite permutation group given by generators.

    The stabilizer chain, code table, conjugacy classes and abelianization
    are built lazily, each exactly once, and are read-only afterwards; the
    element list is the table's.
    """

    def __init__(self, degree, generators, name=None):
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise InputError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self._chain = None
        self._derived = None
        self._center = None
        self._abelianization = None
        self._table = None
        self._classes = None
        self._aut = None

    @classmethod
    def from_cycles(cls, degree, cycle_strings, name=None):
        return cls(degree, [Permutation.from_cycles(s, degree) for s in cycle_strings], name)

    @classmethod
    def trivial(cls, degree):
        return cls(degree, [])

    @classmethod
    def symmetric(cls, degree, name=None):
        if degree <= 1:
            return cls(degree, [], name=name or f"S{degree}")
        gens = [Permutation.from_cycles("(1 2)", degree)]
        if degree >= 3:
            gens.append(Permutation(list(range(1, degree)) + [0]))
        return cls(degree, gens, name=name or f"S{degree}")

    @classmethod
    def alternating(cls, degree, name=None):
        if degree <= 2:
            return cls(degree, [], name=name or f"A{degree}")
        gens = [Permutation.from_cycles("(1 2 3)", degree)]
        if degree >= 4:
            if degree % 2:
                gens.append(Permutation([degree - 1] + list(range(degree - 1))))
            else:
                tail = Permutation([0] + list(range(2, degree)) + [1])
                gens.append(tail)
        return cls(degree, gens, name=name or f"A{degree}")

    # -- chain-backed queries -------------------------------------------------

    def chain(self):
        if self._chain is None:
            self._chain = StabilizerChain(self.generators, self.degree)
        return self._chain

    def order(self):
        return self.chain().order()

    def __contains__(self, perm):
        if perm.degree != self.degree:
            return False
        return self.chain().contains(perm)

    def __len__(self):
        return self.order()

    def is_trivial(self):
        return not self.generators

    def subgroup(self, generators, name=None):
        return PermGroup(self.degree, generators, name=name)

    def is_subgroup_of(self, other):
        return all(g in other for g in self.generators)

    def equals(self, other):
        return self.order() == other.order() and self.is_subgroup_of(other)

    # -- exhaustive queries ---------------------------------------------------

    def elements(self, cap=None):
        """All elements, sorted lexicographically: the elements of the
        group's table.  Before the table is built, a group of more than
        `cap` elements (default `DEFAULT_ELEMENT_CAP`) raises BudgetError."""
        if self._table is None:
            _check_element_cap(self.order(), DEFAULT_ELEMENT_CAP if cap is None else cap)
        return self.table().elements

    def conjugacy_classes(self):
        """Conjugacy classes, sorted by (element order, size, least rep)."""
        if self._classes is None:
            table = self.table()
            self._classes = tuple(ConjugacyClass(table, codes) for codes in table.class_codes)
        return self._classes

    def class_of(self, perm):
        table = self.table()
        return self.conjugacy_classes()[table.class_id[table.code(perm)]]

    def centralizer(self, perm):
        """Z(g) as a PermGroup generated by all of its elements."""
        if perm not in self:
            raise InputError("centralizer argument must be a group element")
        table = self.table()
        members = table.centralizer_codes(table.code(perm))
        return self.subgroup([table.elements[z] for z in members], name="centralizer")

    def center(self):
        if self._center is None:
            table = self.table()
            gens = table.gen_codes
            members = np.nonzero((table.mul[:, gens] == table.mul[gens].T).all(axis=1))[0]
            self._center = self.subgroup([table.elements[z] for z in members], name="center")
        return self._center

    def derived_subgroup(self):
        """Commutator subgroup: normal closure of generator commutators."""
        if self._derived is None:
            comms = []
            for a in self.generators:
                for b in self.generators:
                    comms.append(a.inverse() * b.inverse() * a * b)
            self._derived = self.normal_closure(comms, name="derived")
        return self._derived

    def normal_closure(self, seed, name=None):
        """Smallest normal subgroup of this group containing the seed elements."""
        gens = [g for g in seed if not g.is_identity()]
        chain = StabilizerChain(gens, self.degree)
        closure_gens = list(gens)
        frontier = list(gens)
        while frontier:
            new = []
            for x in frontier:
                for g in self.generators:
                    y = x.conjugate_by(g)
                    if chain.add(y.images):
                        closure_gens.append(y)
                        new.append(y)
            frontier = new
        return self.subgroup(closure_gens, name=name)

    def is_abelian(self):
        return all(a * b == b * a for a in self.generators for b in self.generators)

    def is_perfect(self):
        return self.derived_subgroup().order() == self.order()

    def abelianization(self):
        if self._abelianization is None:
            self._abelianization = AbelianQuotient(self)
        return self._abelianization

    def table(self):
        if self._table is None:
            self._table = GroupTable(self)
        return self._table

    def __repr__(self):
        label = self.name or f"degree {self.degree}, {len(self.generators)} generators"
        return f"PermGroup({label})"


class _BaseIndex:
    """Element codes from images of a stabilizer-chain base.

    A group element is determined by its images of a base B (Seress,
    Permutation Group Algorithms, 4.1).  Level j maps (rank of a length-j
    base-image prefix) * degree + (image of B[j]) to the rank of the
    length-(j+1) prefix, or to -1 where no element has that prefix; the
    ranks of full prefixes are then mapped to element codes.
    """

    def __init__(self, arr, base, degree):
        self.degree = degree
        rank = np.zeros(len(arr), dtype=np.int64)
        count = 1
        self.levels = []
        for b in base:
            keys, rank = np.unique(rank * degree + arr[:, b], return_inverse=True)
            level = np.full(count * degree, -1, dtype=np.int64)
            level[keys] = np.arange(len(keys))
            self.levels.append(level)
            count = len(keys)
        if count != len(arr):
            raise InternalCheckError("group elements do not have distinct base images")
        self.code_of_rank = np.empty(len(arr), dtype=np.int64)
        self.code_of_rank[rank] = np.arange(len(arr))

    def codes(self, images):
        """Codes of the elements whose base images are images[..., j], j < len(B)."""
        rank = np.zeros(images.shape[:-1], dtype=np.int64)
        for j, level in enumerate(self.levels):
            rank *= self.degree
            rank += images[..., j]
            rank = level[rank]
            if rank.min() < 0:
                raise InternalCheckError("a group element is missing from the element list")
        return self.code_of_rank[rank]


class GroupTable:
    """Dense multiplication tables of a finite group over element codes.

    `mul`, `inv`, `order_of` and `class_id` are numpy arrays over codes, the
    identity's code is 0, and `images[c]` holds the images of element c, so
    that `perm(c)` materializes it.  The hot paths (tuple enumeration,
    canonicalization, braid moves, cover pairings) work on codes only.  A
    table holds no reference to a group object.  It is built in one of two
    ways:

    * `GroupTable(group)` takes the image array of a permutation group's
      elements from its stabilizer chain
      (`StabilizerChain.element_images`), in lexicographic row order, so
      the least code is the lexicographically least element.  A group of
      more than `DEFAULT_ELEMENT_CAP` elements raises BudgetError first.
      A product or inverse is coded by its images of the chain base B: the
      images of a*b at B are arr[b, arr[a, B]], and `_BaseIndex` turns
      them into a code by len(B) integer gathers, as it does for the
      identity and the generators.  `mul` is built in row chunks of about
      `_TABLE_CHUNK` products, so the build costs O(|G|^2 * |B|) gathers
      and about 2 MiB beyond the table itself.  A product missing from the
      element array raises InternalCheckError.
    * `GroupTable.from_arrays(mul, inv, identity, gen_codes)` takes the
      tables of a group whose codes are already fixed, such as a quotient
      of a cover by a central subgroup.  Its element c is the permutation
      mul[:, c] of the codes (right multiplication by c).

    Either way `elements` and `code_of` are built from `images` only when
    asked for.

    `order_of` comes from powering every element at once through
    `mul`, and the conjugacy classes are the orbits of conjugation by the
    generators, sorted by (element order, size, least code) into
    `class_codes`.
    """

    def __init__(self, group):
        chain = group.chain()
        _check_element_cap(chain.order(), DEFAULT_ELEMENT_CAP)
        # images run up to degree - 1, which the code dtype need not hold
        image_dtype = np.uint16 if group.degree <= 65536 else np.uint32
        arr = chain.element_images(image_dtype)
        size = len(arr)
        dtype = np.uint16 if size < 65535 else np.uint32
        base = chain.base()
        index = _BaseIndex(arr, base, group.degree)
        mul = np.empty((size, size), dtype=dtype)
        rows = max(1, _TABLE_CHUNK // size)
        for a0 in range(0, size, rows):
            # block[b, a, j] is the image of base[j] under a*b
            block = arr[:, arr[a0:a0 + rows][:, base]]
            mul[a0:a0 + rows] = index.codes(block).T
        inv = index.codes(np.argsort(arr, axis=1)[:, base]).astype(dtype)
        # the identity's row, then the generators'
        known = np.array([range(group.degree)] + [g.images for g in group.generators], dtype=image_dtype)
        codes = index.codes(known[:, base]).tolist()
        self._set_tables(arr, mul, inv, codes[0], codes[1:])

    @classmethod
    def from_arrays(cls, mul, inv, identity, gen_codes):
        """The table of the group whose element c is the permutation mul[:, c]."""
        table = cls.__new__(cls)
        table._set_tables(mul.T, mul, inv, identity, gen_codes)
        return table

    def _set_tables(self, images, mul, inv, identity, gen_codes):
        self.images = images
        self.size = len(mul)
        self.mul = mul
        self.inv = inv
        self.identity = int(identity)
        self.gen_codes = [int(c) for c in gen_codes]
        self.order_of = self._orders()
        orbits = label_orbits(orbit_labels(conjugation_maps(mul, inv, self.gen_codes)))
        orbits.sort(key=lambda orbit: (self.order_of[orbit[0]], len(orbit), orbit[0]))
        self.class_codes = tuple(orbits)
        self.class_id = np.empty(self.size, dtype=np.int32)
        for ci, orbit in enumerate(orbits):
            self.class_id[orbit] = ci
        self._inner_maps = None
        self._derived_gens = None
        self._derived_labels = None

    @functools.cached_property
    def elements(self):
        return tuple(Permutation(row) for row in self.images.tolist())

    @functools.cached_property
    def code_of(self):
        return {g.images: i for i, g in enumerate(self.elements)}

    def _orders(self):
        """Element orders, by x <- x*g from x = g until x is the identity."""
        power = np.arange(self.size)
        order = np.ones(self.size, dtype=np.int64)
        live = np.nonzero(power != self.identity)[0]
        while live.size:
            power[live] = self.mul[power[live], live]
            order[live] += 1
            live = live[power[live] != self.identity]
        return order

    def code(self, perm):
        try:
            return self.code_of[perm.images]
        except KeyError:
            raise InputError("element does not belong to the group") from None

    def perm(self, code):
        return Permutation(self.images[int(code)].tolist())

    def inner_maps(self):
        """Element relabeling x -> x^z for every z, as an (m, m) array."""
        if self._inner_maps is None:
            self._inner_maps = conjugation_maps(self.mul, self.inv, np.arange(self.size))
        return self._inner_maps

    def centralizer_codes(self, code):
        """Sorted codes of the elements commuting with the element `code`."""
        return np.nonzero(self.mul[:, code] == self.mul[code])[0]

    def closure_codes(self, codes, subgroup=None):
        """The subgroup generated by `subgroup` and the given codes, as a
        sorted tuple of codes.

        `subgroup` is the sorted codes of a subgroup already known (default
        the trivial one).  The closure grows from it by left cosets, one
        generator at a time (Dimino's algorithm; Butler, Fundamental
        Algorithms for Permutation Groups, 1991).  While K is the subgroup
        found so far and c is a code outside it, the set S starts as K and
        is a union of left cosets y*K.  Each round takes the elements x
        that entered S last, forms x*c, and adds the whole coset y*K of
        every y = x*c outside S.  When a round adds nothing, S is closed
        under right multiplication by K and by c and holds the identity, so
        it is <K, c>.  Every element of <K, c> is multiplied by c once, and
        every new coset is gathered once per survivor in it.  S lies in
        <K, c>, whose order divides |G| and is a multiple of |K|, so once
        |S| exceeds |G| / p, for p the least prime factor of |G : K|,
        <K, c> is G (Lagrange) and growth stops there.
        """
        mul, size = self.mul, self.size
        inside = np.zeros(size, dtype=bool)
        inside[[self.identity] if subgroup is None else np.asarray(subgroup)] = True
        members = inside.nonzero()[0]
        pending = np.asarray(codes, dtype=np.int64)
        while len(members) < size:
            pending = pending[~inside[pending]]
            if not pending.size:
                break
            c = pending[0]
            frontier = members
            count = len(members)
            proper = size // _prime_factors(size // count)[0]
            while True:
                y = mul[frontier, c]
                y = y[~inside[y]]
                if not y.size:
                    break
                # each y*K lies outside S; survivors in one coset repeat it
                fresh = np.zeros(size, dtype=bool)
                fresh[mul[y[:, None], members]] = True
                inside |= fresh
                frontier = fresh.nonzero()[0]
                count += len(frontier)
                if count > proper:
                    inside[:] = True
                    break
            members = inside.nonzero()[0]
        return tuple(members.tolist())

    def commutator(self, a, b):
        """Code(s) of a^-1 b^-1 a b; a and b may be code arrays that broadcast."""
        mul, inv = self.mul, self.inv
        return mul[mul[inv[a], inv[b]], mul[a, b]]

    def center_order(self):
        """|Z(G)|: the central elements are the classes of size one."""
        return sum(len(c) == 1 for c in self.class_codes)

    def normal_closure_gen_codes(self, seed):
        """Generator codes of the normal closure of the seed codes: the
        nonidentity seed codes, closed under conjugation by the generators.
        A conjugate joins only when it lies outside the subgroup generated
        so far, so the generating set stays small."""
        mul, inv = self.mul, self.inv
        gens = [c for c in dict.fromkeys(int(c) for c in seed) if c != self.identity]
        members = self.closure_codes(gens)
        inside = np.zeros(self.size, dtype=bool)
        inside[np.asarray(members)] = True
        frontier = list(gens)
        while frontier:
            new = []
            for x in frontier:
                for z in self.gen_codes:
                    y = int(mul[mul[inv[z], x], z])
                    if not inside[y]:
                        gens.append(y)
                        members = self.closure_codes([y], subgroup=members)
                        inside[np.asarray(members)] = True
                        new.append(y)
            frontier = new
        return gens

    def derived_gen_codes(self):
        """Generator codes of the derived subgroup: the normal closure of
        the commutators of the generators."""
        if self._derived_gens is None:
            g = np.asarray(self.gen_codes, dtype=np.int64)
            comms = np.unique(self.commutator(g[:, None], g)).tolist()
            self._derived_gens = self.normal_closure_gen_codes(comms)
        return self._derived_gens

    def derived_orbits(self, codes):
        """Orbits of conjugation by the derived subgroup on a set of codes
        closed under it (a union of classes), as sorted code lists."""
        if self._derived_labels is None:
            step = conjugation_maps(self.mul, self.inv, self.derived_gen_codes())
            self._derived_labels = orbit_labels(step)
        codes = np.unique(np.asarray(codes, dtype=np.int64))
        orbits = label_orbits(self._derived_labels, codes)
        if sum(len(orbit) for orbit in orbits) != len(codes):
            raise InternalCheckError("conjugation left the given code subset")
        return [orbit.tolist() for orbit in orbits]


class SubgroupCloser:
    """Interned subgroup closures over a GroupTable, memoized for enumeration.

    Subgroups appear as small integer ids; `extend(id, code)` returns the id
    of the subgroup generated by the old one and one more element, and
    `extend_pairs` does the same for arrays of (id, code) pairs, one
    `extend` per distinct pair.  Both `extend` and `can_reach_full` grow
    their closure from the subgroup H they extend, by left cosets of H
    (`GroupTable.closure_codes` with `subgroup`), rather than closing H's
    elements again from the identity.  A computed closure <H, c> is stored
    for every c' in the double coset HcH, since <H, h c h'> = <H, c>, so one
    closure serves up to |H|^2 codes.  The number of distinct subgroups of
    the desk-scale groups involved is tiny, so the memo tables stay small
    while enumeration asks for millions of extensions.
    """

    def __init__(self, table):
        self.table = table
        trivial = (table.identity,)
        self._ids = {trivial: 0}
        self._sets = [frozenset(trivial)]
        self._codes = [np.array(trivial, dtype=np.int64)]
        self._orders = [1]
        self._extend_memo = {}
        self._reach_memo = {}
        self.trivial_id = 0
        self.full_order = table.size

    def order(self, sid):
        return self._orders[sid]

    def is_full(self, sid):
        return self._orders[sid] == self.full_order

    def extend(self, sid, code):
        key = (sid, int(code))
        hit = self._extend_memo.get(key)
        if hit is not None:
            return hit
        base = self._sets[sid]
        if int(code) in base:
            self._extend_memo[key] = sid
            return sid
        closed = self.table.closure_codes([int(code)], subgroup=self._codes[sid])
        new_id = self._ids.get(closed)
        if new_id is None:
            new_id = len(self._sets)
            self._ids[closed] = new_id
            self._sets.append(frozenset(closed))
            self._codes.append(np.array(closed, dtype=np.int64))
            self._orders.append(len(closed))
        h = self._codes[sid]
        mul = self.table.mul
        for c in np.unique(mul[np.ix_(mul[h, int(code)], h)]).tolist():
            self._extend_memo[(sid, c)] = new_id
        return new_id

    def extend_pairs(self, sids, codes):
        """extend(sids[i], codes[i]) for every i, as an int64 array."""
        m = self.table.size
        keys, inverse = np.unique(np.asarray(sids, dtype=np.int64) * m + codes, return_inverse=True)
        ids = [self.extend(k // m, k % m) for k in keys.tolist()]
        return np.array(ids, dtype=np.int64)[inverse]

    def can_reach_full(self, sid, remaining_class_ids):
        """True if adding every element of the listed classes can reach the group."""
        key = (sid, remaining_class_ids)
        hit = self._reach_memo.get(key)
        if hit is not None:
            return hit
        class_codes = self.table.class_codes
        gens = [class_codes[cid] for cid in sorted(set(remaining_class_ids))]
        gens = np.concatenate(gens) if gens else ()
        closed = self.table.closure_codes(gens, subgroup=self._codes[sid])
        result = len(closed) == self.full_order
        self._reach_memo[key] = result
        return result

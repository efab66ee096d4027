"""Permutations and permutation groups.

Conventions used throughout the package:

* points are 0-based integers; disjoint-cycle notation in files is 1-based
  and converted on parse/format,
* products compose left to right: ``x^(p*q) = (x^p)^q``, so
  ``(p * q).images[x] == q.images[p.images[x]]``,
* ``conjugate(g, h) == h.inverse() * g * h``, i.e. relabeling of g's cycles
  by h,
* permutations compare lexicographically on their image arrays, and every
  derived ordering (elements, classes, orbits) comes from that order.

Groups are backed by a deterministic Schreier-Sims stabilizer chain; element
materialization, conjugacy classes and centralizers use exhaustive methods
behind a configurable cap, which is the right trade-off for the group sizes
this package targets (|G| <= a few thousand).
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import BudgetError, InputError, InternalCheckError

DEFAULT_ELEMENT_CAP = 10**6
# products looked up per gather while a GroupTable builds `mul`; at 2^16
# the chunk's temporary arrays stay near 2 MiB
_TABLE_CHUNK = 1 << 16

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


def conjugate(g, h):
    """h^-1 * g * h for Permutations of equal degree."""
    return g.conjugate_by(h)


def _compose(p, q):
    # raw image-tuple composition, left to right
    return tuple(q[i] for i in p)


def _pad256(p):
    return bytes(p) + bytes(range(len(p), 256))


class _Level:
    __slots__ = ("point", "transversal", "inv_transversal", "processed", "tree_edge")

    def __init__(self, point, ident):
        self.point = point
        self.transversal = {point: ident}
        self.inv_transversal = {point: ident}
        self.processed = set()
        self.tree_edge = {}


class StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain.

    Strong generators are kept in one list together with their depth (the
    number of leading base points they fix); the acting set of level i is
    every strong generator of depth >= i.  ``base_prefix`` forces the first
    base points (their levels exist even with trivial orbits), which makes
    the pointwise stabilizer of a prescribed point set directly readable
    off the chain.  ``strategy`` picks later base points: "greedy" prefers
    the point on the longest cycle of the residue that triggers the level
    (shallower chains), "natural" takes the smallest moved point.

    Internally permutations are bytes composed via str.translate when the
    degree fits in one byte (the by-far common case here, and roughly an
    order of magnitude faster than tuple composition), falling back to
    tuples otherwise.
    """

    def __init__(self, generators, degree, base_prefix=(), strategy="greedy"):
        self.degree = degree
        self.strategy = strategy
        self._bytes_mode = degree <= 256
        if self._bytes_mode:
            self._ident = bytes(range(degree))
        else:
            self._ident = tuple(range(degree))
        self.levels = [_Level(b, self._ident) for b in base_prefix]
        self.sgens = []
        self.sgen_depth = []
        self._pad = {}
        for gen in generators:
            self.add(gen.images if isinstance(gen, Permutation) else gen)

    def _raw(self, images):
        return bytes(images) if self._bytes_mode else tuple(images)

    def _compose(self, p, q):
        if self._bytes_mode:
            tab = self._pad.get(q)
            if tab is None:
                tab = self._pad[q] = _pad256(q)
            return p.translate(tab)
        return _compose(p, q)

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
        ident = self._ident
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            beta = g[level.point]
            if beta == level.point:
                continue
            u = level.inv_transversal.get(beta)
            if u is None:
                return g, i
            g = self._compose(g, u)
            if g == ident:
                return g, len(self.levels)
        return g, len(self.levels)

    def contains(self, perm):
        images = perm.images if isinstance(perm, Permutation) else perm
        residue, _ = self.sift(images)
        return residue == self._ident

    def add(self, images):
        """Add a generator, extending the chain to stay strongly generated."""
        residue, i = self.sift(images)
        if residue == self._ident:
            return False
        self._insert(i, residue)
        for k in range(i, -1, -1):
            self._fix_level(k)
        return True

    def _pick_point(self, residue):
        moved = [i for i, j in enumerate(residue) if i != j]
        if self.strategy == "natural":
            return moved[0]
        # greedy: point on the longest cycle of the residue
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

    def _insert(self, depth, residue):
        # residue fixes the base points of all levels < depth
        if depth == len(self.levels):
            self.levels.append(_Level(self._pick_point(residue), self._ident))
        self.sgens.append(residue)
        self.sgen_depth.append(depth)

    def _acting(self, i):
        return [
            (si, s)
            for si, (s, d) in enumerate(zip(self.sgens, self.sgen_depth))
            if d >= i
        ]

    def _extend_orbit(self, i):
        # incremental BFS; existing transversal entries are never rewritten,
        # so processed Schreier pairs stay valid
        level = self.levels[i]
        acting = self._acting(i)
        trans = level.transversal
        queue = list(trans)
        qi = 0
        while qi < len(queue):
            p = queue[qi]
            qi += 1
            up = trans[p]
            for si, s in acting:
                q = s[p]
                if q not in trans:
                    u = self._compose(up, s)
                    trans[q] = u
                    level.inv_transversal[q] = self._invert(u)
                    level.tree_edge[q] = (p, si)
                    queue.append(q)

    def _fix_level(self, i):
        """Process Schreier generators of level i until the level is closed.

        Nontrivial residues are inserted at the level where sifting stalls
        (always deeper than i) and the intermediate levels are fixed first,
        deepest first; insertions deeper than i enlarge level i's acting
        set, so the orbit is re-extended and the scan repeated.
        """
        level = self.levels[i]
        ident = self._ident
        while True:
            self._extend_orbit(i)
            added = False
            points = list(level.transversal)
            acting = self._acting(i)
            processed = level.processed
            trans = level.transversal
            inv_trans = level.inv_transversal
            tree_edge = level.tree_edge
            for p in points:
                up = trans[p]
                for si, s in acting:
                    key = (p, si)
                    if key in processed:
                        continue
                    processed.add(key)
                    q = s[p]
                    if tree_edge.get(q) == key:
                        continue  # tree edge: Schreier generator is trivial
                    schreier = self._compose(self._compose(up, s), inv_trans[q])
                    if schreier == ident:
                        continue
                    residue, j = self.sift(schreier, i + 1)
                    if residue != ident:
                        self._insert(j, residue)
                        for k in range(j, i, -1):
                            self._fix_level(k)
                        added = True
            if not added and len(points) == len(level.transversal):
                break

    def strong_generators(self, from_level=0):
        return [
            tuple(s) for s, d in zip(self.sgens, self.sgen_depth) if d >= from_level
        ]


class ConjugacyClass:
    """A conjugacy class with its fully materialized, sorted element list."""

    __slots__ = ("group", "representative", "elements", "size")

    def __init__(self, group, elements):
        self.group = group
        self.elements = tuple(sorted(elements))
        self.representative = self.elements[0]
        self.size = len(self.elements)

    def order(self):
        return self.representative.order()

    def cycle_type(self):
        return self.representative.cycle_type()

    def __contains__(self, perm):
        return perm in set(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, ConjugacyClass)
            and self.group is other.group
            and self.representative == other.representative
        )

    def __hash__(self):
        return hash((id(self.group), self.representative))

    def __repr__(self):
        return (
            f"ConjugacyClass({format_cycles(self.representative.images)!r},"
            f" size={self.size})"
        )


class AbelianQuotient:
    """G/G' as an explicit finite abelian group with a coset labeling G -> G/G'.

    Cosets are numbered 0..k-1 with 0 the identity coset; numbering follows
    the lexicographically least element of each coset.
    """

    def __init__(self, group):
        self.group = group
        derived = group.derived_subgroup()
        dset = set(derived.elements())
        label_of = {}
        coset_min = []
        for g in group.elements():
            if g in label_of:
                continue
            members = sorted(g * d for d in dset)
            idx = len(coset_min)
            coset_min.append(members[0])
            for m in members:
                label_of[m] = idx
        # renumber so that coset 0 is the identity coset and the rest sort
        # by minimal representative
        ident_idx = label_of[Permutation.identity(group.degree)]
        order = sorted(range(len(coset_min)), key=lambda i: (i != ident_idx, coset_min[i]))
        renum = {old: new for new, old in enumerate(order)}
        self._label_of = {g: renum[i] for g, i in label_of.items()}
        self.reps = [coset_min[i] for i in order]
        self.size = len(self.reps)
        self._mul = [
            [self._label_of[self.reps[a] * self.reps[b]] for b in range(self.size)]
            for a in range(self.size)
        ]

    def label(self, perm):
        try:
            return self._label_of[perm]
        except KeyError:
            raise InputError("element does not belong to the group") from None

    def class_label(self, conj_class):
        # conjugate elements share a coset of G', so any representative works
        return self.label(conj_class.representative)

    def multiply(self, a, b):
        return self._mul[a][b]

    def power(self, a, k):
        result = 0
        for _ in range(k % self.element_order(a) if k else 0):
            result = self._mul[result][a]
        return result

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


def orbit_partition(step, points=None):
    """Orbits of the maps x -> step[j, x] through the listed points.

    `step` is a (k, m) integer array whose rows are permutations of
    range(m), so that the orbits partition the points; `points` defaults to
    all m points.  Returns the orbit of every listed point once, each as a
    sorted int64 array, ordered by least point.  The orbit algorithm of Holt, Eick and
    O'Brien (Handbook of Computational Group Theory, 4.1), run level by
    level: the images of a whole frontier are gathered at once and the
    unseen ones form the next frontier.
    """
    step = np.asarray(step)
    m = step.shape[1]
    points = range(m) if points is None else np.unique(points).tolist()
    if len(step) == 0:
        return [np.array([p], dtype=np.int64) for p in points]
    seen = np.zeros(m, dtype=bool)
    orbits = []
    for start in points:
        if seen[start]:
            continue
        seen[start] = True
        frontier = np.array([start], dtype=np.int64)
        levels = [frontier]
        while frontier.size:
            images = step[:, frontier].ravel()
            frontier = np.unique(images[~seen[images]])
            seen[frontier] = True
            levels.append(frontier)
        orbits.append(np.sort(np.concatenate(levels)))
    orbits.sort(key=lambda orbit: orbit[0])
    return orbits


def subgroup_codes(mul, identity, codes):
    """Subgroup generated by codes of a dense multiplication table, sorted.

    It is the orbit of the identity under right multiplication by the
    generators.
    """
    gens = np.unique(np.asarray(codes, dtype=np.int64))
    return tuple(orbit_partition(mul[:, gens].T, [identity])[0].tolist())


def conjugation_maps(mul, inv, codes):
    """Row j maps x -> g^-1 x g for g = codes[j], over a dense multiplication table."""
    codes = np.asarray(codes, dtype=np.int64)
    return mul[mul[inv[codes]], codes[:, None]]


class PermGroup:
    """A finite permutation group given by generators.

    The stabilizer chain, element list, conjugacy classes and lookup tables
    are built lazily, each exactly once, and are read-only afterwards.
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
        self._elements = None
        self._classes = None
        self._derived = None
        self._center = None
        self._abelianization = None
        self._table = None
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

    def chain(self, base_prefix=(), strategy="greedy"):
        if base_prefix or strategy != "greedy":
            return StabilizerChain(self.generators, self.degree, base_prefix, strategy)
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
        """All elements, sorted lexicographically; capped materialization."""
        if self._elements is None:
            cap = DEFAULT_ELEMENT_CAP if cap is None else cap
            order = self.order()
            if order > cap:
                raise BudgetError(
                    f"group order {order} exceeds element cap {cap}",
                    consumed=order,
                    budget=cap,
                )
            ident = Permutation.identity(self.degree)
            seen = {ident.images}
            frontier = [ident]
            out = [ident]
            while frontier:
                new = []
                for x in frontier:
                    for g in self.generators:
                        y = x * g
                        if y.images not in seen:
                            seen.add(y.images)
                            new.append(y)
                            out.append(y)
                frontier = new
            out.sort()
            self._elements = tuple(out)
        return self._elements

    def conjugacy_classes(self, cap=None):
        """Conjugacy classes, sorted by (element order, size, least rep)."""
        if self._classes is None:
            elems = self.elements(cap)
            index = {g.images: i for i, g in enumerate(elems)}
            assigned = [False] * len(elems)
            classes = []
            for i, g in enumerate(elems):
                if assigned[i]:
                    continue
                orbit = [g]
                assigned[i] = True
                qi = 0
                while qi < len(orbit):
                    x = orbit[qi]
                    qi += 1
                    for h in self.generators:
                        y = x.conjugate_by(h)
                        j = index[y.images]
                        if not assigned[j]:
                            assigned[j] = True
                            orbit.append(y)
                classes.append(ConjugacyClass(self, orbit))
            classes.sort(key=lambda c: (c.order(), c.size, c.representative.images))
            self._classes = tuple(classes)
        return self._classes

    def class_of(self, perm):
        for c in self.conjugacy_classes():
            if perm in c:
                return c
        raise InputError("element does not belong to the group")

    def centralizer(self, perm):
        """Z(g) as a PermGroup, by exhaustive filtering."""
        if perm not in self:
            raise InputError("centralizer argument must be a group element")
        members = [x for x in self.elements() if x * perm == perm * x]
        return self.subgroup(members, name="centralizer")

    def center(self):
        if self._center is None:
            members = [
                x for x in self.elements() if all(x * g == g * x for g in self.generators)
            ]
            self._center = self.subgroup(members, name="center")
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

    def orbits(self):
        """Orbits on the ambient points, each sorted, ordered by least point."""
        step = np.array([g.images for g in self.generators], dtype=np.int64)
        step = step.reshape(len(self.generators), self.degree)
        return [orbit.tolist() for orbit in orbit_partition(step)]

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
    """Dense multiplication tables for a fully materialized group.

    Elements are coded by their index in the sorted element list; `mul`,
    `inv`, `order_of` and `class_id` are numpy arrays over these codes.
    The hot paths (tuple enumeration, canonicalization, braid moves) work
    on codes only.

    A product or inverse is coded by its images of the chain base B: the
    images of a*b at B are arr[b, arr[a, B]], and `_BaseIndex` turns them
    into a code by len(B) integer gathers.  `mul` is built in row chunks of
    about `_TABLE_CHUNK` products, so the build costs O(|G|^2 * |B|) gathers
    and about 2 MiB beyond the table itself.  `order_of` comes from powering
    every element at once through `mul`.  A product missing from the
    element list raises InternalCheckError.
    """

    def __init__(self, group, cap=None):
        elems = group.elements(cap)
        self.group = group
        self.elements = elems
        self.size = len(elems)
        self.code_of = {g.images: i for i, g in enumerate(elems)}
        self.identity = self.code_of[tuple(range(group.degree))]
        dtype = np.uint16 if self.size < 65535 else np.uint32
        arr = np.ascontiguousarray(np.array([g.images for g in elems], dtype=dtype))
        base = group.chain().base()
        index = _BaseIndex(arr, base, group.degree)
        mul = np.empty((self.size, self.size), dtype=dtype)
        rows = max(1, _TABLE_CHUNK // self.size)
        for a0 in range(0, self.size, rows):
            # block[b, a, j] is the image of base[j] under a*b
            block = arr[:, arr[a0:a0 + rows][:, base]]
            mul[a0:a0 + rows] = index.codes(block).T
        self.mul = mul
        self.inv = index.codes(np.argsort(arr, axis=1)[:, base]).astype(dtype)
        self.order_of = self._orders()
        classes = group.conjugacy_classes(cap)
        self.classes = classes
        class_id = np.empty(self.size, dtype=np.int32)
        for ci, c in enumerate(classes):
            for g in c.elements:
                class_id[self.code_of[g.images]] = ci
        self.class_id = class_id
        self._inner_maps = None

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
        return self.elements[int(code)]

    def inner_maps(self):
        """Element relabeling x -> x^z for every z, as an (m, m) array."""
        if self._inner_maps is None:
            m = self.size
            maps = np.empty((m, m), dtype=self.mul.dtype)
            for z in range(m):
                maps[z] = self.mul[self.mul[int(self.inv[z])], z]
            # row z column x: (z^-1 * x) * z
            self._inner_maps = maps
        return self._inner_maps

    def closure_codes(self, codes):
        """Subgroup generated by the given codes, as a sorted tuple of codes."""
        return subgroup_codes(self.mul, self.identity, codes)


class SubgroupCloser:
    """Interned subgroup closures over a GroupTable, memoized for DFS reuse.

    Subgroups appear as small integer ids; `extend(id, code)` returns the id
    of the subgroup generated by the old one and one more element.  The
    number of distinct subgroups of the desk-scale groups involved is tiny,
    so the memo tables stay small while the DFS calls them millions of times.
    """

    def __init__(self, table):
        self.table = table
        trivial = (table.identity,)
        self._ids = {trivial: 0}
        self._sets = [frozenset(trivial)]
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
        gens = list(base) + [int(code)]
        closed = self.table.closure_codes(gens)
        new_id = self._ids.get(closed)
        if new_id is None:
            new_id = len(self._sets)
            self._ids[closed] = new_id
            self._sets.append(frozenset(closed))
            self._orders.append(len(closed))
        self._extend_memo[key] = new_id
        return new_id

    def can_reach_full(self, sid, remaining_class_ids):
        """True if adding every element of the listed classes can reach the group."""
        key = (sid, remaining_class_ids)
        hit = self._reach_memo.get(key)
        if hit is not None:
            return hit
        gens = list(self._sets[sid])
        class_id = self.table.class_id
        for cid in set(remaining_class_ids):
            gens.extend(
                int(c)
                for c in np.nonzero(class_id == cid)[0]
            )
        closed = self.table.closure_codes(gens)
        result = len(closed) == self.full_order
        self._reach_memo[key] = result
        return result

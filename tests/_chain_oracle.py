"""The stabilizer chain that `perms.StabilizerChain` replaced, as a test oracle.

Every level, level 0 included, acts by all strong generators of depth >= i,
products go through a per-chain cache of padded tables, and acting lists
are rebuilt on every pass.  `sifts` counts the Schreier generators sifted,
as `StabilizerChain.sifts` does.
"""

from hurwitz import Permutation


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


class ChainOracle:
    """Deterministic Schreier-Sims stabilizer chain, every level acting by S_i.

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
        self.sifts = 0
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
                    self.sifts += 1
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

"""Fiber powers of a group over its abelianization, and the row-span test.

The k-fold fiber power of G consists of the k-tuples of elements sharing
one image in G^ab; realized on k disjoint copies of G's domain it is
generated by the diagonal embedding of G together with per-coordinate
embeddings of the derived subgroup, and has order |G| * |G'|^(k-1).

Writing k fiber points side by side as the columns of an n-by-k matrix,
the rows lie in the fiber power; for a pseudosimple base group whose
class-preserving automorphisms all fix the classes, the rows generate the
whole fiber power exactly when the k points are pairwise distinct.  That
equivalence is the Goursat-style distinctness criterion this module
implements as an exact test.

For k = 2 the test is one homomorphism closure.  Let H be the span of the
rows (t_j, t'_j).  When t and t' both generate G, both projections of H
are onto G, so N, the intersection of H with 1 x G, is normal in G; G' is
the unique minimal normal subgroup of a pseudosimple G, so N is trivial or
contains G'.  If N is trivial, H is the graph of an automorphism carrying
t to t', and `structure._hom_closure` finds it.  Otherwise |H| >= |G| *
|G'|, which is the whole fiber square.  So the span is full exactly when
the closure finds no homomorphism.  The closure also finds none when t
fails to generate G, so each tuple is first confirmed to generate G (one
subgroup closure per distinct tuple, cached by the checker); a tuple that
does not generate G goes to the chain.  For k >= 3 the argument reaches
only pairs of coordinates, and when G' = T^w with w > 1 a span that is
full on every pair need not be full, so the test compares the order of the
rows' stabilizer chain with the fiber power's.

`row_span_checker(h, k)` checks the group-level preconditions and builds
the fiber power once, and returns a checker of k tuples; sweeping many
tuple sets of one parameter (as `hurwitz goursat` does over all pairs of
fiber points, by their code rows) goes through one checker.
`row_span_check(h, tuples)` is the single-shot form.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, UnsupportedConfigurationError
from .perms import PermGroup, Permutation
from .structure import _hom_closure, is_ambiguous, is_pseudosimple


class FiberPowerGroup:
    """G x_{G^ab} ... x_{G^ab} G on k disjoint copies of G's domain."""

    def __init__(self, base, k):
        if k < 1:
            raise InputError("fiber power exponent must be at least 1")
        table = base.table()
        if table.center_order() > 1:
            raise InputError("fiber powers are built for centerless base groups")
        self.base = base
        self.k = k
        d = base.degree
        gens = []
        for g in base.generators:
            gens.append(self.embed_diagonal(g))
        derived = table.derived_gen_codes()
        for i in range(k):
            for c in derived:
                gens.append(self.embed_coordinate(table.elements[c], i))
        self.realized = PermGroup(d * k, gens, name=f"fiber power k={k}")
        expected = table.size * len(table.closure_codes(derived)) ** (k - 1)
        if self.realized.order() != expected:
            raise InputError(
                f"fiber power order {self.realized.order()} differs from "
                f"{expected}; base group data inconsistent"
            )
        self.order = expected

    def embed_diagonal(self, g):
        d = self.base.degree
        images = []
        for i in range(self.k):
            images.extend(i * d + x for x in g.images)
        return Permutation(images)

    def embed_coordinate(self, g, i):
        d = self.base.degree
        images = list(range(self.k * d))
        for x, y in enumerate(g.images):
            images[i * d + x] = i * d + y
        return Permutation(images)

    def embed_tuple(self, elements):
        """One fiber-power element from k base elements with equal abelianization."""
        if len(elements) != self.k:
            raise InputError(f"expected {self.k} coordinates")
        ab = self.base.abelianization()
        labels = {ab.label(g) for g in elements}
        if len(labels) != 1:
            raise InputError("coordinates differ in the abelianization")
        d = self.base.degree
        images = []
        for i, g in enumerate(elements):
            images.extend(i * d + x for x in g.images)
        return Permutation(images)

    def coordinate_projection(self, perm, i):
        d = self.base.degree
        return Permutation(perm.images[i * d + x] - i * d for x in range(d))

    def __repr__(self):
        return f"FiberPowerGroup({self.base!r}, k={self.k}, order={self.order})"


def _classes_safe_for_row_span(h):
    """The distinctness criterion needs unambiguous classes, unless every
    automorphism over the abelianization already fixes each class (then the
    step of the argument that uses unambiguity is vacuous; symmetric groups
    other than S6 are the standard case, having inner automorphisms only).
    """
    if not any(is_ambiguous(h.group, c) for c in h.classes):
        return
    from .structure import automorphism_group

    aut = automorphism_group(h.group)
    ab = h.group.abelianization()
    all_classes = h.group.conjugacy_classes()
    rep_labels = [ab.label(c.representative) for c in all_classes]
    for i, a in enumerate(aut.maps):
        over_ab = all(
            rep_labels[ci] == rep_labels[aut.class_action[i][ci]]
            for ci in range(len(all_classes))
        )
        if over_ab and any(
            aut.class_action[i][ci] != ci for ci in range(len(all_classes))
        ):
            raise UnsupportedConfigurationError(
                "ambiguous class present and some automorphism over the "
                "abelianization moves a class; the distinctness criterion "
                "does not apply"
            )


class RowSpanChecker:
    """Whether the rows of k tuples generate the full fiber power.

    Calling the checker on a list of k Nielsen tuples (lifted fiber
    representatives) returns a bool; `check_codes` takes the tuples as a
    (k, n) array of element codes of the group's table.  Preconditions,
    checked once when the checker is built: the group is pseudosimple, and
    either all classes are unambiguous or every automorphism over the
    abelianization fixes each class (otherwise
    UnsupportedConfigurationError).  Every row must lie in one coset of G'
    (otherwise InputError).  For k = 2 the verdict is one homomorphism
    closure when both tuples generate G, and otherwise, as for every other
    k, the order of the rows' stabilizer chain (see the module docstring).
    """

    def __init__(self, h, k):
        if k < 1:
            raise InputError("at least one tuple is required")
        verdict = is_pseudosimple(h.group)
        if not verdict.pseudosimple:
            raise UnsupportedConfigurationError(
                f"group not pseudosimple: {verdict.reason}"
            )
        _classes_safe_for_row_span(h)
        self.power = FiberPowerGroup(h.group, k)
        self.table = h.group.table()
        self.labels = h.group.abelianization().labels
        self.k = k
        self.n = h.n
        self._generates = {}

    def __call__(self, tuples):
        if len(tuples) != self.k:
            raise InputError(f"expected {self.k} tuples, got {len(tuples)}")
        for t in tuples:
            if len(t) != self.n:
                raise InputError("tuple length does not match the parameter")
        return self.check_codes([[self.table.code(g) for g in t] for t in tuples])

    def check_codes(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        if codes.shape != (self.k, self.n):
            raise InputError(f"expected {self.k} tuples of length {self.n}")
        labels = self.labels[codes]
        if (labels != labels[0]).any():
            raise InputError("coordinates differ in the abelianization")
        if self.k == 2 and all(self._generates_group(t) for t in codes):
            return _hom_closure(self.table, self.table, codes[0], codes[1]) is None
        power = self.power
        elements = self.table.elements
        rows = [power.embed_tuple([elements[c] for c in row]) for row in codes.T.tolist()]
        return PermGroup(power.realized.degree, rows).order() == power.order

    def _generates_group(self, codes):
        key = codes.tobytes()
        hit = self._generates.get(key)
        if hit is None:
            hit = self._generates[key] = len(self.table.closure_codes(codes)) == self.table.size
        return hit


def row_span_checker(h, k):
    """The `RowSpanChecker` of k tuples of the parameter h."""
    return RowSpanChecker(h, k)


def row_span_check(h, tuples):
    """Whether the rows of the tuple matrix generate the full fiber power;
    one-shot form of `row_span_checker(h, len(tuples))`."""
    return row_span_checker(h, len(tuples))(tuples)

#!/usr/bin/env python3
"""Derive the bundled group, cover, and parameter fixtures from matrix groups.

Every cover ships as JSON (cover generators, image generators, base group)
and is rebuilt here from classical matrix constructions:

* SL2(F5) acting on the 24 nonzero vectors of F5^2, over A5 (degree 5),
* the double cover of S6 as <SL2(F9), coordinatewise Frobenius> on the 80
  nonzero vectors of F9^2, over S6 (degree 6) via the projective line,
* the double cover of S5 as the preimage of a point stabilizer S5 < S6
  inside that group (note: {det = +-1} in GL2(F5) does NOT work: -1 is a
  square mod 5, so that subgroup is a central product SL2(5) . C4 with
  center C4 and quotient A5 x C2, not S5),
* the double cover of PGL2(F7) as {det = +-1} in GL2(F7) on the 48 nonzero
  vectors of F7^2 (here -1 is a nonsquare, so the construction does give
  a stem double cover), over PGL2(7) acting on the 8 points of the
  projective line.

A second realization of the S5 double cover, pulled back along a
transitive (non-point-stabilizer) S5 < S6, is written as 2S5_alt.json and
used to test that pairing computations do not depend on the cover chosen.

Run from the repository root:  python3 scripts/derive_covers.py
With --check, the fixtures are derived into a temporary directory instead
and compared byte for byte with the bundled ones; the exit status is 1 when
any file differs, is missing, or is extra.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hurwitz import PermGroup, Permutation, find_isomorphism, format_cycles, orbit_labels
from hurwitz.covers import CentralExtension

DATA = Path(__file__).resolve().parent.parent / "src" / "hurwitz" / "data"


# ---------------------------------------------------------------------------
# small finite fields


class Fp:
    def __init__(self, p):
        self.p = p
        self.elements = list(range(p))

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p


class F9:
    """F3[i]/(i^2 + 1); elements are pairs (a, b) = a + b*i with a, b in F3."""

    def __init__(self):
        self.elements = [(a, b) for a in range(3) for b in range(3)]

    def add(self, x, y):
        return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3)

    def mul(self, x, y):
        a, b = x
        c, d = y
        return ((a * c - b * d) % 3, (a * d + b * c) % 3)

    def neg(self, x):
        return ((-x[0]) % 3, (-x[1]) % 3)

    def frob(self, x):
        # x -> x^3 is conjugation a + bi -> a - bi
        return (x[0], (-x[1]) % 3)


def vectors(field):
    zero = field.elements[0] if not isinstance(field, F9) else (0, 0)
    if isinstance(field, Fp):
        zero = 0
    return [
        (x, y)
        for x in field.elements
        for y in field.elements
        if not (x == zero and y == zero)
    ]


def matrix_perm(field, mat, vecs, index):
    """Permutation of nonzero row vectors v -> v * mat."""
    (a, b), (c, d) = mat
    images = []
    for (x, y) in vecs:
        nx = field.add(field.mul(x, a), field.mul(y, c))
        ny = field.add(field.mul(x, b), field.mul(y, d))
        images.append(index[(nx, ny)])
    return Permutation(images)


def frobenius_perm(field, vecs, index):
    images = [index[(field.frob(x), field.frob(y))] for (x, y) in vecs]
    return Permutation(images)


def proj_line_action(field, mats_or_perms, vecs, index, frob_flags):
    """Images of the given matrices (or Frobenius) on the projective line.

    Lines are labeled 0..q: first (0, 1), then (1, y) ordered by y's index
    in the field element list.
    """
    one = 1 if isinstance(field, Fp) else (1, 0)
    zero = 0 if isinstance(field, Fp) else (0, 0)
    lines = [(zero, one)] + [(one, y) for y in field.elements]
    line_index = {}
    for li, (x, y) in enumerate(lines):
        for lam in field.elements:
            if lam == zero:
                continue
            line_index[(field.mul(x, lam), field.mul(y, lam))] = li
    out = []
    for item, is_frob in frob_flags:
        images = []
        for (x, y) in lines:
            if is_frob:
                nx, ny = field.frob(x), field.frob(y)
            else:
                (a, b), (c, d) = item
                nx = field.add(field.mul(x, a), field.mul(y, c))
                ny = field.add(field.mul(x, b), field.mul(y, d))
            images.append(line_index[(nx, ny)])
        out.append(Permutation(images))
    return out


# ---------------------------------------------------------------------------
# json writers


def write_group(path, name, group, comment=None):
    data = {
        "name": name,
        "degree": group.degree,
        "generators": [format_cycles(g.images) for g in group.generators],
    }
    if comment:
        data["comment"] = comment
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} (order {group.order()})")


def write_cover(path, name, cover_gens, image_gens, base_name, degree, base_degree, comment=None):
    data = {
        "name": name,
        "degree": degree,
        "base_degree": base_degree,
        "base_group": base_name,
        "cover_generators": [format_cycles(g.images) for g in cover_gens],
        "image_generators": [format_cycles(g.images) for g in image_gens],
    }
    if comment:
        data["comment"] = comment
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def write_params(root):
    params = {
        "h25.json": {
            "name": "h25",
            "group": "S5",
            "classes": ["(1 2)", "(1 2 3 4 5)"],
            "nu": [4, 1],
            "comment": "degree-25 cover of the (4,1) configuration space",
        },
        "s5_221.json": {
            "name": "s5_221",
            "group": "S5",
            "classes": ["(1 2)", "(1 2 3)", "(1 2 3 4 5)"],
            "nu": [2, 2, 1],
        },
        "s5_212.json": {
            "name": "s5_212",
            "group": "S5",
            "classes": ["(1 2)", "(1 2 3)", "(1 2 3 4 5)"],
            "nu": [2, 1, 2],
        },
        "a5_c3_n4.json": {
            "name": "a5_c3_n4",
            "group": "A5",
            "classes": ["(1 2 3)"],
            "nu": [4],
        },
        "a5_c3_n5.json": {
            "name": "a5_c3_n5",
            "group": "A5",
            "classes": ["(1 2 3)"],
            "nu": [5],
        },
        "a5_c3_n6.json": {
            "name": "a5_c3_n6",
            "group": "A5",
            "classes": ["(1 2 3)"],
            "nu": [6],
        },
        "s6_e_fail.json": {
            "name": "s6_e_fail",
            "group": "S6",
            "classes": [
                {"cycle_type": [4, 2]},
                {"cycle_type": [3, 3]},
            ],
            "comment": "no nu: class list input for the homological condition",
        },
        "s6_e_hold.json": {
            "name": "s6_e_hold",
            "group": "S6",
            "classes": [
                {"cycle_type": [4, 2]},
                {"cycle_type": [2, 1, 1, 1, 1]},
            ],
        },
    }
    for fname, data in params.items():
        path = root / "params" / fname
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


def derive(root):
    """Derive, verify and write every fixture under `root`."""
    for sub in ("groups", "covers", "params"):
        (root / sub).mkdir(parents=True, exist_ok=True)

    # ---- plain groups -----------------------------------------------------
    S5 = PermGroup.symmetric(5, name="S5")
    S6 = PermGroup.symmetric(6, name="S6")
    S4 = PermGroup.symmetric(4, name="S4")
    A5 = PermGroup.from_cycles(5, ["(1 2 3)", "(3 4 5)"], name="A5")
    assert S5.order() == 120 and S6.order() == 720 and A5.order() == 60
    write_group(root / "groups" / "S5.json", "S5", S5)
    write_group(root / "groups" / "S6.json", "S6", S6)
    write_group(root / "groups" / "S4.json", "S4", S4)
    write_group(root / "groups" / "A5.json", "A5", A5)

    # ---- SL2(F5) over A5 --------------------------------------------------
    f5 = Fp(5)
    v5 = vectors(f5)
    idx5 = {v: i for i, v in enumerate(v5)}
    sl2_mats = [((1, 1), (0, 1)), ((0, 1), (4, 0))]
    sl2_gens = [matrix_perm(f5, m, v5, idx5) for m in sl2_mats]
    SL25 = PermGroup(24, sl2_gens, name="SL2(5)")
    assert SL25.order() == 120, SL25.order()
    psl_gens = proj_line_action(f5, sl2_mats, v5, idx5, [(m, False) for m in sl2_mats])
    PSL25 = PermGroup(6, psl_gens, name="PSL2(5)")
    assert PSL25.order() == 60
    iso = find_isomorphism(PSL25, A5)
    assert iso is not None, "no isomorphism PSL2(5) -> A5 found"
    sl25_images = [iso[p] for p in psl_gens]
    write_cover(
        root / "covers" / "SL25.json",
        "SL2(5) over A5",
        sl2_gens,
        sl25_images,
        "A5",
        24,
        5,
        comment="SL2(F5) on the nonzero vectors of F5^2; kernel {+-1}",
    )
    ext = CentralExtension.from_generators(sl2_gens, sl25_images, A5, name="SL25")
    assert ext.kernel_order() == 2

    # ---- 2.S6 = <SL2(F9), Frobenius> over S6 ------------------------------
    f9 = F9()
    v9 = vectors(f9)
    idx9 = {v: i for i, v in enumerate(v9)}
    one, i_el = (1, 0), (0, 1)
    neg_one = f9.neg(one)
    mats9 = [
        ((one, one), ((0, 0), one)),
        ((one, i_el), ((0, 0), one)),
        (((0, 0), one), (neg_one, (0, 0))),
    ]
    sl29_gens = [matrix_perm(f9, m, v9, idx9) for m in mats9]
    SL29 = PermGroup(80, sl29_gens, name="SL2(9)")
    assert SL29.order() == 720, SL29.order()
    frob = frobenius_perm(f9, v9, idx9)
    cover6_gens = sl29_gens + [frob]
    C2S6 = PermGroup(80, cover6_gens, name="2.S6")
    assert C2S6.order() == 1440, C2S6.order()
    line_action = proj_line_action(
        f9, None, v9, idx9, [(m, False) for m in mats9] + [(None, True)]
    )
    PSigmaL = PermGroup(10, line_action, name="PSigmaL2(9)")
    assert PSigmaL.order() == 720
    iso6 = find_isomorphism(PSigmaL, S6)
    assert iso6 is not None, "no isomorphism PSigmaL2(9) -> S6 found"
    images6 = [iso6[p] for p in line_action]
    write_cover(
        root / "covers" / "2S6.json",
        "2.S6",
        cover6_gens,
        images6,
        "S6",
        80,
        6,
        comment="<SL2(F9), coordinatewise Frobenius> on nonzero vectors of F9^2",
    )
    ext6 = CentralExtension.from_generators(cover6_gens, images6, S6, name="2S6")
    assert ext6.kernel_order() == 2

    # ---- 2.S5: preimage of a point stabilizer S5 < S6 ---------------------
    # stabilizer of the last point, generated by (1 2) and (1 2 3 4 5)
    def s6_perm(cycles):
        return Permutation.from_cycles(cycles, 6)

    def restrict_to_5(p):
        assert p.images[5] == 5
        return Permutation(p.images[:5])

    stab_gens = [s6_perm("(1 2)"), s6_perm("(1 2 3 4 5)")]
    minus_one = None
    kernel_perm = ext6.table.perm(ext6.kernel_codes[-1])
    # preimages of the stabilizer generators, lexicographically least
    bt6 = S6.table()
    pre_gens = [ext6.table.perm(ext6.lift_code(bt6.code(g))) for g in stab_gens]
    cover5_gens = pre_gens + [kernel_perm]
    images5 = [restrict_to_5(g) for g in stab_gens] + [Permutation.identity(5)]
    C2S5 = PermGroup(80, cover5_gens, name="2.S5")
    assert C2S5.order() == 240, C2S5.order()
    write_cover(
        root / "covers" / "2S5.json",
        "2.S5",
        cover5_gens,
        images5,
        "S5",
        80,
        5,
        comment="preimage of a point stabilizer S5 < S6 inside the S6 double cover",
    )
    ext5 = CentralExtension.from_generators(cover5_gens, images5, S5, name="2S5")
    assert ext5.kernel_order() == 2

    # ---- alternative 2.S5 through a transitive S5 < S6 --------------------
    from hurwitz import automorphism_group

    aut6 = automorphism_group(S6)
    outer = next(a for a in aut6.maps if not a.inner)
    exotic_gens = [outer.apply(g) for g in stab_gens]
    Exotic = PermGroup(6, exotic_gens, name="exotic S5")
    assert Exotic.order() == 120
    transitive = not orbit_labels([g.images for g in exotic_gens]).any()
    assert transitive, "exotic S5 should be transitive on 6 points"
    iso_ex = find_isomorphism(Exotic, S5)
    assert iso_ex is not None
    pre_ex = [ext6.table.perm(ext6.lift_code(bt6.code(g))) for g in exotic_gens]
    cover5b_gens = pre_ex + [kernel_perm]
    images5b = [iso_ex[g] for g in exotic_gens] + [Permutation.identity(5)]
    C2S5b = PermGroup(80, cover5b_gens, name="2.S5 alt")
    assert C2S5b.order() == 240, C2S5b.order()
    write_cover(
        root / "covers" / "2S5_alt.json",
        "2.S5 (alternative realization)",
        cover5b_gens,
        images5b,
        "S5",
        80,
        5,
        comment="pullback along a transitive S5 < S6; pairing values must agree with 2S5.json",
    )
    CentralExtension.from_generators(cover5b_gens, images5b, S5, name="2S5_alt")

    # ---- 2.PGL2(7) = {det = +-1} in GL2(F7) over PGL2(7) ------------------
    f7 = Fp(7)
    v7 = vectors(f7)
    idx7 = {v: i for i, v in enumerate(v7)}
    mats7 = [((1, 1), (0, 1)), ((0, 1), (6, 0)), ((1, 0), (0, 6))]
    cover7_gens = [matrix_perm(f7, m, v7, idx7) for m in mats7]
    C2PGL = PermGroup(48, cover7_gens, name="2.PGL2(7)")
    assert C2PGL.order() == 672, C2PGL.order()
    pgl_gens = proj_line_action(f7, None, v7, idx7, [(m, False) for m in mats7])
    PGL27 = PermGroup(8, pgl_gens, name="PGL2(7)")
    assert PGL27.order() == 336, PGL27.order()
    write_group(
        root / "groups" / "PGL27.json",
        "PGL27",
        PGL27,
        comment="PGL2(F7) on the 8 points of the projective line",
    )
    write_cover(
        root / "covers" / "2PGL27.json",
        "2.PGL2(7)",
        cover7_gens,
        pgl_gens,
        "PGL27",
        48,
        8,
        comment="{det = +-1} in GL2(F7) on nonzero vectors of F7^2 (-1 is a nonsquare mod 7)",
    )
    ext7 = CentralExtension.from_generators(cover7_gens, pgl_gens, PGL27, name="2PGL27")
    assert ext7.kernel_order() == 2

    # ---- parameter files ---------------------------------------------------
    write_params(root)
    print("all fixtures derived and verified")


def diff_trees(expected, actual):
    """Relative paths of the files that differ between two directory trees."""

    def files(root):
        return {p.relative_to(root): p for p in root.rglob("*") if p.is_file()}

    want, got = files(expected), files(actual)
    return sorted(
        str(rel)
        for rel in want.keys() | got.keys()
        if rel not in want or rel not in got or want[rel].read_bytes() != got[rel].read_bytes()
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="derive into a temporary directory and compare with the bundled fixtures",
    )
    args = parser.parse_args(argv)
    if not args.check:
        derive(DATA)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        derive(Path(tmp))
        differ = diff_trees(DATA, Path(tmp))
    for rel in differ:
        print(f"differs from the bundled fixture: {rel}")
    print("fixtures match" if not differ else f"{len(differ)} fixture file(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

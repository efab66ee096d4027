"""Shared fixtures: bundled groups and covers, plus the expensive shared
fiber/monodromy computations (built once per session, reused everywhere,
with wall times recorded for the runtime-budget assertions)."""

import random
import time

import numpy as np
import pytest

import hurwitz as hw
from hurwitz.io import load_cover_file, load_group_file, resolve_reference


def _group(name):
    return load_group_file(resolve_reference(name, "groups"))


def _cover(name, base):
    return load_cover_file(resolve_reference(name, "covers"), base_group=base)


@pytest.fixture(scope="session")
def s5():
    return _group("S5")


@pytest.fixture(scope="session")
def s6():
    return _group("S6")


@pytest.fixture(scope="session")
def s4():
    return _group("S4")


@pytest.fixture(scope="session")
def a5():
    return _group("A5")


@pytest.fixture(scope="session")
def pgl27():
    return _group("PGL27")


@pytest.fixture(scope="session")
def ext_2s5(s5):
    return _cover("2S5", s5)


@pytest.fixture(scope="session")
def ext_2s5_alt(s5):
    return _cover("2S5_alt", s5)


@pytest.fixture(scope="session")
def ext_2s6(s6):
    return _cover("2S6", s6)


@pytest.fixture(scope="session")
def ext_sl25(a5):
    return _cover("SL25", a5)


@pytest.fixture(scope="session")
def ext_2pgl27(pgl27):
    return _cover("2PGL27", pgl27)


def cover_group(ext):
    """The permutation group generated by the generators of an extension's
    cover table, in the table's generator order."""
    gens = [ext.table.perm(c) for c in ext.table.gen_codes]
    return hw.PermGroup(gens[0].degree, gens)


def random_perm(rng, degree):
    img = list(range(degree))
    rng.shuffle(img)
    return hw.Permutation(img)


def random_groups():
    """50 seeded random permutation groups of degree at most 8 and order at
    most 2000, each generated by one to three random permutations."""
    rng = random.Random(29)
    groups = []
    while len(groups) < 50:
        degree = rng.randint(1, 8)
        G = hw.PermGroup(degree, [random_perm(rng, degree) for _ in range(rng.randint(1, 3))])
        if G.order() <= 2000:
            groups.append(G)
    return groups


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


def parse_digits(digits):
    """The int a digit string spells, a thousand digits at a time."""
    value = 0
    for lo in range(0, len(digits), 1000):
        piece = digits[lo : lo + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def class_by_type(group, cycle_type):
    want = tuple(sorted(cycle_type, reverse=True))
    for c in group.conjugacy_classes():
        if c.cycle_type() == want:
            return c
    raise AssertionError(f"no class of type {cycle_type}")


@pytest.fixture(scope="session")
def h25(s5):
    c2111 = class_by_type(s5, (2, 1, 1, 1))
    c5 = class_by_type(s5, (5,))
    return hw.validate_parameter(s5, [c2111, c5], [4, 1])


@pytest.fixture(scope="session")
def h25_data(h25):
    """Tuples, both fibers, and the monodromy report for the degree-25 cover."""
    t0 = time.time()
    tuples = hw.enumerate_tuples(h25)
    fiber_inn = hw.build_fiber(h25, "inn", tuples=tuples)
    fiber_aut = hw.build_fiber(h25, "aut", tuples=tuples)
    report = hw.monodromy_group(fiber_aut)
    elapsed = time.time() - t0
    return {
        "tuples": tuples,
        "fiber_inn": fiber_inn,
        "fiber_aut": fiber_aut,
        "report": report,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def contrasting_pair(s5):
    """Fibers and monodromy reports of the nu=(2,2,1) / nu=(2,1,2) pair."""
    c2111 = class_by_type(s5, (2, 1, 1, 1))
    c311 = class_by_type(s5, (3, 1, 1))
    c5 = class_by_type(s5, (5,))
    out = {}
    t0 = time.time()
    for key, nu in (("221", (2, 2, 1)), ("212", (2, 1, 2))):
        h = hw.validate_parameter(s5, [c2111, c311, c5], nu)
        fiber = hw.build_fiber(h, "aut")
        report = hw.monodromy_group(fiber)
        out[key] = {"h": h, "fiber": fiber, "report": report}
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="session")
def a5_c3(a5):
    return class_by_type(a5, (3, 1, 1))


def _a5_case(a5, a5_c3, ext_sl25, n):
    from hurwitz.covers import LiftData
    from hurwitz.monodromy import braid_orbits, fiber_generator_arrays

    h = hw.validate_parameter(a5, [a5_c3], [n])
    tuples = hw.enumerate_tuples(h)
    fiber = hw.build_fiber(h, "inn", tuples=tuples)
    lift = LiftData(hw.reduce_cover(ext_sl25, h.classes), h)
    words, arrays = fiber_generator_arrays(fiber)
    orbits = braid_orbits(fiber, arrays, lift_data=lift)
    return {
        "h": h,
        "tuples": tuples,
        "fiber": fiber,
        "lift": lift,
        "words": words,
        "arrays": arrays,
        "orbits": orbits,
    }


@pytest.fixture(scope="session")
def a5_n4(a5, a5_c3, ext_sl25):
    return _a5_case(a5, a5_c3, ext_sl25, 4)


@pytest.fixture(scope="session")
def a5_n5(a5, a5_c3, ext_sl25):
    return _a5_case(a5, a5_c3, ext_sl25, 5)


@pytest.fixture(scope="session")
def a5_n6(a5, a5_c3, ext_sl25):
    return _a5_case(a5, a5_c3, ext_sl25, 6)

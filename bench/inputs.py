"""Seeded benchmark inputs: relabeled copies of the bundled data.

The seed draws one random relabeling of the points of every bundled group
and every bundled cover; seed 0 draws the identity.  Groups, covers and
parameters (bundled and generated) are written flat into one directory and
reference each other by file name, so the program reads nothing else.
A relabeling changes no answer that the oracle checks, only the order in
which the program meets points, elements and classes.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from workloads import GENERATED_PARAMS

_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_perm(value, degree):
    """0-based image list of a cycle string (1-based) or an image array."""
    if isinstance(value, list):
        return list(value)
    images = list(range(degree))
    for body in _CYCLE.findall(value):
        pts = [int(x) - 1 for x in body.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return images


def format_perm(images):
    """1-based cycle string, each cycle led by its least point."""
    seen = [False] * len(images)
    cycles = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cyc = []
        p = start
        while not seen[p]:
            seen[p] = True
            cyc.append(str(p + 1))
            p = images[p]
        cycles.append("(" + " ".join(cyc) + ")")
    return "".join(cycles) or "()"


def relabel(value, sigma):
    """The permutation sigma g sigma^-1 in the notation of the input."""
    images = parse_perm(value, len(sigma))
    out = [0] * len(sigma)
    for i, j in enumerate(images):
        out[sigma[i]] = sigma[j]
    return format_perm(out) if isinstance(value, str) else out


def _draw(rng, degree, seed):
    sigma = list(range(degree))
    if seed:
        rng.shuffle(sigma)
    return sigma


def _ref(name):
    return f"{name}.json"


def write_inputs(data_root, out_dir, seed):
    """Write the seed's relabeled groups, covers and parameters into out_dir."""
    data_root = Path(data_root)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    groups = {p.stem: json.loads(p.read_text()) for p in sorted((data_root / "groups").glob("*.json"))}
    sigmas = {}
    for name, g in groups.items():
        sigma = sigmas[name] = _draw(rng, g["degree"], seed)
        g["generators"] = [relabel(x, sigma) for x in g["generators"]]
        _dump(out_dir / _ref(name), g)

    for path in sorted((data_root / "covers").glob("*.json")):
        c = json.loads(path.read_text())
        base = c["base_group"]
        tau = _draw(rng, c["degree"], seed)
        c["cover_generators"] = [relabel(x, tau) for x in c["cover_generators"]]
        c["image_generators"] = [relabel(x, sigmas[base]) for x in c["image_generators"]]
        c["base_group"] = _ref(base)
        _dump(out_dir / path.name, c)

    params = {p.stem: json.loads(p.read_text()) for p in sorted((data_root / "params").glob("*.json"))}
    params.update({name: dict(p, name=name) for name, p in GENERATED_PARAMS.items()})
    for name, p in params.items():
        sigma = sigmas[p["group"]]
        p["classes"] = [sel if isinstance(sel, dict) else relabel(sel, sigma) for sel in p["classes"]]
        p["group"] = _ref(p["group"])
        _dump(out_dir / _ref(name), p)
    return out_dir


def _dump(path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")

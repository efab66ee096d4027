"""File ingestion: groups, covers, and Hurwitz parameters as JSON.

Formats (all cycles 1-based in files, e.g. "(1 2)(3 4 5)"; permutations may
also be given as 0-based image arrays):

group file      {"name": str, "degree": int, "generators": [perm, ...]}
cover file      {"degree": int, "base_degree": int, "base_group": name-or-file,
                 "cover_generators": [perm, ...], "image_generators": [perm, ...]}
parameter file  {"group": name-or-file, "classes": [selector, ...], "nu": [int, ...]}

A class selector is an explicit representative (a permutation) or an object
{"order": k, "cycle_type": [parts]} with at least one key; a selector
matching zero or several classes is an error, which forces explicit
representatives for classes that share order and cycle type.  "nu" may be
omitted for operations that take a bare class list (classification,
condition E).

Name references ("S5") and relative paths resolve against the referencing
file's directory, the working directory, and finally the bundled data
shipped with the package.  Errors carry a JSON-pointer-style location.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path

from .covers import CentralExtension
from .errors import InputError
from .nielsen import HurwitzParameter, validate_classes, validate_parameter
from .perms import PermGroup, Permutation


def _data_root():
    return resources.files("hurwitz") / "data"


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def resolve_reference(ref, kind, relative_to=None):
    """Resolve a name-or-path reference to an existing file path.

    Bare names resolve inside the bundled data (data/<kind>/<name>.json);
    anything with a path separator or .json suffix is tried as a file,
    first relative to the referencing file, then to the working directory,
    then inside the bundled data root.
    """
    ref = str(ref)
    candidates = []
    looks_like_path = "/" in ref or ref.endswith(".json")
    if looks_like_path:
        if relative_to is not None:
            candidates.append(Path(relative_to) / ref)
        candidates.append(Path(ref))
    else:
        candidates.append(None)  # marker: bundled name
    for cand in candidates:
        if cand is None:
            bundled = _data_root() / kind / f"{ref}.json"
            if bundled.is_file():
                return bundled
        elif cand.is_file():
            return cand
    if looks_like_path:
        bundled = _data_root() / ref
        if bundled.is_file():
            return bundled
    raise InputError(f"cannot resolve {kind} reference {ref!r}")


def _require(data, key, types, pointer):
    if key not in data:
        raise InputError(f"missing required key {key!r}", pointer=pointer)
    value = data[key]
    if not isinstance(value, types):
        raise InputError(
            f"key {key!r} has the wrong type (expected {types})", pointer=f"{pointer}/{key}"
        )
    return value


def _is_positive_int(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def parse_permutation(value, degree, pointer):
    """A permutation from cycle notation (1-based) or an image array (0-based)."""
    if isinstance(value, str):
        try:
            return Permutation.from_cycles(value, degree)
        except InputError as e:
            raise InputError(str(e), pointer=pointer) from None
    if isinstance(value, list):
        if sorted(value) != list(range(degree)):
            raise InputError(
                f"image array is not a permutation of 0..{degree - 1}", pointer=pointer
            )
        return Permutation(value)
    raise InputError("permutation must be a cycle string or an image array", pointer=pointer)


def _read_object(path, kind):
    """The JSON object in a file; anything else is an InputError."""
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path}: {e}") from None
    if not isinstance(data, dict):
        raise InputError(f"{kind} file must be a JSON object", pointer="/")
    return data


def load_group_file(path):
    path = Path(path)
    data = _read_object(path, "group")
    degree = _require(data, "degree", int, "")
    gens_raw = _require(data, "generators", list, "")
    gens = [
        parse_permutation(g, degree, f"/generators/{i}") for i, g in enumerate(gens_raw)
    ]
    return PermGroup(degree, gens, name=data.get("name") or path.stem)


def resolve_group(ref, relative_to=None):
    return load_group_file(resolve_reference(ref, "groups", relative_to))


def select_class(group, selector, pointer):
    """One conjugacy class from an explicit representative or a filter object."""
    if isinstance(selector, (str, list)):
        rep = parse_permutation(selector, group.degree, pointer)
        try:
            return group.class_of(rep)
        except InputError:
            raise InputError(
                "representative does not belong to the group", pointer=pointer
            ) from None
    if isinstance(selector, dict):
        if not ({"order", "cycle_type"} & set(selector)):
            raise InputError(
                "class selector needs 'order' and/or 'cycle_type'", pointer=pointer
            )
        matches = list(group.conjugacy_classes())
        if "order" in selector:
            matches = [c for c in matches if c.order() == selector["order"]]
        if "cycle_type" in selector:
            parts = selector["cycle_type"]
            if not isinstance(parts, list) or not all(_is_positive_int(v) for v in parts):
                raise InputError("'cycle_type' must be a list of positive integers", pointer=pointer)
            want = tuple(sorted(parts, reverse=True))
            total = sum(want)
            if total > group.degree:
                raise InputError("cycle_type exceeds the degree", pointer=pointer)
            want = tuple(
                sorted(list(want) + [1] * (group.degree - total), reverse=True)
            )
            matches = [c for c in matches if c.cycle_type() == want]
        if len(matches) == 1:
            return matches[0]
        raise InputError(
            f"class selector matches {len(matches)} classes; give an explicit representative",
            pointer=pointer,
        )
    raise InputError("class selector must be a permutation or a filter object", pointer=pointer)


class ParameterInput:
    """Parsed parameter file: group and classes, with nu optional."""

    def __init__(self, group, classes, nu, parameter, name=None):
        self.group = group
        self.classes = classes
        self.nu = nu
        self.parameter = parameter  # HurwitzParameter when nu was present
        self.name = name

    def require_parameter(self):
        if self.parameter is None:
            raise InputError("this operation needs 'nu' in the parameter file")
        return self.parameter


def load_parameter_file(path):
    path = Path(path)
    data = _read_object(path, "parameter")
    group_ref = _require(data, "group", (str,), "")
    group = resolve_group(group_ref, relative_to=path.parent)
    selectors = _require(data, "classes", list, "")
    classes = [
        select_class(group, sel, f"/classes/{i}") for i, sel in enumerate(selectors)
    ]
    validate_classes(group, classes)
    nu = data.get("nu")
    parameter = None
    if nu is not None:
        if not isinstance(nu, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in nu
        ):
            raise InputError("'nu' must be a list of integers", pointer="/nu")
        parameter = validate_parameter(group, classes, nu)
    return ParameterInput(group, classes, nu, parameter, name=data.get("name") or path.stem)


def load_cover_file(path, base_group=None):
    path = Path(path)
    data = _read_object(path, "cover")
    cg_raw = _require(data, "cover_generators", list, "")
    ig_raw = _require(data, "image_generators", list, "")
    if len(cg_raw) != len(ig_raw):
        raise InputError(
            "cover_generators and image_generators differ in length",
            pointer="/image_generators",
        )
    if base_group is None:
        base_ref = _require(data, "base_group", (str,), "")
        base_group = resolve_group(base_ref, relative_to=path.parent)
    degree = data.get("degree")
    if degree is not None and not _is_positive_int(degree):
        raise InputError("'degree' must be a positive integer", pointer="/degree")
    if degree is None:
        degree = max(
            (
                max((pt for pt in Permutation.from_cycles(s).images), default=0) + 1
                for s in cg_raw
                if isinstance(s, str)
            ),
            default=1,
        )
    cover_gens = [
        parse_permutation(g, degree, f"/cover_generators/{i}") for i, g in enumerate(cg_raw)
    ]
    image_gens = [
        parse_permutation(g, base_group.degree, f"/image_generators/{i}")
        for i, g in enumerate(ig_raw)
    ]
    return CentralExtension.from_generators(
        cover_gens, image_gens, base_group, name=data.get("name") or path.stem
    )


def parse_inputs(parameter_path, cover_path=None):
    """(ParameterInput, CentralExtension or None) from file paths.

    The cover's base group must match the parameter's group (same degree
    and the same element set); the extension is built once, on the
    parameter's group object, so that caches are shared.
    """
    pinput = load_parameter_file(parameter_path)
    ext = None
    if cover_path is not None:
        cover_path = Path(cover_path)
        base_ref = _require(_read_object(cover_path, "cover"), "base_group", (str,), "")
        base = resolve_group(base_ref, relative_to=cover_path.parent)
        if base.degree != pinput.group.degree or not base.equals(pinput.group):
            raise InputError("cover base group does not match the parameter's group")
        ext = load_cover_file(cover_path, base_group=pinput.group)
    return pinput, ext

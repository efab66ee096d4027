"""Command-line surface: subcommand dispatch and JSON report emission.

Subcommands: validate, fiber, orbits, monodromy, classify, condition-e,
conway-parker, goursat, mass.  All output is JSON (stdout or --out);
big integers are decimal strings of any length, reports embed the sha256
digest of every input file and the enumeration budget actually consumed,
and equal configurations produce byte-identical reports.  --threads is
accepted for compatibility and has no effect.

Exit codes: 0 success, 2 invalid input, 3 budget exhaustion, 4 a failed
internal consistency check (a bug; the report carries "internal": true).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .covers import (
    LiftData,
    classify_class,
    condition_e,
    condition_e_by_kinds,
    reduce_cover,
)
from .errors import BudgetError, InputError, InternalCheckError
from .fiberpower import row_span_checker
from .io import load_cover_file, load_group_file, parse_inputs, resolve_reference, sha256_of
from .monodromy import (
    braid_orbits,
    conway_parker_report,
    decimal_digits,
    fiber_generator_arrays,
    mass_report,
    monodromy_group,
)
from .nielsen import DEFAULT_TUPLE_BUDGET, build_fiber, enumerate_tuples
from .perms import format_cycles

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _round_floats(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit(report, out_path=None):
    text = json.dumps(_round_floats(report), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(args, paths):
    # thread count never appears in a report: equal configurations must give
    # byte-identical output whatever --threads says
    return {
        "tool": {"name": "hurwitz", "version": __version__},
        "subcommand": args.subcommand,
        "inputs": {str(p): f"sha256:{sha256_of(p)}" for p in paths},
        "config": {
            "budget_tuples": args.budget_tuples,
            "mode": getattr(args, "mode", None),
        },
        "budget": {"tuple_visits": 0, "budget_tuples": args.budget_tuples},
        "truncated": False,
    }


def _class_descriptor(c):
    return {
        "representative": format_cycles(c.representative.images),
        "cycle_type": list(c.cycle_type()),
        "order": c.order(),
        "size": c.size,
    }


def _resolve_param(args):
    return resolve_reference(args.parameter, "params")


def _enumerate(pinput, args, report):
    h = pinput.require_parameter()
    tuples = enumerate_tuples(h, budget=args.budget_tuples)
    report["budget"] = {
        "tuple_visits": tuples.visits,
        "budget_tuples": args.budget_tuples,
    }
    return h, tuples


def cmd_validate(args):
    path = _resolve_param(args)
    pinput, ext = parse_inputs(path, args.cover and resolve_reference(args.cover, "covers"))
    report = _base_report(args, [path] + ([resolve_reference(args.cover, "covers")] if args.cover else []))
    result = {
        "valid": True,
        "group": {"name": pinput.group.name, "degree": pinput.group.degree, "order": decimal_digits(pinput.group.order())},
        "classes": [_class_descriptor(c) for c in pinput.classes],
    }
    if pinput.nu is not None:
        result["nu"] = list(pinput.nu)
        result["n"] = pinput.parameter.n
        result["search_size_estimate"] = decimal_digits(pinput.parameter.search_size_estimate())
    if ext is not None:
        result["cover"] = {"order": decimal_digits(ext.size), "kernel_order": ext.kernel_order()}
    report["result"] = result
    return report


def cmd_fiber(args):
    path = _resolve_param(args)
    pinput, _ = parse_inputs(path)
    report = _base_report(args, [path])
    h, tuples = _enumerate(pinput, args, report)
    f_inn = build_fiber(h, "inn", tuples=tuples)
    f_aut = build_fiber(h, "aut", inn=f_inn)
    report["result"] = {
        "tuple_count": len(tuples),
        "fiber_inn": len(f_inn),
        "fiber_aut": len(f_aut),
    }
    return report


def _fibers(h, tuples, args):
    """(mode, fiber) for each mode asked for; with both, the aut fiber is
    built on the inn fiber."""
    inn = None
    for mode in ["inn", "aut"] if args.mode == "both" else [args.mode]:
        fiber = build_fiber(h, mode, tuples=tuples, inn=inn)
        inn = fiber if mode == "inn" else None
        yield mode, fiber


def _orbit_payload(fiber, lift):
    arrays = fiber_generator_arrays(fiber)[1]
    labels_note = None
    try:
        orbits = braid_orbits(fiber, arrays, lift_data=lift)
    except InternalCheckError:
        if fiber.mode == "aut" and lift is not None:
            orbits = braid_orbits(fiber, arrays, lift_data=None)
            labels_note = "labels not invariant under the outer action; omitted"
        else:
            raise
    payload = {
        "fiber_size": len(fiber),
        "orbit_sizes": list(orbits.orbit_sizes),
    }
    if orbits.labels is not None:
        payload["orbit_labels"] = list(orbits.labels)
    if labels_note:
        payload["note"] = labels_note
    return payload


def cmd_orbits(args):
    path = _resolve_param(args)
    cover_path = resolve_reference(args.cover, "covers") if args.cover else None
    pinput, ext = parse_inputs(path, cover_path)
    report = _base_report(args, [p for p in (path, cover_path) if p])
    h, tuples = _enumerate(pinput, args, report)
    lift = None if ext is None else LiftData(reduce_cover(ext, h.classes), h)
    result = {}
    for mode, fiber in _fibers(h, tuples, args):
        result[mode] = _orbit_payload(fiber, lift)
    report["result"] = result
    return report


def cmd_monodromy(args):
    path = _resolve_param(args)
    cover_path = resolve_reference(args.cover, "covers") if args.cover else None
    pinput, ext = parse_inputs(path, cover_path)
    report = _base_report(args, [p for p in (path, cover_path) if p])
    h, tuples = _enumerate(pinput, args, report)
    result = {}
    for mode, fiber in _fibers(h, tuples, args):
        lift = None
        if ext is not None and mode == "inn":
            lift = LiftData(reduce_cover(ext, h.classes), h)
        words, arrays = fiber_generator_arrays(fiber)
        mass = mass_report(
            h,
            fiber_inn_size=len(fiber) if mode == "inn" else None,
            fiber_aut_size=len(fiber) if mode == "aut" else None,
        )
        rep = monodromy_group(fiber, gen_arrays=arrays, words=words, lift_data=lift, mass=mass)
        result[mode] = rep.to_json_dict()
    report["result"] = result
    return report


def cmd_classify(args):
    group_path = resolve_reference(args.group, "groups")
    group = load_group_file(group_path)
    cover_path = resolve_reference(args.cover_file, "covers")
    ext = load_cover_file(cover_path, base_group=group)
    report = _base_report(args, [group_path, cover_path])
    rows = []
    for c in group.conjugacy_classes():
        if c.representative.is_identity():
            continue
        kind = classify_class(ext, c)
        row = {**_class_descriptor(c), "kind": kind.kind}
        if kind.lifted_class_count is not None:
            row["lifted_class_count"] = kind.lifted_class_count
            row["derived_orbit_count"] = kind.derived_orbit_count
        rows.append(row)
    report["result"] = {"classes": rows}
    return report


def cmd_condition_e(args):
    path = _resolve_param(args)
    cover_path = resolve_reference(args.cover, "covers")
    pinput, ext = parse_inputs(path, cover_path)
    report = _base_report(args, [path, cover_path])
    res = condition_e(ext, pinput.classes)
    result = {
        "holds": res.holds,
        "full_subgroup_order": res.full_order,
        "derived_subgroup_order": res.primed_order,
    }
    if res.witness is not None:
        ci, g, z, value = res.witness
        result["witness"] = {
            "class_index": ci,
            "g": format_cycles(g.images),
            "z": format_cycles(z.images),
            "pairing": format_cycles(value.images),
        }
    try:
        kinds = [classify_class(ext, c) for c in pinput.classes]
        result["kinds"] = [k.kind for k in kinds]
        result["kind_route_holds"] = condition_e_by_kinds(kinds)
        result["routes_agree"] = result["kind_route_holds"] == res.holds
    except InputError:
        pass  # classification rule needs the split-p-p shape; pairing route stands alone
    report["result"] = result
    return report


def cmd_conway_parker(args):
    path = _resolve_param(args)
    cover_path = resolve_reference(args.cover, "covers")
    pinput, ext = parse_inputs(path, cover_path)
    report = _base_report(args, [path, cover_path])
    h, tuples = _enumerate(pinput, args, report)
    fiber = build_fiber(h, "inn", tuples=tuples)
    lift = LiftData(reduce_cover(ext, h.classes), h)
    words, arrays = fiber_generator_arrays(fiber)
    orbits = braid_orbits(fiber, arrays, lift_data=lift)
    rec = conway_parker_report(orbits)
    report["result"] = {
        **rec.to_json_dict(),
        "fiber_size": len(fiber),
        "orbit_sizes": list(orbits.orbit_sizes),
        "orbit_labels": list(orbits.labels),
    }
    return report


def cmd_goursat(args):
    path = _resolve_param(args)
    pinput, _ = parse_inputs(path)
    report = _base_report(args, [path])
    h, tuples = _enumerate(pinput, args, report)
    fiber = build_fiber(h, "aut", tuples=tuples)
    rows = fiber.rows
    n = len(rows)
    true_distinct = 0
    false_distinct = 0
    true_diag = 0
    false_diag = 0
    check = row_span_checker(h, 2)
    for i in range(n):
        for j in range(n):
            ok = check.check_codes(rows[[i, j]])
            if i == j:
                true_diag += ok
                false_diag += not ok
            else:
                true_distinct += ok
                false_distinct += not ok
    report["result"] = {
        "fiber_size": n,
        "distinct_pairs": {"checked": n * (n - 1), "span_full": true_distinct, "span_proper": false_distinct},
        "diagonal_pairs": {"checked": n, "span_full": true_diag, "span_proper": false_diag},
        "matches_distinctness": false_distinct == 0 and true_diag == 0,
    }
    return report


def cmd_mass(args):
    path = _resolve_param(args)
    cover_path = resolve_reference(args.cover, "covers") if args.cover else None
    pinput, ext = parse_inputs(path, cover_path)
    report = _base_report(args, [p for p in (path, cover_path) if p])
    h, tuples = _enumerate(pinput, args, report)
    f_inn = build_fiber(h, "inn", tuples=tuples)
    f_aut = build_fiber(h, "aut", inn=f_inn)
    shares = None
    kernel_order = None
    if ext is not None:
        reduced = reduce_cover(ext, h.classes)
        kernel_order = reduced.kernel_order()
        lift = LiftData(reduced, h)
        labels = lift.label_codes_for_rows(f_inn.rows)
        shares = {}
        for l in sorted(set(int(x) for x in labels)):
            shares[str(l)] = int((labels == l).sum())
    result = mass_report(
        h,
        fiber_inn_size=len(f_inn),
        fiber_aut_size=len(f_aut),
        label_shares=shares,
        kernel_order=kernel_order,
    )
    report["result"] = result
    return report


COMMANDS = {
    "validate": cmd_validate,
    "fiber": cmd_fiber,
    "orbits": cmd_orbits,
    "monodromy": cmd_monodromy,
    "classify": cmd_classify,
    "condition-e": cmd_condition_e,
    "conway-parker": cmd_conway_parker,
    "goursat": cmd_goursat,
    "mass": cmd_mass,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Braid monodromy of Hurwitz covers: fibers, orbits, lifting invariants.",
    )
    parser.add_argument("--version", action="version", version=f"hurwitz {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, cover=True):
        p.add_argument("--budget-tuples", type=int, default=DEFAULT_TUPLE_BUDGET,
                       help="enumeration budget in tuple prefix visits (default 1e8)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--out", default=None, help="write the JSON report to this file")
        if cover:
            p.add_argument("--cover", default=None, help="cover file (JSON)")

    for name in ("validate", "fiber", "orbits", "monodromy", "conway-parker", "goursat", "mass"):
        p = sub.add_parser(name)
        p.add_argument("parameter", help="parameter file or bundled name")
        common(p, cover=name not in ("fiber", "goursat"))
        if name in ("orbits", "monodromy"):
            p.add_argument("--mode", choices=["inn", "aut", "both"], default="both",
                           help="fiber quotient: inner, full class-preserving, or both")
    p = sub.add_parser("condition-e")
    p.add_argument("parameter", help="parameter or class-list file")
    common(p, cover=False)
    p.add_argument("--cover", required=True, help="cover file (JSON)")
    p = sub.add_parser("classify")
    p.add_argument("group", help="group file or bundled name")
    p.add_argument("cover_file", help="cover file or bundled name")
    common(p, cover=False)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = COMMANDS[args.subcommand](args)
    except BudgetError as e:
        emit(
            {
                "subcommand": args.subcommand,
                "error": str(e),
                "truncated": True,
                "budget": {"consumed": e.consumed, "budget": e.budget},
            },
            getattr(args, "out", None),
        )
        return EXIT_BUDGET
    except InputError as e:
        emit({"subcommand": args.subcommand, "error": str(e)}, getattr(args, "out", None))
        return EXIT_INPUT
    except InternalCheckError as e:
        emit(
            {"subcommand": args.subcommand, "error": str(e), "internal": True},
            getattr(args, "out", None),
        )
        return EXIT_INTERNAL
    emit(report, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

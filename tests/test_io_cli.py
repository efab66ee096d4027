"""File parsing, schema diagnostics, CLI subcommands, exit codes, determinism."""

import gc
import json
import time
import weakref
from math import factorial
from pathlib import Path

import pytest

import hurwitz as hw
from hurwitz import cli
from hurwitz.cli import main
from hurwitz.io import (
    load_cover_file,
    load_group_file,
    load_parameter_file,
    parse_inputs,
    resolve_reference,
    select_class,
)

from conftest import class_by_type, parse_digits


# ---------------------------------------------------------------------------
# parsing


def test_bundled_parameter_round_trip():
    path = resolve_reference("h25", "params")
    pinput = load_parameter_file(path)
    assert pinput.group.name == "S5"
    assert pinput.nu == [4, 1]
    h = pinput.require_parameter()
    assert h.n == 5
    assert [c.cycle_type() for c in h.classes] == [(2, 1, 1, 1), (5,)]


def test_parameter_without_nu_for_class_lists():
    path = resolve_reference("s6_e_fail", "params")
    pinput = load_parameter_file(path)
    assert pinput.nu is None
    with pytest.raises(hw.InputError, match="nu"):
        pinput.require_parameter()
    assert [c.cycle_type() for c in pinput.classes] == [(4, 2), (3, 3)]


def test_nu_not_allowed_diagnostic(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"group": "S5", "classes": ["(1 2)", "(1 2 3 4 5)"], "nu": [3, 1]})
    )
    with pytest.raises(hw.InputError, match="not allowed"):
        load_parameter_file(bad)


def test_selector_order_and_cycle_type(s6):
    assert select_class(s6, {"cycle_type": [4, 2]}, "/classes/0").cycle_type() == (4, 2)
    assert select_class(s6, {"order": 6, "cycle_type": [6]}, "/x").cycle_type() == (6,)


def test_selector_rejects_ambiguous_match(a5):
    # both 5A and 5B have order 5 and cycle type (5): explicit reps required
    with pytest.raises(hw.InputError, match="matches 2 classes"):
        select_class(a5, {"order": 5}, "/classes/0")
    five_a = select_class(a5, "(1 2 3 4 5)", "/classes/0")
    assert five_a.order() == 5


def test_selector_rejects_no_match(s5):
    with pytest.raises(hw.InputError, match="matches 0 classes"):
        select_class(s5, {"order": 7}, "/classes/0")


def test_image_array_permutations(tmp_path):
    gpath = tmp_path / "c3.json"
    gpath.write_text(json.dumps({"degree": 3, "generators": [[1, 2, 0]]}))
    G = load_group_file(gpath)
    assert G.order() == 3


def test_pointer_in_diagnostics(tmp_path):
    gpath = tmp_path / "broken.json"
    gpath.write_text(json.dumps({"degree": 3, "generators": ["(1 2", "(1 3)"]}))
    with pytest.raises(hw.InputError, match="/generators/0"):
        load_group_file(gpath)


def test_cover_base_group_mismatch(tmp_path):
    param = tmp_path / "p.json"
    param.write_text(
        json.dumps({"group": "A5", "classes": ["(1 2 3)"], "nu": [4]})
    )
    with pytest.raises(hw.InputError, match="does not match"):
        parse_inputs(param, resolve_reference("2S5", "covers"))


def test_parse_inputs_builds_one_extension(monkeypatch):
    built = []
    original = hw.CentralExtension.from_generators.__func__

    def counting(cls, *args, **kwargs):
        built.append(args[2])
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(hw.CentralExtension, "from_generators", classmethod(counting))
    pinput, ext = parse_inputs(
        resolve_reference("h25", "params"), resolve_reference("2S5", "covers")
    )
    assert len(built) == 1
    assert built[0] is pinput.group
    assert ext.base_group is pinput.group


# one bundled job for each subcommand the benchmark runs
_FREEING_JOBS = [
    ["goursat", "h25"],
    ["condition-e", "s6_e_hold", "--cover", "2S6"],
    ["classify", "S6", "2S6"],
    ["mass", "h25", "--cover", "2S5"],
    ["monodromy", "h25", "--cover", "2S5", "--mode", "both"],
    ["orbits", "a5_c3_n4", "--cover", "SL25", "--mode", "both"],
    ["conway-parker", "a5_c3_n4", "--cover", "SL25"],
    ["fiber", "h25"],
]


def test_main_frees_the_groups_of_its_command(monkeypatch, tmp_path):
    # a process that runs many commands must not keep the groups and tables
    # of earlier ones; with automatic collection off, only reference counting
    # frees them, so this also finds any reference cycle through them
    built = []
    for cls in (hw.PermGroup, hw.GroupTable):
        original = cls.__init__

        def recording(self, *args, _original=original, **kwargs):
            built.append(weakref.ref(self))
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recording)
    from_arrays = hw.GroupTable.from_arrays

    def recording_from_arrays(*args):
        table = from_arrays(*args)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(hw.GroupTable, "from_arrays", recording_from_arrays)
    gc.disable()
    try:
        for job in _FREEING_JOBS:
            built.clear()
            assert main(job + ["--out", str(tmp_path / "r.json")]) == cli.EXIT_OK, job
            assert built, job
            alive = [r() for r in built if r() is not None]
            assert alive == [], job
    finally:
        gc.enable()


def test_non_central_cover_diagnostic(tmp_path):
    cover = tmp_path / "c.json"
    cover.write_text(
        json.dumps(
            {
                "degree": 3,
                "base_degree": 2,
                "base_group": str(tmp_path / "c2.json"),
                "cover_generators": ["(1 2)", "(1 2 3)"],
                "image_generators": ["(1 2)", "()"],
            }
        )
    )
    (tmp_path / "c2.json").write_text(
        json.dumps({"degree": 2, "generators": ["(1 2)"]})
    )
    with pytest.raises(hw.InputError, match="kernel not central"):
        load_cover_file(cover)


def test_resolve_reference_errors():
    with pytest.raises(hw.InputError, match="cannot resolve"):
        resolve_reference("NoSuchGroup", "groups")


# ---------------------------------------------------------------------------
# CLI: exit codes and reports


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_cli_validate_ok(tmp_path):
    code, report = run_cli(["validate", "h25"], tmp_path)
    assert code == 0
    assert report["result"]["valid"] is True
    assert report["result"]["group"]["order"] == "120"
    assert any(k.startswith("sha256:") for k in report["inputs"].values())


def test_cli_validate_bad_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"group": "S5", "classes": ["(1 2)", "(1 2 3 4 5)"], "nu": [3, 1]})
    )
    code, report = run_cli(["validate", str(bad)], tmp_path)
    assert code == 2
    assert "not allowed" in report["error"]


def test_cli_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run_cli(["validate", str(bad)], tmp_path)
    assert code == 2


@pytest.mark.parametrize("degree", ["80", 80.0, True, 0, -3])
def test_cli_cover_degree_must_be_a_positive_int(degree, tmp_path):
    cover = json.loads(resolve_reference("2S5", "covers").read_text())
    cover["degree"] = degree
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover))
    code, report = run_cli(["validate", "h25", "--cover", str(path)], tmp_path)
    assert code == 2
    assert "(at /degree)" in report["error"]


@pytest.mark.parametrize("cycle_type", [2, "5", [2, "x"], [2, True], [2, 1.0], None])
def test_cli_cycle_type_must_be_a_list_of_positive_ints(cycle_type, tmp_path):
    param = tmp_path / "p.json"
    param.write_text(
        json.dumps({"group": "S5", "classes": ["(1 2)", {"cycle_type": cycle_type}], "nu": [4, 1]})
    )
    code, report = run_cli(["validate", str(param)], tmp_path)
    assert code == 2
    assert "(at /classes/1)" in report["error"]


@pytest.mark.parametrize("nu", [[True], [2, False]])
def test_cli_nu_rejects_bools(nu, tmp_path):
    # JSON true is a Python int; it must not be read as nu = 1
    param = tmp_path / "p.json"
    classes = ["(1 2 3)", "(1 2 3 4 5)"][: len(nu)]
    param.write_text(json.dumps({"group": "A5", "classes": classes, "nu": nu}))
    code, report = run_cli(["fiber", str(param)], tmp_path)
    assert code == 2
    assert "(at /nu)" in report["error"]


def test_cli_budget_exit_3(tmp_path):
    code, report = run_cli(
        ["fiber", "a5_c3_n6", "--budget-tuples", "1000"], tmp_path
    )
    assert code == 3
    assert report["truncated"] is True


def test_cli_fiber_h25(tmp_path):
    code, report = run_cli(["fiber", "h25"], tmp_path)
    assert code == 0
    r = report["result"]
    assert r["tuple_count"] == 3000
    assert r["fiber_inn"] == 25
    assert r["fiber_aut"] == 25
    assert report["budget"]["tuple_visits"] > 0


def test_cli_fiber_wide_tuples(tmp_path):
    # C2 with nu = (64): 64 tuple entries, wider than a 63-bit row packing
    (tmp_path / "c2.json").write_text(
        json.dumps({"name": "C2", "degree": 2, "generators": ["(1 2)"]})
    )
    param = tmp_path / "c2_64.json"
    param.write_text(json.dumps({"group": "c2.json", "classes": ["(1 2)"], "nu": [64]}))
    code, report = run_cli(["fiber", str(param)], tmp_path)
    assert code == 0
    r = report["result"]
    assert r["tuple_count"] == r["fiber_inn"] == r["fiber_aut"] == 1


_PGL27_22 = {
    "group": "PGL27",
    "classes": [{"cycle_type": [2, 2, 2, 1, 1]}, {"cycle_type": [3, 3, 1, 1]}],
    "nu": [2, 2],
}


def test_cli_reports_pin_tuple_visits(tmp_path):
    # the prefix visits the recursive DFS made; nothing else checks these bytes
    param = tmp_path / "pgl27_22.json"
    param.write_text(json.dumps(_PGL27_22))
    for argv, visits in (
        (["fiber", "h25"], 761),
        (["fiber", str(param)], 813),
        (["conway-parker", "a5_c3_n6", "--cover", "SL25"], 168421),
    ):
        code, report = run_cli(argv, tmp_path)
        assert code == cli.EXIT_OK
        assert report["budget"]["tuple_visits"] == visits


def test_cli_budget_exhausted_during_enumeration(tmp_path):
    # the running visit count alone enforces the budget: one visit short
    # exits 3, the exact count completes.  C2 with nu = (64) estimates 1
    # prefix and visits 63; h25 estimates 10,000 and visits 761
    (tmp_path / "c2.json").write_text(
        json.dumps({"name": "C2", "degree": 2, "generators": ["(1 2)"]})
    )
    c2_64 = tmp_path / "c2_64.json"
    c2_64.write_text(json.dumps({"group": "c2.json", "classes": ["(1 2)"], "nu": [64]}))
    for param, visits in ((str(c2_64), 63), ("h25", 761)):
        code, report = run_cli(["fiber", param, "--budget-tuples", str(visits - 1)], tmp_path)
        assert code == cli.EXIT_BUDGET
        assert report["budget"] == {"consumed": visits, "budget": visits - 1}
        code, report = run_cli(["fiber", param, "--budget-tuples", str(visits)], tmp_path)
        assert code == cli.EXIT_OK
        assert report["budget"]["tuple_visits"] == visits


@pytest.mark.parametrize(
    "args",
    [
        ["fiber", "pgl27_22"],
        ["fiber", "a5_c3_n4"],
        ["orbits", "a5_c3_n4", "--mode", "both"],
        ["conway-parker", "a5_c3_n4", "--cover", "SL25"],
        ["monodromy", "h25", "--cover", "2S5", "--mode", "both"],
    ],
    ids=lambda args: "_".join(a for a in args if not a.startswith("-")),
)
def test_cli_fiber_paths_canonicalize_nothing(args, tmp_path, monkeypatch):
    # fibers are orbits of generator index arrays on the slice of the sorted
    # tuple set that starts with x0, and braid arrays read points through
    # Fiber.points_of: no tuple is mapped by every acting map, in either
    # mode, whether or not Aut(G, C) = Inn(G), and no command builds the
    # index over the whole tuple set
    from hurwitz import nielsen

    counted = []
    canonicalize = nielsen.canonicalize_codes
    monkeypatch.setattr(
        nielsen, "canonicalize_codes", lambda *a, **k: counted.append(1) or canonicalize(*a, **k)
    )
    tuple_sets = []
    enumerate_tuples = cli.enumerate_tuples
    monkeypatch.setattr(
        cli, "enumerate_tuples", lambda *a, **k: tuple_sets.append(enumerate_tuples(*a, **k)) or tuple_sets[-1]
    )
    passes = []
    located = nielsen._locate_mapped

    def counting(locate, rows, maps):
        passes.append((locate, len(rows)))
        return located(locate, rows, maps)

    monkeypatch.setattr(nielsen, "_locate_mapped", counting)
    if args[1] == "pgl27_22":
        args = [args[0], str(tmp_path / "pgl27_22.json"), *args[2:]]
        Path(args[1]).write_text(json.dumps(_PGL27_22))
    code, report = run_cli(args, tmp_path)
    assert code == cli.EXIT_OK
    assert counted == []
    [tuples] = tuple_sets
    assert "index" not in tuples.__dict__
    # the centralizer generators map exactly the slice's N / |C0| rows; the
    # aut fiber, built on the inn fiber, maps only the inn points
    assert len(passes) == (1 if args[0] == "conway-parker" else 2)
    (locate, rows), *aut_passes = passes
    assert rows == len(locate.__self__.rows)
    assert rows * tuples.h.classes[0].size == len(tuples)
    for locate, rows in aut_passes:
        inn = locate.__self__
        assert inn.mode == "inn" and rows == len(inn)


def test_cli_internal_check_exit_4(tmp_path, monkeypatch):
    def broken(args):
        raise hw.InternalCheckError("self-check failed")

    monkeypatch.setitem(cli.COMMANDS, "fiber", broken)
    code, report = run_cli(["fiber", "h25"], tmp_path)
    assert code == cli.EXIT_INTERNAL == 4
    assert report == {"subcommand": "fiber", "error": "self-check failed", "internal": True}


def test_cli_monodromy_h25(tmp_path):
    code, report = run_cli(
        ["monodromy", "h25", "--cover", "2S5", "--mode", "both"], tmp_path
    )
    assert code == 0
    aut = report["result"]["aut"]
    assert aut["fiber_size"] == 25
    assert aut["quasi_full"] is True
    assert aut["orbit_sizes"] == [25]
    inn = report["result"]["inn"]
    assert inn["labels"]["bijective_with_orbits"] is True
    assert abs(inn["mass"]["ratio_inn"] - 1.333333) < 1e-5


def test_cli_monodromy_a5_c3_n6_aut(tmp_path):
    # two 2-transitive orbits of 3456 and 4545 points, each shown primitive
    # by one block refinement; the time guard fails if primitivity takes one
    # refinement per point again (minutes)
    t0 = time.time()
    code, report = run_cli(["monodromy", "a5_c3_n6", "--mode", "aut"], tmp_path)
    elapsed = time.time() - t0
    assert code == cli.EXIT_OK
    aut = report["result"]["aut"]
    assert aut["fiber_size"] == 8001
    assert aut["orbit_sizes"] == [3456, 4545]
    alt = [factorial(3456) // 2, factorial(4545) // 2]
    assert [(v["size"], v["full"], parse_digits(v["order"])) for v in aut["per_orbit"]] == [
        (3456, True, alt[0]),
        (4545, True, alt[1]),
    ]
    assert parse_digits(aut["group_order"]) == alt[0] * alt[1]
    assert aut["quasi_full"] is True
    assert elapsed < 60.0


def test_cli_classify_s6(tmp_path):
    code, report = run_cli(["classify", "S6", "2S6"], tmp_path)
    assert code == 0
    kinds = {tuple(r["cycle_type"]): r["kind"] for r in report["result"]["classes"]}
    assert kinds[(4, 2)] == "mixed"
    assert kinds[(5, 1)] == "ambiguous"
    assert kinds[(2, 1, 1, 1, 1)] == "inert"
    assert sum(1 for k in kinds.values() if k == "mixed") == 1


def test_cli_condition_e(tmp_path):
    code, report = run_cli(["condition-e", "s6_e_fail", "--cover", "2S6"], tmp_path)
    assert code == 0
    r = report["result"]
    assert r["holds"] is False
    assert r["routes_agree"] is True
    assert "witness" in r
    code, report = run_cli(["condition-e", "s6_e_hold", "--cover", "2S6"], tmp_path)
    assert report["result"]["holds"] is True


def test_cli_conway_parker(tmp_path):
    code, report = run_cli(
        ["conway-parker", "a5_c3_n5", "--cover", "SL25"], tmp_path
    )
    assert code == 0
    r = report["result"]
    assert r["orbit_count"] == 2
    assert r["label_count"] == 2
    assert r["bijective"] is True


def test_cli_orbits_with_labels(tmp_path):
    code, report = run_cli(
        ["orbits", "a5_c3_n4", "--cover", "SL25", "--mode", "inn"], tmp_path
    )
    assert code == 0
    r = report["result"]["inn"]
    assert sum(r["orbit_sizes"]) == r["fiber_size"]
    assert len(r["orbit_labels"]) == len(r["orbit_sizes"])


def test_cli_mass(tmp_path):
    code, report = run_cli(["mass", "h25", "--cover", "2S5"], tmp_path)
    assert code == 0
    r = report["result"]
    assert abs(r["predicted_fiber_aut"] - 33.333333) < 1e-5
    assert r["actual_fiber_aut"] == 25


def test_cli_determinism_across_threads(tmp_path):
    # identical configuration, different worker pool sizes: byte-identical
    code1, _ = run_cli(
        ["monodromy", "h25", "--cover", "2S5", "--threads", "1"], tmp_path, "a.json"
    )
    code2, _ = run_cli(
        ["monodromy", "h25", "--cover", "2S5", "--threads", "4"], tmp_path, "b.json"
    )
    assert code1 == code2 == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    code3, _ = run_cli(
        ["monodromy", "h25", "--cover", "2S5", "--threads", "1"], tmp_path, "c.json"
    )
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "c.json").read_bytes()

"""The benchmark's workloads: the CLI jobs each one runs, and why.

A job is a `hurwitz` command line whose references point into the seeded
input directory written by `inputs.py`.  Every reference is a file name in
that directory, so the program sees only the generated (relabeled) inputs.
"""

from __future__ import annotations

# Parameters the bundled data does not hold; the generator writes them next
# to the relabeled copies of the bundled parameters.
GENERATED_PARAMS = {
    "s5_mix": {
        "group": "S5",
        "classes": [{"cycle_type": [2, 1, 1, 1]}, {"cycle_type": [2, 2, 1]}, {"cycle_type": [5]}],
        "nu": [2, 2, 1],
    },
    "a5_55": {"group": "A5", "classes": ["(1 2 3 4 5)", "(1 3 5 2 4)"], "nu": [2, 3]},
    "s4_42": {"group": "S4", "classes": [{"cycle_type": [2, 1, 1]}, {"cycle_type": [4]}], "nu": [4, 2]},
    "pgl27_22": {
        "group": "PGL27",
        "classes": [{"cycle_type": [2, 2, 2, 1, 1]}, {"cycle_type": [3, 3, 1, 1]}],
        "nu": [2, 2],
    },
    "s6_41": {"group": "S6", "classes": [{"cycle_type": [4, 1, 1]}, {"cycle_type": [4, 2]}], "nu": [2, 1]},
}

# workload -> job id -> argv; "{name}" stands for the file name.json of the
# input directory.  Sizes and shares are from traced runs at the commit that
# defined the benchmark, on a 2-vCPU container.
WORKLOADS = {
    # Order certification: ~91% of a ~12 s pass is StabilizerChain, 3.5 s of
    # it under quasi_fullness.  The jobs take the three certification routes:
    # one 75-point giant orbit (S5, 9000 tuples), two orbits 30 + 40 that must
    # be quasi-full (A5), and a 160-point imprimitive orbit with a block
    # system (S4); h25 adds a small cover with lifting labels.
    "certify": {
        "s5_mix_monodromy": ["monodromy", "{s5_mix}", "--mode", "inn"],
        "a5_55_monodromy": ["monodromy", "{a5_55}", "--mode", "inn"],
        "h25_monodromy": ["monodromy", "{h25}", "--cover", "{2S5}", "--mode", "both"],
        "s4_42_monodromy": ["monodromy", "{s4_42}", "--mode", "inn"],
    },
    # Tuple sets and fibers: 960,120 tuples and 16,002 points for a5_c3_n6,
    # 10,080 tuples for PGL2(7).  canonicalize_codes and the DFS subgroup
    # closures (GroupTable.closure_codes, ~5,900 calls) are most of a ~10 s
    # pass; no chain is built on a fiber.
    "tuples": {
        "a5n6_conway_parker": ["conway-parker", "{a5_c3_n6}", "--cover", "{SL25}"],
        "a5n5_orbits": ["orbits", "{a5_c3_n5}", "--cover", "{SL25}", "--mode", "both"],
        "pgl27_fiber": ["fiber", "{pgl27_22}"],
    },
    # Cover machinery: 11 GroupTable builds (parse_inputs builds the 2S6 table
    # twice per job), Aut(S6), and goursat's 625 row-span checks with 20,702
    # small chains and 9,406 normal closures; ~19 s a pass.  Many small
    # chains here against a few large ones in certify.
    "cover_side": {
        "s6_condition_e": ["condition-e", "{s6_e_fail}", "--cover", "{2S6}"],
        "pgl27_classify": ["classify", "{PGL27}", "{2PGL27}"],
        "s6_mass": ["mass", "{s6_41}", "--cover", "{2S6}"],
        "h25_goursat": ["goursat", "{h25}"],
    },
}


def job_argvs(workload, input_dir):
    """[(job id, argv)] of a workload, with references into `input_dir`."""

    def resolve(arg):
        return f"{input_dir}/{arg[1:-1]}.json" if arg.startswith("{") else arg

    return [(job_id, [resolve(arg) for arg in argv]) for job_id, argv in WORKLOADS[workload].items()]

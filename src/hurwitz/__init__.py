"""Braid monodromy of Hurwitz covers at desk scale.

Given a Hurwitz parameter (a finite permutation group, a list of
generating conjugacy classes, and multiplicities), this package enumerates
the Nielsen tuple set, computes the block-preserving braid action on its
fibers, certifies fullness and quasi-fullness of the monodromy group,
evaluates lifting invariants through supplied central extensions, and
checks the structural and homological conditions (pseudosimplicity, class
ambiguity, split/mixed/inert kinds, condition E) that govern when the
monodromy is as large as possible.
"""

from .errors import (
    BudgetError,
    HurwitzError,
    InputError,
    InternalCheckError,
    UnsupportedConfigurationError,
)
from .perms import (
    AbelianQuotient,
    ConjugacyClass,
    GroupTable,
    PermGroup,
    Permutation,
    StabilizerChain,
    format_cycles,
    orbit_labels,
    parse_cycles,
)
from .structure import (
    AutGroup,
    Automorphism,
    StructureVerdict,
    aut_fixing_classes,
    aut_generator_maps,
    automorphism_group,
    centralizer_covers_abelianization,
    derived_orbit_count,
    find_isomorphism,
    is_ambiguous,
    is_pseudosimple,
    is_rational_class,
)
from .nielsen import (
    BraidWord,
    Fiber,
    HurwitzParameter,
    NielsenTuple,
    NielsenTupleSet,
    apply_sigma,
    braid_nu_generators,
    build_fiber,
    enumerate_tuples,
    induced_permutation,
    validate_parameter,
)
from .covers import (
    CentralExtension,
    ClassKind,
    ConditionEResult,
    InvariantLabel,
    KernelSubgroup,
    LiftData,
    classify_class,
    commutator_pairing,
    condition_e,
    condition_e_by_kinds,
    lifting_invariant,
    obstruction_subgroups,
    out_action_on_labels,
    reduce_cover,
    sd_partition_rule,
)
from .monodromy import (
    ConwayParkerRecord,
    MonodromyReport,
    OrbitPartition,
    braid_orbits,
    conway_parker_report,
    cross_check_braid_orbits,
    fiber_generator_arrays,
    fullness,
    mass_report,
    monodromy_group,
    quasi_fullness,
)
from .fiberpower import FiberPowerGroup, row_span_check, row_span_checker

__version__ = "0.1.0"

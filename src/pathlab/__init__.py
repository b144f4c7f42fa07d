"""pathlab: statistics, schedules and cutting cycles for decorated labeled
lattice paths, with exact signed enumerators in t and (q, t)."""

__version__ = "0.1.0"

from .adr import (
    ADRWitness,
    D_fast,
    NotAnADR,
    S_fast,
    S_recursive,
    delta,
    dyck_decorate,
    euler_specialization,
    is_adr,
    is_flat_adr,
    parity_decorate,
    phi,
)
from .bridge import (
    ClassSummary,
    ScheduleNotOne,
    classes,
    fiber_paths,
    path_from_sdw,
    theorem_equivalence_check,
)
from .cutting import (
    CuttingCycle,
    CycleError,
    LadderViolation,
    ShapeViolation,
    breaking_step,
    canonical_rep,
    cutting_cycle,
    geometric_order,
    ordered_cycle,
    psi,
    sched_one_members,
    shape_stretches,
)
from .enumeration import (
    D_brute,
    PathFamily,
    S_brute,
    generate,
    qt_enumerator,
    schedule_one_paths,
)
from .paths import (
    AttackPair,
    ColumnOrderViolation,
    DecoratedLabeledPath,
    DecorationNotContractible,
    NonStandardLabeling,
    NotAPath,
    PathError,
    area,
    area_word,
    attack_pairs,
    contractible_valleys,
    dinv,
    format_path,
    is_dyck,
    monomial,
    parse_path,
    shift,
    validate,
)
from .poly import QTPoly, TPoly, euler_t, q_analog, t_analog, t_factorial
from .schedule import (
    DecoratedPermutation,
    ShiftedDiagonalWord,
    count_by_sdw,
    decreasing_runs,
    diagonal_word,
    format_perm,
    lmcr,
    maj,
    make_perm,
    ones_shifts,
    parse_perm,
    revmaj,
    rmcr,
    schedule_numbers,
    schedule_numbers_cyclic,
    schedule_rhs,
    u_statistic,
)

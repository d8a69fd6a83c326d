"""Exact finite-stage simulation of enumeration constructions over Cantor
space: dyadic arithmetic, antichain coverings, toy prefix-free machines,
depth-bounded trees, and stage-replay constructions with brute-force
oracle checks."""

from .classes import (
    CappedReplay,
    Tree,
    dead_ends,
    diagonalize,
    graft_points,
    measure_capped_enumeration,
    paths_at_depth,
    tree_from_halting_oracle,
    tree_of_complement,
)
from .complexity import (
    INFINITE,
    PrefixMachine,
    Program,
    compute_padding,
    intersect_randomness,
    k_approx,
    least_failing_length,
    omega_approx,
    randomness_class_tree,
    satisfies_constant,
)
from .constructions import (
    RegretSlot,
    StageTrace,
    TraceRecord,
    beta_max,
    hat_m_construction,
    odd_ones_real_enumeration,
    regret_construction,
    splice_random,
)
from .coverings import (
    StarSnapshot,
    covering_antichains,
    even_covering_family,
    odd_covering_family,
    star_construction,
)
from .dyadic import (
    EMPTY,
    ONE,
    ZERO,
    Antichain,
    BitString,
    Dyadic,
    Order,
    is_acceptable,
    lex_compare_padded,
    optimal_covering,
    prefix_set_measure,
    rational_of_string,
    string_of_rational,
)
from .streams import (
    EnumerationScript,
    LeftCEApprox,
    ScriptEvent,
    real_from_ce_set,
)

__version__ = "0.1.0"

"""Exact rank, periodic-rank and fixed-point analysis of finite dynamical
systems with a prescribed interaction graph."""

from .digraph import (
    Digraph,
    StructureStats,
    fingerprint,
    format_digraph,
    girth,
    parse_digraph,
    read_digraph,
    shortest_cycle,
    structure_stats,
    twin_classes,
    weak_components,
)
from .errors import (
    AlphabetTooSmall,
    BadPacking,
    EvenN,
    FdsrankError,
    GraphFormatError,
    InconsistentBounds,
    IntegrityError,
    LoopsPresent,
    NotStronglyConnected,
    ShapeMismatch,
    SizeLimitExceeded,
    ValueOutOfRange,
)
from .invariants import (
    blowup,
    clique_partition_number,
    cycle_cover_certificate,
    cycle_packing_number,
    fractional_clique_cover,
    fractional_cycle_packing,
    in_dominating_profile,
    independent_arc_certificate,
    max_cycle_cover,
    max_independent_arcs,
    nilpotent_sufficiency,
    simple_cycles,
    transversal_number,
)
from .canonical import (
    CanonicalGraph,
    MinrankBounds,
    TightnessVerdict,
    absolute_minrank_bounds,
    canonicalize,
    chain_bound,
    format_canonical,
    independent_set_bound,
    minrank_classify,
    product_bound,
    tightness_classify,
)
from .fds import (
    Fds,
    fixed_points,
    format_fds,
    interaction_graph,
    make_fds,
    map_array,
    nilpotency_class,
    parse_fds,
    periodic_rank,
    rank,
)
from .constructions import (
    canonical_upper_witness,
    conjunctive,
    conjunctive_rank,
    extend_alphabet,
    loopfull_maxfix,
    maxper_witness,
    maxrank_witness,
    modular_complete,
    nilpotent_class_two,
    packing_plus_one_witness,
    star_witness,
)
from .enumeration import (
    StatsReport,
    UnivariateBaseline,
    enumerate_stats,
    family_size,
    minrank_exact,
    univariate_baseline,
)
from .bounds import (
    BoundsReport,
    EntropyReport,
    entropy_report,
    fix_bounds_report,
    max_code_size,
)

__version__ = "0.1.0"

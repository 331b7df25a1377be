"""Exact-arithmetic toolkit for channel-semigroup membership searches,
tile-matching problems, and reachability monotones."""

from .exact import (
    ExactDensityMatrix,
    ExactMatrix,
    GaussianRational,
    ShapeError,
    block_diag,
    gr,
)
from .freerot import (
    CollisionReport,
    FreePair,
    RotationParams,
    encode_word,
    freeness_scan,
    make_free_pair,
    standard_params,
)
from .pcp import (
    PCPInstance,
    SearchOutcome,
    apply_hom,
    parse_instance,
    solve_bounded,
    verify_solution,
)
from .reduction import (
    ChannelElement,
    GeneratorSet,
    MembershipOutcome,
    choi,
    compile_generators,
    compose,
    make_target,
    membership_search,
    theory_diff,
)
from .resourcegraph import (
    KrausChannel,
    MonotoneFamily,
    MonotoneTable,
    QuotientDAG,
    ReachGraph,
    check_compatible,
    check_complete,
    explore,
    monotone,
    monotone_family,
    quotient,
    reach,
)

__version__ = "0.1.0"

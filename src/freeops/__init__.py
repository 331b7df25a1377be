"""Exact-arithmetic toolkit for channel-semigroup membership searches,
tile-matching problems, and reachability monotones."""

from .exact import (
    ExactDensityMatrix,
    ExactMatrix,
    GaussianRational,
    ShapeError,
)
from .freerot import (
    CollisionReport,
    FreePair,
    RotationParams,
    encode_word,
    freeness_scan,
    make_free_pair,
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
    compile_generators,
    make_target,
    membership_search,
    theory_diff,
)
from .resourcegraph import (
    MonotoneFamily,
    MonotoneTable,
    QuotientDAG,
    ReachGraph,
    check_compatible,
    check_complete,
    choi,
    explore,
    monotone_family,
    quotient,
    reach,
)

__version__ = "0.1.0"

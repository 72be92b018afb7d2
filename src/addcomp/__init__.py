"""Sparse additive complements on a finite horizon, built and verified exactly.

Given a base set A of naturals whose consecutive-element ratios stay above
some alpha > 1 from a point on, the library constructs a complement B
disjoint from A such that A + B covers everything past a computed
threshold, thins B greedily block by block, certifies the coverage by
exact sumset arithmetic, and profiles B's vanishing density.  Brute-force
oracles double-check every fast path at desk scale.
"""

from .builder import (
    BlockBuild,
    ComplementBuild,
    CoverCertificate,
    build_complement,
    density_zero_diagnostic,
    verify_cover,
)
from .cover import (
    BlockCoverResult,
    block_cover,
    translate_count_lower_bound,
)
from .errors import (
    AddcompError,
    BlockPreconditionFailed,
    CoverFailed,
    IndexOutOfRange,
    NoCover,
    PreconditionViolated,
    RatioNotSatisfied,
    TooLarge,
)
from .greedy import (
    GreedyInstance,
    GreedyTrace,
    choose_gain_cutoff,
    closed_form_bound,
    greedy_cover,
    greedy_thin,
    thin_block,
    two_term_bound,
)
from .natset import (
    DensityProfile,
    DensitySample,
    NatSet,
    count_in,
    density_profile,
    from_interval,
    member_lanes,
    non_elements,
    read_set_file,
    reflect,
    sumset,
    write_set_file,
)
from .oracle import gap_detector, minimal_cover, sumset_reference
from .sequences import (
    ALPHA_GRID,
    RatioAnalysis,
    SequenceSpec,
    analyze_ratio,
    generate,
    parse_spec,
    ratio_tail_holds,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # natset
    "NatSet",
    "DensitySample",
    "DensityProfile",
    "from_interval",
    "sumset",
    "non_elements",
    "member_lanes",
    "reflect",
    "count_in",
    "density_profile",
    "read_set_file",
    "write_set_file",
    # sequences
    "ALPHA_GRID",
    "SequenceSpec",
    "RatioAnalysis",
    "parse_spec",
    "generate",
    "analyze_ratio",
    "ratio_tail_holds",
    # cover
    "BlockCoverResult",
    "block_cover",
    "translate_count_lower_bound",
    # greedy
    "GreedyInstance",
    "GreedyTrace",
    "greedy_cover",
    "greedy_thin",
    "thin_block",
    "choose_gain_cutoff",
    "two_term_bound",
    "closed_form_bound",
    # builder
    "BlockBuild",
    "ComplementBuild",
    "CoverCertificate",
    "build_complement",
    "verify_cover",
    "density_zero_diagnostic",
    # oracle
    "minimal_cover",
    "gap_detector",
    "sumset_reference",
    # errors
    "AddcompError",
    "PreconditionViolated",
    "CoverFailed",
    "RatioNotSatisfied",
    "IndexOutOfRange",
    "BlockPreconditionFailed",
    "TooLarge",
    "NoCover",
]

"""Assemble a sparse additive complement from thinned dyadic blocks.

build_complement() runs the whole pipeline: generate the base set A,
derive the growth parameters, then for each dyadic exponent i from gamma
(while the block fits the horizon) thin the cover of (2^{i+1}, 2^{i+2}]
drawn from (2^i, 2^{i+2}] minus A.  The union B of the thinned blocks is
disjoint from A by construction, covers everything from the threshold
2^{gamma+1} up to the last fully built block, and its sampled density
decays; all three are re-verified exactly (cover.verify_cover), never assumed.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .cover import verify_cover
from .errors import BlockPreconditionFailed, CoverFailed, PreconditionViolated
from .greedy import GreedyTrace, thin_block
from .natset import DensitySample, NatSet, count_in, density_profile
from .sequences import RatioAnalysis, SequenceSpec, analyze_ratio, generate

__all__ = [
    "BlockBuild",
    "ComplementBuild",
    "build_complement",
]

#: Families whose tail bound holds beyond the horizon: powers, as a_{n+1} = k * a_n exactly.
#: The floors floor(c * alpha^i) of geometric can break a prefix-witnessed bound later on.
_CERTIFIED_FAMILIES = ("powers",)


class BlockBuild(NamedTuple):
    """The thinned block q = 2^exponent: trace.chosen is its selection from (q, 4q] minus A."""

    exponent: int
    trace: GreedyTrace
    translate_bound_ok: bool  # |A n (q, 4q]| <= r, re-checked at runtime


class ComplementBuild(NamedTuple):
    """Everything produced by one pipeline run.

    certified is True when the family guarantees the ratio analytically,
    False when it was only verified on the finite prefix.
    """

    source: str
    analysis: RatioAnalysis
    certified: bool
    blocks: tuple[BlockBuild, ...]
    complement: NatSet
    missing: NatSet  # the points of (analysis.threshold, missing.horizon] A + B misses
    density: tuple[DensitySample, ...]


def _build_blocks(a: NatSet, analysis: RatioAnalysis, horizon: int) -> list[BlockBuild]:
    """Thin every dyadic block with 2^{i+2} inside the horizon, from gamma up.

    A block whose precondition fails (checked by thin_block) is reported as
    BlockPreconditionFailed at its exponent, keeping the failed clause.
    """
    blocks: list[BlockBuild] = []
    i = analysis.gamma
    while (1 << (i + 2)) <= horizon:
        q = 1 << i
        try:
            _, trace = thin_block(a, q)
        except PreconditionViolated as exc:
            raise BlockPreconditionFailed(
                i,
                f"block exponent {i}: {exc}; the horizon is too small or the "
                "ratio analysis was only an estimate",
            ) from exc
        blocks.append(
            BlockBuild(
                exponent=i,
                trace=trace,
                translate_bound_ok=count_in(a, q, 4 * q, "(]") <= analysis.r,
            )
        )
        i += 1
    return blocks


def build_complement(spec: SequenceSpec, alpha_hint=None) -> ComplementBuild:
    """Run the full pipeline and return the verified build.

    build.missing checks (threshold, hi], hi its horizon: the end of the last
    block, halved when that end is the horizon itself unless halving would
    leave the range empty, so hi may equal the horizon.  sumset is
    exact up to its horizon, so nothing is certified beyond exact
    knowledge.  Density is sampled at powers of two from the threshold
    upward.
    """
    h = spec.horizon
    a = generate(spec)
    analysis = analyze_ratio(a, alpha_hint)
    first_block_end = 1 << (analysis.gamma + 2)
    if h < first_block_end:
        raise PreconditionViolated(
            "horizon >= 2^(gamma+2)",
            f"horizon {h} cannot fit the first block ending at {first_block_end}",
        )
    blocks = _build_blocks(a, analysis, h)
    complement = NatSet(chain.from_iterable(blk.trace.chosen for blk in blocks), h)
    if not complement.isdisjoint(a):
        raise CoverFailed("complement intersects the base set; blocks are corrupt")

    # The last block ends at the largest power of two <= h.
    hi = 1 << (blocks[-1].exponent + 2)
    if hi == h and hi >> 1 > analysis.threshold:
        hi >>= 1

    samples = [1 << j for j in range(analysis.gamma + 1, h.bit_length())]
    density = density_profile(complement, samples)
    return ComplementBuild(
        source=spec.source,
        analysis=analysis,
        certified=spec.family in _CERTIFIED_FAMILIES,
        blocks=tuple(blocks),
        complement=complement,
        missing=verify_cover(a, complement, analysis.threshold, hi),
        density=density,
    )

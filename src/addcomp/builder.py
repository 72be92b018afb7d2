"""Assemble a sparse additive complement from thinned dyadic blocks.

build_complement() runs the whole pipeline: generate the base set A,
derive the growth parameters, then for each dyadic exponent i from gamma
(while the block fits the horizon) thin the cover of (2^{i+1}, 2^{i+2}]
drawn from (2^i, 2^{i+2}] minus A.  The union B of the thinned blocks is
disjoint from A by construction, covers everything from the threshold
2^{gamma+1} up to the last fully built block, and its sampled density
decays; all three are re-verified exactly (cover.verify_cover), never assumed.

Each block depends only on A, and the top block costs about as much as all
the others together.  So one helper, made with os.fork (build needs a POSIX
system), thins the top block and pickles it back through a pipe while this
process thins the rest.  Only this process checks the union and reports.
"""

from __future__ import annotations

import os
import pickle
import signal
from itertools import chain
from typing import NamedTuple, NoReturn

from .cover import verify_cover
from .errors import AddcompError, BlockPreconditionFailed, CoverFailed, PreconditionViolated
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


def _thin(a: NatSet, analysis: RatioAnalysis, i: int) -> BlockBuild:
    """Thin the block q = 2^i; thin_block raises PreconditionViolated if it may not."""
    q = 1 << i
    _, trace = thin_block(a, q)
    return BlockBuild(exponent=i, trace=trace,
                      translate_bound_ok=count_in(a, q, 4 * q, "(]") <= analysis.r)


def _send_top(pipe: int, a: NatSet, analysis: RatioAnalysis, i: int) -> NoReturn:
    """In the forked helper: pickle block i's BlockBuild, or what it raised, to pipe; then exit."""
    code = 1
    try:
        try:
            outcome = _thin(a, analysis, i)
        except Exception as exc:
            outcome = exc
        with os.fdopen(pipe, "wb") as out:
            pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)  # never back into the parent's stack, its buffers or its exit handlers


def _received(data: bytes, status: int, i: int) -> BlockBuild:
    """The helper's block i from its pipe data and wait status; raise what it raised."""
    code = os.waitstatus_to_exitcode(status)
    if code:
        names = {s.value: s.name for s in signal.Signals}
        how = (f"was killed by {names.get(-code, f'signal {-code}')}" if code < 0
               else f"exited with status {code}")
        raise AddcompError(f"block exponent {i}: the thinning helper {how} before sending the block")
    outcome = pickle.loads(data)
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def _failed(i: int, exc: PreconditionViolated) -> BlockPreconditionFailed:
    """Block i's failure, naming the clause thin_block raised."""
    return BlockPreconditionFailed(
        i,
        f"block exponent {i}: {exc}; the horizon is too small or the "
        "ratio analysis was only an estimate",
    )


def _build_blocks(a: NatSet, analysis: RatioAnalysis, horizon: int) -> list[BlockBuild]:
    """Thin every dyadic block with 2^{i+2} inside the horizon, from gamma up.

    The top block costs about as much as all the others together, so one
    forked helper thins it while this process thins the rest in order.  A
    block whose precondition fails (checked by thin_block) is reported as
    BlockPreconditionFailed at its exponent, keeping the failed clause; a
    lower block's failure is raised first.  The helper is always reaped.
    """
    top = horizon.bit_length() - 3  # the largest i with 2^{i+2} <= horizon
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        _send_top(write_end, a, analysis, top)
    os.close(write_end)
    blocks: list[BlockBuild] = []
    data = None
    with os.fdopen(read_end, "rb") as pipe:
        try:
            for i in range(analysis.gamma, top):
                blocks.append(_thin(a, analysis, i))
            data = pipe.read()
        except PreconditionViolated as exc:
            raise _failed(i, exc) from exc
        finally:
            if data is None:  # this process failed first: the helper's block is not needed
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
    try:
        blocks.append(_received(data, status, top))
    except PreconditionViolated as exc:
        raise _failed(top, exc) from exc
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

"""Coverage checks: A + B covers (lo, hi], and these points are left.

block_cover() proves (n, end] inside A + ((m, end] minus A) for one block once
its counting preconditions hold, by exact sumset; verify_cover() and
gap_detector() return the NatSet of points of (lo, hi] that A + B misses, for
a given B and for B the whole complement of A.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CoverFailed, PreconditionViolated
from .natset import NatSet, count_in, from_interval, non_elements, sumset

__all__ = [
    "BlockCoverResult",
    "block_cover",
    "verify_cover",
    "gap_detector",
]


class BlockCoverResult(NamedTuple):
    """Verified cover of (n, end] by A + candidate_set."""

    candidate_set: NatSet
    covered: NatSet


def block_cover(a: NatSet, m: int, n: int, end: int) -> BlockCoverResult:
    """Cover (n, end] by A + ((m, end] minus A), verified exactly.

    Preconditions (checked, each failure names its clause): n >= 2m,
    end > n, horizon >= end, and |A n [1, m]| > |A n (m, end]| (which forces
    A n [1, m] to be nonempty).  With those in place the cover cannot fail;
    a CoverFailed here means the library itself is broken.
    """
    if m < 1:
        raise PreconditionViolated("m >= 1", f"got m={m}")
    if n < 2 * m:
        raise PreconditionViolated("n >= 2m", f"got n={n}, m={m}")
    if end <= n:
        raise PreconditionViolated("end > n", f"got end={end}, n={n}")
    if a.horizon < end:
        raise PreconditionViolated("horizon >= end", f"horizon {a.horizon} < end {end}")
    low = count_in(a, 1, m, "[]")
    high = count_in(a, m, end, "(]")
    if low <= high:
        raise PreconditionViolated(
            "|A n [1,m]| > |A n (m,end]|", f"got {low} <= {high} (m={m}, end={end})"
        )
    candidate = non_elements(a, m, end)
    missing = non_elements(sumset(a, candidate, end), n, end)
    if missing:
        raise CoverFailed(
            f"{len(missing)} targets in ({n}, {end}] not reachable despite valid preconditions"
        )
    return BlockCoverResult(candidate, from_interval(n, end, "(]", horizon=end))


def verify_cover(a: NatSet, b: NatSet, lo: int, hi: int) -> NatSet:
    """The NatSet of points of (lo, hi] that A + B misses, on horizon max(hi, 1).

    Exact, not sampled; hi must lie within both horizons.
    """
    if hi > a.horizon or hi > b.horizon:
        raise ValueError(
            f"hi={hi} beyond a horizon (a: {a.horizon}, b: {b.horizon}); "
            "exactness would be lost"
        )
    return non_elements(sumset(a, b, max(hi, 1)), lo, hi)


def gap_detector(a: NatSet, lo: int, hi: int) -> NatSet:
    """Points of (lo, hi] not expressible as a + v with a in A, v not in A.

    Uses the whole complement of A within [1, hi] as the candidate side, so
    a nonempty result proves no subset of the complement can cover those
    points either.  Within (lo, hi] the evidence is exact: sums involving
    anything beyond hi cannot land at or below hi.  The sumset stops as soon
    as no later shift can reach a new point up to hi, so a reach that fills
    early costs a few shifts, not one per element of the complement
    (composites at 10^6: two shifts, not one for each of about 78k primes).
    """
    return non_elements(sumset(a, non_elements(a, 0, hi), max(hi, 1)), lo, hi)

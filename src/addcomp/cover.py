"""Block covers: (n, end] is reachable as A + ((m, end] minus A).

The core fact: when n >= 2m and the initial segment A n [1, m] outnumbers
the slice A n (m, end], every target in (n, end] is a sum of an element of
A and a non-element of A drawn from (m, end].  block_cover() checks the
counting preconditions, builds the candidate set, and verifies the cover by
an exact sumset.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CoverFailed, PreconditionViolated
from .natset import NatSet, count_in, from_interval, non_elements, reflect, sumset

__all__ = [
    "BlockCoverResult",
    "block_cover",
    "translate_count_lower_bound",
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


def translate_count_lower_bound(
    a: NatSet, b: NatSet, lo: int, hi: int, n: int
) -> tuple[int, int]:
    """Both sides of the translate-count lower bound at the point n.

    Requires b subset of (lo, hi].  Returns (lhs, rhs) where
    lhs = |A n (n - B)| counts the translates A + i, i in B, containing n,
    and rhs = |A n [n-hi, n-lo)| - (hi - lo - |B|).  Callers assert
    lhs >= rhs; rhs may be negative.
    """
    if count_in(b, lo, hi) != len(b):
        raise PreconditionViolated("B subset of (lo, hi]", f"B has elements outside ({lo}, {hi}]")
    lhs = len(reflect(n, b, a.horizon) & a)
    rhs = count_in(a, n - hi, n - lo, "[)") - (hi - lo - len(b))
    return lhs, rhs

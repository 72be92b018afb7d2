"""Independent brute-force references and the checks only tests call.

No reference shares an algorithm with the fast paths: the sumset reference
is a plain double loop, minimal_cover enumerates subsets, and the greedy
reference recomputes every gain at every step, so the optimized code has
something honest to be checked against.  The lemma checks beside them
(ratio_tail_holds, translate_count_lower_bound with its helper reflect,
density_zero_diagnostic) state facts the tests assert; no command runs them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CoverFailed, NoCover, PreconditionViolated, TooLarge
from .natset import NatSet, count_in, geometric_points

__all__ = [
    "minimal_cover",
    "sumset_reference",
    "ratio_tail_holds",
    "reflect",
    "translate_count_lower_bound",
    "density_zero_diagnostic",
]

#: Exhaustive subset search is 2^|B|; beyond this it stops being a desk run.
SUBSET_SEARCH_CAP = 22


def minimal_cover(a: NatSet, b: NatSet, m: int, n: int) -> tuple[NatSet, int]:
    """Smallest S inside B whose translates cover (m, m+n], found exhaustively.

    Among minimum-cardinality covers, returns the lexicographically smallest
    element list.  Depth-first search in ascending element order with a
    static-gain prune (sound because per-candidate coverage never grows), so
    the first cover found at the minimum size is the lexicographic winner.
    Requires m >= 0, n >= 1 and A known on every target (horizon >= m + n).
    """
    end = m + n
    if m < 0:
        raise PreconditionViolated("m >= 0", f"got m={m}")
    if n < 1:
        raise PreconditionViolated("n >= 1", f"got n={n}")
    if a.horizon < end:
        raise PreconditionViolated("horizon >= m + n", f"horizon {a.horizon} < {end}")
    b_list = b.to_list()
    if len(b_list) > SUBSET_SEARCH_CAP:
        raise TooLarge(f"|B| = {len(b_list)} exceeds the search cap {SUBSET_SEARCH_CAP}")
    target = ((1 << n) - 1) << (m + 1)
    covers = []
    for b_el in b_list:
        mask = 0
        for x in a:
            t = x + b_el
            if t > end:
                break
            if t > m:
                mask |= 1 << t
        covers.append(mask)
    union = 0
    for mask in covers:
        union |= mask
    if union & target != target:
        raise NoCover(f"even the full candidate set misses ({m}, {end}]")

    sizes = [mask.bit_count() for mask in covers]
    # suffix_max[i]: best static gain available from candidate i onward
    suffix_max = [0] * (len(covers) + 1)
    for i in range(len(covers) - 1, -1, -1):
        suffix_max[i] = max(suffix_max[i + 1], sizes[i])

    best_single = suffix_max[0]
    lower = -(-n // best_single) if best_single else 0  # ceil(n / best gain)

    def search(start: int, slots: int, covered: int, picked: list[int]) -> list[int] | None:
        if covered & target == target:
            return picked
        if slots == 0:
            return None
        missing = (target & ~covered).bit_count()
        if slots * suffix_max[start] < missing:
            return None
        for j in range(start, len(covers) - slots + 1):
            found = search(j + 1, slots - 1, covered | covers[j], picked + [b_list[j]])
            if found is not None:
                return found
        return None

    for k in range(max(lower, 1), len(covers) + 1):
        found = search(0, k, 0, [])
        if found is not None:
            return NatSet(found, b.horizon), len(found)
    raise NoCover("unreachable: the full set covers but no subset size did")


def sumset_reference(a: NatSet, b: NatSet, horizon: int) -> NatSet:
    """O(|A| * |B|) element-pair sumset; same contract as natset.sumset."""
    b_list = b.to_list()
    out = set()
    for x in a:
        if x >= horizon:
            break
        for y in b_list:
            s = x + y
            if s > horizon:
                break
            out.add(s)
    return NatSet(out, horizon)


def _greedy_cover_reference(a: NatSet, b: NatSet, m: int, n: int):
    """Full per-step recomputation; the plain reference greedy_cover must match."""
    end = m + n
    a_list = [x for x in a if x < end]  # x >= end cannot land a sum in (m, end]
    flags = bytearray(n + 1)
    for i in range(1, n + 1):
        flags[i] = 1
    uncovered = n
    remaining = b.to_list()
    chosen, gains = [], []
    while uncovered:
        best_g, best_b = 0, None
        for b_el in remaining:
            g = 0
            for x in a_list:
                t = x + b_el
                if t > end:
                    break
                if t > m and flags[t - m]:
                    g += 1
            if g > best_g:  # strict: first (smallest) element wins ties
                best_g, best_b = g, b_el
        if best_b is None:
            raise CoverFailed("candidates exhausted with targets still uncovered")
        for x in a_list:
            t = x + best_b
            if t > end:
                break
            if t > m and flags[t - m]:
                flags[t - m] = 0
                uncovered -= 1
        remaining.remove(best_b)
        chosen.append(best_b)
        gains.append(best_g)
    return chosen, gains


def ratio_tail_holds(seq: Sequence[int], n0: int, alpha: Fraction) -> bool:
    """Exact check of the tail bound over every in-horizon index n >= n0 >= 1."""
    if n0 < 1:
        raise ValueError(f"n0 >= 1: got n0={n0}")
    num, den = alpha.numerator, alpha.denominator
    return all(seq[i + 1] * den >= seq[i] * num for i in range(n0 - 1, len(seq) - 1))


def reflect(u: int, b: NatSet, horizon: int) -> NatSet:
    """{u - y : y in b} intersected with [1, horizon]."""
    return NatSet((u - y for y in b if 1 <= u - y <= horizon), horizon)


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


def density_zero_diagnostic(
    xs: Sequence[int] | Iterable[int], sample_count: int = 16
) -> list[tuple[int, float]]:
    """Partial averages (1/t) * sum of ln(x_i)/x_i at geometrically spaced t.

    For any increasing sequence these averages sink toward zero, which is
    the engine behind the complement's vanishing density; the diagnostic
    makes that visible on finite data.  Accepts any iterable with a length
    (ranges included) and checks strict monotonicity on the fly.
    """
    total = len(xs)  # type: ignore[arg-type]
    if total < 1:
        raise ValueError("need a nonempty sequence")
    ts = set(geometric_points(total, sample_count))
    out: list[tuple[int, float]] = []
    running = 0.0
    prev = 0
    for idx, x in enumerate(xs, 1):
        if x <= prev:
            raise ValueError(f"sequence must be strictly increasing ({x} after {prev})")
        prev = x
        running += math.log(x) / x
        if idx in ts:
            out.append((idx, running / idx))
    return out

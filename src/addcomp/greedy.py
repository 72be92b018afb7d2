"""Greedy thinning of translate covers, with size-bound bookkeeping.

Given A, a candidate set B inside (x1, x2], and a target window (m, m+n]
already covered by the translates A + i over i in B, greedy_thin() selects
a subset S that still covers the window, always taking the candidate whose
translate covers the most still-uncovered targets (ties broken by smallest
element).  greedy_cover computes every candidate's gain at once, one lane
per candidate inside a big integer, and walks the candidates at the top
gain in one of two modes.  At first each pick zeroes the lanes of the
candidates it makes stale, so a lane still at the top gain is exact and is
picked unchecked; once that zeroing costs more than the re-checks it
spares, each walked candidate is re-checked instead, by one C-level gather
over zero-padded flags indexed from B's smallest candidate.  Gains only
shrink, so both modes visit candidates in exactly this order.  The trace
records the chosen order and the per-step marginal gains, each in the
narrowest unsigned array (1, 2, 4 or 8 bytes an entry) that holds its
largest possible value, and the size bounds.

The quantity controlling the bound is the depth
    depth = |A n [1, m - x1)| - (x2 - x1 - |B|),
a lower bound on how many candidate translates hit each target.  With
cutoff = floor(depth / ln depth) the selection satisfies

    |S| <= (|B| / depth) * H(cutoff) + n / cutoff

where H is the exact harmonic number.  Below depth 3 thinning is skipped
(ln 1 = 0 leaves depth 1 no cutoff; depth 2, where floor(2 / ln 2) = 2,
is kept whole by policy) and S = B is returned with the trace flagged.

Each fact is checked once, by its owner.  GreedyInstance.validate checks
the instance's shape, B inside (x1, x2] (one count), m + n <= x2 and
depth > 0; a positive depth already puts every target in at least `depth`
translates (the translate-count lower bound), so the initial cover is not
re-proven here.  For a dyadic block, cover.block_cover checks the block's
shape, horizon and counting hypothesis and proves the cover by sumset; the
depth check is then exactly |A n [1,q)| > |A n (q,4q]|.  _target_flags
scans A once, below m + n.  builder re-verifies the complement from scratch.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from fractions import Fraction
from itertools import takewhile
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple

from .cover import block_cover
from .errors import CoverFailed, PreconditionViolated
from .natset import NatSet, count_in, point_flags

__all__ = [
    "GreedyInstance",
    "GreedyTrace",
    "greedy_cover",
    "greedy_thin",
    "thin_block",
]

#: Depths below this skip thinning (ln 1 = 0; depth 2 is kept whole by policy).
DEGENERATE_DEPTH = 3


class GreedyInstance(NamedTuple):
    """A thinning problem: cover (m, m+n] from translates A + i, i in B."""

    a: NatSet
    b: NatSet
    m: int
    n: int
    x1: int
    x2: int

    def depth(self) -> int:
        return count_in(self.a, 1, self.m - self.x1, "[)") - (self.x2 - self.x1 - len(self.b))

    def validate(self) -> int:
        """Check the instance's preconditions; returns the depth on success.

        Checks n >= 1, 1 <= x1 < x2, B inside (x1, x2], m + n <= x2 and
        depth > 0.  The initial cover needs no separate check: every target
        t in (m, m+n] lies in at least depth translates A + i, i in B, by the
        translate-count lower bound at t.  greedy_cover's exhaustion guard
        is the runtime backstop.
        """
        if self.n < 1:
            raise PreconditionViolated("n >= 1", f"got n={self.n}")
        if not (1 <= self.x1 < self.x2):
            raise PreconditionViolated("1 <= x1 < x2", f"got x1={self.x1}, x2={self.x2}")
        if count_in(self.b, self.x1, self.x2) != len(self.b):
            raise PreconditionViolated(
                "B subset of (x1, x2]", f"B has elements outside ({self.x1}, {self.x2}]"
            )
        if self.m + self.n > self.x2:
            raise PreconditionViolated(
                "m + n <= x2", f"got m+n={self.m + self.n}, x2={self.x2}"
            )
        d = self.depth()
        if d <= 0:
            raise PreconditionViolated(
                "depth > 0",
                f"|A n [1,{self.m - self.x1})| - ({self.x2}-{self.x1}-{len(self.b)}) = {d}",
            )
        return d


class GreedyTrace(NamedTuple):
    """Bookkeeping of one thinning run.

    gains[j] is the number of targets newly covered at step j; gain_counts
    maps each gain value to how many steps achieved it
    (so sum of gain * count recovers the window size).  Degenerate runs skip
    the greedy selection: chosen is then B in ascending order and gains are
    the marginal gains replayed in that order, so the sum identity still
    holds but monotonicity may not.
    """

    chosen: array  # in selection order, unsigned, of the fewest bytes holding x2 (m + n if thinned)
    gains: array  # one per entry of chosen, unsigned, of the fewest bytes holding |A n [1, m+n)|
    gain_counts: Mapping[int, int]
    depth: int
    gain_cutoff: int
    bound_two_term: float | None
    bound_closed_form: float | None
    degenerate: bool


def _unsigned_type(largest: int) -> str:
    """The typecode of the fewest of 1, 2, 4 or 8 unsigned bytes that hold largest: B, H, I or Q."""
    return next(code for code in "BHIQ" if largest < 1 << 8 * array(code).itemsize)


def _target_flags(a: NatSet, b: NatSet, m: int, n: int) -> tuple[int, list[int], memoryview, Callable]:
    """(lo, a_list, view, read): lo is B's smallest candidate, capped at m + n;
    a_list is A below m + n, scanned no further, as no larger element lands
    a sum in (m, m+n]; view[t - lo] == 1 exactly for the targets t above lo;
    and sum(read(view[b - lo:])) is the gain of a candidate b in [lo, m + n].

    A target at or below lo lies in no translate A + b with b in B, so no
    byte is spent on it.  Zero padding of max(a_list) bytes above m + n
    keeps every read in range with no test of the window.  itemgetter
    returns a bare int for one index and needs at least one, so shorter
    lists are read through a list.
    """
    end = m + n
    # With no candidate in [1, m+n], one flag for m+n itself, which gains nothing.
    lo = min(b.min_element() or end, end)
    a_list = list(takewhile(lambda x: x < end, a))
    flags = bytearray(end + 1 - lo + max(a_list, default=0))
    first = max(m + 1 - lo, 0)
    flags[first:end + 1 - lo] = b"\x01" * (end + 1 - lo - first)
    read = itemgetter(*a_list) if len(a_list) > 1 else lambda v: [v[x] for x in a_list]
    return lo, a_list, memoryview(flags), read


def greedy_cover(a: NatSet, b: NatSet, m: int, n: int) -> tuple[array, array]:
    """Run the greedy selection alone; no thinning-bound preconditions.

    Requires only that the translates of B cover (m, m+n].  Returns the
    chosen candidates in selection order together with their marginal gains,
    each in an array of the fewest of 1, 2, 4 or 8 unsigned bytes that hold
    its largest possible entry: m + n for chosen, len(a_list) for gains.

    Gains live in lanes of `width` bytes, the same fewest bytes that hold
    len(a_list), so no lane carries into the next (SIMD within a register),
    and the gains array has the lanes' type.  Lane i of F is the uncovered
    flag of target lo + i, lo being B's smallest element, and the flags are
    indexed from lo too, so lane offset // width is the flag index.  Lane i
    of the sum of F >> (8 * width * x) over the relevant x in A is then the
    gain of candidate lo + i.  B's point_flags, spread the same way and
    multiplied by 2^(8 * width) - 1, zero the lanes outside B.  Candidates
    above m + n gain nothing and get no lane.

    Each pass reads F from one bytes copy of the flags; wider lanes spread
    it into a fresh bytearray that is dropped once F exists.  The sum is
    taken in Horner form: t = F, then for each gap d between consecutive
    elements of a_list, largest first, t = (t >> 8 * width * d) + F, and
    last t >>= 8 * width * a_list[0].  This is exact lane by lane: no
    partial sum reaches 256^width in any lane, so adding never carries
    across lanes, and right shifts by whole lanes then distribute over sums
    and compose.  Besides the flags and the member mask, at most three
    lane-sized ints (F, t and the next t) are alive at once.  Kill mode
    (below) copies the lanes into a bytearray once t is dropped, and
    `cells` casts it to the lane's unsigned type, so one store zeroes a
    whole lane in either byte order.

    g steps down from len(a_list), and at each g the lanes equal to g are
    walked upwards.  The lanes are recomputed after a walk that picked, so
    they are exact when every walk starts.  A walk runs in one of two modes:

    - kill mode picks each lane found at g with no re-check.  A pick at i
      clears each of its targets i + x still uncovered and zeroes the lane
      of every candidate ahead of it that holds that target, j = i + x - y
      for each y < x in a_list (the offsets in `ahead`).  Gains change only
      at picks, and the walk has zeroed every candidate ahead whose gain a
      pick lowered, so a lane still at g has true gain g.
    - re-check mode re-reads the gain of each candidate found at g by one
      gather over the padded flags: one still at g is picked, any other is
      skipped.

    Either way this picks exactly what recomputing every gain at every step
    does, by gain descending, then element ascending: gains only shrink, so
    a candidate below g when the lanes were computed never reaches g again;
    every candidate still at g lies ahead in the walk, so the next one found
    still at g is the smallest; and once the walk ends none is at g, so the
    top gain is below g.

    The walk starts in kill mode and leaves it for good after a kill-mode
    walk that picked, unless (found - picks) * len(a_list) >= writes: found
    is lanes.count at g when the walk began (exact for one-byte lanes, an
    estimate for wider ones), so found - picks are the failed re-checks the
    walk spared, each priced at its len(a_list) gathered bytes, and writes
    are the lanes it zeroed.  The rule reads counts, not clocks, so a run
    does the same work on any host.
    """
    end = m + n
    lo, a_list, view, read = _target_flags(a, b, m, n)
    lane_type = _unsigned_type(len(a_list))
    width = array(lane_type).itemsize
    size = (end - lo + 1) * width
    gaps = [8 * width * (y - x) for x, y in zip(a_list, a_list[1:])][::-1]
    # Target i + x of a pick at i is also target j + y of candidate j = i + (x - y).
    ahead = [(x, [x - y for y in a_list[:k]]) for k, x in enumerate(a_list)]

    def spread(byte_flags: bytes) -> int:
        # Lanes are little-endian bytes throughout, whatever the host's byte order.
        # int.from_bytes copies anything but bytes, so one-byte lanes are read as given.
        if width > 1:
            buf = bytearray(size)
            buf[::width] = byte_flags
            byte_flags = buf
        return int.from_bytes(byte_flags, "little")

    # Lanes hold 0 or 1, so the product fills each lane of B with ones and carries nothing.
    members = spread(point_flags(b, lo, end)) * ((1 << 8 * width) - 1)

    uncovered = n
    chosen = array(_unsigned_type(end))  # a pick above m + n would get no lane
    gains = array(lane_type)
    g = len(a_list)
    stale = kill = True
    while uncovered:
        if not g:
            raise CoverFailed("candidates exhausted with targets still uncovered")
        if stale:
            lanes = cells = b""  # drop the old lanes before the new ones are summed
            f = spread(bytes(view[:end + 1 - lo]))
            t = f
            for shift in gaps:
                t >>= shift
                t += f
            del f
            t >>= 8 * width * a_list[0]
            t &= members
            lanes = t.to_bytes(size, "little")
            del t
            if kill:
                lanes = bytearray(lanes)
                cells = memoryview(lanes).cast(lane_type)
            stale = False
        lane = g.to_bytes(width, "little")
        found = lanes.count(lane) if kill else 0
        picks = writes = 0
        pos = lanes.find(lane)
        while pos >= 0 and uncovered:
            if not pos % width:  # a lane, not a match across two lanes
                i = pos // width
                if kill or sum(read(view[i:])) == g:
                    for x, offsets in ahead:
                        if kill and view[i + x]:
                            for d in offsets:
                                cells[i + d] = 0
                            writes += len(offsets)
                        view[i + x] = 0
                    uncovered -= g
                    chosen.append(lo + i)
                    gains.append(g)
                    picks += 1
                    stale = True
            pos = lanes.find(lane, pos + 1)
        if kill and picks:
            kill = (found - picks) * len(a_list) >= writes
        g -= 1
    return chosen, gains


def _two_term_bound_exact(num_candidates: int, depth: int, num_targets: int, cutoff: int) -> Fraction:
    """(|B| / depth) * H(cutoff) + n / cutoff, with H the exact harmonic number."""
    harmonic = sum((Fraction(1, i) for i in range(1, cutoff + 1)), Fraction(0))
    return Fraction(num_candidates, depth) * harmonic + Fraction(num_targets, cutoff)


def greedy_thin(inst: GreedyInstance) -> tuple[NatSet, GreedyTrace]:
    """Thin the candidate set, or return it whole in the degenerate regime.

    Validates every instance precondition first and builds one trace for
    either regime.  Non-degenerate runs carry the two bound values computed
    from the depth and always satisfy the two-term bound; degenerate runs
    leave both bounds None and select B itself.
    """
    depth = inst.validate()
    if depth < DEGENERATE_DEPTH:
        cutoff, two_term, closed_form = 1, None, None
        chosen = array(_unsigned_type(inst.x2), inst.b)  # validate put B inside (x1, x2]
        lo, a_list, view, read = _target_flags(inst.a, inst.b, inst.m, inst.n)
        gains = array(_unsigned_type(len(a_list)))
        for b_el in chosen:
            # A + (m + n) covers nothing, like any A + b above it
            i = min(b_el, inst.m + inst.n) - lo
            gains.append(sum(read(view[i:])))
            for x in a_list:
                view[i + x] = 0
    else:
        chosen, gains = greedy_cover(inst.a, inst.b, inst.m, inst.n)
        cutoff = int(depth / math.log(depth))
        two_term = float(_two_term_bound_exact(len(inst.b), depth, inst.n, cutoff))
        # H(cutoff) relaxed to 1 + ln cutoff, its elementary bound
        closed_form = (len(inst.b) / depth) * (1.0 + math.log(cutoff)) + inst.n / cutoff
    trace = GreedyTrace(
        chosen=chosen,
        gains=gains,
        gain_counts=dict(Counter(g for g in gains if g)),
        depth=depth,
        gain_cutoff=cutoff,
        bound_two_term=two_term,
        bound_closed_form=closed_form,
        degenerate=depth < DEGENERATE_DEPTH,
    )
    return NatSet(chosen, inst.b.horizon), trace


def thin_block(a: NatSet, q: int) -> tuple[NatSet, GreedyTrace]:
    """Thin the cover of the dyadic block (2q, 4q] drawn from (q, 4q] minus A.

    Requires q >= 1, a horizon of at least 4q and |A n [1, q)| > |A n (q, 4q]|.
    block_cover checks the first two and its own counting hypothesis, and
    proves the cover of (2q, 4q] by sumset.  The instance's depth equals
    |A n [1, q)| - |A n (q, 4q]|, so validate's depth > 0 check is the
    block's counting precondition.  Each failure raises PreconditionViolated
    naming its clause.
    """
    result = block_cover(a, q, 2 * q, 4 * q)
    inst = GreedyInstance(a=a, b=result.candidate_set, m=2 * q, n=2 * q, x1=q, x2=4 * q)
    return greedy_thin(inst)

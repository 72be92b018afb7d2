"""Sequence families for the base set A, and the growth-ratio analysis.

A SequenceSpec names the family (explicit data, powers, geometric, fibonacci,
primes, composites, squares) and the horizon; generate() realizes it as a
NatSet.  analyze_ratio() finds a witnessed growth bound a_{n+1} >= alpha * a_n
on a tail of the sequence and derives from it the parameters the dyadic
builder needs.  Ratio comparisons are done in exact rational arithmetic so
grid values like 1.05 behave as 21/20, not as their binary float neighbours.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import IndexOutOfRange, RatioNotSatisfied
from .natset import (
    NatSet,
    check_horizon,
    from_bits,
    non_elements,
    read_number,
    read_set_file,
    show_number,
    show_text,
)

__all__ = [
    "ALPHA_GRID",
    "SequenceSpec",
    "RatioAnalysis",
    "parse_spec",
    "generate",
    "analyze_ratio",
]

#: Candidate growth bounds tried (largest first) when no hint is given.
ALPHA_GRID = (
    Fraction(2),
    Fraction(3, 2),
    Fraction(5, 4),
    Fraction(11, 10),
    Fraction(21, 20),
)

#: Family names a spec string can start with; explicit data comes in as [file:]PATH.
FAMILIES = ("powers", "geometric", "fibonacci", "primes", "composites", "squares")

_GEOMETRIC_ITERATION_CAP = 100_000


class SequenceSpec(NamedTuple):
    """A rule producing the base set: family name, horizon, spec string, parameters."""

    family: str
    horizon: int
    source: str                              # the spec string, echoed in reports
    k: int | None = None                     # powers: base
    c: Fraction | None = None                # geometric: scale
    alpha: Fraction | None = None            # geometric: ratio
    elements: NatSet | None = None           # explicit data


def parse_spec(text: str, horizon: int | None = None) -> SequenceSpec:
    """Parse a CLI spec string.

    Grammar: ``powers:K``, ``geometric:c=C,alpha=A``, ``primes``,
    ``composites``, ``fib``, ``squares``, ``file:PATH``, or the bare ``PATH``
    of an existing set file (a family name wins over a file of that name).
    A file's horizon defaults as in read_set_file; a family needs one given.
    """
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "fib":
        head = "fibonacci"
    if head != "file" and head not in FAMILIES:
        if not os.path.exists(text):
            raise ValueError(
                f"{show_text(text)} is neither a known sequence spec nor an existing file")
        head, rest, text = "file", text, f"file:{text}"
    if head == "file":
        if not rest:
            raise ValueError("file: spec needs a path")
        a = read_set_file(rest, horizon)
        return SequenceSpec("explicit", a.horizon, text, elements=a)
    if horizon is None:
        raise ValueError(f"spec {show_text(text)} needs an explicit horizon")
    if head == "powers":
        k = read_number(rest, "powers base", "powers spec needs an integer base, got {}".format)
        return SequenceSpec("powers", horizon, text, k=k)
    if head == "geometric":
        params = {}
        for part in rest.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key in params or key not in ("c", "alpha"):
                raise ValueError(
                    f"geometric takes exactly c and alpha, once each; got {show_text(key)}")
            params[key] = val.strip()
        missing = {"c", "alpha"} - params.keys()
        if missing:
            raise ValueError(f"geometric spec is missing {sorted(missing)}")
        return SequenceSpec(
            "geometric",
            horizon,
            text,
            c=read_number(params["c"], "scale", kind=Fraction),
            alpha=read_number(params["alpha"], "ratio", kind=Fraction),
        )
    if rest:
        raise ValueError(f"family {head!r} takes no parameters")
    return SequenceSpec(head, horizon, text)


def _prime_bits(limit: int) -> bytearray:
    """The binary numeral of the primes up to limit: bits[limit - i] is ord("1") iff i is prime.

    It starts from the odd numbers and strikes the odd multiples of each odd
    prime p, from p * p down the buffer, so no temporary passes limit / 6 bytes.
    """
    bits = bytearray(b"10" if limit & 1 else b"01") * (limit // 2 + 1)  # the odd numbers
    del bits[limit + 1:]
    bits[limit - 1] = ord("0")  # 1 is not prime, 2 is
    if limit >= 2:
        bits[limit - 2] = ord("1")
    for p in range(3, math.isqrt(limit) + 1, 2):
        if bits[limit - p] == ord("1"):
            top = limit - p * p  # the digit of p * p
            # a bytearray is assigned as it is; a bytes value would be copied first
            bits[top :: -2 * p] = bytearray(b"0") * (top // (2 * p) + 1)
    return bits


def _generate_geometric(c: Fraction, alpha: Fraction, horizon: int) -> list[int]:
    """The distinct positive floor(c * alpha^i), i >= 1, up to the horizon.

    powers:K is this with c = 1/K and alpha = K.  A ratio that would make
    more terms than the cap is rejected before any term is made; each log is
    taken from a numerator and a denominator, so no huge fraction overflows.
    """
    if c <= 0:
        raise ValueError(f"geometric scale must be positive, got {show_number(c)}")
    if alpha <= 1:
        raise ValueError(f"geometric ratio must exceed 1, got {show_number(alpha)}")
    log_alpha = math.log(alpha.numerator) - math.log(alpha.denominator)
    log_c = math.log(c.numerator) - math.log(c.denominator)
    if _GEOMETRIC_ITERATION_CAP * log_alpha < math.log(horizon + 1) - max(log_c, 0):
        raise ValueError("geometric ratio too close to 1 for exact generation")
    if _GEOMETRIC_ITERATION_CAP * log_alpha < math.log(horizon + 1) - log_c:  # only if c < 1
        raise ValueError("geometric scale too small for exact generation")
    out: list[int] = []
    num = c.numerator * alpha.numerator
    den = c.denominator * alpha.denominator
    while (value := num // den) <= horizon:
        if value >= 1 and (not out or value > out[-1]):
            out.append(value)
        num *= alpha.numerator
        den *= alpha.denominator
    return out


def generate(spec: SequenceSpec) -> NatSet:
    """Realize the family as a NatSet on [1, spec.horizon].

    primes and composites (the non-primes in (3, horizon]) come from a sieve
    that writes the primes' binary numeral, which from_bits reads in place:
    one byte per integer at the peak, and no Python step per element.
    """
    h = spec.horizon
    check_horizon(h)  # before any family, the sieve included, allocates
    family = spec.family
    if family == "explicit":
        if spec.elements is None:
            raise ValueError("explicit family needs elements")
        return spec.elements.with_horizon(h)
    if family == "powers":
        k = spec.k
        if k is None or k < 2:
            raise ValueError(f"powers base must be an integer >= 2, got {show_number(k)}")
        return NatSet(_generate_geometric(Fraction(1, k), Fraction(k), h), h)
    if family == "geometric":
        if spec.c is None or spec.alpha is None:
            raise ValueError("geometric family needs c and alpha")
        return NatSet(_generate_geometric(spec.c, spec.alpha, h), h)
    if family == "fibonacci":
        vals = []
        x, y = 1, 2
        while x <= h:
            vals.append(x)
            x, y = y, x + y
        return NatSet(vals, h)
    if family in ("primes", "composites"):
        primes = from_bits(_prime_bits(h), h)
        return primes if family == "primes" else non_elements(primes, 3, h)
    if family == "squares":
        return NatSet((i * i for i in range(1, math.isqrt(h) + 1)), h)
    raise ValueError(f"unknown sequence family {family!r}")


class RatioAnalysis(NamedTuple):
    """Parameters derived from a witnessed tail growth bound.

    n0           1-based index from which a_{n+1} >= alpha * a_n holds in-horizon
    r            smallest power with alpha**r >= 4
    p            1 + max(a_{n0}, a_{2r+1}): above p every (x, 4x] slice of the
                 sequence is both short (at most r elements) and outnumbered by
                 the initial segment
    gamma        2 + floor(log2 p): first dyadic block exponent
    threshold    2**(gamma + 1): point from which coverage is guaranteed
    alpha_exact  the growth bound alpha, an exact rational
    """

    n0: int
    r: int
    p: int
    gamma: int
    threshold: int
    alpha_exact: Fraction


def _min_tail_start(seq: Sequence[int], alpha: Fraction) -> int | None:
    """Minimal 1-based n0 with a_{n+1} >= alpha * a_n for all n >= n0.

    Returns None when no tail with at least one consecutive pair satisfies
    the bound (a vacuous tail does not count as a witness).
    """
    num, den = alpha.numerator, alpha.denominator
    n = len(seq) - 1  # 1-based index of the last pair; walk back to the first that fails
    while n >= 1 and seq[n] * den >= seq[n - 1] * num:
        n -= 1
    return n + 1 if n + 1 < len(seq) else None


def analyze_ratio(a: NatSet, alpha_hint=None) -> RatioAnalysis:
    """Derive the builder parameters from the base set A.

    With a hint, the hinted ratio is verified on a minimal tail and used
    as-is.  Without one, the largest grid value admitting a valid tail wins
    (larger alpha means smaller r and p, hence an earlier threshold).

    Raises RatioNotSatisfied when no ratio holds on any nonvacuous tail, and
    IndexOutOfRange when A is too short for the derived r.
    """
    seq = a.to_list()
    if len(seq) < 2:
        raise RatioNotSatisfied(f"need at least two elements, got {len(seq)}")

    candidates = ALPHA_GRID
    if alpha_hint is not None:
        candidates = (read_number(alpha_hint, "ratio bound", kind=Fraction),)
        if candidates[0] <= 1:
            raise ValueError(f"ratio bound must exceed 1, got {show_number(candidates[0])}")
    for alpha in candidates:
        n0 = _min_tail_start(seq, alpha)
        if n0 is not None:
            break
    else:
        if alpha_hint is not None:
            raise RatioNotSatisfied(f"no tail satisfies a_(n+1) >= {show_number(alpha)} * a_n")
        raise RatioNotSatisfied("no grid ratio holds on any tail; the sequence grows too slowly")

    # Stop raising the power once the sequence is too short for r: as alpha
    # nears 1 the exact powers grow long and r runs into the thousands.
    r = 1
    power = alpha
    while power < 4 and 2 * r + 2 <= len(seq):
        power *= alpha
        r += 1
    if 2 * r + 2 > len(seq):
        raise IndexOutOfRange(
            f"need at least {2 * r + 2} elements within the horizon for r >= {r}, "
            f"got {len(seq)}"
        )
    p = 1 + max(seq[n0 - 1], seq[2 * r])  # strictly above max(a_n0, a_(2r+1))
    gamma = p.bit_length() + 1            # == 2 + floor(log2 p)
    return RatioAnalysis(
        n0=n0,
        r=r,
        p=p,
        gamma=gamma,
        threshold=1 << (gamma + 1),
        alpha_exact=alpha,
    )

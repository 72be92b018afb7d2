"""Exact sets of natural numbers truncated to a finite horizon.

Elements live in [1, horizon].  A NatSet's horizon is always stated by its
caller, never inferred from its elements.  Membership is stored densely as
one big integer (bit i set exactly when i is in the set), private to this
module: other modules use only the operations below.  Every operation is
exact on [1, horizon]; results that would land outside are clipped, and the
clipping is part of each operation's contract.  The dense form makes the
hot paths (sumset, interval counting) single big-integer shifts and masks;
sumset also stops shifting once the clipped result can no longer grow.
point_flags gives one byte per point at C speed, for loops that index
points; from_bitmap reads a set from a little-endian bitmap, one bit per
point, so a sieve that clears bits in that layout becomes a set with one
C-level read and no Python step per point.
density_profile counts a set at the sample points geometric_points picks.

NatSet values are immutable after construction, so any number of threads
may read them concurrently.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import suppress
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "NatSet",
    "DensitySample",
    "from_interval",
    "sumset",
    "non_elements",
    "point_flags",
    "from_bitmap",
    "count_in",
    "density_profile",
    "read_set_file",
    "write_set_file",
]

#: Interval notations: "(]" is (lo, hi], "[)" is [lo, hi), and so on.
INTERVAL_KINDS = ("()", "(]", "[)", "[]")
MAX_SAMPLES = 10**6  #: the largest sample count geometric_points accepts
ECHO_LIMIT = 64  #: the most characters of a bad input text, or digits of a number, a message shows
MAX_EXPONENT = 100_000  #: the largest exponent read in a Fraction text, whose 1eK has K + 1 digits

# For each byte value, the offsets of its set bits; used to enumerate members.
_BYTE_OFFSETS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))

# Maps the digits of a binary string to the bytes 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _clipped_bounds(lo: int, hi: int, kind: str, horizon: int) -> tuple[int, int]:
    """Closed bounds of the interval of the given kind, clipped to [1, horizon]."""
    if kind not in INTERVAL_KINDS:
        raise ValueError(f"unknown interval kind {kind!r}, expected one of {INTERVAL_KINDS}")
    if kind[0] == "(":
        lo += 1
    if kind[1] == ")":
        hi -= 1
    return max(lo, 1), min(hi, horizon)


def _range_mask(lo: int, hi: int) -> int:
    """Bitmask with bits lo..hi set; zero when the range is empty."""
    if lo > hi:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << lo


def _iter_mask(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order (bytewise table scan)."""
    for byte_index, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) >> 3, "little")):
        if byte:
            base = byte_index << 3
            for off in _BYTE_OFFSETS[byte]:
                yield base + off


def show_number(x) -> str:
    """An int or Fraction x exactly, or its power of ten once x passes ECHO_LIMIT digits."""
    if max(abs(x.numerator), x.denominator) < 10**ECHO_LIMIT:
        return str(x)
    return f"about {'-' * (x < 0)}10^{math.log10(abs(x.numerator)) - math.log10(x.denominator):.0f}"


def show_text(text: str) -> str:
    """repr(text), or once text passes ECHO_LIMIT characters, that many and the full length."""
    if len(text) <= ECHO_LIMIT:
        return repr(text)
    return f"{text[:ECHO_LIMIT]!r} (first {ECHO_LIMIT} of {len(text)} characters)"


def read_number(text: str, what: str, bad: Callable[[str], str] | None = None, kind: type = int):
    """kind(text), for kind int or Fraction, or a ValueError that names one clause.

    Text that reads once each run of its digits is cut to one digit is refused
    for its size alone: unread past a decimal exponent of MAX_EXPONENT, and past
    int()'s digit limit as "<what> too long to read (N digits)".  Other text is
    bad(show_text(text)), by default "cannot interpret <text> as a <what>".
    A value that is not a str goes to kind as it is, and a refusal shows its repr.
    """
    bad = bad or (lambda shown: f"cannot interpret {shown} as a {what}")
    if not isinstance(text, str):
        try:
            return kind(text)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(bad(repr(text))) from None
    exponent = kind is Fraction and re.search(r"[eE][+-]?(\d+(?:_\d+)*)\s*\Z", text)
    huge = bool(exponent) and float(exponent[1]) > MAX_EXPONENT
    if not huge:
        with suppress(ValueError, ZeroDivisionError):
            return kind(text)
    try:
        kind(re.sub(r"\d+", "1", text))
    except ValueError:
        raise ValueError(bad(show_text(text))) from None
    if huge:
        raise ValueError(f"{what} exponent must be at most {MAX_EXPONENT} in size, "
                         f"got {show_text(text)}")
    digits = len(re.sub(r"\D", "", text))
    if 0 < sys.get_int_max_str_digits() < digits:
        raise ValueError(f"{what} too long to read ({digits} digits)")
    raise ValueError(bad(show_text(text)))


def check_horizon(horizon: int) -> None:
    """Raise ValueError unless 1 <= horizon < 8 * sys.maxsize, before anything is allocated."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {show_number(horizon)}")
    if horizon >> 3 >= sys.maxsize:  # past the index range of a one-bit-per-point buffer
        raise ValueError(f"horizon must be below {8 * sys.maxsize}, got {show_number(horizon)}")


class NatSet:
    """An immutable finite set of naturals in [1, horizon].

    The horizon is the truncation point of the finite model: the set knows
    nothing about integers above it, and all arithmetic on NatSets clips
    results to [1, horizon].
    """

    __slots__ = ("_horizon", "_mask")

    def __init__(self, elements: Iterable[int], horizon: int):
        check_horizon(horizon)
        buf = bytearray((horizon >> 3) + 1)
        for e in elements:
            if e < 1:
                raise ValueError(f"elements must be positive naturals, got {e}")
            if e > horizon:
                raise ValueError(f"element {e} exceeds horizon {horizon}")
            buf[e >> 3] |= 1 << (e & 7)
        self._horizon = horizon
        self._mask = int.from_bytes(bytes(buf), "little")

    @classmethod
    def _from_mask(cls, mask: int, horizon: int) -> "NatSet":
        # Internal fast path; callers guarantee mask only has bits in [1, horizon].
        check_horizon(horizon)
        obj = object.__new__(cls)
        obj._horizon = horizon
        obj._mask = mask
        return obj

    @property
    def horizon(self) -> int:
        return self._horizon

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    def __contains__(self, x: int) -> bool:
        return 1 <= x <= self._horizon and (self._mask >> x) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _iter_mask(self._mask)

    def __reversed__(self) -> Iterator[int]:
        """All elements, descending (bytewise table scan from the top byte)."""
        data = self._mask.to_bytes((self._mask.bit_length() + 7) >> 3, "little")
        for byte_index in range(len(data) - 1, -1, -1):
            for off in reversed(_BYTE_OFFSETS[data[byte_index]]):
                yield (byte_index << 3) + off

    def to_list(self) -> list[int]:
        """All elements, ascending."""
        return list(_iter_mask(self._mask))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NatSet):
            return NotImplemented
        return self._horizon == other._horizon and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self._horizon, self._mask))

    def __repr__(self) -> str:
        n = len(self)
        if n <= 10:
            return f"NatSet({self.to_list()}, horizon={self._horizon})"
        head = ", ".join(str(x) for x, _ in zip(self, range(6)))
        return f"NatSet([{head}, ...] <{n} elements>, horizon={self._horizon})"

    def min_element(self) -> int | None:
        if not self._mask:
            return None
        return (self._mask & -self._mask).bit_length() - 1

    def intersection(self, other: "NatSet") -> "NatSet":
        if self._horizon != other._horizon:
            raise ValueError(
                f"horizon mismatch: {self._horizon} vs {other._horizon}; "
                "use with_horizon() to align first"
            )
        return NatSet._from_mask(self._mask & other._mask, self._horizon)

    __and__ = intersection

    def issubset(self, other: "NatSet") -> bool:
        """Element containment; horizons need not match."""
        return self._mask & ~other._mask == 0

    def isdisjoint(self, other: "NatSet") -> bool:
        return self._mask & other._mask == 0

    def with_horizon(self, horizon: int) -> "NatSet":
        """Same elements re-truncated to a new horizon (clips when shrinking)."""
        if horizon == self._horizon:
            return self
        mask = self._mask if horizon > self._horizon else self._mask & _range_mask(1, horizon)
        return NatSet._from_mask(mask, horizon)

    def content_digest(self) -> str:
        """SHA-256 over the canonical encoding; names the exact set a claim was checked on."""
        import hashlib  # here, so only a command that prints a digest loads OpenSSL
        h = hashlib.sha256()
        h.update(b"natset:1:")
        h.update(self._horizon.to_bytes(8, "little"))
        h.update(self._mask.to_bytes((self._mask.bit_length() + 7) >> 3, "little"))
        return h.hexdigest()


def from_interval(lo: int, hi: int, kind: str = "(]", *, horizon: int) -> NatSet:
    """Integers in the requested interval, clipped to [1, horizon].

    An empty intersection yields the empty set; no errors for inverted bounds.
    """
    check_horizon(horizon)
    return NatSet._from_mask(_range_mask(*_clipped_bounds(lo, hi, kind, horizon)), horizon)


def sumset(a: NatSet, b: NatSet, horizon: int) -> NatSet:
    """{x + y : x in a, y in b}, clipped to [1, horizon].

    Exact for every n <= horizon: a representation n = x + y forces
    x, y < n <= horizon, so truncating the inputs at the horizon loses no
    representation of any in-range n.  Iterates the smaller operand in
    ascending order and ORs shifted copies of the other's mask.

    Stops early once the result can no longer grow: after the shift by e,
    every later shift sets only bits at or above e + 1 + min(big), so the
    bits below that line are final, and if every bit from the line up to
    the horizon is already set, no later shift changes the result.  The
    check is two bit counts, of the bits from the line up and of those above
    the horizon, so it builds no range mask; it still costs O(horizon), so
    it runs after shifts 1, 2, 4, 8, ... only, and a sumset that never
    saturates pays for log2(shifts) checks.  The final clip XORs away the
    bits above the horizon; acc never holds bit 0, so nothing below 1 is left.
    """
    check_horizon(horizon)
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    big_mask = big._mask
    low = big.min_element()
    acc = 0
    next_check = 1
    for done, e in enumerate(small, 1):
        if e >= horizon:
            break
        acc |= big_mask << e
        if done == next_check:
            next_check <<= 1
            start = min(e + 1 + low, horizon + 1)
            if (acc >> start).bit_count() - (acc >> horizon + 1).bit_count() == horizon + 1 - start:
                break
    return NatSet._from_mask(acc ^ (acc >> horizon + 1 << horizon + 1), horizon)


def non_elements(a: NatSet, lo: int, hi: int) -> NatSet:
    """The points of (lo, hi] not in A, on horizon max(hi, 1).

    Membership above A's horizon is unknown, so hi may not exceed it.
    """
    if hi > a._horizon:
        raise ValueError(f"hi={show_number(hi)} beyond horizon {a._horizon}")
    return NatSet._from_mask(_range_mask(max(lo + 1, 1), hi) & ~a._mask, max(hi, 1))


def point_flags(a: NatSet, lo: int, hi: int) -> bytes:
    """One byte per point of [lo, hi]: 1 where the point is in A, else 0.

    Points above A's horizon read 0.  An empty range gives b""; lo may not
    be negative.
    """
    if lo > hi:
        return b""
    count = hi - lo + 1
    bits = (a._mask >> lo) & ((1 << count) - 1)
    return format(bits, f"0{count}b")[::-1].encode("ascii").translate(_BIT_BYTES)


def from_bitmap(buf: bytes | bytearray, horizon: int) -> NatSet:
    """The set whose mask is the little-endian bitmap buf, one bit per point.

    Point i is in the set exactly when bit i & 7 of buf[i >> 3] is set.  buf
    may be shorter than horizon + 1 bits; the points above it are left out.
    int.from_bytes reads buf in one C-level pass (a bytearray through one
    bytes copy of it), with no Python step per point.
    """
    mask = int.from_bytes(buf, "little")
    if mask.bit_length() > horizon + 1:
        raise ValueError(f"element {mask.bit_length() - 1} exceeds horizon {horizon}")
    if mask & 1:
        raise ValueError("elements must be positive naturals, got 0")
    return NatSet._from_mask(mask, horizon)


def count_in(a: NatSet, lo: int, hi: int, kind: str = "(]") -> int:
    """|a intersect interval|; bounds outside [1, horizon] clip harmlessly."""
    return (a._mask & _range_mask(*_clipped_bounds(lo, hi, kind, a._horizon))).bit_count()


class DensitySample(NamedTuple):
    n: int
    count: int
    ratio: float


def density_profile(a: NatSet, sample_points: Sequence[int]) -> tuple[DensitySample, ...]:
    """Exact counts and ratios at strictly increasing in-horizon points."""
    samples = []
    prev = 0
    for n in sample_points:
        if n <= prev:
            raise ValueError("sample points must be strictly increasing")
        if n > a.horizon:
            raise ValueError(f"sample point {n} beyond horizon {a.horizon}")
        c = count_in(a, 1, n, "[]")
        samples.append(DensitySample(n, c, c / n))
        prev = n
    if not samples:
        raise ValueError("need at least one sample point")
    return tuple(samples)


def geometric_points(limit: int, count: int) -> list[int]:
    """Roughly geometrically spaced integers in [1, limit], deduplicated."""
    if limit < 1:
        raise ValueError(f"sample limit must be at least 1, got {limit}")
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    if count > MAX_SAMPLES:  # the loop below runs count times for at most limit points
        raise ValueError(f"sample count must be at most {MAX_SAMPLES}, got {show_number(count)}")
    if count == 1:
        return [limit]
    pts = {round(limit ** (j / (count - 1))) for j in range(count)}
    pts.add(limit)
    return sorted(max(p, 1) for p in pts)


# ---------------------------------------------------------------------------
# Set file format: one strictly increasing positive integer per line,
# '#' starts a comment line, blank lines are ignored.
# ---------------------------------------------------------------------------


def read_set_file(path, horizon: int | None = None) -> NatSet:
    """Load a set file; elements beyond an explicit horizon are clipped.

    With no horizon, the horizon is the file's last element, or 1 for a
    file with no elements.  Bytes not UTF-8, read as U+DC80..U+DCFF, are refused.
    """
    out: list[int] = []
    prev = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            try:
                if not line.isascii() and any("\udc80" <= ch <= "\udcff" for ch in line):
                    raise ValueError("not UTF-8 text")
                if not line or line.startswith("#"):
                    continue
                try:
                    value = int(line)
                except ValueError:  # read_number raises, naming why
                    value = read_number(line, "integer", "not an integer: {}".format)
                if value < 1:
                    raise ValueError(f"elements must be positive, got {show_number(value)}")
                if value <= prev:
                    raise ValueError(f"elements must be strictly increasing "
                                     f"({show_number(value)} after {show_number(prev)})")
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if horizon is None or value <= horizon:
                out.append(value)
            prev = value
    if horizon is None:
        horizon = prev or 1
    return NatSet(out, horizon)


def write_set_file(path, values: NatSet | Iterable[int], comment: str | None = None) -> None:
    """Write elements in the set file format, optionally with a '#' header."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for v in values:
            fh.write(f"{v}\n")

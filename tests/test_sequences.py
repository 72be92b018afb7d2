import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import count, takewhile

import pytest

from addcomp import (
    ALPHA_GRID,
    IndexOutOfRange,
    NatSet,
    RatioNotSatisfied,
    SequenceSpec,
    analyze_ratio,
    generate,
    parse_spec,
    ratio_tail_holds,
)
import addcomp.sequences as sequences_module
from addcomp.sequences import FAMILIES, _generate_geometric, _min_tail_start


def test_powers_of_two():
    assert generate(parse_spec("powers:2", 20)).to_list() == [1, 2, 4, 8, 16]


def test_every_family_has_a_spec():
    # each advertised family parses from some spec string (explicit data is file:PATH)
    params = {"powers": "powers:2", "geometric": "geometric:c=1,alpha=3/2"}
    for family in FAMILIES:
        assert parse_spec(params.get(family, family), 64).family == family


@pytest.mark.parametrize("horizon", [0, -1, -2])
@pytest.mark.parametrize("family", FAMILIES)
def test_generate_rejects_horizon_below_one(family, horizon):
    # natset's rule runs before any family: on a negative horizon the prime
    # sieve and isqrt would fail first, with messages that name no horizon
    params = {"powers": "powers:2", "geometric": "geometric:c=1,alpha=3/2"}
    spec = parse_spec(params.get(family, family), horizon)
    with pytest.raises(ValueError, match=f"^horizon must be at least 1, got {horizon}$"):
        generate(spec)


def test_composites_by_sieve():
    assert generate(parse_spec("composites", 12)).to_list() == [4, 6, 8, 9, 10, 12]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_sieve_families_match_trial_division():
    for h in [*range(1, 401), 10**4]:
        primes = [n for n in range(1, h + 1) if _is_prime(n)]
        composites = [n for n in range(4, h + 1) if not _is_prime(n)]
        assert generate(parse_spec("primes", h)).to_list() == primes, h
        assert generate(parse_spec("composites", h)).to_list() == composites, h


def test_sieve_family_sizes_at_a_million():
    assert len(generate(parse_spec("primes", 10**6))) == 78_498
    assert len(generate(parse_spec("composites", 10**6))) == 921_501


@pytest.mark.parametrize("family", ["primes", "composites"])
def test_sieve_families_build_no_set_element_by_element(monkeypatch, family):
    # one Python step per element costs 0.3 s for the composites at 10^6
    monkeypatch.setattr(NatSet, "__init__", lambda *args: pytest.fail("NatSet(elements)"))
    assert generate(parse_spec(family, 10**5)).horizon == 10**5


@pytest.mark.parametrize("family", ["primes", "composites"])
def test_sieve_families_peak_below_one_and_a_half_bytes_per_point(family):
    # the sieve writes the numeral that from_bits reads in place: one byte per
    # point, plus a sixth for the strike of 3 or an eighth for the mask
    h = 10**6
    tracemalloc.start()
    try:
        a = generate(parse_spec(family, h))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.horizon == h
    assert peak < 1.5 * h, peak


def test_explicit_rejects_disorder(tmp_path):
    path = tmp_path / "a.set"
    path.write_text("3\n1\n2\n")
    with pytest.raises(ValueError):
        parse_spec(f"file:{path}", 10)


def test_explicit_clips_to_horizon():
    spec = SequenceSpec("explicit", 10, "explicit", elements=NatSet([1, 5, 50], 50))
    assert generate(spec).to_list() == [1, 5]


def test_primes_and_fibonacci():
    assert generate(parse_spec("primes", 20)).to_list() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert generate(parse_spec("fib", 25)).to_list() == [1, 2, 3, 5, 8, 13, 21]


def test_squares():
    assert generate(parse_spec("squares", 30)).to_list() == [1, 4, 9, 16, 25]


def test_geometric_exact_floors():
    # floor(3 * (3/2)^i) for i >= 1: 4, 6, 10, 15, 22, ...
    got = generate(parse_spec("geometric:c=3,alpha=1.5", 25)).to_list()
    assert got == [4, 6, 10, 15, 22]


def test_geometric_deduplicates():
    # floor(2 * 1.1^i) repeats small values before growing past them
    got = generate(parse_spec("geometric:c=2,alpha=1.1", 10)).to_list()
    assert got == sorted(set(got))
    assert all(x <= 10 for x in got)


def _plain_powers(k, h):
    return list(takewhile(lambda v: v <= h, (k**i for i in count())))


@pytest.mark.parametrize("k", range(2, 41))
def test_powers_are_geometric_with_scale_one_over_k(k):
    # K^(i-1) = floor((1/K) * K^i); 2^40 is only ever a bound, never a NatSet
    for h in (1, 2, 3, k - 1, k, k + 1, 2**20, 2**40):
        assert _generate_geometric(Fraction(1, k), Fraction(k), h) == _plain_powers(k, h)


@pytest.mark.parametrize("k", range(2, 41))
def test_powers_keep_their_digest(k):
    for h in (1, k, k * k + 1, 4096):
        got = generate(parse_spec(f"powers:{k}", h))
        assert got.content_digest() == NatSet(_plain_powers(k, h), h).content_digest()


def test_powers_of_two_digest_is_pinned():
    # the a= digest that `verify` prints for the 2^20 build
    assert generate(parse_spec("powers:2", 1 << 20)).content_digest().startswith("e3e94d50e211")


def test_geometric_near_one_is_rejected_before_any_term():
    spec = parse_spec("geometric:c=1,alpha=1.0001", 10**6)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^geometric ratio too close to 1 for exact generation$"):
        generate(spec)
    assert time.perf_counter() - start < 2
    assert len(generate(parse_spec("geometric:c=1,alpha=1.001", 10**6))) == 7910


@pytest.mark.parametrize("horizon, rejected", [(1022, False), (1024, True)])
def test_geometric_cap_counts_terms_below_the_horizon(monkeypatch, horizon, rejected):
    # with a cap of 10 terms, 2^1..2^10 fit below 1024 but not below 1022
    monkeypatch.setattr(sequences_module, "_GEOMETRIC_ITERATION_CAP", 10)
    if rejected:
        with pytest.raises(ValueError, match="too close to 1"):
            _generate_geometric(Fraction(1), Fraction(2), horizon)
    else:
        assert _generate_geometric(Fraction(1), Fraction(2), horizon) == _plain_powers(2, 512)[1:]


@pytest.mark.parametrize("make, clause", [
    (lambda: parse_spec("primes:3", 10), "family 'primes' takes no parameters"),
    (lambda: parse_spec("file:", 10), "file: spec needs a path"),
    (lambda: parse_spec("geometric:c=x,alpha=2", 10), "cannot interpret 'x' as a scale"),
    (lambda: generate(SequenceSpec("bogus", 10, "bogus")), "unknown sequence family 'bogus'"),
    (lambda: generate(SequenceSpec("geometric", 10, "geometric:alpha=2", alpha=Fraction(2))),
     "geometric family needs c and alpha"),
], ids=["no-parameters", "no-path", "bad-scale", "unknown-family", "no-scale"])
def test_spec_errors_name_their_clause(make, clause):
    with pytest.raises(ValueError, match=f"^{clause}$"):
        make()


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        generate(SequenceSpec("powers", 10, "powers:1", k=1))
    with pytest.raises(ValueError):
        generate(SequenceSpec("geometric", 10, "geometric:c=1,alpha=1",
                              c=Fraction(1), alpha=Fraction(1)))
    with pytest.raises(ValueError):
        generate(SequenceSpec("geometric", 10, "geometric:c=-1,alpha=2",
                              c=Fraction(-1), alpha=Fraction(2)))
    with pytest.raises(ValueError):
        parse_spec("powers:x", 10)
    with pytest.raises(ValueError):
        parse_spec("nonsense", 10)
    with pytest.raises(ValueError):
        parse_spec("geometric:c=3", 10)


def test_explicit_needs_elements():
    with pytest.raises(ValueError, match="explicit family needs elements"):
        generate(SequenceSpec("explicit", 10, "explicit"))


def test_parse_file_spec(tmp_path):
    path = tmp_path / "a.set"
    path.write_text("1\n10\n100\n")
    spec = parse_spec(f"file:{path}", None)
    assert spec.family == "explicit"
    assert spec.horizon == 100
    assert generate(spec).to_list() == [1, 10, 100]


def test_analyze_powers_of_two():
    an = analyze_ratio(generate(parse_spec("powers:2", 1 << 20)))
    assert (an.n0, an.alpha_exact, an.r, an.p, an.gamma, an.threshold) == (1, 2, 2, 17, 6, 128)


def test_analyze_composites_fails():
    with pytest.raises(RatioNotSatisfied):
        analyze_ratio(generate(parse_spec("composites", 10**4)))


def _set(elements):
    # the NatSet of the given elements, on the horizon of the largest
    return NatSet(elements, max(elements))


def test_analyze_explicit_with_hint():
    an = analyze_ratio(_set([1, 10, 100, 1000]), alpha_hint="10")
    assert (an.n0, an.r, an.p, an.gamma, an.threshold) == (1, 1, 101, 8, 512)


def test_analyze_minimal_tail_start():
    # ratio dips below 2 once: 1, 3, 4, 8, 16 fails 4/3 >= 2 at n=2, holds after
    an = analyze_ratio(_set([1, 3, 4, 8, 16, 32, 64, 128]), alpha_hint=2)
    assert an.n0 == 3
    assert ratio_tail_holds([1, 3, 4, 8, 16, 32, 64, 128], an.n0, an.alpha_exact)


@pytest.mark.parametrize("n0", [0, -5])
def test_ratio_tail_holds_rejects_n0_below_one(n0):
    # n0 = 0 used to read seq[-1], and n0 = -5 to raise a bare IndexError
    with pytest.raises(ValueError, match="n0 >= 1"):
        ratio_tail_holds([1, 2, 4, 8], n0, Fraction(2))


def test_analysis_tail_always_verifies():
    for spec_text in ("powers:2", "powers:3", "powers:5", "fib"):
        a = generate(parse_spec(spec_text, 10**5))
        an = analyze_ratio(a)
        assert ratio_tail_holds(a.to_list(), an.n0, an.alpha_exact)
        # r is minimal for alpha**r >= 4
        assert an.alpha_exact**an.r >= 4
        assert an.r == 1 or an.alpha_exact ** (an.r - 1) < 4
        assert an.threshold == 1 << (an.gamma + 1)


def test_grid_picks_largest_valid_alpha():
    assert analyze_ratio(generate(parse_spec("powers:2", 1 << 12))).alpha_exact == Fraction(2)
    assert analyze_ratio(generate(parse_spec("powers:3", 3**10))).alpha_exact == Fraction(2)
    # ratios around 1.5 reject the grid value 2 but accept 3/2
    an = analyze_ratio(_set([16, 24, 36, 54, 81, 122, 183, 275, 413, 620]))
    assert an.alpha_exact == Fraction(3, 2)
    assert an.alpha_exact in ALPHA_GRID


def test_exact_grid_arithmetic_at_the_margin():
    # 20 -> 21 has ratio exactly 21/20; the decimal string must accept it at
    # the first index, while the nearest binary double (1.05000...044) rejects
    # the pair.  This is why ratio comparisons run on exact rationals.
    seq = [20, 21, 23, 25, 27, 29]
    assert _min_tail_start(seq, Fraction("1.05")) == 1
    assert _min_tail_start(seq, Fraction(1.05)) == 2


def _forward_tail_start(seq, alpha):
    # the definition read forwards: the first n0 whose tail of pairs all hold
    for n0 in range(1, len(seq)):
        if all(seq[n] >= alpha * seq[n - 1] for n in range(n0, len(seq))):
            return n0
    return None


def test_min_tail_start_matches_the_forward_definition():
    rng = random.Random(22)
    alphas = [*ALPHA_GRID, Fraction(8, 7), Fraction(3)]
    for _ in range(3000):
        seq, x = [], rng.randint(1, 5)
        for _ in range(rng.randint(0, 10)):
            seq.append(x)
            x += rng.randint(1, 3 * x)
        for alpha in alphas:
            assert _min_tail_start(seq, alpha) == _forward_tail_start(seq, alpha), (seq, alpha)
    params = {"powers": "powers:2", "geometric": "geometric:c=1,alpha=3/2"}
    for family in FAMILIES:
        for h in (1, 2, 3, 10, 64, 100, 257, 1000):
            seq = generate(parse_spec(params.get(family, family), h)).to_list()
            for alpha in alphas:
                assert _min_tail_start(seq, alpha) == _forward_tail_start(seq, alpha), (family, h)


class _CountingList(list):
    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_min_tail_start_reads_only_the_tail():
    # the composites' last pair already fails every grid value, so nothing
    # before it can matter; a forward scan reads all 921,501 elements
    seq = _CountingList(generate(parse_spec("composites", 10**6)))
    assert all(_min_tail_start(seq, alpha) is None for alpha in ALPHA_GRID)
    assert seq.reads <= 2 * len(ALPHA_GRID)


@pytest.mark.parametrize("hint, clause", [
    ([2], "cannot interpret [2] as a ratio bound"),
    (float("nan"), "cannot interpret nan as a ratio bound"),
    (float("inf"), "cannot interpret inf as a ratio bound"),
    ("1e-999999999", "ratio bound exponent must be at most 100000 in size, got '1e-999999999'"),
], ids=["list", "nan", "inf", "huge-exponent"])
def test_ratio_hint_names_why_it_is_not_read(hint, clause):
    # a hint that is not a str goes to Fraction as it is, and a refusal shows its repr
    with pytest.raises(ValueError, match=f"^{re.escape(clause)}$"):
        analyze_ratio(_set([1, 2, 4, 8, 16, 32, 64, 128]), alpha_hint=hint)


def test_ratio_failure_texts():
    with pytest.raises(RatioNotSatisfied, match=r"no tail satisfies a_\(n\+1\) >= 2 \* a_n"):
        analyze_ratio(_set([1, 2, 3, 4]), alpha_hint="2")
    with pytest.raises(RatioNotSatisfied, match="no grid ratio holds on any tail"):
        analyze_ratio(_set([100, 101, 102, 103]))


def test_analyze_rejects_short_or_invalid():
    with pytest.raises(RatioNotSatisfied):
        analyze_ratio(_set([5]))
    # A is a NatSet, whose elements ascend; a plain list is refused, not read
    with pytest.raises(AttributeError, match="to_list"):
        analyze_ratio([1, 2, 4, 8, 16, 32])
    with pytest.raises(ValueError):
        analyze_ratio(_set([2, 4, 8]), alpha_hint="1")
    # hint verified but sequence too short for r: alpha=10 gives r=1, needs 4 elements
    with pytest.raises(IndexOutOfRange):
        analyze_ratio(_set([1, 10, 100]), alpha_hint="10")


def test_rejection_lists_a_only_once():
    # one list of the 921,501 composites is about 35 MiB; a second copy of
    # any large part of A, such as a scan for an order the set already has,
    # passes the bound
    a = generate(parse_spec("composites", 10**6))
    tracemalloc.start()
    try:
        with pytest.raises(RatioNotSatisfied):
            analyze_ratio(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 38 * 2**20


def test_determinism():
    a = generate(parse_spec("fib", 10**6))
    assert analyze_ratio(a) == analyze_ratio(a)
    assert generate(parse_spec("fib", 10**6)) == generate(parse_spec("fib", 10**6))


def test_hint_near_one_fails_fast():
    # r with 1.0001**r >= 4 is about 13,900; the 11 powers of two up to 2^10
    # rule out r >= 5 long before the exact powers of the hint get that far.
    seq = generate(parse_spec("powers:2", 1 << 10))
    start = time.perf_counter()
    with pytest.raises(IndexOutOfRange, match="got 11"):
        analyze_ratio(seq, alpha_hint="1.0001")
    assert time.perf_counter() - start < 0.25

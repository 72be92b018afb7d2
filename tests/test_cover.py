import random

import pytest

from addcomp import (
    CoverFailed,
    NatSet,
    PreconditionViolated,
    block_cover,
    from_interval,
    generate,
    parse_spec,
    reflect,
    translate_count_lower_bound,
)
from conftest import random_block_cover_instance, random_natset


def test_block_cover_powers_of_two():
    a = generate(parse_spec("powers:2", 16))
    result = block_cover(a, 4, 8, 16)
    assert result.candidate_set.to_list() == [5, 6, 7, 9, 10, 11, 12, 13, 14, 15]
    assert result.covered.to_list() == list(range(9, 17))


def test_block_cover_singleton_base():
    result = block_cover(NatSet([1], 4), 1, 2, 4)
    assert result.candidate_set.to_list() == [2, 3, 4]


def test_block_cover_rejects_evens():
    evens = NatSet(range(2, 17, 2), 16)
    with pytest.raises(PreconditionViolated) as err:
        block_cover(evens, 4, 8, 16)
    assert "[1,m]" in str(err.value)


def test_block_cover_rejects_bad_shapes():
    a = NatSet([1], 20)
    with pytest.raises(PreconditionViolated):
        block_cover(a, 4, 7, 16)  # n < 2m
    with pytest.raises(PreconditionViolated):
        block_cover(a, 4, 8, 8)  # end <= n
    with pytest.raises(PreconditionViolated):
        block_cover(NatSet([1], 10), 2, 4, 16)  # horizon below end
    with pytest.raises(PreconditionViolated, match="^m >= 1: got m=0$"):
        block_cover(a, 0, 8, 16)


def test_block_cover_never_fails_when_preconditions_hold():
    rng = random.Random(41)
    for _ in range(400):
        a, m, n, end = random_block_cover_instance(rng, max_end=1200)
        result = block_cover(a, m, n, end)
        assert result.covered.issubset(
            from_interval(n, end, "(]", horizon=end)
        )


def test_lower_bound_worked_example():
    lhs, rhs = translate_count_lower_bound(NatSet([2, 4, 6], 10), NatSet([1, 3], 10), 0, 3, 7)
    assert (lhs, rhs) == (2, 1)


def test_lower_bound_equality_when_candidates_fill_interval():
    a = NatSet([2, 3, 8, 9], 20)
    b = from_interval(3, 7, "(]", horizon=20)  # B = (3, 7] entirely
    for n in range(1, 21):
        lhs, rhs = translate_count_lower_bound(a, b, 3, 7, n)
        assert lhs == rhs  # the slack term vanishes and n - B = [n-7, n-3)


def test_lower_bound_empty_slice():
    a = NatSet([15, 16], 20)
    b = from_interval(0, 3, "(]", horizon=20)
    lhs, rhs = translate_count_lower_bound(a, b, 0, 3, 7)
    assert (lhs, rhs) == (0, 0)


def test_lower_bound_rejects_escapees():
    with pytest.raises(PreconditionViolated):
        translate_count_lower_bound(NatSet([1], 10), NatSet([5], 10), 0, 3, 7)
    for outside in ([3], [8]):  # lo and hi + 1 lie just outside (lo, hi] = (3, 7]
        with pytest.raises(PreconditionViolated, match="B subset of"):
            translate_count_lower_bound(NatSet([1], 10), NatSet(outside, 10), 3, 7, 7)
    # an empty B and B = (lo, hi] are accepted
    for b in (NatSet([], 10), from_interval(3, 7, horizon=10)):
        translate_count_lower_bound(NatSet([1], 10), b, 3, 7, 7)


def test_lower_bound_holds_on_random_sweeps():
    rng = random.Random(42)
    for _ in range(60):
        h = rng.randint(40, 400)
        a = random_natset(rng, h, rng.uniform(0.1, 0.9))
        lo = rng.randint(0, 10)
        hi = lo + rng.randint(2, 30)
        b_elems = [x for x in range(lo + 1, min(hi, h) + 1) if rng.random() < 0.7]
        if not b_elems:
            continue
        b = NatSet(b_elems, h)
        for n in range(1, h + 1):
            lhs, rhs = translate_count_lower_bound(a, b, lo, hi, n)
            assert lhs >= rhs


def test_lower_bound_lhs_counts_translates():
    # lhs really is the number of i in B whose translate A + i contains n
    rng = random.Random(43)
    for _ in range(40):
        h = rng.randint(30, 200)
        a = random_natset(rng, h, 0.4)
        lo, hi = 2, 12
        b_elems = [x for x in range(lo + 1, hi + 1) if rng.random() < 0.6]
        if not b_elems:
            continue
        b = NatSet(b_elems, h)
        n = rng.randint(1, h)
        lhs, _ = translate_count_lower_bound(a, b, lo, hi, n)
        assert lhs == sum(1 for i in b_elems if 1 <= n - i <= h and (n - i) in a)

import random

import pytest

from addcomp import (
    NatSet,
    NoCover,
    TooLarge,
    from_interval,
    generate,
    greedy_cover,
    minimal_cover,
    gap_detector,
    parse_spec,
    reflect,
    sumset,
    sumset_reference,
)
from conftest import random_natset, random_tiny_cover_instance


def test_minimal_cover_worked_instance():
    a = NatSet([1, 2], 8)
    b = NatSet([3, 4, 5, 6, 7], 8)
    s_opt, size = minimal_cover(a, b, 4, 4)
    assert size == 2
    assert s_opt.to_list() == [4, 6]


def test_minimal_cover_single_translate():
    a = NatSet([1, 2, 3], 10)
    s_opt, size = minimal_cover(a, NatSet([4, 6], 10), 6, 3)
    assert size == 1
    assert s_opt.to_list() == [6]


def test_minimal_cover_lexicographic_tie():
    # both {2} and {3} cover (3, 5]; the smaller element must win
    a = NatSet([1, 2, 3], 10)
    s_opt, size = minimal_cover(a, NatSet([2, 3], 10), 3, 2)
    assert size == 1
    assert s_opt.to_list() == [2]


def test_minimal_cover_no_cover():
    with pytest.raises(NoCover):
        minimal_cover(NatSet([1], 10), NatSet([], 10), 4, 2)


def test_minimal_cover_size_cap():
    a = NatSet([1], 40)
    b = from_interval(1, 30, "(]", horizon=40)
    with pytest.raises(TooLarge):
        minimal_cover(a, b, 10, 5)


def test_known_strict_greedy_gap():
    # frozen instance where the greedy pays one extra pick
    a = NatSet([1, 2, 3, 5, 7, 8, 13], 13)
    b = NatSet([4, 6, 8, 9, 10, 11, 12, 13], 13)
    chosen, _ = greedy_cover(a, b, 7, 5)
    s_opt, size = minimal_cover(a, b, 7, 5)
    assert size == 2
    assert s_opt.to_list() == [6, 9]
    assert len(chosen) == 3


def test_greedy_never_beats_oracle():
    rng = random.Random(2718)
    for _ in range(60):
        a, b, m, n = random_tiny_cover_instance(rng, max_candidates=12)
        chosen, _ = greedy_cover(a, b, m, n)
        window = from_interval(m, m + n, "(]", horizon=m + n)
        assert window.issubset(sumset(a, NatSet(sorted(chosen), b.horizon), m + n))
        _, size = minimal_cover(a, b, m, n)
        assert len(chosen) >= size


def test_gap_detector_evens():
    evens = NatSet(range(2, 101, 2), 100)
    assert gap_detector(evens, 2, 100).to_list() == list(range(4, 101, 2))


def test_gap_detector_composites_is_empty():
    comp = generate(parse_spec("composites", 10**4))
    assert gap_detector(comp, 10, 10**4).to_list() == []
    comp = generate(parse_spec("composites", 10**5))
    assert gap_detector(comp, 10, 10**5).to_list() == []


def test_gap_detector_full_set_has_no_candidates():
    a = from_interval(1, 50, "[]", horizon=50)
    assert gap_detector(a, 5, 50) == from_interval(5, 50, "(]", horizon=50)


def test_gap_detector_soundness_pointwise():
    rng = random.Random(61)
    for _ in range(30):
        h = rng.randint(30, 300)
        a = random_natset(rng, h, rng.uniform(0.2, 0.8))
        lo = rng.randint(0, 10)
        gaps = gap_detector(a, lo, h)
        outside = NatSet([x for x in range(1, h + 1) if x not in a], h)
        for n in gaps:
            assert not (reflect(n, outside, h) & a)


def test_sumset_reference_examples():
    assert sumset_reference(NatSet([1, 2], 10), NatSet([3, 5], 10), 10).to_list() == [4, 5, 6, 7]
    assert sumset_reference(NatSet([], 10), NatSet([3], 10), 10).to_list() == []


def test_reference_agrees_with_fast_path():
    rng = random.Random(62)
    for _ in range(200):
        h = rng.randint(5, 2000)
        a = random_natset(rng, h, rng.uniform(0, 0.15))
        b = random_natset(rng, h, rng.uniform(0, 0.15))
        assert sumset_reference(a, b, h) == sumset(a, b, h)

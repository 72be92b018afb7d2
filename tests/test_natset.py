import random
import re
import sys
import tracemalloc

import pytest

import addcomp.natset as natset_module
from addcomp import (
    NatSet,
    count_in,
    density_profile,
    from_bits,
    from_interval,
    generate,
    non_elements,
    parse_spec,
    point_flags,
    read_set_file,
    reflect,
    sumset,
    sumset_reference,
    write_set_file,
)
from conftest import random_natset


def test_repr_lists_up_to_ten_elements_and_counts_more():
    assert repr(NatSet(range(1, 11), 10)) == (
        "NatSet([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], horizon=10)"
    )
    assert repr(NatSet([], 4)) == "NatSet([], horizon=4)"
    assert repr(NatSet(range(1, 12), 20)) == (
        "NatSet([1, 2, 3, 4, 5, 6, ...] <11 elements>, horizon=20)"
    )


def test_from_interval_half_open():
    assert from_interval(2, 5, "(]", horizon=10).to_list() == [3, 4, 5]


def test_from_interval_empty():
    assert from_interval(5, 2, "(]", horizon=10).to_list() == []


def test_from_interval_clips_at_horizon():
    assert from_interval(1, 4, "[)", horizon=3).to_list() == [1, 2, 3]


@pytest.mark.parametrize(
    "kind,expected",
    [("()", [3, 4]), ("(]", [3, 4, 5]), ("[)", [2, 3, 4]), ("[]", [2, 3, 4, 5])],
)
def test_from_interval_kinds(kind, expected):
    assert from_interval(2, 5, kind, horizon=10).to_list() == expected


def test_from_interval_rejects_horizon_below_one():
    with pytest.raises(ValueError, match="^horizon must be at least 1, got 0$"):
        from_interval(1, 5, horizon=0)


@pytest.mark.parametrize("horizon", [8 * sys.maxsize, 10**40])
def test_natset_rejects_a_horizon_past_the_index_range(horizon):
    # refused before the buffer is asked for, so nothing is allocated
    clause = f"^horizon must be below {8 * sys.maxsize}, got {horizon}$"
    with pytest.raises(ValueError, match=clause):
        NatSet([1], horizon)


@pytest.mark.parametrize("horizon", [8 * sys.maxsize, 10**40])
@pytest.mark.parametrize("make", [
    lambda s, h: s.with_horizon(h),
    lambda s, h: sumset(s, s, h),
    lambda s, h: from_interval(1, h, horizon=h),
], ids=["with_horizon", "sumset", "from_interval"])
def test_set_operations_reject_a_horizon_past_the_index_range(make, horizon):
    # the horizon rule runs before any mask as wide as the horizon is built
    s = NatSet([1], 10)
    clause = f"^horizon must be below {8 * sys.maxsize}, got {horizon}$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=clause):
            make(s, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_from_interval_rejects_unknown_kind():
    with pytest.raises(ValueError):
        from_interval(1, 5, "[>", horizon=10)


def test_sumset_enumeration():
    a = NatSet([1, 2], 10)
    b = NatSet([3, 5], 10)
    assert sumset(a, b, 10).to_list() == [4, 5, 6, 7]


def test_sumset_empty_summand():
    assert sumset(NatSet([], 10), NatSet([1, 2, 3], 10), 10).to_list() == []


def test_sumset_parity():
    evens = NatSet(range(2, 101, 2), 100)
    odds = NatSet(range(1, 101, 2), 100)
    got = sumset(evens, odds, 100)
    assert got.to_list() == list(range(3, 100, 2))
    assert all(x % 2 == 1 for x in got)


def test_non_elements_examples():
    a = NatSet([2, 4, 8], 10)
    assert non_elements(a, 1, 8) == NatSet([3, 5, 6, 7], 8)
    assert non_elements(a, -5, 4) == NatSet([1, 3], 4)  # lo <= 0 starts at 1
    assert non_elements(a, 0, 10).to_list() == [1, 3, 5, 6, 7, 9, 10]
    assert non_elements(a, 6, 6) == NatSet([], 6)
    assert non_elements(a, 9, 3) == NatSet([], 3)
    assert non_elements(a, 0, 0) == NatSet([], 1)


def test_non_elements_rejects_hi_beyond_horizon():
    with pytest.raises(ValueError, match="hi=11 beyond horizon 10"):
        non_elements(NatSet([2], 10), 0, 11)
    # past 1000 digits hi is named by its power of ten, not echoed
    with pytest.raises(ValueError, match=r"^hi=about 10\^3000 beyond horizon 10$"):
        non_elements(NatSet([2], 10), 0, 10**3000)


def test_non_elements_matches_list_reference():
    rng = random.Random(102)
    for _ in range(200):
        h = rng.randint(1, 300)
        a = random_natset(rng, h, rng.uniform(0.0, 1.0))
        lo, hi = rng.randint(-5, h + 2), rng.randint(-5, h)
        want = [x for x in range(max(lo, 0) + 1, hi + 1) if x not in a]
        got = non_elements(a, lo, hi)
        assert got.to_list() == want and got.horizon == max(hi, 1)


def test_point_flags_match_element_by_element():
    a = random_natset(random.Random(103), 200, 0.4)
    # byte-aligned and off by one, empty, a single point, past the horizon, all of it
    for lo, hi in [(8, 64), (9, 64), (8, 63), (17, 16), (50, 50), (150, 260), (0, 200)]:
        want = bytes(int(x in a) for x in range(lo, hi + 1))
        assert point_flags(a, lo, hi) == want, (lo, hi)
    assert point_flags(a, 40, 39) == b""
    assert point_flags(NatSet([], 10), 1, 10) == bytes(10)


def _numeral(a, h):
    """A's binary numeral on [0, h], built from point_flags: most significant point first."""
    return point_flags(a, 0, h)[::-1].translate(bytes.maketrans(b"\x00\x01", b"01"))


@pytest.mark.parametrize("h", [1, 7, 8, 9, 4096])
def test_from_bits_inverts_the_numeral_of_point_flags(h):
    rng = random.Random(h)
    for density in (0.0, 0.3, 0.7, 1.0):
        a = random_natset(rng, h, density)
        bits = _numeral(a, h)
        assert from_bits(bits, h) == a, density
        assert from_bits(bytearray(bits), h) == a, density


def test_from_bits_leaves_out_points_above_shorter_bits():
    assert from_bits(b"1010", 10) == NatSet([1, 3], 10)
    assert from_bits(b"", 10) == NatSet([], 10)
    assert from_bits(bytearray(b"10"), 1) == NatSet([1], 1)


@pytest.mark.parametrize("bits, clause", [
    (b"11", "elements must be positive naturals, got 0"),
    (b"210", "bits must be the digits 0 or 1, got b'2'"),
    (b"1 0", "bits must be the digits 0 or 1, got b' '"),
    # int() alone would read a prefix or an underscore
    (b"0b10", "bits must be the digits 0 or 1, got b'b'"),
    (b"1_0", "bits must be the digits 0 or 1, got b'_'"),
    (b"0" * 7, "element 6 exceeds horizon 5"),  # len(bits) == h + 2
], ids=["point-0", "digit-2", "space", "prefix", "underscore", "too-long"])
def test_from_bits_rejects_bad_bits(bits, clause):
    with pytest.raises(ValueError, match=f"^{re.escape(clause)}$"):
        from_bits(bits, 5)
    with pytest.raises(ValueError, match=f"^{re.escape(clause)}$"):
        from_bits(bytearray(bits), 5)


def test_from_bits_checks_allocate_nothing_the_size_of_bits():
    bits = _numeral(NatSet(range(1, 10**6, 3), 10**6), 10**6)
    tracemalloc.start()
    try:
        a = from_bits(bits, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a) == len(range(1, 10**6, 3))
    assert peak < 10**6 // 8 + 2**16, peak  # the mask, and no copy of the digits


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_member_lanes_match_element_by_element(width):
    # greedy_cover's member mask: point_flags spread into lanes of `width`
    # bytes, lane i for point lo + i, then filled with ones
    a = random_natset(random.Random(103), 200, 0.4)
    ones = (1 << 8 * width) - 1

    def member_lanes(lo, hi):
        spread = bytearray(max(hi - lo + 1, 0) * width)
        spread[::width] = point_flags(a, lo, hi)
        return int.from_bytes(spread, "little") * ones

    for lo, hi in [(8, 64), (9, 64), (8, 63), (17, 16), (50, 50), (150, 260), (0, 200)]:
        want = sum(ones << 8 * width * (e - lo) for e in a if lo <= e <= hi)
        assert member_lanes(lo, hi) == want, (lo, hi)
    assert member_lanes(40, 39) == 0


def test_reflect_examples():
    assert reflect(10, NatSet([3, 5], 10), 10).to_list() == [5, 7]
    assert reflect(3, NatSet([5], 10), 10).to_list() == []  # negative dropped
    assert reflect(6, NatSet([1, 2, 3], 10), 10).to_list() == [3, 4, 5]


def test_count_in_examples():
    a = NatSet([1, 2, 4, 8, 16], 16)
    assert count_in(a, 1, 4, "[]") == 3
    assert count_in(a, 4, 16, "(]") == 2
    assert count_in(a, 9, 3, "[]") == 0


def test_count_in_clips_below_one():
    a = NatSet([1, 2, 3], 10)
    assert count_in(a, -5, 2, "[]") == 2


def test_density_profile_examples():
    evens = NatSet(range(2, 101, 2), 100)
    prof = density_profile(evens, [10, 100])
    assert [s.ratio for s in prof] == [0.5, 0.5]
    assert density_profile(NatSet([1], 10), [10])[0].ratio == 0.1
    squares = NatSet([i * i for i in range(1, 101)], 10**4)
    assert density_profile(squares, [10**4]) == ((10**4, 100, 0.01),)


def test_density_profile_rejects_bad_samples():
    s = NatSet([1], 10)
    with pytest.raises(ValueError):
        density_profile(s, [5, 5])
    with pytest.raises(ValueError):
        density_profile(s, [11])
    with pytest.raises(ValueError):
        density_profile(s, [])


def test_constructor_validation():
    with pytest.raises(ValueError):
        NatSet([0], 5)
    with pytest.raises(ValueError):
        NatSet([6], 5)
    with pytest.raises(ValueError):
        NatSet([1], 0)


def test_constructor_walks_its_input_once():
    # the elements stream straight into the bitmask; no list of them is built
    tracemalloc.start()
    try:
        a = NatSet((i for i in range(1, 10**6 + 1) if i % 7), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a) == 10**6 - 10**6 // 7
    assert peak < 4 * 2**20, peak


def test_equality_needs_matching_horizon():
    assert NatSet([1, 2], 5) == NatSet([1, 2], 5)
    assert NatSet([1, 2], 5) != NatSet([1, 2], 6)
    assert hash(NatSet([1, 2], 5)) == hash(NatSet([1, 2], 5))


def test_set_algebra_and_complement():
    a = NatSet([1, 2, 4], 6)
    b = NatSet([2, 3], 6)
    assert (a & b).to_list() == [2]
    assert NatSet([2], 6).issubset(a)
    with pytest.raises(ValueError):
        a & NatSet([1], 5)


def test_with_horizon_round_trip():
    a = NatSet([1, 5, 9], 9)
    assert a.with_horizon(6).to_list() == [1, 5]
    assert a.with_horizon(20).to_list() == [1, 5, 9]
    assert a.with_horizon(20).horizon == 20
    # raising the horizon builds no mask as wide as the new one
    assert a.with_horizon(10**15).to_list() == [1, 5, 9]


def test_min_max_and_contains():
    a = NatSet([3, 7], 10)
    assert a.min_element() == 3
    assert 7 in a and 4 not in a and 11 not in a
    assert NatSet([], 10).min_element() is None


def test_sumset_matches_reference_on_random_pairs():
    rng = random.Random(97)
    for _ in range(150):
        h = rng.randint(10, 2000)
        a = random_natset(rng, h, rng.uniform(0.0, 0.2))
        b = random_natset(rng, h, rng.uniform(0.0, 0.2))
        assert sumset(a, b, h) == sumset_reference(a, b, h)


def _count_pulls(monkeypatch) -> list[int]:
    """Record every element sumset draws from its smaller operand."""
    pulled: list[int] = []
    plain = natset_module._iter_mask

    def counting(mask):
        for x in plain(mask):
            pulled.append(x)
            yield x

    monkeypatch.setattr(natset_module, "_iter_mask", counting)
    return pulled


def test_sumset_early_exit_matches_reference_on_dense_pairs(monkeypatch):
    rng = random.Random(101)
    pulled = _count_pulls(monkeypatch)
    for _ in range(60):
        h = rng.randint(10, 2000)
        a = random_natset(rng, h, rng.uniform(0.5, 0.95))
        b = random_natset(rng, h, rng.uniform(0.5, 0.95))
        want = sumset_reference(a, b, h)
        pulled.clear()
        assert sumset(a, b, h) == want
        assert len(pulled) < min(len(a), len(b)), "the loop never stopped early"


def test_sumset_early_exit_keeps_low_holes(monkeypatch):
    # Full from 22 up after two shifts, with holes below: the stop is not an interval test.
    h = 200
    a = NatSet([3, 7, *range(20, h + 1)], h)
    b = NatSet([2, *range(40, h + 1)], h)
    pulled = _count_pulls(monkeypatch)
    got = sumset(a, b, h)
    assert pulled == [2, 40]
    assert got.to_list() == [5, 9, *range(22, h + 1)]
    assert got == sumset_reference(a, b, h)


@pytest.mark.parametrize("h", [10, 11, 97, 500, 1999, 2000])
def test_sumset_composites_against_non_composites(h):
    comp = generate(parse_spec("composites", h))
    outside = NatSet([x for x in range(1, h + 1) if x not in comp], h)
    assert sumset(comp, outside, h) == sumset_reference(comp, outside, h)


def test_sumset_commutes_and_matches_translate():
    rng = random.Random(98)
    for _ in range(100):
        h = rng.randint(10, 500)
        a = random_natset(rng, h, 0.3)
        b = random_natset(rng, h, 0.3)
        assert sumset(a, b, h) == sumset(b, a, h)
        u = rng.randint(1, h)
        assert sumset(NatSet([u], h), b, h) == NatSet([u + y for y in b if u + y <= h], h)


def test_reflection_duality():
    rng = random.Random(99)
    for _ in range(50):
        h = rng.randint(10, 300)
        b = random_natset(rng, h, 0.3)
        u = rng.randint(1, 2 * h)
        refl = reflect(u, b, h)
        for y in range(1, h + 1):
            assert (y in refl) == (1 <= u - y <= h and (u - y) in b)


def test_counting_additivity():
    rng = random.Random(100)
    for _ in range(100):
        h = rng.randint(10, 400)
        a = random_natset(rng, h, rng.uniform(0.1, 0.9))
        m = rng.randint(1, h)
        hi = rng.randint(m, h)
        assert count_in(a, 1, m, "[]") + count_in(a, m, hi, "(]") == count_in(a, 1, hi, "[]")


def test_set_file_round_trip(tmp_path):
    path = tmp_path / "s.set"
    original = NatSet([1, 4, 9, 1000], 2000)
    write_set_file(path, original, comment="round trip")
    loaded = read_set_file(path, horizon=2000)
    assert loaded == original


def test_set_file_comments_and_blanks(tmp_path):
    path = tmp_path / "s.set"
    path.write_text("# header\n\n3\n# mid\n5\n\n8\n")
    assert read_set_file(path).to_list() == [3, 5, 8]


def test_set_file_rejects_disorder(tmp_path):
    path = tmp_path / "bad.set"
    path.write_text("3\n2\n")
    with pytest.raises(ValueError):
        read_set_file(path)
    path.write_text("0\n")
    with pytest.raises(ValueError):
        read_set_file(path)
    path.write_text("x\n")
    with pytest.raises(ValueError):
        read_set_file(path)


def test_set_file_clips_to_horizon(tmp_path):
    path = tmp_path / "s.set"
    path.write_text("1\n5\n50\n")
    assert read_set_file(path, horizon=10).to_list() == [1, 5]


def test_set_file_keeps_nothing_above_horizon(tmp_path):
    # values above an explicit horizon are checked but never stored
    path = tmp_path / "big.set"
    path.write_text("".join(f"{i}\n" for i in range(1, 10**5 + 1)))
    tracemalloc.start()
    try:
        loaded = read_set_file(path, horizon=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == NatSet(range(1, 101), 100)
    assert peak < 2**19, peak


def test_set_file_checks_order_above_horizon(tmp_path):
    path = tmp_path / "bad.set"
    path.write_text("1\n200\n150\n")
    with pytest.raises(ValueError, match=r":3: elements must be strictly increasing \(150 after 200\)"):
        read_set_file(path, horizon=100)


@pytest.mark.parametrize("line, why", [
    ("x2", "not an integer: 'x2'"),
    ("+-5", "not an integer: '+-5'"),
    ("\u00b2", "not an integer: '\u00b2'"),  # a digit, but not a decimal one
    ("-" + "1" * 5000, "integer too long to read (5000 digits)"),
    (" +" + "7" * 4500 + " ", "integer too long to read (4500 digits)"),
], ids=["letter", "two-signs", "superscript", "negative-long", "padded-long"])
def test_set_file_names_why_a_line_is_not_read(tmp_path, line, why):
    path = tmp_path / "bad.set"
    path.write_text(f"1\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {re.escape(why)}$"):
        read_set_file(path)


@pytest.mark.parametrize("data, line", [
    (b"\xff\n", 1),
    (b"3\n# caf\xc3\xa9\n5\n# caf\xe9\n7\n", 4),  # UTF-8 on line 2, Latin-1 on line 4
], ids=["first-byte", "comment"])
def test_set_file_names_the_line_that_is_not_utf8(tmp_path, data, line):
    path = tmp_path / "bad.set"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: not UTF-8 text$"):
        read_set_file(path)

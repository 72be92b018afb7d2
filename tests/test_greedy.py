import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from addcomp import (
    BlockBuild,
    CoverFailed,
    GreedyInstance,
    NatSet,
    PreconditionViolated,
    analyze_ratio,
    block_cover,
    build_complement,
    count_in,
    from_interval,
    generate,
    greedy_cover,
    greedy_thin,
    non_elements,
    parse_spec,
    sumset,
    thin_block,
)
from addcomp.greedy import _two_term_bound_exact
from addcomp.oracle import _greedy_cover_reference
from conftest import random_greedy_instance


def _lists(pair):
    """greedy_cover's (chosen, gains) arrays as lists, to compare by value."""
    return tuple(list(x) for x in pair)


def test_selection_worked_example():
    # translate gains: 3 and 7 cover one target, 4/5/6 cover two; the smallest
    # of the tied maxima goes first, then one more pick finishes the window
    a = NatSet([1, 2], 8)
    b = NatSet([3, 4, 5, 6, 7], 8)
    chosen, gains = greedy_cover(a, b, 4, 4)
    assert list(chosen) == [4, 6]
    assert list(gains) == [2, 2]


def test_selection_matches_full_recompute():
    rng = random.Random(51)
    checked = 0
    for _ in range(200):
        inst = random_greedy_instance(rng, min_depth=1)
        checked += 1
        assert _lists(greedy_cover(inst.a, inst.b, inst.m, inst.n)) == _greedy_cover_reference(
            inst.a, inst.b, inst.m, inst.n
        )
    assert checked == 200


@pytest.mark.parametrize("spec", ["powers:2", "powers:3", "fib"])
def test_selection_matches_full_recompute_on_blocks(spec):
    # real block candidate sets have long runs of tied gains, unlike the random instances
    a = generate(parse_spec(spec, 1 << 11))
    checked = 0
    for i in range(analyze_ratio(a).gamma, 10):
        q = 1 << i
        b = block_cover(a, q, 2 * q, 4 * q).candidate_set
        want = _greedy_cover_reference(a, b, 2 * q, 2 * q)
        assert _exact_gain_greedy(a, b, 2 * q, 2 * q) == want
        assert _lists(greedy_cover(a, b, 2 * q, 2 * q)) == want
        checked += 1
    assert checked >= 2


def _exact_gain_greedy(a, b, m, n):
    """The same greedy order from exact gains, updated target by target.

    No lanes, no passes and no stale values: the pick is the smallest
    candidate at the top gain, found by bytearray.find.  It is checked
    against _greedy_cover_reference, whose cost grows as q^2, on the small
    blocks, and stands in for it on the larger ones.
    """
    end = m + n
    a_list = [x for x in a if x < end]
    candidates = set(b)
    gains = bytearray(end + 1)  # gains[c] for each candidate c <= end, all below 256 here
    for c in candidates:
        if c <= end:
            gains[c] = sum(m < c + x <= end for x in a_list)
    uncovered = set(range(m + 1, end + 1))
    chosen, picked = [], []
    g = max(gains)
    while uncovered:
        c = gains.find(g)
        if c < 0:
            g -= 1
            if not g:
                raise CoverFailed("candidates exhausted with targets still uncovered")
            continue
        for t in [c + x for x in a_list if c + x in uncovered]:
            uncovered.remove(t)
            for x in a_list:
                if t - x in candidates:
                    gains[t - x] -= 1
        chosen.append(c)
        picked.append(g)
    return chosen, picked


def test_exact_gain_greedy_matches_the_reference_on_random_instances():
    rng = random.Random(58)
    for _ in range(100):
        inst = random_greedy_instance(rng, min_depth=1)
        args = (inst.a, inst.b, inst.m, inst.n)
        want = _cover_outcome(_greedy_cover_reference, *args)
        assert _cover_outcome(_exact_gain_greedy, *args) == want


@pytest.mark.parametrize("spec", ["powers:2", "powers:3", "fib"])
def test_selection_matches_exact_gains_on_blocks_up_to_2_14(spec):
    # the walk starts by zeroing the lanes each pick makes stale and turns to
    # re-checks once the zeroing costs more; on nearly every one of these
    # blocks it turns part-way through the run
    a = generate(parse_spec(spec, 1 << 16))
    exponents = range(analyze_ratio(a).gamma, 15)
    for i in exponents:
        q = 1 << i
        b = block_cover(a, q, 2 * q, 4 * q).candidate_set
        assert _lists(greedy_cover(a, b, 2 * q, 2 * q)) == _exact_gain_greedy(a, b, 2 * q, 2 * q), q
    assert len(exponents) >= 7


def _wide_instance(rng, relevant, end, x2):
    """(A, B, m, n) with exactly `relevant` elements of A below m + n = end.

    B is every non-element of A in (1, x2], so it reaches above m + n when
    x2 > end; A is dense, so B's translates cover the window.
    """
    low = rng.sample(range(1, end), relevant)
    high = [x for x in range(end, x2 + 1) if rng.random() < 0.5]
    a = NatSet(sorted(low + high), x2)
    m = rng.randint(end // 4, end // 2)
    b = non_elements(a, 1, x2)
    window = from_interval(m, end, "(]", horizon=end)
    assert window.issubset(sumset(a, b, end))
    return a, b, m, end - m


def test_selection_matches_full_recompute_on_wide_lanes():
    # more than 255 relevant elements of A need two-byte lanes
    rng = random.Random(55)
    instances = [_wide_instance(rng, 255, 400, 520), _wide_instance(rng, 256, 400, 520)]
    for _ in range(4):
        end = rng.randint(900, 1300)
        instances.append(_wide_instance(rng, rng.randint(end // 2, 3 * end // 4), end, end + 100))
    for a, b, m, n in instances:
        assert _lists(greedy_cover(a, b, m, n)) == _greedy_cover_reference(a, b, m, n)
    assert [count_in(a, 1, m + n, "[)") for a, _, m, n in instances[:2]] == [255, 256]
    assert all(count_in(a, 1, m + n, "[)") > 256 for a, _, m, n in instances[2:])


@pytest.mark.parametrize("drop", [0, 30])
def test_selection_matches_full_recompute_on_wide_lane_ties(drop):
    # A is [1, 300] less `drop` random points: two-byte lanes and hundreds of
    # candidates tied at the top gain, so one walk picks several times and each
    # pick zeroes the two-byte lanes of many candidates ahead of it
    rng = random.Random(60 + drop)
    a = NatSet(sorted(set(range(1, 301)) - set(rng.sample(range(1, 301), drop))), 2000)
    b = from_interval(300, 1600, horizon=2000)
    got = _lists(greedy_cover(a, b, 400, 1200))
    assert got == _greedy_cover_reference(a, b, 400, 1200)
    assert got[1][:4] == [len(a)] * 4


def _cover_outcome(cover, a, b, m, n):
    try:
        return _lists(cover(a, b, m, n))
    except CoverFailed:
        return "CoverFailed"


@pytest.mark.parametrize("relevant", [0, 1, 2])
def test_selection_matches_full_recompute_with_few_relevant_elements(relevant):
    # one relevant element gets a reader other than itemgetter, none gets no reader at all
    rng = random.Random(56 + relevant)
    outcomes = set()
    for _ in range(60):
        m, n = rng.randint(1, 20), rng.randint(1, 20)
        end = m + n
        x2 = end + rng.randint(0, 8)
        low = rng.sample(range(1, end), min(relevant, end - 1))
        high = [x for x in range(end, x2 + 1) if rng.random() < 0.3]
        a = NatSet(low + high, x2)
        b = NatSet([x for x in range(1, x2 + 1) if rng.random() < 0.8], x2)
        got = _cover_outcome(greedy_cover, a, b, m, n)
        assert got == _cover_outcome(_greedy_cover_reference, a, b, m, n)
        outcomes.add(got == "CoverFailed")
    assert outcomes == ({True} if relevant == 0 else {True, False})
    # no targets and an empty A
    empty = NatSet([], 10)
    assert _lists(greedy_cover(empty, NatSet([3, 4], 10), 5, 0)) == ([], [])
    assert _greedy_cover_reference(empty, NatSet([3, 4], 10), 5, 0) == ([], [])


def test_translates_read_into_the_zero_padding():
    # window (8, 10], relevant A = {1, 9}: candidate 9 reads target 9 + 9 = 18,
    # max(a_list) - 1 past m + n, and the replay reads 10 + 9, the last padding byte
    a = NatSet([1, 9], 20)
    b = NatSet([6, 7, 8, 9, 10], 20)
    assert _lists(greedy_cover(a, b, 8, 2)) == _greedy_cover_reference(a, b, 8, 2) == ([8, 9], [1, 1])
    _, trace = greedy_thin(GreedyInstance(a=a, b=b, m=8, n=2, x1=5, x2=10))
    assert trace.degenerate
    assert list(trace.gains) == [0, 0, 1, 1, 0]


def _replayed_gains(a, chosen, m, n):
    """Marginal gains of `chosen` in order, by plain set arithmetic."""
    uncovered = set(range(m + 1, m + n + 1))
    gains = []
    for b_el in chosen:
        hit = {x + b_el for x in a} & uncovered
        uncovered -= hit
        gains.append(len(hit))
    return gains


def test_degenerate_replay_matches_brute_force_gains():
    rng = random.Random(57)
    checked = above_window = 0
    while checked < 80:
        inst = random_greedy_instance(rng, min_depth=1)
        if inst.depth() >= 3:
            continue
        _, trace = greedy_thin(inst)
        assert trace.degenerate
        assert list(trace.chosen) == inst.b.to_list()
        assert list(trace.gains) == _replayed_gains(inst.a, trace.chosen, inst.m, inst.n)
        above_window += any(b_el > inst.m + inst.n for b_el in trace.chosen)
        checked += 1
    assert above_window > 10  # candidates above m + n are replayed with gain 0


def test_selection_memory_on_a_block():
    q = 1 << 12
    a = generate(parse_spec("powers:2", 4 * q))
    b = block_cover(a, q, 2 * q, 4 * q).candidate_set
    tracemalloc.start()
    try:
        chosen, _ = greedy_cover(a, b, 2 * q, 2 * q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chosen) == 1127
    assert peak < 2**20, peak


@pytest.mark.parametrize("q", [1 << 14, 1 << 16])
def test_selection_memory_is_a_few_lanes(q):
    # the flags, the member mask and at most three lane-sized ints of 3q
    # one-byte lanes each: the peak above the start stays below 9 such lanes
    a = generate(parse_spec("powers:2", 4 * q))
    b = block_cover(a, q, 2 * q, 4 * q).candidate_set
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        greedy_cover(a, b, 2 * q, 2 * q)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 9 * 3 * q, peak / (3 * q)


def _typed(field):
    """An array's typecode and values, since arrays of different types compare equal."""
    return field.typecode, list(field)


def test_selections_are_the_narrowest_arrays():
    # each array takes the fewest of 1, 2, 4 or 8 unsigned bytes that hold its
    # largest possible entry: m + n for chosen (x2 when degenerate), and
    # |A n [1, m + n)| for gains, the lane width
    rng = random.Random(61)
    for relevant, code in ((255, "B"), (256, "H")):
        a, b, m, n = _wide_instance(rng, relevant, 400, 520)
        chosen, gains = greedy_cover(a, b, m, n)
        assert (chosen.typecode, gains.typecode) == ("H", code)
        assert _lists((chosen, gains)) == _greedy_cover_reference(a, b, m, n)
        # depth |A n [1, 3)| = 2 with B all of (x1, x2]: the degenerate replay
        a = NatSet(range(1, relevant + 1), 520)
        inst = GreedyInstance(a=a, b=from_interval(516, 520, horizon=520),
                              m=519, n=1, x1=516, x2=520)
        _, trace = greedy_thin(inst)
        assert trace.degenerate
        assert (trace.chosen.typecode, trace.gains.typecode) == ("H", code)
        assert list(trace.gains) == _replayed_gains(a, trace.chosen, 519, 1)
    for largest, code in ((255, "B"), (256, "H"), (65535, "H"), (65536, "I")):
        a = NatSet([1, 2], largest)
        b = from_interval(largest - 8, largest, horizon=largest)
        chosen, gains = greedy_cover(a, b, largest - 4, 4)
        assert (chosen.typecode, gains.typecode) == (code, "B")
        assert _lists((chosen, gains)) == _greedy_cover_reference(a, b, largest - 4, 4)
        inst = GreedyInstance(a=a, b=from_interval(largest - 4, largest, horizon=largest),
                              m=largest - 1, n=1, x1=largest - 4, x2=largest)
        _, trace = greedy_thin(inst)
        assert trace.degenerate
        assert _typed(trace.chosen) == (code, inst.b.to_list())
        assert _typed(trace.gains) == ("B", _replayed_gains(a, trace.chosen, largest - 1, 1))
    # a block crosses the helper's pipe pickled, typecodes and all
    a = generate(parse_spec("powers:2", 1 << 10))
    for q, chosen_code in ((8, "B"), (64, "H")):  # degenerate, then thinned
        blk = BlockBuild(exponent=q.bit_length() - 1, trace=thin_block(a, q)[1],
                         translate_bound_ok=True)
        assert blk.trace.degenerate == (q == 8)
        back = pickle.loads(pickle.dumps(blk, pickle.HIGHEST_PROTOCOL))
        assert back == blk
        for field, sent, code in zip(back.trace[:2], blk.trace[:2], (chosen_code, "B")):
            assert _typed(field) == _typed(sent) and field.typecode == code


def test_build_traces_are_monotone_and_exact():
    build = build_complement(parse_spec("powers:2", 1 << 16))
    thinned = [blk for blk in build.blocks if not blk.trace.degenerate]
    assert len(thinned) == 9
    for blk in thinned:
        gains = blk.trace.gains
        assert all(gains[i] >= gains[i + 1] for i in range(len(gains) - 1)), blk.exponent
        assert sum(gains) == 2 << blk.exponent


def test_singleton_candidate_is_forced():
    # a single candidate whose translate spans the window is taken whole
    a = NatSet([1, 2, 3, 4], 10)
    chosen, gains = greedy_cover(a, NatSet([5], 10), 5, 4)
    assert list(chosen) == [5]
    assert list(gains) == [4]


def test_uncoverable_window_is_detected():
    a = NatSet([1, 2, 3], 20)
    # too few candidates, none at all, and only candidates above m + n = 12
    for b in (NatSet([6], 20), NatSet([], 20), NatSet([13, 15, 20], 20)):
        with pytest.raises(CoverFailed, match="candidates exhausted with targets still uncovered"):
            greedy_cover(a, b, 8, 4)
    # with no targets there is nothing to exhaust
    assert _lists(greedy_cover(a, NatSet([], 20), 8, 0)) == ([], [])


def test_precondition_clauses_are_named():
    a = NatSet([1, 2, 3, 4], 20)
    b = NatSet([6, 7, 8, 9, 10], 20)
    with pytest.raises(PreconditionViolated) as err:
        greedy_thin(GreedyInstance(a=a, b=NatSet([3], 20), m=8, n=2, x1=5, x2=12))
    assert "subset" in str(err.value)
    with pytest.raises(PreconditionViolated) as err:
        greedy_thin(GreedyInstance(a=a, b=b, m=8, n=6, x1=5, x2=12))
    assert "m + n" in str(err.value)
    with pytest.raises(PreconditionViolated) as err:
        greedy_thin(GreedyInstance(a=NatSet([9, 10], 20), b=b, m=8, n=2, x1=5, x2=12))
    assert "depth" in str(err.value)
    for outside in ([5], [13]):  # x1 and x2 + 1 lie just outside (x1, x2] = (5, 12]
        with pytest.raises(PreconditionViolated, match="subset"):
            GreedyInstance(a=a, b=NatSet(outside, 20), m=8, n=2, x1=5, x2=12).validate()
    # an empty B and B = (x1, x2] pass the subset clause
    with pytest.raises(PreconditionViolated, match="depth"):
        GreedyInstance(a=a, b=NatSet([], 20), m=8, n=2, x1=5, x2=12).validate()
    full = from_interval(5, 12, horizon=20)
    assert GreedyInstance(a=a, b=full, m=8, n=2, x1=5, x2=12).validate() == 2
    # There is no initial-cover clause: a positive depth already forces
    # coverage (the translate-count lower bound is positive at every target),
    # see test_positive_depth_forces_initial_cover.


@pytest.mark.parametrize("n, x1, x2, clause", [
    (0, 5, 12, "n >= 1: got n=0"),
    (2, 5, 5, "1 <= x1 < x2: got x1=5, x2=5"),
], ids=["n", "x1-x2"])
def test_instance_shape_clauses_are_named(n, x1, x2, clause):
    inst = GreedyInstance(a=NatSet([1, 2, 3, 4], 20), b=NatSet([], 20), m=8, n=n, x1=x1, x2=x2)
    with pytest.raises(PreconditionViolated, match=f"^{re.escape(clause)}$"):
        inst.validate()


def test_positive_depth_forces_initial_cover():
    # the theorem that lets validate skip a sumset: depth >= 1 puts every
    # target in at least depth translates, so the window is already covered
    rng = random.Random(54)
    for _ in range(200):
        inst = random_greedy_instance(rng, min_depth=1)
        assert inst.validate() >= 1
        end = inst.m + inst.n
        window = from_interval(inst.m, end, "(]", horizon=end)
        assert window.issubset(sumset(inst.a, inst.b, end))


def _known_depth_instance(depth):
    # A = {1..d} and B = (1, d+3] put the one target d+3 in d translates
    return GreedyInstance(a=NatSet(range(1, depth + 1), depth + 3),
                          b=from_interval(1, depth + 3, "(]", horizon=depth + 3),
                          m=depth + 2, n=1, x1=1, x2=depth + 3)


@pytest.mark.parametrize("depth, cutoff", [(1, 1), (2, 1), (3, 2), (100, 21), (2000, 263)])
def test_gain_cutoff_at_known_depth(depth, cutoff):
    _, trace = greedy_thin(_known_depth_instance(depth))
    assert trace.depth == depth
    assert trace.gain_cutoff == cutoff
    assert trace.degenerate == (depth < 3)  # depth 2 by policy, not floor(2 / ln 2) = 2


def test_two_term_bound_arithmetic():
    assert _two_term_bound_exact(10, 5, 8, 2) == 7  # (10/5)(1 + 1/2) + 8/2
    assert _two_term_bound_exact(7, 3, 9, 1) == Fraction(7, 3) + 9  # H(1) = 1
    harmonic_50 = sum(Fraction(1, i) for i in range(1, 51))
    assert _two_term_bound_exact(1000, 1000, 50, 50) == harmonic_50 + 1


def test_closed_form_dominates_two_term():
    rng = random.Random(52)
    for _ in range(50):
        _, trace = greedy_thin(random_greedy_instance(rng, min_depth=3))
        assert trace.bound_closed_form >= trace.bound_two_term - 1e-9


def test_thin_block_degenerate_returns_everything():
    a = generate(parse_spec("powers:2", 1 << 10))
    selected, trace = thin_block(a, 8)
    assert trace.degenerate
    assert trace.depth == 1
    assert selected == non_elements(a, 8, 32)
    assert len(selected) == 22
    # replayed bookkeeping still accounts for every covered target
    assert sum(trace.gains) == 16


def test_thin_block_proceeds_at_depth_four():
    a = generate(parse_spec("powers:2", 1 << 10))
    selected, trace = thin_block(a, 64)
    assert not trace.degenerate
    assert trace.depth == 4  # |A n [1,64)| = 6 powers minus |A n (64,256]| = 2
    assert trace.gain_cutoff == 2
    assert len(selected) < len(from_interval(64, 256, "(]", horizon=1024))
    covered = sumset(a, selected, 256)
    assert from_interval(128, 256, "(]", horizon=256).issubset(covered)


def test_thin_block_rejects_thin_head():
    a = NatSet([9, 10, 11, 40], 64)
    with pytest.raises(PreconditionViolated):
        thin_block(a, 8)
    with pytest.raises(PreconditionViolated):
        thin_block(NatSet([1], 16), 8)  # horizon below 4q


def test_trace_identities_on_random_instances():
    rng = random.Random(53)
    for _ in range(120):
        inst = random_greedy_instance(rng, min_depth=3)
        selected, trace = greedy_thin(inst)
        assert not trace.degenerate
        # cover validity by exact sumset
        window = from_interval(inst.m, inst.m + inst.n, "(]", horizon=inst.m + inst.n)
        assert window.issubset(sumset(inst.a, selected, inst.m + inst.n))
        # gains never increase and start at the best single translate
        assert all(trace.gains[i] >= trace.gains[i + 1] for i in range(len(trace.gains) - 1))
        best_single = max(
            count_in(inst.a, inst.m - bb, inst.m + inst.n - bb, "(]") for bb in inst.b
        )
        assert trace.gains[0] == best_single
        # every target is counted exactly once, at the step that covered it
        assert sum(g * k for g, k in trace.gain_counts.items()) == inst.n
        assert sum(trace.gain_counts.values()) == len(trace.chosen) == len(selected)
        # the trace reports the cutoff floor(d / ln d) and both bounds at that cutoff
        assert trace.gain_cutoff == math.floor(trace.depth / math.log(trace.depth))
        bound = _two_term_bound_exact(len(inst.b), trace.depth, inst.n, trace.gain_cutoff)
        assert trace.bound_two_term == float(bound)
        assert trace.bound_closed_form >= trace.bound_two_term - 1e-9
        # the selection respects the two-term bound, compared exactly
        assert len(selected) <= bound


def test_degenerate_instance_keeps_candidates():
    a = NatSet([1, 4, 9, 10, 11, 12], 16)
    b = from_interval(4, 16, "(]", horizon=16)
    inst = GreedyInstance(a=a, b=b, m=6, n=10, x1=4, x2=16)
    assert inst.depth() == 1
    selected, trace = greedy_thin(inst)
    assert selected == b
    assert trace.degenerate
    assert trace.bound_two_term is None
    assert sum(trace.gains) == 10
    assert list(trace.chosen) == b.to_list()


def test_depth_matches_hand_count():
    a = NatSet([1, 2, 5, 7, 11, 13], 40)
    b = NatSet(range(11, 41), 40)
    inst = GreedyInstance(a=a, b=b, m=16, n=20, x1=10, x2=40)
    # |A n [1, 6)| = 3 elements {1, 2, 5}; slack = 30 - 30 = 0
    assert inst.depth() == 3


def test_cutoff_floor_against_log():
    for depth in range(3, 2000, 37):
        _, trace = greedy_thin(_known_depth_instance(depth))
        assert trace.depth == depth
        assert trace.gain_cutoff == math.floor(depth / math.log(depth))

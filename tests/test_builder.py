import random
import time
from fractions import Fraction

import pytest

from addcomp import (
    AddcompError,
    BlockPreconditionFailed,
    NatSet,
    PreconditionViolated,
    RatioNotSatisfied,
    SequenceSpec,
    build_complement,
    density_zero_diagnostic,
    from_interval,
    generate,
    non_elements,
    parse_spec,
    sumset,
    sumset_reference,
    verify_cover,
)
import addcomp.builder as builder_module
from addcomp.builder import _build_blocks
from addcomp.greedy import thin_block
from addcomp.natset import MAX_SAMPLES, geometric_points
from addcomp.oracle import ratio_tail_holds
from addcomp.sequences import _generate_geometric, analyze_ratio


def test_build_powers_small_horizon():
    build = build_complement(parse_spec("powers:2", 1 << 12))
    assert build.analysis.gamma == 6
    assert build.analysis.threshold == 128
    assert [b.exponent for b in build.blocks] == [6, 7, 8, 9, 10]
    assert build.missing.horizon == 1 << 11
    assert not build.missing
    a = generate(parse_spec("powers:2", 1 << 12))
    assert build.complement.isdisjoint(a)
    assert build.certified


def test_build_blocks_stay_in_their_interval():
    build = build_complement(parse_spec("powers:2", 1 << 14))
    for blk in build.blocks:
        q = 1 << blk.exponent
        assert all(q < x <= 4 * q for x in blk.trace.chosen)
        assert blk.translate_bound_ok
        if not blk.trace.degenerate:
            assert len(blk.trace.chosen) <= blk.trace.bound_two_term


def test_build_each_block_covers_its_dyadic_range():
    horizon = 1 << 14
    build = build_complement(parse_spec("powers:2", horizon))
    a = generate(parse_spec("powers:2", horizon))
    for blk in build.blocks:
        hi = 4 << blk.exponent
        window = from_interval(hi // 2, hi, "(]", horizon=hi)
        assert window.issubset(sumset(a, NatSet(blk.trace.chosen, hi), hi))


def test_build_explicit_with_hint():
    elems = tuple(10**i for i in range(7))
    spec = SequenceSpec("explicit", 10**6, "explicit", elements=NatSet(elems, 10**6))
    build = build_complement(spec, alpha_hint="10")
    assert build.analysis.gamma == 8
    assert build.analysis.threshold == 512
    assert not build.missing
    assert build.missing.horizon == 1 << 19
    assert not build.certified
    # the sparse early blocks collapse to the degenerate whole-interval form
    assert any(b.trace.degenerate for b in build.blocks)


def test_geometric_build_is_not_certified():
    # the prefix witnesses alpha = 3/2 from n0 = 26, yet the floors
    # floor((3/2)^i) break that tail bound beyond the horizon
    build = build_complement(parse_spec("geometric:c=1,alpha=3/2", 1 << 16), alpha_hint="5/4")
    assert not build.certified
    far = _generate_geometric(Fraction(1), Fraction(3, 2), 2**60)
    assert not ratio_tail_holds(far, 26, Fraction(3, 2))


def test_build_composites_propagates_ratio_failure():
    with pytest.raises(RatioNotSatisfied):
        build_complement(parse_spec("composites", 10**5))


def test_build_rejects_too_small_horizon():
    # powers:2 needs gamma 6, so the first block ends at 256
    with pytest.raises(PreconditionViolated):
        build_complement(parse_spec("powers:2", 200))


def test_block_precondition_failure_is_reported():
    # a forged analysis with gamma below the legitimate value trips the
    # runtime counting check on the first block
    a = generate(parse_spec("powers:2", 1 << 12))
    analysis = analyze_ratio(a)
    forged = type(analysis)(
        n0=analysis.n0,
        r=analysis.r,
        p=analysis.p,
        gamma=1,
        threshold=4,
        alpha_exact=analysis.alpha_exact,
    )
    with pytest.raises(BlockPreconditionFailed) as err:
        _build_blocks(a, forged, 1 << 12)
    assert err.value.exponent == 1


def test_block_precondition_failure_keeps_its_cause():
    # the block failure wraps thin_block's own clause instead of recounting it
    a = generate(parse_spec("powers:2", 1 << 12))
    forged = analyze_ratio(a)._replace(gamma=1, threshold=4)
    with pytest.raises(BlockPreconditionFailed) as err:
        _build_blocks(a, forged, 1 << 12)
    cause = err.value.__cause__
    assert isinstance(cause, PreconditionViolated)
    assert cause.clause in str(err.value)


@pytest.mark.parametrize("spec, horizon, hint", [
    ("powers:2", 1 << 12, None),
    ("powers:3", 1 << 13, None),
    ("fib", 1 << 12, None),
    ("geometric:c=1,alpha=3/2", 1 << 13, "5/4"),
    ("powers:2", 1 << 8, None),  # one block, thinned by the helper alone
], ids=["powers2", "powers3", "fib", "geometric", "one-block"])
def test_forked_top_block_equals_in_process_thinning(spec, horizon, hint):
    a = generate(parse_spec(spec, horizon))
    analysis = analyze_ratio(a, hint)
    blocks = _build_blocks(a, analysis, horizon)
    exponents = range(analysis.gamma, horizon.bit_length() - 2)
    assert [(blk.exponent, blk.trace) for blk in blocks] == \
        [(i, thin_block(a, 1 << i)[1]) for i in exponents]
    assert all(blk.translate_bound_ok for blk in blocks)


def _fail_blocks(monkeypatch, failures):
    """Patch builder.thin_block to call failures[q]() for each block q listed; forks inherit it."""
    real = builder_module.thin_block
    monkeypatch.setattr(builder_module, "thin_block",
                        lambda a, q: failures[q]() if q in failures else real(a, q))


def _raise_clause():
    raise PreconditionViolated("forged clause", "raised by the patched block")


def test_top_block_failure_is_raised_at_its_exponent(monkeypatch):
    # the helper's PreconditionViolated crosses the pipe and is wrapped like a lower block's
    a = generate(parse_spec("powers:2", 1 << 12))
    _fail_blocks(monkeypatch, {1 << 10: _raise_clause})
    with pytest.raises(BlockPreconditionFailed) as err:
        _build_blocks(a, analyze_ratio(a), 1 << 12)
    assert err.value.exponent == 10
    assert str(err.value).startswith("block exponent 10: forged clause: raised by the patched block")
    assert err.value.__cause__.clause == "forged clause"


def test_lower_block_failure_is_raised_before_the_top_one(monkeypatch):
    # the top block fails first, in the helper, yet the last lower block's failure wins
    a = generate(parse_spec("powers:2", 1 << 12))
    _fail_blocks(monkeypatch, {1 << 9: _raise_clause, 1 << 10: _raise_clause})
    with pytest.raises(BlockPreconditionFailed) as err:
        _build_blocks(a, analyze_ratio(a), 1 << 12)
    assert err.value.exponent == 9


def test_lower_block_failure_reaps_the_running_helper(monkeypatch):
    # the helper would sleep for a minute on the top block; the first block's failure kills it
    a = generate(parse_spec("powers:2", 1 << 12))
    _fail_blocks(monkeypatch, {1 << 6: _raise_clause, 1 << 10: lambda: time.sleep(60)})
    start = time.monotonic()
    with pytest.raises(BlockPreconditionFailed) as err:
        _build_blocks(a, analyze_ratio(a), 1 << 12)
    assert err.value.exponent == 6
    assert time.monotonic() - start < 30


def test_helper_that_cannot_send_its_outcome_names_its_exit_status(monkeypatch):
    # an exception holding a lambda cannot be pickled, so the helper exits 1 with nothing sent
    a = generate(parse_spec("powers:2", 1 << 8))

    def unpicklable(a, q):
        raise ValueError(lambda: q)

    monkeypatch.setattr(builder_module, "thin_block", unpicklable)
    with pytest.raises(AddcompError, match=r"^block exponent 6: the thinning helper exited "
                                           r"with status 1 before sending the block$"):
        _build_blocks(a, analyze_ratio(a), 1 << 8)


def test_density_samples_start_at_threshold():
    build = build_complement(parse_spec("powers:2", 1 << 13))
    ns = [s.n for s in build.density]
    assert ns[0] == build.analysis.threshold
    assert ns == [1 << j for j in range(7, 14)]


def test_verify_cover_parity_counterexample():
    evens = NatSet(range(2, 101, 2), 100)
    odds = NatSet(range(1, 101, 2), 100)
    assert verify_cover(evens, odds, 2, 100) == NatSet(range(4, 101, 2), 100)


def test_verify_cover_empty_complement():
    a = NatSet([1, 2, 3], 50)
    assert verify_cover(a, NatSet([], 50), 10, 50) == NatSet(range(11, 51), 50)


def test_verify_cover_primes_complement_composites():
    h = 10**4
    comp = generate(parse_spec("composites", h))
    primes = generate(parse_spec("primes", h))
    with_one = NatSet([1] + primes.to_list(), h)
    assert verify_cover(comp, with_one, 10, h) == NatSet([], h)


@pytest.mark.parametrize("seed", range(20))
def test_verify_cover_matches_reference(seed):
    # the same NatSet as the double-loop sumset gives, horizon included
    rng = random.Random(seed)
    ha, hb = rng.randint(1, 120), rng.randint(1, 120)
    a = NatSet(rng.sample(range(1, ha + 1), rng.randint(0, ha)), ha)
    b = NatSet(rng.sample(range(1, hb + 1), rng.randint(0, hb)), hb)
    hi = rng.randint(0, min(ha, hb))
    lo = rng.randint(-3, hi)
    want = non_elements(sumset_reference(a, b, max(hi, 1)), lo, hi)
    assert verify_cover(a, b, lo, hi) == want
    assert want.horizon == max(hi, 1)


def test_verify_cover_needs_full_knowledge():
    with pytest.raises(ValueError):
        verify_cover(NatSet([1], 10), NatSet([2], 30), 5, 20)


def test_diagnostic_linear_sequence():
    out = density_zero_diagnostic(range(1, 10**4 + 1), 8)
    final_t, final_avg = out[-1]
    assert final_t == 10**4
    # sum of ln(i)/i grows like (ln n)^2 / 2, so the average is tiny
    assert final_avg < 0.005
    assert all(avg >= 0 for _, avg in out)


def test_diagnostic_powers_decay():
    xs = [2**i for i in range(1, 101)]
    out = dict(density_zero_diagnostic(xs, 3))  # samples at t = 1, 10, 100
    assert out[100] < out[10]


def test_diagnostic_rejects_disorder():
    with pytest.raises(ValueError):
        density_zero_diagnostic([1, 3, 3], 4)
    with pytest.raises(ValueError):
        density_zero_diagnostic([], 4)


def test_geometric_points_shape():
    pts = geometric_points(10**6, 10)
    assert pts[0] >= 1
    assert pts[-1] == 10**6
    assert pts == sorted(set(pts))


def test_geometric_points_caps_the_count():
    # at the cap every point of [1, 1024] is hit; one more is refused before the loop
    assert geometric_points(1024, MAX_SAMPLES) == list(range(1, 1025))
    with pytest.raises(ValueError, match=f"^sample count must be at most {MAX_SAMPLES}, got "):
        geometric_points(1024, MAX_SAMPLES + 1)


def test_density_decay_across_blocks():
    build = build_complement(parse_spec("powers:2", 1 << 15))
    assert len(build.blocks) >= 8
    samples = build.density
    assert samples[-1].ratio <= samples[3].ratio

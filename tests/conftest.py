"""Shared randomized-instance generators (all seeded by the caller), and a check
that no test leaves a child process behind."""

from __future__ import annotations

import os
import random

import pytest

from addcomp import GreedyInstance, NatSet, from_interval, sumset


@pytest.fixture(autouse=True)
def no_child_left():
    """After every test, this process has no child left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_natset(rng: random.Random, horizon: int, density: float) -> NatSet:
    return NatSet([i for i in range(1, horizon + 1) if rng.random() < density], horizon)


def random_block_cover_instance(rng: random.Random, max_end: int = 5000):
    """(A, m, n, end) with every block_cover precondition satisfied.

    Built constructively: the low part of A is sampled nonempty, the high
    part strictly smaller, so the counting precondition holds by design.
    """
    if rng.random() < 0.02:
        m = rng.randint(80, 400)
    else:
        m = rng.randint(1, 60)
    n = 2 * m + rng.randint(0, 3 * m)
    end = min(n + rng.randint(1, n), max_end)
    if end <= n:
        end = n + 1
    low_size = rng.randint(1, m)
    low = rng.sample(range(1, m + 1), low_size)
    high_size = rng.randint(0, min(low_size - 1, end - m))
    high = rng.sample(range(m + 1, end + 1), high_size)
    a = NatSet(sorted(low + high), end)
    return a, m, n, end


def random_greedy_instance(rng: random.Random, min_depth: int = 3) -> GreedyInstance:
    """A valid thinning instance with depth >= min_depth.

    B is the window (x1, x2] minus at most depth - min_depth random points;
    a depth that large already forces the initial cover, so no retry loop
    is needed for coverage.
    """
    while True:
        x1 = rng.randint(1, 40)
        span = rng.randint(20, 260)
        x2 = x1 + span
        m = x1 + rng.randint(2, min(60, span - 1))
        if m >= x2:
            continue
        n = rng.randint(1, x2 - m)
        a = random_natset(rng, x2, rng.uniform(0.25, 0.9))
        low_count = len([x for x in a if x < m - x1])
        if low_count < min_depth:
            continue
        removable = list(range(x1 + 1, x2 + 1))
        k = rng.randint(0, min(low_count - min_depth, len(removable) - 1))
        removed = set(rng.sample(removable, k))
        b = NatSet([x for x in removable if x not in removed], x2)
        return GreedyInstance(a=a, b=b, m=m, n=n, x1=x1, x2=x2)


def random_tiny_cover_instance(rng: random.Random, max_candidates: int = 18):
    """(A, B, m, n) small enough for the exhaustive oracle, cover verified."""
    while True:
        x1 = rng.randint(1, 6)
        span = rng.randint(6, max_candidates)
        x2 = x1 + span
        m = rng.randint(x1 + 1, x2 - 1)
        n = rng.randint(1, x2 - m)
        a = random_natset(rng, x2, rng.uniform(0.2, 0.7))
        b_elems = [x for x in range(x1 + 1, x2 + 1) if rng.random() < rng.uniform(0.4, 0.95)]
        if not b_elems:
            continue
        b = NatSet(b_elems, x2)
        target = from_interval(m, m + n, "(]", horizon=m + n)
        if not target.issubset(sumset(a, b, m + n)):
            continue
        return a, b, m, n

import math
import random
from collections import Counter
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from symdual import avoidance, boolean_poset as bp
from symdual.avoidance import (
    find_avoiding_permutation,
    hall_violation,
    violating_order_ideal,
)
from symdual.errors import CapError, InputError
from symdual.oracle import brute_force_avoidance


def m(*indices, c=3):
    return bp.mask_of(indices, c)


def random_instance(rng, max_n=6, max_c=3):
    c = rng.randint(1, max_c)
    n = rng.randint(1, max_n)
    f = [rng.randrange(1 << c) for _ in range(n)]
    g = [rng.randrange(1 << c) for _ in range(n)]
    return c, f, g


class TestFeasibility:
    def test_disjoint_supports(self):
        assert violating_order_ideal([m(1, c=2)], [m(2, c=2)], 2) is None

    def test_forced_collision(self):
        assert violating_order_ideal([1], [1], 1) is not None

    def test_dual_member_is_infeasible(self):
        # triangle generator vs a two-block column pattern at width 4
        f = [m(1, 2), m(1, 3), m(2, 3), 0]
        g = [m(2), m(2), m(3), m(3)]
        assert violating_order_ideal(f, g, 3) is not None

    def test_total_mismatch(self):
        with pytest.raises(InputError):
            violating_order_ideal([1], [1, 2], 2)

    def test_certificate_soundness(self):
        rng = random.Random(3)
        found = 0
        for _ in range(500):
            c, f, g = random_instance(rng)
            ideal = violating_order_ideal(f, g, c)
            if ideal is None:
                continue
            found += 1
            lhs = sum(ideal >> v & 1 for v in f)
            rhs = sum(ideal >> (bp.full_mask(c) ^ v) & 1 for v in g)
            assert lhs > rhs
        assert found > 20


class TestConstructivePermutation:
    def test_empty_fibers_use_identity(self):
        assert find_avoiding_permutation([0, 0], [m(1, c=2), m(2, c=2)], 2) is not None

    def test_forced_transposition(self):
        sigma = find_avoiding_permutation(
            [m(1, c=2), m(2, c=2)], [m(1, c=2), m(2, c=2)], 2
        )
        assert sigma == [1, 0]

    def test_agrees_with_brute_force(self):
        rng = random.Random(41)
        for _ in range(1500):
            c, f, g = random_instance(rng)
            fast = find_avoiding_permutation(f, g, c)
            brute = brute_force_avoidance(f, g)
            assert (fast is None) == (brute is None)
            if fast is not None:
                assert sorted(fast) == list(range(len(f)))
                assert all(f[i] & g[fast[i]] == 0 for i in range(len(f)))

    def test_swapped_roles_agree(self):
        # the two equivalent inequality systems: swapping the maps' roles
        # preserves feasibility
        rng = random.Random(59)
        for _ in range(800):
            c, f, g = random_instance(rng)
            assert (violating_order_ideal(f, g, c) is None) == (
                violating_order_ideal(g, f, c) is None
            )


class TestBruteForce:
    def test_instance_cap(self):
        with pytest.raises(CapError):
            brute_force_avoidance([0] * 9, [0] * 9)

    def test_small_witness(self):
        assert brute_force_avoidance([m(1)], [m(1, 3)]) is None
        assert brute_force_avoidance([m(1)], [m(2)]) == [0]


@st.composite
def count_maps(draw):
    c = draw(st.integers(1, 4))
    counts = st.dictionaries(st.integers(0, (1 << c) - 1), st.integers(0, 4), max_size=8)
    return c, draw(counts), draw(counts)


def full_scan_violation(c, k, r):
    """Reference: every proper nonempty ideal, in order, no support restriction."""
    for ideal in bp.proper_nonempty_ideals(c):
        held = [t for t in range(1 << c) if ideal >> t & 1]
        if sum(k.get(t, 0) for t in held) > sum(r.get(t, 0) for t in held):
            return ideal
    return None


class TestHallKernel:
    @settings(max_examples=400, deadline=None)
    @given(count_maps())
    def test_restricted_scan_finds_the_first_violator(self, case):
        c, k, r = case
        assert hall_violation(c, k.items(), r.items()) == full_scan_violation(c, k, r)


@st.composite
def large_instances(draw):
    """Instances at c <= 4 and N <= 60; half are built feasible from a hidden
    disjoint matching, half draw g freely."""
    c = draw(st.integers(1, 4))
    full = bp.full_mask(c)
    size = draw(st.integers(1, 60))
    f = draw(st.lists(st.integers(0, full), min_size=size, max_size=size))
    planted = draw(st.booleans())
    if planted:
        g = [draw(st.integers(0, full)) & ~t for t in f]
        g = draw(st.permutations(g))
    else:
        g = draw(st.lists(st.integers(0, full), min_size=size, max_size=size))
    return c, f, g, planted


class TestLargeInstances:
    @settings(max_examples=150, deadline=None)
    @given(large_instances())
    def test_witness_or_certificate(self, case):
        c, f, g, planted = case
        sigma = find_avoiding_permutation(f, g, c)
        if sigma is not None:
            assert sorted(sigma) == list(range(len(f)))
            assert all(f[i] & g[sigma[i]] == 0 for i in range(len(f)))
            return
        assert not planted
        ideal = violating_order_ideal(f, g, c)
        assert ideal is not None and bp.upper_closure(ideal, c) == ideal
        lhs = sum(ideal >> v & 1 for v in f)
        rhs = sum(ideal >> (bp.full_mask(c) ^ v) & 1 for v in g)
        assert lhs > rhs


def planted_instance(seed, c, size):
    """Feasible by construction: each g-value avoids the f-value it is drawn
    for, before g is shuffled.  Drawing the full complement of the f-value
    makes tight ideals, and half the g-values drawn for f-value 0 are full."""
    rng = random.Random(seed)
    full = bp.full_mask(c)
    f = [rng.randrange(1 << c) for _ in range(size)]
    g = []
    for t in f:
        roll = rng.random()
        if t == 0 and roll < 0.5:
            g.append(full)
        elif roll < 0.3:
            g.append(full ^ t)
        else:
            g.append(rng.randrange(1 << c) & ~t)
    rng.shuffle(g)
    return f, g


# sha256 of the comma-joined permutation, as the pairing-by-pairing greedy
# built it before it ran in batches on per-value queues.
PINNED_PERMUTATIONS = {
    (3, 300): "2b16b4df75e9815608f5eeb5a3862f95722707d655ffb593a1ca9f8be6000288",
    (3, 600): "d900c7acd27205cfd4e7cc62682fe239df66ac910122204b67b14824fc721273",
    (3, 1200): "d59607ad47414d22280bad400013e64aab1c37559290e4f53f5d8f14b29964ad",
    (4, 300): "273ec650247e4e84e26251e10c04aa04392e66c840a60292dc16481e8c293080",
    (4, 600): "048e675af458193c119eb97f819f01fbb7399566bb1cc83b5e73e2ebe0e89f4c",
    (4, 1200): "406edf56c139a0b3d269d0a206f56f7a156d0a8f8f0379338bf47b4422d3186b",
}


class TestPinnedMatcher:
    @pytest.mark.parametrize("c,size", sorted(PINNED_PERMUTATIONS))
    def test_permutation_bytes(self, monkeypatch, c, size):
        f, g = planted_instance(1000 * c + size, c, size)
        assert 0 in f and bp.full_mask(c) in g
        found = []
        real = avoidance._violating_ideal

        def recording(*args):
            ideal = real(*args)
            found.append(ideal is not None)
            return ideal

        monkeypatch.setattr(avoidance, "_violating_ideal", recording)
        sigma = find_avoiding_permutation(f, g, c)
        assert any(found), "the instance must take at least one tight split"
        digest = sha256(",".join(map(str, sigma)).encode()).hexdigest()
        assert digest == PINNED_PERMUTATIONS[(c, size)]

    def test_hall_checks_do_not_grow_with_n(self, monkeypatch):
        c, size = 4, 2000
        f, g = planted_instance(7, c, size)
        calls = Counter()
        real_violating, real_ideals = avoidance._violating_ideal, bp.ideals_generated_in

        def violating(*args):
            calls["violating"] += 1
            return real_violating(*args)

        def ideals(*args):
            calls["kernel passes"] += 1
            return real_ideals(*args)

        monkeypatch.setattr(avoidance, "_violating_ideal", violating)
        monkeypatch.setattr(bp, "ideals_generated_in", ideals)
        assert find_avoiding_permutation(f, g, c) is not None
        # A check per pairing would make about `size` calls.
        bound = 2**c * (math.ceil(math.log2(size)) + 2)
        assert calls["violating"] <= bound and calls["kernel passes"] <= bound, calls

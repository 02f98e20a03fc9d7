import random

import pytest
from hypothesis import given, settings, strategies as st

from symdual import boolean_poset as bp
from symdual.avoidance import (
    FiberCounts,
    avoidance_feasible,
    brute_force_avoidance,
    find_avoiding_permutation,
    hall_violation,
    violating_order_ideal,
)
from symdual.errors import CapError, TotalMismatchError


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
        k = FiberCounts.from_values(2, [m(1, c=2)])
        l = FiberCounts.from_values(2, [m(2, c=2)])
        assert avoidance_feasible(k, l)

    def test_forced_collision(self):
        k = FiberCounts.from_values(1, [1])
        l = FiberCounts.from_values(1, [1])
        assert not avoidance_feasible(k, l)

    def test_dual_member_is_infeasible(self):
        # triangle generator vs a two-block column pattern at width 4
        f = [m(1, 2), m(1, 3), m(2, 3), 0]
        g = [m(2), m(2), m(3), m(3)]
        k = FiberCounts.from_values(3, f)
        l = FiberCounts.from_values(3, g)
        assert not avoidance_feasible(k, l)

    def test_total_mismatch(self):
        with pytest.raises(TotalMismatchError):
            avoidance_feasible(
                FiberCounts.from_values(2, [1]), FiberCounts.from_values(2, [1, 2])
            )

    def test_certificate_soundness(self):
        rng = random.Random(3)
        found = 0
        for _ in range(500):
            c, f, g = random_instance(rng)
            k = FiberCounts.from_values(c, f)
            l = FiberCounts.from_values(c, g)
            ideal = violating_order_ideal(k, l)
            if ideal is None:
                continue
            found += 1
            lhs = sum(1 for v in f if v in ideal)
            rhs = sum(1 for v in g if bp.complement(v, c) in ideal)
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
            k = FiberCounts.from_values(c, f)
            l = FiberCounts.from_values(c, g)
            assert avoidance_feasible(k, l) == avoidance_feasible(l, k)


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
        if sum(k.get(t, 0) for t in ideal) > sum(r.get(t, 0) for t in ideal):
            return ideal
    return None


class TestHallKernel:
    @settings(max_examples=400, deadline=None)
    @given(count_maps())
    def test_restricted_scan_finds_the_first_violator(self, case):
        c, k, r = case
        assert hall_violation(c, k, r) == full_scan_violation(c, k, r)

import random
from datetime import timedelta

import pytest
from hypothesis import assume, given, settings, strategies as st

from symdual import boolean_poset as bp, dual_core
from symdual.avoidance import violating_order_ideal
from symdual.dual_core import (
    _general_min_gens,
    divides_up_to_sym,
    general_candidates,
    k_of_antichain,
    min_degree_gens,
    min_gens,
    one_orbit_min_gens,
)
from symdual.errors import WidthError
from symdual.oracle import (
    MAX_BITS_SCAN,
    brute_divides,
    brute_in_dual,
    brute_min_gens_dual,
    expand_orbit,
    mask_of_columns,
    standard_columns,
)
from symdual.orbit_monomials import GeneratorSystem, TypeVector


def tv(c, counts):
    return TypeVector.from_counts(c, {bp.mask_of(k, c): v for k, v in counts.items()})


def in_dual_single(a, b, n):
    """The membership lemma: b is in the dual of a's one-orbit ideal at width n
    iff a's columns cannot avoid b's, that is, iff some order ideal violates
    the Hall condition of the avoidance check."""
    f, g = standard_columns(a, n), standard_columns(b, n)
    return violating_order_ideal(f, g, a.c) is not None


def in_dual(system, b, n):
    """Membership in a multi-orbit dual: every one-orbit dual at once."""
    return all(in_dual_single(a, b, n) for a in system.generators)


TRIANGLE = tv(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
TWO_ORBIT = GeneratorSystem.make(
    3, [tv(3, {(1, 2): 2, (1, 3): 1}), tv(3, {(1, 2): 1, (2, 3): 2})]
)
SYSTEM_1234_13 = GeneratorSystem.make(
    4, [tv(4, {(1, 2): 1, (3, 4): 1}), tv(4, {(1, 3): 1})]
)
SYSTEM_1234_13_2423 = GeneratorSystem.make(
    4, [*SYSTEM_1234_13.generators, tv(4, {(2, 4): 1, (2, 3): 1})]
)


def random_tv(rng, c, max_weight, nonzero=True):
    counts = {}
    w = 0
    for mask in range(1, 1 << c):
        k = rng.randint(0, 2)
        if k and w + k <= max_weight:
            counts[mask] = k
            w += k
    if nonzero and not counts:
        counts[rng.randrange(1, 1 << c)] = 1
    return TypeVector.from_counts(c, counts)


class TestKOfAntichain:
    def test_triangle_pair(self):
        chain = 1 << bp.mask_of([2], 3) | 1 << bp.mask_of([3], 3)
        assert k_of_antichain(TRIANGLE, chain) == 1

    def test_top_antichain_gives_weight(self):
        chain = 1 << bp.full_mask(3)
        assert k_of_antichain(TRIANGLE, chain) == TRIANGLE.weight

    def test_c2(self):
        a = tv(2, {(1, 2): 1})
        chain = 1 << bp.mask_of([1], 2) | 1 << bp.mask_of([2], 2)
        assert k_of_antichain(a, chain) == 1


class TestInDualSingle:
    def test_two_block_member(self):
        assert in_dual_single(TRIANGLE, tv(3, {(2,): 2, (3,): 2}), 4)

    def test_full_monomial_always_member(self):
        assert in_dual_single(TRIANGLE, tv(3, {(1, 2, 3): 4}), 4)
        assert in_dual_single(tv(2, {(1,): 1}), tv(2, {(1, 2): 3}), 3)

    def test_unit_never_member(self):
        assert not in_dual_single(TRIANGLE, TypeVector.from_counts(3, {}), 5)

    def test_width_guard(self):
        with pytest.raises(WidthError):
            in_dual_single(TRIANGLE, tv(3, {(1,): 5}), 4)

    def test_matches_oracle(self):
        rng = random.Random(97)
        for _ in range(600):
            c = rng.randint(1, 3)
            a = random_tv(rng, c, 3)
            b = random_tv(rng, c, 4, nonzero=False)
            n = max(a.weight, b.weight, 1) + rng.randint(0, 2)
            mask = mask_of_columns(standard_columns(b, n), c)
            assert in_dual_single(a, b, n) == brute_in_dual(expand_orbit(a, n), mask)


class TestInDual:
    def test_two_orbit_member(self):
        assert in_dual(TWO_ORBIT, tv(3, {(1, 2): 2}), 4)

    def test_full_monomial(self):
        assert in_dual(TWO_ORBIT, tv(3, {(1, 2, 3): 4}), 4)

    def test_single_generator_agrees(self):
        rng = random.Random(13)
        for _ in range(400):
            c = rng.randint(1, 3)
            a = random_tv(rng, c, 3)
            b = random_tv(rng, c, 4, nonzero=False)
            n = max(a.weight, b.weight, 1) + rng.randint(0, 2)
            sys_ = GeneratorSystem.make(c, [a])
            assert in_dual(sys_, b, n) == in_dual_single(a, b, n)


class TestDividesUpToSym:
    def test_column_extension_divides(self):
        assert divides_up_to_sym(tv(3, {(2,): 3}), tv(3, {(2,): 3, (3,): 1}), 4)

    def test_reflexive(self):
        rng = random.Random(7)
        for _ in range(50):
            b = random_tv(rng, 3, 4)
            assert divides_up_to_sym(b, b, b.weight + 1)

    def test_unique_minimal_solution_not_divisible(self):
        assert not divides_up_to_sym(tv(3, {(2,): 3}), tv(3, {(2,): 2, (3,): 2}), 4)

    def test_agrees_with_brute(self):
        rng = random.Random(211)
        for _ in range(2000):
            c = rng.randint(1, 3)
            n = rng.randint(1, 6)
            a = random_tv(rng, c, n, nonzero=False)
            b = random_tv(rng, c, n, nonzero=False)
            assert divides_up_to_sym(a, b, n) == brute_divides(a, b, n)

    def test_antisymmetry(self):
        rng = random.Random(307)
        for _ in range(800):
            c = rng.randint(1, 3)
            a = random_tv(rng, c, 4, nonzero=False)
            b = random_tv(rng, c, 4, nonzero=False)
            n = max(a.weight, b.weight, 1)
            if divides_up_to_sym(a, b, n) and divides_up_to_sym(b, a, n):
                assert a == b


class TestOneOrbitMinGens:
    def test_triangle_at_six(self):
        assert len(one_orbit_min_gens(TRIANGLE, 6)) == 36

    def test_c2_single_generator(self):
        gens = one_orbit_min_gens(tv(2, {(1, 2): 1}), 5)
        assert len(gens) == 6
        expected = {tv(2, {(1,): 5}), tv(2, {(2,): 5})} | {
            tv(2, {(1,): a, (2,): 5 - a}) for a in range(1, 5)
        }
        assert set(gens) == expected

    def test_c1_principal(self):
        for n in (1, 3, 5):
            assert one_orbit_min_gens(tv(1, {(1,): 1}), n) == (tv(1, {(1,): n}),)

    def test_agrees_with_general_pipeline(self):
        rng = random.Random(443)
        for _ in range(40):
            c = rng.randint(1, 3)
            a = random_tv(rng, c, 3)
            n = a.weight + rng.randint(0, 3)
            sys_ = GeneratorSystem.make(c, [a])
            assert set(one_orbit_min_gens(a, n)) == set(_general_min_gens(sys_, n))


@st.composite
def one_generator_widths(draw):
    c = draw(st.integers(1, 3))
    counts = draw(st.dictionaries(
        st.integers(1, (1 << c) - 1), st.integers(1, 2), min_size=1, max_size=4
    ))
    a = TypeVector.from_counts(c, counts)
    return a, a.weight + draw(st.integers(0, 3))


class TestMinGensSelection:
    @settings(max_examples=200, deadline=None)
    @given(one_generator_widths())
    def test_one_generator_takes_the_closed_form(self, case):
        a, n = case
        system = GeneratorSystem.make(a.c, [a])
        gens = min_gens(system, n)
        assert gens == one_orbit_min_gens(a, n)
        assert gens == _general_min_gens(system, n)
        if a.c * n <= 12:
            assert set(gens) == set(brute_min_gens_dual(system, n))


def relabel(tv_, perm):
    """The type vector with row i+1 renamed to row perm[i]+1."""
    return TypeVector.from_counts(tv_.c, {
        sum(1 << perm[i] for i in range(tv_.c) if m >> i & 1): k for m, k in tv_.items
    })


@st.composite
def two_generator_systems(draw):
    c = draw(st.integers(1, 3))
    counts = st.dictionaries(
        st.integers(1, (1 << c) - 1), st.integers(1, 2), min_size=1, max_size=3
    )
    system = GeneratorSystem.make(
        c, [TypeVector.from_counts(c, draw(counts)) for _ in range(2)]
    )
    n = system.m + draw(st.integers(0, 2))
    return system, n, draw(st.permutations(range(c)))


class TestTwoGeneratorSystems:
    # The enumeration tables depend on the bit order of the rows, so the
    # output must follow a relabeling of the rows.
    @settings(max_examples=120, deadline=timedelta(seconds=5))
    @given(two_generator_systems())
    def test_oracle_and_relabeling(self, case):
        system, n, perm = case
        gens = min_gens(system, n)
        assert list(gens) == sorted(gens, key=TypeVector.sort_key)
        if system.c * n <= 12:
            assert set(gens) == set(brute_min_gens_dual(system, n))
        relabeled = GeneratorSystem.make(
            system.c, [relabel(g, perm) for g in system.generators]
        )
        assert set(min_gens(relabeled, n)) == {relabel(g, perm) for g in gens}


@st.composite
def oracle_sized_systems(draw):
    """Systems of one to three generators at c <= 4 with a width n, c*n <= 20,
    the oracle's MAX_BITS_SCAN."""
    c = draw(st.integers(1, 4))
    counts = st.dictionaries(
        st.integers(1, (1 << c) - 1), st.integers(1, 2), min_size=1, max_size=3
    )
    system = GeneratorSystem.make(
        c, [TypeVector.from_counts(c, draw(counts)) for _ in range(draw(st.integers(1, 3)))]
    )
    top = MAX_BITS_SCAN // c
    assume(system.m <= top)
    return system, draw(st.integers(system.m, top))


class TestMinGensAgainstOracle:
    # Both min_gens paths, the closed form and the ideal-tuple enumeration.
    @settings(max_examples=80, deadline=None)
    @given(oracle_sized_systems())
    def test_equals_brute_force_scan(self, case):
        system, n = case
        assert set(min_gens(system, n)) == brute_min_gens_dual(system, n)


class TestGeneralCandidates:
    @pytest.mark.parametrize("n, candidates, survivors", [
        (6, 80, 12), (8, 131, 16), (10, 194, 20),
    ])
    def test_pinned_counts_1234_13(self, n, candidates, survivors):
        assert len(general_candidates(SYSTEM_1234_13, n)) == candidates
        gens = _general_min_gens(SYSTEM_1234_13, n)
        assert len(gens) == survivors
        assert list(gens) == sorted(gens, key=TypeVector.sort_key)

    def test_one_strict_system_per_tuple_of_support_ideals(self, monkeypatch):
        # {12,34} generates 3 ideals inside its support and {13} one, so
        # the enumeration solves 3 strict systems, not one per tuple of all
        # proper ideals with nonzero k-sums.
        calls = []
        solve = dual_core._strict_solutions

        def counted(allowed, caps):
            calls.append(caps)
            return solve(allowed, caps)

        monkeypatch.setattr(dual_core, "_strict_solutions", counted)
        general_candidates(SYSTEM_1234_13, 6)
        assert len(calls) == 3

    def test_three_generators_at_c4(self):
        gens = min_gens(SYSTEM_1234_13_2423, 4)
        assert len(gens) == 29
        assert set(gens) == brute_min_gens_dual(SYSTEM_1234_13_2423, 4)

    def test_c5_under_the_cap_override(self, monkeypatch):
        monkeypatch.setenv("SYMDUAL_MAX_C", "5")
        system = GeneratorSystem.make(
            5, [tv(5, {(1, 2): 1, (3, 4): 1}), tv(5, {(1, 5): 1, (2, 3): 1})]
        )
        gens = min_gens(system, 4)
        assert len(gens) == 65
        assert set(gens) == brute_min_gens_dual(system, 4)

    def test_two_orbit_displayed_generators_present(self):
        cands = general_candidates(TWO_ORBIT, 4)
        pair_masks = [(1, 2), (1, 3), (2, 3)]
        for i in range(3):
            for j in range(i, 3):
                counts = {}
                counts[pair_masks[i]] = counts.get(pair_masks[i], 0) + 1
                counts[pair_masks[j]] = counts.get(pair_masks[j], 0) + 1
                assert tv(3, {k: v for k, v in counts.items()}) in cands

    def test_one_orbit_generators_among_candidates(self):
        sys_ = GeneratorSystem.make(3, [TRIANGLE])
        cands = general_candidates(sys_, 5)
        for gen in one_orbit_min_gens(TRIANGLE, 5):
            assert gen in cands

    def test_candidates_generate(self):
        # every candidate is a dual member
        for cand in general_candidates(TWO_ORBIT, 4):
            assert in_dual(TWO_ORBIT, cand, 4)


class TestMinGens:
    def test_two_orbit_count(self):
        assert len(min_gens(TWO_ORBIT, 4)) == 14

    def test_mixed_degree_system(self):
        sys_ = GeneratorSystem.make(
            3, [tv(3, {(1,): 1, (2,): 1}), tv(3, {(1, 3): 1})]
        )
        assert len(min_gens(sys_, 5)) == 6

    def test_oracle_equality_randomized(self):
        rng = random.Random(1009)
        for _ in range(25):
            c = rng.randint(1, 3)
            s = rng.randint(1, 2)
            gens = [random_tv(rng, c, 3) for _ in range(s)]
            sys_ = GeneratorSystem.make(c, gens)
            n = rng.randint(sys_.m, min(6, 20 // c))
            assert set(min_gens(sys_, n)) == set(brute_min_gens_dual(sys_, n))

    def test_members_and_minimality(self):
        for n in (4, 5):
            gens = min_gens(TWO_ORBIT, n)
            for b in gens:
                assert in_dual(TWO_ORBIT, b, n)
                for mask, _ in b.items:
                    reduced = dict(b.items)
                    reduced[mask] -= 1
                    smaller = TypeVector.from_counts(3, reduced)
                    if smaller.weight:
                        assert not in_dual(TWO_ORBIT, smaller, n)

    def test_no_mutual_division(self):
        gens = min_gens(TWO_ORBIT, 5)
        for a in gens:
            for b in gens:
                if a != b:
                    assert not divides_up_to_sym(a, b, 5) or not divides_up_to_sym(
                        b, a, 5
                    )

    def test_family_members_never_divide_each_other(self):
        # candidates sharing a fixed part and antichain: pairwise incomparable
        n = 5
        pair_masks = [bp.mask_of(s, 3) for s in ((1, 2), (1, 3), (2, 3))]
        family = [
            TypeVector.from_counts(3, {
                m: k for m, k in zip(pair_masks, (x, y, n - 2 - x - y)) if k
            })
            for x in range(n - 1)
            for y in range(n - 1 - x)
        ]
        for a in family:
            for b in family:
                if a != b:
                    assert not divides_up_to_sym(a, b, n)

    def test_reverse_inclusion(self):
        # adding a generator shrinks the dual: every minimal generator of the
        # bigger ideal's dual is divisible by one of the smaller ideal's
        rng = random.Random(73)
        for _ in range(10):
            base = random_tv(rng, 3, 3)
            extra = random_tv(rng, 3, 3)
            small = GeneratorSystem.make(3, [base])
            large = GeneratorSystem.make(3, [base, extra])
            n = max(small.m, large.m) + 1
            small_gens = min_gens(small, n)
            for b in min_gens(large, n):
                assert any(divides_up_to_sym(a, b, n) for a in small_gens)

    def test_width_guard(self):
        with pytest.raises(WidthError):
            min_gens(TWO_ORBIT, 2)


class TestMinDegreeGens:
    def test_c2_all_gens_at_min_degree(self):
        sys_ = GeneratorSystem.make(2, [tv(2, {(1, 2): 1})])
        degree, gens = min_degree_gens(sys_, 5)
        assert degree == 5
        assert len(gens) == 6

    def test_degree_positive(self):
        degree, _ = min_degree_gens(TWO_ORBIT, 4)
        assert degree >= 1

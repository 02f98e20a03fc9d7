import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from symdual import boolean_poset as bp, oracle
from symdual.dual_core import divides_up_to_sym, min_gens
from symdual.errors import CapError
from symdual.oracle import (
    _minimal_hitting_sets,
    brute_divides,
    brute_dual_involution_check,
    brute_f_vector,
    brute_in_dual,
    brute_min_gens_dual,
    columns_of_mask,
    expand_orbit,
    expanded_generators,
    mask_of_columns,
    min_monomial_generators,
    type_vector_of_mask,
)
from symdual.orbit_monomials import GeneratorSystem, TypeVector, orbit_size


def tv(c, counts):
    return TypeVector.from_counts(c, {bp.mask_of(k, c): v for k, v in counts.items()})


TRIANGLE_SYS = GeneratorSystem.make(3, [tv(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})])
TWO_ORBIT = GeneratorSystem.make(
    3, [tv(3, {(1, 2): 2, (1, 3): 1}), tv(3, {(1, 2): 1, (2, 3): 2})]
)


class TestExpandOrbit:
    def test_two_block_orbit(self):
        assert len(expand_orbit(tv(3, {(2,): 2, (3,): 2}), 4)) == 6

    def test_full_support_is_singleton(self):
        assert len(expand_orbit(tv(2, {(1, 2): 3}), 3)) == 1

    def test_single_variable(self):
        got = expand_orbit(tv(1, {(1,): 1}), 3)
        assert got == {0b001, 0b010, 0b100}

    def test_cardinality_is_orbit_size(self):
        rng = random.Random(3)
        for _ in range(40):
            c = rng.randint(1, 3)
            n = rng.randint(1, 5)
            counts = {}
            w = 0
            for mask in range(1, 1 << c):
                k = rng.randint(0, 2)
                if w + k <= n:
                    counts[mask] = k
                    w += k
            vec = TypeVector.from_counts(c, counts)
            assert len(expand_orbit(vec, n)) == orbit_size(vec, n)

    def test_instance_cap(self):
        with pytest.raises(CapError):
            expand_orbit(tv(3, {(1,): 1}), 8)


class TestBruteInDual:
    def test_principal_variable(self):
        gens = sorted(expand_orbit(tv(1, {(1,): 1}), 1))
        assert brute_in_dual(gens, 0b1)

    def test_unit_not_in_dual(self):
        gens = sorted(expand_orbit(tv(2, {(1, 2): 1}), 2))
        assert not brute_in_dual(gens, 0)

    def test_two_block_member(self):
        gens = sorted(set().union(*[expand_orbit(a, 4) for a in TRIANGLE_SYS.generators]))
        member = mask_of_columns([0b010, 0b010, 0b100, 0b100], 3)
        assert brute_in_dual(gens, member)


class TestBruteMinGens:
    def test_triangle_at_four(self):
        assert len(brute_min_gens_dual(TRIANGLE_SYS, 4)) == 15

    def test_two_orbit_at_four(self):
        assert len(brute_min_gens_dual(TWO_ORBIT, 4)) == 14

    def test_c1_full_product(self):
        sys_ = GeneratorSystem.make(1, [tv(1, {(1,): 1})])
        assert brute_min_gens_dual(sys_, 3) == {tv(1, {(1,): 3})}

    def test_master_equality(self):
        rng = random.Random(6047)
        for _ in range(15):
            c = rng.randint(1, 3)
            gens = []
            for _ in range(rng.randint(1, 2)):
                counts = {}
                w = 0
                for mask in range(1, 1 << c):
                    k = rng.randint(0, 1)
                    if k and w + k <= 3:
                        counts[mask] = k
                        w += k
                if not counts:
                    counts[1] = 1
                gens.append(TypeVector.from_counts(c, counts))
            sys_ = GeneratorSystem.make(c, gens)
            n = rng.randint(sys_.m, min(6, 18 // c))
            assert set(min_gens(sys_, n)) == set(brute_min_gens_dual(sys_, n))


class TestBruteDivides:
    def test_reflexive(self):
        a = tv(3, {(1, 2): 1, (3,): 1})
        assert brute_divides(a, a, 3)

    def test_column_extension(self):
        assert brute_divides(tv(3, {(2,): 3}), tv(3, {(2,): 3, (3,): 1}), 4)

    def test_agrees_with_fast_kernel(self):
        rng = random.Random(71)
        for _ in range(300):
            c = rng.randint(1, 3)
            n = rng.randint(1, 5)
            pair = []
            for _ in range(2):
                counts = {}
                w = 0
                for mask in range(1, 1 << c):
                    k = rng.randint(0, 2)
                    if w + k <= n:
                        counts[mask] = k
                        w += k
                pair.append(TypeVector.from_counts(c, counts))
            assert brute_divides(pair[0], pair[1], n) == divides_up_to_sym(
                pair[0], pair[1], n
            )


class TestBruteFVector:
    def test_zero_ideal_counts_type_vectors(self):
        # a generator too heavy to divide anything of low degree: faces of
        # small dimension are all orbits of that degree
        sys_ = GeneratorSystem.make(2, [tv(2, {(1, 2): 3})])
        fv = brute_f_vector(sys_, 3)
        assert fv[0] == 2  # the two vertex orbits

    def test_edge_system(self):
        sys_ = GeneratorSystem.make(2, [tv(2, {(1, 2): 1})])
        assert brute_f_vector(sys_, 3)[1] == 3

    def test_top_dimension_matches_min_degree_duals(self):
        fv = brute_f_vector(TRIANGLE_SYS, 4)
        top = max(fv)
        duals = brute_min_gens_dual(TRIANGLE_SYS, 4)
        least = min(b.degree for b in duals)
        assert fv[top] == sum(1 for b in duals if b.degree == least)
        assert top == 3 * 4 - 1 - least


@st.composite
def small_systems(draw):
    """One to three generators of weight <= 4 and a width n with c*n <= 16."""
    c = draw(st.integers(1, 4))
    n = draw(st.integers(1, 16 // c))
    columns = st.lists(st.integers(1, (1 << c) - 1), min_size=1, max_size=min(n, 4))
    gens = [
        TypeVector.from_counts(c, Counter(draw(columns)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return GeneratorSystem.make(c, gens), n


def full_scan_f_vector(system, n):
    """Distinct sorted column multisets of the faces, by dimension, over all 2^(c*n) masks.

    A mask is in the ideal iff it is a generator or drops one bit to a mask
    in the ideal.
    """
    gens = set(expanded_generators(system, n))
    size = system.c * n
    in_ideal = bytearray(1 << size)
    orbits = {}
    for mask in range(1 << size):
        if mask in gens or any(
            in_ideal[mask ^ 1 << i] for i in range(size) if mask >> i & 1
        ):
            in_ideal[mask] = 1
            continue
        cols = tuple(sorted(columns_of_mask(mask, system.c, n)))
        orbits.setdefault(mask.bit_count() - 1, set()).add(cols)
    return {j: len(classes) for j, classes in sorted(orbits.items())}


class TestOrbitRepresentativeScans:
    @settings(max_examples=80, deadline=None)
    @given(small_systems())
    def test_equal_full_scans(self, case):
        system, n = case
        assert brute_f_vector(system, n) == full_scan_f_vector(system, n)
        gens = expanded_generators(system, n)
        minimal = _minimal_hitting_sets(gens, system.c * n)
        assert brute_min_gens_dual(system, n) == {
            type_vector_of_mask(mask, system.c, n) for mask in minimal
        }

    def test_one_type_vector_per_orbit(self, monkeypatch):
        # c=3, n=6, one full column: 7^6 faces and 3^6 minimal dual
        # generators, in C(8+6-1, 6) and 28 orbits.
        calls = Counter()
        original = oracle.type_vector_of_mask

        def counted(mask, c, n):
            calls["tv"] += 1
            return original(mask, c, n)

        monkeypatch.setattr(oracle, "type_vector_of_mask", counted)
        system = GeneratorSystem.make(3, [tv(3, {(1, 2, 3): 1})])
        brute_f_vector(system, 6)
        assert calls["tv"] <= math.comb(8 + 6 - 1, 6)
        calls.clear()
        duals = brute_min_gens_dual(system, 6)
        assert len(duals) == 28 and calls["tv"] == 28


class TestInvolution:
    def test_two_orbit(self):
        assert brute_dual_involution_check(TWO_ORBIT, 4)

    def test_triangle(self):
        assert brute_dual_involution_check(TRIANGLE_SYS, 4)

    def test_random_small(self):
        rng = random.Random(89)
        for _ in range(10):
            c = rng.randint(1, 2)
            counts = {rng.randrange(1, 1 << c): rng.randint(1, 2)}
            sys_ = GeneratorSystem.make(c, [TypeVector.from_counts(c, counts)])
            n = rng.randint(sys_.m, min(5, 18 // c))
            assert brute_dual_involution_check(sys_, n)


class TestHelpers:
    def test_mask_round_trip(self):
        cols = [0b011, 0, 0b101]
        mask = mask_of_columns(cols, 3)
        assert columns_of_mask(mask, 3, 3) == cols
        assert type_vector_of_mask(mask, 3, 3) == tv(3, {(1, 2): 1, (1, 3): 1})

    def test_min_monomial_generators(self):
        assert min_monomial_generators({0b1, 0b11, 0b10}) == {0b1, 0b10}

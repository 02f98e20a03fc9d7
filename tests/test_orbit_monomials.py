import random

import pytest

from symdual import boolean_poset as bp
from symdual.errors import InputError, WidthError
from symdual.oracle import standard_columns
from symdual.orbit_monomials import (
    GeneratorSystem,
    TypeVector,
    generator_system_from_json,
    generator_system_to_json,
    orbit_size,
    type_vector_from_json,
    type_vector_of_matrix,
    type_vector_to_json,
)


def tv(c, counts):
    return TypeVector.from_counts(c, {bp.mask_of(k, c): v for k, v in counts.items()})


def standard_matrix(vec, n):
    """The c x n 0/1 matrix of the oracle's canonical column layout."""
    cols = standard_columns(vec, n)
    return [[(col >> i) & 1 for col in cols] for i in range(vec.c)]


class TestTypeVectorOfMatrix:
    def test_five_column_example(self):
        rows = [
            [1, 0, 0, 1, 1],
            [1, 1, 0, 0, 1],
            [1, 1, 0, 0, 1],
        ]
        got = type_vector_of_matrix(rows)
        assert got == tv(3, {(1, 2, 3): 2, (2, 3): 1, (1,): 1})
        assert got.weight == 4  # the zero column is implicit padding

    def test_zero_matrix(self):
        got = type_vector_of_matrix([[0, 0], [0, 0]])
        assert got.items == () and got.weight == 0

    def test_all_ones(self):
        got = type_vector_of_matrix([[1] * 4, [1] * 4, [1] * 4])
        assert got == tv(3, {(1, 2, 3): 4})

    def test_rejects_non_bits(self):
        with pytest.raises(InputError):
            type_vector_of_matrix([[2, 0]])


class TestStandardMatrix:
    def test_block_order(self):
        got = standard_matrix(tv(3, {(1, 2, 3): 2, (2, 3): 1, (1,): 1}), 4)
        assert got == [
            [1, 1, 0, 1],
            [1, 1, 1, 0],
            [1, 1, 1, 0],
        ]

    def test_two_block_row_pattern(self):
        got = standard_matrix(tv(3, {(2,): 2, (3,): 2}), 4)
        assert got == [
            [0, 0, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
        ]

    def test_empty_padding(self):
        got = standard_matrix(TypeVector.from_counts(2, {}), 2)
        assert got == [[0, 0], [0, 0]]

    def test_width_too_small(self):
        with pytest.raises(WidthError):
            standard_matrix(tv(2, {(1,): 3}), 2)


class TestDegreeAndWeight:
    def test_degree_sum(self):
        assert tv(3, {(1, 2, 3): 2, (2, 3): 1, (1,): 1}).degree == 9

    def test_empty_degree(self):
        assert TypeVector.from_counts(3, {}).degree == 0

    def test_full_monomial(self):
        assert tv(3, {(1, 2, 3): 4}).degree == 12

    def test_sort_key_reads_counts_in_standard_order(self):
        a = tv(3, {(2, 3): 1, (1,): 2})
        assert a.sort_key() == (4, (0, 0, 0, 1, 2, 0, 0))


class TestOrbitSize:
    def test_multinomial(self):
        assert orbit_size(tv(3, {(2,): 2, (3,): 2}), 4) == 6

    def test_single_block(self):
        assert orbit_size(tv(2, {(1, 2): 5}), 5) == 1

    def test_one_column(self):
        assert orbit_size(tv(1, {(1,): 1}), 3) == 3

    def test_matches_exhaustive(self):
        from symdual.oracle import expand_orbit
        rng = random.Random(5)
        for _ in range(60):
            c = rng.randint(1, 3)
            n = rng.randint(1, 6)
            counts = {}
            w = 0
            for mask in range(1, 1 << c):
                k = rng.randint(0, 2)
                if w + k <= n:
                    counts[mask] = k
                    w += k
            vec = TypeVector.from_counts(c, counts)
            assert orbit_size(vec, n) == len(expand_orbit(vec, n))


class TestRoundTripAndInvariance:
    def test_round_trip_randomized(self):
        rng = random.Random(17)
        for _ in range(200):
            c = rng.randint(1, 4)
            counts = {}
            w = 0
            for mask in range(1, 1 << c):
                k = rng.randint(0, 2)
                if w + k <= 8:
                    counts[mask] = k
                    w += k
            vec = TypeVector.from_counts(c, counts)
            n = vec.weight + rng.randint(0, 3)
            assert type_vector_of_matrix(standard_matrix(vec, n)) == vec

    def test_column_permutation_invariance(self):
        rng = random.Random(29)
        for _ in range(100):
            c = rng.randint(1, 3)
            n = rng.randint(1, 6)
            cols = [rng.randrange(1 << c) for _ in range(n)]
            rows = [[(col >> i) & 1 for col in cols] for i in range(c)]
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = [[row[j] for j in perm] for row in rows]
            assert type_vector_of_matrix(rows) == type_vector_of_matrix(shuffled)


class TestGeneratorSystem:
    def test_m_is_max_weight(self):
        sys_ = GeneratorSystem.make(3, [tv(3, {(1, 2): 2}), tv(3, {(3,): 1})])
        assert sys_.m == 2

    def test_rejects_zero_generator(self):
        with pytest.raises(InputError):
            GeneratorSystem.make(2, [TypeVector.from_counts(2, {})])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            GeneratorSystem.make(2, [])


class TestJson:
    def test_canonical_emission(self):
        vec = tv(3, {(2,): 2, (3,): 2})
        doc = type_vector_to_json(vec)
        assert doc == {
            "c": 3,
            "counts": [
                {"support": [2], "count": 2},
                {"support": [3], "count": 2},
            ],
        }
        assert type_vector_from_json(doc) == vec

    def test_string_key_form_accepted(self):
        doc = {"c": 3, "counts": {"[2]": 2, "[3]": 2}}
        assert type_vector_from_json(doc) == tv(3, {(2,): 2, (3,): 2})

    def test_matrix_form_accepted(self):
        doc = {"c": 2, "generators": [{"matrix": [[1], [1]]}]}
        sys_ = generator_system_from_json(doc)
        assert sys_.generators == (tv(2, {(1, 2): 1}),)

    def test_system_round_trip(self):
        sys_ = GeneratorSystem.make(3, [tv(3, {(1, 2): 2, (1, 3): 1})])
        assert generator_system_from_json(generator_system_to_json(sys_)) == sys_

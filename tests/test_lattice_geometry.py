import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from symdual import lattice_geometry
from symdual.errors import CapError, InputError
from symdual.lattice_geometry import (
    Orthant,
    SumPolyhedron,
    cone_decompose,
    count_on_slice,
    polyhedron_from_json,
    polyhedron_to_json,
    slice_polynomial_threshold,
)
from symdual.oracle import (
    MAX_SLICE_BOX,
    enumerate_slice,
    in_orthant,
    in_polyhedron,
    orthant_apex,
)

EXAMPLE = SumPolyhedron.from_maps(
    3,
    {(1,): 1, (2,): 1, (3,): 1, (1, 2): 3, (1, 3): 0, (2, 3): 0, (1, 2, 3): 0},
)


def random_polyhedron(rng, max_k=4):
    k = rng.choice([1, 2, 2, 3, 3, max_k])
    lower = {(j,): rng.randint(-3, 5) for j in range(1, k + 1)}
    for _ in range(rng.randint(0, 3)):
        if k == 1:
            break
        size = rng.randint(2, k)
        lower[tuple(sorted(rng.sample(range(1, k + 1), size)))] = rng.randint(-3, 5)
    upper = {}
    if rng.random() < 0.45:
        size = rng.randint(1, k)
        upper[tuple(sorted(rng.sample(range(1, k + 1), size)))] = rng.randint(-3, 5)
    return SumPolyhedron.from_maps(k, lower, upper)


def check_box(p, orthants, pad_low=1, pad_high=5):
    los = [dict(p.lower)[1 << j] for j in range(p.k)]
    for pt in product(*[range(lo - pad_low, lo + pad_high + 1) for lo in los]):
        hits = sum(1 for o in orthants if in_orthant(o, pt))
        if in_polyhedron(p, pt):
            assert hits == 1, (p, pt, hits)
        else:
            assert hits == 0, (p, pt, hits)


class TestConeDecompose:
    def test_worked_example(self):
        orthants = cone_decompose(EXAMPLE)
        check_box(EXAMPLE, orthants, pad_low=1, pad_high=11)
        assert count_on_slice(orthants, [5]) == {5: 5}

    def test_witness_box_past_the_cap(self):
        # Five coordinates with lower bounds 0, 0, -2, -2, -2 under one upper
        # bound 4: the witness box holds 11^5 = 161 051 points.
        p = SumPolyhedron.from_maps(
            5, {(1,): 0, (2,): 0, (3,): -2, (4,): -2, (5,): -2}, {(1, 2, 3, 4, 5): 4}
        )
        assert p == SumPolyhedron(
            k=5, lower=((1, 0), (2, 0), (4, -2), (8, -2), (16, -2)), upper=((31, 4),)
        )
        with pytest.raises(CapError, match="witness box"):
            cone_decompose(p)

    # The cone command prints the orthants in this order, so it is pinned.
    def test_pinned_order_without_upper_bounds(self):
        assert [(o.fixed, o.bounded) for o in cone_decompose(EXAMPLE)] == [
            ((), ((1, 1), (2, 2), (3, 1))),
            (((2, 1),), ((1, 2), (3, 1))),
        ]

    def test_pinned_order_with_upper_bounds(self):
        p = SumPolyhedron.from_maps(
            4,
            {(1,): 0, (2,): 0, (3,): 1, (4,): 0, (2, 3): 3, (3, 4): 2, (1, 2, 4): 3},
            {(1,): 1},
        )
        assert [(o.fixed, o.bounded) for o in cone_decompose(p)] == [
            (((1, 0),), ((2, 0), (3, 3), (4, 3))),
            (((1, 0), (3, 1)), ((2, 2), (4, 3))),
            (((1, 0), (3, 2)), ((2, 1), (4, 3))),
            (((1, 0), (4, 0)), ((2, 3), (3, 2))),
            (((1, 0), (4, 1)), ((2, 2), (3, 1))),
            (((1, 0), (4, 2)), ((2, 1), (3, 2))),
            (((1, 0), (3, 1), (4, 2)), ((2, 2),)),
            (((1, 1),), ((2, 0), (3, 3), (4, 2))),
            (((1, 1), (3, 1)), ((2, 2), (4, 2))),
            (((1, 1), (3, 2)), ((2, 1), (4, 2))),
            (((1, 1), (4, 0)), ((2, 2), (3, 2))),
            (((1, 1), (4, 1)), ((2, 1), (3, 2))),
            (((1, 1), (3, 1), (4, 1)), ((2, 2),)),
        ]

    def test_single_coordinate(self):
        p = SumPolyhedron.from_maps(1, {(1,): -2})
        orthants = cone_decompose(p)
        assert len(orthants) == 1
        assert orthants[0].bounded == ((1, -2),)

    def test_infeasible_bounds_give_empty(self):
        p = SumPolyhedron.from_maps(2, {(1,): 0, (2,): 0, (1, 2): 5}, {(1, 2): 3})
        assert cone_decompose(p) == []

    def test_positive_empty_sum_marks_empty(self):
        p = SumPolyhedron.from_maps(1, {(): 1, (1,): 0})
        assert cone_decompose(p) == []

    def test_missing_singleton_raises(self):
        p = SumPolyhedron.from_maps(2, {(1,): 0, (1, 2): 3})
        with pytest.raises(InputError):
            cone_decompose(p)

    def test_dimension_cap(self):
        p = SumPolyhedron.from_maps(9, {(j,): 0 for j in range(1, 10)})
        with pytest.raises(CapError):
            cone_decompose(p)

    @pytest.mark.parametrize("k,lower,upper,count", [
        # one witness; the split levels of all three coordinates add up
        (3, {(1,): 0, (2,): 0, (3,): 0, (1, 2): 12, (2, 3): 12, (1, 3): 12}, {}, 55),
        # a box of 4 x 5 witnesses, one orthant each
        (2, {(1,): 0, (2,): 0}, {(1,): 3, (2,): 4}, 20),
        # two witnesses of 13 orthants each
        (3, {(1,): 0, (2,): 0, (3,): 0, (2, 3): 12}, {(1,): 1}, 26),
    ], ids=["split-levels", "witness-box", "witnesses"])
    def test_orthant_cap(self, monkeypatch, k, lower, upper, count):
        p = SumPolyhedron.from_maps(k, lower, upper)
        monkeypatch.setattr(lattice_geometry, "MAX_ORTHANTS", count)
        assert len(cone_decompose(p)) == count
        monkeypatch.setattr(lattice_geometry, "MAX_ORTHANTS", count - 1)
        with pytest.raises(CapError):
            cone_decompose(p)

    def test_apices_inside(self):
        rng = random.Random(5)
        for _ in range(60):
            p = random_polyhedron(rng)
            for orth in cone_decompose(p):
                assert in_polyhedron(p, orthant_apex(orth))

    def test_coordinates_partition(self):
        rng = random.Random(71)
        for _ in range(500):
            p = random_polyhedron(rng)
            for orth in cone_decompose(p):
                fixed = [j for j, _ in orth.fixed]
                bounded = [j for j, _ in orth.bounded]
                assert fixed == sorted(fixed) and bounded == sorted(bounded)
                assert sorted(fixed + bounded) == list(range(1, p.k + 1))

    def test_random_disjoint_cover(self):
        rng = random.Random(19)
        for _ in range(120):
            p = random_polyhedron(rng)
            check_box(p, cone_decompose(p), pad_low=1, pad_high=4)


class TestCountOnSlice:
    def test_worked_example_values(self):
        orthants = cone_decompose(EXAMPLE)
        assert count_on_slice(orthants, [3, 5]) == {3: 0, 5: 5}

    def test_unconstrained_compositions(self):
        orth = Orthant((), ((1, 0), (2, 0), (3, 0)))
        assert count_on_slice([orth], range(6)) == {
            n: (n + 2) * (n + 1) // 2 for n in range(6)
        }

    def test_below_minimum_is_zero(self):
        orth = Orthant(((1, 4),), ((2, 3),))
        assert count_on_slice([orth], [5]) == {5: 0}

    def test_matches_enumeration(self):
        rng = random.Random(37)
        for _ in range(40):
            p = random_polyhedron(rng, max_k=3)
            orthants = cone_decompose(p)
            assert count_on_slice(orthants, range(-2, 15)) == {
                n: len(enumerate_slice(p, n)) for n in range(-2, 15)
            }

    def test_polynomiality_by_finite_differences(self):
        rng = random.Random(53)
        for _ in range(30):
            p = random_polyhedron(rng, max_k=3)
            orthants = cone_decompose(p)
            start = slice_polynomial_threshold(orthants)
            values = list(count_on_slice(orthants, range(start, start + 2 * p.k + 3)).values())
            diffs = values
            for _ in range(p.k):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            assert all(d == 0 for d in diffs)


@st.composite
def slice_cases(draw):
    """A polyhedron with k <= 5 and a slice range.  Half carry an upper bound,
    on all coordinates half the time, which leaves fully fixed orthants.

    An upper bound U over a support whose singleton lower bounds sum to L
    gives a witness box of (U - L + 1)^|support| points, so U - L <= 8 keeps
    it within MAX_ORTHANTS (9^5 = 59 049).
    """
    k = draw(st.integers(1, 5))
    lower = {(j,): draw(st.integers(-2, 3)) for j in range(1, k + 1)}
    if k > 1:
        for support in draw(st.lists(st.sets(st.integers(1, k), min_size=2), max_size=3)):
            lower[tuple(sorted(support))] = draw(st.integers(-2, 6))
    upper = {}
    if draw(st.booleans()):
        support = range(1, k + 1) if draw(st.booleans()) else draw(
            st.sets(st.integers(1, k), min_size=1)
        )
        low_sum = sum(lower[(j,)] for j in support)
        upper[tuple(sorted(support))] = draw(st.integers(-2, min(8, low_sum + 8)))
    a = draw(st.integers(-3, 8))
    return SumPolyhedron.from_maps(k, lower, upper), range(a, a + draw(st.integers(0, 8)))


class TestCountOnSliceProperty:
    @settings(max_examples=150, deadline=None)
    @given(slice_cases())
    def test_each_width_matches_enumeration(self, case):
        p, ns = case
        assert count_on_slice(cone_decompose(p), ns) == {
            n: len(enumerate_slice(p, n)) for n in ns
        }


class TestEnumerateSlice:
    def test_worked_example_points(self):
        assert enumerate_slice(EXAMPLE, 5) == [
            (1, 2, 2),
            (1, 3, 1),
            (2, 1, 2),
            (2, 2, 1),
            (3, 1, 1),
        ]

    def test_empty_polyhedron(self):
        p = SumPolyhedron.from_maps(1, {(): 2, (1,): 0})
        assert enumerate_slice(p, 4) == []

    def test_low_sum_has_no_points(self):
        assert enumerate_slice(EXAMPLE, 3) == []

    def test_box_guard(self):
        p = SumPolyhedron.from_maps(1, {(1,): 0})
        assert enumerate_slice(p, MAX_SLICE_BOX - 1) == [(MAX_SLICE_BOX - 1,)]
        with pytest.raises(CapError):
            enumerate_slice(p, MAX_SLICE_BOX)


class TestJson:
    def test_round_trip(self):
        assert polyhedron_from_json(polyhedron_to_json(EXAMPLE)) == EXAMPLE

    def test_reads_documented_shape(self):
        doc = {
            "k": 2,
            "lower": [
                {"support": [1], "bound": 1},
                {"support": [2], "bound": 0},
            ],
            "upper": [{"support": [1, 2], "bound": 4}],
        }
        p = polyhedron_from_json(doc)
        assert p.k == 2 and dict(p.upper) == {0b11: 4}

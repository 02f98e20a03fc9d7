import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symdual import boolean_poset as bp
from symdual.counting import (
    RationalPolynomial,
    count_series,
    default_degree_bound,
    dual_orbit_count,
    face_orbit_count,
    facet_orbits_by_dimension,
    fit_polynomial,
    min_degree_line,
    type_vectors_of_degree,
)
from symdual.dual_core import min_degree_gens
from symdual.errors import FitError, WidthError
from symdual.oracle import brute_f_vector
from symdual.orbit_monomials import GeneratorSystem, TypeVector


def tv(c, counts):
    return TypeVector.from_counts(c, {bp.mask_of(k, c): v for k, v in counts.items()})


TRIANGLE_SYS = GeneratorSystem.make(3, [tv(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})])
TWO_ORBIT = GeneratorSystem.make(
    3, [tv(3, {(1, 2): 2, (1, 3): 1}), tv(3, {(1, 2): 1, (2, 3): 2})]
)
EDGE_SYS = GeneratorSystem.make(2, [tv(2, {(1, 2): 1})])
MIXED_SYS = GeneratorSystem.make(3, [tv(3, {(1,): 1, (2,): 1}), tv(3, {(1, 3): 1})])


class TestDualOrbitCount:
    def test_triangle_at_six(self):
        assert dual_orbit_count(TRIANGLE_SYS, 6) == 36

    def test_two_orbit_at_five(self):
        assert dual_orbit_count(TWO_ORBIT, 5) == 21

    def test_edge_at_four(self):
        assert dual_orbit_count(EDGE_SYS, 4) == 5


class TestFitPolynomial:
    def test_triangle_closed_form(self):
        series = count_series(TRIANGLE_SYS, range(4, 10))
        assert series == {4: 15, 5: 25, 6: 36, 7: 48, 8: 61, 9: 75}
        poly, stable_from = fit_polynomial(series, default_degree_bound(3))
        assert poly.coeffs == (Fraction(-15), Fraction(11, 2), Fraction(1, 2))
        assert stable_from == 4

    def test_constant_series(self):
        poly, _ = fit_polynomial({5: 7, 6: 7, 7: 7, 8: 7}, 1)
        assert poly.coeffs == (Fraction(7),)
        assert poly.degree == 0

    def test_mixed_system_linear(self):
        series = count_series(MIXED_SYS, range(3, 8))
        poly, _ = fit_polynomial(series, default_degree_bound(3))
        assert poly.coeffs == (Fraction(1), Fraction(1))

    def test_insufficient_samples(self):
        with pytest.raises(FitError):
            fit_polynomial({3: 1, 4: 2}, 2)

    def test_no_stable_window(self):
        with pytest.raises(FitError):
            fit_polynomial({1: 1, 2: 5, 3: 2, 4: 100}, 0)

    def test_nonconsecutive_rejected(self):
        with pytest.raises(Exception):
            fit_polynomial({1: 1, 3: 3, 4: 4}, 1)

    def test_json_round_trip(self):
        poly = RationalPolynomial.from_coeffs([Fraction(-15), Fraction(11, 2), Fraction(1, 2)])
        doc = poly.to_json(stable_from=4)
        assert doc == {"coeffs": ["-15", "11/2", "1/2"], "stable_from": 4}
        assert RationalPolynomial.from_coeffs(Fraction(s) for s in doc["coeffs"]) == poly


def min_degree_series(system, ns):
    return min_degree_line({n: min_degree_gens(system, n)[0] for n in ns}, system.c)


@st.composite
def polynomial_samples(draw):
    """Integer coefficients of degree <= 3, the first stable width, the number
    of stable samples and nonzero perturbations of a prefix before it."""
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    start = draw(st.integers(-5, 10))
    length = draw(st.integers(5, 9))
    prefix = draw(st.lists(st.integers(-3, 3).filter(bool), max_size=3))
    return coeffs, start, length, prefix


class TestFitProperty:
    @settings(max_examples=200, deadline=None)
    @given(polynomial_samples())
    def test_recovers_polynomial_and_onset(self, case):
        coeffs, start, length, prefix = case
        expected = RationalPolynomial.from_coeffs(coeffs)
        samples = {n: int(expected(n)) for n in range(start, start + length)}
        for i, delta in enumerate(prefix, 1):
            samples[start - i] = int(expected(start - i)) + delta
        before = dict(samples)
        poly, stable_from = fit_polynomial(samples, 3)
        assert poly == expected
        assert stable_from == start
        last = start + length - 1
        assert poly(last + 1) == expected(last + 1) and poly(last + 2) == expected(last + 2)
        assert samples == before


class TestMinDegreeSeries:
    def test_edge_slope_one(self):
        slope, intercept, window = min_degree_series(EDGE_SYS, range(2, 8))
        assert (slope, intercept) == (1, 0)
        assert window[1] - window[0] >= 3

    def test_c1_slope_one(self):
        sys_ = GeneratorSystem.make(1, [tv(1, {(1,): 1})])
        slope, intercept, _ = min_degree_series(sys_, range(1, 6))
        assert (slope, intercept) == (1, 0)

    def test_slope_bounded_by_c(self):
        slope, _, _ = min_degree_series(TRIANGLE_SYS, range(3, 9))
        assert 0 <= slope <= 3


class TestFacetOrbits:
    def test_edge_histogram(self):
        assert facet_orbits_by_dimension(EDGE_SYS, 4) == {3: 5}

    def test_counts_total(self):
        hist = facet_orbits_by_dimension(TWO_ORBIT, 4)
        assert sum(hist.values()) == dual_orbit_count(TWO_ORBIT, 4)

    def test_below_stability_raises(self):
        with pytest.raises(WidthError):
            facet_orbits_by_dimension(TWO_ORBIT, 2)


class TestFacetEventualConstancy:
    @pytest.mark.parametrize(
        "system,j",
        [
            (GeneratorSystem.make(1, [tv(1, {(1,): 2})]), 0),
            (EDGE_SYS, 3),
            (MIXED_SYS, 2),
        ],
    )
    def test_fixed_dimension_count_stabilizes(self, system, j):
        start = max(system.m, j + 1)
        counts = [
            facet_orbits_by_dimension(system, n).get(j, 0)
            for n in range(start, start + 8)
        ]
        # non-increasing once past the threshold, and flat on some window of 4
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert any(
            len(set(counts[i : i + 4])) == 1 for i in range(len(counts) - 3)
        )


class TestMinDegreeConsistency:
    def test_class_size_matches_histogram_top(self):
        for system, n in ((TWO_ORBIT, 5), (TRIANGLE_SYS, 5), (EDGE_SYS, 6)):
            degree, gens = min_degree_gens(system, n)
            hist = facet_orbits_by_dimension(system, n)
            assert hist[system.c * n - 1 - degree] == len(gens)


class TestFaceOrbitCount:
    def test_vertex_orbits(self):
        assert face_orbit_count(TWO_ORBIT, 0, 4) == 3
        assert face_orbit_count(EDGE_SYS, 0, 3) == 2

    def test_edge_system_j1(self):
        assert face_orbit_count(EDGE_SYS, 1, 3) == 3

    def test_matches_brute_f_vector(self):
        for sys_, n in ((EDGE_SYS, 4), (TRIANGLE_SYS, 4), (MIXED_SYS, 4)):
            brute = brute_f_vector(sys_, n)
            for j in range(0, 4):
                assert face_orbit_count(sys_, j, n) == brute.get(j, 0)

    def test_above_dimension_zero(self):
        assert face_orbit_count(EDGE_SYS, 7, 3) == 0

    def test_divisibility_checks_do_not_scan_2_to_the_c(self):
        # Each of the 143 squarefree degree-2 orbits at c = 12 takes one
        # divisibility test.  A test that walks all 2^12 masks makes about
        # 150 000 Python calls in total; one that stays on the generator's
        # support makes about 13 000 from a cold start.
        c = 12
        system = GeneratorSystem(c, (tv(c, {(1, 2): 1}),))
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            count = face_orbit_count(system, 1, 3)
        finally:
            sys.setprofile(previous)
        assert count == 143
        assert calls < 40_000, calls


class TestTypeVectorsOfDegree:
    def test_degree_two_c2(self):
        got = set(type_vectors_of_degree(2, 2))
        assert got == {
            tv(2, {(1, 2): 1}),
            tv(2, {(1,): 2}),
            tv(2, {(2,): 2}),
            tv(2, {(1,): 1, (2,): 1}),
        }

    def test_weight_cap(self):
        capped = set(type_vectors_of_degree(2, 2, max_weight=1))
        assert capped == {tv(2, {(1, 2): 1})}

    def test_depth_first_order(self):
        assert list(type_vectors_of_degree(2, 3)) == [
            tv(2, {(1, 2): 1, (1,): 1}),
            tv(2, {(1, 2): 1, (2,): 1}),
            tv(2, {(1,): 3}),
            tv(2, {(1,): 2, (2,): 1}),
            tv(2, {(1,): 1, (2,): 2}),
            tv(2, {(2,): 3}),
        ]

    def test_walk_does_not_recurse_per_support(self):
        # 65 535 supports at c = 16, far past the interpreter's recursion limit.
        assert list(type_vectors_of_degree(16, 1)) == [
            tv(16, {(i,): 1}) for i in range(1, 17)
        ]

    def test_items_in_standard_order(self):
        # The walk builds each vector's items directly, without from_counts.
        for c in range(1, 6):
            for degree in range(7):
                for cap in (None, 1, 2, 3, 5):
                    for got in type_vectors_of_degree(c, degree, max_weight=cap):
                        assert got == TypeVector.from_counts(c, dict(got.items))

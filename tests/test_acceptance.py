"""Acceptance suite: one test per criterion, reporting a pass/fail line each.

Run as `pytest tests/test_acceptance.py -v`; the per-criterion lines appear
in the terminal summary (see conftest.py).
"""

import math
import random
from contextlib import contextmanager
from itertools import product

from symdual import boolean_poset as bp
from symdual.avoidance import find_avoiding_permutation, violating_order_ideal
from symdual.counting import (
    count_series,
    default_degree_bound,
    dual_orbit_count,
    face_orbit_count,
    fit_polynomial,
    min_degree_line,
)
from symdual.dual_core import divides_up_to_sym, min_degree_gens, min_gens
from symdual.lattice_geometry import (
    SumPolyhedron,
    cone_decompose,
    count_on_slice,
    slice_polynomial_threshold,
)
from symdual.oracle import (
    brute_divides,
    brute_f_vector,
    brute_force_avoidance,
    brute_min_gens_dual,
    enumerate_slice,
    in_orthant,
    in_polyhedron,
)
from symdual.orbit_monomials import GeneratorSystem, TypeVector


def tv(c, counts):
    return TypeVector.from_counts(c, {bp.mask_of(k, c): v for k, v in counts.items()})


# The four reference systems.
ONE_ORBIT = GeneratorSystem.make(3, [tv(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})])
TWO_ORBIT = GeneratorSystem.make(
    3, [tv(3, {(1, 2): 2, (1, 3): 1}), tv(3, {(1, 2): 1, (2, 3): 2})]
)
EDGE = GeneratorSystem.make(2, [tv(2, {(1, 2): 1})])
MIXED = GeneratorSystem.make(3, [tv(3, {(1,): 1, (2,): 1}), tv(3, {(1, 3): 1})])

REFERENCE_SYSTEMS = (ONE_ORBIT, TWO_ORBIT, EDGE, MIXED)


# (num, description, passed) triples collected for the terminal summary.
RESULTS: list[tuple[int, str, bool]] = []


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        RESULTS.append((num, desc, False))
        raise
    RESULTS.append((num, desc, True))


def random_generator(rng, c, max_weight):
    counts = {}
    weight = 0
    for mask in range(1, 1 << c):
        k = rng.randint(0, 2)
        if k and weight + k <= max_weight:
            counts[mask] = k
            weight += k
    if not counts:
        counts[rng.randrange(1, 1 << c)] = 1
    return TypeVector.from_counts(c, counts)


def test_criterion_1_one_orbit_counts_and_oracle():
    with criterion(1, "one-orbit system: quadratic count and oracle equality"):
        for n in range(4, 10):
            assert dual_orbit_count(ONE_ORBIT, n) == (n * n + 11 * n) // 2 - 15
        for n in (4, 5, 6):
            assert set(min_gens(ONE_ORBIT, n)) == set(brute_min_gens_dual(ONE_ORBIT, n))


def test_criterion_2_two_orbit_counts_classes_and_oracle():
    with criterion(2, "two-orbit system: quadratic count, class table, oracle equality"):
        for n in range(4, 10):
            assert dual_orbit_count(TWO_ORBIT, n) == (n * n + 5 * n) // 2 - 4
        n = 5
        rows = [
            {tv(3, {(2,): n - 1})},
            {tv(3, {(1,): a, (2,): n - a}) for a in range(3, n)} | {tv(3, {(1,): n})},
            {
                tv(3, {(1,): 1, (2,): a, (1, 3): n - 2 - a}) if a < n - 2
                else tv(3, {(1,): 1, (2,): a})
                for a in range(1, n - 1)
            },
            {tv(3, {(3,): n})},
            {
                tv(3, {(1,): 1, (3,): a, (1, 2): n - 1 - a}) if a < n - 1
                else tv(3, {(1,): 1, (3,): a})
                for a in range(2, n)
            },
            {
                tv(3, {(1, 2): x, (1, 3): y, (2, 3): n - 2 - x - y})
                for x in range(n - 1)
                for y in range(n - 1 - x)
            },
        ]
        expected_counts = (1, n - 2, n - 2, 1, n - 2, math.comb(n, 2))
        assert tuple(len(r) for r in rows) == expected_counts
        got = set(min_gens(TWO_ORBIT, n))
        union = set().union(*rows)
        assert len(union) == sum(expected_counts)
        assert got == union
        for n in (4, 5):
            assert set(min_gens(TWO_ORBIT, n)) == set(brute_min_gens_dual(TWO_ORBIT, n))


def test_criterion_3_edge_system_table():
    with criterion(3, "c=2 single generator: n+1 orbits, class table verbatim"):
        for n in range(2, 11):
            gens = set(min_gens(EDGE, n))
            assert len(gens) == n + 1
            expected = (
                {tv(2, {(1,): n}), tv(2, {(2,): n})}
                | {tv(2, {(1,): a, (2,): n - a}) for a in range(1, n)}
            )
            assert gens == expected
            # the antichain {{1,2}} contributes nothing
            assert not any({m for m, _ in g.items} == {bp.mask_of([1, 2], 2)} for g in gens)


def test_criterion_4_mixed_system_classes():
    with criterion(4, "c=3 two-generator system: n+1 orbits in four classes"):
        for n in range(3, 11):
            gens = set(min_gens(MIXED, n))
            assert len(gens) == n + 1
            row = {tv(3, {(1,): n})}
            wedge = {tv(3, {(1, 2): n - 1, (3,): 1})}
            mixed_pairs = {
                tv(3, {(1, 2): a, (2, 3): n - a}) for a in range(1, n - 1)
            }
            back = {tv(3, {(2, 3): n})}
            assert tuple(map(len, (row, wedge, mixed_pairs, back))) == (1, 1, n - 2, 1)
            assert gens == row | wedge | mixed_pairs | back


def test_criterion_5_degree_bound_on_random_systems():
    with criterion(5, "fitted count degree <= C(c, floor(c/2)) - 1 on 200 random systems"):
        rng = random.Random(20260811)
        for trial in range(200):
            c = rng.randint(1, 3)
            s = rng.randint(1, 2)
            system = GeneratorSystem.make(
                c, [random_generator(rng, c, 4) for _ in range(s)]
            )
            bound = default_degree_bound(c)
            ns = range(system.m, system.m + bound + 5)
            poly, _ = fit_polynomial(count_series(system, ns), bound)
            assert poly.degree <= bound, (system, poly)


def test_criterion_6_avoidance_equivalence():
    with criterion(6, "avoidance: feasibility <-> brute witness on 10^4 instances"):
        rng = random.Random(1234)
        for trial in range(10_000):
            c = rng.randint(1, 3)
            n = rng.randint(1, 6)
            f = [rng.randrange(1 << c) for _ in range(n)]
            g = [rng.randrange(1 << c) for _ in range(n)]
            feasible = violating_order_ideal(f, g, c) is None
            sigma = find_avoiding_permutation(f, g, c)
            brute = brute_force_avoidance(f, g)
            assert feasible == (sigma is not None) == (brute is not None)
            if sigma is not None:
                assert sorted(sigma) == list(range(n))
                assert all(f[i] & g[sigma[i]] == 0 for i in range(n))


def test_criterion_7_divisibility_oracle():
    with criterion(7, "divisibility kernel == brute permutation search on 10^4 pairs"):
        rng = random.Random(4321)
        for trial in range(10_000):
            c = rng.randint(1, 3)
            n = rng.randint(1, 6)
            pair = []
            for _ in range(2):
                counts = {}
                weight = 0
                for mask in range(1, 1 << c):
                    k = rng.randint(0, 2)
                    if weight + k <= n:
                        counts[mask] = k
                        weight += k
                pair.append(TypeVector.from_counts(c, counts))
            assert divides_up_to_sym(pair[0], pair[1], n) == brute_divides(
                pair[0], pair[1], n
            )


def _random_polyhedron(rng):
    k = rng.choice([1, 2, 2, 3, 3, 3, 4, 4])
    lower = {(j,): rng.randint(-3, 5) for j in range(1, k + 1)}
    for _ in range(rng.randint(0, 3)):
        if k == 1:
            break
        size = rng.randint(2, k)
        lower[tuple(sorted(rng.sample(range(1, k + 1), size)))] = rng.randint(-3, 5)
    upper = {}
    if rng.random() < 0.4:
        size = rng.randint(1, k)
        upper[tuple(sorted(rng.sample(range(1, k + 1), size)))] = rng.randint(-3, 5)
    return SumPolyhedron.from_maps(k, lower, upper)


def _check_decomposition(p):
    orthants = cone_decompose(p)
    lows = [dict(p.lower)[1 << j] for j in range(p.k)]
    for pt in product(*[range(lo - 1, lo + 4) for lo in lows]):
        hits = sum(1 for o in orthants if in_orthant(o, pt))
        assert hits == (1 if in_polyhedron(p, pt) else 0), (p, pt)
    assert count_on_slice(orthants, range(0, 26)) == {
        n: len(enumerate_slice(p, n)) for n in range(0, 26)
    }
    if orthants:
        start = slice_polynomial_threshold(orthants)
        window = list(count_on_slice(orthants, range(start, start + 2 * p.k + 2)).values())
        diffs = window
        for _ in range(p.k):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert all(d == 0 for d in diffs)
    return orthants


def _printed_binomial_count(orthants, n):
    # the off-by-one alternative: top argument n - a + m - sum(c_i)
    total = 0
    for orth in orthants:
        fixed_sum = sum(v for _, v in orth.fixed)
        m = len(orth.bounded)
        if m == 0:
            total += 1 if fixed_sum == n else 0
            continue
        top = n - fixed_sum + m - sum(v for _, v in orth.bounded)
        if top >= 0:
            total += math.comb(top, m - 1)
    return total


def test_criterion_8_cone_decomposition():
    with criterion(8, "cone decomposition: disjoint cover, slice counts, polynomiality"):
        example = SumPolyhedron.from_maps(
            3,
            {(1,): 1, (2,): 1, (3,): 1, (1, 2): 3, (1, 3): 0, (2, 3): 0, (1, 2, 3): 0},
        )
        orthants = _check_decomposition(example)
        # the shipped stars-and-bars count is the one the enumeration
        # validates; the alternative printed form overcounts here
        assert _printed_binomial_count(orthants, 5) != len(enumerate_slice(example, 5))
        rng = random.Random(812)
        for trial in range(100):
            _check_decomposition(_random_polyhedron(rng))


def test_criterion_9_face_numbers():
    with criterion(9, "face orbit counts: oracle equality and predictive fits"):
        for system in REFERENCE_SYSTEMS:
            brute_cache = {
                n: brute_f_vector(system, n) for n in range(system.m, 7)
            }
            for j in range(0, 4):
                for n in range(system.m, 7):
                    assert face_orbit_count(system, j, n) == brute_cache[n].get(j, 0)
                lo = max(system.m, j + 1)
                series = {n: face_orbit_count(system, j, n) for n in range(lo, lo + 4)}
                poly, _ = fit_polynomial(series, 2)
                for n in (lo + 4, lo + 5):
                    assert poly(n) == face_orbit_count(system, j, n)


def test_criterion_10_min_degree_linearity():
    with criterion(10, "least generator degree: linear on a window of length >= 4"):
        for system in REFERENCE_SYSTEMS:
            ns = range(system.m, system.m + 8)
            degrees = {n: min_degree_gens(system, n)[0] for n in ns}
            slope, intercept, window = min_degree_line(degrees, system.c)
            assert window[1] - window[0] >= 3
            assert 0 <= slope <= system.c

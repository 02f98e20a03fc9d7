"""Brute-force ground truth at desk scale: the package's one home of references.

Monomials in the c x n variable grid are single machine-word bitmasks,
column j (0-based) occupying bits [j*c, (j+1)*c).  Duals, minimal
generators, f-vectors, divisibility and avoidance are computed from first
principles by subset tests and permutation search; every symmetric
computation in the fast pipeline is cross-checked against these.  Of the
pipeline modules only cli imports this one, for the verify command.

The expanded generator set is a union of whole column orbits, so whether a
mask is a face, meets every generator, or is minimal with that property is
the same for every mask of its orbit.  brute_f_vector and
brute_min_gens_dual therefore visit one mask per orbit, the sorted column
multisets: C(2^c + n - 1, n) masks.  brute_dual_involution_check still
scans all 2^(c*n) masks, because it tests that the dual it finds is closed
under column permutations; it expands each orbit of the dual once.  The
permutation searches (brute_force_avoidance, and brute_divides on
complemented columns) try all n! matchings.

The lattice-point references for lattice_geometry test points against the
constraints one by one: in_polyhedron and in_orthant are membership, and
enumerate_slice lists a slice's points by walking every composition of n
above the singleton bounds, at most MAX_SLICE_BOX values per coordinate.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from typing import Iterable, Iterator, Optional, Sequence

from . import boolean_poset as bp
from .errors import CapError, InputError, WidthError
from .lattice_geometry import Orthant, SumPolyhedron
from .orbit_monomials import GeneratorSystem, TypeVector

MAX_BITS_EXPAND = 22
MAX_BITS_SCAN = 20
MAX_BITS_INVOLUTION = 18
MAX_N_PERMUTATIONS = 7
BRUTE_MAX_N = 8
MAX_SLICE_BOX = 10**6


def _check_bits(c: int, n: int, cap: int) -> None:
    if c * n > cap:
        raise CapError(f"instance c*n={c * n} exceeds the brute-force cap {cap}")


def columns_of_mask(mask: int, c: int, n: int) -> list[int]:
    full = bp.full_mask(c)
    return [(mask >> (j * c)) & full for j in range(n)]


def mask_of_columns(cols: Sequence[int], c: int) -> int:
    mask = 0
    for j, col in enumerate(cols):
        mask |= col << (j * c)
    return mask


def type_vector_of_mask(mask: int, c: int, n: int) -> TypeVector:
    counts: dict[int, int] = {}
    for col in columns_of_mask(mask, c, n):
        if col:
            counts[col] = counts.get(col, 0) + 1
    return TypeVector.from_counts(c, counts)


def expand_orbit(tv: TypeVector, n: int) -> frozenset:
    """All distinct column arrangements of the orbit, as monomial masks."""
    if n < tv.weight:
        raise WidthError(f"width n={n} below weight {tv.weight}")
    _check_bits(tv.c, n, MAX_BITS_EXPAND)
    multiset: dict[int, int] = dict(tv.items)
    if n > tv.weight:
        multiset[0] = n - tv.weight
    c = tv.c
    arrangement: list[int] = []
    out: set[int] = set()

    def rec():
        if len(arrangement) == n:
            out.add(mask_of_columns(arrangement, c))
            return
        for col in sorted(multiset):
            if multiset[col]:
                multiset[col] -= 1
                arrangement.append(col)
                rec()
                arrangement.pop()
                multiset[col] += 1

    rec()
    return frozenset(out)


def brute_in_dual(gens_expanded: Iterable[int], b: int) -> bool:
    """Dual membership from first principles: b meets every expanded generator."""
    return all(g & b for g in gens_expanded)


def expanded_generators(system: GeneratorSystem, n: int) -> list[int]:
    """Every monomial mask in the orbits of the system's generators, ascending."""
    gens: set[int] = set()
    for a in system.generators:
        gens.update(expand_orbit(a, n))
    return sorted(gens)


def _orbit_representatives(c: int, n: int) -> Iterator[int]:
    """One mask per column-permutation orbit: the sorted column multisets."""
    for cols in combinations_with_replacement(range(1 << c), n):
        yield mask_of_columns(cols, c)


def _cover_bits(gens: Sequence[int], size: int) -> list[int]:
    """cover[i] = set of generator indices holding bit i, as a bitset."""
    cover = [0] * size
    for gi, g in enumerate(gens):
        m = g
        while m:
            low = m & -m
            cover[low.bit_length() - 1] |= 1 << gi
            m ^= low
    return cover


def _coverage_table(gens: Sequence[int], size: int) -> tuple[list[int], int]:
    """covered[B] = set of generator indices B meets, as a bitset."""
    cover = _cover_bits(gens, size)
    covered = [0] * (1 << size)
    for mask in range(1, 1 << size):
        low = mask & -mask
        covered[mask] = covered[mask ^ low] | cover[low.bit_length() - 1]
    return covered, (1 << len(gens)) - 1


def _minimal_hitting_sets(gens: Sequence[int], size: int) -> list[int]:
    """Masks meeting every generator whose single-bit reductions all fail to."""
    covered, fullset = _coverage_table(gens, size)
    out = []
    for mask in range(1 << size):
        if covered[mask] != fullset:
            continue
        m = mask
        minimal = True
        while m:
            low = m & -m
            if covered[mask ^ low] == fullset:
                minimal = False
                break
            m ^= low
        if minimal:
            out.append(mask)
    return out


def brute_min_gens_dual(system: GeneratorSystem, n: int) -> frozenset:
    """Orbit classes of the dual's minimal generators, one mask per orbit."""
    _check_bits(system.c, n, MAX_BITS_SCAN)
    if n < system.m:
        raise WidthError(f"width n={n} below the system's stability width {system.m}")
    gens = expanded_generators(system, n)
    cover = _cover_bits(gens, system.c * n)
    fullset = (1 << len(gens)) - 1
    out = []
    for mask in _orbit_representatives(system.c, n):
        covers = []
        met = met_twice = 0
        m = mask
        while m:
            low = m & -m
            meets = cover[low.bit_length() - 1]
            covers.append(meets)
            met_twice |= met & meets
            met |= meets
            m ^= low
        # Dropping one bit of the mask leaves some generator unmet iff that
        # bit is the only one meeting it.
        if met == fullset and all(meets & ~met_twice for meets in covers):
            out.append(type_vector_of_mask(mask, system.c, n))
    return frozenset(out)


def brute_force_avoidance(
    f: Sequence[int], g: Sequence[int]
) -> Optional[list[int]]:
    """First permutation sigma, over all |N|! of them, with f[i] & g[sigma[i]] == 0."""
    if len(f) != len(g):
        raise InputError("f and g must have the same length")
    n = len(f)
    if n > BRUTE_MAX_N:
        raise CapError(f"brute-force avoidance capped at N<={BRUTE_MAX_N}")
    for perm in permutations(range(n)):
        if all(f[i] & g[perm[i]] == 0 for i in range(n)):
            return list(perm)
    return None


def brute_divides(bp_tv: TypeVector, b: TypeVector, n: int) -> bool:
    """Exhaustive column matching over all n! permutations.

    A column fits inside another iff it misses the other's complement, so
    this is the avoidance search against b's complemented columns.
    """
    if n > MAX_N_PERMUTATIONS:
        raise CapError(f"permutation search capped at n<={MAX_N_PERMUTATIONS}")
    if n < max(bp_tv.weight, b.weight):
        raise WidthError("width below weight")
    full = bp.full_mask(b.c)
    outside = [full ^ col for col in standard_columns(b, n)]
    return brute_force_avoidance(standard_columns(bp_tv, n), outside) is not None


def standard_columns(tv: TypeVector, n: int) -> list[int]:
    """Canonical n columns: blocks in decreasing standard order, zero-padded."""
    if n < tv.weight:
        raise WidthError(f"width n={n} below weight {tv.weight}")
    cols: list[int] = []
    for mask, k in tv.items:
        cols.extend([mask] * k)
    cols.extend([0] * (n - len(cols)))
    return cols


def brute_f_vector(system: GeneratorSystem, n: int) -> dict[int, int]:
    """Orbit counts of faces by dimension (degree - 1), one mask per orbit.

    A face is a mask with no expanded generator as a submask.
    """
    _check_bits(system.c, n, MAX_BITS_SCAN)
    gens = expanded_generators(system, n)
    counts: dict[int, int] = {}
    for mask in _orbit_representatives(system.c, n):
        outside = ~mask
        if all(g & outside for g in gens):
            j = mask.bit_count() - 1
            counts[j] = counts.get(j, 0) + 1
    return dict(sorted(counts.items()))


def min_monomial_generators(masks: Iterable[int]) -> set[int]:
    """Members not properly divisible by another member."""
    items = set(masks)
    return {
        m
        for m in items
        if not any(other != m and other & ~m == 0 for other in items)
    }


def brute_dual_involution_check(system: GeneratorSystem, n: int) -> bool:
    """Dual of the dual returns the original minimal generators.

    Also checks that the brute dual's generator set is closed under column
    permutations, i.e. remains symmetric.
    """
    _check_bits(system.c, n, MAX_BITS_INVOLUTION)
    size = system.c * n
    gens = expanded_generators(system, n)
    original_min = min_monomial_generators(gens)
    dual_min = _minimal_hitting_sets(gens, size)
    dual_set = set(dual_min)
    # Every mask of an orbit expands to that same orbit, so each is checked once.
    checked: set[int] = set()
    for mask in dual_min:
        if mask in checked:
            continue
        orbit = expand_orbit(type_vector_of_mask(mask, system.c, n), n)
        if not orbit <= dual_set:
            return False
        checked |= orbit
    double = set(_minimal_hitting_sets(sorted(dual_set), size))
    return double == original_min


# -- lattice points ------------------------------------------------------------


def _coord_sum(point: Sequence[int], mask: int) -> int:
    total = 0
    i = 0
    while mask:
        if mask & 1:
            total += point[i]
        mask >>= 1
        i += 1
    return total


def in_polyhedron(p: SumPolyhedron, point: Sequence[int]) -> bool:
    """Does the point meet every lower and upper bound of p?"""
    if len(point) != p.k:
        raise InputError(f"point has {len(point)} coordinates, expected {p.k}")
    return all(_coord_sum(point, mask) >= bound for mask, bound in p.lower) and all(
        _coord_sum(point, mask) <= bound for mask, bound in p.upper
    )


def in_orthant(orth: Orthant, point: Sequence[int]) -> bool:
    """Does the point equal the fixed values and reach the bounded ones?"""
    return all(point[c - 1] == v for c, v in orth.fixed) and all(
        point[c - 1] >= v for c, v in orth.bounded
    )


def orthant_apex(orth: Orthant) -> tuple[int, ...]:
    """The orthant's least point, coordinates 1..k in order."""
    return tuple(v for _, v in sorted(orth.fixed + orth.bounded))


def enumerate_slice(p: SumPolyhedron, n: int) -> list[tuple[int, ...]]:
    """All integer points of p with coordinate sum n, by direct filtering."""
    lower = dict(p.lower)
    if lower.pop(0, 0) > 0:
        return []
    lows = [lower.get(1 << j) for j in range(p.k)]
    if None in lows:
        raise InputError("every coordinate needs its singleton lower bound")
    span = n - sum(lows)
    if span < 0:
        return []
    if span + 1 > MAX_SLICE_BOX:
        raise CapError(f"slice box exceeds {MAX_SLICE_BOX} per coordinate")
    out = []
    point = [0] * p.k

    def rec(idx: int, remaining: int):
        if idx == p.k - 1:
            point[idx] = remaining
            if remaining >= lows[idx] and in_polyhedron(p, point):
                out.append(tuple(point))
            return
        tail_low = sum(lows[idx + 1 :])
        for v in range(lows[idx], remaining - tail_low + 1):
            point[idx] = v
            rec(idx + 1, remaining - v)

    rec(0, n)
    out.sort()
    return out

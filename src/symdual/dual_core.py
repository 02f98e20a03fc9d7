"""Divisibility and minimal orbit generators of Alexander duals.

Everything here runs on TypeVectors.  Write k_T for the column counts of a
generator orbit and l_T for those of a candidate monomial.  Divisibility is
the avoidance check, avoidance.hall_violation, on the two count vectors: a
divides b up to column permutation iff no proper nonempty order ideal J of
2^[c] has an a-sum above its b-sum (J = 2^[c] holds with equality and is
skipped).  Dual membership is the same check with the complemented counts
of b on the right: b is in the dual of the one-orbit ideal of a iff some
proper nonempty J has sum_{T in J} k_T > sum_{T in J} l_{T^C}, with the
implicit l_empty = n - weight padding, and a multi-orbit dual is the
intersection of the one-orbit duals.  No pipeline step tests membership
itself, so that lemma lives in the tests, held to the oracle.

On top of divisibility sit the minimal generating sets, and min_gens picks the
path from the input.  A one-generator system takes the closed form, one
class per antichain cut out by inequalities on the column counts.  Two or
more generators take the ideal-tuple enumeration, pruned to minimality by
divisibility against the smaller survivors.  The enumeration takes, per
generator, only the ideals generated inside its support, and
general_candidates shows why the survivors are the same as over all ideals.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from . import boolean_poset as bp
from .avoidance import hall_violation
from .config import tuple_enum_cap
from .errors import CapError, InputError, WidthError
from .orbit_monomials import GeneratorSystem, TypeVector


def k_of_antichain(tv: TypeVector, antichain: int) -> int:
    """Sum of counts over supports meeting every member of the antichain family.

    Those are exactly the supports T whose complement admits no member of
    the antichain below it.
    """
    members = bp.members(antichain)
    return sum(
        k for mask, k in tv.items if all(mask & s for s in members)
    )


def divides_up_to_sym(bp_tv: TypeVector, b: TypeVector, n: int) -> bool:
    """Does bp_tv's monomial divide some column permutation of b's at width n?"""
    if bp_tv.c != b.c:
        raise InputError("ambient sizes differ")
    if n < max(bp_tv.weight, b.weight):
        raise WidthError(f"width n={n} below weight {max(bp_tv.weight, b.weight)}")
    return hall_violation(bp_tv.c, bp_tv.items, b.items) is None


def superset_sums(tv: TypeVector) -> list[int]:
    """v[T] = sum of counts over supports containing T (v[0] is the weight)."""
    c = tv.c
    v = [0] * (1 << c)
    for mask, k in tv.items:
        v[mask] = k
    for b in range(c):
        bit = 1 << b
        for t in range(1 << c):
            if not t & bit:
                v[t] += v[t | bit]
    return v


def _check_enumerable(c: int, m: int, n: int) -> None:
    """Guards shared by both minimal-generator paths: the c cap, then width n >= m."""
    cap = tuple_enum_cap()
    if c > cap:
        raise CapError(f"ideal-tuple enumeration capped at c<={cap}, got c={c}")
    if n < m:
        raise WidthError(f"width n={n} below the system's stability width {m}")


# -- one orbit ---------------------------------------------------------------


def _compositions(total: int, parts: int, minimum: int) -> Iterator[tuple[int, ...]]:
    """All tuples of the given length with entries >= minimum summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def one_orbit_min_gens(a: TypeVector, n: int) -> tuple[TypeVector, ...]:
    """Minimal orbit generators of the dual of a one-orbit ideal at width n.

    Per nonempty antichain C with k_C >= 1 the members are the column-count
    assignments (j_T >= 1, T in C) summing to n + 1 - k_C that survive, for
    every antichain C' inside the lower closure of C (other than C itself),
    the cut condition  sum over C outside the closure of C' of j_T  >
    k_{C'} - k_C.  Antichains C' covering all of C impose j-independent
    conditions and can empty a class outright.
    """
    c = a.c
    _check_enumerable(c, a.weight, n)
    # Each antichain with the ideal it generates and its k.
    rows = [
        (ac, ideal, k_of_antichain(a, ac))
        for ac, ideal in zip(bp.nonempty_antichains(c), bp.proper_nonempty_ideals(c))
    ]
    out: list[TypeVector] = []
    for chain, _, k_chain in rows:
        if k_chain < 1:
            continue
        target = n + 1 - k_chain
        members = bp.sort_standard(bp.members(chain))
        if target < len(members):
            continue
        lower = bp.lower_closure(chain, c)
        cuts: dict[int, int] = {}
        dead = False
        for other, closure, k_other in rows:
            if other == chain or other & ~lower:
                continue
            outside = chain & ~closure
            bound = k_other - k_chain
            if not outside:
                if bound >= 0:
                    dead = True
                    break
                continue
            if outside == chain:
                # The full sum is n + 1 - k_C > bound for every n >= weight.
                continue
            if bound >= cuts.get(outside, -1):
                cuts[outside] = bound
        if dead:
            continue
        cut_list = [
            (tuple(i for i, t in enumerate(members) if cut >> t & 1), bound)
            for cut, bound in cuts.items()
        ]
        for combo in _compositions(target, len(members), 1):
            if all(sum(combo[i] for i in idx) > bound for idx, bound in cut_list):
                out.append(TypeVector(c, tuple(zip(members, combo))))
    out.sort(key=TypeVector.sort_key)
    return tuple(out)


# -- general case -------------------------------------------------------------


def _strict_solutions(
    allowed: list[tuple[int, tuple[int, ...]]], caps: tuple[int, ...]
) -> list[tuple[tuple[int, int], ...]]:
    """Assignments l_s >= 0 to the (s, rows) of allowed with, per row i, the
    sum over its members <= caps[i]; each as its nonzero (s, l_s) pairs."""
    out = []
    fixed = []
    remaining = list(caps)

    def rec(idx: int) -> None:
        if idx == len(allowed):
            out.append(tuple(fixed))
            return
        s, rows = allowed[idx]
        top = min(remaining[i] for i in rows)
        rec(idx + 1)
        for v in range(1, top + 1):
            for i in rows:
                remaining[i] -= 1
            fixed.append((s, v))
            rec(idx + 1)
            fixed.pop()
        for i in rows:
            remaining[i] += top

    rec(0)
    return out


def general_candidates(system: GeneratorSystem, n: int) -> frozenset:
    """Orbit candidates generating the dual of a multi-orbit ideal at width n.

    Generator g's dual is the union, over the proper nonempty order ideals J
    with k_J = sum_{T in J} k_T >= 1, of the upward-closed regions
    {l : sum_{T in J} l_{T^C} <= k_J - 1}.  Only the ideals generated inside
    supp(g) are taken.  That loses nothing: the upper closure J* of
    J & supp(g) lies in J, is still proper and nonempty, has k_{J*} = k_J,
    and its left-hand sum can only drop, so J's region lies inside J*'s.
    Each generator's union of regions is unchanged, and so is the dual, the
    union of the tuple intersections.

    For every tuple, one option per generator, solve the strict system
    bounding the column counts on the complement region (supports
    restricted to the minimal elements of the region's overlap cells), then
    distribute the remaining n - fixed columns freely over the antichain
    generating the untouched region.  The union over tuples lies in the dual
    and generates it; it is deduplicated but not yet minimal.
    """
    c = system.c
    _check_enumerable(c, system.m, n)
    order, rank = bp.standard_order(c), bp.standard_rank(c)
    options = []
    for g in system.generators:
        ideals = bp.ideals_generated_in(c, sum(1 << t for t, _ in g.items))
        options.append([
            (bp.complement_family(j, c), sum(k for t, k in g.items if j >> t & 1) - 1)
            for j in ideals
        ])
    universe = (1 << (1 << c)) - 1
    out: set[TypeVector] = set()
    for tup in product(*options):
        # Split 2^[c] by which complement families hold each mask.  The
        # cell in none of them is the untouched region; every family holds 0.
        cells = [(universe, 0)]
        for i, (bar, _) in enumerate(tup):
            split = []
            for members, rows in cells:
                if members & bar:
                    split.append((members & bar, rows | 1 << i))
                if members & ~bar:
                    split.append((members & ~bar, rows))
            cells = split
        allowed = [
            (s, tuple(i for i in range(len(tup)) if rows >> i & 1))
            for members, rows in cells if rows
            for s in bp.members(bp.minimal_elements(members, c))
        ]
        free = bp.minimal_elements(next(m for m, rows in cells if not rows), c)
        chain = [s for s in order if free >> s & 1]
        for fixed in _strict_solutions(allowed, tuple(cap for _, cap in tup)):
            free_total = n - sum(v for _, v in fixed)
            if free_total < 0:
                continue
            base = [(s, v) for s, v in fixed if s]
            for combo in _compositions(free_total, len(chain), 0):
                items = base + [(s, v) for s, v in zip(chain, combo) if v]
                if items:
                    items.sort(key=lambda item: rank[item[0]])
                    out.add(TypeVector(c, tuple(items)))
    return frozenset(out)


def min_gens(system: GeneratorSystem, n: int) -> tuple[TypeVector, ...]:
    """The minimal orbit generating set of the dual at width n, sorted.

    One generator takes the closed form of one_orbit_min_gens; two or more
    take the ideal-tuple enumeration of _general_min_gens.
    """
    if len(system.generators) == 1:
        return one_orbit_min_gens(system.generators[0], n)
    return _general_min_gens(system, n)


def _general_min_gens(system: GeneratorSystem, n: int) -> tuple[TypeVector, ...]:
    """min_gens by candidate enumeration and pruning, for any number of generators.

    A candidate survives iff no candidate orbit of smaller degree divides it
    up to symmetry; since the candidate set generates, the survivors are
    exactly the minimal generators.  Distinct orbits of equal degree never
    divide each other, and divisibility is transitive, so each candidate is
    probed only against the survivors of strictly smaller degree, with a
    weight test and a superset-sum prefilter ahead of the full test.
    """
    cands = general_candidates(system, n)
    kept: list[tuple] = []
    for b in sorted(cands, key=TypeVector.sort_key):
        degree, weight, vb = b.degree, b.weight, superset_sums(b)
        dominated = False
        for da, wa, support, va, a in kept:
            if da >= degree:
                break
            if wa > weight or any(va[t] > vb[t] for t in support):
                continue
            if divides_up_to_sym(a, b, n):
                dominated = True
                break
        if not dominated:
            kept.append((degree, weight, tuple(m for m, _ in b.items), vb, b))
    return tuple(row[-1] for row in kept)


def min_degree_gens(
    system: GeneratorSystem, n: int
) -> tuple[int, tuple[TypeVector, ...]]:
    """Least generator degree of the dual at width n, with the orbits attaining it."""
    gens = min_gens(system, n)
    d = min(tv.degree for tv in gens)
    return d, tuple(tv for tv in gens if tv.degree == d)

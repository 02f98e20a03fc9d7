"""Membership, divisibility and minimal orbit generators of Alexander duals.

Everything here runs on TypeVectors.  Write k_T for the column counts of a
generator orbit and l_T for those of a candidate monomial, with the implicit
l_empty = n - weight padding.  Membership and divisibility are both the
avoidance check, avoidance.hall_violation, with other right-hand sides:

* b is in the dual of the one-orbit ideal of a iff some proper nonempty
  order ideal J of 2^[c] has sum_{T in J} k_T > sum_{T in J} l_{T^C};
* the dual of a multi-orbit ideal is the intersection over the orbit
  generators;
* a divides b up to column permutation iff no proper nonempty order ideal J
  has an a-sum above its b-sum (J = 2^[c] holds with equality and is
  skipped).

On top of those sit the minimal generating sets, and min_gens picks the
path from the input.  A one-generator system takes the closed form, one
class per antichain cut out by inequalities on the column counts.  Two or
more generators take the ideal-tuple enumeration, pruned to minimality by
pairwise divisibility.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from . import boolean_poset as bp
from .avoidance import hall_violation
from .config import tuple_enum_cap
from .errors import CapError, InputError, WidthError
from .orbit_monomials import GeneratorSystem, TypeVector


def k_of_antichain(tv: TypeVector, antichain: Iterable[int]) -> int:
    """Sum of counts over supports meeting every member of the antichain.

    Those are exactly the supports T whose complement admits no member of
    the antichain below it.
    """
    members = tuple(antichain)
    return sum(
        k for mask, k in tv.items if all(mask & s for s in members)
    )


def in_dual_single(a: TypeVector, b: TypeVector, n: int) -> bool:
    """Is the orbit monomial of b in the dual of the one-orbit ideal of a at width n?"""
    if a.c != b.c:
        raise InputError("ambient sizes differ")
    if n < max(a.weight, b.weight):
        raise WidthError(f"width n={n} below weight {max(a.weight, b.weight)}")
    full = bp.full_mask(a.c)
    l_bar = {full ^ t: v for t, v in b.items}
    l_bar[full] = n - b.weight
    return hall_violation(a.c, a.counts, l_bar) is not None


def in_dual(system: GeneratorSystem, b: TypeVector, n: int) -> bool:
    """Membership in the dual of a multi-orbit ideal: all one-orbit duals at once."""
    return all(in_dual_single(a, b, n) for a in system.generators)


def divides_up_to_sym(bp_tv: TypeVector, b: TypeVector, n: int) -> bool:
    """Does bp_tv's monomial divide some column permutation of b's at width n?"""
    if bp_tv.c != b.c:
        raise InputError("ambient sizes differ")
    if n < max(bp_tv.weight, b.weight):
        raise WidthError(f"width n={n} below weight {max(bp_tv.weight, b.weight)}")
    return hall_violation(bp_tv.c, bp_tv.counts, b.counts) is None


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


def _check_enumerable(c: int, m: int, n: int, max_c: int | None) -> None:
    """Guards shared by both minimal-generator paths: the c cap, then width n >= m."""
    cap = tuple_enum_cap(max_c)
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


def one_orbit_min_gens(
    a: TypeVector, n: int, max_c: int | None = None
) -> tuple[TypeVector, ...]:
    """Minimal orbit generators of the dual of a one-orbit ideal at width n.

    Per nonempty antichain C with k_C >= 1 the members are the column-count
    assignments (j_T >= 1, T in C) summing to n + 1 - k_C that survive, for
    every antichain C' inside the lower closure of C (other than C itself),
    the cut condition  sum over C outside the closure of C' of j_T  >
    k_{C'} - k_C.  Antichains C' covering all of C impose j-independent
    conditions and can empty a class outright.
    """
    c = a.c
    _check_enumerable(c, a.weight, n, max_c)
    antichains = [
        ac for ac in bp.nonempty_antichains(c) if 0 not in ac
    ]
    k_of = {ac: k_of_antichain(a, ac) for ac in antichains}
    eligible = [ac for ac in antichains if k_of[ac] >= 1]
    out: list[TypeVector] = []
    for chain in eligible:
        target = n + 1 - k_of[chain]
        members = bp.sort_standard(chain)
        if target < len(members):
            continue
        lower = bp.lower_closure(chain, c)
        cuts: dict[frozenset, int] = {}
        dead = False
        for other in antichains:
            if other == chain or not other <= lower:
                continue
            outside = frozenset(
                t for t in chain if not any(bp.is_subset(s, t) for s in other)
            )
            bound = k_of[other] - k_of[chain]
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
        cut_list = [(tuple(members.index(t) for t in cut), bound)
                    for cut, bound in cuts.items()]
        for combo in _compositions(target, len(members), 1):
            if all(sum(combo[i] for i in idx) > bound for idx, bound in cut_list):
                out.append(
                    TypeVector.from_counts(c, dict(zip(members, combo)))
                )
    out.sort(key=TypeVector.sort_key)
    return tuple(out)


# -- general case -------------------------------------------------------------


@lru_cache(maxsize=None)
def _ideal_tables(c: int):
    """Proper nonempty ideals of 2^[c] with their complement families."""
    ideals = bp.proper_nonempty_ideals(c)
    bars = tuple(frozenset(bp.complement(t, c) for t in j) for j in ideals)
    return ideals, bars


def _strict_solutions(
    allowed: list[int], caps: list[int], member_rows: list[list[int]]
) -> Iterator[dict[int, int]]:
    """Assignments l_S >= 0 over allowed with, per row i, sum over its members <= caps[i]."""
    assignment: dict[int, int] = {}
    remaining = list(caps)

    def rec(idx: int) -> Iterator[dict[int, int]]:
        if idx == len(allowed):
            yield dict(assignment)
            return
        s = allowed[idx]
        rows = member_rows[idx]
        top = min((remaining[i] for i in rows), default=0)
        for v in range(top + 1):
            assignment[s] = v
            for i in rows:
                remaining[i] -= v
            yield from rec(idx + 1)
            for i in rows:
                remaining[i] += v
        del assignment[s]

    yield from rec(0)


def general_candidates(
    system: GeneratorSystem, n: int, max_c: int | None = None
) -> frozenset:
    """Orbit candidates generating the dual of a multi-orbit ideal at width n.

    For every s-tuple of proper nonempty order ideals, solve the strict
    system bounding the column counts on the complement region (supports
    restricted to the minimal elements of the region's overlap cells), then
    distribute the remaining n - fixed columns freely over the antichain
    generating the untouched region.  The union over tuples generates the
    dual; it is deduplicated but not yet minimal.
    """
    c = system.c
    _check_enumerable(c, system.m, n, max_c)
    ideals, bars = _ideal_tables(c)
    gens = system.generators
    ksums = [
        [sum(g.counts.get(t, 0) for t in j) for j in ideals] for g in gens
    ]
    all_nonempty = frozenset(range(1, 1 << c))
    out: set[TypeVector] = set()
    seen_families: set = set()
    for tup in product(range(len(ideals)), repeat=len(gens)):
        caps = []
        skip = False
        for gi, ji in enumerate(tup):
            total = ksums[gi][ji]
            if total == 0:
                skip = True
                break
            caps.append(total - 1)
        if skip:
            continue
        tup_bars = [bars[ji] for ji in tup]
        region: set[int] = set()
        for bar in tup_bars:
            region.update(bar)
        cells: dict[frozenset, list[int]] = {}
        for s in region:
            key = frozenset(i for i, bar in enumerate(tup_bars) if s in bar)
            cells.setdefault(key, []).append(s)
        allowed = sorted(
            s
            for members in cells.values()
            for s in bp.minimal_elements(members)
        )
        free_chain = tuple(bp.sort_standard(
            bp.minimal_elements(all_nonempty - region)
        ))
        member_rows = [
            [i for i, bar in enumerate(tup_bars) if s in bar] for s in allowed
        ]
        for solution in _strict_solutions(allowed, caps, member_rows):
            fixed = tuple(sorted((s, v) for s, v in solution.items() if v))
            family = (fixed, free_chain)
            if family in seen_families:
                continue
            seen_families.add(family)
            spent = sum(v for _, v in fixed)
            free_total = n - spent
            if free_total < 0:
                continue
            base = {s: v for s, v in fixed if s != 0}
            for combo in _compositions(free_total, len(free_chain), 0):
                counts = dict(base)
                for s, v in zip(free_chain, combo):
                    if v:
                        counts[s] = v
                if counts:
                    out.add(TypeVector.from_counts(c, counts))
    return frozenset(out)


def min_gens(
    system: GeneratorSystem, n: int, max_c: int | None = None
) -> tuple[TypeVector, ...]:
    """The minimal orbit generating set of the dual at width n, sorted.

    One generator takes the closed form of one_orbit_min_gens; two or more
    take the ideal-tuple enumeration of _general_min_gens.
    """
    if len(system.generators) == 1:
        return one_orbit_min_gens(system.generators[0], n, max_c=max_c)
    return _general_min_gens(system, n, max_c=max_c)


def _general_min_gens(
    system: GeneratorSystem, n: int, max_c: int | None = None
) -> tuple[TypeVector, ...]:
    """min_gens by candidate enumeration and pruning, for any number of generators.

    A candidate survives iff no other candidate orbit properly divides it up
    to symmetry; since the candidate set generates, the survivors are
    exactly the minimal generators.  Distinct orbits of equal degree never
    divide each other, so only strictly smaller degrees are probed, with a
    superset-sum prefilter ahead of the full divisibility test.
    """
    cands = sorted(general_candidates(system, n, max_c=max_c), key=TypeVector.sort_key)
    sums = {tv: superset_sums(tv) for tv in cands}
    kept: list[TypeVector] = []
    for b in cands:
        vb = sums[b]
        dominated = False
        for a in cands:
            if a.degree >= b.degree:
                break
            if a.weight > b.weight:
                continue
            va = sums[a]
            if any(va[t] > vb[t] for t in a.support):
                continue
            if divides_up_to_sym(a, b, n):
                dominated = True
                break
        if not dominated:
            kept.append(b)
    return tuple(kept)


def min_degree_gens(
    system: GeneratorSystem, n: int, max_c: int | None = None
) -> tuple[int, tuple[TypeVector, ...]]:
    """Least generator degree of the dual at width n, with the orbits attaining it."""
    gens = min_gens(system, n, max_c=max_c)
    d = min(tv.degree for tv in gens)
    return d, tuple(tv for tv in gens if tv.degree == d)

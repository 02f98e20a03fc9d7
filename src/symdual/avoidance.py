"""Avoidance up to symmetry.

Given two maps f, g from a finite index set N into subsets of [c], decide
whether some permutation sigma of N makes f(i) and g(sigma(i)) disjoint for
every i, and construct such a sigma when one exists.  Feasibility is a
Hall-type condition: for every order ideal J of 2^[c],

    sum_{T in J} |f^-1(T)|  <=  sum_{T in J} |g^-1(T^C)|.

The ideal J = 2^[c] holds with equality whenever the totals agree, and
J = {} is trivial, so only proper nonempty ideals are checked; those are
generated by nonempty antichains.

hall_violation is the package's one Hall check; dual membership and
divisibility up to symmetry (dual_core) call it with other right-hand sides.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Mapping, Optional, Sequence

from . import boolean_poset as bp
from .errors import CapError, InputError

BRUTE_MAX_N = 8


def hall_violation(
    c: int, k: Mapping[int, int], r: Mapping[int, int]
) -> Optional[frozenset]:
    """First J in bp.proper_nonempty_ideals(c) with sum_J k_T > sum_J r_T, or None.

    k and r map subset masks to nonnegative counts.  Only the ideals whose
    minimal elements lie in supp(k) are visited.  That finds the same first
    violator: shrinking a violator J to the upper closure of J & supp(k)
    keeps its k-sum, does not raise its r-sum, and sorts no later.
    """
    ks = [(t, v) for t, v in k.items() if t and v]
    for members in bp.ideals_generated_in(c, frozenset(t for t, _ in ks)):
        lhs = sum(v for t, v in ks if members >> t & 1)
        if lhs > sum(v for t, v in r.items() if members >> t & 1):
            return frozenset(t for t in range(1 << c) if members >> t & 1)
    return None


def _violating_ideal(c: int, k: Mapping[int, int], l: Mapping[int, int]):
    """First proper nonempty ideal J with sum_J k_T > sum_J l_{T^C}, or None."""
    bp.check_ideal_cap(c)
    full = bp.full_mask(c)
    return hall_violation(c, k, {full ^ t: v for t, v in l.items()})


def violating_order_ideal(
    f: Sequence[int], g: Sequence[int], c: int
) -> Optional[frozenset]:
    """Certificate of infeasibility for find_avoiding_permutation's input, or None.

    The first proper nonempty ideal J with more values of f in J than values
    of g whose complements lie in J.
    """
    if len(f) != len(g):
        raise InputError("f and g must have the same length")
    return _violating_ideal(c, Counter(f), Counter(g))


def _check_witness(f, g, sigma):
    assert all(f[i] & g[sigma[i]] == 0 for i in range(len(f))), (
        "constructed permutation fails disjointness"
    )


def find_avoiding_permutation(
    f: Sequence[int], g: Sequence[int], c: int
) -> Optional[list[int]]:
    """Permutation sigma (as a list, i -> sigma[i]) with f[i] & g[sigma[i]] == 0, or None.

    Constructive: repeatedly pair a nonempty f-fiber with a compatible
    g-fiber; when removing the pair breaks feasibility, the tight ideal
    splits the instance into two independent halves.  Ties are broken by
    the standard subset order, then by first index.  Implemented with an
    explicit worklist so the recursion depth never exceeds |N|.
    """
    if len(f) != len(g):
        raise InputError("f and g must have the same length")
    bp.check_ambient(c)
    n = len(f)
    if _violating_ideal(c, Counter(f), Counter(g)) is not None:
        return None
    sigma: list[Optional[int]] = [None] * n
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
        (tuple(range(n)), tuple(range(n)))
    ]
    while stack:
        fi, gi = stack.pop()
        if not fi:
            continue
        nonempty = [i for i in fi if f[i]]
        if not nonempty:
            for i, j in zip(fi, gi):
                sigma[i] = j
            continue
        # Largest nonempty f-value in the standard order, then first index.
        t0 = min((f[i] for i in nonempty), key=bp.subset_sort_key)
        i0 = next(i for i in fi if f[i] == t0)
        # g-values disjoint from t0 are exactly those whose complement contains t0.
        candidates = [j for j in gi if g[j] & t0 == 0]
        assert candidates, "feasible instance must admit a compatible g-fiber"
        s0c = min((g[j] for j in candidates), key=lambda m: bp.subset_sort_key(bp.complement(m, c)))
        j0 = next(j for j in candidates if g[j] == s0c)
        rest_f = tuple(i for i in fi if i != i0)
        rest_g = tuple(j for j in gi if j != j0)
        ideal = _violating_ideal(
            c, Counter(f[i] for i in rest_f), Counter(g[j] for j in rest_g)
        )
        if ideal is None:
            sigma[i0] = j0
            stack.append((rest_f, rest_g))
            continue
        # Tight split: f-indices inside the ideal pair with g-indices whose
        # complements land inside it; the two halves are independent.
        n1 = tuple(i for i in fi if f[i] in ideal)
        n2 = tuple(i for i in fi if f[i] not in ideal)
        m1 = tuple(j for j in gi if bp.complement(g[j], c) in ideal)
        m2 = tuple(j for j in gi if bp.complement(g[j], c) not in ideal)
        assert len(n1) == len(m1) and n1 and n2, "tight ideal must split properly"
        stack.append((n1, m1))
        stack.append((n2, m2))
    out = [j for j in sigma if j is not None]
    assert len(out) == n
    _check_witness(f, g, out)
    return out


def brute_force_avoidance(
    f: Sequence[int], g: Sequence[int]
) -> Optional[list[int]]:
    """Exhaustive search over all |N|! permutations; test oracle."""
    if len(f) != len(g):
        raise InputError("f and g must have the same length")
    n = len(f)
    if n > BRUTE_MAX_N:
        raise CapError(f"brute-force avoidance capped at N<={BRUTE_MAX_N}")
    for perm in permutations(range(n)):
        if all(f[i] & g[perm[i]] == 0 for i in range(n)):
            return list(perm)
    return None

"""Avoidance up to symmetry.

Given two maps f, g from a finite index set N into subsets of [c], decide
whether some permutation sigma of N makes f(i) and g(sigma(i)) disjoint for
every i, and construct such a sigma when one exists.  Feasibility is a
Hall-type condition: for every order ideal J of 2^[c],

    sum_{T in J} |f^-1(T)|  <=  sum_{T in J} |g^-1(T^C)|.

The ideal J = 2^[c] holds with equality whenever the totals agree, and
J = {} is trivial, so only proper nonempty ideals are checked; those are
generated by nonempty antichains.

find_avoiding_permutation builds sigma greedily and runs on count vectors:
a pairing of f-value t with g-value s changes only the counts of t and s,
and a tight split keeps all indices of one value together, so the indices
wait in one FIFO queue per value.  Each pairing lowers every Hall slack by
at most one, so how many times one (t, s) pairing may repeat is the least
slack it touches, and the greedy takes them in one batch.  The number of
batches depends on c, not on |N|.

hall_violation is the package's one Hall check, on (mask, count) pairs;
divisibility up to symmetry (dual_core) calls it on two type vectors' items.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Collection, Iterable, Mapping, Optional, Sequence

from . import boolean_poset as bp
from .errors import InputError


def hall_violation(
    c: int, k: Iterable[tuple[int, int]], r: Collection[tuple[int, int]]
) -> Optional[int]:
    """First J in bp.proper_nonempty_ideals(c) with sum_J k_T > sum_J r_T, or None.

    k and r hold (subset mask, nonnegative count) pairs, each mask at most
    once; J is a 2^c-bit family.  Only the ideals whose minimal elements lie
    in supp(k) are visited.  That finds the same first violator: shrinking a
    violator J to the upper closure of J & supp(k) keeps its k-sum, does not
    raise its r-sum, and sorts no later.
    """
    ks = [(t, v) for t, v in k if t and v]
    for ideal in bp.ideals_generated_in(c, sum(1 << t for t, _ in ks)):
        lhs = sum(v for t, v in ks if ideal >> t & 1)
        if lhs > sum(v for t, v in r if ideal >> t & 1):
            return ideal
    return None


def _violating_ideal(c: int, k: Mapping[int, int], l: Mapping[int, int]):
    """First proper nonempty ideal J with sum_J k_T > sum_J l_{T^C}, or None."""
    bp.check_ideal_cap(c)
    full = bp.full_mask(c)
    return hall_violation(c, k.items(), [(full ^ t, v) for t, v in l.items()])


def violating_order_ideal(
    f: Sequence[int], g: Sequence[int], c: int
) -> Optional[int]:
    """Certificate of infeasibility for find_avoiding_permutation's input, or None.

    The first proper nonempty ideal J, as a 2^c-bit family, with more values
    of f in J than values of g whose complements lie in J.
    """
    if len(f) != len(g):
        raise InputError("f and g must have the same length")
    return _violating_ideal(c, Counter(f), Counter(g))


def _check_witness(f, g, sigma):
    assert all(f[i] & g[sigma[i]] == 0 for i in range(len(f))), (
        "constructed permutation fails disjointness"
    )


def _batch_size(
    c: int, k: Mapping[int, int], l: Mapping[int, int], t0: int, s0: int, cap: int
) -> int:
    """Largest b <= cap such that b more (t0, s0) pairings keep k, l feasible.

    A pairing lowers the slack sum_J l_{T^C} - sum_J k_T of an ideal J by
    one when J holds s0^C but not t0, and leaves it unchanged otherwise: an
    ideal holding t0 holds its superset s0^C.  So b is the least slack over
    those ideals.  Shrinking such a J to the ideal generated by J & supp(k)
    and s0^C keeps both conditions and does not raise the slack, so only the
    ideals generated inside supp(k) and s0^C are visited.
    """
    full = bp.full_mask(c)
    s0c = full ^ s0
    ks = [(t, v) for t, v in k.items() if t and v]
    rs = [(full ^ s, v) for s, v in l.items() if v]
    for ideal in bp.ideals_generated_in(c, 1 << s0c | sum(1 << t for t, _ in ks)):
        if ideal >> s0c & 1 and not ideal >> t0 & 1:
            slack = sum(v for t, v in rs if ideal >> t & 1) - sum(
                v for t, v in ks if ideal >> t & 1
            )
            cap = min(cap, slack)
    return cap


def find_avoiding_permutation(
    f: Sequence[int], g: Sequence[int], c: int
) -> Optional[list[int]]:
    """Permutation sigma (as a list, i -> sigma[i]) with f[i] & g[sigma[i]] == 0, or None.

    Constructive greedy: pair the first index of the largest nonempty
    f-value t0 in the standard order with the first index of the g-value s0
    disjoint from it whose complement comes first in that order; when the
    pairing would break feasibility, the ideal it violates is tight and
    splits the instance into two independent halves.

    The greedy runs on per-value index queues.  A split sends all indices of
    one value to one side, so inside every sub-instance the first index of a
    value is the head of that value's queue, and t0 and s0 depend only on the
    count vectors.  A (t0, s0) pairing lowers the Hall slack of an ideal by
    at most one, so feasibility after b repeats is monotone in b, and each
    choice is paired in one batch of _batch_size pairings.  A batch that
    stops before a count runs out is followed by the split the next pairing
    would cause.  Each batch empties a queue or splits, and the splits
    partition the f-values, so there are at most 3 * 2^c batches whatever
    |N| is.  The explicit worklist keeps the recursion depth constant.
    """
    if len(f) != len(g):
        raise InputError("f and g must have the same length")
    bp.check_ambient(c)
    n = len(f)
    if _violating_ideal(c, Counter(f), Counter(g)) is not None:
        return None
    full = bp.full_mask(c)
    rank = bp.standard_rank(c)
    fq: dict[int, deque] = {}
    gq: dict[int, deque] = {}
    for i, t in enumerate(f):
        fq.setdefault(t, deque()).append(i)
    for j, s in enumerate(g):
        gq.setdefault(s, deque()).append(j)
    sigma: list[Optional[int]] = [None] * n
    # Each sub-instance owns the remaining indices of its f- and g-values.
    stack: list[tuple[list[int], list[int]]] = [(list(fq), list(gq))]
    while stack:
        fvals, gvals = stack.pop()
        while True:
            k = {t: len(fq[t]) for t in fvals if fq[t]}
            l = {s: len(gq[s]) for s in gvals if gq[s]}
            nonempty = [t for t in k if t]
            if not nonempty:
                # Only f-value 0 is left; its indices pair with the g-indices
                # in index order.
                rest = sorted(j for s in l for j in gq[s])
                zeros = fq[0] if 0 in k else ()
                assert len(zeros) == len(rest), "sub-instance sizes must agree"
                for i, j in zip(zeros, rest):
                    sigma[i] = j
                break
            # Largest nonempty f-value in the standard order.
            t0 = min(nonempty, key=rank.__getitem__)
            # g-values disjoint from t0 are exactly those whose complement contains t0.
            candidates = [s for s in l if s & t0 == 0]
            assert candidates, "feasible instance must admit a compatible g-fiber"
            s0 = min(candidates, key=lambda s: rank[full ^ s])
            cap = min(k[t0], l[s0])
            b = _batch_size(c, k, l, t0, s0, cap)
            for _ in range(b):
                sigma[fq[t0].popleft()] = gq[s0].popleft()
            if b == cap:
                continue
            ideal = _violating_ideal(
                c, {**k, t0: k[t0] - b - 1}, {**l, s0: l[s0] - b - 1}
            )
            assert ideal is not None, "the pairing past the batch must break feasibility"
            # Tight split: f-values inside the ideal pair with g-values whose
            # complements land inside it; the two halves are independent.
            f1 = [t for t in k if ideal >> t & 1]
            f2 = [t for t in k if not ideal >> t & 1]
            g1 = [s for s in l if ideal >> (full ^ s) & 1]
            g2 = [s for s in l if not ideal >> (full ^ s) & 1]
            n1 = sum(len(fq[t]) for t in f1)
            assert n1 == sum(len(gq[s]) for s in g1) and n1 and any(
                fq[t] for t in f2
            ), "tight ideal must split properly"
            stack.append((f1, g1))
            stack.append((f2, g2))
            break
    out = [j for j in sigma if j is not None]
    assert len(out) == n
    _check_witness(f, g, out)
    return out


"""Counting functions of the ambient width n, with exact polynomial fitting.

All arithmetic is exact: counts are Python integers, polynomial coefficients
are Fractions.  Counts are produced by enumeration; the eventually-polynomial
behavior in n is recovered by Newton forward-difference interpolation on a
stable suffix of consecutive samples, validated by exact prediction of every
remaining sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from . import boolean_poset as bp
from . import dual_core
from .errors import FitError, InputError, WidthError
from .orbit_monomials import GeneratorSystem, TypeVector


@dataclass(frozen=True)
class RationalPolynomial:
    """Exact polynomial, coefficients ascending by degree."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Fraction]) -> "RationalPolynomial":
        cs = [Fraction(x) for x in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

    def __call__(self, n: int) -> Fraction:
        total = Fraction(0)
        power = Fraction(1)
        for coef in self.coeffs:
            total += coef * power
            power *= n
        return total

    def to_json(self, stable_from: int) -> dict:
        return {"coeffs": [str(coef) for coef in self.coeffs], "stable_from": stable_from}


def _consecutive(samples: Mapping[int, int]) -> list[int]:
    """The sampled widths, ascending; they must be consecutive integers."""
    ns = sorted(samples)
    if any(b - a != 1 for a, b in zip(ns, ns[1:])):
        raise InputError("samples must sit at consecutive n")
    return ns


def dual_orbit_count(system: GeneratorSystem, n: int) -> int:
    """Orbits minimally generating the dual at width n.

    Equivalently the number of orbit classes of primary components of the
    original ideal at that width.
    """
    return len(dual_core.min_gens(system, n))


def count_series(system: GeneratorSystem, ns: Sequence[int]) -> dict[int, int]:
    """{n: dual_orbit_count(system, n)} over the given widths."""
    return {n: dual_orbit_count(system, n) for n in ns}


def _newton_poly(points: Sequence[tuple[int, int]]) -> RationalPolynomial:
    """Interpolating polynomial through consecutive-integer points."""
    xs = [x for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    # Forward differences at the left end.
    diffs = [ys]
    while len(diffs[-1]) > 1:
        prev = diffs[-1]
        diffs.append([b - a for a, b in zip(prev, prev[1:])])
    deltas = [row[0] for row in diffs]
    x0 = xs[0]
    coeffs = [Fraction(0)] * len(points)
    # Accumulate delta_k / k! * (x - x0)(x - x0 - 1)...(x - x0 - k + 1).
    basis = [Fraction(1)]
    for k, delta in enumerate(deltas):
        scale = delta / math.factorial(k)
        for i, b in enumerate(basis):
            coeffs[i] += scale * b
        root = x0 + k
        new = [Fraction(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            new[i] -= b * root
            new[i + 1] += b
        basis = new
    return RationalPolynomial.from_coeffs(coeffs)


def fit_polynomial(
    samples: Mapping[int, int], max_degree: int
) -> tuple[RationalPolynomial, int]:
    """Exact fit through the last max_degree + 1 samples, validated backwards.

    samples maps consecutive widths n to counts.  Earlier samples must be
    predicted exactly; returns the polynomial and the first n from which
    every prediction holds.  Fails when fewer than max_degree + 2 samples
    remain in that stable window.
    """
    if max_degree < 0:
        raise InputError("max_degree must be nonnegative")
    ns = _consecutive(samples)
    if len(ns) < max_degree + 2:
        raise FitError(
            f"need at least {max_degree + 2} consecutive samples, have {len(ns)}"
        )
    tail = ns[-(max_degree + 1):]
    poly = _newton_poly([(n, samples[n]) for n in tail])
    stable = tail[0]
    for n in reversed(ns[: -(max_degree + 1)]):
        if poly(n) == samples[n]:
            stable = n
        else:
            break
    if ns[-1] - stable + 1 < max_degree + 2:
        raise FitError(
            "no stable window: the tail polynomial fails on every long enough suffix"
        )
    return poly, stable


def default_degree_bound(c: int) -> int:
    """Largest antichain size in 2^[c], minus one."""
    return math.comb(c, c // 2) - 1


def min_degree_line(
    degrees: Mapping[int, int], c: int
) -> tuple[int, int, tuple[int, int]]:
    """Fit d(n) = a*n + b to least generator degrees keyed by consecutive n.

    Returns (a, b, (n_first, n_last)) for the longest suffix of the sampled
    range with constant first differences; the slope must land in [0, c].
    """
    ns = _consecutive(degrees)
    if len(ns) < 3:
        raise FitError("need at least 3 samples to detect a stable slope")
    slope = degrees[ns[-1]] - degrees[ns[-2]]
    start = ns[-2]
    for i in range(len(ns) - 3, -1, -1):
        if degrees[ns[i + 1]] - degrees[ns[i]] == slope:
            start = ns[i]
        else:
            break
    if ns[-1] - start < 2:
        raise FitError("no stable window of constant first differences")
    assert 0 <= slope <= c, f"min-degree slope {slope} outside [0, c]"
    intercept = degrees[start] - slope * start
    return slope, intercept, (start, ns[-1])


def facet_orbits_by_dimension(system: GeneratorSystem, n: int) -> dict[int, int]:
    """Histogram of dual generator orbits by facet dimension c*n - 1 - degree."""
    if n < system.m:
        raise WidthError(f"width n={n} below the system's stability width {system.m}")
    hist: dict[int, int] = {}
    for tv in dual_core.min_gens(system, n):
        dim = system.c * n - 1 - tv.degree
        hist[dim] = hist.get(dim, 0) + 1
    return hist


def type_vectors_of_degree(
    c: int, degree: int, max_weight: int | None = None
) -> Iterator[TypeVector]:
    """All type vectors over [c] of the given total degree (weight capped).

    Depth first over the supports in standard order, each support taking its
    multiplicity from the largest that fits down to 0.  The walk keeps its
    own stack, so its depth is not bounded by the interpreter's recursion
    limit, and it steps over the supports that can only take 0: those larger
    than the remaining degree, and all of them once the weight is spent.
    counts holds one entry per open frame with a nonzero multiplicity, in
    stack order, which is the standard order, so its items are the vector's.
    """
    bp.check_ambient(c)
    if degree < 0:
        return
    supports = bp.standard_order(c)
    # Sizes fall along the standard order: supports[first[r]:] have size <= r.
    first = [sum(math.comb(c, i) for i in range(r + 1, c + 1)) for r in range(c + 1)]
    counts: dict[int, int] = {}

    def frame(idx: int, remaining: int, weight: int) -> list[int] | None:
        """[support index, remaining degree, weight, next multiplicity], or None."""
        idx = max(idx, first[min(remaining, c)])
        if idx == len(supports) or weight == max_weight:
            return None
        top = remaining // supports[idx].bit_count()
        if max_weight is not None:
            top = min(top, max_weight - weight)
        return [idx, remaining, weight, top]

    if degree == 0:
        yield TypeVector(c, ())
        return
    root = frame(0, degree, 0)
    stack = [root] if root else []
    while stack:
        fr = stack[-1]
        idx, remaining, weight, k = fr
        mask = supports[idx]
        if k < 0:
            stack.pop()
            counts.pop(mask, None)
            continue
        fr[3] = k - 1
        if k:
            counts[mask] = k
        else:
            counts.pop(mask, None)
        left = remaining - k * mask.bit_count()
        if left == 0:
            yield TypeVector(c, tuple(counts.items()))
            continue
        child = frame(idx + 1, left, weight + k)
        if child:
            stack.append(child)


def face_orbit_count(system: GeneratorSystem, j: int, n: int) -> int:
    """Orbits of j-dimensional faces of the complex at width n.

    A squarefree orbit of degree j + 1 is a face iff no generator divides it
    up to symmetry.
    """
    if j < 0:
        raise InputError("face dimension j must be nonnegative")
    if n < system.m:
        raise WidthError(f"width n={n} below the system's stability width {system.m}")
    count = 0
    for tv in type_vectors_of_degree(system.c, j + 1, max_weight=n):
        if not any(
            dual_core.divides_up_to_sym(a, tv, n) for a in system.generators
        ):
            count += 1
    return count

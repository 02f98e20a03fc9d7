"""Sum-constrained polyhedra, orthant decompositions and slice counts.

A SumPolyhedron in R^k is cut out by lower bounds sum_{i in T} x_i >= a_T
over nonempty T subseteq [k] and optional upper bounds sum_{i in T} x_i <= b_T
over T in U.  Its integer points decompose into finitely many disjoint
"orthants": integral apices with some coordinates fixed and the rest only
bounded below.  Counting the points of a fixed coordinate sum n is then a
stars-and-bars sum per orthant.

Sets of coordinates are bitmasks throughout, coordinate i <-> bit i-1, as
subsets are in boolean_poset; only an Orthant names its coordinates by
1-based id.  cone_decompose has one path: the coordinates under an upper
bound are enumerated within their bounds, and the others split recursively.

Missing lower keys mean "no constraint", except that every coordinate must
carry its singleton bound: without one the polyhedron is unbounded below in
that coordinate and has no finite orthant decomposition.

The module holds only what the pipeline runs.  The references it is tested
against, point membership in a polyhedron or an orthant and the direct
enumeration of a slice, live in oracle and share no code with
cone_decompose.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, NamedTuple

from . import boolean_poset as bp
from .errors import CapError, InputError

MAX_DIMENSION = 8
MAX_ORTHANTS = 100_000


@dataclass(frozen=True)
class SumPolyhedron:
    """Coordinate-sum constraints over R^k; keys are coordinate-set masks."""

    k: int
    lower: tuple[tuple[int, int], ...]
    upper: tuple[tuple[int, int], ...]

    @classmethod
    def from_maps(
        cls,
        k: int,
        lower: Mapping[Iterable[int] | int, int],
        upper: Mapping[Iterable[int] | int, int] | None = None,
    ) -> "SumPolyhedron":
        bp.check_ambient(k)
        low = {}
        for key, bound in lower.items():
            mask = _as_mask(key, k)
            low[mask] = max(low.get(mask, bound), bound)
        up = {}
        for key, bound in (upper or {}).items():
            mask = _as_mask(key, k)
            if mask == 0:
                raise InputError("upper bounds need a nonempty coordinate set")
            up[mask] = min(up.get(mask, bound), bound)
        return cls(k, tuple(sorted(low.items())), tuple(sorted(up.items())))


def _as_mask(key, k: int) -> int:
    if isinstance(key, int):
        mask = key
        if mask & ~bp.full_mask(k):
            raise InputError(f"coordinate mask {mask:#x} outside [{k}]")
        return mask
    return bp.mask_of(key, k)


class Orthant(NamedTuple):
    """Pointed integral cone: fixed coordinates plus lower-bounded free ones.

    Both are (1-based coordinate, value) pairs sorted by coordinate, and
    together their coordinates are 1..k exactly once each.
    """

    fixed: tuple[tuple[int, int], ...]
    bounded: tuple[tuple[int, int], ...]


def _require_singleton_bounds(lower: Mapping[int, int], coords: Iterable[int]) -> None:
    for j in coords:
        if (1 << (j - 1)) not in lower:
            raise InputError(
                f"coordinate {j} has no singleton lower bound; "
                "the polyhedron is unbounded below and has no orthant decomposition"
            )


def _bit_sum(values: Mapping[int, int], mask: int) -> int:
    """Sum of values[b] over the single-bit masks b of mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += values[low]
        mask ^= low
    return total


def _check_orthants(count: int) -> None:
    if count > MAX_ORTHANTS:
        raise CapError(f"orthant decomposition capped at {MAX_ORTHANTS} orthants")


def _split_free(coords: int, lower: dict[int, int]):
    """Decompose {sum_{i in T} x_i >= a_T over coords} into disjoint orthants.

    coords is a coordinate mask, and the constraints are keyed by masks
    inside it.  Splits on the highest coordinate: above the threshold where
    every coupled constraint is implied by the singleton bounds, the
    coordinate detaches as a plain x_j >= theta factor; each integer level
    below the threshold restricts to a lower-dimensional polyhedron of the
    same class.  Every level adds at least one orthant, so the level count
    is held to MAX_ORTHANTS before the levels are walked.
    """
    if not coords:
        return [({}, {})]
    j = coords.bit_length()
    bit = 1 << (j - 1)
    rest = coords ^ bit
    a_j = lower[bit]
    coupled = [(key ^ bit, bound) for key, bound in lower.items() if key & bit and key != bit]
    theta = max([a_j] + [bound - _bit_sum(lower, key) for key, bound in coupled])
    tail = {key: bound for key, bound in lower.items() if not key & bit}
    _check_orthants(theta - a_j + 1)
    out = [(fixed, {**bounded, j: theta}) for fixed, bounded in _split_free(rest, tail)]
    for level in range(a_j, theta):
        sliced = dict(tail)
        for key, bound in coupled:
            cut = bound - level
            sliced[key] = max(sliced.get(key, cut), cut)
        out += [({**fixed, j: level}, bounded) for fixed, bounded in _split_free(rest, sliced)]
        _check_orthants(len(out))
    return out


def cone_decompose(p: SumPolyhedron) -> list[Orthant]:
    """Disjoint orthants whose integer points are exactly those of p.

    The coordinates under an upper bound are capped.  Each integer witness
    for them that meets every constraint on them alone is fixed, and the
    free coordinates split by _split_free under the reduced lower bounds.
    Without upper bounds the one witness is empty.  Returns the empty list
    iff p has no integer points.  Raises CapError past MAX_DIMENSION, when
    the witness box holds more than MAX_ORTHANTS points, or as soon as the
    orthants exceed MAX_ORTHANTS.
    """
    if p.k > MAX_DIMENSION:
        raise CapError(f"dimension capped at k<={MAX_DIMENSION}, got k={p.k}")
    lower = dict(p.lower)
    if lower.pop(0, 0) > 0:
        return []
    _require_singleton_bounds(lower, range(1, p.k + 1))
    capped = 0
    for mask, _ in p.upper:
        capped |= mask
    free = bp.full_mask(p.k) ^ capped
    bits = [1 << (j - 1) for j in bp.elements(capped)]
    ranges = []
    for bit in bits:
        high = min(bound - _bit_sum(lower, mask ^ bit) for mask, bound in p.upper if mask & bit)
        if high < lower[bit]:
            return []
        ranges.append(range(lower[bit], high + 1))
    box = math.prod(map(len, ranges))
    if box > MAX_ORTHANTS:
        raise CapError(f"witness box of {box} points exceeds the cap of {MAX_ORTHANTS}")
    out = []
    for values in product(*ranges):
        w = dict(zip(bits, values))
        if any(_bit_sum(w, mask) > bound for mask, bound in p.upper) or any(
            not key & free and _bit_sum(w, key) < bound for key, bound in lower.items()
        ):
            continue
        reduced: dict[int, int] = {}
        for key, bound in lower.items():
            if key & free:
                cut = bound - _bit_sum(w, key & capped)
                reduced[key & free] = max(reduced.get(key & free, cut), cut)
        witness = [(bit.bit_length(), v) for bit, v in w.items()]
        for fixed, bounded in _split_free(free, reduced):
            out.append(Orthant(
                tuple(sorted([*fixed.items(), *witness])), tuple(sorted(bounded.items()))
            ))
        _check_orthants(len(out))
    return out


def count_on_slice(orthants: Iterable[Orthant], ns: Iterable[int]) -> dict[int, int]:
    """{n: integer points with coordinate sum n across the orthants}, exactly.

    An orthant with m free coordinates and apex sum b contributes
    C(n - b + m - 1, m - 1) when n >= b; a fully fixed orthant contributes 1
    iff n == b.  Both depend on the orthant only through (b, m), so the
    orthants are grouped by that pair once, and each n sums over the groups.
    """
    groups = Counter(
        (sum(v for _, v in orth.fixed) + sum(v for _, v in orth.bounded), len(orth.bounded))
        for orth in orthants
    )
    out = {}
    for n in ns:
        total = 0
        for (b, m), mult in groups.items():
            if m == 0:
                total += mult if n == b else 0
            elif n >= b:
                total += mult * math.comb(n - b + m - 1, m - 1)
        out[n] = total
    return out


def slice_polynomial_threshold(orthants: Iterable[Orthant]) -> int:
    """Smallest n from which count_on_slice agrees with a single polynomial."""
    worst = 0
    for orth in orthants:
        base = sum(v for _, v in orth.fixed) + sum(v for _, v in orth.bounded)
        m = len(orth.bounded)
        worst = max(worst, base - m + 1)
    return worst


# -- JSON ------------------------------------------------------------------

def polyhedron_to_json(p: SumPolyhedron) -> dict:
    return {
        "k": p.k,
        "lower": [
            {"support": bp.subset_to_json(mask), "bound": bound}
            for mask, bound in p.lower
        ],
        "upper": [
            {"support": bp.subset_to_json(mask), "bound": bound}
            for mask, bound in p.upper
        ],
    }


def polyhedron_from_json(doc) -> SumPolyhedron:
    if not isinstance(doc, dict) or "k" not in doc:
        raise InputError("polyhedron document needs 'k'")
    k = bp.int_from_json(doc["k"], "k")
    bp.check_ambient(k)

    def read(key):
        out = {}
        for entry in bp.list_from_json(doc.get(key, []), key):
            if not isinstance(entry, dict) or "support" not in entry or "bound" not in entry:
                raise InputError(f"bad constraint entry {entry!r}")
            mask = bp.subset_from_json(entry["support"], k)
            out[mask] = bp.int_from_json(entry["bound"], "bound")
        return out

    return SumPolyhedron.from_maps(k, read("lower"), read("upper"))

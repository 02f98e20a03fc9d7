"""Canonical orbit representatives of squarefree monomials under column permutations.

A squarefree monomial in variables x_{i,j} (i in [c] rows, j in [n] columns)
is, up to permuting columns, determined by how many of its columns have each
support T.  That multiset of column supports is stored as a TypeVector: the
complete orbit invariant and the working currency of the whole pipeline.
Explicit 0/1 exponent matrices appear only at I/O boundaries and in the
brute-force oracle.

A TypeVector is width-independent: the number of zero columns is n minus the
weight, so the same datum serves every ambient width n >= weight.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import boolean_poset as bp
from .errors import InputError, WidthError


@dataclass(frozen=True)
class TypeVector:
    """Counts of nonzero columns per support, keyed by subset mask.

    items holds (support_mask, count) pairs with count > 0, in decreasing
    standard order of the supports.
    """

    c: int
    items: tuple[tuple[int, int], ...]

    @classmethod
    def from_counts(cls, c: int, counts: Mapping[int, int]) -> "TypeVector":
        bp.check_ambient(c)
        full = bp.full_mask(c)
        cleaned = {}
        for mask, k in counts.items():
            if not isinstance(k, int) or k < 0:
                raise InputError(f"count for {mask:#x} must be a nonnegative integer")
            if k == 0:
                continue
            if mask == 0 or mask & ~full:
                raise InputError(
                    f"support mask {mask:#x} must be a nonempty subset of [{c}]"
                )
            cleaned[mask] = cleaned.get(mask, 0) + k
        items = tuple(
            (m, cleaned[m]) for m in bp.sort_standard(cleaned)
        )
        return cls(c, items)

    @property
    def weight(self) -> int:
        """Number of nonzero columns."""
        return sum(k for _, k in self.items)

    @property
    def degree(self) -> int:
        """Total degree of the monomial: sum of count * |support|."""
        return sum(k * m.bit_count() for m, k in self.items)

    def sort_key(self):
        """Deterministic order: by degree, then counts read in standard subset order."""
        rank = bp.standard_rank(self.c)
        vec = [0] * (len(rank) - 1)
        for m, k in self.items:
            vec[rank[m]] = k
        return (self.degree, tuple(vec))


def type_vector_of_matrix(rows: Sequence[Sequence[int]]) -> TypeVector:
    """Orbit invariant of a 0/1 exponent matrix: column supports counted by support.

    Zero columns are dropped (they are the implicit padding).
    """
    c = len(rows)
    bp.check_ambient(c)
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise InputError("ragged matrix: rows have different lengths")
    n = widths.pop() if widths else 0
    counts: dict[int, int] = {}
    for j in range(n):
        mask = 0
        for i in range(c):
            entry = rows[i][j]
            if isinstance(entry, bool) or entry not in (0, 1):
                raise InputError(f"matrix entry {entry!r} at ({i + 1},{j + 1}) is not a bit")
            if entry:
                mask |= 1 << i
        if mask:
            counts[mask] = counts.get(mask, 0) + 1
    return TypeVector.from_counts(c, counts)


def orbit_size(tv: TypeVector, n: int) -> int:
    """Number of distinct matrices in the column-permutation orbit: a multinomial."""
    if n < tv.weight:
        raise WidthError(f"width n={n} below weight {tv.weight}")
    denom = math.factorial(n - tv.weight)
    for _, k in tv.items:
        denom *= math.factorial(k)
    return math.factorial(n) // denom


@dataclass(frozen=True)
class GeneratorSystem:
    """The input ideal chain: ambient rows c and the orbit generators."""

    c: int
    generators: tuple[TypeVector, ...]

    def __post_init__(self):
        if not self.generators:
            raise InputError("a generator system needs at least one generator")
        for g in self.generators:
            if g.c != self.c:
                raise InputError("generator ambient size differs from the system's")
            if g.weight < 1:
                raise InputError("generators must be nonzero")

    @classmethod
    def make(cls, c: int, gens: Iterable[TypeVector]) -> "GeneratorSystem":
        return cls(c, tuple(gens))

    @property
    def m(self) -> int:
        """Maximum generator weight: the first width at which the chain is nonzero."""
        return max(g.weight for g in self.generators)


# -- JSON ------------------------------------------------------------------

def type_vector_to_json(tv: TypeVector) -> dict:
    return {
        "c": tv.c,
        "counts": [
            {"support": bp.subset_to_json(m), "count": k} for m, k in tv.items
        ],
    }


def _counts_from_json(doc, c: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    if isinstance(doc, list):
        for entry in doc:
            if not isinstance(entry, dict) or "support" not in entry or "count" not in entry:
                raise InputError(f"bad counts entry {entry!r}")
            mask = bp.subset_from_json(entry["support"], c)
            counts[mask] = counts.get(mask, 0) + bp.int_from_json(entry["count"], "count")
    elif isinstance(doc, dict):
        for key, k in doc.items():
            try:
                support = json.loads(key)
            except (TypeError, json.JSONDecodeError) as exc:
                raise InputError(f"bad subset key {key!r}") from exc
            mask = bp.subset_from_json(support, c)
            counts[mask] = counts.get(mask, 0) + bp.int_from_json(k, "count")
    else:
        raise InputError(f"counts must be a list or an object, got {doc!r}")
    return counts


def type_vector_from_json(doc, c: int | None = None) -> TypeVector:
    if not isinstance(doc, dict):
        raise InputError(f"type vector must be an object, got {doc!r}")
    if c is None:
        if "c" not in doc:
            raise InputError("type vector document is missing 'c'")
        c = bp.int_from_json(doc["c"], "c")
    if "matrix" in doc:
        rows = bp.list_from_json(doc["matrix"], "matrix")
        tv = type_vector_of_matrix([bp.list_from_json(r, "matrix row") for r in rows])
        if tv.c != c:
            raise InputError("matrix row count differs from declared c")
        return tv
    if "counts" not in doc:
        raise InputError("type vector document needs 'counts' or 'matrix'")
    return TypeVector.from_counts(c, _counts_from_json(doc["counts"], c))


def generator_system_to_json(system: GeneratorSystem) -> dict:
    return {
        "c": system.c,
        "generators": [
            {"counts": type_vector_to_json(g)["counts"]} for g in system.generators
        ],
    }


def generator_system_from_json(doc) -> GeneratorSystem:
    if not isinstance(doc, dict) or "c" not in doc or "generators" not in doc:
        raise InputError("generator system document needs 'c' and 'generators'")
    c = bp.int_from_json(doc["c"], "c")
    gens = bp.list_from_json(doc["generators"], "generators")
    return GeneratorSystem.make(c, [type_vector_from_json(g, c) for g in gens])

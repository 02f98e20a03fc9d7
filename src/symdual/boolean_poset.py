"""Subsets of [c], order ideals and antichains in the Boolean lattice 2^[c].

Subsets of [c] = {1, ..., c} are encoded as bitmasks, row i <-> bit i-1, so
all set algebra is word operations.  Throughout the package an "order ideal"
is an *upper* set: a family of subsets closed under taking supersets.
Families are plain frozensets of masks.

Order ideals have one enumerator, ideals_generated_in: the ideals generated
by the antichains inside a given set of masks, each as a 2^c-bit member
bitset.  proper_nonempty_ideals is its output for all nonempty masks, as
frozensets, and nonempty_antichains lists their minimal elements.

Subsets are serialized in JSON as sorted arrays of 1-based integers, e.g.
[1, 3]; families as arrays of such arrays.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .config import SUBSET_MAX_C, ideal_enum_cap
from .errors import CapError, InputError

def check_ambient(c: int) -> None:
    """An ambient size below 1 is malformed input; one above SUBSET_MAX_C hits a cap."""
    if not isinstance(c, int) or c < 1:
        raise InputError(f"ambient size c={c!r} must be an integer of at least 1")
    if c > SUBSET_MAX_C:
        raise CapError(f"ambient size c={c!r} outside 1..{SUBSET_MAX_C}")


def full_mask(c: int) -> int:
    return (1 << c) - 1


def mask_of(indices: Iterable[int], c: int) -> int:
    """Bitmask of a set of 1-based row indices."""
    m = 0
    for i in indices:
        if not 1 <= i <= c:
            raise InputError(f"row index {i} outside 1..{c}")
        m |= 1 << (i - 1)
    return m


def elements(mask: int) -> tuple[int, ...]:
    """1-based indices of a mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def is_subset(s: int, t: int) -> bool:
    return s | t == t


def complement(t: int, c: int) -> int:
    """[c] - T.  Involution: complement(complement(T)) == T."""
    check_ambient(c)
    if t & ~full_mask(c):
        raise InputError(f"mask {t:#x} has bits outside [c] for c={c}")
    return full_mask(c) ^ t


def complement_family(family: Iterable[int], c: int) -> frozenset:
    """Elementwise complements {T^C : T in family}; cardinality preserved."""
    return frozenset(complement(t, c) for t in family)


def supersets(mask: int, c: int) -> Iterator[int]:
    """All supersets of mask inside 2^[c], mask itself included."""
    free = full_mask(c) ^ mask
    sub = free
    while True:
        yield mask | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def subsets_of(mask: int) -> Iterator[int]:
    """All subsets of mask, the empty set included."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def upper_closure(generators: Iterable[int], c: int) -> frozenset:
    """Smallest upward-closed family of 2^[c] containing the generators."""
    out = set()
    for g in generators:
        out.update(supersets(g, c))
    return frozenset(out)


def lower_closure(generators: Iterable[int], c: int) -> frozenset:
    """Smallest downward-closed family containing the generators (with the empty set)."""
    check_ambient(c)
    out = set()
    for g in generators:
        out.update(subsets_of(g))
    return frozenset(out)


def minimal_elements(family: Iterable[int]) -> frozenset:
    """Members not properly containing another member; always an antichain."""
    fam = set(family)
    return frozenset(
        t for t in fam if not any(s != t and is_subset(s, t) for s in fam)
    )


def is_order_ideal(family: Iterable[int], c: int) -> bool:
    """Full-scan test for upward closure inside 2^[c]."""
    fam = set(family)
    return all(s in fam for t in fam for s in supersets(t, c))


def subset_sort_key(mask: int):
    """Sort key putting subsets in decreasing standard order.

    Larger cardinality first; at equal cardinality the subset whose first
    differing element is smaller comes first (the order induced by
    1 > 2 > ... > c).
    """
    return (-mask.bit_count(), elements(mask))


def sort_standard(masks: Iterable[int]) -> list[int]:
    """Masks in decreasing standard order."""
    return sorted(masks, key=subset_sort_key)


@lru_cache(maxsize=None)
def standard_order(c: int) -> tuple[int, ...]:
    """All nonempty masks of [c] in decreasing standard order."""
    return tuple(sort_standard(range(1, 1 << c)))


@lru_cache(maxsize=None)
def standard_rank(c: int) -> tuple[int, ...]:
    """rank[m] = position of the nonempty mask m in standard_order(c) (rank[0] unused)."""
    rank = [0] * (1 << c)
    for i, m in enumerate(standard_order(c)):
        rank[m] = i
    return tuple(rank)


def check_ideal_cap(c: int) -> None:
    """Refuse an ambient size above the order-ideal enumeration cap."""
    check_ambient(c)
    cap = ideal_enum_cap()
    if c > cap:
        raise CapError(f"order-ideal enumeration capped at c<={cap}, got c={c}")


@lru_cache(maxsize=1024)
def ideals_generated_in(c: int, gens: frozenset) -> tuple[int, ...]:
    """Member bitsets of the ideals generated by nonempty antichains of the
    nonempty masks gens, ordered by size, then by sorted members.

    Taken by increasing size, a mask is never below an earlier one, so it
    extends exactly the antichains whose closure misses it.
    """
    closures = [frozenset()]
    for g in sorted(gens, key=int.bit_count):
        up = upper_closure([g], c)
        closures += [j | up for j in closures if g not in j]
    closures = sorted(closures[1:], key=lambda j: (len(j), sorted(j)))
    return tuple(sum(1 << t for t in j) for j in closures)


@lru_cache(maxsize=None)
def proper_nonempty_ideals(c: int) -> tuple[frozenset, ...]:
    """All order ideals J with {} != J != 2^[c], in ideals_generated_in order.

    They are the ideals generated by the nonempty antichains of nonempty
    masks, so their members are nonempty masks.
    """
    check_ideal_cap(c)
    return tuple(
        frozenset(t for t in range(1 << c) if members >> t & 1)
        for members in ideals_generated_in(c, frozenset(range(1, 1 << c)))
    )


@lru_cache(maxsize=None)
def nonempty_antichains(c: int) -> tuple[frozenset, ...]:
    """Nonempty antichains of nonempty subsets, in bijection with proper_nonempty_ideals."""
    return tuple(minimal_elements(j) for j in proper_nonempty_ideals(c))


# -- JSON ------------------------------------------------------------------

def subset_to_json(mask: int) -> list[int]:
    return list(elements(mask))


def int_from_json(doc, what: str) -> int:
    """A JSON integer; a bool or any other type is a schema violation."""
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise InputError(f"{what} must be an integer, got {doc!r}")
    return doc


def list_from_json(doc, what: str) -> list:
    if not isinstance(doc, list):
        raise InputError(f"{what} must be a list, got {doc!r}")
    return doc


def subset_from_json(doc, c: int) -> int:
    return mask_of([int_from_json(i, "row index") for i in list_from_json(doc, "subset")], c)


def family_to_json(family: Iterable[int]) -> list[list[int]]:
    return sorted(subset_to_json(m) for m in family)
